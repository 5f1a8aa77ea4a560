"""Concrete environments and the game catalogue ``GAMES``: one builder per
game, whose keyword parameters are the game's whole parameter set and whose
defaults are the only place the game's defaults are written. Every keyword is
a plain value (a number, a list or a dict) that a sweep's JSON can give. An
image space's codec, ``image_to_message`` and ``message_to_image``, is here
too: it reads the block size off the space, so no caller derives it."""

from __future__ import annotations

import inspect

import numpy as np

from .mcg import Belief, McgSpec, MessageSpace
from .mdp import MdpSpec


def build_toy_mcg(priority: float = 1.0, noise_p: float = 0.0) -> McgSpec:
    """One non-terminal state, three actions with rewards (4, 3, 0), and two
    equiprobable messages."""
    mdp = MdpSpec.deterministic(
        next_table=np.ones((2, 3), dtype=np.int64),
        rewards=np.array([[4.0, 3.0, 0.0], [0.0, 0.0, 0.0]]),
        initial_state=0,
        terminal_states=frozenset({1}),
        horizon_bound=1,
    )
    return chain_mcg(mdp, MessageSpace.explicit(2), priority, noise_p)


# The (dx, dy) of each grid action, in index order.
_GRID_MOVES = ((-1, 0), (1, 0), (0, 1), (0, -1))


def build_codegrid(
    n_messages: int = 2,
    priority: float = 1.0,
    noise_p: float = 0.0,
    width: int = 4,
    height: int = 4,
    start: tuple[int, int] = (1, 1),
    goal: tuple[int, int] = (4, 4),
    max_steps: int = 8,
) -> McgSpec:
    """Gridworld coding game: carry one of ``n_messages`` equiprobable messages
    from ``start`` to ``goal`` on a ``width`` x ``height`` grid within
    ``max_steps`` moves.

    Positions are 1-indexed (x, y) pairs; the state encodes (x, y, t). Actions
    0, 1, 2 and 3 move left, right, up (y + 1) and down (y - 1). Bumping a
    wall leaves the position unchanged but still consumes a timestep. Reaching
    the goal ends the episode with reward 1; running out the clock pays 0. A
    size or deadline below 1, a start or goal off the grid, or a start on the
    goal (a game that ends before its first move) raises ValueError.
    """
    if min(width, height, max_steps) < 1:
        raise ValueError(
            "'width', 'height' and 'max_steps' must be at least 1, "
            f"not {width}, {height} and {max_steps}"
        )
    for name, (px, py) in (("start", start), ("goal", goal)):
        if not (1 <= px <= width and 1 <= py <= height):
            raise ValueError(f"{name!r} ({px}, {py}) lies outside the {width} x {height} grid")
    if tuple(start) == tuple(goal):
        raise ValueError(f"'start' and 'goal' are the same cell {tuple(start)}")
    w, h, t_max = width, height, max_steps
    gx, gy = goal[0] - 1, goal[1] - 1
    sx, sy = start[0] - 1, start[1] - 1

    # State ids are (t * h + y) * w + x, so the arrays below are (t, y, x).
    t, y, x = np.meshgrid(np.arange(t_max + 1), np.arange(h), np.arange(w), indexing="ij")
    terminal = ((x == gx) & (y == gy)) | (t == t_max)
    next_table = np.empty((t_max + 1, h, w, 4), dtype=np.int64)
    rewards = np.zeros((t_max + 1, h, w, 4))
    for a, (dx, dy) in enumerate(_GRID_MOVES):
        nx = np.clip(x + dx, 0, w - 1)
        ny = np.clip(y + dy, 0, h - 1)
        next_table[..., a] = ((t + 1) * h + ny) * w + nx
        rewards[..., a] = (nx == gx) & (ny == gy) & ~terminal
    mdp = MdpSpec.deterministic(
        next_table=next_table.reshape(-1, 4),
        rewards=rewards.reshape(-1, 4),
        initial_state=sy * w + sx,
        terminal_states=frozenset(np.flatnonzero(terminal).tolist()),
        horizon_bound=t_max,
    )
    return chain_mcg(mdp, MessageSpace.explicit(n_messages), priority, noise_p)


def build_channel_chain(
    steps: int, n_actions: int, rewards: dict | None = None
) -> MdpSpec:
    """Deterministic chain where every action advances one state.

    ``rewards`` optionally maps a step index to the reward every action pays
    there (default 0 everywhere). With all-zero rewards this is a pure
    referential game: the max-entropy policy is uniform and the chain carries
    log2(n_actions) bits of coupling budget per step.
    """
    if steps < 1:
        raise ValueError("chain needs at least one step")
    table = np.zeros((steps + 1, n_actions))
    for t, r in (rewards or {}).items():
        if not 0 <= t < steps:
            raise ValueError(f"reward step {t} outside the chain")
        table[t, :] = r
    next_table = np.repeat(np.arange(1, steps + 2)[:, None], n_actions, axis=1)
    return MdpSpec.deterministic(
        next_table=next_table,
        rewards=table,
        initial_state=0,
        terminal_states=frozenset({steps}),
        horizon_bound=steps,
    )


def chain_mcg(
    mdp: MdpSpec,
    space: MessageSpace,
    priority: float = 1.0,
    noise_p: float = 0.0,
) -> McgSpec:
    """Wrap a chain (or any MDP) with a uniform prior over the given space."""
    return McgSpec(
        mdp=mdp,
        message_space=space,
        prior=Belief.uniform(space),
        priority=priority,
        noise_p=noise_p,
    )


def build_coding_mcg(
    alphabet_size: int = 2, symbol_costs: tuple[float, ...] | None = None,
    length_limit: int = 64, n_messages: int = 2, priority: float = 1.0, noise_p: float = 0.0,
) -> McgSpec:
    """Source-coding game: ``n_messages`` equiprobable messages carried by a
    codeword over ``alphabet_size`` symbols.

    States count emitted symbols. Each symbol action advances at a cost of 1,
    or of its entry in ``symbol_costs``, and the last action stops for free; an
    episode emits at most ``length_limit`` symbols. Standard coding is the
    defaults (the limit of 64 only keeps episodes finite), length-limited coding
    sets ``length_limit``, and unequal-cost coding sets ``symbol_costs``.
    """
    if alphabet_size < 1:
        raise ValueError(f"'alphabet_size' must be at least 1, not {alphabet_size}")
    if length_limit < 1:
        raise ValueError(f"'length_limit' must be at least 1, not {length_limit}")
    costs = [1.0] * alphabet_size if symbol_costs is None else list(symbol_costs)
    if len(costs) != alphabet_size or any(c < 0 for c in costs):
        raise ValueError(
            f"'symbol_costs' must hold {alphabet_size} non-negative costs, not {costs}"
        )
    k, limit = alphabet_size, length_limit
    # States 0..limit are symbol counts; state limit+1 is the stopped sink.
    n_states = limit + 2
    sink = limit + 1
    next_table = np.empty((n_states, k + 1), dtype=np.int64)
    next_table[:, :k] = np.arange(1, n_states + 1)[:, None]
    next_table[:, k] = sink
    rewards = np.zeros((n_states, k + 1))
    rewards[:limit, :k] = [-c for c in costs]
    mdp = MdpSpec.deterministic(
        next_table=next_table,
        rewards=rewards,
        initial_state=0,
        terminal_states=frozenset({limit, sink}),
        horizon_bound=limit + 1,
    )
    return chain_mcg(mdp, MessageSpace.explicit(n_messages), priority, noise_p)


def image_space(image_pixels: int, block_pixels: int) -> MessageSpace:
    """Factored message space for a binary image, grouping pixels into blocks.

    ``image_to_message`` and ``message_to_image`` map between an image and a
    message of this space, and read the block size back off the space."""
    if image_pixels < 1 or block_pixels < 1 or image_pixels % block_pixels:
        raise ValueError(
            "'image_pixels' must be a positive multiple of a positive 'block_pixels', "
            f"not {image_pixels} and {block_pixels}"
        )
    return MessageSpace.product([2**block_pixels] * (image_pixels // block_pixels))


def _image_block_pixels(space: MessageSpace, pixels: int) -> int:
    """The ``block_pixels`` that ``image_space`` made ``space`` with. Raises
    ValueError if ``space`` carries no image (its blocks are not all one
    power-of-two size) or an image of other than ``pixels`` pixels."""
    size = space.block_sizes[0]
    bits = size.bit_length() - 1
    if not space.factored or size < 2 or size != 1 << bits or set(space.block_sizes) != {size}:
        raise ValueError(
            "the message space carries no image, which needs blocks of one "
            f"power-of-two size, not {list(space.block_sizes)}"
        )
    if pixels != bits * len(space.block_sizes):
        raise ValueError(
            f"the image has {pixels} pixels; the message space carries "
            f"{bits * len(space.block_sizes)}"
        )
    return bits


def image_to_message(image, space: MessageSpace) -> tuple:
    """The message of image ``space`` that carries the binary ``image``: its
    row-major pixels in blocks of ``space``'s block size, each block's first
    pixel its most significant bit."""
    flat = np.asarray(image).reshape(-1)
    block = _image_block_pixels(space, len(flat))
    return tuple(
        sum(int(b) << (block - 1 - k) for k, b in enumerate(flat[i : i + block]))
        for i in range(0, len(flat), block)
    )


def message_to_image(m: tuple, shape: tuple[int, int], space: MessageSpace) -> np.ndarray:
    """The binary image of ``shape`` (rows, columns) that message ``m`` of
    image ``space`` carries; ``image_to_message``'s inverse."""
    block = _image_block_pixels(space, shape[0] * shape[1])
    bits = [(value >> (block - 1 - k)) & 1 for value in m for k in range(block)]
    return np.array(bits, dtype=np.int64).reshape(shape)


def build_chain_mcg(
    steps: int = 200, n_actions: int = 2, rewards: dict | None = None,
    n_messages: int | None = None, image_pixels: int | None = None,
    block_pixels: int | None = None, priority: float = 1.0, noise_p: float = 0.0,
) -> McgSpec:
    """Channel-chain game (``rewards`` keys may be JSON strings) carrying
    ``n_messages`` explicit messages (2 if no space is given) or, not both, an
    ``image_pixels`` binary image in blocks of ``block_pixels`` (1 by default)."""
    if image_pixels is None:
        if block_pixels is not None:
            raise ValueError("'block_pixels' groups image pixels, so it needs 'image_pixels'")
        space = MessageSpace.explicit(2 if n_messages is None else n_messages)
    elif n_messages is not None:
        raise ValueError("give 'n_messages' or 'image_pixels', not both")
    else:
        space = image_space(image_pixels, 1 if block_pixels is None else block_pixels)
    mdp = build_channel_chain(steps, n_actions, {int(t): r for t, r in (rewards or {}).items()})
    return chain_mcg(mdp, space, priority, noise_p)


# Game name -> builder name. ``_game_builder`` reads the builder from the module
# globals at call time, so a wrapper installed on that name is the one called.
GAMES = {
    "toy": "build_toy_mcg",
    "codegrid": "build_codegrid",
    "chain": "build_chain_mcg",
    "coding": "build_coding_mcg",
}


def _game_builder(name: str):
    if name not in GAMES:
        raise ValueError(f"unknown environment {name!r}; the games are {', '.join(GAMES)}")
    return globals()[GAMES[name]]


def check_game_params(name: str, params) -> None:
    """Raise ValueError, naming the key, unless ``params`` is a dict of
    keywords the named game's builder takes; ``noise_p`` is set on its own."""
    if not isinstance(params, dict):
        raise ValueError(f"{name} parameters must be a JSON object, not {type(params).__name__}")
    if "noise_p" in params:
        raise ValueError("'noise_p' is set on its own, not among the game parameters")
    try:
        inspect.signature(_game_builder(name)).bind(**params)
    except TypeError as e:
        raise ValueError(f"{name} game: {e}") from None


def build_env(name: str, params: dict, noise_p: float = 0.0) -> McgSpec:
    """The named game: its builder called with the keywords ``params`` and
    actuator noise ``noise_p``. An unknown game or parameter raises ValueError."""
    try:
        return _game_builder(name)(**params, noise_p=noise_p)
    except TypeError:
        check_game_params(name, params)  # a bad call raises ValueError here
        raise
