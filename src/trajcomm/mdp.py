"""Tabular episodic MDPs: CSR transition arrays, the horizon contract, sampled
steps and exact policy evaluation by state occupancy."""

from __future__ import annotations

import dataclasses
from typing import Callable, NamedTuple

import numpy as np

from .dist import SUM_ATOL, Dist, sample_index


class Step(NamedTuple):
    state: int
    intended_action: int
    executed_action: int
    reward: float


@dataclasses.dataclass(frozen=True, eq=False)
class Trajectory:
    """A terminal history: per-step records plus the state the episode ended in.

    Intended actions are diagnostics only; anything acting as an observer of
    the episode must go through ``receiver_view``, which strips them.
    """

    steps: tuple[Step, ...]
    final_state: int

    def receiver_view(self) -> "ObservedTrajectory":
        return ObservedTrajectory(
            steps=tuple((s.state, s.executed_action) for s in self.steps),
            final_state=self.final_state,
        )


@dataclasses.dataclass(frozen=True, eq=False)
class ObservedTrajectory:
    """What an outside observer sees: states and executed actions only."""

    steps: tuple[tuple[int, int], ...]
    final_state: int


@dataclasses.dataclass(frozen=True, eq=False)
class MdpSpec:
    """A finite episodic MDP whose transitions are stored as CSR arrays.

    Row ``r = s * n_actions + a`` holds the branches of taking action ``a`` in
    state ``s``: entries ``row_offsets[r]`` up to ``row_offsets[r + 1]`` of
    the flat ``next_state`` and ``prob`` arrays, in stored order. Every
    non-terminal state has a non-empty row for every action, each row's
    probabilities sum to 1 within ``SUM_ATOL``, terminal states have empty
    rows, and every reward is finite. ``entry_row[k]`` is the row of entry
    ``k`` and ``terminal_mask`` the terminal states as a boolean vector;
    both are derived at construction, and every array is read-only.
    Episodes are undiscounted and must terminate within ``horizon_bound``
    steps, which builders guarantee by encoding time into the state where
    needed. Construction does not check this, so a builder run once per
    sweep cell does not pay for it; ``heights`` does, in one pass over the
    entries in topological order, in time linear in states plus entries,
    for ``exact_soft_vi``, both trainers and every spec ``formats.load_mcg``
    reads.
    """

    n_states: int
    n_actions: int
    row_offsets: np.ndarray
    next_state: np.ndarray
    prob: np.ndarray
    rewards: np.ndarray
    initial_state: int
    terminal_states: frozenset
    horizon_bound: int

    def __post_init__(self):
        n_states, n_actions = self.n_states, self.n_actions
        if n_actions < 1:
            raise ValueError("an MDP needs at least one action")
        rewards = _frozen(self.rewards, np.float64, "rewards")
        if rewards.shape != (n_states, n_actions):
            raise ValueError("reward table shape must be (n_states, n_actions)")
        if not np.isfinite(rewards).all():
            raise ValueError("rewards must be finite")
        terminal_states = frozenset(self.terminal_states)
        if not all(0 <= s < n_states for s in terminal_states):
            raise ValueError("terminal state out of range")
        if not (0 <= self.initial_state < n_states):
            raise ValueError("initial state out of range")
        if self.horizon_bound < 1:
            raise ValueError("horizon bound must be positive")
        offsets = _frozen(self.row_offsets, np.int64, "row_offsets")
        next_state = _frozen(self.next_state, np.int64, "next_state")
        prob = _frozen(self.prob, np.float64, "prob")
        n_rows = n_states * n_actions
        if offsets.shape != (n_rows + 1,):
            raise ValueError("transition table must have one row per (state, action)")
        if next_state.ndim != 1 or prob.shape != next_state.shape:
            raise ValueError("next_state and prob must be 1-D arrays of equal length")
        counts = np.diff(offsets)
        if offsets[0] != 0 or offsets[-1] != len(prob) or np.any(counts < 0):
            raise ValueError("row offsets must rise from 0 to the number of entries")
        terminal_mask = np.zeros(n_states, dtype=bool)
        terminal_mask[list(terminal_states)] = True
        terminal_mask.setflags(write=False)
        live_rows = np.repeat(~terminal_mask, n_actions)
        bad = np.flatnonzero((counts == 0) & live_rows)
        if len(bad):
            raise ValueError(f"state {bad[0] // n_actions} must define every action")
        bad = np.flatnonzero((counts > 0) & ~live_rows)
        if len(bad):
            raise ValueError(f"terminal state {bad[0] // n_actions} must have no transitions")
        bad = np.flatnonzero((next_state < 0) | (next_state >= n_states))
        if len(bad):
            raise ValueError(f"transition target {next_state[bad[0]]} out of range")
        if np.any(prob < 0.0):
            raise ValueError("transition probabilities must be non-negative")
        entry_row = np.repeat(np.arange(n_rows), counts)
        entry_row.setflags(write=False)
        # bincount adds each row's weights in stored order, as a loop would.
        totals = np.bincount(entry_row, weights=prob, minlength=n_rows)
        bad = np.flatnonzero(live_rows & ~(np.abs(totals - 1.0) <= SUM_ATOL))
        if len(bad):
            s, a = divmod(int(bad[0]), n_actions)
            raise ValueError(f"transition row ({s}, {a}) sums to {float(totals[bad[0]])!r}")
        for name, value in (
            ("rewards", rewards),
            ("terminal_states", terminal_states),
            ("row_offsets", offsets),
            ("next_state", next_state),
            ("prob", prob),
            ("entry_row", entry_row),
            ("terminal_mask", terminal_mask),
            # Python-list views of the arrays, indexed like them (rewards by
            # row): ``step``, the tree walkers, the receiver's view check and
            # the planner's one-state layers read single entries, which costs
            # less from a list than as numpy scalars.
            ("_offsets", offsets.tolist()),
            ("_next", next_state.tolist()),
            ("_prob", prob.tolist()),
            ("_rewards", rewards.reshape(-1).tolist()),
        ):
            object.__setattr__(self, name, value)

    @classmethod
    def deterministic(
        cls,
        next_table,
        rewards,
        initial_state: int,
        terminal_states,
        horizon_bound: int,
    ) -> "MdpSpec":
        """An MDP in which action ``a`` moves state ``s`` to ``next_table[s, a]``.

        Rows of terminal states are ignored and stored empty.
        """
        next_table = np.asarray(next_table, dtype=np.int64)
        n_states, n_actions = next_table.shape
        live = np.ones(n_states, dtype=bool)
        live[list(terminal_states)] = False
        live_rows = np.repeat(live, n_actions)
        next_state = next_table.reshape(-1)[live_rows]
        return cls(
            n_states=n_states,
            n_actions=n_actions,
            row_offsets=np.concatenate(([0], np.cumsum(live_rows))),
            next_state=next_state,
            prob=np.ones(len(next_state)),
            rewards=rewards,
            initial_state=initial_state,
            terminal_states=terminal_states,
            horizon_bound=horizon_bound,
        )

    def is_terminal(self, s: int) -> bool:
        return s in self.terminal_states

    def successors(self, s: int, a: int) -> list[tuple[int, float]]:
        """The ``(next_state, probability)`` branches of action ``a`` in state ``s``."""
        r = s * self.n_actions + a
        lo, hi = self._offsets[r], self._offsets[r + 1]
        return list(zip(self._next[lo:hi], self._prob[lo:hi]))


def _frozen(values, dtype, name: str) -> np.ndarray:
    """A read-only ``dtype`` copy of ``values``; a ValueError naming the
    field ``name`` if one of its integers lies past ``dtype``'s range."""
    try:
        arr = np.array(values, dtype=dtype)
    except OverflowError:
        raise ValueError(f"{name} holds an integer past the {dtype.__name__} range") from None
    arr.setflags(write=False)
    return arr


def heights(mdp: MdpSpec) -> np.ndarray:
    """Each live state's longest path to a terminal, over every stored entry.

    One height per live state, in state order; an MDP with no live state has
    none. Raises ``ValueError`` if the MDP breaks its horizon contract: a
    stored transition entry (zero-probability ones included) closes a cycle,
    or a state is more than ``horizon_bound`` steps from a terminal.

    One longest-path pass in topological order (Kahn's algorithm), in time
    linear in states plus stored entries. A first-in, first-out queue starts
    with the terminals, at height 0. Taking a state t off the queue
    processes each entry that leads into t, once; when that was the last
    pending entry of its state s, s has height h(t) + 1 and joins the queue.
    States therefore join in order of height, so t is a highest successor
    of s, and the last state queued is the highest. A cycle keeps its states,
    and every state that leads into it, off the queue, which then ends short
    of ``n_states``. A stable ``argsort`` of ``next_state`` groups the
    entries into each state; the pass itself runs on Python lists.
    """
    terminal = mdp.terminal_mask
    n_states = mdp.n_states
    source = mdp.entry_row // mdp.n_actions
    into = source[mdp.next_state.argsort(kind="stable")].tolist()
    bounds = [0] + np.bincount(mdp.next_state, minlength=n_states).cumsum().tolist()
    pending = np.bincount(source, minlength=n_states).tolist()
    h = [0] * n_states
    queue = np.flatnonzero(terminal).tolist()
    for t in queue:  # the loop also visits the states appended below
        up = h[t] + 1
        for s in into[bounds[t] : bounds[t + 1]]:
            pending[s] -= 1
            if not pending[s]:
                h[s] = up
                queue.append(s)
    if len(queue) < n_states or h[queue[-1]] > mdp.horizon_bound:
        raise ValueError(
            f"the MDP breaks its horizon bound: a state is more than {mdp.horizon_bound} "
            "steps from a terminal, or on a cycle"
        )
    return np.array(h, dtype=np.int64)[~terminal]


def enterable_states(mdp: MdpSpec) -> list[int]:
    """The live states an episode can enter after its first step, in state order.

    A closure from the initial state over every stored entry, zero-probability
    ones included, as ``heights`` reads them.
    """
    n_actions, offsets, successors = mdp.n_actions, mdp._offsets, mdp._next
    terminal, found, frontier = mdp.terminal_states, set(), [mdp.initial_state]
    while frontier:
        r = frontier.pop() * n_actions
        for t in successors[offsets[r] : offsets[r + n_actions]]:
            if t not in found and t not in terminal:
                found.add(t)
                frontier.append(t)
    return sorted(found)


def step(mdp: MdpSpec, s: int, a: int, rng: np.random.Generator) -> tuple[int, float]:
    """Sample one environment transition; the reward is R(s, a)."""
    if mdp.is_terminal(s):
        raise ValueError(f"cannot step from terminal state {s}")
    if not (0 <= a < mdp.n_actions):
        raise ValueError(f"action {a} out of range")
    r = s * mdp.n_actions + a
    lo, hi = mdp._offsets[r], mdp._offsets[r + 1]
    if hi - lo == 1:
        nxt = mdp._next[lo]
    else:
        nxt = mdp._next[lo + sample_index(mdp.prob[lo:hi], rng)]
    return nxt, mdp._rewards[r]


def apply_actuator_noise(a: int, noise_p: float, n_actions: int, rng: np.random.Generator) -> int:
    """With probability ``noise_p``, replace the action by a uniform draw.

    The uniform draw ranges over all actions and may coincide with ``a``.
    """
    if not 0.0 <= noise_p <= 1.0:
        raise ValueError("noise probability must lie in [0, 1]")
    if noise_p > 0.0 and rng.random() < noise_p:
        return int(rng.integers(n_actions))
    return a


def noisy_likelihood(intended: np.ndarray, noise_p: float, n_actions: int) -> np.ndarray:
    """Probabilities of executing actions, given those of intending them.

    Under ``apply_actuator_noise`` an action intended with probability ``x``
    is executed with probability ``(1-ε)·x + ε/|A|``, for ε = ``noise_p`` and
    ``|A|`` = ``n_actions``. ``intended`` holds one message's distribution
    over actions, or each message's probability of one action. At ε = 0 it
    is returned unchanged.
    """
    if noise_p == 0.0:
        return intended
    return (1.0 - noise_p) * intended + noise_p / n_actions


def trajectory_return(z: Trajectory) -> float:
    """Undiscounted sum of step rewards."""
    return float(sum(s.reward for s in z.steps))


def state_occupancy(
    mdp: MdpSpec, policy: Callable[[int], Dist]
) -> tuple[np.ndarray, dict[int, Dist]]:
    """Expected number of visits to each state under a (noiseless) policy.

    A forward pass pushes the state distribution through the transition
    arrays one step at a time until all of its mass is terminal; terminal
    states count no visits. Also returns the policy's distribution at every
    visited state, the only states where ``policy`` is called. Raises if
    mass is still live after ``horizon_bound`` steps.
    """
    n_states = mdp.n_states
    visits = np.zeros(n_states)
    rows = np.zeros((n_states, mdp.n_actions))
    visited: dict[int, Dist] = {}
    mass = np.zeros(n_states)
    mass[mdp.initial_state] = 1.0
    for _ in range(mdp.horizon_bound + 1):
        mass[mdp.terminal_mask] = 0.0
        frontier = np.flatnonzero(mass)
        if not len(frontier):
            return visits, visited
        for s in frontier.tolist():
            if s not in visited:
                visited[s] = policy(s)
                rows[s] = visited[s].probs
        visits += mass
        flow = (mass[:, None] * rows).reshape(-1)[mdp.entry_row] * mdp.prob
        mass = np.bincount(mdp.next_state, weights=flow, minlength=n_states)
    raise RuntimeError("episodes exceeded the declared horizon bound")


def exact_policy_return(mdp: MdpSpec, policy: Callable[[int], Dist]) -> float:
    """Exact expected return of a stationary policy, from its state occupancy."""
    visits, visited = state_occupancy(mdp, policy)
    return float(sum(visits[s] * (d.probs @ mdp.rewards[s]) for s, d in visited.items()))
