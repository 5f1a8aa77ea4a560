"""Markov coding games: message spaces, beliefs, and message draws and distances.

A Markov coding game wraps an MDP with a message space, a prior over
messages, a priority weight on decode correctness, and an actuator-noise
level. The sender must communicate a sampled message through the trajectory
it produces; the receiver decodes from the observed trajectory.
"""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np

from .dist import Dist, entropy, sample_index
from .mdp import MdpSpec


@dataclasses.dataclass(frozen=True)
class MessageSpace:
    """Either a flat set of messages or a product of small blocks.

    Explicit spaces use integer messages in ``range(cardinality)``. Factored
    spaces use tuples with one index per block; their cardinality is the
    product of the block sizes. ``values`` and ``message`` convert between a
    message and its block values (one per block, so a 1-tuple for an
    explicit message); code that walks blocks reads a message through them
    and never asks which kind of space it has.
    """

    block_sizes: tuple[int, ...]
    factored: bool

    def __post_init__(self):
        if not self.block_sizes or any(b < 1 for b in self.block_sizes):
            raise ValueError("block sizes must be positive")
        if not self.factored and len(self.block_sizes) != 1:
            raise ValueError("an explicit space has a single block")
        object.__setattr__(self, "block_sizes", tuple(int(b) for b in self.block_sizes))

    @classmethod
    def explicit(cls, cardinality: int) -> "MessageSpace":
        return cls((cardinality,), factored=False)

    @classmethod
    def product(cls, block_sizes) -> "MessageSpace":
        return cls(tuple(block_sizes), factored=True)

    @property
    def cardinality(self) -> int:
        return int(np.prod([b for b in self.block_sizes], dtype=object))

    def contains(self, m) -> bool:
        """One in-range integer per block; a bool is none (as in ``envs.fits``)."""
        values, sizes = self.values(m), self.block_sizes
        return isinstance(values, tuple) and len(values) == len(sizes) and all(
            isinstance(v, (int, np.integer)) and not isinstance(v, bool) and 0 <= v < b
            for v, b in zip(values, sizes)
        )

    def values(self, m) -> tuple:
        """Message ``m`` as its block values: ``m`` itself, or ``(m,)`` for an
        explicit space."""
        return m if self.factored else (m,)

    def message(self, values):
        """The message whose block values are ``values``; ``values``' inverse."""
        return tuple(values) if self.factored else values[0]

    def messages(self):
        """Iterate the whole space (guarded; intended for small spaces only)."""
        if self.cardinality > 10**6:
            raise ValueError("message space too large to enumerate")
        return map(self.message, itertools.product(*(range(b) for b in self.block_sizes)))


@dataclasses.dataclass(frozen=True, eq=False)
class Belief:
    """A posterior over messages: one Dist per message-space block."""

    blocks: tuple[Dist, ...]

    def __post_init__(self):
        if not self.blocks:
            raise ValueError("belief needs at least one block")
        object.__setattr__(self, "blocks", tuple(self.blocks))

    @classmethod
    def uniform(cls, space: MessageSpace) -> "Belief":
        return cls(tuple(Dist.uniform(b) for b in space.block_sizes))

    def entropy_bits(self) -> float:
        return float(sum(entropy(b) for b in self.blocks))

    def matches(self, space: MessageSpace) -> bool:
        return len(self.blocks) == len(space.block_sizes) and all(
            len(d) == b for d, b in zip(self.blocks, space.block_sizes)
        )


@dataclasses.dataclass(frozen=True, eq=False)
class McgSpec:
    """An MDP plus message space, prior, message priority, and actuator noise.

    ``priority``, finite and non-negative, weighs decode correctness against
    the MDP's return; the RL baseline (``baseline.train_rl_pr``) shapes its
    terminal reward with it. A document gives neither as a bool (``envs.fits``).
    """

    mdp: MdpSpec
    message_space: MessageSpace
    prior: Belief
    priority: float
    noise_p: float = 0.0

    def __post_init__(self):
        if self.priority < 0.0:
            raise ValueError("message priority must be non-negative")
        if not self.priority < float("inf"):  # NaN fails this too
            raise ValueError("message priority must be finite")
        if not 0.0 <= self.noise_p <= 0.5:
            raise ValueError("actuator noise must lie in [0, 0.5]")
        if not self.prior.matches(self.message_space):
            raise ValueError("prior shape does not match the message space")


def sample_message(mcg: McgSpec, rng: np.random.Generator):
    """Draw a message from the prior, one draw per block in block order."""
    return mcg.message_space.message([sample_index(d.probs, rng) for d in mcg.prior.blocks])


def message_prior_prob(mcg: McgSpec, m) -> float:
    values = mcg.message_space.values(m)
    return float(np.prod([d[v] for d, v in zip(mcg.prior.blocks, values)]))


def hamming_distance(m: tuple, m_hat: tuple) -> int:
    """Number of differing blocks between two factored messages."""
    if not isinstance(m, tuple) or not isinstance(m_hat, tuple) or len(m) != len(m_hat):
        raise ValueError("messages must be factored tuples of equal shape")
    return int(sum(1 for a, b in zip(m, m_hat) if a != b))
