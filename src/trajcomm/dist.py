"""Finite probability vectors, sparse couplings, and entropy utilities."""

from __future__ import annotations

import dataclasses
import math

import numpy as np

# Absolute tolerance for "sums to one" checks throughout the package.
SUM_ATOL = 1e-9


@dataclasses.dataclass(frozen=True, eq=False)
class Dist:
    """A finite probability vector.

    Entries must be non-negative, finite, and sum to 1 within ``SUM_ATOL``.
    The underlying array is copied and marked read-only at construction, so
    instances are immutable and safe to share across threads.
    """

    probs: np.ndarray

    def __post_init__(self):
        arr = np.array(self.probs, dtype=np.float64, copy=True)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("distribution must be a non-empty 1-D vector")
        if not np.all(np.isfinite(arr)):
            raise ValueError("distribution entries must be finite")
        if np.any(arr < 0.0):
            raise ValueError("distribution entries must be non-negative")
        total = float(arr.sum())
        if abs(total - 1.0) > SUM_ATOL:
            raise ValueError(f"distribution sums to {total!r}, not 1")
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)

    def __len__(self) -> int:
        return int(self.probs.size)

    def __getitem__(self, i: int) -> float:
        return float(self.probs[i])

    @classmethod
    def uniform(cls, n: int) -> "Dist":
        if n < 1:
            raise ValueError("support size must be at least 1")
        return cls(np.full(n, 1.0 / n))

    @classmethod
    def point_mass(cls, index: int, size: int) -> "Dist":
        probs = np.zeros(size)
        probs[index] = 1.0
        return cls(probs)

    @classmethod
    def from_weights(cls, weights) -> "Dist":
        """Normalize non-negative weights with positive total into a Dist."""
        arr = np.asarray(weights, dtype=np.float64)
        total = float(arr.sum())
        if total <= 0.0:
            raise ValueError("weights must have positive total")
        return cls(arr / total)


def entropy(d: Dist) -> float:
    """Shannon entropy of a distribution in bits, with 0 log 0 = 0.

    Cached on the (immutable) distribution: belief traces re-ask for block
    entropies at every decision point, mostly for unchanged blocks.
    """
    cached = getattr(d, "_entropy_bits", None)
    if cached is None:
        p = d.probs[d.probs > 0.0]
        cached = float(max(0.0, -np.sum(p * np.log2(p))))
        object.__setattr__(d, "_entropy_bits", cached)
    return cached


def entropy_nats(d: Dist) -> float:
    """Shannon entropy in natural-log units."""
    p = d.probs[d.probs > 0.0]
    return float(max(0.0, -np.sum(p * np.log(p))))


def sample_index(probs: np.ndarray, rng: np.random.Generator) -> int:
    """Draw an index from a probability vector using inverse-CDF sampling."""
    cum = np.cumsum(probs)
    i = int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))
    return min(i, len(probs) - 1)


@dataclasses.dataclass(frozen=True, eq=False)
class SparseCoupling:
    """A sparse joint distribution over (row, col) index pairs.

    ``entries`` is a sequence of ``(mass, row, col)`` triples with strictly
    positive masses, no duplicate cells, and total mass 1 within ``SUM_ATOL``.
    Both marginals must themselves be valid distributions.
    """

    entries: tuple[tuple[float, int, int], ...]
    n_rows: int
    n_cols: int

    def __post_init__(self):
        if self.n_rows < 1 or self.n_cols < 1:
            raise ValueError("coupling shape must be at least 1x1")
        rows = np.zeros(self.n_rows)
        cols = np.zeros(self.n_cols)
        seen = set()
        total = 0.0
        for mass, r, c in self.entries:
            if not (mass > 0.0) or not math.isfinite(mass):
                raise ValueError("coupling masses must be positive and finite")
            if not (0 <= r < self.n_rows and 0 <= c < self.n_cols):
                raise ValueError(f"coupling cell ({r}, {c}) out of range")
            if (r, c) in seen:
                raise ValueError(f"duplicate coupling cell ({r}, {c})")
            seen.add((r, c))
            rows[r] += mass
            cols[c] += mass
            total += mass
        if abs(total - 1.0) > SUM_ATOL:
            raise ValueError(f"coupling mass sums to {total!r}, not 1")
        object.__setattr__(self, "entries", tuple(self.entries))
        # Marginal validity (raises if either fails to normalize).
        object.__setattr__(self, "_rows", Dist(rows))
        object.__setattr__(self, "_cols", Dist(cols))

    def row_marginal(self) -> Dist:
        return self._rows

    def col_marginal(self) -> Dist:
        return self._cols

    def dense(self) -> np.ndarray:
        out = np.zeros((self.n_rows, self.n_cols))
        for mass, r, c in self.entries:
            out[r, c] = mass
        return out


@dataclasses.dataclass(frozen=True)
class CouplingEntropies:
    """Joint and marginal entropies of a coupling, in bits."""

    joint_bits: float
    row_marginal_bits: float
    col_marginal_bits: float
    mutual_info_bits: float

    def __post_init__(self):
        identity = self.row_marginal_bits + self.col_marginal_bits - self.joint_bits
        if abs(identity - self.mutual_info_bits) > SUM_ATOL:
            raise ValueError("mutual information does not match H(X)+H(Y)-H(X,Y)")
        if self.joint_bits < max(self.row_marginal_bits, self.col_marginal_bits) - SUM_ATOL:
            raise ValueError("joint entropy below max marginal entropy")


def coupling_entropies(c: SparseCoupling) -> CouplingEntropies:
    """Exact joint/marginal entropies and mutual information of a coupling."""
    masses = np.array([m for m, _, _ in c.entries])
    joint = float(max(0.0, -np.sum(masses * np.log2(masses))))
    hr = entropy(c.row_marginal())
    hc = entropy(c.col_marginal())
    return CouplingEntropies(
        joint_bits=joint,
        row_marginal_bits=hr,
        col_marginal_bits=hc,
        mutual_info_bits=hr + hc - joint,
    )

