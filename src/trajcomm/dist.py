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
        total = float(arr.sum())
        # One pass for a valid vector: both comparisons are False on NaN, and
        # an infinite entry makes the total non-finite. Only a vector that
        # fails it runs the checks below, which name the fault.
        if not (arr.min() >= 0.0 and abs(total - 1.0) <= SUM_ATOL):
            if not np.all(np.isfinite(arr)):
                raise ValueError("distribution entries must be finite")
            if np.any(arr < 0.0):
                raise ValueError("distribution entries must be non-negative")
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


def entropy(d: Dist) -> float:
    """Shannon entropy of a distribution in bits, with 0 log 0 = 0.

    Cached on the (immutable) distribution, so asking again is free: policy
    rows are shared across decisions, and belief traces may be read more than
    once. The coder itself asks once per block when an episode starts and
    once for the updated block after each decision.
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
    positive finite masses, cells in range, no duplicate cells, and total
    mass 1 within ``SUM_ATOL``. Construction also keeps read-only arrays:
    ``masses``, ``rows`` and ``cols`` in entry order, the dense ``joint``
    (``joint[r, c]`` is the mass on cell ``(r, c)``) and its row totals
    ``row_mass``, summed in entry order.

    ``row_marginal()`` is ``row_mass`` validated as a ``Dist``; the column
    marginal is summed in entry order on first read. Both are cached.
    """

    entries: tuple[tuple[float, int, int], ...]
    n_rows: int
    n_cols: int
    masses: np.ndarray = dataclasses.field(init=False, repr=False)
    rows: np.ndarray = dataclasses.field(init=False, repr=False)
    cols: np.ndarray = dataclasses.field(init=False, repr=False)
    joint: np.ndarray = dataclasses.field(init=False, repr=False)
    row_mass: np.ndarray = dataclasses.field(init=False, repr=False)

    def __post_init__(self):
        if self.n_rows < 1 or self.n_cols < 1:
            raise ValueError("coupling shape must be at least 1x1")
        entries = tuple(self.entries)
        if not entries:
            raise ValueError("coupling mass sums to 0.0, not 1")
        k = len(entries)
        masses, rows, cols = zip(*entries)
        masses = np.fromiter(masses, np.float64, k)
        if not (masses.min() > 0.0 and masses.max() < math.inf):
            raise ValueError("coupling masses must be positive and finite")
        # Rows and columns in one array, so each range check is one reduction.
        index = np.array((rows, cols))
        if index.dtype.kind not in "iu":
            raise ValueError("coupling cells must be integer indices")
        rows, cols = index
        high = index.max(axis=1)
        if not (index.min() >= 0 and high[0] < self.n_rows and high[1] < self.n_cols):
            out = (rows < 0) | (rows >= self.n_rows) | (cols < 0) | (cols >= self.n_cols)
            r, c = entries[int(np.argmax(out))][1:]
            raise ValueError(f"coupling cell ({r}, {c}) out of range")
        cells = rows * self.n_cols + cols
        if np.bincount(cells).max() > 1:
            # Name the cell whose second occurrence comes first.
            repeat = np.ones(k, dtype=bool)
            repeat[np.unique(cells, return_index=True)[1]] = False
            r, c = entries[int(np.argmax(repeat))][1:]
            raise ValueError(f"duplicate coupling cell ({r}, {c})")
        total = float(masses.sum())
        if abs(total - 1.0) > SUM_ATOL:
            raise ValueError(f"coupling mass sums to {total!r}, not 1")
        joint = np.zeros((self.n_rows, self.n_cols))
        joint[rows, cols] = masses
        # bincount adds the masses in entry order.
        row_mass = np.bincount(rows, weights=masses, minlength=self.n_rows)
        arrays = dict(masses=masses, rows=rows, cols=cols, joint=joint, row_mass=row_mass)
        for name, arr in arrays.items():
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "entries", entries)

    def row_marginal(self) -> Dist:
        marginal = getattr(self, "_row_marginal", None)
        if marginal is None:
            marginal = Dist(self.row_mass)
            object.__setattr__(self, "_row_marginal", marginal)
        return marginal

    def col_marginal(self) -> Dist:
        marginal = getattr(self, "_col_marginal", None)
        if marginal is None:
            marginal = Dist(np.bincount(self.cols, weights=self.masses, minlength=self.n_cols))
            object.__setattr__(self, "_col_marginal", marginal)
        return marginal


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
    masses = c.masses
    joint = float(max(0.0, -np.sum(masses * np.log2(masses))))
    hr = entropy(c.row_marginal())
    hc = entropy(c.col_marginal())
    return CouplingEntropies(
        joint_bits=joint,
        row_marginal_bits=hr,
        col_marginal_bits=hc,
        mutual_info_bits=hr + hc - joint,
    )

