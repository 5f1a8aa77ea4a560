"""Finite probability vectors, couplings, and entropy utilities."""

from __future__ import annotations

import dataclasses
from bisect import bisect_right
from itertools import accumulate
from typing import NamedTuple

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
        # Two reductions for a valid vector: the min test fails on NaN or a
        # negative entry, and an infinite entry makes the sum non-finite.
        # Summing only once the min test holds keeps +inf and -inf from
        # summing to NaN, which numpy warns about. A vector that fails runs
        # the checks below, which name the fault.
        if not (arr.min() >= 0.0 and abs(float(arr.sum()) - 1.0) <= SUM_ATOL):
            if not np.all(np.isfinite(arr)):
                raise ValueError("distribution entries must be finite")
            if np.any(arr < 0.0):
                raise ValueError("distribution entries must be non-negative")
            raise ValueError(f"distribution sums to {float(arr.sum())!r}, not 1")
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)

    @classmethod
    def _owning(cls, probs: np.ndarray) -> "Dist":
        """A distribution that takes ``probs`` as it is, unchecked.

        The caller gives up the vector, which is marked read-only, and
        answers for what the public constructor would check.
        """
        d = object.__new__(cls)
        probs.setflags(write=False)
        object.__setattr__(d, "probs", probs)
        return d

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
        # The method is np.sum's reduction without its dispatch, which costs
        # more than the sum on the coder's 2-entry blocks.
        cached = float(max(0.0, -(p * np.log2(p)).sum()))
        object.__setattr__(d, "_entropy_bits", cached)
    return cached


def entropy_nats(d: Dist) -> float:
    """Shannon entropy in natural-log units."""
    p = d.probs[d.probs > 0.0]
    return float(max(0.0, -np.sum(p * np.log(p))))


def sample_index(probs: np.ndarray, rng: np.random.Generator) -> int:
    """Draw an index from a probability vector using inverse-CDF sampling.

    Takes one ``rng.random()`` draw ``u`` and returns the first index whose
    running total exceeds ``u`` times the grand total, capped at the last
    index. The running totals are Python floats added in order, the same
    additions ``np.cumsum`` makes, and ``bisect_right`` picks what
    ``np.searchsorted(side="right")`` picks, so the draw matches that numpy
    form draw for draw, with less fixed cost on the short vectors callers
    pass.
    """
    cum = list(accumulate(probs.tolist()))
    return min(bisect_right(cum, rng.random() * cum[-1]), len(cum) - 1)


def _row_totals(joint: np.ndarray) -> np.ndarray:
    """The row totals of a table, adding its columns left to right.

    Each total adds its row's entries one at a time in order, whatever the
    table's memory layout: a vector add per column, never a reduction, which
    numpy may sum pairwise along contiguous memory. The ``+ 0.0`` that starts
    the sum turns a total of only ``-0.0`` into ``0.0``.
    """
    totals = joint[:, 0] + 0.0
    for j in range(1, joint.shape[1]):
        totals += joint[:, j]
    return totals


@dataclasses.dataclass(frozen=True, eq=False)
class SparseCoupling:
    """A joint distribution over (row, col) index pairs, stored by its rows.

    Only the rows that carry mass need be stored: ``rows`` holds their
    global indices in ascending order, ``joint[k, c]`` is the mass on cell
    ``(rows[k], c)``, and ``n_rows`` is the number of global rows; any row
    not in ``rows`` has no mass. The greedy coupling of a belief stores the
    belief's support, so a belief with a few live messages out of thousands
    gives a table of a few rows.

    The constructor takes a float64 ``joint`` and an intp ``rows`` as they
    are: it neither copies nor converts them, marks both read-only, and
    checks nothing. Its caller gives both arrays up. A coupling is validated
    once, by its user, against the marginals it is meant to have
    (``coding.check_mixture``).

    ``entries`` derives the ``(mass, row, col)`` triples of the positive
    cells in row-major order, with global row indices. Both marginals add
    those masses in that order, one at a time, so their bytes do not depend
    on the table's memory layout (a pairwise ``joint.sum(axis=...)`` can
    differ in the last bit). The stored rows' totals ``row_mass`` (one per
    entry of ``rows``, read-only) are summed at construction by adding the
    columns left to right, one vector add each; ``greedy_mec`` stores its
    table column-major, so each column is contiguous. The column marginal is
    summed row after row (``np.add.accumulate``) on each call of
    ``col_marginal()``. ``row_marginal()`` is ``row_mass`` placed at
    ``rows`` in a vector of ``n_rows`` entries. Both marginals are validated
    as ``Dist``.
    """

    joint: np.ndarray
    rows: np.ndarray
    n_rows: int
    row_mass: np.ndarray = dataclasses.field(init=False, repr=False)

    def __post_init__(self):
        row_mass = _row_totals(self.joint)
        for arr in (self.joint, self.rows, row_mass):
            arr.setflags(write=False)
        object.__setattr__(self, "row_mass", row_mass)

    @property
    def n_cols(self) -> int:
        return self.joint.shape[1]

    @property
    def entries(self) -> tuple[tuple[float, int, int], ...]:
        """``(mass, row, col)`` of each positive cell, in row-major order."""
        local, cols = np.nonzero(self.joint)
        masses = self.joint[local, cols]
        return tuple(zip(masses.tolist(), self.rows[local].tolist(), cols.tolist()))

    def row_marginal(self) -> Dist:
        probs = np.zeros(self.n_rows)
        probs[self.rows] = self.row_mass
        return Dist(probs)

    def col_marginal(self) -> Dist:
        return Dist(np.add.accumulate(self.joint, axis=0)[-1] + 0.0)


class CouplingEntropies(NamedTuple):
    """Joint and marginal entropies of a coupling, in bits."""

    joint_bits: float
    row_marginal_bits: float
    col_marginal_bits: float
    mutual_info_bits: float


def coupling_entropies(c: SparseCoupling) -> CouplingEntropies:
    """Exact joint/marginal entropies and mutual information of a coupling."""
    masses = c.joint[c.joint > 0.0]
    joint = float(max(0.0, -np.sum(masses * np.log2(masses))))
    hr = entropy(c.row_marginal())
    hc = entropy(c.col_marginal())
    return CouplingEntropies(joint, hr, hc, hr + hc - joint)

