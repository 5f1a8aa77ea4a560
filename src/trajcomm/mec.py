"""Minimum entropy coupling: a greedy O(n log n) approximation and an exact
small-instance solver used as a test oracle."""

from __future__ import annotations

import heapq
import itertools
import math
from contextlib import contextmanager

import numpy as np

from .dist import Dist, SparseCoupling

# Residuals in (-RESIDUAL_ATOL, 0) are rounded to zero; anything more negative
# indicates broken bookkeeping and raises.
RESIDUAL_ATOL = 1e-12

# Optional instrumentation: when set to a list, every exact-fill call appends
# (branch, cap, target, extracted_sum, diag, displaced, shortfall) where
# branch is "select" (queue would overfill the target) or "drain".
_FILL_TRACE: list | None = None


@contextmanager
def record_fill_calls(trace: list):
    """Capture the internals of every exact-fill call (test instrumentation)."""
    global _FILL_TRACE
    _FILL_TRACE = trace
    try:
        yield trace
    finally:
        _FILL_TRACE = None


class _Kahan:
    """Compensated accumulator for queue mass totals."""

    __slots__ = ("value", "_c")

    def __init__(self):
        self.value = 0.0
        self._c = 0.0

    def add(self, x: float):
        y = x - self._c
        t = self.value + y
        self._c = (t - self.value) - y
        self.value = t

    def reset(self):
        self.value = 0.0
        self._c = 0.0


def _nonneg(x: float, what: str) -> float:
    if x < -RESIDUAL_ATOL:
        raise RuntimeError(f"negative {what} {x!r} breaks coupling bookkeeping")
    return max(x, 0.0)


def _exact_fill(target, cap, heap, total):
    """Meet ``target`` exactly from whole queue entries plus a piece of ``cap``.

    The queue holds masses pinned to earlier indices, smallest first. If the
    queue plus the full cap would overshoot the target, whole entries are
    extracted smallest-first while they still fit strictly under the target
    and the cap piece covers the gap. Otherwise the queue is drained and any
    remaining need is returned as a shortfall for the caller to defer.

    Returns ``(extracted, diag, displaced, shortfall)`` where ``extracted``
    lists ``(mass, pinned_index)`` pairs, ``diag`` is the piece of ``cap``
    consumed here, ``displaced`` is the rest of ``cap`` (to be re-pinned by
    the caller), and ``shortfall`` is target mass still owed. The identities
    ``diag + displaced == cap`` and ``diag + sum(extracted) + shortfall ==
    target`` hold on every call.
    """
    target = _nonneg(target, "fill target")
    extracted = []
    if total.value + cap > target:
        branch = "select"
        taken = _Kahan()
        while heap and taken.value + heap[0][0] < target:
            mass, _, idx = heapq.heappop(heap)
            total.add(-mass)
            taken.add(mass)
            extracted.append((mass, idx))
        gap = _nonneg(target - taken.value, "fill gap")
        if gap <= cap:
            diag, displaced, shortfall = gap, cap - gap, 0.0
        else:
            diag, displaced, shortfall = cap, 0.0, gap - cap
    else:
        branch = "drain"
        taken = _Kahan()
        while heap:
            mass, _, idx = heapq.heappop(heap)
            taken.add(mass)
            extracted.append((mass, idx))
        total.reset()
        diag = cap
        displaced = 0.0
        shortfall = _nonneg(target - cap - taken.value, "fill shortfall")
    if _FILL_TRACE is not None:
        _FILL_TRACE.append(
            (branch, cap, target, sum(m for m, _ in extracted), diag, displaced, shortfall)
        )
    return extracted, diag, displaced, shortfall


def _couple_sorted(p: list, q: list) -> list:
    """Couple equal-length vectors sorted non-increasingly.

    Indices are processed from smallest mass to largest. At index ``i`` the
    row-i and column-i totals are settled exactly: the diagonal carries
    ``min(p[i], q[i])`` when possible, queued masses pinned to earlier rows
    (columns) are placed into the current column (row), and whatever cannot
    be placed yet is pinned onto a priority queue for a later, larger index.
    Queues pop smallest mass first with insertion order breaking ties, so the
    construction is fully deterministic.
    """
    n = len(p)
    out = []
    row_wait = []  # (mass, seq, row): row-pinned mass awaiting a column
    col_wait = []  # (mass, seq, col): column-pinned mass awaiting a row
    row_total = _Kahan()
    col_total = _Kahan()
    seq = itertools.count()
    for i in range(n - 1, -1, -1):
        cap = min(p[i], q[i])
        # Settle column i: requirement q[i], fillers are the diagonal piece
        # plus row-pinned masses placed at (pin, i).
        ext, cap, disp_row, short_col = _exact_fill(q[i], cap, row_wait, row_total)
        for mass, pin in ext:
            out.append((mass, pin, i))
        # Settle row i: requirement p[i] minus the part already re-pinned to
        # this row; fillers are the remaining diagonal piece plus
        # column-pinned masses placed at (i, pin).
        ext, cap, disp_col, short_row = _exact_fill(p[i] - disp_row, cap, col_wait, col_total)
        for mass, pin in ext:
            out.append((mass, i, pin))
        if cap > 0.0:
            out.append((cap, i, i))
        pin_row = disp_row + short_row
        pin_col = short_col + disp_col
        if pin_row > 0.0:
            heapq.heappush(row_wait, (pin_row, next(seq), i))
            row_total.add(pin_row)
        if pin_col > 0.0:
            heapq.heappush(col_wait, (pin_col, next(seq), i))
            col_total.add(pin_col)
    leftover = sum(m for m, _, _ in row_wait) + sum(m for m, _, _ in col_wait)
    if leftover > 1e-9:
        raise RuntimeError(f"coupling queues leaked mass {leftover!r}")
    return out


def _sorted_support(probs: np.ndarray):
    """Non-increasing stable sort of the positive entries; returns (values, indices)."""
    order = (-probs).argsort(kind="stable")
    values = probs[order]
    keep = values > 0.0
    return values[keep].tolist(), order[keep].tolist()


def greedy_mec(p: Dist, q: Dist) -> SparseCoupling:
    """Greedy near-minimum-entropy coupling of two distributions.

    Builds a sparse joint distribution whose marginals reproduce ``p`` and
    ``q`` to within 1e-9 per entry. The construction sorts both inputs
    non-increasingly (stable, ties by original index), pads the shorter with
    zeros, and runs a deterministic priority-queue placement that keeps the
    largest masses intact, which bounds the joint entropy to within one bit
    of the optimum. Identical inputs always yield an identical entry
    sequence; sender and receiver rely on that to reconstruct the same
    coupling independently.

    Args:
        p: Row marginal.
        q: Column marginal.

    Returns:
        SparseCoupling with ``n_rows == len(p)`` and ``n_cols == len(q)``.

    Raises:
        ValueError: If either input is not a valid distribution (raised at
            Dist construction).
        RuntimeError: If internal mass bookkeeping drifts beyond tolerance.
    """
    pv = p.probs / p.probs.sum()
    qv = q.probs / q.probs.sum()
    ps, p_index = _sorted_support(pv)
    qs, q_index = _sorted_support(qv)
    n = max(len(ps), len(qs))
    ps = ps + [0.0] * (n - len(ps))
    qs = qs + [0.0] * (n - len(qs))
    # Orientation: at the last index where the sorted vectors differ, the
    # first argument must carry the larger mass; otherwise couple (q, p) and
    # transpose afterwards.
    swapped = False
    for j in range(n - 1, -1, -1):
        if ps[j] != qs[j]:
            swapped = ps[j] < qs[j]
            break
    raw = _couple_sorted(qs, ps) if swapped else _couple_sorted(ps, qs)
    entries = []
    for mass, i, j in raw:
        if swapped:
            i, j = j, i
        entries.append((mass, p_index[i], q_index[j]))
    entries.sort(key=lambda e: (e[1], e[2]))
    return SparseCoupling(tuple(entries), n_rows=len(p), n_cols=len(q))


# ---------------------------------------------------------------------------
# Exact oracle.
# ---------------------------------------------------------------------------

_ORACLE_MAX_SUPPORT = 6
_SCALE = 10**12


def _int_support(probs: np.ndarray):
    """Positive entries as exact integers summing to _SCALE, with indices."""
    idx = [int(i) for i in range(len(probs)) if probs[i] > 0.0]
    masses = [round(float(probs[i]) * _SCALE) for i in idx]
    pairs = [(i, m) for i, m in zip(idx, masses) if m > 0]
    drift = _SCALE - sum(m for _, m in pairs)
    if drift != 0:
        top = max(range(len(pairs)), key=lambda k: pairs[k][1])
        pairs[top] = (pairs[top][0], pairs[top][1] + drift)
    return pairs


def _unnormalized_bits(values) -> float:
    total = 0.0
    for v in values:
        x = v / _SCALE
        total -= x * math.log2(x)
    return total


def exact_mec_oracle(p: Dist, q: Dist) -> SparseCoupling:
    """Exact minimum-entropy coupling for supports of at most 6 outcomes.

    Joint entropy is concave over the transportation polytope with marginals
    ``p`` and ``q``, so its minimum is attained at a vertex. Every vertex can
    be generated by repeatedly choosing a live (row, column) cell and placing
    the largest feasible mass there (peeling a leaf of its support forest
    reverses one such step), so a depth-first search over those placement
    choices visits every vertex. The search prunes with the Schur bound
    (remaining cost is at least the larger unnormalized marginal entropy of
    the residuals) and deduplicates residual states, then reports the best
    vertex found. Marginals are snapped to an exact integer grid of 1e-12 so
    the enumeration is deterministic and immune to float drift.

    Args:
        p: Row marginal with at most 6 positive entries.
        q: Column marginal with at most 6 positive entries.

    Returns:
        A minimum-entropy SparseCoupling of ``p`` and ``q``.

    Raises:
        ValueError: If either support exceeds 6 outcomes.
    """
    rows = _int_support(p.probs / p.probs.sum())
    cols = _int_support(q.probs / q.probs.sum())
    if len(rows) > _ORACLE_MAX_SUPPORT or len(cols) > _ORACLE_MAX_SUPPORT:
        raise ValueError(
            f"oracle supports at most {_ORACLE_MAX_SUPPORT} outcomes per side, "
            f"got {len(rows)} x {len(cols)}"
        )

    best_cost = [math.inf]
    best_entries = [None]
    seen: dict = {}

    def dfs(live_rows, live_cols, partial, placements):
        if not live_rows:
            if partial < best_cost[0] - 1e-15:
                best_cost[0] = partial
                best_entries[0] = list(placements)
            return
        key = (
            tuple(sorted(m for _, m in live_rows)),
            tuple(sorted(m for _, m in live_cols)),
        )
        prev = seen.get(key)
        if prev is not None and prev <= partial + 1e-15:
            return
        seen[key] = partial
        bound = partial + max(
            _unnormalized_bits(m for _, m in live_rows),
            _unnormalized_bits(m for _, m in live_cols),
        )
        if bound >= best_cost[0] - 1e-15:
            return
        # Candidate placements, deduplicated by residual values and ordered
        # largest mass first so good incumbents appear early.
        options = []
        tried = set()
        for ri, (ridx, rv) in enumerate(live_rows):
            for ci, (cidx, cv) in enumerate(live_cols):
                if (rv, cv) in tried:
                    continue
                tried.add((rv, cv))
                options.append((-min(rv, cv), rv, cv, ri, ci))
        options.sort()
        for neg_m, rv, cv, ri, ci in options:
            m = -neg_m
            ridx, _ = live_rows[ri]
            cidx, _ = live_cols[ci]
            nrows = list(live_rows)
            ncols = list(live_cols)
            if rv == m:
                nrows.pop(ri)
            else:
                nrows[ri] = (ridx, rv - m)
            if cv == m:
                ncols.pop(ci)
            else:
                ncols[ci] = (cidx, cv - m)
            x = m / _SCALE
            placements.append((x, ridx, cidx))
            dfs(tuple(nrows), tuple(ncols), partial - x * math.log2(x), placements)
            placements.pop()

    dfs(tuple(rows), tuple(cols), 0.0, [])
    entries = sorted(best_entries[0], key=lambda e: (e[1], e[2]))
    return SparseCoupling(tuple(entries), n_rows=len(p), n_cols=len(q))
