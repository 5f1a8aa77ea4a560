"""Minimum entropy coupling: the classic greedy coupler, the one coupling the
sender and the receiver both build."""

from __future__ import annotations

import math
from bisect import bisect_left, insort

import numpy as np

from .dist import Dist, SparseCoupling

# Rows of equal mass are placed in bulk from runs of this many on, and a
# support of fewer rows takes the plain loop. Placing a run costs about 25
# numpy calls. Against three 4-column policies on a shared 2-vCPU x86 host
# (two timeit runs of greedy_mec alone, which checks nothing), a uniform
# belief took 0.88-1.05x the plain loop's time in bulk at 64 rows,
# 0.82-0.93x at 72, 0.79-0.89x at 80 and 0.68-0.80x at 96; this leaves a
# margin over that crossover.
RUN_MIN = 96


def greedy_mec(p: Dist, q: Dist) -> SparseCoupling:
    """Greedy near-minimum-entropy coupling of two distributions.

    The classic greedy of Kocaoglu et al. (2017), "Entropic Causal
    Inference": repeatedly take the largest remaining row mass and the largest
    remaining column mass, place the smaller of the two on that cell, and put
    the other's residual back for a later step. Compton et al. (2022) prove
    the joint entropy is within log2(e)/e (about 0.53) bits of the optimum.
    Each step uses up at least one row or column, so the coupling has at most
    ``|supp p| + |supp q| - 1`` positive cells, and both marginals are
    reproduced to within 1e-9 per entry. Each step fills a cell no earlier
    step touched, since one of its row and column is then used up.

    Rows and columns are each kept in a Python list sorted ascending by
    ``(mass, -index)``, so its last entry is its largest mass, and ties
    between equal masses go to the lower index. Identical inputs therefore
    always yield an identical table; sender and receiver rely on that to
    reconstruct the same coupling independently. The column list depends on
    ``q`` alone, so it is built once per ``q`` object, kept on it, and
    copied by each call before the call pops from it.

    Runs: a support of at least ``RUN_MIN`` rows is sorted once by numpy, and
    each run of at least ``RUN_MIN`` equal masses m is kept out of the row
    list. When the run's first row is the largest live row, no row in the
    list holds m, and the top column holds at least m, the run's rows go
    whole into the columns in bulk until the top column holds less than m
    (``_place_run``). The rest of such a run, and a run that cannot start in
    bulk, join the row list and take single steps. Either way every cell,
    and so every byte of the coupling, is the step-by-step greedy's.

    Cost, for k rows and l columns in the supports: one sort per side, one
    Python step per cell outside runs, and per run of R rows about 25 numpy
    calls over at most R + 1 residuals per column, at worst about the size
    of the dense k x l table that holds the result. A belief made of a few
    plateaus of equal masses, the coder's usual belief, takes Python steps
    only for its short runs and where a run meets the end of a column. A
    residual row goes back into its list once per used-up column, and a
    residual column once per used-up row, so the shifting done by
    ``bisect.insort`` is O(k * l) at worst, the order of that table too.

    Args:
        p: Row marginal.
        q: Column marginal.

    Returns:
        SparseCoupling over the rows in the support of ``p``, each step's
        mass in the cell it filled and every other cell 0. Its arrays are
        new, and its rows, from ``nonzero()``, ascend below ``len(p)``. The
        table is stored column-major (``order="F"``), so each action's
        column is contiguous: the row totals add the columns left to right,
        and the coder's column sums and likelihood column read contiguous
        memory. It is not validated here: its user checks it once against
        the marginals it expects (``coding.check_mixture``).

    Raises:
        ValueError: If either input is not a valid distribution (raised at
            Dist construction).
    """
    p_norm = p.probs / p.probs.sum()
    support = p_norm.nonzero()[0]
    n, n_cols = len(support), len(q)
    masses = p_norm[support]
    # Rows are keyed by their position in the support, which ascends with the
    # message index; both sides store the negated index.
    cols = list(_columns(q))
    runs = []  # runs to place in bulk, the largest mass last: ((mass, key), rows)
    if n < RUN_MIN:
        rows = sorted(zip(masses.tolist(), range(0, -n, -1)))
    else:
        order = np.argsort(-masses, kind="stable")  # equal masses by position
        ordered = masses[order]
        edges = [0, *((ordered[:-1] != ordered[1:]).nonzero()[0] + 1).tolist(), n]
        short = np.ones(n, dtype=bool)
        for a, b in zip(edges, edges[1:]):
            if b - a >= RUN_MIN:
                short[a:b] = False
                runs.append(((ordered.item(a), -order.item(a)), order[a:b]))
        runs.reverse()
        short = order[short][::-1]
        rows = list(zip(masses[short].tolist(), (-short).tolist()))
    joint = np.zeros((n, n_cols), order="F")  # rows by position in the support
    while cols and (rows or runs):
        if runs and (not rows or rows[-1] < runs[-1][0]):
            (m, _), run = runs.pop()
            if cols[-1][0] >= m and (not rows or rows[-1][0] < m):
                placed, cols = _place_run(joint, run, m, cols)
                run = run[placed:]
            if len(run):  # what is not placed in bulk takes single steps
                rows += zip([m] * len(run), (-run[::-1]).tolist())
                rows.sort()
            continue
        r, k = rows.pop()
        c, j = cols.pop()
        if r > c:
            joint[-k, -j] = c
            insort(rows, (r - c, k))
        else:
            joint[-k, -j] = r
            if r < c:
                insort(cols, (c - r, j))
    # A rounding sliver left on one side once the other is used up is dropped.
    return SparseCoupling(joint, support, len(p_norm))


def _columns(q: Dist) -> tuple:
    """``q``'s live columns, normalized, as the ascending ``(mass, -index)``
    list, kept on ``q`` as ``entropy`` keeps its bits: a policy row is one
    ``Dist`` shared by every decision that plays it."""
    cols = getattr(q, "_mec_columns", None)
    if cols is None:
        q_norm = q.probs / q.probs.sum()
        live = q_norm.nonzero()[0]
        cols = tuple(sorted(zip(q_norm[live].tolist(), (-live).tolist())))
        object.__setattr__(q, "_mec_columns", cols)
    return cols


def _place_run(joint: np.ndarray, run: np.ndarray, m: float, cols: list) -> tuple[int, list]:
    """Place rows of equal mass ``m`` whole, as the step-by-step greedy would.

    ``run`` holds the rows' support positions in the greedy's order, and
    ``cols`` is the ascending ``(mass, -index)`` column list, whose top holds
    at least ``m``. While the largest column residual holds at least ``m``,
    each row goes whole into that column. Column j's residuals ``c_j,
    c_j - m, ...`` are one ``np.subtract.accumulate``, the loop's
    subtractions in its order. The greedy's sequence of columns is their
    merge by residual (descending), column index and step: a stable sort of
    every residual, laid out by column index and then step, which puts the
    residuals holding at least ``m`` first.

    Returns the number of rows placed, short of the run once every column
    holds less than ``m``, and the new column list.
    """
    n_run = len(run)
    at = bisect_left(cols, (m, -math.inf))  # columns holding at least m
    fits = sorted(cols[at:], key=lambda col: -col[1])  # ascending column index
    # Each subtraction takes m off a residual to within half an ulp of the top
    # column's mass, so at most top / (m - ulp / 2) residuals of a column hold
    # m (one more covers the rounding of that division). Below half an ulp, m
    # may take nothing off at all. One more residual per column is the one
    # left after its last row.
    half_ulp = math.ulp(cols[-1][0]) / 2
    length = n_run if m <= half_ulp else int(min(n_run, cols[-1][0] / (m - half_ulp) + 1))
    residuals = np.empty((len(fits), length + 1))
    residuals[:, 0] = [c for c, _ in fits]
    residuals[:, 1:] = m
    np.subtract.accumulate(residuals, axis=1, out=residuals)
    heads = residuals.ravel()
    placed = min(n_run, int(np.count_nonzero(heads >= m)))
    taken = np.argsort(-heads, kind="stable")[:placed] // (length + 1)
    index = np.array([-j for _, j in fits])
    joint[run[:placed], index[taken]] = m
    counts = np.bincount(taken, minlength=len(fits)).tolist()
    kept = [(residuals.item(e, t), j) for e, (t, (_, j)) in enumerate(zip(counts, fits))]
    return placed, sorted(cols[:at] + [col for col in kept if col[0] > 0.0])
