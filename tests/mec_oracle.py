"""Exact minimum-entropy coupling of small supports, the oracle the greedy
coupler is measured against in the tests."""

from __future__ import annotations

import math

import numpy as np

from trajcomm.dist import Dist, SparseCoupling

_ORACLE_MAX_SUPPORT = 6
_SCALE = 10**12


def full_coupling(joint, order: str = "C") -> SparseCoupling:
    """A coupling that stores every row of ``joint``, as float64 masses laid
    out in ``order`` ("C" row-major, "F" column-major as ``greedy_mec``'s)."""
    joint = np.array(joint, dtype=np.float64, order=order)
    return SparseCoupling(joint, np.arange(len(joint)), len(joint))


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


def _subsets_with(low: int, rest: int):
    """Every bitmask ``low | s`` for ``s`` a subset of ``rest``."""
    sub = rest
    while True:
        yield sub | low
        if not sub:
            return
        sub = (sub - 1) & rest


def exact_mec_oracle(p: Dist, q: Dist) -> SparseCoupling:
    """Exact minimum-entropy coupling for supports of at most 6 outcomes.

    Joint entropy is concave over the transportation polytope with marginals
    ``p`` and ``q``, so its minimum is attained at a vertex, whose support is
    a forest on the lines (rows and columns) of balanced trees. In a rooted
    tree the mass on the edge above a subtree is the subtree's imbalance (row
    mass minus column mass): a subtree in surplus is rooted at a row below a
    column, one in deficit at a column below a row. A dynamic program over
    subsets of the at most 12 lines finds the cheapest forest in about 3^12
    steps. Marginals are snapped to an exact integer grid of 1e-12, so every
    imbalance is exact and the result deterministic.

    Args:
        p: Row marginal with at most 6 positive entries.
        q: Column marginal with at most 6 positive entries.

    Returns:
        A minimum-entropy SparseCoupling of ``p`` and ``q``: each forest
        edge's mass sits in the dense table at its (row, column) cell, and
        every other cell is 0.

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
    # Lines are the rows, then the columns; bit k of a set stands for line k.
    lines = rows + [(j, -m) for j, m in cols]
    n_rows = len(rows)
    size = 1 << len(lines)
    imbalance = [0] * size
    for x in range(1, size):
        imbalance[x] = imbalance[x & (x - 1)] + lines[(x & -x).bit_length() - 1][1]

    # hang[t][x]: least entropy of subtrees covering x, each with its edge to
    # one parent line, a row (t=0) or a column (t=1). tree[x]: least entropy of
    # a tree on x whose root can pass x's imbalance up one edge. forest[x]:
    # least entropy of balanced trees covering x. *_arg keep the minimizers.
    hang = ([0.0] + [math.inf] * (size - 1), [0.0] + [math.inf] * (size - 1))
    hang_arg = ([0] * size, [0] * size)
    tree = [math.inf] * size
    tree_arg = [0] * size
    forest = [0.0] + [math.inf] * (size - 1)
    forest_arg = [0] * size
    for x in range(1, size):
        v = imbalance[x]
        if v:
            for w in range(n_rows) if v > 0 else range(n_rows, len(lines)):
                if x >> w & 1 and hang[w >= n_rows][x ^ (1 << w)] < tree[x]:
                    tree[x], tree_arg[x] = hang[w >= n_rows][x ^ (1 << w)], w
        low = x & -x
        low_kind = low >= (1 << n_rows)
        for b in _subsets_with(low, x ^ low):
            v = imbalance[b]
            if v == 0:
                cost = hang[low_kind][b ^ low] + forest[x ^ b]
                if cost < forest[x]:
                    forest[x], forest_arg[x] = cost, b
                continue
            # A block in surplus hangs below a column, one in deficit below a row.
            t = v > 0
            m = abs(v) / _SCALE
            cost = tree[b] - m * math.log2(m) + hang[t][x ^ b]
            if cost < hang[t][x]:
                hang[t][x], hang_arg[t][x] = cost, b

    joint = np.zeros((len(p), len(q)))

    def rebuild(parent, x):
        t = parent >= n_rows
        while x:
            b = hang_arg[t][x]
            w = tree_arg[b]
            r, c = (w, parent) if t else (parent, w)
            joint[lines[r][0], lines[c][0]] = abs(imbalance[b]) / _SCALE
            rebuild(w, b ^ (1 << w))
            x ^= b

    x = size - 1
    while x:
        b = forest_arg[x]
        rebuild((b & -b).bit_length() - 1, b ^ (b & -b))
        x ^= b
    return full_coupling(joint)
