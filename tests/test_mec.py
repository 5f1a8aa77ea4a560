"""Greedy coupling and exact-oracle tests.

The greedy is checked on worked examples, cell for cell against the textbook
heap greedy kept here as ``reference_greedy`` (on random pairs and on
plateau beliefs at the edges of its bulk placement of equal masses), on
properties of random pairs (exact marginals, determinism, sparsity) and
against ``exact_mec_oracle`` from the ``mec_oracle`` helper module: never
below it, within the proved log2(e)/e bits of it, and close to it on
average. The oracle is checked against an unpruned enumeration of vertices.
"""

import heapq
import math

import numpy as np
import pytest

from trajcomm.coding import check_mixture
from trajcomm.dist import Dist, SparseCoupling, coupling_entropies, entropy
from trajcomm.mec import RUN_MIN, greedy_mec

from mec_oracle import exact_mec_oracle

# Compton et al. (2022): the greedy is within log2(e)/e bits of optimal.
GREEDY_GAP_BOUND = math.log2(math.e) / math.e


def checked_oracle(p: Dist, q: Dist) -> SparseCoupling:
    """``exact_mec_oracle(p, q)``, checked as a coupling of ``p`` and ``q``."""
    c = exact_mec_oracle(p, q)
    check_mixture(c, p, q)
    return c


def random_dist(rng, max_size=64, min_size=2, spiky=True) -> Dist:
    n = int(rng.integers(min_size, max_size + 1))
    alpha = float(rng.choice([0.1, 0.5, 1.0, 3.0])) if spiky else 1.0
    probs = rng.dirichlet(np.full(n, alpha))
    if rng.random() < 0.25 and n > 2:
        probs[rng.integers(n)] = 0.0
        probs = probs / probs.sum()
    return Dist(probs)


def reference_greedy(p: Dist, q: Dist) -> np.ndarray:
    """The textbook heap greedy, as the reference for ``greedy_mec``.

    One max-heap per side over ``(-mass, index)`` of the positive entries:
    pop the top row and the top column, place the smaller mass on their
    cell, push the larger one's residual back. Returns the dense
    ``len(p) x len(q)`` table.
    """
    rows = [(-m, i) for i, m in enumerate((p.probs / p.probs.sum()).tolist()) if m > 0.0]
    cols = [(-m, j) for j, m in enumerate((q.probs / q.probs.sum()).tolist()) if m > 0.0]
    heapq.heapify(rows)
    heapq.heapify(cols)
    joint = np.zeros((len(p), len(q)))
    while rows and cols:
        r, i = heapq.heappop(rows)
        c, j = heapq.heappop(cols)
        joint[i, j] = -max(r, c)
        if r < c:
            heapq.heappush(rows, (r - c, i))
        elif c < r:
            heapq.heappush(cols, (c - r, j))
    return joint


def reference_marginals(joint: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row and column sums of a dense table, cell by cell in row-major order."""
    rows, cols = np.zeros(joint.shape[0]), np.zeros(joint.shape[1])
    for r, c in zip(*np.nonzero(joint)):
        rows[r] += joint[r, c]
        cols[c] += joint[r, c]
    return rows, cols


def _reference_pairs(rng) -> list:
    """Pairs of every kind the greedy must match the reference on."""
    pairs = [(Dist.uniform(1024), random_dist(rng, max_size=n, min_size=n)) for n in range(1, 7)]
    pairs += [(Dist.uniform(1024), Dist.uniform(n)) for n in (1, 2, 4)]
    for i in range(600):
        n_cols = 1 + i % 6
        n_rows = int(rng.choice([1, 2, 3, 8, 63, 64, 65, 200]))
        kind = i % 4
        if kind == 0:  # Dirichlet masses, some entries zeroed
            p = rng.dirichlet(np.ones(n_rows)) * (rng.random(n_rows) < 0.7)
            q = rng.dirichlet(np.ones(n_cols)) * (rng.random(n_cols) < 0.7)
        elif kind == 1:
            # Masses of 1, 2 or 4 units: equal masses tie exactly, and so do
            # residuals, since halving and doubling are exact.
            p = rng.choice([1.0, 2.0, 4.0], n_rows) * (rng.random(n_rows) < 0.8)
            q = rng.choice([1.0, 2.0, 4.0], n_cols)
        elif kind == 2:  # point masses on either side
            p = np.eye(n_rows)[rng.integers(n_rows)] if rng.random() < 0.5 else rng.random(n_rows)
            q = np.eye(n_cols)[rng.integers(n_cols)]
        else:  # uniform rows, possibly with zero rows
            p = np.ones(n_rows) * (rng.random(n_rows) < 0.9)
            q = rng.random(n_cols)
        for d in (p, q):  # at least one positive row and column
            if not d.any():
                d[rng.integers(len(d))] = 1.0
        pairs.append((Dist(p / p.sum()), Dist(q / q.sum())))
    return pairs


def _plateau_pairs() -> dict:
    """Plateau beliefs at the edges of ``greedy_mec``'s bulk placement of runs.

    Masses are in units of 1/128 where exact ties matter, so every sum and
    residual is exact.
    """
    u = 1.0 / 128
    big = RUN_MIN + 20  # a run long enough to be placed in bulk
    return {
        # Equal residuals in several columns go to the lower column index.
        "ties-across-columns": (Dist.uniform(big), Dist.uniform(4)),
        "tied-columns-unequal-steps": (Dist.uniform(128), Dist([0.25, 0.5, 0.25])),
        "zero-column": (Dist.uniform(big), Dist([0.5, 0.0, 0.25, 0.25])),
        # The first row uses up five of six columns and leaves the last one
        # about 2e-16; each run mass is below half an ulp of that, so c - m
        # == c and every run row goes into that one column.
        "sliver-run": (Dist([1.0] + [1e-40] * big), Dist.uniform(6)),
        # Just above half an ulp: each step takes off a whole ulp, not m.
        "near-sliver-run": (Dist([1.0] + [3e-32] * big), Dist.uniform(6)),
        # The first run ends with 0.25 left in each column, and the second
        # run starts in those residuals.
        "run-ends-mid-column": (
            Dist(np.r_[np.full(100, 0.005), np.full(200, 0.0025)]),
            Dist([0.6, 0.4]),
        ),
        # Row 60 (3 units) fills a 2-unit column and keeps 1 unit, the run's
        # mass, so it takes its turn among the run's rows by index.
        "residual-ties-run-inside-it": (
            Dist([u] * 60 + [3 * u] + [u] * 65),
            Dist.uniform(64),
        ),
        # At index 0 the same residual goes before the whole run.
        "residual-ties-run-before-it": (
            Dist([3 * u] + [u] * 125),
            Dist.uniform(64),
        ),
        "short-run-above-long-run": (
            Dist(np.r_[np.full(3, 8 * u), np.full(big, 1.0)] / (24 * u + big)),
            Dist([0.5, 0.3, 0.2]),
        ),
        "run-larger-than-every-column": (Dist.uniform(big), Dist.uniform(2 * big)),
        "support-below-run-min": (Dist.uniform(RUN_MIN - 1), Dist([0.4, 0.3, 0.2, 0.1])),
        "support-at-run-min": (Dist.uniform(RUN_MIN), Dist([0.4, 0.3, 0.2, 0.1])),
    }


def _run_lengths(p: Dist) -> list[int]:
    """How many rows share each distinct positive mass of ``p``."""
    masses = p.probs / p.probs.sum()
    return np.unique(masses[masses > 0.0], return_counts=True)[1].tolist()


def _assert_matches_reference(p: Dist, q: Dist) -> None:
    c = greedy_mec(p, q)
    ref = reference_greedy(p, q)
    at = np.nonzero(ref)
    assert c.entries == tuple(zip(ref[at].tolist(), *(a.tolist() for a in at)))
    rows, cols = reference_marginals(ref)
    assert c.row_marginal().probs.tobytes() == rows.tobytes()
    assert c.col_marginal().probs.tobytes() == cols.tobytes()
    assert c.rows.tolist() == np.flatnonzero(p.probs).tolist()


class TestGreedyMatchesHeapReference:
    """``greedy_mec`` places the heap greedy's masses in the heap greedy's
    cells, and its marginals have the reference's bytes."""

    def test_entries_and_marginal_bytes(self):
        pairs = _reference_pairs(np.random.default_rng(21))
        for p, q in pairs:
            _assert_matches_reference(p, q)
        # Supports on both sides of RUN_MIN, and in the large ones runs both
        # long enough to place in bulk and too short for it.
        supports = [int(np.count_nonzero(p.probs)) for p, _ in pairs]
        assert min(supports) < RUN_MIN <= max(supports)
        runs = [n for p, _ in pairs if sum(_run_lengths(p)) >= RUN_MIN for n in _run_lengths(p)]
        assert min(runs) < RUN_MIN <= max(runs)

    @pytest.mark.parametrize("case", sorted(_plateau_pairs()))
    def test_plateau_edge_cases(self, case):
        _assert_matches_reference(*_plateau_pairs()[case])

    def test_stores_only_the_live_rows(self):
        rng = np.random.default_rng(22)
        live = np.sort(rng.choice(1024, 40, replace=False))
        w = np.zeros(1024)
        w[live] = rng.random(40) + 0.1
        q = Dist([0.4, 0.3, 0.2, 0.1])
        c = greedy_mec(Dist(w / w.sum()), q)
        assert c.joint.shape == (40, 4)
        assert c.rows.tolist() == live.tolist()
        assert (c.n_rows, c.n_cols) == (1024, 4)
        assert np.array_equal(c.row_marginal().probs[live], c.row_mass)


class TestGreedyMecExamples:
    def test_point_masses(self):
        c = greedy_mec(Dist([1.0]), Dist([1.0]))
        assert c.entries == ((1.0, 0, 0),)
        assert coupling_entropies(c).joint_bits == 0.0

    def test_fair_coins(self):
        c = greedy_mec(Dist([0.5, 0.5]), Dist([0.5, 0.5]))
        assert len(c.entries) == 2
        assert coupling_entropies(c).joint_bits == pytest.approx(1.0, abs=1e-12)

    def test_coin_against_three_outcomes(self):
        c = greedy_mec(Dist([0.5, 0.5]), Dist([0.5, 0.25, 0.25]))
        assert set(c.entries) == {(0.5, 0, 0), (0.25, 1, 1), (0.25, 1, 2)}
        assert coupling_entropies(c).joint_bits == pytest.approx(1.5, abs=1e-12)

    def test_residual_ties_go_to_the_lower_index(self):
        # Row 0 keeps a residual of 0.25 after its first cell, which ties
        # with rows 1 and 2; the residual row comes first.
        c = greedy_mec(Dist([0.5, 0.25, 0.25]), Dist.uniform(4))
        assert c.entries == ((0.25, 0, 0), (0.25, 0, 1), (0.25, 1, 2), (0.25, 2, 3))

    def test_ties_go_to_the_lower_index(self):
        # Sender and receiver rebuild this exact entry sequence independently.
        c = greedy_mec(Dist.uniform(4), Dist([0.5, 0.5]))
        assert c.entries == ((0.25, 0, 0), (0.25, 1, 1), (0.25, 2, 0), (0.25, 3, 1))

    def test_mismatched_supports_are_padded(self):
        c = greedy_mec(Dist([1.0]), Dist([0.5, 0.5]))
        assert np.allclose(c.row_marginal().probs, [1.0])
        assert np.allclose(c.col_marginal().probs, [0.5, 0.5])

    def test_invalid_input_rejected(self):
        with pytest.raises(ValueError):
            greedy_mec(Dist([1.0]), Dist([0.7, 0.7]))


class TestGreedyMecProperties:
    def test_marginal_exactness(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            p, q = random_dist(rng), random_dist(rng)
            c = greedy_mec(p, q)
            assert np.max(np.abs(c.row_marginal().probs - p.probs)) < 1e-9
            assert np.max(np.abs(c.col_marginal().probs - q.probs)) < 1e-9

    def test_determinism_bit_for_bit(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            p, q = random_dist(rng), random_dist(rng)
            assert greedy_mec(p, q).entries == greedy_mec(p, q).entries

    def test_joint_entropy_lower_bound(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            p, q = random_dist(rng, max_size=32), random_dist(rng, max_size=32)
            h = coupling_entropies(greedy_mec(p, q)).joint_bits
            assert h >= max(entropy(p), entropy(q)) - 1e-9

    def test_mixture_identity(self):
        # sum_i p_i * joint[i] / row_mass[i] reconstructs q exactly.
        from trajcomm.coding import action_row

        rng = np.random.default_rng(14)
        for _ in range(100):
            p, q = random_dist(rng, max_size=24), random_dist(rng, max_size=24)
            c = greedy_mec(p, q)
            mix = sum(p.probs[i] * action_row(c, i, q) for i in range(len(p)))
            assert np.max(np.abs(mix - q.probs)) < 1e-9

    def test_sparsity_linear_in_support(self):
        rng = np.random.default_rng(16)
        for _ in range(50):
            p, q = random_dist(rng), random_dist(rng)
            c = greedy_mec(p, q)
            support = np.count_nonzero(p.probs) + np.count_nonzero(q.probs)
            assert len(c.entries) <= support - 1


class TestExactOracle:
    def test_fair_coins(self):
        c = checked_oracle(Dist([0.5, 0.5]), Dist([0.5, 0.5]))
        assert coupling_entropies(c).joint_bits == pytest.approx(1.0, abs=1e-9)

    def test_vertex_enumeration_example(self):
        c = checked_oracle(Dist([0.5, 0.5]), Dist([0.5, 0.25, 0.25]))
        assert coupling_entropies(c).joint_bits == pytest.approx(1.5, abs=1e-9)

    def test_two_by_two_diagonal(self):
        # One free parameter; entropy is concave in it, so the optimum sits at
        # an endpoint, here the diagonal coupling.
        c = checked_oracle(Dist([0.6, 0.4]), Dist([0.6, 0.4]))
        assert set(c.entries) == {(0.6, 0, 0), (0.4, 1, 1)}
        assert coupling_entropies(c).joint_bits == pytest.approx(
            0.9709505944546686, abs=1e-9
        )

    def test_support_size_guard(self):
        with pytest.raises(ValueError):
            exact_mec_oracle(Dist(np.full(7, 1 / 7)), Dist([0.5, 0.5]))

    def test_matches_unpruned_enumeration(self):
        # Cross-check against a pruning-free search on tiny instances.
        import math

        from mec_oracle import _int_support

        def brute(p, q):
            best = [math.inf]

            def rec(rows, cols, acc):
                if not rows:
                    best[0] = min(best[0], acc)
                    return
                for ri, (i, rv) in enumerate(rows):
                    for ci, (j, cv) in enumerate(cols):
                        m = min(rv, cv)
                        nr, nc = list(rows), list(cols)
                        if rv == m:
                            nr.pop(ri)
                        else:
                            nr[ri] = (i, rv - m)
                        if cv == m:
                            nc.pop(ci)
                        else:
                            nc[ci] = (j, cv - m)
                        x = m / 10**12
                        rec(tuple(nr), tuple(nc), acc - x * math.log2(x))

            rec(tuple(_int_support(p.probs)), tuple(_int_support(q.probs)), 0.0)
            return best[0]

        rng = np.random.default_rng(17)
        pairs = [
            (Dist(rng.dirichlet(np.ones(int(rng.integers(2, 4))))),
             Dist(rng.dirichlet(np.ones(int(rng.integers(2, 4))))))
            for _ in range(20)
        ]
        # Ties and balanced sub-blocks, whose optimal supports are forests.
        pairs += [
            (Dist.uniform(3), Dist.uniform(3)),
            (Dist.uniform(2), Dist([0.25, 0.25, 0.5])),
            (Dist([0.2, 0.3, 0.5]), Dist([0.5, 0.3, 0.2])),
        ]
        for p, q in pairs:
            ours = coupling_entropies(checked_oracle(p, q)).joint_bits
            assert ours == pytest.approx(brute(p, q), abs=1e-9)

    def test_oracle_at_or_below_greedy(self):
        rng = np.random.default_rng(18)
        for _ in range(60):
            p = random_dist(rng, max_size=5)
            q = random_dist(rng, max_size=5)
            hg = coupling_entropies(greedy_mec(p, q)).joint_bits
            ho = coupling_entropies(checked_oracle(p, q)).joint_bits
            assert ho <= hg + 1e-9
            assert hg <= ho + GREEDY_GAP_BOUND
            assert ho >= max(entropy(p), entropy(q)) - 1e-9

    def test_mean_gap_to_oracle(self):
        rng = np.random.default_rng(19)
        gaps = []
        for _ in range(400):
            p = Dist(rng.dirichlet(np.ones(int(rng.integers(2, 7)))))
            q = Dist(rng.dirichlet(np.ones(int(rng.integers(2, 7)))))
            hg = coupling_entropies(greedy_mec(p, q)).joint_bits
            ho = coupling_entropies(checked_oracle(p, q)).joint_bits
            gaps.append(hg - ho)
        assert np.mean(gaps) < 0.05
