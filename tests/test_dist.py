"""Distribution, coupling-container, and entropy-utility tests."""

import numpy as np
import pytest

from trajcomm.dist import (
    Dist,
    SparseCoupling,
    coupling_entropies,
    entropy,
    sample_index,
)
from trajcomm.mec import greedy_mec

from mec_oracle import full_coupling


class TestDist:
    def test_valid_construction(self):
        d = Dist([0.5, 0.25, 0.25])
        assert len(d) == 3
        assert d[0] == 0.5

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Dist([0.6, 0.5, -0.1])

    def test_rejects_bad_total(self):
        with pytest.raises(ValueError):
            Dist([0.5, 0.4])

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            Dist([float("nan"), 1.0])

    @pytest.mark.parametrize(
        "probs, message",
        [
            ([float("nan"), 1.0], "must be finite"),
            ([float("inf"), 0.0], "must be finite"),
            ([float("-inf"), 1.0], "must be finite"),
            ([float("inf"), float("-inf")], "must be finite"),
            ([float("nan"), -0.5, 1.5], "must be finite"),
            ([0.6, 0.5, -0.1], "must be non-negative"),
            ([1.5, -0.5], "must be non-negative"),
            ([0.5, 0.4], r"sums to 0\.9, not 1"),
            ([0.5, 0.5 + 2e-9], "sums to"),
        ],
        ids=["nan", "inf", "-inf", "inf-and-minus-inf", "nan-before-negative", "negative",
             "negative-summing-to-one", "bad-total", "total-just-off"],
    )
    def test_rejection_messages(self, probs, message):
        with pytest.raises(ValueError, match=message):
            Dist(probs)

    def test_total_within_tolerance_passes(self):
        assert len(Dist([0.5, 0.5 + 5e-10])) == 2

    def test_immutable(self):
        d = Dist([0.5, 0.5])
        with pytest.raises(ValueError):
            d.probs[0] = 1.0

    def test_uniform_and_point_mass(self):
        assert np.all(Dist.uniform(4).probs == 0.25)
        pm = Dist.point_mass(2, 4)
        assert pm[2] == 1.0 and pm[0] == 0.0


class TestEntropy:
    def test_uniform_pair_is_one_bit(self):
        assert entropy(Dist([0.5, 0.5])) == 1.0

    def test_point_mass_is_zero(self):
        assert entropy(Dist([1.0, 0.0])) == 0.0

    def test_hand_evaluated_three_outcomes(self):
        # -sum p log2 p with p = (1/2, 1/4, 1/4) is exactly 1.5.
        assert entropy(Dist([0.5, 0.25, 0.25])) == pytest.approx(1.5, abs=1e-12)

    def test_bounded_by_log_support(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(2, 20))
            d = Dist(rng.dirichlet(np.ones(n)))
            assert 0.0 <= entropy(d) <= np.log2(n) + 1e-12


def cumsum_sample_index(probs, rng):
    """Reference: the numpy inverse-CDF draw."""
    cum = np.cumsum(probs)
    i = int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))
    return min(i, len(probs) - 1)


class FixedDraws:
    """A stand-in generator whose ``random()`` returns the given values in turn."""

    def __init__(self, values):
        self._values = iter(values)

    def random(self):
        return next(self._values)


# (length, where runs of zero-mass entries sit); a run is n // 16 entries, at
# least one.
SAMPLE_CASES = [(1, "none"), (2, "none"), (2, "leading"), (2, "trailing")] + [
    (n, zeros)
    for n in (4, 64, 1024, 4096)
    for zeros in ("none", "leading", "interior", "trailing", "all-three")
]


class TestSampleIndex:
    def test_matches_probabilities(self):
        rng = np.random.default_rng(0)
        probs = np.array([0.2, 0.5, 0.3])
        counts = np.zeros(3)
        n = 20000
        for _ in range(n):
            counts[sample_index(probs, rng)] += 1
        assert np.max(np.abs(counts / n - probs)) < 0.02

    def test_zero_mass_never_drawn(self):
        rng = np.random.default_rng(1)
        probs = np.array([0.0, 1.0, 0.0])
        assert all(sample_index(probs, rng) == 1 for _ in range(100))

    @pytest.mark.parametrize("n, zeros", SAMPLE_CASES)
    def test_matches_cumsum_searchsorted_draw_for_draw(self, n, zeros):
        probs = np.random.default_rng(n).random(n)
        k = max(1, n // 16)
        runs = {
            "leading": [slice(0, k)],
            "interior": [slice(n // 2, n // 2 + k)],
            "trailing": [slice(n - k, n)],
        }
        runs["all-three"] = runs["leading"] + runs["interior"] + runs["trailing"]
        for cut in runs.get(zeros, []):
            probs[cut] = 0.0
        probs /= probs.sum()
        rng, ref = np.random.default_rng(5), np.random.default_rng(5)
        draws = [sample_index(probs, rng) for _ in range(1000)]
        assert draws == [cumsum_sample_index(probs, ref) for _ in range(1000)]
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_exact_boundaries_match_searchsorted(self):
        # A draw landing exactly on a running total goes to the next index,
        # past any zero-mass entries; u = 1, which random() never returns,
        # is capped to the last index.
        probs = np.array([0.0, 0.25, 0.25, 0.0, 0.5, 0.0])
        us = [0.0, 0.25, 0.5, 0.75, 1.0, 0.9999999999999999]
        got, want = FixedDraws(us), FixedDraws(us)
        draws = [sample_index(probs, got) for _ in us]
        assert draws == [cumsum_sample_index(probs, want) for _ in us]
        assert draws == [1, 2, 4, 4, 5, 4]


class TestSparseCoupling:
    def test_marginals(self):
        c = full_coupling([[0.5, 0.0, 0.0], [0.0, 0.25, 0.25]])
        assert (c.n_rows, c.n_cols) == (2, 3)
        assert np.allclose(c.row_marginal().probs, [0.5, 0.5])
        assert np.allclose(c.col_marginal().probs, [0.5, 0.25, 0.25])

    def test_takes_its_arrays_as_they_are(self):
        joint, rows = np.array([[0.5, 0.0], [0.25, 0.25]]), np.array([1, 3], dtype=np.intp)
        c = SparseCoupling(joint, rows, 5)
        assert c.joint is joint and c.rows is rows
        assert not (joint.flags.writeable or rows.flags.writeable)

    def test_entry_arrays_are_read_only(self):
        c = greedy_mec(Dist([0.5, 0.5]), Dist([0.5, 0.25, 0.25]))
        assert c.entries == ((0.5, 0, 0), (0.25, 1, 1), (0.25, 1, 2))
        assert np.array_equal(c.joint, [[0.5, 0.0, 0.0], [0.0, 0.25, 0.25]])
        assert np.array_equal(c.row_mass, [0.5, 0.5])
        for arr in (c.joint, c.rows, c.row_mass):
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_stored_rows_keep_global_indices(self):
        joint = np.array([[0.5, 0.0], [0.25, 0.25]])
        c = SparseCoupling(joint, np.array([1, 3], dtype=np.intp), 5)
        assert (c.n_rows, c.n_cols) == (5, 2)
        assert c.entries == ((0.5, 1, 0), (0.25, 3, 0), (0.25, 3, 1))
        assert np.array_equal(c.row_mass, [0.5, 0.5])
        assert np.array_equal(c.row_marginal().probs, [0.0, 0.5, 0.0, 0.5, 0.0])
        assert np.array_equal(c.col_marginal().probs, [0.75, 0.25])
        with pytest.raises(ValueError):
            c.rows[0] = 0

    def test_lazy_marginals_match_entry_loop_bytes(self):
        # Reference: each marginal summed cell by cell, in row-major order, in
        # a Python loop. One-column tables and rows of more than eight cells
        # are where a pairwise sum would differ.
        rng = np.random.default_rng(41)
        for _ in range(300):
            n_rows, n_cols = int(rng.integers(1, 30)), int(rng.integers(1, 20))
            cells = rng.permutation(n_rows * n_cols)[: int(rng.integers(1, n_rows * n_cols + 1))]
            masses = rng.random(len(cells)) + 1e-3
            masses /= masses.sum()
            joint = np.zeros((n_rows, n_cols))
            joint.flat[cells] = masses
            rows, cols = np.zeros(n_rows), np.zeros(n_cols)
            for r in range(n_rows):
                for col in range(n_cols):
                    if joint[r, col] > 0.0:
                        rows[r] += joint[r, col]
                        cols[col] += joint[r, col]
            c = full_coupling(joint)
            assert c.joint.tobytes() == joint.tobytes()
            assert c.row_mass.tobytes() == rows.tobytes()
            assert c.row_marginal().probs.tobytes() == rows.tobytes()
            assert c.col_marginal().probs.tobytes() == cols.tobytes()


class TestCouplingEntropies:
    def test_identity_coupling_of_fair_coins(self):
        c = full_coupling([[0.5, 0.0], [0.0, 0.5]])
        e = coupling_entropies(c)
        assert e.joint_bits == pytest.approx(1.0, abs=1e-12)
        assert e.row_marginal_bits == pytest.approx(1.0, abs=1e-12)
        assert e.col_marginal_bits == pytest.approx(1.0, abs=1e-12)
        assert e.mutual_info_bits == pytest.approx(1.0, abs=1e-12)

    def test_independent_product_of_fair_coins(self):
        c = full_coupling([[0.25, 0.25], [0.25, 0.25]])
        e = coupling_entropies(c)
        assert e.joint_bits == pytest.approx(2.0, abs=1e-12)
        assert e.mutual_info_bits == pytest.approx(0.0, abs=1e-12)

    def test_mixed_example_arithmetic(self):
        c = full_coupling([[0.5, 0.0, 0.0], [0.0, 0.25, 0.25]])
        e = coupling_entropies(c)
        assert e.joint_bits == pytest.approx(1.5, abs=1e-12)
        assert e.mutual_info_bits == pytest.approx(1.0, abs=1e-12)
