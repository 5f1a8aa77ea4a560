"""Distribution, coupling-container, and entropy-utility tests."""

import numpy as np
import pytest

from trajcomm.dist import (
    CouplingEntropies,
    Dist,
    SparseCoupling,
    coupling_entropies,
    entropy,
    sample_index,
)


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


class TestSparseCoupling:
    def test_rejects_duplicate_cells(self):
        with pytest.raises(ValueError):
            SparseCoupling(((0.5, 0, 0), (0.5, 0, 0)), 1, 1)

    def test_rejects_nonpositive_mass(self):
        with pytest.raises(ValueError):
            SparseCoupling(((1.0, 0, 0), (0.0, 0, 1)), 1, 2)

    def test_rejects_bad_total(self):
        with pytest.raises(ValueError):
            SparseCoupling(((0.5, 0, 0),), 1, 1)

    def test_marginals(self):
        c = SparseCoupling(((0.5, 0, 0), (0.25, 1, 1), (0.25, 1, 2)), 2, 3)
        assert np.allclose(c.row_marginal().probs, [0.5, 0.5])
        assert np.allclose(c.col_marginal().probs, [0.5, 0.25, 0.25])
        assert c.dense()[1, 2] == 0.25


class TestCouplingEntropies:
    def test_identity_coupling_of_fair_coins(self):
        c = SparseCoupling(((0.5, 0, 0), (0.5, 1, 1)), 2, 2)
        e = coupling_entropies(c)
        assert e.joint_bits == pytest.approx(1.0, abs=1e-12)
        assert e.row_marginal_bits == pytest.approx(1.0, abs=1e-12)
        assert e.col_marginal_bits == pytest.approx(1.0, abs=1e-12)
        assert e.mutual_info_bits == pytest.approx(1.0, abs=1e-12)

    def test_independent_product_of_fair_coins(self):
        c = SparseCoupling(
            ((0.25, 0, 0), (0.25, 0, 1), (0.25, 1, 0), (0.25, 1, 1)), 2, 2
        )
        e = coupling_entropies(c)
        assert e.joint_bits == pytest.approx(2.0, abs=1e-12)
        assert e.mutual_info_bits == pytest.approx(0.0, abs=1e-12)

    def test_mixed_example_arithmetic(self):
        c = SparseCoupling(((0.5, 0, 0), (0.25, 1, 1), (0.25, 1, 2)), 2, 3)
        e = coupling_entropies(c)
        assert e.joint_bits == pytest.approx(1.5, abs=1e-12)
        assert e.mutual_info_bits == pytest.approx(1.0, abs=1e-12)

    def test_validates_identity(self):
        with pytest.raises(ValueError):
            CouplingEntropies(1.0, 1.0, 1.0, 0.5)
