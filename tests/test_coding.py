"""Sender/receiver coding tests: coupling rows, posteriors, episodes,
round trips, and the information-theoretic guarantees."""

import dataclasses
import logging
import math

import numpy as np
import pytest

from trajcomm import coding
from trajcomm.coding import (
    action_row,
    check_mixture,
    exact_coded_value,
    map_estimate,
    posterior_update,
    receiver_decode,
    run_roundtrip,
    sender_episode,
)
from trajcomm.dist import Dist, SparseCoupling, coupling_entropies, entropy, sample_index
from trajcomm.envs import (
    build_channel_chain,
    build_codegrid,
    build_toy_mcg,
    chain_mcg,
)
from trajcomm.maxent import QTable, exact_soft_vi, softmax_policy
from trajcomm.mcg import Belief, McgSpec, MessageSpace, sample_message
from trajcomm.mdp import (
    MdpSpec,
    ObservedTrajectory,
    Step,
    Trajectory,
    apply_actuator_noise,
    exact_policy_return,
    step,
    trajectory_return,
)
from trajcomm.mec import greedy_mec
from trajcomm.sweep import SweepConfig, run_sweep

from mec_oracle import full_coupling
from test_mec import checked_oracle, reference_greedy

TOY_SOFTMAX = np.array([0.7213991842739685, 0.26538792877224193, 0.013212886953789414])


class TestActionRow:
    def test_fair_coins_permutation(self):
        policy = Dist([0.5, 0.5])
        c = greedy_mec(Dist([0.5, 0.5]), policy)
        assert np.allclose(action_row(c, 0, policy), [1.0, 0.0])
        assert np.allclose(action_row(c, 1, policy), [0.0, 1.0])

    def test_known_message_communicates_nothing(self):
        action_dist = Dist([0.3, 0.6, 0.1])
        c = greedy_mec(Dist([1.0]), action_dist)
        assert np.allclose(action_row(c, 0, action_dist), action_dist.probs)

    def test_coin_against_three_outcomes(self):
        policy = Dist([0.5, 0.25, 0.25])
        c = greedy_mec(Dist([0.5, 0.5]), policy)
        assert np.allclose(action_row(c, 0, policy), [1.0, 0.0, 0.0])
        assert np.allclose(action_row(c, 1, policy), [0.0, 0.5, 0.5])

    def test_mixture_reconstructs_marginal(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            b = Dist(rng.dirichlet(np.ones(int(rng.integers(2, 10)))))
            a = Dist(rng.dirichlet(np.ones(int(rng.integers(2, 6)))))
            c = greedy_mec(b, a)
            mix = sum(b.probs[i] * action_row(c, i, a) for i in range(len(b)))
            assert np.max(np.abs(mix - a.probs)) < 1e-9

    def test_identity_coupling_rows(self):
        c = full_coupling([[0.5, 0.0], [0.0, 0.5]])
        policy = Dist([0.5, 0.5])
        assert np.allclose(action_row(c, 0, policy), [1.0, 0.0])
        assert np.allclose(action_row(c, 1, policy), [0.0, 1.0])

    def test_independent_rows_equal_column_marginal(self):
        c = full_coupling([[0.25, 0.25], [0.25, 0.25]])
        for m in range(2):
            assert np.allclose(action_row(c, m, Dist([0.5, 0.5])), c.col_marginal().probs)

    def test_mixed_example_rows(self):
        c = full_coupling([[0.5, 0.0, 0.0], [0.0, 0.25, 0.25]])
        assert np.allclose(action_row(c, 0, c.col_marginal()), [1.0, 0.0, 0.0])
        assert np.allclose(action_row(c, 1, c.col_marginal()), [0.0, 0.5, 0.5])
        assert np.array_equal(c.row_mass, [0.5, 0.5])

    def test_zero_mass_row_gets_fallback(self):
        c = full_coupling([[1.0], [0.0]])
        policy = Dist([1.0])
        assert c.row_mass[1] == 0.0
        assert action_row(c, 1, policy) is policy.probs


class TestDecisionRuleRows:
    def test_arrays_are_read_only(self):
        # The decision rule is the greedy coupling; the arrays action_row
        # reads from it, and the fallback row it hands out, must not be writable.
        policy = Dist([0.5, 0.5])
        rule = greedy_mec(Dist([0.5, 0.5]), policy)
        assert np.array_equal(rule.joint, [[0.5, 0.0], [0.0, 0.5]])
        assert np.array_equal(rule.row_mass, [0.5, 0.5])
        with pytest.raises(ValueError):
            rule.joint[0, 0] = 1.0
        with pytest.raises(ValueError):
            rule.row_mass[0] = 1.0
        empty_row = full_coupling([[1.0], [0.0]])
        with pytest.raises(ValueError):
            action_row(empty_row, 1, Dist([1.0]))[0] = 0.0


def _dense(c: SparseCoupling) -> np.ndarray:
    """The coupling's full ``n_rows x n_cols`` table, placed from its entries."""
    joint = np.zeros((c.n_rows, c.n_cols))
    for mass, r, col in c.entries:
        joint[r, col] = mass
    return joint


def _reference_rows(joint: np.ndarray, fallback: Dist) -> list:
    """One Dist per row of a dense table, built cell by cell in row-major
    order (the array rows' reference); a row with no mass acts by ``fallback``."""
    n_rows, n_cols = joint.shape
    weights = [np.zeros(n_cols) for _ in range(n_rows)]
    totals = np.zeros(n_rows)
    for r, col in zip(*np.nonzero(joint)):
        weights[r][col] += joint[r, col]
        totals[r] += joint[r, col]
    return [Dist(weights[r] / totals[r]) if totals[r] > 0.0 else fallback for r in range(n_rows)]


def _reference_posterior(b: Dist, rows: list, executed: int, noise_p: float) -> np.ndarray:
    """Bayes update with the likelihood gathered row by row into a list; a
    belief whose update totals exactly 0 resets to uniform."""
    likelihood = np.array(
        [(1.0 - noise_p) * row[executed] + noise_p / len(row) for row in rows]
    )
    weights = b.probs * likelihood
    total = float(weights.sum())
    if total == 0.0:
        return np.full(len(rows), 1.0 / len(rows))
    return weights / total


def _random_coupling(rng: np.random.Generator, n_rows: int, n_cols: int) -> SparseCoupling:
    """A random sparse joint with several entries per live row. Only the live
    rows are stored, and some of them get no entries, so a row can be empty
    by being left out or by being stored with no mass."""
    live = rng.random(n_rows) < 0.7
    live[0] = True
    cells = [(r, c) for r in range(n_rows) if live[r] for c in range(n_cols) if rng.random() < 0.6]
    cells.append((0, 0))
    cells = sorted(set(cells))
    joint = np.zeros((n_rows, n_cols))
    joint[tuple(zip(*cells))] = rng.random(len(cells))
    rows = np.flatnonzero(live)
    return SparseCoupling(joint[rows] / joint.sum(), rows, n_rows)


class TestReferenceEquivalence:
    """Rows and posteriors read off the coupling's arrays reproduce the per-row
    reference bit for bit."""

    def _assert_matches(self, c: SparseCoupling, b: Dist, policy: Dist):
        ref = _reference_rows(_dense(c), policy)
        for m in range(c.n_rows):
            assert action_row(c, m, policy).tobytes() == ref[m].probs.tobytes()
        for a in range(c.n_cols):
            if policy[a] == 0.0:
                continue  # no row can have produced this action
            for noise_p in (0.0, 0.2):
                post = posterior_update(b, c, policy, a, noise_p).probs
                assert post.tobytes() == _reference_posterior(b, ref, a, noise_p).tobytes()

    def test_random_couplings_with_empty_rows(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            c = _random_coupling(rng, int(rng.integers(1, 40)), int(rng.integers(1, 7)))
            self._assert_matches(c, c.row_marginal(), c.col_marginal())
            # A belief that still weighs the empty rows exercises the fallback.
            self._assert_matches(c, Dist.uniform(c.n_rows), c.col_marginal())

    def test_greedy_couplings_of_a_1024_row_belief(self):
        rng = np.random.default_rng(32)
        for _ in range(5):
            w = rng.random(1024) * (rng.random(1024) < 0.8)
            b = Dist(w / w.sum())
            a = Dist(rng.dirichlet(np.ones(4)))
            c = greedy_mec(b, a)
            self._assert_matches(c, b, a)
            # The rows left out of the coupling act by the policy.
            self._assert_matches(c, Dist.uniform(1024), a)


class TestSmallBlockPosterior:
    """Blocks of fewer than 8 messages are updated on Python floats; their
    posteriors keep the bytes of the array update, on both sides of 8."""

    def test_bytes_match_the_reference_across_the_crossover(self):
        rng = np.random.default_rng(33)
        seen = {"zero-mass row": 0, "left-out row": 0}
        for n_rows in range(1, 10):
            for _ in range(40):
                c = _random_coupling(rng, n_rows, int(rng.integers(1, 5)))
                seen["zero-mass row"] += n_rows < 8 and (c.row_mass == 0.0).any()
                seen["left-out row"] += n_rows < 8 and len(c.rows) < n_rows
                policy = c.col_marginal()
                ref = _reference_rows(_dense(c), policy)
                for b in (c.row_marginal(), Dist.uniform(n_rows)):
                    for a in np.flatnonzero(policy.probs).tolist():
                        for noise_p in (0.0, 0.05, 0.2):
                            post = posterior_update(b, c, policy, a, noise_p).probs
                            want = _reference_posterior(b, ref, a, noise_p)
                            assert post.tobytes() == want.tobytes()
        assert min(seen.values()) > 0

    @pytest.mark.parametrize("n_rows", [3, 9])
    def test_a_total_of_zero_warns_and_resets(self, n_rows, caplog):
        # Both live messages intend action 0; the message the coupling
        # leaves out has no belief mass. Action 1 has likelihood 0 under all.
        rows = np.array([0, n_rows - 1], dtype=np.intp)
        c = SparseCoupling(np.array([[0.5, 0.0], [0.5, 0.0]]), rows, n_rows)
        b = Dist(np.r_[0.5, np.zeros(n_rows - 2), 0.5])
        with caplog.at_level(logging.WARNING, logger="trajcomm.coding"):
            post = posterior_update(b, c, Dist([1.0, 0.0]), 1)
        assert "wiped out" in caplog.text
        assert post.probs.tobytes() == Dist.uniform(n_rows).probs.tobytes()


class TestCheckMixture:
    def test_coupled_rule_passes(self):
        b, policy = Dist([0.25, 0.25, 0.5]), Dist([0.5, 0.3, 0.2])
        check_mixture(greedy_mec(b, policy), b, policy)

    def test_stored_rows_are_checked_against_the_belief(self):
        c = SparseCoupling(np.array([[0.5], [0.5]]), np.array([0, 2], dtype=np.intp), 3)
        check_mixture(c, Dist([0.5, 0.0, 0.5]), Dist([1.0]))
        with pytest.raises(RuntimeError, match="drifted"):
            check_mixture(c, Dist([0.5, 0.5, 0.0]), Dist([1.0]))
        with pytest.raises(RuntimeError, match="shape"):
            check_mixture(c, Dist([0.5, 0.5]), Dist([1.0]))

    def test_belief_mass_off_the_stored_rows_raises(self):
        # Each stored row is 5e-10 above the belief, within tolerance, but
        # the row the coupling leaves out carries 5e-9 of the belief.
        c = SparseCoupling(np.full((10, 1), 0.1), np.arange(10), 11)
        check_mixture(c, Dist([0.1] * 10 + [0.0]), Dist([1.0]))
        with pytest.raises(RuntimeError, match="drifted"):
            check_mixture(c, Dist([0.1 - 5e-10] * 10 + [5e-9]), Dist([1.0]))

    def test_drift_within_tolerance_passes(self):
        c = full_coupling([[0.5 + 5e-10, 0.0], [0.0, 0.5]])
        check_mixture(c, Dist([0.5, 0.5]), Dist([0.5, 0.5]))

    def test_column_drift_raises(self):
        # Row totals are exact; column 0 carries 2e-9 too much.
        c = full_coupling([[0.25 + 2e-9, 0.25 - 2e-9], [0.25, 0.25]])
        assert np.array_equal(c.row_mass, [0.5, 0.5])
        with pytest.raises(RuntimeError, match="drifted"):
            check_mixture(c, Dist([0.5, 0.5]), Dist([0.5, 0.5]))

    def test_row_mass_drift_raises(self):
        # Column sums are exact; row 0 carries 2e-9 too much.
        c = full_coupling([[0.25 + 2e-9, 0.25], [0.25 - 2e-9, 0.25]])
        assert np.array_equal(c.joint.sum(axis=0), [0.5, 0.5])
        with pytest.raises(RuntimeError, match="drifted"):
            check_mixture(c, Dist([0.5, 0.5]), Dist([0.5, 0.5]))

    @pytest.mark.parametrize(
        "joint, message",
        [
            pytest.param([[np.nan, 0.25], [0.25, 0.25]], "non-negative and finite", id="nan"),
            pytest.param([[np.inf, 0.25], [0.25, 0.25]], "non-negative and finite", id="inf"),
            pytest.param([[0.75, -0.25], [-0.25, 0.75]], "non-negative and finite", id="negative"),
            pytest.param([[0.25 + 2e-9, 0.25 - 2e-9], [0.25, 0.25]], "drifted", id="column"),
            pytest.param([[0.25 + 2e-9, 0.25], [0.25 - 2e-9, 0.25]], "drifted", id="row"),
            # Each column and each row is 8e-10 over, within tolerance; the
            # total is 1.6e-9 over.
            pytest.param([[0.5 + 8e-10, 0.0], [0.0, 0.5 + 8e-10]], "sums to", id="total"),
        ],
    )
    def test_corrupted_couplings_raise(self, joint, message):
        b, policy = Dist([0.5, 0.5]), Dist([0.5, 0.5])
        check_mixture(full_coupling([[0.25, 0.25], [0.25, 0.25]]), b, policy)
        with pytest.raises(RuntimeError, match=message):
            check_mixture(full_coupling(joint), b, policy)

    @pytest.mark.parametrize(
        "b, policy",
        [
            pytest.param(Dist([1.0]), Dist([0.5, 0.5]), id="extra-action"),
            pytest.param(Dist([0.5, 0.5]), Dist([1.0]), id="extra-message"),
        ],
    )
    def test_shape_mismatch_raises(self, b, policy):
        c = full_coupling([[1.0]])
        with pytest.raises(RuntimeError, match="shape"):
            check_mixture(c, b, policy)

    def test_the_coder_checks_each_coupling_against_its_own_marginals(self, monkeypatch):
        mcg = build_toy_mcg(priority=0.0)
        q = exact_soft_vi(mcg.mdp, alpha=1.0)
        z = sender_episode(q, mcg, 0, np.random.default_rng(0)).trajectory.receiver_view()
        original = coding.greedy_mec

        # A valid coupling of the belief with a point mass, not with the policy.
        def skewed(p, policy):
            return original(p, Dist.point_mass(0, len(policy)))

        monkeypatch.setattr(coding, "greedy_mec", skewed)
        with pytest.raises(RuntimeError, match="drifted from the policy"):
            sender_episode(q, mcg, 0, np.random.default_rng(0))
        with pytest.raises(RuntimeError, match="drifted from the policy"):
            receiver_decode(q, mcg, z)


class TestPosteriorUpdate:
    def test_bayes_arithmetic(self):
        c = full_coupling([[0.45, 0.05], [0.15, 0.35]])
        post = posterior_update(Dist([0.5, 0.5]), c, Dist([0.6, 0.4]), 0)
        assert np.allclose(post.probs, [0.75, 0.25])

    def test_deterministic_rule_identifies(self):
        policy = Dist([0.5, 0.5])
        c = greedy_mec(Dist([0.5, 0.5]), policy)
        post = posterior_update(Dist([0.5, 0.5]), c, policy, 0)
        assert np.allclose(post.probs, [1.0, 0.0])

    def test_identical_rows_keep_prior(self):
        c = full_coupling([[0.15, 0.35], [0.15, 0.35]])
        prior = Dist([0.25, 0.75])
        post = posterior_update(prior, c, Dist([0.3, 0.7]), 1)
        assert np.allclose(post.probs, prior.probs)

    def test_noise_keeps_flipped_message_alive(self):
        # Message 0 always intends action 0; under 20% noise it still
        # executes action 1 with probability 0.1.
        policy = Dist([0.5, 0.5])
        c = greedy_mec(Dist([0.5, 0.5]), policy)
        post = posterior_update(Dist([0.5, 0.5]), c, policy, 1, noise_p=0.2)
        assert np.allclose(post.probs, [0.1, 0.9])

    def test_wipeout_resets_to_uniform_and_warns(self, caplog):
        c = full_coupling([[0.5, 0.0], [0.5, 0.0]])
        with caplog.at_level(logging.WARNING, logger="trajcomm.coding"):
            post = posterior_update(Dist([0.5, 0.5]), c, Dist([1.0, 0.0]), 1)
        assert np.allclose(post.probs, [0.5, 0.5])
        assert any("wiped out" in r.message for r in caplog.records)


class TestSenderEpisode:
    def test_single_message_space_matches_policy_marginal(self):
        mcg = build_toy_mcg(priority=0.0)
        single = McgSpec(
            mdp=mcg.mdp,
            message_space=MessageSpace.explicit(1),
            prior=Belief((Dist([1.0]),)),
            priority=0.0,
        )
        q = exact_soft_vi(single.mdp, alpha=1.0)
        rng = np.random.default_rng(0)
        counts = np.zeros(3)
        n = 30_000
        for _ in range(n):
            rec = sender_episode(q, single, 0, rng)
            counts[rec.trajectory.steps[0].intended_action] += 1
            assert all(b.entropy_bits() == 0.0 for b in rec.sender_belief_trace)
        assert np.max(np.abs(counts / n - TOY_SOFTMAX)) < 0.01

    def test_intended_marginal_over_messages(self):
        # Expectation over messages of the intended action equals the policy.
        mcg = build_toy_mcg(priority=2.0)
        q = exact_soft_vi(mcg.mdp, alpha=1.0)
        rng = np.random.default_rng(1)
        counts = np.zeros(3)
        n = 100_000
        for _ in range(n):
            m = sample_message(mcg, rng)
            rec = sender_episode(q, mcg, m, rng)
            counts[rec.trajectory.steps[0].intended_action] += 1
        assert np.max(np.abs(counts / n - TOY_SOFTMAX)) < 0.01

    def test_trace_has_prior_plus_one_entry_per_step(self):
        mcg = build_codegrid(8)
        q = exact_soft_vi(mcg.mdp, alpha=0.2)
        rng = np.random.default_rng(2)
        rec = sender_episode(q, mcg, 3, rng)
        assert len(rec.sender_belief_trace) == len(rec.trajectory.steps) + 1

    def test_image_over_long_chain_reaches_point_mass(self):
        chain = build_channel_chain(200, 2)
        mcg = chain_mcg(chain, MessageSpace.product([2] * 64))
        q = exact_soft_vi(chain, alpha=1.0)
        rng = np.random.default_rng(3)
        m = tuple(int(v) for v in rng.integers(0, 2, size=64))
        rec = sender_episode(q, mcg, m, rng)
        assert rec.sender_belief_trace[-1].entropy_bits() == 0.0
        assert map_estimate(rec.sender_belief_trace[-1], mcg.message_space) == m

    def test_rejects_message_outside_space(self):
        mcg = build_toy_mcg(priority=1.0)
        q = exact_soft_vi(mcg.mdp, alpha=1.0)
        with pytest.raises(ValueError):
            sender_episode(q, mcg, 5, np.random.default_rng(0))

    def test_explicit_space_size_cap(self):
        chain = build_channel_chain(3, 2)
        mcg = chain_mcg(chain, MessageSpace.explicit(5000))
        q = exact_soft_vi(chain, alpha=1.0)
        with pytest.raises(ValueError, match="factored"):
            sender_episode(q, mcg, 0, np.random.default_rng(0))


class TestReceiverDecode:
    def test_roundtrip_traces_bit_identical(self):
        mcg = build_codegrid(32)
        q = exact_soft_vi(mcg.mdp, alpha=0.15)
        rng = np.random.default_rng(4)
        for _ in range(20):
            m = sample_message(mcg, rng)
            rec = run_roundtrip(q, mcg, m, rng)
            assert len(rec.sender_belief_trace) == len(rec.receiver_belief_trace)
            for bs, br in zip(rec.sender_belief_trace, rec.receiver_belief_trace):
                for ds, dr in zip(bs.blocks, br.blocks):
                    assert ds.probs.tobytes() == dr.probs.tobytes()

    def test_single_message_decodes_trivially(self):
        mcg = build_toy_mcg(priority=0.0)
        single = McgSpec(
            mdp=mcg.mdp,
            message_space=MessageSpace.explicit(1),
            prior=Belief((Dist([1.0]),)),
            priority=0.0,
        )
        q = exact_soft_vi(single.mdp, alpha=1.0)
        rec = run_roundtrip(q, single, 0, np.random.default_rng(5))
        assert rec.decoded == 0

    def test_image_roundtrip_lossless(self):
        chain = build_channel_chain(200, 2)
        mcg = chain_mcg(chain, MessageSpace.product([2] * 64))
        q = exact_soft_vi(chain, alpha=1.0)
        rng = np.random.default_rng(6)
        m = tuple(int(v) for v in rng.integers(0, 2, size=64))
        rec = run_roundtrip(q, mcg, m, rng)
        assert rec.decoded == m

    def test_rejects_mismatched_trajectory(self):
        mcg = build_toy_mcg(priority=0.0)
        q = exact_soft_vi(mcg.mdp, alpha=1.0)
        bad = ObservedTrajectory(steps=((1, 0),), final_state=1)
        with pytest.raises(ValueError, match="does not start at"):
            receiver_decode(q, mcg, bad)
        bad_action = ObservedTrajectory(steps=((0, 9),), final_state=1)
        with pytest.raises(ValueError, match=r"^executed action 9 out of range$"):
            receiver_decode(q, mcg, bad_action)
        not_terminal = ObservedTrajectory(steps=(), final_state=0)
        with pytest.raises(ValueError, match="does not end in a terminal state"):
            receiver_decode(q, mcg, not_terminal)


def _forked_game() -> McgSpec:
    """Four states, two actions. From state 0, action 0 forks to state 1 or
    2 at 1/2 each, and action 1 goes to state 1, with a stored entry of
    probability 0 to state 2. States 1 and 2 step to terminal state 3."""
    mdp = MdpSpec(
        n_states=4,
        n_actions=2,
        row_offsets=[0, 2, 4, 5, 6, 7, 8, 8, 8],
        next_state=[1, 2, 1, 2, 3, 3, 3, 3],
        prob=[0.5, 0.5, 1.0, 0.0, 1.0, 1.0, 1.0, 1.0],
        rewards=np.zeros((4, 2)),
        initial_state=0,
        terminal_states=frozenset({3}),
        horizon_bound=2,
    )
    return chain_mcg(mdp, MessageSpace.explicit(2))


class TestValidateView:
    """The receiver names the first fault of a view it cannot have seen."""

    @pytest.fixture(scope="class")
    def game(self):
        mcg = _forked_game()
        return exact_soft_vi(mcg.mdp, alpha=1.0), mcg

    def _raises(self, game, steps, final_state, message):
        q, mcg = game
        with pytest.raises(ValueError, match=f"^{message}$"):
            receiver_decode(q, mcg, ObservedTrajectory(steps=steps, final_state=final_state))

    def test_every_branch_decodes(self, game):
        q, mcg = game
        for steps in (((0, 0), (1, 1)), ((0, 0), (2, 0)), ((0, 1), (1, 0))):
            receiver_decode(q, mcg, ObservedTrajectory(steps=steps, final_state=3))

    @pytest.mark.parametrize(
        "steps, final_state",
        [((), 3), ((), 1), (((1, 0),), 3), (((3, 0),), 3)],
    )
    def test_wrong_start_state(self, game, steps, final_state):
        self._raises(game, steps, final_state, "trajectory does not start at the MDP's initial state")

    def test_step_from_a_terminal_state(self, game):
        self._raises(
            game, ((0, 0), (1, 0), (3, 1)), 3, r"trajectory steps from terminal state 3"
        )

    @pytest.mark.parametrize("action", [2, -1, 2**70])
    def test_action_out_of_range(self, game, action):
        self._raises(game, ((0, 0), (1, action)), 3, rf"executed action {action} out of range")

    @pytest.mark.parametrize(
        "steps, final_state, transition",
        [
            pytest.param(((0, 1), (2, 0)), 3, r"0 -\[1\]-> 2", id="stored-with-probability-0"),
            pytest.param(((0, 0), (1, 0)), 2, r"1 -\[0\]-> 2", id="not-stored"),
            pytest.param(((0, 0), (1, 1)), 0, r"1 -\[1\]-> 0", id="back-to-the-start"),
            pytest.param(((0, 0), (9, 0)), 3, r"0 -\[0\]-> 9", id="to-a-state-past-the-last"),
            pytest.param(((0, 0), (-1, 0)), 3, r"0 -\[0\]-> -1", id="to-a-negative-state"),
            pytest.param(((0, 0),), 2**70, rf"0 -\[0\]-> {2**70}", id="to-a-huge-state"),
        ],
    )
    def test_impossible_transition(self, game, steps, final_state, transition):
        self._raises(
            game, steps, final_state, rf"transition {transition} impossible under the MDP"
        )

    @pytest.mark.parametrize("steps, final_state", [(((0, 0),), 1), (((0, 1),), 1), ((), 0)])
    def test_final_state_not_terminal(self, game, steps, final_state):
        self._raises(game, steps, final_state, "trajectory does not end in a terminal state")

    @pytest.mark.parametrize(
        "steps, final_state, message",
        [
            pytest.param(
                ((0, 1), (2, 5), (3, 0)), 1, r"transition 0 -\[1\]-> 2 impossible under the MDP",
                id="impossible-then-action-then-terminal",
            ),
            pytest.param(
                ((0, 0), (2, 5), (7, 0)), 1, r"executed action 5 out of range",
                id="action-before-its-impossible-transition",
            ),
            pytest.param(
                ((0, 0), (1, 0), (3, 9), (3, 0)), 1, r"trajectory steps from terminal state 3",
                id="terminal-before-its-action",
            ),
            pytest.param(
                ((1, 9), (3, 0)), 1, r"trajectory does not start at the MDP's initial state",
                id="start-before-every-step",
            ),
        ],
    )
    def test_the_first_fault_is_reported(self, game, steps, final_state, message):
        self._raises(game, steps, final_state, message)


def _reference_active_block(belief: Belief) -> int:
    """The block pick as a scan of every block: first strictly larger entropy wins."""
    best, best_h = 0, -1.0
    for j, block in enumerate(belief.blocks):
        h = entropy(block)
        if h > best_h:
            best, best_h = j, h
    return best


class TestRunningBlockPick:
    """The running entropy array picks the block a full scan would pick."""

    def _assert_trace_picks(self, q, mcg, z: ObservedTrajectory, trace) -> int:
        """Each step replaces exactly the block the scan picks by its posterior;
        returns the tied steps.

        Blocks are compared by bytes: a memoized posterior may be the very
        object it replaces, as when a point mass stays a point mass.
        """
        assert len(trace) == len(z.steps) + 1
        ties = 0
        for (s, executed), before, after in zip(z.steps, trace, trace[1:]):
            policy = softmax_policy(q, s)
            block, rows = _reference_plan(before, policy)
            want = _reference_apply(before, block, rows, executed, mcg.noise_p)
            _assert_same_bytes((after,), (want,))
            hs = [entropy(block) for block in before.blocks]
            ties += hs.count(max(hs)) > 1
        return ties

    def _roundtrips(self, mcg, n, seed):
        q = exact_soft_vi(mcg.mdp, alpha=1.0)
        rng = np.random.default_rng(seed)
        ties = 0
        for _ in range(n):
            rec = run_roundtrip(q, mcg, sample_message(mcg, rng), rng)
            z = rec.trajectory.receiver_view()
            ties += self._assert_trace_picks(q, mcg, z, rec.sender_belief_trace)
            ties += self._assert_trace_picks(q, mcg, z, rec.receiver_belief_trace)
        assert ties > 0

    def test_noisy_image_over_long_chain(self):
        mcg = chain_mcg(build_channel_chain(200, 2), MessageSpace.product([2] * 64), noise_p=0.05)
        self._roundtrips(mcg, 3, seed=11)

    def test_mirrored_blocks_tie_exactly(self):
        # Permuted blocks have bit-equal entropies; the two ternary blocks tie
        # for the first pick.
        blocks = [Dist([0.3, 0.7]), Dist([0.7, 0.3]), Dist([0.5, 0.5]), Dist([0.3, 0.7])]
        blocks += [Dist([0.2, 0.3, 0.5]), Dist([0.5, 0.2, 0.3])]
        assert entropy(blocks[0]) == entropy(blocks[1])
        assert entropy(blocks[4]) == entropy(blocks[5])
        mcg = McgSpec(
            mdp=build_channel_chain(40, 3),
            message_space=MessageSpace.product([2, 2, 2, 2, 3, 3]),
            prior=Belief(tuple(blocks)),
            priority=1.0,
            noise_p=0.1,
        )
        self._roundtrips(mcg, 10, seed=12)


def _reference_plan(belief: Belief, policy: Dist) -> tuple[int, list]:
    """One decision with no memo and none of the coder's coupling code: pick
    the block by a scan, couple it with the heap greedy, and read one Dist
    per message off the dense table."""
    block = _reference_active_block(belief)
    return block, _reference_rows(reference_greedy(belief.blocks[block], policy), policy)


def _reference_apply(
    belief: Belief, block: int, rows: list, executed: int, noise_p: float
) -> Belief:
    blocks = list(belief.blocks)
    blocks[block] = Dist(_reference_posterior(blocks[block], rows, executed, noise_p))
    return Belief(tuple(blocks))


def _reference_sender(q, mcg, m, rng) -> tuple[Trajectory, list]:
    """The sender with one coupling, one check and one update per decision."""
    belief = mcg.prior
    trace = [belief]
    steps = []
    s = mcg.mdp.initial_state
    while not mcg.mdp.is_terminal(s):
        policy = softmax_policy(q, s)
        block, rows = _reference_plan(belief, policy)
        value = m[block] if mcg.message_space.factored else m
        intended = sample_index(rows[value].probs, rng)
        executed = apply_actuator_noise(intended, mcg.noise_p, mcg.mdp.n_actions, rng)
        belief = _reference_apply(belief, block, rows, executed, mcg.noise_p)
        trace.append(belief)
        nxt, reward = step(mcg.mdp, s, executed, rng)
        steps.append(Step(s, intended, executed, reward))
        s = nxt
    return Trajectory(steps=tuple(steps), final_state=s), trace


def _reference_decode(q, mcg, z: ObservedTrajectory) -> tuple[object, list]:
    """The receiver with one coupling, one check and one update per decision."""
    belief = mcg.prior
    trace = [belief]
    for s, executed in z.steps:
        policy = softmax_policy(q, s)
        block, rows = _reference_plan(belief, policy)
        belief = _reference_apply(belief, block, rows, executed, mcg.noise_p)
        trace.append(belief)
    return map_estimate(belief, mcg.message_space), trace


def _assert_same_bytes(trace, ref):
    assert len(trace) == len(ref)
    for got, want in zip(trace, ref):
        assert len(got.blocks) == len(want.blocks)
        for u, v in zip(got.blocks, want.blocks):
            assert u.probs.tobytes() == v.probs.tobytes()


def _noisy_image_game():
    return chain_mcg(build_channel_chain(200, 2), MessageSpace.product([2] * 64), noise_p=0.05)


class TestMemoMatchesReference:
    """The memoized coder reproduces the per-decision loop byte for byte."""

    @pytest.mark.parametrize(
        "game, alpha, episodes",
        [
            pytest.param(_noisy_image_game, 1.0, 3, id="noisy-image-chain"),
            pytest.param(
                lambda: chain_mcg(build_channel_chain(200, 4), MessageSpace.explicit(64)),
                1.0,
                3,
                id="chain-64-messages",
            ),
            pytest.param(lambda: build_codegrid(32), 0.15, 10, id="codegrid-32"),
            pytest.param(lambda: build_codegrid(1024), 1 / 7, 3, id="codegrid-1024"),
        ],
    )
    def test_traces_trajectories_and_decodes(self, game, alpha, episodes):
        mcg = game()
        q = exact_soft_vi(mcg.mdp, alpha)
        draws = np.random.default_rng(41)
        for i in range(episodes):
            m = sample_message(mcg, draws)
            rec = sender_episode(q, mcg, m, np.random.default_rng(i))
            ref_trajectory, ref_trace = _reference_sender(q, mcg, m, np.random.default_rng(i))
            assert rec.trajectory.steps == ref_trajectory.steps
            assert rec.trajectory.final_state == ref_trajectory.final_state
            _assert_same_bytes(rec.sender_belief_trace, ref_trace)
            z = rec.trajectory.receiver_view()
            decoded, trace = receiver_decode(q, mcg, z)
            ref_decoded, ref_trace = _reference_decode(q, mcg, z)
            assert decoded == ref_decoded
            _assert_same_bytes(trace, ref_trace)

    def test_explicit_chain_collapses_to_a_point_mass(self):
        mcg = chain_mcg(build_channel_chain(200, 4), MessageSpace.explicit(64))
        q = exact_soft_vi(mcg.mdp, 1.0)
        rec = run_roundtrip(q, mcg, 17, np.random.default_rng(0))
        assert rec.receiver_belief_trace[-1].entropy_bits() == 0.0
        assert rec.decoded == 17


class TestMemoScope:
    """Each coder call keeps its own memo: one coupling per distinct decision."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"greedy_mec": 0, "check_mixture": 0, "action_row": 0}
        for name in counts:
            original = getattr(coding, name)

            def counted(*args, _name=name, _original=original):
                counts[_name] += 1
                return _original(*args)

            monkeypatch.setattr(coding, name, counted)
        return counts

    def test_one_coupling_per_distinct_decision(self, counts):
        mcg = _noisy_image_game()
        q = exact_soft_vi(mcg.mdp, 1.0)
        rng = np.random.default_rng(13)
        rec = sender_episode(q, mcg, sample_message(mcg, rng), rng)
        sent = counts["greedy_mec"]
        z = rec.trajectory.receiver_view()
        distinct = {
            (
                before.blocks[_reference_active_block(before)].probs.tobytes(),
                softmax_policy(q, s).probs.tobytes(),
            )
            for (s, _), before in zip(z.steps, rec.sender_belief_trace)
        }
        assert sent == len(distinct) < len(z.steps)
        receiver_decode(q, mcg, z)
        # The receiver shares nothing with the sender: it builds them all again.
        assert counts["greedy_mec"] == 2 * sent
        assert counts["check_mixture"] == counts["greedy_mec"]

    def test_one_action_row_per_distinct_decision_and_message(self, counts):
        mcg = _noisy_image_game()
        q = exact_soft_vi(mcg.mdp, 1.0)
        rng = np.random.default_rng(13)
        m = sample_message(mcg, rng)
        rec = sender_episode(q, mcg, m, rng)
        played = set()
        for step, before in zip(rec.trajectory.steps, rec.sender_belief_trace):
            block = _reference_active_block(before)
            policy = softmax_policy(q, step.state)
            played.add((before.blocks[block].probs.tobytes(), policy.probs.tobytes(), m[block]))
        assert counts["action_row"] == len(played) < len(rec.trajectory.steps)

    def test_nothing_survives_between_decodes(self, counts):
        mcg = _noisy_image_game()
        q = exact_soft_vi(mcg.mdp, 1.0)
        rng = np.random.default_rng(14)
        z = sender_episode(q, mcg, sample_message(mcg, rng), rng).trajectory.receiver_view()
        counts["greedy_mec"] = 0
        receiver_decode(q, mcg, z)
        first = counts["greedy_mec"]
        receiver_decode(q, mcg, z)
        assert first > 0
        assert counts["greedy_mec"] == 2 * first


class TestWipeoutWarnings:
    def test_one_warning_per_wipeout(self, caplog):
        # Both states' rows underflow to [1.0, 0.0]; every executed action 1
        # wipes the belief out, the same decision each time.
        values = np.array([[0.0, -1000.0]] * 3 + [[0.0, 0.0]])
        q = QTable(values, alpha=1.0)
        assert softmax_policy(q, 0).probs.tolist() == [1.0, 0.0]
        mcg = chain_mcg(build_channel_chain(3, 2), MessageSpace.explicit(2))
        z = ObservedTrajectory(steps=((0, 1), (1, 1), (2, 1)), final_state=3)
        with caplog.at_level(logging.WARNING, logger="trajcomm.coding"):
            decoded, trace = receiver_decode(q, mcg, z)
        assert sum("wiped out" in r.message for r in caplog.records) == 3
        assert all(b.blocks[0].probs.tolist() == [0.5, 0.5] for b in trace)
        assert decoded == 0

    def test_tiny_legitimate_actions_do_not_wipe_the_belief_out(self, caplog):
        # At beta = 32, 58 policy entries lie below 1e-12. The exact walk
        # follows those actions, and an update whose total is such a tiny
        # mass is still a proper posterior, not a desync.
        mcg = build_codegrid(8)
        q = exact_soft_vi(mcg.mdp, alpha=1 / 32)
        live = [s for s in range(mcg.mdp.n_states) if not mcg.mdp.is_terminal(s)]
        probs = np.concatenate([softmax_policy(q, s).probs for s in live])
        assert probs[probs > 0.0].min() < 1e-12
        with caplog.at_level(logging.WARNING, logger="trajcomm.coding"):
            coded_return, accuracy = exact_coded_value(q, mcg)
        assert not any("wiped out" in r.message for r in caplog.records)
        assert coded_return == pytest.approx(1.0, abs=1e-9)
        assert accuracy == pytest.approx(1.0, abs=1e-9)


class TestNoisyChannel:
    def test_noise_aware_decoding_on_chain(self):
        # A noise-blind update zeroes the true message on the first flipped
        # action and decoded ~0.6 of these round trips.
        chain = build_channel_chain(12, 4)
        mcg = chain_mcg(chain, MessageSpace.explicit(64), noise_p=0.2)
        q = exact_soft_vi(chain, alpha=1.0)
        rng = np.random.default_rng(10)
        correct = 0
        for _ in range(300):
            m = sample_message(mcg, rng)
            rec = run_roundtrip(q, mcg, m, rng)
            correct += rec.decoded == m
            for bs, br in zip(rec.sender_belief_trace, rec.receiver_belief_trace, strict=True):
                assert bs.blocks[0].probs.tobytes() == br.blocks[0].probs.tobytes()
        assert correct / 300 >= 0.9


class TestReceiverIsBatchBayes:
    @pytest.mark.parametrize("noise_p", [0.0, 0.05, 0.2])
    def test_belief_is_the_batch_posterior_at_every_step(self, noise_p):
        # After t+1 steps the receiver's belief is prior x prod_{u<=t} lik_u,
        # normalized once, with lik_u(m) = (1-ε) P(a_u|m) + ε/|A| read off the
        # reference coupling of the belief the receiver held at step u.
        chain = build_channel_chain(6, 2)
        mcg = chain_mcg(chain, MessageSpace.explicit(16), noise_p=noise_p)
        q = exact_soft_vi(chain, alpha=1.0)
        prior = mcg.prior.blocks[0].probs
        rng = np.random.default_rng(5)
        flips = 0
        for _ in range(50):
            rec = run_roundtrip(q, mcg, sample_message(mcg, rng), rng)
            trace = rec.receiver_belief_trace
            likelihood = np.ones(16)
            for t, st in enumerate(rec.trajectory.steps):
                _, rows = _reference_plan(trace[t], softmax_policy(q, st.state))
                a = st.executed_action
                likelihood *= [(1.0 - noise_p) * row[a] + noise_p / 2 for row in rows]
                batch = prior * likelihood
                err = np.abs(trace[t + 1].blocks[0].probs - batch / batch.sum()).max()
                assert err < 1e-12
                flips += st.intended_action != a
        assert (flips > 0) == (noise_p > 0)


class TestGuarantees:
    def test_return_preserved_exactly_on_toy(self):
        mcg = build_toy_mcg(priority=2.0)
        q = exact_soft_vi(mcg.mdp, alpha=1.0)
        coded_return, _ = exact_coded_value(q, mcg)
        plain = exact_policy_return(mcg.mdp, lambda s: softmax_policy(q, s))
        assert coded_return == pytest.approx(plain, abs=1e-9)

    def test_return_preserved_exactly_on_chain(self):
        chain = build_channel_chain(3, 3, rewards={0: 0.1, 2: 1.0})
        mcg = chain_mcg(chain, MessageSpace.explicit(4))
        q = exact_soft_vi(chain, alpha=0.5)
        coded_return, _ = exact_coded_value(q, mcg)
        plain = exact_policy_return(chain, lambda s: softmax_policy(q, s))
        assert coded_return == pytest.approx(plain, abs=1e-9)

    def test_return_preserved_exactly_with_factored_messages(self):
        chain = build_channel_chain(4, 2, rewards={1: 0.3})
        mcg = chain_mcg(chain, MessageSpace.product([2, 3, 2]))
        q = exact_soft_vi(chain, alpha=0.7)
        coded_return, accuracy = exact_coded_value(q, mcg)
        plain = exact_policy_return(chain, lambda s: softmax_policy(q, s))
        assert coded_return == pytest.approx(plain, abs=1e-9)
        assert 1.0 / 12 < accuracy <= 1.0

    def test_one_step_information_within_one_bit_of_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            b = Dist(rng.dirichlet(np.ones(int(rng.integers(2, 6)))))
            a = Dist(rng.dirichlet(np.ones(int(rng.integers(2, 6)))))
            mi_greedy = coupling_entropies(greedy_mec(b, a)).mutual_info_bits
            mi_oracle = coupling_entropies(checked_oracle(b, a)).mutual_info_bits
            assert mi_greedy >= mi_oracle - math.log2(math.e) / math.e

    def test_information_budget(self):
        # Entropy removed from the belief never exceeds the visited action
        # entropies plus the one-bit-per-step coupling slack.
        mcg = build_codegrid(64)
        q = exact_soft_vi(mcg.mdp, alpha=0.3)
        rng = np.random.default_rng(8)
        for _ in range(20):
            m = sample_message(mcg, rng)
            rec = sender_episode(q, mcg, m, rng)
            budget = sum(
                entropy(softmax_policy(q, s.state)) + 1.0 for s in rec.trajectory.steps
            )
            h0 = rec.sender_belief_trace[0].entropy_bits()
            hT = rec.sender_belief_trace[-1].entropy_bits()
            assert hT >= h0 - budget - 1e-9

    def test_codegrid_8_value_pin(self):
        mcg = build_codegrid(8)
        q = exact_soft_vi(mcg.mdp, alpha=0.5)
        assert exact_coded_value(q, mcg) == (0.07967486029358133, 0.9999778581481396)


def _noise_mixed(q: QTable, noise_p: float, n_actions: int):
    """The executed-action policy of a sender under actuator noise."""
    return lambda s: Dist((1.0 - noise_p) * softmax_policy(q, s).probs + noise_p / n_actions)


class TestExactValueUnderNoise:
    @pytest.mark.parametrize(
        "noise_p, accuracy", [(0.0, 1.0), (0.05, 0.9036878906250004), (0.2, 0.6960999999999998)]
    )
    def test_chain_accuracy_pins(self, noise_p, accuracy):
        chain = build_channel_chain(6, 2)
        mcg = chain_mcg(chain, MessageSpace.explicit(16), noise_p=noise_p)
        _, got = exact_coded_value(exact_soft_vi(chain, alpha=1.0), mcg)
        assert got == pytest.approx(accuracy, abs=1e-12)

    @pytest.mark.parametrize("noise_p", [0.1, 0.3])
    def test_toy_return_is_the_noise_mixed_policy_return(self, noise_p):
        mcg = dataclasses.replace(build_toy_mcg(priority=2.0), noise_p=noise_p)
        q = exact_soft_vi(mcg.mdp, alpha=1.0)
        coded_return, _ = exact_coded_value(q, mcg)
        mixed = exact_policy_return(mcg.mdp, _noise_mixed(q, noise_p, mcg.mdp.n_actions))
        assert coded_return == pytest.approx(mixed, abs=1e-12)

    @pytest.mark.parametrize("noise_p", [0.0, 0.1, 0.3])
    def test_codegrid_return_is_the_noise_mixed_policy_return(self, noise_p):
        mcg = build_codegrid(8, noise_p=noise_p, width=3, height=3, goal=(3, 3), max_steps=5)
        q = exact_soft_vi(mcg.mdp, alpha=0.3)
        coded_return, _ = exact_coded_value(q, mcg)
        mixed = exact_policy_return(mcg.mdp, _noise_mixed(q, noise_p, mcg.mdp.n_actions))
        assert coded_return == pytest.approx(mixed, abs=1e-12)


class TestMemeSweepRows:
    """The MEME twin of ``test_baseline.TestRlPrSweepRows``: every field of two
    small coupling-coded sweeps, recorded from an earlier version of the sweep
    loop, so a change that moves one draw of a cell shows up here."""

    def test_codegrid_rows_match_recorded_values(self):
        cfg = SweepConfig(
            env="codegrid", env_params={"n_messages": 64}, method="meme",
            grid=(1.0, 7.0), seeds=(2,), noise_p=(0.0, 0.1), rollouts=8,
        )
        se = 0.16366341767699427
        assert [dataclasses.astuple(r) for r in run_sweep(cfg)] == [
            ("meme", 1.0, 0.0, 2, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 8, ""),
            ("meme", 1.0, 0.1, 2, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 8, ""),
            ("meme", 7.0, 0.0, 2, 1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 8, ""),
            ("meme", 7.0, 0.1, 2, 0.875, 0.125, 0.75, se, 0.125, 0.125, 8, ""),
        ]

    def test_image_rows_match_recorded_values(self):
        # Eight 2-pixel blocks through a 6-step chain: too few steps to carry
        # the image, so every rollout misses and the blocks' Hamming distance
        # is what tells the noise levels apart.
        cfg = SweepConfig(
            env="chain", env_params={"steps": 6, "image_pixels": 16, "block_pixels": 2},
            method="meme", grid=(1.0,), seeds=(5,), noise_p=(0.0, 0.1), rollouts=8,
        )
        assert [dataclasses.astuple(r) for r in run_sweep(cfg)] == [
            ("meme", 1.0, 0.0, 5, 0.0, 0.0, 0.0, 0.0, 4.875, 0.479490056503484, 8, ""),
            ("meme", 1.0, 0.1, 5, 0.0, 0.0, 0.0, 0.0, 3.875, 0.3980981573144277, 8, ""),
        ]

    @pytest.mark.parametrize("method", ["meme", "rl_pr"])
    def test_explicit_rows_count_a_miss_as_distance_one(self, method):
        # One block per message: the Hamming distance of a rollout is 1 on a
        # miss and 0 on a hit, whichever method played it.
        cfg = SweepConfig(
            env="codegrid", env_params={"n_messages": 16}, method=method,
            grid=(0.3, 7.0), seeds=(4,), noise_p=(0.2, 0.4), episodes=300, rollouts=16,
        )
        rows = run_sweep(cfg)
        assert all(not r.error for r in rows)
        assert any(r.decode_accuracy < 1.0 for r in rows)
        for r in rows:
            assert r.mean_hamming == 1.0 - r.decode_accuracy
            assert r.hamming_se == r.accuracy_se
