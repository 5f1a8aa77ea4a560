"""Max-entropy planning and learning tests."""

import dataclasses
import math

import numpy as np
import pytest

from trajcomm.dist import Dist, entropy, entropy_nats, sample_index
from trajcomm.envs import (
    build_channel_chain,
    build_codegrid,
    build_coding_mcg,
    build_toy_mcg,
)
from trajcomm.maxent import (
    QTable,
    softmax_parts,
    exact_policy_objective,
    exact_soft_vi,
    expected_cumulative_entropy_bits,
    softmax_policy,
    temperature,
    train_soft_q,
)
from trajcomm.mdp import MdpSpec, exact_policy_return, heights, step, trajectory_return

from mdp_oracle import enumerate_trajectories

TOY_SOFTMAX = (0.7213991842739685, 0.26538792877224193, 0.013212886953789414)
TOY_SOFT_VALUE = 4.32656264126747


def toy_qtable(alpha=1.0):
    return QTable(values=np.array([[4.0, 3.0, 0.0], [0.0, 0.0, 0.0]]), alpha=alpha)


def plus_minus_mdp():
    """One live state whose two actions end the episode with rewards +1 and -1."""
    return MdpSpec.deterministic(
        next_table=np.ones((2, 2), dtype=np.int64),
        rewards=np.array([[1.0, -1.0], [0.0, 0.0]]),
        initial_state=0,
        terminal_states=frozenset({1}),
        horizon_bound=1,
    )


def stochastic_mdp():
    """Four states, two actions; action 0 in state 0 branches to 1 or 2."""
    return MdpSpec(
        n_states=4,
        n_actions=2,
        # Rows (s, a) in order: (0,0) -> 1 or 2, (0,1) -> 2, then 1 and 2 -> 3.
        row_offsets=[0, 2, 3, 4, 5, 6, 7, 7, 7],
        next_state=[1, 2, 2, 3, 3, 3, 3],
        prob=[0.5, 0.5, 1.0, 1.0, 1.0, 1.0, 1.0],
        rewards=np.array([[0.2, 0.0], [1.0, 0.1], [0.0, 0.6], [0.0, 0.0]]),
        initial_state=0,
        terminal_states=frozenset({3}),
        horizon_bound=2,
    )


def random_qtable(alpha, n_states=300, n_actions=12, seed=3):
    values = np.random.default_rng(seed).normal(scale=5.0, size=(n_states, n_actions))
    return QTable(values=values, alpha=alpha)


POLICY_TABLES = [
    ("toy", lambda: exact_soft_vi(build_toy_mcg(priority=0.0).mdp, 1.0)),
    ("codegrid-1024-beta7", lambda: exact_soft_vi(build_codegrid(1024).mdp, 1.0 / 7.0)),
    ("chain-200x2", lambda: exact_soft_vi(build_channel_chain(200, 2), 1.0)),
    # Nine actions: each row's sums run past numpy's eight-entry pairwise block.
    ("branching-dag", lambda: exact_soft_vi(branching_dag_mdp(), 0.8)),
    ("random-300x12-a1", lambda: random_qtable(1.0)),
    ("random-300x12-a1/7", lambda: random_qtable(1.0 / 7.0)),
    ("random-300x12-a0.01", lambda: random_qtable(0.01)),
]


class TestQTable:
    @pytest.mark.parametrize("alpha", [0.0, -1.0, math.nan, math.inf])
    def test_a_table_at_a_temperature_that_is_not_positive_and_finite_is_rejected(self, alpha):
        # A table file whose header read "alpha inf" used to load, and its
        # policy was uniform at every state.
        with pytest.raises(ValueError, match="temperature must be positive and finite"):
            toy_qtable(alpha=alpha)

    @pytest.mark.parametrize("shape", [(3,), (2, 3, 1)])
    def test_a_table_of_other_than_two_axes_is_rejected(self, shape):
        with pytest.raises(ValueError, match="Q table must be states x actions"):
            QTable(values=np.zeros(shape), alpha=1.0)

    @pytest.mark.parametrize("big", [1e300, -1e300])
    def test_a_table_whose_q_over_alpha_overflows_is_rejected(self, big):
        # Every value is finite, but 1e300 / 1e-10 is not: its row's softmax
        # used to fail with "distribution entries must be finite", after
        # numpy warned, each time a coder asked for it, while the other rows
        # served. The table is refused instead, and that per-row fallback of
        # softmax_policy is gone.
        values = np.zeros((3, 2))
        values[1, 0] = big
        with pytest.raises(ValueError) as error:
            QTable(values=values, alpha=1e-10)
        assert str(error.value) == (
            "Q / alpha must be finite, but |Q| reaches 1e+300 at temperature 1e-10"
        )
        # At the edge of the float64 range the table is taken.
        assert QTable(values=np.full((1, 2), 1.0), alpha=1e-308).alpha == 1e-308

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_a_table_with_a_value_that_is_not_finite_is_rejected(self, bad):
        values = np.zeros((2, 3))
        values[1, 2] = bad
        with pytest.raises(ValueError, match="Q values must be finite"):
            QTable(values=values, alpha=1.0)

    def test_a_table_is_a_read_only_float64_copy(self):
        values = np.array([[1, 2], [3, 4]])
        q = QTable(values=values, alpha=1.0)
        values[0, 0] = 9
        assert q.values.dtype == np.float64 and q.values[0, 0] == 1.0
        assert not q.values.flags.writeable


class TestSoftmaxPolicy:
    @pytest.mark.parametrize(
        "build", [c[1] for c in POLICY_TABLES], ids=[c[0] for c in POLICY_TABLES]
    )
    def test_cached_rows_are_softmax_bytes(self, build):
        q = build()
        for s in range(q.values.shape[0]):
            pol = softmax_policy(q, s)
            assert pol.probs.tobytes() == softmax_parts(q.values[s], q.alpha)[0].tobytes()
            assert not pol.probs.flags.writeable
            assert softmax_policy(q, s) is pol

    @pytest.mark.parametrize(
        "build", [c[1] for c in POLICY_TABLES], ids=[c[0] for c in POLICY_TABLES]
    )
    def test_equal_rows_are_one_object(self, build):
        q = build()
        by_bytes = {}
        for s in range(q.values.shape[0]):
            pol = softmax_policy(q, s)
            assert by_bytes.setdefault(pol.probs.tobytes(), pol) is pol
        distinct = {softmax_parts(row, q.alpha)[0].tobytes() for row in q.values}
        assert len(by_bytes) == len(distinct)

    def test_a_row_whose_spread_passes_the_float_range_is_a_distribution(self):
        # Q / alpha is finite, but 1.7e308 - (-1.7e308) is not: that entry
        # comes to exp(-inf) = 0, with no warning, and the row is still a
        # distribution. Equal rows are still one object.
        values = np.array([[1.7e308, -1.7e308, 0.0], [0.0, 0.0, 0.0], [1.7e308, -1.7e308, 0.0]])
        q = QTable(values=values, alpha=1.0)
        assert softmax_policy(q, 0).probs.tolist() == [1.0, 0.0, 0.0]
        assert softmax_policy(q, 2) is softmax_policy(q, 0)
        with np.errstate(over="ignore"):
            assert softmax_policy(q, 0).probs.tobytes() == softmax_parts(values[0], 1.0)[0].tobytes()
        assert np.max(np.abs(softmax_policy(q, 1).probs - 1.0 / 3.0)) < 1e-15


class TestSoftmaxPartsLayout:
    @pytest.mark.parametrize("width", range(2, 13))
    def test_a_column_major_copy_gives_the_same_bytes(self, width):
        # The row max is taken in the input's layout; exp, the row sum and
        # the divide are always row-major: a column-major sum differs from
        # numpy's pairwise row sum in the last bit from eight entries on.
        rng = np.random.default_rng(width)
        for shape in [(41, width), (3, 7, width)]:
            for scale in (0.1, 3.0, 30.0):
                rows = rng.normal(size=shape) * scale
                columns = np.asfortranarray(rows)
                assert columns.flags.f_contiguous and not columns.flags.c_contiguous
                for alpha in (0.015, 0.25, 1.0):
                    # Written out on the row-major copy: numpy's pairwise row sum.
                    x = rows / alpha
                    mx = x.max(axis=-1, keepdims=True)
                    e = np.exp(x - mx)
                    sums = e.sum(axis=-1, keepdims=True)
                    for table in (rows, columns):
                        got = softmax_parts(table, alpha)
                        assert got[0].flags.c_contiguous
                        for want, part in zip((e / sums, mx, sums), got):
                            assert want.shape == part.shape
                            assert want.tobytes() == part.tobytes()

    def test_reference_row(self):
        pol = softmax_policy(toy_qtable(), 0)
        assert np.max(np.abs(pol.probs - TOY_SOFTMAX)) < 1e-12

    def test_infinite_temperature_limit(self):
        pol = softmax_policy(toy_qtable(alpha=1e9), 0)
        assert np.max(np.abs(pol.probs - 1 / 3)) < 1e-6

    def test_equal_values_exactly_uniform(self):
        q = QTable(values=np.array([[2.0, 2.0, 2.0, 2.0]]), alpha=0.37)
        assert np.all(softmax_policy(q, 0).probs == 0.25)

    def test_shift_invariance(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            row = rng.normal(size=5)
            alpha = float(rng.uniform(0.05, 10))
            a = softmax_policy(QTable(values=row[None, :], alpha=alpha), 0)
            b = softmax_policy(QTable(values=row[None, :] + 13.7, alpha=alpha), 0)
            assert np.max(np.abs(a.probs - b.probs)) < 1e-12


def log_sum_exp_value(q: QTable, s: int) -> float:
    """The soft state value alpha * log sum_a exp(Q(s,a)/alpha)."""
    x = q.values[s] / q.alpha
    m = float(x.max())
    return q.alpha * (m + math.log(float(np.exp(x - m).sum())))


class TestSoftValue:
    """The soft value, as the objective of the softmax policy and as a log-sum-exp."""

    def test_two_equal_entries(self):
        # One step, two actions, no reward: the objective is alpha * ln 2.
        chain = build_channel_chain(1, 2)
        q = exact_soft_vi(chain, alpha=1.0)
        value = exact_policy_objective(chain, lambda s: softmax_policy(q, s), 1.0)
        assert value == pytest.approx(math.log(2), abs=1e-12)

    def test_reference_value(self):
        assert log_sum_exp_value(toy_qtable(), 0) == pytest.approx(TOY_SOFT_VALUE, abs=1e-9)

    def test_cold_limit_is_max(self):
        mcg = build_toy_mcg(priority=0.0)
        q = exact_soft_vi(mcg.mdp, alpha=1e-9)
        value = exact_policy_objective(mcg.mdp, lambda s: softmax_policy(q, s), 1e-9)
        assert value == pytest.approx(4.0, abs=1e-6)

    def test_equals_expected_q_plus_entropy(self):
        # alpha * logsumexp(Q/alpha) == E_pi[Q] + alpha * H_nats(pi).
        rng = np.random.default_rng(5)
        for _ in range(20):
            row = rng.normal(size=4)
            alpha = float(rng.uniform(0.1, 5))
            q = QTable(values=row[None, :], alpha=alpha)
            pol = softmax_policy(q, 0).probs
            expected = float(pol @ row) - alpha * float(pol @ np.log(pol))
            assert log_sum_exp_value(q, 0) == pytest.approx(expected, abs=1e-9)


class TestExactSoftVi:
    def test_single_step_backup_is_rewards(self):
        mcg = build_toy_mcg(priority=0.0)
        q = exact_soft_vi(mcg.mdp, alpha=1.0)
        assert np.allclose(q.values[0], [4.0, 3.0, 0.0])

    def test_zero_reward_chain_uniform_policy(self):
        chain = build_channel_chain(2, 3)
        q = exact_soft_vi(chain, alpha=1.0)
        for s in (0, 1):
            assert np.all(softmax_policy(q, s).probs == pytest.approx(1 / 3, abs=1e-12))

    def test_toy_policy_and_objective(self):
        mcg = build_toy_mcg(priority=0.0)
        q = exact_soft_vi(mcg.mdp, alpha=1.0)
        pol = softmax_policy(q, 0)
        assert np.max(np.abs(pol.probs - TOY_SOFTMAX)) < 1e-12
        objective = exact_policy_objective(mcg.mdp, lambda s: softmax_policy(q, s), 1.0)
        assert objective == pytest.approx(TOY_SOFT_VALUE, abs=1e-9)

    def test_beats_random_policies(self):
        chain = build_channel_chain(3, 3, rewards={1: 0.5, 2: 1.0})
        alpha = 0.8
        q = exact_soft_vi(chain, alpha)
        best = exact_policy_objective(chain, lambda s: softmax_policy(q, s), alpha)
        rng = np.random.default_rng(6)
        for _ in range(100):
            table = [Dist(rng.dirichlet(np.ones(3))) for _ in range(chain.n_states)]
            value = exact_policy_objective(chain, lambda s: table[s], alpha)
            assert value <= best + 1e-9

    @pytest.mark.parametrize("alpha", [0.0, -1.0, math.nan, math.inf])
    def test_a_temperature_that_is_not_positive_is_rejected(self, alpha):
        # A NaN temperature used to pass the check and fail later, as a table
        # of NaN, with a message that did not name the temperature. An
        # infinite one planned the uniform policy.
        with pytest.raises(ValueError, match="temperature must be positive"):
            exact_soft_vi(build_channel_chain(3, 2), alpha)

    def test_stops_at_the_first_overflow(self):
        # At alpha = 1e-308 the toy's rewards 4 and 3 over alpha overflow.
        # solve used to print numpy's "overflow encountered in divide" and
        # "invalid value encountered in subtract" and write the table.
        with pytest.raises(FloatingPointError, match="overflow"):
            exact_soft_vi(build_toy_mcg(priority=0.0).mdp, 1e-308)

    def test_a_row_whose_spread_passes_the_float_range_is_solved(self):
        # Q / alpha is +-1e308, finite, but their difference is not: the low
        # entry weighs exp(-inf) = 0, as the table's policy has it.
        q = exact_soft_vi(plus_minus_mdp(), 1e-308)
        assert q.values.tolist() == [[1.0, -1.0], [0.0, 0.0]]
        assert softmax_policy(q, 0).probs.tolist() == [1.0, 0.0]

    def test_entropy_monotone_in_temperature(self):
        mcg = build_toy_mcg(priority=0.0)
        entropies = []
        for alpha in (0.1, 0.5, 1.0, 2.0, 10.0):
            q = exact_soft_vi(mcg.mdp, alpha)
            entropies.append(
                expected_cumulative_entropy_bits(mcg.mdp, lambda s: softmax_policy(q, s))
            )
        assert all(a <= b + 1e-12 for a, b in zip(entropies, entropies[1:]))


class TestTemperature:
    def test_a_subnormal_beta_whose_temperature_overflows_is_named(self):
        # 1 / 1e-320 is inf: the table was solved at an infinite temperature
        # and failed later, after numpy warned, as "Q values must be finite".
        with pytest.raises(ValueError) as error:
            temperature(1e-320)
        assert str(error.value) == "the temperature 1 / beta must be positive and finite, got inf"


class TestTrainSoftQ:
    def test_single_state_converges_to_rewards(self):
        mcg = build_toy_mcg(priority=0.0)
        q = train_soft_q(mcg.mdp, 1.0, 10_000, 0.1, np.random.default_rng(0))
        assert np.max(np.abs(q.values[0] - [4.0, 3.0, 0.0])) < 0.05

    @pytest.mark.parametrize("alpha", [0.0, -1.0, math.nan, math.inf])
    def test_a_temperature_that_is_not_positive_is_rejected(self, alpha):
        with pytest.raises(ValueError, match="temperature must be positive"):
            train_soft_q(build_channel_chain(3, 2), alpha, 5, 0.1, np.random.default_rng(0))

    @pytest.mark.parametrize(
        "episodes, learning_rate, error",
        [
            (0, 0.1, "episode count must be at least 1"),
            (5, 0.0, "learning rate must lie in"),
            (5, 1.5, "learning rate must lie in"),
            (5, math.nan, "learning rate must lie in"),
        ],
        ids=["episodes-0", "lr-0", "lr-1.5", "lr-nan"],
    )
    def test_a_budget_out_of_range_is_rejected(self, episodes, learning_rate, error):
        with pytest.raises(ValueError, match=error):
            train_soft_q(
                build_channel_chain(3, 2), 1.0, episodes, learning_rate,
                np.random.default_rng(0),
            )

    def test_stops_at_the_first_overflow(self):
        with pytest.raises(FloatingPointError, match="overflow"):
            train_soft_q(build_toy_mcg(priority=0.0).mdp, 1e-308, 1000, 0.1,
                         np.random.default_rng(0))

    def test_a_row_whose_spread_passes_the_float_range_is_learned(self):
        # On this seed both actions are tried early; every later episode
        # softmaxes the row (1, -1), whose spread over alpha overflows.
        q = train_soft_q(plus_minus_mdp(), 1e-308, 5, 1.0, np.random.default_rng(0))
        assert q.values.tolist() == [[1.0, -1.0], [0.0, 0.0]]

    def test_a_learning_rate_of_one_is_taken(self):
        q = train_soft_q(build_channel_chain(3, 2), 1.0, 5, 1.0, np.random.default_rng(0))
        assert q.values.shape == (4, 2)

    def test_zero_reward_chain_matches_entropy_to_go(self):
        chain = build_channel_chain(2, 2)
        exact = exact_soft_vi(chain, alpha=1.0)
        learned = train_soft_q(chain, 1.0, 20_000, 0.05, np.random.default_rng(1))
        mask = [s for s in range(chain.n_states) if not chain.is_terminal(s)]
        assert np.max(np.abs(learned.values[mask] - exact.values[mask])) < 0.05
        assert np.allclose(softmax_policy(learned, 0).probs, 0.5, atol=0.02)

    def test_converges_on_stochastic_mdp(self):
        mdp = stochastic_mdp()
        exact = exact_soft_vi(mdp, alpha=0.5)
        learned = train_soft_q(mdp, 0.5, 60_000, 0.02, np.random.default_rng(2))
        mask = [s for s in range(mdp.n_states) if not mdp.is_terminal(s)]
        assert np.max(np.abs(learned.values[mask] - exact.values[mask])) < 0.05


def self_loop_mdp():
    """Three states, two actions; action 0 in state 0 stays there half the time,
    and action 1 in state 1 stays there half the time."""
    return MdpSpec(
        n_states=3,
        n_actions=2,
        # Rows (0,0) -> 0 or 1, (0,1) -> 1, (1,0) -> 2, (1,1) -> 1 or 2.
        row_offsets=[0, 2, 3, 4, 6, 6, 6],
        next_state=[0, 1, 1, 2, 1, 2],
        prob=[0.5, 0.5, 1.0, 1.0, 0.5, 0.5],
        rewards=np.array([[0.3, -0.2], [0.5, 0.1], [0.0, 0.0]]),
        initial_state=0,
        terminal_states=frozenset({2}),
        horizon_bound=64,
    )


def per_step_soft_q(mdp, alpha, episodes, learning_rate, rng):
    """Reference: soft Q-learning with a fresh softmax and a separate soft-value
    target at every step."""
    q = np.zeros((mdp.n_states, mdp.n_actions))
    for _ in range(episodes):
        s = mdp.initial_state
        while not mdp.is_terminal(s):
            x = q[s] / alpha
            e = np.exp(x - x.max())
            a = sample_index(e / e.sum(), rng)
            nxt, reward = step(mdp, s, a, rng)
            if mdp.is_terminal(nxt):
                target = reward
            else:
                x = q[nxt] / alpha
                m = x.max()
                target = reward + alpha * (m + math.log(float(np.exp(x - m).sum())))
            q[s, a] += learning_rate * (target - q[s, a])
            s = nxt
    return q


class TestTrainSoftQReference:
    @pytest.mark.parametrize(
        "mdp, alpha",
        [
            (stochastic_mdp(), 0.5),
            (build_channel_chain(6, 3), 0.2),
        ],
        ids=["stochastic", "chain-6x3"],
    )
    def test_values_match_per_step_loop_bytes(self, mdp, alpha):
        learned = train_soft_q(mdp, alpha, 2000, 0.1, np.random.default_rng(9))
        reference = per_step_soft_q(mdp, alpha, 2000, 0.1, np.random.default_rng(9))
        assert learned.values.tobytes() == reference.tobytes()


def loop_soft_vi(mdp, alpha):
    """Reference: the per-state loop over each (s, a) row's branches."""
    values = np.zeros((mdp.n_states, mdp.n_actions))
    v = np.zeros(mdp.n_states)
    nonterminal = [s for s in range(mdp.n_states) if not mdp.is_terminal(s)]
    for _ in range(mdp.horizon_bound):
        for s in nonterminal:
            for a in range(mdp.n_actions):
                ev = 0.0
                for nxt, prob in mdp.successors(s, a):
                    ev += prob * v[nxt]
                values[s, a] = mdp.rewards[s, a] + ev
        for s in nonterminal:
            x = values[s] / alpha
            m = x.max()
            v[s] = alpha * (m + math.log(float(np.exp(x - m).sum())))
    return values


SOFT_VI_CASES = [
    ("toy", lambda: build_toy_mcg(priority=0.0).mdp, 1.0),
    ("codegrid-8", lambda: build_codegrid(8).mdp, 1 / 7),
    ("codegrid-1024", lambda: build_codegrid(1024).mdp, 1 / 7),
    *[
        (f"chain-200x4-alpha{alpha}", lambda: build_channel_chain(200, 4), alpha)
        for alpha in (1.0, 0.5, 0.25, 0.125)
    ],
    ("coding-standard", lambda: build_coding_mcg().mdp, 1.0),
    (
        "coding-unequal",
        lambda: build_coding_mcg(alphabet_size=3, symbol_costs=(1.0, 2.0, 0.5)).mdp,
        0.3,
    ),
    ("stochastic", stochastic_mdp, 0.5),
    # Two branches per row, and rewards on terminal states, which Q ignores.
    ("layered-stochastic", lambda: layered_stochastic_mdp(), 0.6),
    (
        "chain-rewards",
        lambda: build_channel_chain(30, 3, rewards={1: 0.5, 7: -1.25, 20: 2.0}),
        0.37,
    ),
    ("fan", lambda: fan_mdp(), 1.0),
    ("skip-chain", lambda: skip_chain_mdp(), 0.45),
    ("branching-dag", lambda: branching_dag_mdp(), 0.8),
    ("sandwich", lambda: sandwich_mdp(), 0.7),
    # No live state: Q is all zeros whatever the stored rewards.
    (
        "all-terminal",
        lambda: MdpSpec.deterministic(np.zeros((2, 3)), np.ones((2, 3)), 0, frozenset({0, 1}), 1),
        1.0,
    ),
]


def fan_mdp(n=2000, n_actions=3, seed=0):
    """``n`` states whose every action leads to their own second-step state,
    where the best reward is 0. The first-step Q values are then exactly the
    logs of the second-step soft values, so a log that differs in the last
    bit from ``math.log`` (numpy's SIMD log does, on some inputs) shows."""
    rng = np.random.default_rng(seed)
    next_table = np.empty((2 * n + 1, n_actions), dtype=np.int64)
    next_table[:n] = np.arange(n, 2 * n)[:, None]
    next_table[n:] = 2 * n
    rewards = np.zeros((2 * n + 1, n_actions))
    rewards[n : 2 * n, 1:] = -rng.random((n, n_actions - 1))
    return MdpSpec.deterministic(next_table, rewards, 0, frozenset({2 * n}), 2)


def skip_chain_mdp(steps=40, n_actions=3, seed=1):
    """A chain whose last action skips a step, so every state's successors
    sit at two heights; rewards are random, so Q rows are not flat."""
    rng = np.random.default_rng(seed)
    s = np.arange(steps + 1)
    next_table = np.repeat(np.minimum(s + 1, steps)[:, None], n_actions, axis=1)
    next_table[:, -1] = np.minimum(s + 2, steps)
    rewards = rng.normal(size=(steps + 1, n_actions))
    return MdpSpec.deterministic(next_table, rewards, 0, frozenset({steps}), steps)


def branching_dag_mdp(n_states=30, n_actions=9, seed=2):
    """Random stochastic DAG: every row branches to up to three later states,
    so one row's branches land in different layers. Nine actions take each
    row's sum of exponentials past numpy's eight-element pairwise block."""
    rng = np.random.default_rng(seed)
    terminal = n_states - 1
    offsets, next_state, prob = [0], [], []
    for s in range(n_states):
        for _ in range(n_actions):
            if s < terminal:
                k = min(int(rng.integers(2, 4)), terminal - s)
                targets = s + 1 + np.sort(rng.choice(terminal - s, k, replace=False))
                next_state.extend(targets.tolist())
                prob.extend(rng.dirichlet(np.ones(k)).tolist())
            offsets.append(len(next_state))
    return MdpSpec(
        n_states=n_states,
        n_actions=n_actions,
        row_offsets=offsets,
        next_state=next_state,
        prob=prob,
        rewards=rng.normal(size=(n_states, n_actions)),
        initial_state=0,
        terminal_states=frozenset({terminal}),
        horizon_bound=terminal,
    )



def sandwich_mdp(widths=(2, 1, 3, 1, 2, 1), n_actions=3, seed=4):
    """Layers of ``widths`` states at heights 1, 2, ..., so one-state layers
    sit between wide ones, over two terminals, with state ids shuffled: at
    the default seed no live state's id is its position in height order,
    so a V read by state id instead of by position shows. Every row
    branches to a state one layer down and skips to a lower one, each with
    positive probability, and ends in a zero-probability entry one layer
    down. Action 0 skips to a terminal, and action 1 to a wide layer where
    one lies two or more layers down."""
    rng = np.random.default_rng(seed)
    slots = [[0, 1]]  # terminals, then each layer's slots
    for width in widths:
        start = slots[-1][-1] + 1
        slots.append(list(range(start, start + width)))
    n_states = slots[-1][-1] + 1
    ids = rng.permutation(n_states)
    rows = {}
    for h in range(1, len(slots)):
        lower = [t for layer in slots[: h - 1] for t in layer]
        wide = [t for layer in slots[1 : h - 1] if len(layer) > 1 for t in layer]
        for slot in slots[h]:
            for a in range(n_actions):
                skip = slots[0] if a == 0 or h == 1 else wide if a == 1 and wide else lower
                targets = [rng.choice(slots[h - 1]), rng.choice(skip), rng.choice(slots[h - 1])]
                probs = [*rng.dirichlet(np.ones(2)).tolist(), 0.0]
                rows[ids[slot] * n_actions + a] = ([int(ids[t]) for t in targets], probs)
    offsets, next_state, prob = [0], [], []
    for r in range(n_states * n_actions):
        targets, probs = rows.get(r, ([], []))
        next_state.extend(targets)
        prob.extend(probs)
        offsets.append(len(next_state))
    return MdpSpec(
        n_states=n_states,
        n_actions=n_actions,
        row_offsets=offsets,
        next_state=next_state,
        prob=prob,
        rewards=rng.normal(size=(n_states, n_actions)),
        initial_state=int(ids[slots[-1][0]]),
        terminal_states=frozenset(ids[slots[0]].tolist()),
        horizon_bound=len(widths),
    )


class TestSoftViReference:
    @pytest.mark.parametrize(
        "build,alpha", [c[1:] for c in SOFT_VI_CASES], ids=[c[0] for c in SOFT_VI_CASES]
    )
    def test_array_backup_is_bit_identical_to_loop(self, build, alpha):
        mdp = build()
        q = exact_soft_vi(mdp, alpha)
        assert q.values.tobytes() == loop_soft_vi(mdp, alpha).tobytes()


def with_twin(mdp, s):
    """``mdp`` and one more state, a copy of the live state ``s`` that no state
    enters. The twin has ``s``'s height, so ``s``'s layer holds one more state."""
    n_actions = mdp.n_actions
    lo, hi = mdp.row_offsets[s * n_actions], mdp.row_offsets[(s + 1) * n_actions]
    twin_offsets = mdp.row_offsets[s * n_actions + 1 : (s + 1) * n_actions + 1] - lo
    return dataclasses.replace(
        mdp,
        n_states=mdp.n_states + 1,
        row_offsets=np.concatenate((mdp.row_offsets, mdp.row_offsets[-1] + twin_offsets)),
        next_state=np.concatenate((mdp.next_state, mdp.next_state[lo:hi])),
        prob=np.concatenate((mdp.prob, mdp.prob[lo:hi])),
        rewards=np.vstack((mdp.rewards, mdp.rewards[s])),
    )


def toy_mdp():
    return build_toy_mcg(priority=0.0).mdp


class TestOneStateLayers:
    """A one-state layer is backed up in Python floats, a wider one by the
    array pass. The same state, alone in its layer and beside a twin, gives
    the same bytes, and both paths stop at the same overflow."""

    @pytest.mark.parametrize(
        "build,alpha",
        # At 1e-308 the plus-minus row's spread passes the float range.
        [(plus_minus_mdp, 1.0), (plus_minus_mdp, 1e-308), (toy_mdp, 1.0)],
        ids=["plus-minus-alpha1", "plus-minus-alpha1e-308", "toy-alpha1"],
    )
    def test_both_paths_give_the_same_bytes(self, build, alpha):
        mdp = build()
        twinned = with_twin(mdp, 0)
        assert np.bincount(heights(mdp)).tolist() == [0, 1]
        assert np.bincount(heights(twinned)).tolist() == [0, 2]
        alone = exact_soft_vi(mdp, alpha).values
        beside = exact_soft_vi(twinned, alpha).values
        assert beside[: mdp.n_states].tobytes() == alone.tobytes()
        assert beside[-1].tobytes() == alone[0].tobytes()

    @pytest.mark.parametrize("twinned", [False, True])
    def test_both_paths_stop_at_the_toy_overflow(self, twinned):
        # The toy's rewards 4 and 3 over alpha = 1e-308 overflow.
        mdp = with_twin(toy_mdp(), 0) if twinned else toy_mdp()
        with pytest.raises(FloatingPointError, match="overflow"):
            exact_soft_vi(mdp, 1e-308)


class TestHorizonContract:
    """An MDP that breaks MdpSpec's horizon contract is rejected, not truncated."""

    def test_cycle_raises(self):
        # The same MDP as test_baseline's self_loop_game: states 0 and 1 can stay put.
        with pytest.raises(ValueError, match="horizon bound"):
            exact_soft_vi(self_loop_mdp(), 0.5)

    def test_train_soft_q_rejects_a_cycle(self):
        with pytest.raises(ValueError, match="horizon bound"):
            train_soft_q(self_loop_mdp(), 0.5, 10, 0.1, np.random.default_rng(0))

    def test_horizon_one_short_of_the_chain_raises(self):
        chain = build_channel_chain(5, 2)
        with pytest.raises(ValueError, match="more than 4 steps"):
            exact_soft_vi(dataclasses.replace(chain, horizon_bound=4), 1.0)
        q = exact_soft_vi(chain, 1.0)
        assert q.values[0, 0] == pytest.approx(4 * math.log(2), abs=1e-12)


def layered_stochastic_mdp(seed=0, layers=3, width=3, n_actions=3):
    """Random time-layered MDP: every action branches to two states of the next
    layer, rewards are random everywhere, and the last layer is terminal."""
    rng = np.random.default_rng(seed)
    n_states = 1 + width * layers
    offsets, next_state, prob = [0], [], []
    for s in range(n_states):
        layer = 0 if s == 0 else (s - 1) // width + 1
        for _ in range(n_actions):
            if layer < layers:
                targets = 1 + layer * width + np.sort(rng.choice(width, 2, replace=False))
                next_state.extend(targets.tolist())
                prob.extend(rng.dirichlet(np.ones(2)).tolist())
            offsets.append(len(next_state))
    return MdpSpec(
        n_states=n_states,
        n_actions=n_actions,
        row_offsets=offsets,
        next_state=next_state,
        prob=prob,
        rewards=rng.normal(size=(n_states, n_actions)),
        initial_state=0,
        terminal_states=frozenset(range(1 + width * (layers - 1), n_states)),
        horizon_bound=layers,
    )


class TestOccupancyEvaluators:
    def test_match_enumeration_on_stochastic_mdp(self):
        mdp = layered_stochastic_mdp()
        rng = np.random.default_rng(1)
        table = [Dist(rng.dirichlet(np.ones(mdp.n_actions))) for _ in range(mdp.n_states)]
        table[1] = Dist.point_mass(2, mdp.n_actions)  # a zero-probability action
        policy = lambda s: table[s]
        alpha = 0.6
        paths = enumerate_trajectories(mdp, policy)
        assert len(paths) > 20
        ret = sum(p * trajectory_return(z) for z, p in paths)
        nats = sum(p * sum(entropy_nats(table[st.state]) for st in z.steps) for z, p in paths)
        bits = sum(p * sum(entropy(table[st.state]) for st in z.steps) for z, p in paths)
        assert abs(exact_policy_return(mdp, policy) - ret) <= 1e-12
        assert abs(exact_policy_objective(mdp, policy, alpha) - (ret + alpha * nats)) <= 1e-12
        assert abs(expected_cumulative_entropy_bits(mdp, policy) - bits) <= 1e-12
