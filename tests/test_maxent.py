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
    TrainConfig,
    softmax_parts,
    exact_policy_objective,
    exact_soft_vi,
    expected_cumulative_entropy_bits,
    softmax_policy,
    train_soft_q,
)
from trajcomm.mdp import MdpSpec, exact_policy_return, step, trajectory_return

from mdp_oracle import enumerate_trajectories

TOY_SOFTMAX = (0.7213991842739685, 0.26538792877224193, 0.013212886953789414)
TOY_SOFT_VALUE = 4.32656264126747


def toy_qtable(alpha=1.0):
    return QTable(values=np.array([[4.0, 3.0, 0.0], [0.0, 0.0, 0.0]]), alpha=alpha)


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

    def test_overflowing_row_fails_alone_when_asked_for(self):
        values = np.random.default_rng(5).normal(size=(6, 3)) * 1e-10
        values[2, 1] = 1e300  # 1e300 / 1e-10 overflows to inf
        q = QTable(values=values, alpha=1e-10)
        for s in (0, 1, 3, 4, 5):
            pol = softmax_policy(q, s)
            assert pol.probs.tobytes() == softmax_parts(q.values[s], q.alpha)[0].tobytes()
        with pytest.warns(RuntimeWarning) as expected, pytest.raises(ValueError) as error:
            Dist(softmax_parts(q.values[2], q.alpha)[0])
        with pytest.warns(RuntimeWarning) as got, pytest.raises(ValueError) as got_error:
            softmax_policy(q, 2)
        assert str(got_error.value) == str(error.value) == "distribution entries must be finite"
        assert [str(w.message) for w in got] == [str(w.message) for w in expected]

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

    def test_entropy_monotone_in_temperature(self):
        mcg = build_toy_mcg(priority=0.0)
        entropies = []
        for alpha in (0.1, 0.5, 1.0, 2.0, 10.0):
            q = exact_soft_vi(mcg.mdp, alpha)
            entropies.append(
                expected_cumulative_entropy_bits(mcg.mdp, lambda s: softmax_policy(q, s))
            )
        assert all(a <= b + 1e-12 for a, b in zip(entropies, entropies[1:]))


class TestTrainSoftQ:
    def test_single_state_converges_to_rewards(self):
        mcg = build_toy_mcg(priority=0.0)
        q = train_soft_q(mcg.mdp, 1.0, TrainConfig(episodes=10_000), np.random.default_rng(0))
        assert np.max(np.abs(q.values[0] - [4.0, 3.0, 0.0])) < 0.05

    def test_zero_reward_chain_matches_entropy_to_go(self):
        chain = build_channel_chain(2, 2)
        exact = exact_soft_vi(chain, alpha=1.0)
        cfg = TrainConfig(episodes=20_000, learning_rate=0.05)
        learned = train_soft_q(chain, 1.0, cfg, np.random.default_rng(1))
        mask = [s for s in range(chain.n_states) if not chain.is_terminal(s)]
        assert np.max(np.abs(learned.values[mask] - exact.values[mask])) < 0.05
        assert np.allclose(softmax_policy(learned, 0).probs, 0.5, atol=0.02)

    def test_converges_on_stochastic_mdp(self):
        mdp = stochastic_mdp()
        exact = exact_soft_vi(mdp, alpha=0.5)
        cfg = TrainConfig(episodes=60_000, learning_rate=0.02)
        learned = train_soft_q(mdp, 0.5, cfg, np.random.default_rng(2))
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


def per_step_soft_q(mdp, alpha, cfg, rng):
    """Reference: soft Q-learning with a fresh softmax and a separate soft-value
    target at every step."""
    q = np.zeros((mdp.n_states, mdp.n_actions))
    for _ in range(cfg.episodes):
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
            q[s, a] += cfg.learning_rate * (target - q[s, a])
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
        cfg = TrainConfig(episodes=2000, learning_rate=0.1)
        learned = train_soft_q(mdp, alpha, cfg, np.random.default_rng(9))
        reference = per_step_soft_q(mdp, alpha, cfg, np.random.default_rng(9))
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


class TestSoftViReference:
    @pytest.mark.parametrize(
        "build,alpha", [c[1:] for c in SOFT_VI_CASES], ids=[c[0] for c in SOFT_VI_CASES]
    )
    def test_array_backup_is_bit_identical_to_loop(self, build, alpha):
        mdp = build()
        q = exact_soft_vi(mdp, alpha)
        assert q.values.tobytes() == loop_soft_vi(mdp, alpha).tobytes()


class TestHorizonContract:
    """An MDP that breaks MdpSpec's horizon contract is rejected, not truncated."""

    def test_cycle_raises(self):
        # The same MDP as test_baseline's self_loop_game: states 0 and 1 can stay put.
        with pytest.raises(ValueError, match="horizon bound"):
            exact_soft_vi(self_loop_mdp(), 0.5)

    def test_train_soft_q_rejects_a_cycle(self):
        with pytest.raises(ValueError, match="horizon bound"):
            train_soft_q(self_loop_mdp(), 0.5, TrainConfig(episodes=10), np.random.default_rng(0))

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
