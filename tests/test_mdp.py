"""MDP stepping, noise, trajectory enumeration, and game-payoff tests."""

import dataclasses
import math

import numpy as np
import pytest

from trajcomm.dist import Dist
from trajcomm.envs import (
    build_chain_mcg,
    build_channel_chain,
    build_codegrid,
    build_coding_mcg,
    build_toy_mcg,
)
from trajcomm.maxent import exact_soft_vi, softmax_policy
from trajcomm.mcg import (
    Belief,
    McgSpec,
    MessageSpace,
    hamming_distance,
    sample_message,
)
from trajcomm.mdp import (
    MdpSpec,
    Step,
    Trajectory,
    apply_actuator_noise,
    exact_policy_return,
    heights,
    step,
    trajectory_return,
)

from mdp_oracle import enumerate_trajectories, heights_by_rounds, rollout
from test_maxent import (
    branching_dag_mdp,
    fan_mdp,
    layered_stochastic_mdp,
    self_loop_mdp,
    skip_chain_mdp,
)

TOY_SOFTMAX = (0.7213991842739685, 0.26538792877224193, 0.013212886953789414)


def single_state_mdp(n_actions=3):
    return MdpSpec(
        n_states=2,
        n_actions=n_actions,
        row_offsets=list(range(n_actions + 1)) + [n_actions] * n_actions,
        next_state=[1] * n_actions,
        prob=[1.0] * n_actions,
        rewards=np.zeros((2, n_actions)),
        initial_state=0,
        terminal_states=frozenset({1}),
        horizon_bound=1,
    )


class TestStep:
    def test_toy_best_action_reward(self):
        mcg = build_toy_mcg(priority=2.0)
        rng = np.random.default_rng(0)
        nxt, reward = step(mcg.mdp, 0, 0, rng)
        assert mcg.mdp.is_terminal(nxt) and reward == 4.0

    def test_toy_worst_action_reward(self):
        mcg = build_toy_mcg(priority=2.0)
        rng = np.random.default_rng(0)
        nxt, reward = step(mcg.mdp, 0, 2, rng)
        assert mcg.mdp.is_terminal(nxt) and reward == 0.0

    def test_chain_advances_with_zero_reward(self):
        chain = build_channel_chain(3, 2)
        rng = np.random.default_rng(0)
        nxt, reward = step(chain, 0, 1, rng)
        assert nxt == 1 and reward == 0.0

    def test_terminal_state_is_usage_error(self):
        mdp = single_state_mdp()
        with pytest.raises(ValueError):
            step(mdp, 1, 0, np.random.default_rng(0))

    def test_transition_sampling_frequencies(self):
        mdp = MdpSpec(
            n_states=3,
            n_actions=1,
            row_offsets=[0, 2, 2, 2],
            next_state=[1, 2],
            prob=[0.3, 0.7],
            rewards=np.zeros((3, 1)),
            initial_state=0,
            terminal_states=frozenset({1, 2}),
            horizon_bound=1,
        )
        rng = np.random.default_rng(5)
        hits = sum(step(mdp, 0, 0, rng)[0] == 2 for _ in range(20000))
        assert abs(hits / 20000 - 0.7) < 0.02


def two_step_chain(**overrides):
    """States 0 -> 1 -> 2 under one action; state 2 is terminal."""
    fields = dict(
        n_states=3,
        n_actions=1,
        row_offsets=[0, 1, 2, 2],
        next_state=[1, 2],
        prob=[1.0, 1.0],
        rewards=np.zeros((3, 1)),
        initial_state=0,
        terminal_states=frozenset({2}),
        horizon_bound=2,
    )
    fields.update(overrides)
    return MdpSpec(**fields)


class TestMdpSpecValidation:
    def test_well_formed_arrays_are_read_only(self):
        mdp = two_step_chain()
        for arr in (mdp.row_offsets, mdp.next_state, mdp.prob, mdp.entry_row, mdp.terminal_mask):
            assert not arr.flags.writeable
        assert mdp.entry_row.tolist() == [0, 1]
        assert mdp.terminal_mask.tolist() == [False, False, True]

    @pytest.mark.parametrize(
        "overrides,message",
        [
            ({"next_state": [1, 3]}, "transition target 3 out of range"),
            (
                {"row_offsets": [0, 2, 3, 3], "next_state": [1, 2, 2], "prob": [1.5, -0.5, 1.0]},
                "non-negative",
            ),
            ({"prob": [1.0, 1.0 - 2e-9]}, r"transition row \(1, 0\) sums to"),
            (
                {"row_offsets": [0, 1, 1, 1], "next_state": [1], "prob": [1.0]},
                "state 1 must define every action",
            ),
            ({"row_offsets": [0, 1, 2]}, "one row per"),
            (
                {"n_actions": 0, "row_offsets": [0], "next_state": [], "prob": [],
                 "rewards": np.zeros((3, 0))},
                "at least one action",
            ),
        ],
        ids=[
            "target-out-of-range", "negative-probability", "row-sum-off", "missing-row",
            "row-count", "no-actions",
        ],
    )
    def test_rejects_malformed_transitions(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            two_step_chain(**overrides)

    def test_row_sum_within_tolerance_passes(self):
        two_step_chain(prob=[1.0, 1.0 - 5e-10])


class TestActuatorNoise:
    def test_zero_noise_is_identity(self):
        rng = np.random.default_rng(0)
        assert all(apply_actuator_noise(1, 0.0, 4, rng) == 1 for _ in range(100))

    def test_full_noise_single_action(self):
        rng = np.random.default_rng(0)
        assert all(apply_actuator_noise(0, 1.0, 1, rng) == 0 for _ in range(100))

    def test_half_noise_two_actions_match_rate(self):
        # Executed equals intended with probability 1 - p + p/n = 0.75.
        rng = np.random.default_rng(1)
        n = 100_000
        matches = sum(apply_actuator_noise(0, 0.5, 2, rng) == 0 for _ in range(n))
        assert abs(matches / n - 0.75) < 0.01

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            apply_actuator_noise(0, 1.5, 2, np.random.default_rng(0))


class TestRollout:
    def test_episode_longer_than_horizon_bound_raises(self):
        mdp = two_step_chain(horizon_bound=1)
        with pytest.raises(RuntimeError, match="horizon bound"):
            rollout(mdp, lambda s: Dist.uniform(1), np.random.default_rng(0))

    def test_episode_of_exactly_horizon_bound_steps(self):
        z = rollout(two_step_chain(), lambda s: Dist.uniform(1), np.random.default_rng(0))
        assert len(z.steps) == 2 and z.final_state == 2


def random_dag_mdp(seed):
    """A random DAG MDP: states lead only to states later in a random order,
    rows draw their successors with replacement (so some repeat) and zero
    some probabilities, the last one to three states in the order are
    terminal, and the initial state is not the first, so at least that live
    state cannot be reached."""
    rng = np.random.default_rng(seed)
    n_states = int(rng.integers(5, 40))
    n_actions = int(rng.integers(1, 5))
    n_live = n_states - int(rng.integers(1, 4))
    order = rng.permutation(n_states)
    rank = np.argsort(order)
    offsets, next_state, prob = [0], [], []
    for s in range(n_states):
        for _ in range(n_actions):
            if rank[s] < n_live:
                k = int(rng.integers(1, 5))
                targets = rng.choice(order[rank[s] + 1 :], k)
                p = rng.dirichlet(np.ones(k))
                p[rng.random(k) < 0.3] = 0.0
                p = p / p.sum() if p.sum() > 0.0 else np.eye(k)[0]
                next_state.extend(targets.tolist())
                prob.extend(p.tolist())
            offsets.append(len(next_state))
    return MdpSpec(
        n_states=n_states,
        n_actions=n_actions,
        row_offsets=offsets,
        next_state=next_state,
        prob=prob,
        rewards=np.zeros((n_states, n_actions)),
        initial_state=int(order[rng.integers(1, n_live)]),
        terminal_states=frozenset(order[n_live:].tolist()),
        horizon_bound=n_states,
    )


def unreachable_cycle_mdp():
    """State 0 moves straight to the terminal 4; only state 1, which nothing
    leads to, enters the cycle 2 -> 3 -> 2, which state 3 leaves half the time."""
    return MdpSpec(
        n_states=5,
        n_actions=1,
        row_offsets=[0, 1, 2, 3, 5, 5],
        next_state=[4, 2, 3, 2, 4],
        prob=[1.0, 1.0, 1.0, 0.5, 0.5],
        rewards=np.zeros((5, 1)),
        initial_state=0,
        terminal_states=frozenset({4}),
        horizon_bound=10,
    )


HEIGHT_CASES = [
    ("toy", lambda: build_toy_mcg().mdp),
    ("codegrid", lambda: build_codegrid().mdp),
    ("chain", lambda: build_chain_mcg().mdp),
    ("coding", lambda: build_coding_mcg().mdp),
    ("skip-chain", skip_chain_mdp),
    ("branching-dag", branching_dag_mdp),
    ("layered-stochastic", layered_stochastic_mdp),
    ("fan", fan_mdp),
]


class TestHeights:
    """The one-pass heights against the round-by-round oracle."""

    @pytest.mark.parametrize(
        "build", [c[1] for c in HEIGHT_CASES], ids=[c[0] for c in HEIGHT_CASES]
    )
    def test_builders_match_rounds(self, build):
        mdp = build()
        assert heights(mdp).tobytes() == heights_by_rounds(mdp).tobytes()

    def test_random_dags_match_rounds(self):
        for seed in range(50):
            mdp = random_dag_mdp(seed)
            expected = heights_by_rounds(mdp)
            assert heights(mdp).tobytes() == expected.tobytes()
            # A bound equal to the depth passes; one step short raises.
            depth = int(expected.max())
            tight = dataclasses.replace(mdp, horizon_bound=depth)
            assert heights(tight).tobytes() == expected.tobytes()
            if depth > 1:
                short = dataclasses.replace(mdp, horizon_bound=depth - 1)
                for fn in (heights, heights_by_rounds):
                    with pytest.raises(ValueError, match="horizon bound"):
                        fn(short)

    def test_random_dags_cover_the_awkward_entries(self):
        mdps = [random_dag_mdp(seed) for seed in range(50)]
        assert sum(0.0 in mdp.prob for mdp in mdps) > 25
        assert sum(len(mdp.terminal_states) > 1 for mdp in mdps) > 25
        repeats = 0
        for mdp in mdps:
            rows = np.split(mdp.next_state, mdp.row_offsets[1:-1])
            repeats += any(len(set(r.tolist())) < len(r) for r in rows)
        assert repeats > 25

    @pytest.mark.parametrize("fn", [heights, heights_by_rounds], ids=["kahn", "rounds"])
    @pytest.mark.parametrize(
        "build",
        [
            self_loop_mdp,
            unreachable_cycle_mdp,
            lambda: dataclasses.replace(build_channel_chain(5, 2), horizon_bound=4),
        ],
        ids=["self-loop", "unreachable-2-cycle", "chain-one-step-short"],
    )
    def test_broken_contract_raises(self, fn, build):
        with pytest.raises(ValueError, match="horizon bound"):
            fn(build())

    def test_bound_equal_to_the_depth_passes(self):
        assert heights(build_channel_chain(5, 2)).tolist() == [5, 4, 3, 2, 1]


class TestTrajectoryReturn:
    def test_empty_is_zero(self):
        assert trajectory_return(Trajectory(steps=(), final_state=0)) == 0.0

    def test_toy_middle_action(self):
        z = Trajectory(steps=(Step(0, 1, 1, 3.0),), final_state=1)
        assert trajectory_return(z) == 3.0

    def test_sums_across_steps(self):
        z = Trajectory(
            steps=(Step(0, 0, 0, 0.0), Step(1, 1, 1, 0.5), Step(2, 0, 0, 0.5)),
            final_state=3,
        )
        assert trajectory_return(z) == 1.0


class TestHamming:
    def test_identical(self):
        assert hamming_distance((0, 1, 1), (0, 1, 1)) == 0

    def test_all_differ(self):
        assert hamming_distance(tuple([0] * 64), tuple([1] * 64)) == 64

    def test_three_pixels(self):
        a = tuple([0] * 8)
        b = (1, 0, 1, 0, 0, 0, 0, 1)
        assert hamming_distance(a, b) == 3

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            hamming_distance((0, 1), (0, 1, 0))


class TestEnumerateTrajectories:
    def test_single_state_uniform(self):
        mdp = single_state_mdp(3)
        out = enumerate_trajectories(mdp, lambda s: Dist.uniform(3))
        assert len(out) == 3
        assert all(prob == pytest.approx(1 / 3) for _, prob in out)

    def test_deterministic_chain_single_trajectory(self):
        chain = build_channel_chain(2, 2)
        out = enumerate_trajectories(chain, lambda s: Dist.point_mass(0, 2))
        assert len(out) == 1
        assert out[0][1] == 1.0

    def test_probabilities_sum_to_one(self):
        chain = build_channel_chain(4, 3)
        out = enumerate_trajectories(chain, lambda s: Dist([0.5, 0.3, 0.2]))
        assert sum(p for _, p in out) == pytest.approx(1.0, abs=1e-9)

    def test_toy_softmax_expected_return(self):
        mcg = build_toy_mcg(priority=0.0)
        policy = lambda s: Dist(np.array(TOY_SOFTMAX))
        value = exact_policy_return(mcg.mdp, policy)
        assert value == pytest.approx(3.6817605234126, abs=1e-9)

    def test_matches_monte_carlo(self):
        chain = build_channel_chain(3, 2, rewards={0: 0.25, 2: 1.0})
        q = exact_soft_vi(chain, alpha=0.7)
        policy = lambda s: softmax_policy(q, s)
        exact = exact_policy_return(chain, policy)
        rng = np.random.default_rng(9)
        n = 100_000
        returns = np.array([trajectory_return(rollout(chain, policy, rng)) for _ in range(n)])
        se = returns.std(ddof=1) / math.sqrt(n)
        assert abs(returns.mean() - exact) <= max(3 * se, 1e-9)

    def test_explosion_guard(self):
        chain = build_channel_chain(25, 4)
        with pytest.raises(ValueError):
            enumerate_trajectories(chain, lambda s: Dist.uniform(4))


class TestBeliefAndSpaces:
    def test_factored_uniform_entropy_adds_over_blocks(self):
        space = MessageSpace.product([2, 4, 8])
        b = Belief.uniform(space)
        assert b.entropy_bits() == pytest.approx(1 + 2 + 3, abs=1e-12)

    def test_explicit_cardinality(self):
        assert MessageSpace.explicit(7).cardinality == 7

    def test_factored_cardinality_is_product(self):
        assert MessageSpace.product([2] * 10).cardinality == 1024

    def test_contains(self):
        space = MessageSpace.product([2, 3])
        assert space.contains((1, 2))
        assert not space.contains((1, 3))
        assert not space.contains(1)
        # A bool is an int to Python, and sender_episode sent True as message 1.
        assert not space.contains((True, 2))
        assert not MessageSpace.explicit(2).contains(True)
        assert not MessageSpace.product([2, 2]).contains((True, False))
        assert not MessageSpace.explicit(2).contains(np.True_)
        assert MessageSpace.explicit(2).contains(np.int64(1))

    def test_values_and_message_are_inverse(self):
        # Every message of either kind of space round-trips through its block
        # values, one per block; only integer block values make a message.
        for space in (MessageSpace.explicit(3), MessageSpace.product([2, 3])):
            messages = list(space.messages())
            assert len(messages) == space.cardinality
            for m in messages:
                values = space.values(m)
                assert isinstance(values, tuple) and len(values) == len(space.block_sizes)
                assert space.message(values) == m and space.contains(m)
        assert MessageSpace.explicit(3).values(2) == (2,)
        assert not MessageSpace.explicit(3).contains(1.0)
        assert not MessageSpace.product([2, 3]).contains((1.0, 2))

    def test_prior_shape_validated(self):
        mcg = build_toy_mcg(priority=1.0)
        with pytest.raises(ValueError):
            McgSpec(
                mdp=mcg.mdp,
                message_space=MessageSpace.explicit(3),
                prior=Belief((Dist([0.5, 0.5]),)),
                priority=1.0,
            )

    def test_noise_bound_validated(self):
        mcg = build_toy_mcg(priority=1.0)
        with pytest.raises(ValueError):
            McgSpec(
                mdp=mcg.mdp,
                message_space=mcg.message_space,
                prior=mcg.prior,
                priority=1.0,
                noise_p=0.7,
            )

    def test_sample_message_respects_prior(self):
        mcg = build_toy_mcg(priority=1.0)
        rng = np.random.default_rng(2)
        draws = [sample_message(mcg, rng) for _ in range(5000)]
        assert abs(np.mean(draws) - 0.5) < 0.03
