"""Environment-builder tests."""

import hashlib

import numpy as np
import pytest

from trajcomm.coding import run_roundtrip
from trajcomm.dist import Dist, entropy
from trajcomm import envs
from trajcomm.envs import (
    GAMES,
    build_env,
    build_channel_chain,
    build_codegrid,
    build_coding_mcg,
    build_toy_mcg,
    chain_mcg,
)
from trajcomm.formats import save_mcg
from trajcomm.maxent import exact_soft_vi, expected_cumulative_entropy_bits, softmax_policy
from trajcomm.mcg import McgSpec, MessageSpace
from trajcomm.mdp import exact_policy_return, trajectory_return

from mdp_oracle import enumerate_trajectories, exact_mcg_value, rollout


def cold_sender(mcg):
    """Sender that always plays action 0, ignoring the message."""
    return lambda s, m: Dist.point_mass(0, mcg.mdp.n_actions)


def uniform_guesser(mcg):
    n = mcg.message_space.cardinality
    return lambda view: Dist.uniform(n)


def map_guesser(mcg):
    # Posterior equals the prior under an uninformative sender; MAP ties
    # break to the lowest index.
    n = mcg.message_space.cardinality
    return lambda view: Dist.point_mass(0, n)


class TestToyMcg:
    def test_babbling_value_is_return_plus_half_priority(self):
        for zeta in (0.0, 1.0, 10.0):
            mcg = build_toy_mcg(priority=zeta)
            value = exact_mcg_value(mcg, cold_sender(mcg), uniform_guesser(mcg))
            assert value == 4.0 + zeta / 2.0

    def test_cold_policy_with_map_receiver(self):
        for zeta in (0.0, 2.0):
            mcg = build_toy_mcg(priority=zeta)
            value = exact_mcg_value(mcg, cold_sender(mcg), map_guesser(mcg))
            assert value == 4.0 + zeta / 2.0

    def test_zero_priority_optimum_is_best_reward(self):
        mcg = build_toy_mcg(priority=0.0)
        value = exact_mcg_value(mcg, cold_sender(mcg), uniform_guesser(mcg))
        assert value == 4.0

    def test_uniform_policy_return(self):
        mcg = build_toy_mcg(priority=0.0)
        uniform = lambda s: Dist.uniform(3)
        assert exact_policy_return(mcg.mdp, uniform) == pytest.approx(7.0 / 3.0)


class TestCodeGrid:
    def test_shortest_path_is_six_moves(self):
        # Breadth-first distance from the start to the goal is 6, so return 1
        # is achievable with two steps to spare.
        from collections import deque

        mcg = build_codegrid(8)
        mdp = mcg.mdp
        dist = {mdp.initial_state: 0}
        frontier = deque([mdp.initial_state])
        goal_distance = None
        while frontier and goal_distance is None:
            s = frontier.popleft()
            if mdp.is_terminal(s):
                continue
            for a in range(mdp.n_actions):
                if mdp.rewards[s, a] == 1.0:
                    goal_distance = dist[s] + 1
                    break
                [(nxt, _)] = mdp.successors(s, a)
                if nxt not in dist:
                    dist[nxt] = dist[s] + 1
                    frontier.append(nxt)
        assert goal_distance == 6
        # A monotone right/up policy realizes it.
        z = rollout(mcg.mdp, lambda s: Dist([0.0, 0.5, 0.5, 0.0]), np.random.default_rng(0))
        assert trajectory_return(z) == 1.0
        assert len(z.steps) == 6

    def test_always_left_scores_zero(self):
        mcg = build_codegrid(8)
        z = rollout(mcg.mdp, lambda s: Dist.point_mass(0, 4), np.random.default_rng(0))
        assert trajectory_return(z) == 0.0
        assert len(z.steps) == 8

    def test_terminates_within_deadline(self):
        mcg = build_codegrid(8)
        rng = np.random.default_rng(1)
        for _ in range(200):
            z = rollout(mcg.mdp, lambda s: Dist.uniform(4), rng)
            assert len(z.steps) <= 8

    def test_uniform_policy_entropy_budget(self):
        mcg = build_codegrid(8)
        budget = expected_cumulative_entropy_bits(mcg.mdp, lambda s: Dist.uniform(4))
        assert budget <= 8 * 2.0 + 1e-9

    def test_goal_reward_only_on_arrival(self):
        mcg = build_codegrid(8)
        rng = np.random.default_rng(2)
        for _ in range(100):
            z = rollout(mcg.mdp, lambda s: Dist.uniform(4), rng)
            assert trajectory_return(z) in (0.0, 1.0)

    def test_grid_keywords_write_the_recorded_spec(self, tmp_path):
        # The digest of the spec a 3 x 3 grid with goal (3, 3) and deadline 5
        # wrote when its shape was one grid object.
        path = tmp_path / "env.json"
        save_mcg(build_codegrid(8, width=3, height=3, goal=(3, 3), max_steps=5), path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "fcb9660018cba4f7fd88ed49548d8d6d4a92075128482620d30ae4b78188d650"

    @pytest.mark.parametrize(
        "params, key",
        [
            ({"start": (5, 1)}, "start"),
            ({"start": (1, 0)}, "start"),
            ({"goal": (9, 9)}, "goal"),
            ({"width": 3}, "goal"),  # the default goal (4, 4) is off a 3-wide grid
            ({"width": 0}, "width"),
            ({"height": 0}, "height"),
            ({"max_steps": 0}, "max_steps"),
            ({"start": (4, 4)}, "start"),  # on the default goal
            ({"start": [2, 2], "goal": [2, 2]}, "goal"),  # as a sweep's JSON gives them
        ],
    )
    def test_rejects_a_position_off_the_grid_or_an_empty_size(self, params, key):
        # Each used to build: an off-grid start began elsewhere, an off-grid
        # goal gave a game that never pays, and a start on the goal gave a
        # game that ends before its first move.
        with pytest.raises(ValueError, match=repr(key)):
            build_codegrid(**params)


class TestCodingMdp:
    def test_standard_return_counts_symbols(self):
        # Emitting three symbols then the terminator pays -3.
        mdp = build_coding_mcg(alphabet_size=2).mdp
        s = mdp.initial_state
        total = 0.0
        for a in (0, 1, 0, 2):  # 2 is the terminator for a binary alphabet
            total += mdp.rewards[s, a]
            s = s + 1 if a < 2 else mdp.n_states - 1
        assert total == -3.0
        assert mdp.is_terminal(s)

    def test_unequal_costs(self):
        mdp = build_coding_mcg(alphabet_size=2, symbol_costs=(1.0, 3.0)).mdp
        # cheap, cheap, stop
        assert mdp.rewards[0, 0] == -1.0
        assert mdp.rewards[0, 1] == -3.0
        assert mdp.rewards[0, 2] == 0.0
        total = mdp.rewards[0, 0] + mdp.rewards[1, 0] + mdp.rewards[2, 2]
        assert total == -2.0

    def test_length_limit_bounds_episodes(self):
        mdp = build_coding_mcg(length_limit=4).mdp
        rng = np.random.default_rng(3)
        for _ in range(100):
            z = rollout(mdp, lambda s: Dist.uniform(mdp.n_actions), rng)
            symbols = sum(1 for s in z.steps if s.executed_action < 2)
            assert symbols <= 4

    def test_variant_validation(self):
        # Every keyword applies to every variant, so only bad values are rejected.
        with pytest.raises(ValueError, match="'symbol_costs'"):
            build_coding_mcg(alphabet_size=2, symbol_costs=(1.0,))
        with pytest.raises(ValueError, match="'symbol_costs'"):
            build_coding_mcg(symbol_costs=(1.0, -2.0))
        with pytest.raises(ValueError, match="'length_limit'"):
            build_coding_mcg(length_limit=0)
        with pytest.raises(ValueError, match="'alphabet_size'"):
            build_coding_mcg(alphabet_size=0)

    def test_costs_and_limit_combine(self):
        mdp = build_coding_mcg(alphabet_size=2, symbol_costs=(1.0, 3.0), length_limit=3).mdp
        assert mdp.horizon_bound == 4
        assert mdp.rewards[:3, :2].tolist() == [[-1.0, -3.0]] * 3
        assert mdp.rewards[3:].tolist() == [[0.0] * 3] * 2


class TestChannelChain:
    def test_uniform_policy_budget_is_one_bit_per_step(self):
        chain = build_channel_chain(200, 2)
        q = exact_soft_vi(chain, alpha=1.0)
        assert np.all(softmax_policy(q, 0).probs == 0.5)
        # Deterministic length-200 episode under any policy.
        z = rollout(chain, lambda s: softmax_policy(q, s), np.random.default_rng(0))
        assert len(z.steps) == 200

    def test_single_step_single_action_has_no_capacity(self):
        chain = build_channel_chain(1, 1)
        mcg = chain_mcg(chain, MessageSpace.explicit(2))
        q = exact_soft_vi(chain, alpha=1.0)
        rec = run_roundtrip(q, mcg, 1, np.random.default_rng(0))
        final = rec.receiver_belief_trace[-1]
        assert np.allclose(final.blocks[0].probs, [0.5, 0.5])
        assert rec.decoded == 0  # MAP tie breaks to the lowest index

    def test_referential_game_is_zero_reward_chain(self):
        chain = build_channel_chain(5, 3)
        assert np.all(chain.rewards == 0.0)
        out = enumerate_trajectories(chain, lambda s: Dist.uniform(3))
        assert all(trajectory_return(z) == 0.0 for z, _ in out)

    def test_per_step_rewards(self):
        chain = build_channel_chain(3, 2, rewards={1: 0.5})
        z = rollout(chain, lambda s: Dist.uniform(2), np.random.default_rng(0))
        assert trajectory_return(z) == 0.5


class TestGameCatalogue:
    @pytest.mark.parametrize("name", GAMES)
    def test_every_parameter_has_a_default(self, name):
        mcg = build_env(name, {}, noise_p=0.1)
        assert mcg.noise_p == 0.1 and mcg.priority == 1.0

    @pytest.mark.parametrize(
        "name, params, key",
        [
            ("toy", {"n_messages": 4}, "n_messages"),
            ("codegrid", {"steps": 5}, "steps"),
            ("chain", {"noise_p": 0.2}, "noise_p"),
            ("nope", {}, "nope"),
        ],
    )
    def test_unknown_game_or_parameter_is_an_error(self, name, params, key):
        with pytest.raises(ValueError, match=repr(key)):
            build_env(name, params)

    @pytest.mark.parametrize("priority", [float("nan"), float("inf")])
    def test_priority_must_be_finite(self, priority):
        mcg = build_env("codegrid", {})
        with pytest.raises(ValueError, match="message priority must be finite"):
            McgSpec(mcg.mdp, mcg.message_space, mcg.prior, priority)
        with pytest.raises(ValueError, match="message priority must be finite"):
            build_env("codegrid", {"priority": priority})

    def test_chain_takes_json_reward_keys(self):
        mcg = build_env("chain", {"steps": 5, "rewards": {"3": 1.0}})
        assert mcg.mdp.rewards[3].tolist() == [1.0, 1.0]
        assert mcg.mdp.rewards.sum() == 2.0

    def test_builder_is_looked_up_at_call_time(self, monkeypatch):
        # A wrapper installed on the module's name (as a tracer installs one)
        # is the builder that build_env calls.
        calls = []
        original = envs.build_codegrid

        def wrapped(*args, **kwargs):
            calls.append(kwargs)
            return original(*args, **kwargs)

        monkeypatch.setattr(envs, "build_codegrid", wrapped)
        build_env("codegrid", {"n_messages": 4})
        assert calls == [{"n_messages": 4, "noise_p": 0.0}]
