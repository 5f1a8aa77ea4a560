"""Message-conditional Q-learning baseline tests."""

import math

import numpy as np
import pytest

from trajcomm.baseline import (
    MessageConditionalQ,
    evaluate_rl_pr,
    posterior_from_scratch,
    rollout_rl_pr,
    train_rl_pr,
)
from trajcomm.dist import Dist, sample_index
from trajcomm.envs import build_channel_chain, build_codegrid, build_toy_mcg, chain_mcg
from trajcomm.maxent import TrainConfig, exact_soft_vi, train_soft_q
from trajcomm.mcg import Belief, McgSpec, MessageSpace
from trajcomm.mdp import MdpSpec, apply_actuator_noise, enumerate_trajectories, step


def single_message_game():
    mcg = build_toy_mcg(priority=0.0)
    return McgSpec(
        mdp=mcg.mdp,
        message_space=MessageSpace.explicit(1),
        prior=Belief.explicit(Dist([1.0])),
        priority=0.0,
    )


class TestTrainRlPr:
    def test_factored_space_unsupported(self):
        chain = build_channel_chain(4, 2)
        mcg = chain_mcg(chain, MessageSpace.product([2, 2]))
        with pytest.raises(ValueError):
            train_rl_pr(mcg, 1.0, TrainConfig(episodes=10, seed=0))

    def test_message_space_cap(self):
        chain = build_channel_chain(4, 2)
        mcg = chain_mcg(chain, MessageSpace.explicit(200))
        with pytest.raises(ValueError):
            train_rl_pr(mcg, 1.0, TrainConfig(episodes=10, seed=0))

    def test_single_message_reduces_to_soft_q_plus_shift(self):
        # With one message the posterior is always the point mass, so the
        # shaped terminal reward is a constant priority bonus: training on an
        # MDP whose terminal rewards carry that bonus gives the same values.
        mcg = single_message_game()
        zeta = 2.0
        q = train_rl_pr(
            mcg, zeta, TrainConfig(episodes=20_000, learning_rate=0.05, seed=3),
            alpha_start=1.0, alpha_end=1.0,
        )
        shifted = exact_soft_vi(mcg.mdp, alpha=1.0)
        assert np.max(np.abs(q.values[0, 0] - (shifted.values[0] + zeta))) < 0.05

    def test_toy_large_priority_separates_messages(self):
        mcg = build_toy_mcg(priority=10.0)
        q = train_rl_pr(
            mcg, 10.0, TrainConfig(episodes=200_000, learning_rate=0.03, seed=0),
            alpha_start=1.0, alpha_end=0.15,
        )
        stats = evaluate_rl_pr(q, mcg, episodes=1000)
        assert stats.accuracy >= 0.95
        # Message-separated play keeps high return: best two actions.
        assert stats.mean_return >= 3.0


def self_loop_game(noise_p=0.0):
    """Three messages over a stochastic MDP whose states 0 and 1 each have an
    action that stays put half the time."""
    mdp = MdpSpec(
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
    return McgSpec(
        mdp=mdp,
        message_space=MessageSpace.explicit(3),
        prior=Belief.explicit(Dist([0.5, 0.3, 0.2])),
        priority=1.0,
        noise_p=noise_p,
    )


def per_step_rl_pr(mcg, priority, cfg, rng, alpha_start, alpha_end, lr_end):
    """Reference: the RL+PR trainer with a fresh softmax block for the behaviour
    policy and a separate soft-value target at every step."""
    mdp = mcg.mdp
    n_messages = mcg.message_space.cardinality
    q = np.zeros((mdp.n_states, n_messages, mdp.n_actions))
    lr = cfg.learning_rate
    prior = mcg.prior.blocks[0].probs
    decay = (alpha_end / alpha_start) ** (1.0 / max(1, cfg.episodes - 1))
    lr_decay = (lr_end / lr) ** (1.0 / max(1, cfg.episodes - 1))
    alpha = alpha_start
    for _ in range(cfg.episodes):
        m = sample_index(prior, rng)
        b = prior.copy()
        s = mdp.initial_state
        while True:
            x = q[s] / alpha
            e = np.exp(x - x.max(axis=1, keepdims=True))
            rows = e / e.sum(axis=1, keepdims=True)
            a = sample_index(rows[m], rng)
            executed = apply_actuator_noise(a, mcg.noise_p, mdp.n_actions, rng)
            b = b * rows[:, executed]
            total = b.sum()
            if total < 1e-300:
                b = np.full(n_messages, 1.0 / n_messages)
            else:
                b = b / total
            nxt, reward = step(mdp, s, executed, rng)
            if mdp.is_terminal(nxt):
                target = reward + priority * float(b.max())
            else:
                x = q[nxt, m] / alpha
                mx = x.max()
                target = reward + alpha * (mx + math.log(float(np.exp(x - mx).sum())))
            q[s, m, executed] += lr * (target - q[s, m, executed])
            if mdp.is_terminal(nxt):
                break
            s = nxt
        alpha = max(alpha_end, alpha * decay)
        lr *= lr_decay
    return q


class TestTrainRlPrReference:
    @pytest.mark.parametrize(
        "game, zeta, episodes",
        [
            (lambda: build_codegrid(8), 0.3, 500),
            (lambda: build_codegrid(8), 3.0, 500),
            (lambda: build_codegrid(8, noise_p=0.1), 0.3, 500),
            (lambda: build_codegrid(8, noise_p=0.1), 3.0, 500),
            (lambda: build_toy_mcg(priority=10.0), 10.0, 2000),
            (self_loop_game, 1.0, 2000),
            (lambda: self_loop_game(noise_p=0.1), 1.0, 2000),
        ],
        ids=[
            "codegrid-8-zeta0.3", "codegrid-8-zeta3", "codegrid-8-zeta0.3-eps0.1",
            "codegrid-8-zeta3-eps0.1", "toy", "self-loop", "self-loop-eps0.1",
        ],
    )
    def test_values_match_per_step_loop_bytes(self, game, zeta, episodes):
        # The sweep's RL+PR schedule: temperature 0.25 -> 0.015, rate 0.25 -> 0.02.
        mcg = game()
        cfg = TrainConfig(episodes=episodes, learning_rate=0.25, seed=0)
        schedule = dict(alpha_start=0.25, alpha_end=0.015, lr_end=0.02)
        q = train_rl_pr(mcg, zeta, cfg, rng=np.random.default_rng(7), **schedule)
        reference = per_step_rl_pr(mcg, zeta, cfg, np.random.default_rng(7), **schedule)
        assert q.values.tobytes() == reference.tobytes()


class TestEvaluateRlPr:
    def test_untrained_uniform_accuracy_is_prior_map(self):
        # All-zero tables play identically for every message, so the exact
        # posterior never moves and the soft-policy receiver guesses at the
        # prior MAP rate.
        chain = build_channel_chain(4, 2)
        mcg = chain_mcg(chain, MessageSpace.explicit(8))
        q = MessageConditionalQ(
            values=np.zeros((chain.n_states, 8, 2)), alpha_start=1.0, alpha_end=1.0
        )
        stats = evaluate_rl_pr(q, mcg, episodes=4000)
        assert abs(stats.accuracy - 1 / 8) < 0.03

    def test_single_message_accuracy_is_one(self):
        mcg = single_message_game()
        q = MessageConditionalQ(
            values=np.zeros((mcg.mdp.n_states, 1, 3)), alpha_start=1.0, alpha_end=1.0
        )
        stats = evaluate_rl_pr(q, mcg, episodes=200)
        assert stats.accuracy == 1.0

    def test_babbling_policy_scores_half_plus_return(self):
        # Greedy play of the all-zero table is the babbling sender: always
        # the first action, posterior pinned at the prior, receiver forced to
        # the tie-broken MAP. Accuracy 1/2, return 4.
        mcg = build_toy_mcg(priority=6.0)
        q = MessageConditionalQ(
            values=np.zeros((mcg.mdp.n_states, 2, 3)), alpha_start=1.0, alpha_end=1.0
        )
        stats = evaluate_rl_pr(q, mcg, episodes=4000, greedy=True)
        assert stats.mean_return == 4.0
        assert abs(stats.accuracy - 0.5) < 0.03
        objective = stats.mean_return + mcg.priority * stats.accuracy
        assert abs(objective - (4.0 + mcg.priority / 2)) < 0.1

    def test_accuracy_at_least_prior_map(self):
        # A MAP receiver with the exact posterior can never do worse in
        # expectation than guessing the prior mode.
        rng = np.random.default_rng(11)
        chain = build_channel_chain(4, 2)
        mcg = chain_mcg(chain, MessageSpace.explicit(4))
        for seed in range(3):
            values = rng.normal(scale=0.5, size=(chain.n_states, 4, 2))
            q = MessageConditionalQ(values=values, alpha_start=0.3, alpha_end=0.3)
            stats = evaluate_rl_pr(q, mcg, episodes=3000)
            assert stats.accuracy >= 0.25 - 3 * stats.accuracy_se - 1e-9


class TestPerfectReceiverPosterior:
    def test_incremental_matches_scratch_recompute(self):
        rng = np.random.default_rng(12)
        chain = build_channel_chain(5, 3)
        mcg = chain_mcg(chain, MessageSpace.explicit(6))
        values = rng.normal(size=(chain.n_states, 6, 3))
        q = MessageConditionalQ(values=values, alpha_start=0.5, alpha_end=0.5)
        for _ in range(20):
            m = int(rng.integers(6))
            # Reproduce the rollout's incremental posterior by hand.
            from trajcomm.baseline import _behavior

            b = mcg.prior.blocks[0].probs.copy()
            s = chain.initial_state
            steps = []
            while not chain.is_terminal(s):
                rows = _behavior(values[s], 0.5)
                a = sample_index(rows[m], rng)
                steps.append((s, a))
                b = b * rows[:, a]
                b = b / b.sum()
                s, _ = step(chain, s, a, rng)
            scratch = posterior_from_scratch(q, mcg, steps, alpha=0.5)
            assert np.max(np.abs(scratch - b)) < 1e-9

    def test_scratch_posterior_matches_trajectory_enumeration(self):
        # P(m | z) from Bayes over enumerated trajectory probabilities equals
        # the incremental product form.
        rng = np.random.default_rng(13)
        chain = build_channel_chain(3, 2)
        mcg = chain_mcg(chain, MessageSpace.explicit(3))
        values = rng.normal(size=(chain.n_states, 3, 2))
        q = MessageConditionalQ(values=values, alpha_start=0.4, alpha_end=0.4)
        from trajcomm.baseline import _behavior

        policies = {
            m: (lambda s, _m=m: Dist(_behavior(values[s], 0.4)[_m]))
            for m in range(3)
        }
        m_true = 1
        b = mcg.prior.blocks[0].probs.copy()
        s = chain.initial_state
        steps = []
        while not chain.is_terminal(s):
            rows = _behavior(values[s], 0.4)
            a = sample_index(rows[m_true], rng)
            steps.append((s, a))
            s, _ = step(chain, s, a, rng)
        scratch = posterior_from_scratch(q, mcg, steps, alpha=0.4)
        likes = []
        for m in range(3):
            match = 0.0
            for z, prob in enumerate_trajectories(chain, policies[m]):
                if tuple((st.state, st.executed_action) for st in z.steps) == tuple(steps):
                    match += prob
            likes.append(match / 1.0)
        posterior = np.array(likes) * mcg.prior.blocks[0].probs
        posterior /= posterior.sum()
        assert np.max(np.abs(posterior - scratch)) < 1e-9


class TestPriorityZeroMatchesPlainSoftQ:
    def test_returns_converge_to_plain_soft_q(self):
        mcg = single_message_game()
        cfg = TrainConfig(episodes=20_000, learning_rate=0.05, seed=5)
        q_baseline = train_rl_pr(mcg, 0.0, cfg, alpha_start=0.5, alpha_end=0.5)
        q_plain = train_soft_q(mcg.mdp, alpha=0.5, cfg=cfg)
        assert np.max(np.abs(q_baseline.values[:, 0, :] - q_plain.values)) < 0.1
