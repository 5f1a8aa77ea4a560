"""Message-conditional Q-learning baseline tests."""

import dataclasses
import logging
import math

import numpy as np
import pytest

from trajcomm import baseline
from trajcomm.baseline import MessageConditionalQ, rollout_rl_pr, train_rl_pr
from trajcomm.dist import Dist, sample_index
from trajcomm.envs import (
    GAMES,
    build_channel_chain,
    build_codegrid,
    build_coding_mcg,
    build_env,
    build_toy_mcg,
    chain_mcg,
)
from trajcomm.maxent import exact_soft_vi, softmax_parts, train_soft_q
from trajcomm.mcg import Belief, McgSpec, MessageSpace
from trajcomm.mdp import MdpSpec, apply_actuator_noise, enterable_states, step
from trajcomm.sweep import SweepConfig, run_sweep

from mdp_oracle import enumerate_trajectories


def single_message_game(priority=0.0):
    mcg = build_toy_mcg(priority=0.0)
    return McgSpec(
        mdp=mcg.mdp,
        message_space=MessageSpace.explicit(1),
        prior=Belief((Dist([1.0]),)),
        priority=priority,
    )


def set_schedule(monkeypatch, alpha_start, alpha_end, lr_start, lr_end):
    """Give ``train_rl_pr`` another temperature and learning-rate schedule."""
    monkeypatch.setattr(baseline, "ALPHA_START", alpha_start)
    monkeypatch.setattr(baseline, "ALPHA_END", alpha_end)
    monkeypatch.setattr(baseline, "LR_START", lr_start)
    monkeypatch.setattr(baseline, "LR_END", lr_end)


def evaluate(q, mcg, episodes):
    """Decode hits and returns of ``episodes`` greedy evaluation episodes, each
    of a message drawn from the prior."""
    rng = np.random.default_rng(0)
    hits, rets = np.zeros(episodes), np.zeros(episodes)
    for i in range(episodes):
        m = sample_index(mcg.prior.blocks[0].probs, rng)
        guess, rets[i] = rollout_rl_pr(q, mcg, m, rng)
        hits[i] = guess == m
    return hits, rets


class TestTrainRlPr:
    def test_factored_space_unsupported(self):
        chain = build_channel_chain(4, 2)
        mcg = chain_mcg(chain, MessageSpace.product([2, 2]))
        with pytest.raises(ValueError):
            train_rl_pr(mcg, 10, np.random.default_rng(0))

    def test_message_space_cap(self):
        chain = build_channel_chain(4, 2)
        mcg = chain_mcg(chain, MessageSpace.explicit(200))
        with pytest.raises(ValueError):
            train_rl_pr(mcg, 10, np.random.default_rng(0))

    def test_rejects_no_episodes(self):
        with pytest.raises(ValueError, match="episode count"):
            train_rl_pr(build_toy_mcg(), 0, np.random.default_rng(0))

    def test_rejects_a_cycle(self):
        with pytest.raises(ValueError, match="horizon bound"):
            train_rl_pr(self_loop_game(), 10, np.random.default_rng(0))

    def test_single_message_reduces_to_soft_q_plus_shift(self, monkeypatch):
        # With one message the posterior is always the point mass, so the
        # shaped terminal reward is a constant priority bonus: training on an
        # MDP whose terminal rewards carry that bonus gives the same values.
        zeta = 2.0
        mcg = single_message_game(priority=zeta)
        set_schedule(monkeypatch, 1.0, 1.0, 0.05, 0.05)
        q = train_rl_pr(mcg, 20_000, np.random.default_rng(3))
        shifted = exact_soft_vi(mcg.mdp, alpha=1.0)
        assert np.max(np.abs(q.values[0, 0] - (shifted.values[0] + zeta))) < 0.05

    def test_toy_large_priority_separates_messages(self, monkeypatch):
        mcg = build_toy_mcg(priority=10.0)
        set_schedule(monkeypatch, 1.0, 0.15, 0.03, 0.03)
        q = train_rl_pr(mcg, 200_000, np.random.default_rng(0))
        hits, rets = evaluate(q, mcg, 1000)
        assert hits.mean() >= 0.95
        # Message-separated play keeps high return: best two actions.
        assert rets.mean() >= 3.0


def self_loop_game():
    """Three messages over a stochastic MDP whose states 0 and 1 each have an
    action that stays put half the time, which breaks its horizon bound."""
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
        prior=Belief((Dist([0.5, 0.3, 0.2]),)),
        priority=1.0,
    )


def stochastic_game(noise_p=0.0):
    """Three messages over an acyclic MDP whose states 0 and 1 each have an
    action with two successors."""
    mdp = MdpSpec(
        n_states=4,
        n_actions=2,
        # Rows (0,0) -> 1 or 2, (0,1) -> 1, (1,0) -> 3, (1,1) -> 2 or 3, (2,*) -> 3.
        row_offsets=[0, 2, 3, 4, 6, 7, 8, 8, 8],
        next_state=[1, 2, 1, 3, 2, 3, 3, 3],
        prob=[0.5, 0.5, 1.0, 1.0, 0.5, 0.5, 1.0, 1.0],
        rewards=np.array([[0.3, -0.2], [0.5, 0.1], [0.2, 0.4], [0.0, 0.0]]),
        initial_state=0,
        terminal_states=frozenset({3}),
        horizon_bound=3,
    )
    return McgSpec(
        mdp=mdp,
        message_space=MessageSpace.explicit(3),
        prior=Belief((Dist([0.5, 0.3, 0.2]),)),
        priority=1.0,
        noise_p=noise_p,
    )


def zero_probability_game(noise_p=0.0):
    """Three messages over an acyclic MDP whose state 3 is entered only
    through a stored entry of probability 0: no episode visits it, but it is
    one of the states an episode can enter after its first step."""
    mdp = MdpSpec(
        n_states=5,
        n_actions=2,
        # Rows (0,0) -> 1 or 2, (0,1) -> 1 or 3 (probability 0), (1,0) -> 4,
        # (1,1) -> 2, (2,*) -> 4, (3,*) -> 4.
        row_offsets=[0, 2, 4, 5, 6, 7, 8, 9, 10, 10, 10],
        next_state=[1, 2, 1, 3, 4, 2, 4, 4, 4, 4],
        prob=[0.5, 0.5, 1.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0],
        rewards=np.array([[0.3, -0.2], [0.5, 0.1], [0.2, 0.4], [1.0, 1.0], [0.0, 0.0]]),
        initial_state=0,
        terminal_states=frozenset({4}),
        horizon_bound=3,
    )
    return McgSpec(
        mdp=mdp,
        message_space=MessageSpace.explicit(3),
        prior=Belief((Dist([0.5, 0.3, 0.2]),)),
        priority=1.0,
        noise_p=noise_p,
    )


def wide_codegrid():
    """The 8x8 codegrid with a 16-step deadline: 1,008 live states, 573 of
    them enterable after the first step."""
    return build_codegrid(8, width=8, height=8, goal=(8, 8), max_steps=16)


def per_step_rl_pr(mcg, episodes, rng):
    """Reference: the RL+PR trainer with a fresh softmax block for the behaviour
    policy and a separate soft-value target at every step, on the schedule
    the sweep runs: temperature 0.25 -> 0.015, rate 0.25 -> 0.02. The
    receiver's likelihood carries the actuator noise term written out here;
    at ε = 0 it is exactly the behaviour policy's column."""
    alpha_start, alpha_end, lr_start, lr_end = 0.25, 0.015, 0.25, 0.02
    mdp = mcg.mdp
    n_messages = mcg.message_space.cardinality
    q = np.zeros((mdp.n_states, n_messages, mdp.n_actions))
    lr = lr_start
    prior = mcg.prior.blocks[0].probs
    decay = (alpha_end / alpha_start) ** (1.0 / max(1, episodes - 1))
    lr_decay = (lr_end / lr) ** (1.0 / max(1, episodes - 1))
    alpha = alpha_start
    for _ in range(episodes):
        m = sample_index(prior, rng)
        b = prior.copy()
        s = mdp.initial_state
        while True:
            x = q[s] / alpha
            e = np.exp(x - x.max(axis=1, keepdims=True))
            rows = e / e.sum(axis=1, keepdims=True)
            a = sample_index(rows[m], rng)
            executed = apply_actuator_noise(a, mcg.noise_p, mdp.n_actions, rng)
            eps = mcg.noise_p
            b = b * ((1.0 - eps) * rows[:, executed] + eps / mdp.n_actions)
            total = b.sum()
            if total == 0.0:
                b = np.full(n_messages, 1.0 / n_messages)
            else:
                b = b / total
            nxt, reward = step(mdp, s, executed, rng)
            if mdp.is_terminal(nxt):
                target = reward + mcg.priority * float(b.max())
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


def long_chain_game(noise_p):
    """16 messages over a 50-step chain of 4 actions: every episode is 50
    steps long."""
    return chain_mcg(build_channel_chain(50, 4), MessageSpace.explicit(16), noise_p=noise_p)


class TestTrainRlPrReference:
    @pytest.mark.parametrize(
        "game, zeta, episodes",
        [
            (lambda: build_codegrid(8, priority=0.3), 0.3, 500),
            (lambda: build_codegrid(8, priority=3.0), 3.0, 500),
            (lambda: build_codegrid(8, priority=0.3, noise_p=0.1), 0.3, 500),
            (lambda: build_codegrid(8, priority=3.0, noise_p=0.1), 3.0, 500),
            (lambda: build_toy_mcg(priority=10.0), 10.0, 2000),
            (stochastic_game, 1.0, 2000),
            (lambda: stochastic_game(noise_p=0.1), 1.0, 2000),
            (lambda: long_chain_game(0.0), 1.0, 60),
            (lambda: long_chain_game(0.2), 1.0, 60),
            (lambda: build_codegrid(8, width=6, height=6, goal=(6, 6), max_steps=12), 1.0, 300),
            (lambda: build_codegrid(128), 1.0, 100),
            (wide_codegrid, 1.0, 200),
            (zero_probability_game, 1.0, 2000),
            (lambda: zero_probability_game(noise_p=0.2), 1.0, 2000),
            (build_coding_mcg, 1.0, 1000),
        ],
        ids=[
            "codegrid-8-zeta0.3", "codegrid-8-zeta3", "codegrid-8-zeta0.3-eps0.1",
            "codegrid-8-zeta3-eps0.1", "toy", "stochastic", "stochastic-eps0.1",
            "chain-50-eps0", "chain-50-eps0.2", "codegrid-6x6-deadline", "codegrid-128",
            "codegrid-8x8-deadline16", "zero-probability-entry", "zero-probability-entry-eps0.2",
            "coding",
        ],
    )
    def test_values_match_per_step_loop_bytes(self, game, zeta, episodes):
        # The game carries the shaping zeta.
        mcg = game()
        assert mcg.priority == zeta
        q = train_rl_pr(mcg, episodes, np.random.default_rng(7))
        reference = per_step_rl_pr(mcg, episodes, np.random.default_rng(7))
        assert q.values.tobytes() == reference.tobytes()


def terminal_start_game():
    """Three messages over the toy MDP entered at its terminal state."""
    mdp = MdpSpec.deterministic(
        next_table=np.ones((2, 3), dtype=np.int64),
        rewards=np.array([[4.0, 3.0, 0.0], [0.0, 0.0, 0.0]]),
        initial_state=1,
        terminal_states=frozenset({1}),
        horizon_bound=1,
    )
    return McgSpec(
        mdp=mdp,
        message_space=MessageSpace.explicit(3),
        prior=Belief((Dist([0.5, 0.3, 0.2]),)),
        priority=1.0,
    )


def enterable_by_layers(mdp):
    """Brute force: the live states entered in exactly k steps, for k = 1 up
    to the horizon bound, over every branch ``successors`` lists."""
    layer, entered = {mdp.initial_state}, set()
    for _ in range(mdp.horizon_bound):
        layer = {
            t
            for s in layer
            if not mdp.is_terminal(s)
            for a in range(mdp.n_actions)
            for t, _ in mdp.successors(s, a)
        }
        entered |= layer
    return sorted(t for t in entered if not mdp.is_terminal(t))


ENTERABLE_GAMES = [(name, lambda name=name: build_env(name, {})) for name in GAMES] + [
    ("stochastic", stochastic_game),
    ("zero-probability-entry", zero_probability_game),
    ("terminal-start", terminal_start_game),
    ("chain-50", lambda: long_chain_game(0.0)),
    ("codegrid-6x6-deadline",
     lambda: build_codegrid(8, width=6, height=6, goal=(6, 6), max_steps=12)),
    ("codegrid-8x8-deadline16", wide_codegrid),
]


class TestEnterableStates:
    @pytest.mark.parametrize(
        "game", [g for _, g in ENTERABLE_GAMES], ids=[name for name, _ in ENTERABLE_GAMES]
    )
    def test_matches_a_brute_force_closure(self, game):
        mdp = game().mdp
        assert enterable_states(mdp) == enterable_by_layers(mdp)

    def test_counts(self):
        assert len(enterable_states(build_toy_mcg().mdp)) == 0
        assert len(enterable_states(build_codegrid(8).mdp)) == 77
        mdp = wide_codegrid().mdp
        assert mdp.n_states - len(mdp.terminal_states) == 1008
        assert len(enterable_states(mdp)) == 573

    def test_a_state_entered_with_probability_zero_is_in_the_set(self):
        assert enterable_states(zero_probability_game().mdp) == [1, 2, 3]

    def test_a_state_outside_the_set_raises_instead_of_reading_another_row(self, monkeypatch):
        # Every episode of the chain enters its last live state.
        mcg = chain_mcg(build_channel_chain(20, 2), MessageSpace.explicit(4))
        enterable = enterable_states(mcg.mdp)
        monkeypatch.setattr(baseline, "enterable_states", lambda mdp: enterable[:-1])
        with pytest.raises(KeyError):
            train_rl_pr(mcg, 5, np.random.default_rng(0))


class TestTrainRlPrEpisodeShape:
    def test_terminal_initial_state_draws_messages_and_learns_nothing(self):
        # Each episode draws its message and takes no step; the generator ends
        # where that many draws from the prior leave it.
        mcg = terminal_start_game()
        rng, expected = np.random.default_rng(5), np.random.default_rng(5)
        q = train_rl_pr(mcg, 40, rng)
        for _ in range(40):
            sample_index(mcg.prior.blocks[0].probs, expected)
        assert q.values.tobytes() == np.zeros((2, 3, 3)).tobytes()
        assert rng.bit_generator.state == expected.bit_generator.state

    @pytest.mark.parametrize(
        "game, episodes, per_episode",
        [
            # No state can be entered after the first step: the initial block
            # serves the whole episode.
            (build_toy_mcg, 50, (1, 1)),
            # Every episode goes on: the initial block stacked on message m's
            # row at every enterable state, then the later blocks.
            (lambda: chain_mcg(build_channel_chain(20, 2), MessageSpace.explicit(4)), 50, (2, 2)),
            # An episode that ends at its first step takes one softmax. One that
            # goes on after it takes three, the initial block alone and then
            # stacked, so no two episodes in a row take more than four.
            (lambda: build_codegrid(8), 200, (1, 2)),
        ],
        ids=["toy", "chain-20", "codegrid-8"],
    )
    def test_softmax_calls_per_episode(self, monkeypatch, game, episodes, per_episode):
        calls = 0

        def counted(q, alpha):
            nonlocal calls
            calls += 1
            return softmax_parts(q, alpha)

        monkeypatch.setattr(baseline, "softmax_parts", counted)
        train_rl_pr(game(), episodes, np.random.default_rng(0))
        lo, hi = per_episode
        assert lo * episodes <= calls <= hi * episodes


    def test_an_episode_after_one_that_stopped_softmaxes_the_block_alone(self, monkeypatch):
        # The coding game mostly stops at its first step, so most episodes
        # softmax the initial block alone (2 messages), not stacked on its 63
        # enterable states. The first episode is stacked.
        rows = []

        def counted(q, alpha):
            rows.append(len(q))
            return softmax_parts(q, alpha)

        monkeypatch.setattr(baseline, "softmax_parts", counted)
        train_rl_pr(build_coding_mcg(), 500, np.random.default_rng(0))
        assert rows[0] == 65
        assert rows.count(2) >= 450 and 0 < rows.count(65) <= 25
        assert len(rows) <= 2 * 500


class TestMessageConditionalQ:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_values(self, bad):
        values = np.zeros((3, 2, 2))
        values[1, 0, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            MessageConditionalQ(values=values)


class TestEvaluateRlPr:
    def test_untrained_uniform_accuracy_is_prior_map(self):
        # All-zero tables play identically for every message, so the exact
        # posterior never moves and the receiver guesses at the prior MAP rate.
        chain = build_channel_chain(4, 2)
        mcg = chain_mcg(chain, MessageSpace.explicit(8))
        q = MessageConditionalQ(values=np.zeros((chain.n_states, 8, 2)))
        hits, _ = evaluate(q, mcg, 4000)
        assert abs(hits.mean() - 1 / 8) < 0.03

    def test_single_message_accuracy_is_one(self):
        mcg = single_message_game()
        q = MessageConditionalQ(values=np.zeros((mcg.mdp.n_states, 1, 3)))
        hits, _ = evaluate(q, mcg, 200)
        assert hits.mean() == 1.0

    def test_babbling_policy_scores_half_plus_return(self):
        # Greedy play of the all-zero table is the babbling sender: always
        # the first action, posterior pinned at the prior, receiver forced to
        # the tie-broken MAP. Accuracy 1/2, return 4.
        mcg = build_toy_mcg(priority=6.0)
        q = MessageConditionalQ(values=np.zeros((mcg.mdp.n_states, 2, 3)))
        hits, rets = evaluate(q, mcg, 4000)
        assert rets.mean() == 4.0
        assert abs(hits.mean() - 0.5) < 0.03
        objective = rets.mean() + mcg.priority * hits.mean()
        assert abs(objective - (4.0 + mcg.priority / 2)) < 0.1

    def test_accuracy_at_least_prior_map(self):
        # A MAP receiver with the exact posterior can never do worse in
        # expectation than guessing the prior mode.
        rng = np.random.default_rng(11)
        chain = build_channel_chain(4, 2)
        mcg = chain_mcg(chain, MessageSpace.explicit(4))
        for seed in range(3):
            values = rng.normal(scale=0.5, size=(chain.n_states, 4, 2))
            q = MessageConditionalQ(values=values)
            hits, _ = evaluate(q, mcg, 3000)
            standard_error = hits.std(ddof=1) / math.sqrt(len(hits))
            assert hits.mean() >= 0.25 - 3 * standard_error - 1e-9


def posterior_from_scratch(q, mcg, steps, alpha):
    """Recompute the perfect receiver's posterior directly from a trajectory.

    Used to cross-check the incrementally maintained belief: the posterior is
    proportional to prior(m) * prod_t lik_t(m) under the given temperature,
    where lik_t(m) = (1-ε) pi(a_t | s_t, m) + ε/|A| under actuator noise ε.
    """
    eps = mcg.noise_p
    b = mcg.prior.blocks[0].probs.copy()
    for s, executed in steps:
        rows = softmax_parts(q.values[s], alpha)[0]
        b = b * ((1.0 - eps) * rows[:, executed] + eps / rows.shape[1])
    total = b.sum()
    return b / total if total > 0 else np.full(len(b), 1.0 / len(b))


class TestPerfectReceiverPosterior:
    def test_incremental_matches_scratch_recompute(self):
        rng = np.random.default_rng(12)
        chain = build_channel_chain(5, 3)
        mcg = chain_mcg(chain, MessageSpace.explicit(6))
        values = rng.normal(size=(chain.n_states, 6, 3))
        q = MessageConditionalQ(values=values)
        for _ in range(20):
            m = int(rng.integers(6))
            # Reproduce the trainer's incremental posterior by hand.
            b = mcg.prior.blocks[0].probs.copy()
            s = chain.initial_state
            steps = []
            while not chain.is_terminal(s):
                rows = softmax_parts(values[s], 0.5)[0]
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
        q = MessageConditionalQ(values=values)
        policies = {
            m: (lambda s, _m=m: Dist(softmax_parts(values[s], 0.4)[0][_m]))
            for m in range(3)
        }
        m_true = 1
        b = mcg.prior.blocks[0].probs.copy()
        s = chain.initial_state
        steps = []
        while not chain.is_terminal(s):
            rows = softmax_parts(values[s], 0.4)[0]
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


class _ScriptedNoise:
    """Stands in for the generator of ``apply_actuator_noise``: ``random``
    returns the scripted draws in turn, and every flip lands on ``flip_to``."""

    def __init__(self, draws, flip_to):
        self.draws = list(draws)
        self.flip_to = flip_to

    def random(self):
        return self.draws.pop(0)

    def integers(self, n):
        return self.flip_to


class TestSharedBayesStep:
    @pytest.mark.parametrize("noise_p", [0.0, 0.1])
    def test_codegrid_8_logs_no_wipeout(self, noise_p, caplog):
        # Training and evaluation take the coder's Bayes step, which logs a
        # belief that no message could have produced; none arises here.
        mcg = build_codegrid(8, noise_p=noise_p)
        with caplog.at_level(logging.WARNING, logger="trajcomm.coding"):
            q = train_rl_pr(mcg, 600, np.random.default_rng(3))
            hits, _ = evaluate(q, mcg, 64)
        assert not any("wiped out" in r.message for r in caplog.records)
        assert hits.mean() > 0.0


class TestNoiseAwareReceiver:
    def test_one_flipped_action_does_not_reset_the_belief(self):
        # Message 0 always picks action 0 and message 1 action 1; no message
        # picks action 2. Message 1's first action goes through and its second
        # is flipped to action 2. A noise-blind receiver gave both messages
        # likelihood 0 there, reset to uniform and guessed message 0; the
        # noise-aware one weighs both alike and keeps its lead for message 1.
        chain = build_channel_chain(2, 3)
        mcg = chain_mcg(chain, MessageSpace.explicit(2), noise_p=0.3)
        values = np.zeros((chain.n_states, 2, 3))
        values[:, 0, 0] = values[:, 1, 1] = 1.0
        rng = _ScriptedNoise(draws=[0.9, 0.0], flip_to=2)
        guess, _ = rollout_rl_pr(MessageConditionalQ(values=values), mcg, 1, rng)
        assert rng.draws == []
        assert guess == 1


class TestPriorityZeroMatchesPlainSoftQ:
    def test_returns_converge_to_plain_soft_q(self, monkeypatch):
        mcg = single_message_game()
        set_schedule(monkeypatch, 0.5, 0.5, 0.05, 0.05)
        q_baseline = train_rl_pr(mcg, 20_000, np.random.default_rng(5))
        q_plain = train_soft_q(mcg.mdp, 0.5, 20_000, 0.05, np.random.default_rng(5))
        assert np.max(np.abs(q_baseline.values[:, 0, :] - q_plain.values)) < 0.1


class TestRlPrSweepRows:
    def test_rows_match_recorded_values(self):
        # Every float of a small RL+PR sweep, recorded from an earlier version
        # of the trainer and evaluator: a change to either that moves a single
        # draw or update shows up here. The two noisy rows were recorded again
        # when the perfect receiver learned the actuator noise.
        cfg = SweepConfig(
            env="codegrid", env_params={"n_messages": 8}, method="rl_pr",
            grid=(0.1, 3.0), seeds=(2,), noise_p=(0.0, 0.1), episodes=600, rollouts=16,
        )
        se_1 = 0.10077822185373188
        assert [dataclasses.astuple(r) for r in run_sweep(cfg)] == [
            ("rl_pr", 0.1, 0.0, 2, 1.0, 0.0, 0.1875, se_1, 0.0, 0.0, 16, ""),
            ("rl_pr", 0.1, 0.1, 2, 0.9375, 0.0625, 0.0, 0.0, 0.0625, 0.0625, 16, ""),
            ("rl_pr", 3.0, 0.0, 2, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 16, ""),
            ("rl_pr", 3.0, 0.1, 2, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 16, ""),
        ]

    def test_negative_zeta_is_an_error_row(self):
        # The cell's zeta becomes the game's priority, which McgSpec checks.
        cfg = SweepConfig(
            env="codegrid", env_params={"n_messages": 4}, method="rl_pr",
            grid=(-1.0,), seeds=(0,), episodes=10, rollouts=2,
        )
        (row,) = run_sweep(cfg)
        assert row.error == "ValueError: message priority must be non-negative"
        assert row.rollouts == 0

    def test_nan_zeta_is_an_error_row(self):
        # This cell used to train a table of NaN and report every message
        # decoded, with no error.
        cfg = SweepConfig(
            env="codegrid", env_params={"n_messages": 8}, method="rl_pr",
            grid=(float("nan"),), seeds=(0,), episodes=300, rollouts=5,
        )
        (row,) = run_sweep(cfg)
        assert row.error == "ValueError: message priority must be finite"
        assert (row.rollouts, row.decode_accuracy) == (0, 0.0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_huge_finite_zeta_is_an_error_row(self):
        # At zeta = 1e308, Q / alpha overflows and training would leave NaN in
        # the table; this cell used to report every message decoded, with no
        # error. Warnings are ignored here as the command line ignores them,
        # so the table itself must be refused.
        cfg = SweepConfig(
            env="codegrid", env_params={"n_messages": 8}, method="rl_pr",
            grid=(1e308,), seeds=(0,), episodes=300, rollouts=5,
        )
        (row,) = run_sweep(cfg)
        assert row.error == "ValueError: zeta must keep Q / alpha finite, got 1e+308"
        assert (row.rollouts, row.decode_accuracy) == (0, 0.0)

    def test_huge_finite_zeta_warns_nothing(self):
        # Without a filterwarnings mark, the suite turns any RuntimeWarning
        # into a failure: training stops at the first overflow, before numpy
        # warns, and the row names zeta.
        cfg = SweepConfig(
            env="codegrid", env_params={"n_messages": 8}, method="rl_pr",
            grid=(1e308, 1.0), seeds=(0,), episodes=300, rollouts=5,
        )
        huge, fine = run_sweep(cfg)
        assert huge.error == "ValueError: zeta must keep Q / alpha finite, got 1e+308"
        assert (fine.error, fine.rollouts, fine.decode_accuracy) == ("", 5, 1.0)

    def test_training_raises_at_the_first_overflow(self):
        mcg = dataclasses.replace(build_codegrid(8), priority=1e308)
        with pytest.raises(FloatingPointError, match="overflow"):
            train_rl_pr(mcg, 300, np.random.default_rng(0))
