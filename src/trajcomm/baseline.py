"""RL baseline: message-conditional soft Q-learning with a perfect receiver.

The sender learns a table Q(s, m, a) by Boltzmann exploration with an
annealed temperature. Along every episode a perfect Bayesian receiver tracks
the exact posterior over messages against the sender's live behavior policy,
and the terminal transition's reward is shaped by priority * max_m b(m)
before the update. Evaluation rolls out the low-temperature policy and
guesses the MAP of the same exact posterior.

Training builds one softmax block per visited state, over every message.
That block is the behaviour policy and posterior column of the step taken
from the state, and its row for the episode's message also gives the
soft-value target of the step that entered it.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .dist import sample_index
from .maxent import softmax_parts
from .mcg import McgSpec
from .mdp import apply_actuator_noise, step

MAX_BASELINE_MESSAGES = 128


@dataclasses.dataclass(frozen=True, eq=False)
class MessageConditionalQ:
    """Q(s, m, a) values plus the temperature schedule they were trained with."""

    values: np.ndarray
    alpha_start: float
    alpha_end: float

    def __post_init__(self):
        values = np.array(self.values, dtype=np.float64)
        if values.ndim != 3:
            raise ValueError("message-conditional Q must be (states, messages, actions)")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


@dataclasses.dataclass(frozen=True)
class EvalStats:
    accuracy: float
    accuracy_se: float
    mean_return: float
    return_se: float


def _check_space(mcg: McgSpec) -> int:
    if mcg.message_space.factored:
        raise ValueError("the baseline supports explicit message spaces only")
    n = mcg.message_space.cardinality
    if n > MAX_BASELINE_MESSAGES:
        raise ValueError(f"baseline message spaces are capped at {MAX_BASELINE_MESSAGES}")
    return n


def _behavior(q_s: np.ndarray, alpha: float) -> np.ndarray:
    """Softmax rows for every message at one state: shape (messages, actions)."""
    return softmax_parts(q_s, alpha)[0]


def train_rl_pr(
    mcg: McgSpec,
    priority: float,
    cfg,
    rng: np.random.Generator | None = None,
    alpha_start: float = 1.0,
    alpha_end: float = 0.05,
    lr_end: float | None = None,
) -> MessageConditionalQ:
    """Train the message-conditional sender with perfect-receiver shaping.

    Per episode: sample a message, roll out the Boltzmann policy for that
    message, keep the exact posterior over all messages updated with each
    executed action against the full current policy, and add
    ``priority * max_m b(m)`` to the terminal transition's reward before the
    final Q update. The temperature anneals geometrically from
    ``alpha_start`` to ``alpha_end``; the learning rate anneals likewise when
    ``lr_end`` is given.

    One softmax block per visited state serves two steps: row ``m``'s max
    and exp-sum give the soft-value target of the step that enters the
    state, and the block is the behaviour policy and posterior column of the
    step taken from it. It is rebuilt after the update only on a self-loop,
    where the update changed it.
    """
    n_messages = _check_space(mcg)
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    mdp = mcg.mdp
    q = np.zeros((mdp.n_states, n_messages, mdp.n_actions))
    lr = cfg.learning_rate
    prior = mcg.prior.blocks[0].probs
    decay = (alpha_end / alpha_start) ** (1.0 / max(1, cfg.episodes - 1))
    lr_decay = 1.0 if lr_end is None else (lr_end / lr) ** (1.0 / max(1, cfg.episodes - 1))
    alpha = alpha_start
    for _ in range(cfg.episodes):
        m = sample_index(prior, rng)
        b = prior.copy()
        s = mdp.initial_state
        rows, mx, sums = softmax_parts(q[s], alpha)
        while True:
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
                if nxt != s:
                    rows, mx, sums = softmax_parts(q[nxt], alpha)
                target = reward + alpha * (mx[m, 0] + math.log(sums[m, 0]))
            q[s, m, executed] += lr * (target - q[s, m, executed])
            if mdp.is_terminal(nxt):
                break
            if nxt == s:
                rows, mx, sums = softmax_parts(q[s], alpha)
            s = nxt
        alpha = max(alpha_end, alpha * decay)
        lr *= lr_decay
    return MessageConditionalQ(values=q, alpha_start=alpha_start, alpha_end=alpha_end)


def rollout_rl_pr(
    q: MessageConditionalQ, mcg: McgSpec, m: int, rng: np.random.Generator,
    greedy: bool = False,
) -> tuple[int, float]:
    """One evaluation episode: returns (guessed message, MDP return).

    The sender plays the low-temperature (or greedy) policy for ``m``; the
    perfect receiver tracks the exact posterior against that same policy and
    guesses its argmax. Greedy play still scores the posterior against the
    matching deterministic per-message policies.
    """
    mdp = mcg.mdp
    alpha = q.alpha_end
    prior = mcg.prior.blocks[0].probs
    b = prior.copy()
    s = mdp.initial_state
    ret = 0.0
    while not mdp.is_terminal(s):
        if greedy:
            picks = q.values[s].argmax(axis=1)
            a = int(picks[m])
            executed = apply_actuator_noise(a, mcg.noise_p, mdp.n_actions, rng)
            likelihood = (picks == executed).astype(float)
        else:
            rows = _behavior(q.values[s], alpha)
            a = sample_index(rows[m], rng)
            executed = apply_actuator_noise(a, mcg.noise_p, mdp.n_actions, rng)
            likelihood = rows[:, executed]
        b = b * likelihood
        total = b.sum()
        b = b / total if total > 1e-300 else np.full(len(b), 1.0 / len(b))
        s, reward = step(mdp, s, executed, rng)
        ret += reward
    return int(np.argmax(b)), ret


def evaluation_rollouts(
    q: MessageConditionalQ, mcg: McgSpec, episodes: int, rng: np.random.Generator,
    greedy: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Play ``episodes`` evaluation episodes: per-episode decode hits and returns.

    Each episode draws its message from the prior, then plays
    ``rollout_rl_pr`` with the same generator.
    """
    prior = mcg.prior.blocks[0].probs
    hits = np.zeros(episodes)
    rets = np.zeros(episodes)
    for i in range(episodes):
        m = sample_index(prior, rng)
        guess, ret = rollout_rl_pr(q, mcg, m, rng, greedy=greedy)
        hits[i] = 1.0 if guess == m else 0.0
        rets[i] = ret
    return hits, rets


def evaluate_rl_pr(
    q: MessageConditionalQ, mcg: McgSpec, episodes: int,
    rng: np.random.Generator | None = None, greedy: bool = False,
) -> EvalStats:
    """Empirical decode accuracy and mean return of a trained baseline."""
    _check_space(mcg)
    if rng is None:
        rng = np.random.default_rng(0)
    hits, rets = evaluation_rollouts(q, mcg, episodes, rng, greedy=greedy)

    def se(x):
        return float(x.std(ddof=1) / math.sqrt(len(x))) if len(x) > 1 else 0.0
    return EvalStats(
        accuracy=float(hits.mean()),
        accuracy_se=se(hits),
        mean_return=float(rets.mean()),
        return_se=se(rets),
    )


def posterior_from_scratch(
    q: MessageConditionalQ, mcg: McgSpec, steps, alpha: float
) -> np.ndarray:
    """Recompute the perfect receiver's posterior directly from a trajectory.

    Used to cross-check the incrementally maintained belief: the posterior is
    proportional to prior(m) * prod_t pi(a_t | s_t, m) under the given
    temperature.
    """
    b = mcg.prior.blocks[0].probs.copy()
    for s, executed in steps:
        rows = _behavior(q.values[s], alpha)
        b = b * rows[:, executed]
    total = b.sum()
    return b / total if total > 0 else np.full(len(b), 1.0 / len(b))
