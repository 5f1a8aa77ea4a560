"""RL baseline: message-conditional soft Q-learning with a perfect receiver.

The sender learns a table Q(s, m, a) by Boltzmann exploration with an
annealed temperature and learning rate. Along every episode a perfect
Bayesian receiver tracks the exact posterior over messages against the
sender's live behavior policy, and the terminal transition's reward is
shaped by ``mcg.priority * max_m b(m)`` before the update. Evaluation plays
each message's greedy action; the receiver scores every executed action
against all messages' greedy actions and guesses the posterior's MAP.
Training and evaluation update the posterior with the same step,
``_observe``, on the noise-aware likelihood ``noisy_likelihood``, so one
flipped action lowers the true message's weight instead of ruling it out.

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
from .mdp import apply_actuator_noise, heights, noisy_likelihood, step

MAX_BASELINE_MESSAGES = 128

# The training schedule: temperature and learning rate each anneal
# geometrically from start to end over a run's episodes.
ALPHA_START, ALPHA_END = 0.25, 0.015
LR_START, LR_END = 0.25, 0.02


@dataclasses.dataclass(frozen=True, eq=False)
class MessageConditionalQ:
    """Q(s, m, a) values of the message-conditional sender."""

    values: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=np.float64)
        if values.ndim != 3:
            raise ValueError("message-conditional Q must be (states, messages, actions)")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


def _check_space(mcg: McgSpec) -> int:
    if mcg.message_space.factored:
        raise ValueError("the baseline supports explicit message spaces only")
    n = mcg.message_space.cardinality
    if n > MAX_BASELINE_MESSAGES:
        raise ValueError(f"baseline message spaces are capped at {MAX_BASELINE_MESSAGES}")
    return n


def _observe(b: np.ndarray, likelihood: np.ndarray) -> np.ndarray:
    """The perfect receiver's posterior after one executed action, given each
    message's noise-aware likelihood of it; a posterior of total 0, which no
    message could have produced, resets to uniform."""
    b = b * likelihood
    total = b.sum()
    if total == 0.0:
        return np.full(len(b), 1.0 / len(b))
    return b / total


def train_rl_pr(mcg: McgSpec, episodes: int, rng: np.random.Generator) -> MessageConditionalQ:
    """Train the message-conditional sender with perfect-receiver shaping.

    Per episode: sample a message, roll out the Boltzmann policy for that
    message, keep the exact posterior over all messages updated with each
    executed action against the full current policy, noise included, and add
    ``mcg.priority * max_m b(m)`` to the terminal transition's reward before
    the final Q update. Over the episodes the temperature anneals
    geometrically from ``ALPHA_START`` to ``ALPHA_END``, and the learning
    rate from ``LR_START`` to ``LR_END``.

    One softmax block per visited state serves two steps: row ``m``'s max
    and exp-sum give the soft-value target of the step that enters the
    state, and the block is the behaviour policy and posterior column of the
    step taken from it. Raises ``ValueError`` if the MDP breaks its horizon
    bound.
    """
    n_messages = _check_space(mcg)
    if episodes < 1:
        raise ValueError("episode count must be at least 1")
    mdp = mcg.mdp
    heights(mdp)  # on a cycle, an episode might never end
    q = np.zeros((mdp.n_states, n_messages, mdp.n_actions))
    prior = mcg.prior.blocks[0].probs
    decay = (ALPHA_END / ALPHA_START) ** (1.0 / max(1, episodes - 1))
    lr_decay = (LR_END / LR_START) ** (1.0 / max(1, episodes - 1))
    alpha, lr = ALPHA_START, LR_START
    for _ in range(episodes):
        m = sample_index(prior, rng)
        b = prior.copy()
        s = mdp.initial_state
        rows, mx, sums = softmax_parts(q[s], alpha)
        while not mdp.is_terminal(s):
            a = sample_index(rows[m], rng)
            executed = apply_actuator_noise(a, mcg.noise_p, mdp.n_actions, rng)
            b = _observe(b, noisy_likelihood(rows[:, executed], mcg.noise_p, mdp.n_actions))
            nxt, reward = step(mdp, s, executed, rng)
            if mdp.is_terminal(nxt):
                target = reward + mcg.priority * float(b.max())
            else:
                rows, mx, sums = softmax_parts(q[nxt], alpha)
                target = reward + alpha * (mx[m, 0] + math.log(sums[m, 0]))
            q[s, m, executed] += lr * (target - q[s, m, executed])
            s = nxt
        alpha = max(ALPHA_END, alpha * decay)
        lr *= lr_decay
    return MessageConditionalQ(values=q)


def rollout_rl_pr(
    q: MessageConditionalQ, mcg: McgSpec, m: int, rng: np.random.Generator
) -> tuple[int, float]:
    """One evaluation episode: returns (guessed message, MDP return).

    The sender plays the greedy policy for ``m``; the perfect receiver scores
    each executed action against every message's greedy action, allowing for
    actuator noise, and guesses the argmax of its posterior.
    """
    mdp = mcg.mdp
    b = mcg.prior.blocks[0].probs.copy()
    s = mdp.initial_state
    ret = 0.0
    while not mdp.is_terminal(s):
        picks = q.values[s].argmax(axis=1)
        executed = apply_actuator_noise(int(picks[m]), mcg.noise_p, mdp.n_actions, rng)
        intended = (picks == executed).astype(float)
        b = _observe(b, noisy_likelihood(intended, mcg.noise_p, mdp.n_actions))
        s, reward = step(mdp, s, executed, rng)
        ret += reward
    return int(np.argmax(b)), ret

