"""RL baseline: message-conditional soft Q-learning with a perfect receiver.

The sender learns a table Q(s, m, a) by Boltzmann exploration with an
annealed temperature and learning rate. Along every episode a perfect
Bayesian receiver tracks the exact posterior over messages against the
sender's live behavior policy, and the terminal transition's reward is
shaped by ``mcg.priority * max_m b(m)`` before the update. Evaluation plays
each message's greedy action; the receiver scores every executed action
against all messages' greedy actions and guesses the posterior's MAP.
Training and evaluation update the posterior with the coder's Bayes step,
``coding.bayes_update``, on the noise-aware likelihood ``noisy_likelihood``,
so one flipped action lowers the true message's weight instead of ruling it
out, and a posterior of total 0 resets to uniform with the coder's warning.
``MessageConditionalQ`` checks its values as ``QTable`` does (``frozen_q_values``).

Training takes at most three softmaxes per episode, not one per step
(``train_rl_pr`` lists them). An episode never revisits a state
(``mdp.heights`` rejects a cycle), so every Q value it reads is the one it
started with, and its writes, one per visited state to distinct cells, can
wait until the walk ends. Every draw, float operation and byte of the table
is the per-step loop's.

The cost is numpy's per-call overhead more than arithmetic. On a 2-vCPU x86
host an 8x4 block's softmax took about 7 us, and the softmax of one
message's row at every state about 23 us at codegrid-8's 144 states,
growing by 0.1-0.15 us a state. A one-step episode costs what it did. A
longer one saves a block softmax per step after the first and pays once
for that row softmax and for the later blocks' softmax, so the trade turns
on a game's states per episode step.
Against the per-step loop, training took about 0.9 of its time on
codegrid-8 (18 states per step), 0.58 on a 20-step chain and 0.46 on the
200-step chain (1 per step), but 1.1 on an 8x8 codegrid (1,088 states,
16-step episodes: 68 per step), 1.8 on 12x12 (150 per step) and 3.7 on
20x20 (410 per step). The boundary lies near 50 states per step: games with
wide layers lose. No registered game at its defaults and no benchmark
workload is that wide, so the trainer keeps this one path.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .coding import bayes_update
from .dist import sample_index
from .maxent import frozen_q_values, softmax_parts
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
        axes = ("states", "messages", "actions")
        object.__setattr__(self, "values", frozen_q_values(self.values, axes))


def _check_space(mcg: McgSpec) -> int:
    if mcg.message_space.factored:
        raise ValueError("the baseline supports explicit message spaces only")
    n = mcg.message_space.cardinality
    if n > MAX_BASELINE_MESSAGES:
        raise ValueError(f"baseline message spaces are capped at {MAX_BASELINE_MESSAGES}")
    return n


@np.errstate(over="raise", invalid="raise")
def train_rl_pr(mcg: McgSpec, episodes: int, rng: np.random.Generator) -> MessageConditionalQ:
    """Train the message-conditional sender with perfect-receiver shaping.

    Per episode: sample a message, roll out the Boltzmann policy for that
    message, keep the exact posterior over all messages updated with each
    executed action against the full current policy, noise included, and add
    ``mcg.priority * max_m b(m)`` to the terminal transition's reward before
    the final Q update. Over the episodes the temperature anneals
    geometrically from ``ALPHA_START`` to ``ALPHA_END``, and the learning
    rate from ``LR_START`` to ``LR_END``. A game whose initial state is
    terminal draws each episode's message and learns nothing: its table
    stays zero. Raises ``ValueError`` if the MDP breaks its horizon bound,
    and numpy's ``FloatingPointError``, with no warning, at the first
    overflow or invalid value: a priority near the float64 limit makes
    Q / alpha overflow, and the table would fill with NaN.

    An episode never revisits a state, so every Q value it reads is the
    value the episode started with, and its Q updates, one per visited
    state, hit distinct cells. Each episode therefore walks first and
    writes after, with at most three ``softmax_parts`` calls, all of the
    table as the episode found it: (1) the initial state's block over every
    message gives the first draw and the first posterior column; (2) if the
    episode goes on, message ``m``'s row at every state gives every later
    draw and the soft-value target of every step that enters a live state;
    (3) after the walk, the blocks of the states visited after the first
    give the executed actions' columns, which update the posterior in step
    order. The non-terminal updates follow, and the terminal one, shaped by
    the final posterior, comes last. The draws (action, actuator noise,
    transition) come in the per-step loop's order, and the table is
    byte-identical to a softmax per step with each update made as soon as
    its step is taken. A one-step episode takes softmax (1) alone; softmax
    (2) covers every state, so games with wide layers pay more than they
    save (see the module docstring).
    """
    n_messages = _check_space(mcg)
    if episodes < 1:
        raise ValueError("episode count must be at least 1")
    mdp = mcg.mdp
    heights(mdp)  # on a cycle, an episode might never end
    q = np.zeros((mdp.n_states, n_messages, mdp.n_actions))
    prior = mcg.prior.blocks[0].probs
    noise_p, n_actions, start = mcg.noise_p, mdp.n_actions, mdp.initial_state
    if mdp.is_terminal(start):
        for _ in range(episodes):
            sample_index(prior, rng)  # each episode draws its message, then ends
        return MessageConditionalQ(values=q)
    decay = (ALPHA_END / ALPHA_START) ** (1.0 / max(1, episodes - 1))
    lr_decay = (LR_END / LR_START) ** (1.0 / max(1, episodes - 1))
    alpha, lr = ALPHA_START, LR_START
    for _ in range(episodes):
        m = sample_index(prior, rng)
        s = start
        # Softmax 1: the initial state's block, for the first step.
        first = softmax_parts(q[s], alpha)[0]
        executed = apply_actuator_noise(sample_index(first[m], rng), noise_p, n_actions, rng)
        b = bayes_update(prior, noisy_likelihood(first[:, executed], noise_p, n_actions))
        nxt, reward = step(mdp, s, executed, rng)
        if not mdp.is_terminal(nxt):
            # Softmax 2: message m's row at every state, for the rest of the walk.
            rows, mx, sums = softmax_parts(q[:, m], alpha)
            path, targets = [(s, executed)], []
            while not mdp.is_terminal(nxt):
                targets.append(reward + alpha * (mx[nxt, 0] + math.log(sums[nxt, 0])))
                s = nxt
                executed = apply_actuator_noise(sample_index(rows[s], rng), noise_p, n_actions, rng)
                nxt, reward = step(mdp, s, executed, rng)
                path.append((s, executed))
            # Softmax 3: the later blocks, for the posterior in step order.
            later, actions = zip(*path[1:])
            for block, a in zip(softmax_parts(q.take(later, axis=0), alpha)[0], actions):
                b = bayes_update(b, noisy_likelihood(block[:, a], noise_p, n_actions))
            for (c, a), target in zip(path, targets):  # every step but the last
                q[c, m, a] += lr * (target - q[c, m, a])
        q[s, m, executed] += lr * (reward + mcg.priority * float(b.max()) - q[s, m, executed])
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
        b = bayes_update(b, noisy_likelihood(intended, mcg.noise_p, mdp.n_actions))
        s, reward = step(mdp, s, executed, rng)
        ret += reward
    return int(np.argmax(b)), ret

