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

Training takes one or two softmaxes per episode, not one per step
(``train_rl_pr`` lists them). An episode never revisits a state
(``mdp.heights`` rejects a cycle), so every Q value it reads is the one it
started with, and its writes, one per visited state to distinct cells, can
wait until the walk ends. Every draw, float operation and byte of the table
is the per-step loop's.

The cost is numpy's per-call overhead more than arithmetic. On a 2-vCPU x86
host (``timeit`` minima) an 8x4 block's softmax took about 7 us. The first
softmax of a codegrid-8 episode, its initial block stacked on 77 enterable
states and gathered column-major, took about 12 us, growing by about
0.05 us an enterable state; the message's row alone at all 144 states took
about 23 us, its row max being one inner-loop call per row. An episode that
goes on saves a block softmax per step after the first and pays once for
the stacked softmax and for the later blocks' softmax, so the trade turns
on a game's enterable states per episode step. An episode after one that
stopped at its first step softmaxes the block alone, as the per-step loop
does, and pays for a stacked softmax on top only if it goes on.
Training CPU time (medians of 5 alternating runs, each the best of 3)
against the per-step loop was about 0.72 on codegrid-8 (10 enterable states
per step), 0.55 on a 20-step chain and 0.48 on the 200-step chain (1 per
step), 0.76 on an 8x8 codegrid (573 enterable states, 16-step episodes:
36 per step) and 0.97 on 12x12 (78 per step), but 1.72 on 20x20 (210 per
step). The boundary lies near 80 enterable states per step. The toy and
the coding game, whose episodes mostly stop at the first step (the coding
game in 99.5% at its defaults), read 0.98 and 1.08, against 0.98 and 1.03
for the trainer that never stacked. No benchmark workload is that wide, so
the trainer stacks at every width.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .coding import bayes_update
from .dist import sample_index
from .maxent import frozen_q_values, softmax_parts
from .mcg import McgSpec
from .mdp import apply_actuator_noise, enterable_states, heights, noisy_likelihood, step

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
    and numpy's ``FloatingPointError``, with no warning, where Q / alpha
    overflows: a priority near the float64 limit makes it overflow, and the
    table would fill with NaN.

    An episode never revisits a state, so every Q value it reads is the
    value the episode started with, and its Q updates, one per visited
    state, hit distinct cells. Each episode therefore walks first and
    writes after, with ``softmax_parts`` calls of the table as the episode
    found it. (1) One table stacks the initial state's block over every
    message on message ``m``'s row at every state an episode can enter
    after its first step (``mdp.enterable_states``, found once per call),
    gathered column-major so that ``softmax_parts`` takes its row max by
    column. It gives every draw, the first posterior column and the
    soft-value target of every step that enters a live state. (2) After the
    walk, the blocks of the states visited after the first give the
    executed actions' columns, which update the posterior in step order.
    The non-terminal updates follow, and the terminal one, shaped by the
    final posterior, comes last. The draws (action, actuator noise,
    transition) come in the per-step loop's order, and the table is
    byte-identical to a softmax per step with each update made as soon as
    its step is taken.

    An episode that stops at its first step reads only the initial block.
    The episode after it softmaxes that block alone, a view of the table,
    and stacks softmax (1) only if it goes on; the first episode, and one
    after an episode that went on, stacks at once. A game that mostly stops
    at its first step (the toy, the coding game) thus takes one block
    softmax an episode and one that mostly goes on two softmaxes; no two
    episodes in a row take more than four. A state outside the enterable
    set raises ``KeyError`` instead of reading another row. Softmax (1)
    covers every enterable state, so games with wide layers pay more than
    they save (see the module docstring).
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
    enterable = enterable_states(mdp)
    row_of = {t: n_messages + i for i, t in enumerate(enterable)}
    # Flat positions in q of each message's stacked table, one row per
    # action: the initial block over every message, then message m's row at
    # each enterable state.
    column = np.arange(n_actions)[:, None]
    block_at = (start * n_messages + np.arange(n_messages)) * n_actions + column
    rows_at = np.array(enterable, dtype=np.intp) * (n_messages * n_actions) + column
    where = [np.hstack((block_at, rows_at + m * n_actions)) for m in range(n_messages)]
    went_on = True  # whether the last episode went on past its first step
    for _ in range(episodes):
        m = sample_index(prior, rng)
        s = start
        # Softmax 1: the initial block alone if the last episode stopped at
        # its first step, and stacked after this one's first step if it goes on.
        stacked = went_on
        if stacked:
            rows, mx, sums = softmax_parts(q.take(where[m]).T, alpha)
        else:
            rows = softmax_parts(q[s], alpha)[0]
        executed = apply_actuator_noise(sample_index(rows[m], rng), noise_p, n_actions, rng)
        b = bayes_update(prior, noisy_likelihood(rows[:n_messages, executed], noise_p, n_actions))
        nxt, reward = step(mdp, s, executed, rng)
        went_on = not mdp.is_terminal(nxt)
        if went_on:
            if not stacked:
                rows, mx, sums = softmax_parts(q.take(where[m]).T, alpha)
            path, targets = [(s, executed)], []
            while not mdp.is_terminal(nxt):
                i = row_of[nxt]
                targets.append(reward + alpha * (mx[i, 0] + math.log(sums[i, 0])))
                s = nxt
                executed = apply_actuator_noise(sample_index(rows[i], rng), noise_p, n_actions, rng)
                nxt, reward = step(mdp, s, executed, rng)
                path.append((s, executed))
            # The later blocks, for the posterior in step order.
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

