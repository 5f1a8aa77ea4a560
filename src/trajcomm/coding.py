"""The coupling-coded sender and receiver.

At every decision point the sender couples its current belief over the
message (or, for factored spaces, the block with the largest entropy) with
the planned max-entropy action distribution, using a greedy minimum entropy
coupling. Sampling the intended action from the message's conditional row
leaves the action marginal untouched, so the MDP return is preserved in
expectation over messages, while the coupling greedily maximizes the mutual
information between message and action. The receiver replays the identical
construction from the observed trajectory and reads off the maximum a
posteriori message.

Both agents update beliefs with the executed action. Under actuator noise
the sender cannot transmit its intention, so mirroring the executed action is
the only choice that keeps the two belief traces synchronized. The update is
noise-aware: both agents know the noise level ε, and weigh message ``m`` by
``(1-ε)·P(a|m) + ε/|A|`` for executed action ``a``, so one flipped action
does not rule the true message out. ``bayes_update`` is the one Bayes step,
shared with the RL+PR baseline's perfect receiver: it weighs the belief by
the likelihoods, normalizes, and resets a belief whose total is exactly 0.

The coupling is the decision rule. It stores one row per message in the
belief's support, so after a few steps a block of thousands of messages is
coupled, checked and updated through a table of a few rows. The table is
column-major, one contiguous column per action: each message's total
(``row_mass``) adds the columns left to right, so its bytes do not depend on
the layout, and ``check_mixture``'s column sums and ``posterior_update``'s
executed column read contiguous memory. Neither
``greedy_mec`` nor ``SparseCoupling`` checks a coupling; the coder validates
each one once, where it uses it, against its own belief and policy
(``check_mixture``), the one check a coupling gets. Message ``m`` acts by
its stored row divided by the row's total, and the receiver reads its
likelihoods off one column; a message outside the support acts by the
policy, and no per-message distribution is built. The posterior is
scattered back into a vector over the whole block before it is normalized,
so its bytes are those of a dense update.

Each agent replays the construction through one ``_Replay`` object, which
holds its belief, its block entropies and a memo; ``exact_coded_value``
``branch``es it at every executed action. Replay is deterministic, so a
decision depends only on the bytes of the active block's belief and of the
policy row (the noise level is fixed by the game). Equal bytes mean the same
object: a replay keeps one ``Dist`` per distinct block, which every prior
block and every posterior passes through, and ``softmax_policy`` hands out
one ``Dist`` per distinct row of a Q table. So the memo is keyed by the pair
of objects, and finding a decision reads no bytes. An entry holds the
coupling built and checked for that pair, the posterior already computed
from it for each executed action, and the action row of each message played
through it. A repeated decision reuses all three, so ``greedy_mec``,
``check_mixture``, ``posterior_update`` and ``action_row`` run once per
distinct input rather than once per step, and a posterior that is the block
it replaces, as a point mass stays a point mass, leaves the ``Belief`` as it
is. A memo lives for one call of ``sender_episode``, ``receiver_decode`` or
``exact_coded_value``: the sender and the receiver never share one, so every
decode rebuilds its couplings from the observed trajectory alone.

Each replay input is checked once, where it enters. ``_Replay`` refuses a Q
table whose shape is not the game's MDP's and a message block larger than
``MAX_EXPLICIT_MESSAGES``, before anything is coupled. ``sender_episode``
refuses a message outside the space. ``receiver_decode`` refuses a view the
MDP cannot give (``_check_view``), naming its first faulty step, before it
replays anything. The game itself is checked where it is built.
"""

from __future__ import annotations

import copy
import dataclasses
import logging

import numpy as np

from .dist import Dist, SUM_ATOL, SparseCoupling, entropy, sample_index
from .mcg import Belief, McgSpec, MessageSpace, message_prior_prob
from .mdp import (
    MdpSpec, ObservedTrajectory, Step, Trajectory, apply_actuator_noise, noisy_likelihood, step,
)
from .maxent import QTable, softmax_policy
from .mec import greedy_mec

logger = logging.getLogger(__name__)

# Explicit beliefs beyond this size must use a factored space instead. A
# coupling of the k messages of the belief's support sorts them once, places
# each long run of equal masses with a few numpy calls and every other cell
# with one Python step, and fills a dense k x |A| table. The uniform prior
# has k = N, and every posterior is a vector of all N.
MAX_EXPLICIT_MESSAGES = 4096


@dataclasses.dataclass(eq=False)
class EpisodeRecord:
    """Diagnostics for one sender episode and (optionally) its decoding."""

    trajectory: Trajectory
    sender_belief_trace: tuple[Belief, ...]
    decoded: object = None
    receiver_belief_trace: tuple[Belief, ...] | None = None


def action_row(coupling: SparseCoupling, m: int, policy: Dist) -> np.ndarray:
    """Action distribution of message ``m`` under a coupling of belief and policy.

    The row is ``joint[k] / row_mass[k]`` at the position ``k`` of ``m`` in
    ``coupling.rows``. A message outside the stored rows, or a stored row
    with no mass (a message the belief has ruled out), acts by ``policy``,
    which keeps the mixture identity exact.
    """
    rows = coupling.rows
    k = int(rows.searchsorted(m))
    if k == len(rows) or rows[k] != m:
        return policy.probs
    total = coupling.row_mass[k]
    return coupling.joint[k] / total if total > 0.0 else policy.probs


def check_mixture(coupling: SparseCoupling, b: Dist, policy: Dist) -> None:
    """Assert that a coupling is a joint distribution of the belief and the policy.

    The coupling must have one row per message of ``b`` and one column per
    action of ``policy``; every cell must be non-negative and finite, and
    the total within ``SUM_ATOL`` of 1; each column sum must be within
    ``SUM_ATOL`` of the policy, and each row total within ``SUM_ATOL`` of
    the belief, with 0 for a row it leaves out. Then the belief-weighted
    mixture of the rows is the policy. Every comparison is written so that
    NaN fails it. A violation means sender and receiver would drift apart,
    so it raises ``RuntimeError`` at once.

    This is the one validation of a coupling: ``SparseCoupling`` checks
    nothing, and what this leaves out, new arrays and rows ascending below
    ``n_rows``, holds by construction in ``greedy_mec``. The column sums are
    numpy's reduction along each column, contiguous in ``greedy_mec``'s
    column-major table; they are only compared within tolerance, never
    stored, so their last bit does not reach a trace.
    """
    rows, joint = coupling.rows, coupling.joint
    shape, want = (coupling.n_rows, joint.shape[1]), (len(b.probs), len(policy.probs))
    if shape != want:
        raise RuntimeError(f"coupling shape {shape}, not {want}")
    if not joint.min() >= 0.0:  # a NaN cell fails this too
        raise RuntimeError("coupling masses must be non-negative and finite")
    col_sums = joint.sum(axis=0)
    # A +inf cell makes the total +inf.
    total = float(col_sums.sum())
    if not abs(total - 1.0) <= SUM_ATOL:
        if not np.isfinite(joint).all():
            raise RuntimeError("coupling masses must be non-negative and finite")
        raise RuntimeError(f"coupling mass sums to {total!r}, not 1")
    col_err = float(abs(col_sums - policy.probs).max())
    # The belief less the row marginal, row by row: a row left out keeps its
    # whole belief mass.
    drift = b.probs.copy()
    drift[rows] -= coupling.row_mass
    row_err = float(abs(drift).max())
    if not (col_err <= SUM_ATOL and row_err <= SUM_ATOL):
        raise RuntimeError(
            f"coupling drifted from the policy by {col_err!r} "
            f"and from the belief by {row_err!r}"
        )


def bayes_update(b: np.ndarray, likelihood: np.ndarray) -> np.ndarray:
    """The posterior of belief ``b`` given each message's likelihood of an
    observed action: the one Bayes step of the coder and of the RL+PR
    baseline's perfect receiver.

    The weights are ``b * likelihood`` and the posterior is the weights
    divided by their total. If the total is exactly 0, because the action
    carries zero likelihood under every live message (possible only without
    noise, on a corrupted trajectory), the belief resets to uniform and the
    desync is logged rather than silently propagated. Returns a new vector.
    """
    weights = b * likelihood
    total = float(weights.sum())
    if total == 0.0:
        logger.warning("belief mass wiped out by the executed action; resetting to uniform")
        return np.full(len(b), 1.0 / len(b))
    return np.divide(weights, total)


def posterior_update(
    b: Dist, coupling: SparseCoupling, policy: Dist, executed: int, noise_p: float = 0.0
) -> Dist:
    """Bayes update of a belief block from one executed action.

    Message ``m`` intends action ``a`` with probability ``P(a|m)``, its row
    of the coupling, or ``policy[a]`` for a message that acts by the policy
    (see ``action_row``). With actuator noise ``noise_p`` the likelihood of
    executing ``a`` is ``noisy_likelihood`` of ``P(a|m)``; a flipped action
    lowers the true message's weight instead of ruling it out. The stored
    rows' ``P(a|m)`` are computed on those rows alone and scattered into a
    full-length vector of ``policy[a]``, so the weights and their sum are
    those of the full belief. ``bayes_update`` takes the step, wipe-out rule
    included, and its fresh vector, a distribution by construction, becomes
    the posterior without a copy or a second check.
    """
    rows, joint, row_mass = coupling.rows, coupling.joint, coupling.row_mass
    intended = np.full(coupling.n_rows, policy.probs[executed])
    intended[rows] = np.divide(
        joint[:, executed], row_mass, out=intended[rows], where=row_mass > 0.0
    )
    likelihood = noisy_likelihood(intended, noise_p, coupling.n_cols)
    return Dist._owning(bayes_update(b.probs, likelihood))


class _Replay:
    """One agent's replay of the coder: its belief, the entropy of each of
    its blocks, its memo, and the decision at the current state.

    Equal bytes mean the same object: the replay keeps one ``Dist`` per
    distinct block of bytes, shared with its branches, and every block it
    holds, from the prior or from a posterior, wipe-out resets included, is
    that one object. With ``softmax_policy``'s one object per distinct row,
    a decision is keyed by its two objects, and a repeated decision costs
    dict lookups only. It refuses a Q table whose shape is not the MDP's,
    and a message block over the per-coupling cap: block sizes never change
    during a replay, so one check covers every decision.
    """

    def __init__(self, q: QTable, mcg: McgSpec):
        if q.values.shape != (mcg.mdp.n_states, mcg.mdp.n_actions):
            raise ValueError(
                f"Q table shape {q.values.shape} does not match the spec's MDP "
                f"({mcg.mdp.n_states} states x {mcg.mdp.n_actions} actions)"
            )
        block = max(mcg.message_space.block_sizes)
        if block > MAX_EXPLICIT_MESSAGES:
            raise ValueError(
                f"message block size {block} exceeds the per-coupling cap "
                f"{MAX_EXPLICIT_MESSAGES}; use a factored message space"
            )
        self.q = q
        self.space = mcg.message_space
        self.noise_p = mcg.noise_p
        # Block bytes -> the one Dist of this replay with those bytes.
        self.canon: dict[bytes, Dist] = {}
        blocks = tuple(self._canonical(b) for b in mcg.prior.blocks)
        self.belief = Belief(blocks)
        # Kept next to the belief; an update recomputes only the block it
        # changed. None for a belief with one block.
        self.h = None if len(blocks) == 1 else np.array([entropy(b) for b in blocks])
        # (block, policy) -> (coupling, posterior per executed action, action
        # row per message).
        self.memo: dict[tuple[Dist, Dist], tuple] = {}

    def _canonical(self, d: Dist) -> Dist:
        return self.canon.setdefault(d.probs.tobytes(), d)

    def decide(self, s: int) -> None:
        """Couple the active block with the policy at ``s``.

        The active block has the largest entropy, ties to the lowest index:
        ``argmax`` returns the first maximum and entropies are compared
        exactly, so sender and receiver, on bit-identical beliefs, never pick
        differently. The coupling is built and checked only when the memo has
        no entry for the block and the policy.
        """
        self.policy = policy = softmax_policy(self.q, s)
        self.block = 0 if self.h is None else int(self.h.argmax())
        b = self.belief.blocks[self.block]
        decision = self.memo.get((b, policy))
        if decision is None:
            coupling = greedy_mec(b, policy)
            check_mixture(coupling, b, policy)
            decision = self.memo[b, policy] = (coupling, {}, {})
        self.coupling, self.posteriors, self.rows = decision

    def row(self, m) -> np.ndarray:
        """``action_row`` of message ``m``'s value in the active block."""
        value = self.space.values(m)[self.block]
        row = self.rows.get(value)
        if row is None:
            row = self.rows[value] = action_row(self.coupling, value, self.policy)
        return row

    def observe(self, executed: int) -> Belief:
        """Update the belief, and its block entropy, with an executed action.

        A posterior that is the active block itself leaves the belief as it
        is, and the same ``Belief`` is returned. A posterior that reads
        exactly uniform is not memoized: a wipe-out resets the block to
        uniform, and each wipe-out must log its own warning.
        """
        post = self.posteriors.get(executed)
        if post is None:
            b = self.belief.blocks[self.block]
            post = posterior_update(b, self.coupling, self.policy, executed, self.noise_p)
            post = self._canonical(post)
            uniform = 1.0 / len(post)
            # The first entry settles it for almost every posterior.
            if post.probs[0] != uniform or not (post.probs == uniform).all():
                self.posteriors[executed] = post
        blocks = self.belief.blocks
        if post is blocks[self.block]:
            return self.belief
        blocks = list(blocks)
        blocks[self.block] = post
        if self.h is not None:
            self.h[self.block] = entropy(post)
        self.belief = Belief(tuple(blocks))
        return self.belief

    def branch(self) -> _Replay:
        """A copy at the same decision that shares this one's memo."""
        other = copy.copy(self)
        if self.h is not None:
            other.h = self.h.copy()
        return other


def sender_episode(
    q: QTable, mcg: McgSpec, m, rng: np.random.Generator
) -> EpisodeRecord:
    """Play one sender episode carrying message ``m``.

    At each state the sender couples its belief with the max-entropy policy,
    samples its intended action from the coupling row of the active message
    block, passes it through actuator noise, and updates the belief with the
    executed action (mirroring what the receiver will see).
    """
    if not mcg.message_space.contains(m):
        raise ValueError(f"message {m!r} is not in the message space")
    sender = _Replay(q, mcg)
    trace = [sender.belief]
    steps = []
    s = mcg.mdp.initial_state
    while not mcg.mdp.is_terminal(s):
        sender.decide(s)
        intended = sample_index(sender.row(m), rng)
        executed = apply_actuator_noise(intended, mcg.noise_p, mcg.mdp.n_actions, rng)
        trace.append(sender.observe(executed))
        nxt, reward = step(mcg.mdp, s, executed, rng)
        steps.append(Step(s, intended, executed, reward))
        s = nxt
    return EpisodeRecord(
        trajectory=Trajectory(steps=tuple(steps), final_state=s),
        sender_belief_trace=tuple(trace),
    )


def map_estimate(belief: Belief, space: MessageSpace):
    """Maximum a posteriori message of ``space``; argmax per block, ties to
    the lowest index."""
    return space.message([int(b.probs.argmax()) for b in belief.blocks])


def receiver_decode(
    q: QTable, mcg: McgSpec, z: ObservedTrajectory
) -> tuple[object, tuple[Belief, ...]]:
    """Decode a message from an observed trajectory.

    Replays exactly the sender's couplings and belief updates
    (identical block selection and tie-breaking) over the executed actions,
    then returns the MAP message and the full belief trace.
    """
    _check_view(mcg.mdp, z)
    receiver = _Replay(q, mcg)
    trace = [receiver.belief]
    for s, executed in z.steps:
        receiver.decide(s)
        trace.append(receiver.observe(executed))
    return map_estimate(receiver.belief, mcg.message_space), tuple(trace)


def _check_view(mdp: MdpSpec, z: ObservedTrajectory) -> None:
    """Raise ``ValueError`` on the first fault of a view the MDP cannot give.

    The view must start at the initial state; then, step by step, no step
    may leave a terminal state, each executed action must be in range, and
    the next state must be a stored successor with positive probability;
    last, the final state must be terminal. One pass reads each step's
    stored row off the MDP's list views. Every state it reads is the initial
    state or a successor it has checked, so no index leaves its range.
    """
    states = [s for s, _ in z.steps]
    states.append(z.final_state)
    if states[0] != mdp.initial_state:
        raise ValueError("trajectory does not start at the MDP's initial state")
    n_actions, terminal = mdp.n_actions, mdp.terminal_states
    offsets, successors, probs = mdp._offsets, mdp._next, mdp._prob
    for (s, a), nxt in zip(z.steps, states[1:]):
        if s in terminal:
            raise ValueError(f"trajectory steps from terminal state {s}")
        if not 0 <= a < n_actions:
            raise ValueError(f"executed action {a} out of range")
        r = s * n_actions + a
        for k in range(offsets[r], offsets[r + 1]):
            if successors[k] == nxt and probs[k] > 0.0:
                break
        else:
            raise ValueError(f"transition {s} -[{a}]-> {nxt} impossible under the MDP")
    if z.final_state not in terminal:
        raise ValueError("trajectory does not end in a terminal state")


def run_roundtrip(q: QTable, mcg: McgSpec, m, rng: np.random.Generator) -> EpisodeRecord:
    """Sender episode followed by decoding; fills the full record."""
    record = sender_episode(q, mcg, m, rng)
    decoded, trace = receiver_decode(q, mcg, record.trajectory.receiver_view())
    record.decoded = decoded
    record.receiver_belief_trace = trace
    return record


def exact_coded_value(q: QTable, mcg: McgSpec) -> tuple[float, float]:
    """Exact message-averaged expected return and decode accuracy.

    Walks every (message, trajectory) branch of the coded sender, replicating
    the belief dynamics exactly. Under actuator noise the sender executes
    each action with the probability ``noisy_likelihood`` gives its intended
    row, so the walk branches on every executed action and applies the
    noise-aware update; at ε = 0 the weight is ``P(a|m)`` exactly and
    impossible actions are pruned. Every branch shares one memo, over every
    message, so each distinct decision is coupled once; the number of
    branches is still exponential in the horizon, so the walk only suits
    small games.
    """
    mdp = mcg.mdp
    total_return = 0.0
    total_acc = 0.0

    def walk(s, agent, m, prob, ret):
        nonlocal total_return, total_acc
        if mdp.is_terminal(s):
            total_return += prob * ret
            if map_estimate(agent.belief, mcg.message_space) == m:
                total_acc += prob
            return
        agent.decide(s)
        probs = noisy_likelihood(agent.row(m), mcg.noise_p, mdp.n_actions)
        for a, pa in enumerate(probs.tolist()):
            if pa == 0.0:
                continue
            child = agent.branch()
            child.observe(a)
            reward = float(mdp.rewards[s, a])
            for nxt, pt in mdp.successors(s, a):
                if pt > 0.0:
                    walk(nxt, child, m, prob * pa * pt, ret + reward)

    root = _Replay(q, mcg)
    for m in mcg.message_space.messages():
        pm = message_prior_prob(mcg, m)
        if pm > 0.0:
            walk(mdp.initial_state, root, m, pm, 0.0)
    return total_return, total_acc
