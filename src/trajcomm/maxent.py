"""Maximum-entropy policies for tabular MDPs.

The entropy-regularized objective E[sum_t R + alpha * H(A_t | S_t)] is
maximized, for a tabular MDP, by a softmax-of-Q policy with log-sum-exp state
values. ``exact_soft_vi`` computes that optimum by backward induction, in one
pass over the MDP's layers of states with equal height (longest path to a
terminal); ``train_soft_q`` learns the optimum from sampled episodes. Both
reject an MDP that breaks its horizon bound. Entropy inside the backups uses
natural log to match exp/softmax; reporting functions convert to bits.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable

import numpy as np

from .dist import SUM_ATOL, Dist, entropy, entropy_nats, sample_index
from .mdp import MdpSpec, heights, state_occupancy, step

MAX_EXACT_ENTRIES = 10**6


@dataclasses.dataclass(frozen=True, eq=False)
class QTable:
    """State-action values together with the temperature they were built for."""

    values: np.ndarray
    alpha: float

    def __post_init__(self):
        values = np.array(self.values, dtype=np.float64)
        if values.ndim != 2:
            raise ValueError("Q table must be 2-D (states x actions)")
        if not np.all(np.isfinite(values)):
            raise ValueError("Q values must be finite")
        if not self.alpha > 0.0:
            raise ValueError("temperature must be positive")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        # softmax_policy's per-state cache, and the whole table's softmax
        # with each row's verdict under Dist's checks, built on the first
        # call: a table that is planned but never asked for a policy does
        # not pay for it.
        object.__setattr__(self, "_policy_rows", {})
        object.__setattr__(self, "_policy_batch", None)


@dataclasses.dataclass(frozen=True)
class TrainConfig:
    episodes: int
    learning_rate: float = 0.1

    def __post_init__(self):
        if self.episodes < 1:
            raise ValueError("episode count must be at least 1")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError("learning rate must lie in (0, 1]")


def softmax_parts(q: np.ndarray, alpha: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Softmax of ``q / alpha`` along the last axis, with the parts it was built from.

    Returns ``(probs, mx, sums)``: ``mx`` is each row's max of ``q / alpha``
    and ``sums`` its sum of ``exp(q / alpha - mx)``, both with the last axis
    kept at size 1. A row's soft value is ``alpha * (mx + log(sums))``, so
    the trainers read a state's soft-value target off the same block their
    behaviour policy samples from.
    """
    x = q / alpha
    mx = x.max(axis=-1, keepdims=True)
    e = np.exp(x - mx)
    sums = e.sum(axis=-1, keepdims=True)
    return e / sums, mx, sums


def softmax_policy(q: QTable, s: int) -> Dist:
    """Boltzmann policy pi(a|s) proportional to exp(Q(s,a)/alpha).

    Cached per state on the (immutable) Q table: sender and receiver ask for
    the same rows at every decision, so each row is built once. The first
    call softmaxes the whole table in one batch and checks every row at
    once with ``Dist``'s two tests; a row that passes is handed out as a
    read-only view of the batch, bytes equal to its own ``softmax_parts``.
    A row that fails is rebuilt alone as a ``Dist``, which raises its error
    (and numpy its warning) only when that state is asked for.
    """
    d = q._policy_rows.get(s)
    if d is None:
        probs, valid = q._policy_batch or _policy_batch(q)
        if valid[s]:
            d = Dist._owning(probs[s])
        else:
            d = Dist(softmax_parts(q.values[s], q.alpha)[0])
        q._policy_rows[s] = d
    return d


def _policy_batch(q: QTable) -> tuple[np.ndarray, np.ndarray]:
    """Every row's softmax, and whether each passes ``Dist``'s two tests; kept on ``q``."""
    with np.errstate(all="ignore"):
        probs = softmax_parts(q.values, q.alpha)[0]
        valid = (probs.min(axis=1) >= 0.0) & (np.abs(probs.sum(axis=1) - 1.0) <= SUM_ATOL)
    probs.setflags(write=False)
    object.__setattr__(q, "_policy_batch", (probs, valid))
    return probs, valid


def exact_soft_vi(mdp: MdpSpec, alpha: float) -> QTable:
    """Exact finite-horizon soft value iteration, by one backward pass.

    Computes Q(s,a) = R(s,a) + E[V(s')] with V the log-sum-exp soft value
    (zero at terminals); the induced softmax policy maximizes the
    entropy-regularized objective.

    A state's height is the longest path from it to a terminal over every
    stored transition entry, zero-probability ones included; ``heights``
    finds them all in one pass in topological order, in time linear in
    states plus entries. The live states are ordered by height, and each
    layer of equal height gets its final V from the layers below it:
    ``bincount`` of ``prob * V[next_state]`` over the layer's rows gives
    E[V(s')], then a log-sum-exp per state gives V. Q is then built from the
    final V over every row at once.

    This is exactly what ``horizon_bound`` Jacobi sweeps from V = 0 give:
    after k sweeps, a state's V is final once its height is at most k, and
    each layer here runs the sweeps' per-row operations on the same values.
    ``bincount`` adds each row's branches in stored order, and the logarithm
    is ``math.log`` per state, so the table is bit-identical to a per-state
    loop over the branches. Terminal rows of Q stay zero.

    Raises ``ValueError`` if the MDP breaks ``MdpSpec``'s horizon contract:
    a cycle among its stored entries, or a height above ``horizon_bound``.
    """
    if mdp.n_states * mdp.n_actions > MAX_EXACT_ENTRIES:
        raise ValueError("MDP too large for exact soft value iteration")
    if alpha <= 0.0:
        raise ValueError("temperature must be positive")
    n_states, n_actions = mdp.n_states, mdp.n_actions
    v = _soft_values(mdp, alpha)
    ev = np.bincount(
        mdp.entry_row, weights=mdp.prob * v[mdp.next_state], minlength=n_states * n_actions
    )
    rewards = np.where(mdp.terminal_mask[:, None], 0.0, mdp.rewards)
    return QTable(values=rewards + ev.reshape(n_states, n_actions), alpha=alpha)


def _soft_values(mdp: MdpSpec, alpha: float) -> np.ndarray:
    """The soft value of every state, by one pass over the layers of equal height.

    Each layer's entries, rows and rewards are gathered into contiguous
    slices up front, so the loop over layers only slices and computes.
    """
    v = np.zeros(mdp.n_states)
    live = np.flatnonzero(~mdp.terminal_mask)
    if not len(live):
        return v
    n_actions = mdp.n_actions
    height = heights(mdp)
    order = live[np.argsort(height, kind="stable")]
    n_live = len(order)
    # Heights start at 1, so layer h is positions state_bounds[h - 1]:state_bounds[h].
    layer_sizes = np.bincount(height)
    state_bounds = np.cumsum(layer_sizes)
    first = mdp.row_offsets[order * n_actions]
    counts = mdp.row_offsets[(order + 1) * n_actions] - first
    entry_ends = np.cumsum(counts)
    entries = np.arange(entry_ends[-1]) + np.repeat(first - entry_ends + counts, counts)
    entry_bounds = np.concatenate(([0], entry_ends))[state_bounds]
    # Shift each global row id r = s * n_actions + a to its row within the layer.
    layer_start = np.repeat(state_bounds[:-1], layer_sizes[1:])
    row_shift = (np.arange(n_live) - layer_start - order) * n_actions
    local_row = mdp.entry_row[entries] + np.repeat(row_shift, counts)
    position = np.full(mdp.n_states, n_live)  # terminals read the last slot, 0
    position[order] = np.arange(n_live)
    nxt = position[mdp.next_state[entries]]
    prob = mdp.prob[entries]
    rewards = mdp.rewards[order]
    v_order = np.zeros(n_live + 1)
    sb, eb = state_bounds.tolist(), entry_bounds.tolist()
    for p0, p1, e0, e1 in zip(sb, sb[1:], eb, eb[1:]):
        ev = np.bincount(
            local_row[e0:e1],
            weights=prob[e0:e1] * v_order[nxt[e0:e1]],
            minlength=(p1 - p0) * n_actions,
        )
        x = (rewards[p0:p1] + ev.reshape(p1 - p0, n_actions)) / alpha
        m = x.max(axis=1, keepdims=True)
        sums = np.exp(x - m).sum(axis=1)
        # math.log, not np.log: numpy's SIMD log can differ in the last bit.
        # Python float arithmetic rounds as numpy's does.
        v_order[p0:p1] = [
            alpha * (mx + math.log(s)) for (mx,), s in zip(m.tolist(), sums.tolist())
        ]
    v[order] = v_order[:n_live]
    return v


def train_soft_q(mdp: MdpSpec, alpha: float, cfg: TrainConfig, rng: np.random.Generator) -> QTable:
    """Tabular soft Q-learning with Boltzmann exploration.

    Behavior is the softmax policy of the current table; targets bootstrap
    through the soft value of the next state (zero at terminals). Constant
    learning rate, undiscounted episodes; every draw comes from ``rng``.

    One softmax per visited state: the row built for the next state gives the
    step's target and is the policy the next step samples from. Raises
    ``ValueError`` if the MDP breaks its horizon bound.
    """
    if alpha <= 0.0:
        raise ValueError("temperature must be positive")
    heights(mdp)  # on a cycle, an episode might never end
    q = np.zeros((mdp.n_states, mdp.n_actions))
    lr = cfg.learning_rate
    for _ in range(cfg.episodes):
        s = mdp.initial_state
        probs, mx, sums = softmax_parts(q[s], alpha)
        while not mdp.is_terminal(s):
            a = sample_index(probs, rng)
            nxt, reward = step(mdp, s, a, rng)
            if mdp.is_terminal(nxt):
                target = reward
            else:
                probs, mx, sums = softmax_parts(q[nxt], alpha)
                target = reward + alpha * (mx[0] + math.log(sums[0]))
            q[s, a] += lr * (target - q[s, a])
            s = nxt
    return QTable(values=q, alpha=alpha)


def exact_policy_objective(
    mdp: MdpSpec, policy: Callable[[int], Dist], alpha: float
) -> float:
    """Exact value of E[sum_t R + alpha * H_nats(pi(S_t))], from the state occupancy."""
    visits, visited = state_occupancy(mdp, policy)
    return float(
        sum(
            visits[s] * (d.probs @ mdp.rewards[s] + alpha * entropy_nats(d))
            for s, d in visited.items()
        )
    )


def expected_cumulative_entropy_bits(mdp: MdpSpec, policy: Callable[[int], Dist]) -> float:
    """Expected sum over visited states of the policy's action entropy, in bits."""
    visits, visited = state_occupancy(mdp, policy)
    return float(sum(visits[s] * entropy(d) for s, d in visited.items()))
