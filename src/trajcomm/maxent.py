"""Maximum-entropy policies for tabular MDPs.

The entropy-regularized objective E[sum_t R + alpha * H(A_t | S_t)] is
maximized, for a tabular MDP, by a softmax-of-Q policy with log-sum-exp state
values. ``exact_soft_vi`` computes that optimum by backward induction;
``train_soft_q`` learns it from sampled episodes. Entropy inside the backups
uses natural log to match exp/softmax; reporting functions convert to bits.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable

import numpy as np

from .dist import Dist, entropy, entropy_nats, sample_index
from .mdp import MdpSpec, state_occupancy, step

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
        # softmax_policy's per-state cache.
        object.__setattr__(self, "_policy_rows", {})


@dataclasses.dataclass(frozen=True)
class TrainConfig:
    episodes: int
    learning_rate: float = 0.1
    seed: int = 0

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
    the same rows at every decision, so each row is built and validated once.
    """
    d = q._policy_rows.get(s)
    if d is None:
        d = q._policy_rows[s] = Dist(softmax_parts(q.values[s], q.alpha)[0])
    return d


def exact_soft_vi(mdp: MdpSpec, alpha: float) -> QTable:
    """Exact finite-horizon soft value iteration.

    Runs backward sweeps Q(s,a) = R(s,a) + E[V(s')] with V the log-sum-exp
    soft value (zero at terminals). Because every trajectory ends within the
    horizon bound, ``horizon_bound`` sweeps from V = 0 reach the fixed point
    exactly, and the induced softmax policy maximizes the entropy-regularized
    objective.

    Each sweep is a handful of array operations over the MDP's CSR
    transitions: ``bincount`` over ``entry_row`` of ``prob * V[next_state]``
    gives E[V(s')] for every (s, a) row at once, then a log-sum-exp over the
    non-terminal rows of Q gives the new V. ``bincount`` adds each row's
    branches in stored order, and the logarithm is ``math.log`` per state, so
    the table is bit-identical to a per-state loop over the branches.
    Terminal rows of Q stay zero.
    """
    if mdp.n_states * mdp.n_actions > MAX_EXACT_ENTRIES:
        raise ValueError("MDP too large for exact soft value iteration")
    if alpha <= 0.0:
        raise ValueError("temperature must be positive")
    n_states, n_actions = mdp.n_states, mdp.n_actions
    live = np.flatnonzero(~mdp.terminal_mask)
    rewards = np.where(mdp.terminal_mask[:, None], 0.0, mdp.rewards)
    v = np.zeros(n_states)
    for _ in range(mdp.horizon_bound):
        ev = np.bincount(
            mdp.entry_row, weights=mdp.prob * v[mdp.next_state], minlength=n_states * n_actions
        )
        values = rewards + ev.reshape(n_states, n_actions)
        x = values[live] / alpha
        m = x.max(axis=1)
        sums = np.exp(x - m[:, None]).sum(axis=1)
        # math.log, not np.log: numpy's SIMD log can differ in the last bit.
        logs = np.fromiter(map(math.log, sums.tolist()), np.float64, len(live))
        v[live] = alpha * (m + logs)
    return QTable(values=values, alpha=alpha)


def train_soft_q(
    mdp: MdpSpec,
    alpha: float,
    cfg: TrainConfig,
    rng: np.random.Generator | None = None,
) -> QTable:
    """Tabular soft Q-learning with Boltzmann exploration.

    Behavior is the softmax policy of the current table; targets bootstrap
    through the soft value of the next state (zero at terminals). Constant
    learning rate, undiscounted episodes.

    One softmax per visited state: the row built for the next state gives the
    step's target and is the policy the next step samples from. It is rebuilt
    after the update only on a self-loop, where the update changed it.
    """
    if alpha <= 0.0:
        raise ValueError("temperature must be positive")
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
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
                if nxt != s:
                    probs, mx, sums = softmax_parts(q[nxt], alpha)
                target = reward + alpha * (mx[0] + math.log(sums[0]))
            q[s, a] += lr * (target - q[s, a])
            if nxt == s:
                probs, mx, sums = softmax_parts(q[s], alpha)
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
