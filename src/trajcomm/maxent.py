"""Maximum-entropy policies for tabular MDPs.

The entropy-regularized objective E[sum_t R + alpha * H(A_t | S_t)] is
maximized, for a tabular MDP, by a softmax-of-Q policy with log-sum-exp state
values. ``exact_soft_vi`` computes that optimum by backward induction, in one
pass over the MDP's layers of states with equal height (longest path to a
terminal); ``train_soft_q`` learns the optimum from sampled episodes. Both
reject an MDP that breaks its horizon bound. Entropy inside the backups uses
natural log to match exp/softmax; reporting functions convert to bits.

One check per fact: ``check_temperature`` (positive and finite) serves every
temperature, ``temperature``'s 1/beta included, and ``frozen_q_values`` (a
read-only float64 copy, its axes, finite values) serves ``QTable`` and the
baseline's ``MessageConditionalQ``. ``QTable`` also refuses values whose
Q / alpha overflows, so every row of its policy is a distribution. The
planner and both trainers stop where Q / alpha overflows, with numpy's
``FloatingPointError`` before numpy can warn, and ``named_overflow`` turns
that into a ``ValueError`` naming the parameter that caused it. A row whose
spread alone passes the float64 range is no overflow to either check: its
low entries weigh exp(-inf) = 0. The coder checks a table's shape.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
from typing import Callable

import numpy as np

from .dist import Dist, entropy, entropy_nats, sample_index
from .mdp import MdpSpec, heights, state_occupancy, step

MAX_EXACT_ENTRIES = 10**6


@dataclasses.dataclass(frozen=True, eq=False)
class QTable:
    """State-action values together with the temperature they were built for."""

    values: np.ndarray
    alpha: float

    def __post_init__(self):
        values = frozen_q_values(self.values, ("states", "actions"))
        object.__setattr__(self, "values", values)
        check_temperature(self.alpha)
        # Python floats: the quotient overflows to inf, and numpy does not warn.
        largest = float(np.abs(values).max(initial=0.0))
        if not math.isfinite(largest / self.alpha):
            raise ValueError(
                f"Q / alpha must be finite, but |Q| reaches {largest} at temperature {self.alpha}"
            )
        # softmax_policy's per-state cache, its one Dist per distinct row
        # bytes, and the whole table's softmax, built on the first call: a
        # table that is planned but never asked for a policy does not pay for it.
        object.__setattr__(self, "_policy_rows", {})
        object.__setattr__(self, "_policy_canon", {})
        object.__setattr__(self, "_policy_batch", None)


def frozen_q_values(values, axes: tuple[str, ...]) -> np.ndarray:
    """A read-only float64 copy of Q values, one axis per name in ``axes``, all finite."""
    values = np.array(values, dtype=np.float64)
    if values.ndim != len(axes):
        raise ValueError(f"Q table must be {' x '.join(axes)}, not {values.ndim}-D")
    if not np.isfinite(values).all():
        raise ValueError("Q values must be finite")
    values.setflags(write=False)
    return values


def check_temperature(alpha: float, name: str = "temperature") -> float:
    """``alpha`` if positive and finite (NaN is not); else a ``ValueError`` naming ``name``."""
    if not 0.0 < alpha < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {alpha}")
    return alpha


def temperature(beta: float, name: str = "beta") -> float:
    """The temperature 1/beta; a ``ValueError`` names ``beta`` as ``name`` unless both
    are positive and finite (1/beta overflows for a subnormal beta)."""
    check_temperature(beta, name)
    return check_temperature(1.0 / beta, f"the temperature 1 / {name}")


@contextlib.contextmanager
def named_overflow(name: str, value: float):
    """Turn the ``FloatingPointError`` that the planner and the trainers raise
    where Q / alpha overflows into a ``ValueError`` naming ``name`` = ``value``."""
    try:
        yield
    except FloatingPointError:
        raise ValueError(f"{name} must keep Q / alpha finite, got {value}") from None


def softmax_parts(q: np.ndarray, alpha: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Softmax of ``q / alpha`` along the last axis, with the parts it was built from.

    Returns ``(probs, mx, sums)``: ``mx`` is each row's max of ``q / alpha``
    and ``sums`` its sum of ``exp(q / alpha - mx)``, both with the last axis
    kept at size 1. A row's soft value is ``alpha * (mx + log(sums))``, so
    the trainers read a state's soft-value target off the same block their
    behaviour policy samples from.

    The row max is taken in ``q``'s own layout: on a column-major table of
    short rows numpy compares whole columns, not each row in its own
    inner-loop call. exp, the row sum and the divide are always formed
    row-major, so the bytes do not depend on the layout: a column-major sum
    adds the entries in another order than numpy's pairwise row sum, which
    differs in the last bit from eight entries a row on.
    """
    x = q / alpha
    mx = x.max(axis=-1, keepdims=True)
    e = np.exp(_shifted(x, mx))
    sums = e.sum(axis=-1, keepdims=True)
    return e / sums, mx, sums


def _shifted(x: np.ndarray, mx: np.ndarray) -> np.ndarray:
    """``x - mx``, row-major, where ``mx`` is each row's max.

    A row whose spread passes the float64 range overflows here to -inf, and
    exp(-inf) = 0 is that entry's weight, so this overflow is no fault, also
    under a caller that raises on overflow: only Q / alpha itself is checked.
    """
    try:
        return np.subtract(x, mx, order="C")
    except FloatingPointError:
        with np.errstate(over="ignore"):
            return np.subtract(x, mx, order="C")


def softmax_policy(q: QTable, s: int) -> Dist:
    """Boltzmann policy pi(a|s) proportional to exp(Q(s,a)/alpha).

    Cached per state on the (immutable) Q table: sender and receiver ask for
    the same rows at every decision, so each row is built once. The first
    call softmaxes the whole table in one batch, and each row is handed out
    as a read-only view of the batch, bytes equal to its own
    ``softmax_parts``. ``QTable`` keeps Q / alpha finite, so every row is a
    distribution: its largest term is exp(0) = 1, and the others lie in [0, 1].

    Equal bytes mean the same object: rows with equal bytes, at any states
    of one table, are handed out as one ``Dist``, the first one built. The
    coder keys its memo by the policy object, so a decision repeated at
    another state with the same row is found without reading its bytes.
    """
    d = q._policy_rows.get(s)
    if d is None:
        probs = q._policy_batch if q._policy_batch is not None else _policy_batch(q)
        d = Dist._owning(probs[s])
        d = q._policy_rows[s] = q._policy_canon.setdefault(d.probs.tobytes(), d)
    return d


def _policy_batch(q: QTable) -> np.ndarray:
    """Every row's softmax, read-only; kept on ``q``."""
    # Q / alpha is finite, but a row's spread can pass the float64 range: its
    # low entries then come to exp(-inf) = 0, which numpy need not warn of.
    with np.errstate(over="ignore"):
        probs = softmax_parts(q.values, q.alpha)[0]
    probs.setflags(write=False)
    object.__setattr__(q, "_policy_batch", probs)
    return probs


@np.errstate(over="raise", invalid="raise")
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
    a cycle among its stored entries, or a height above ``horizon_bound``,
    and numpy's ``FloatingPointError``, with no warning, where Q / alpha
    overflows at a tiny temperature. A row whose spread passes the float64
    range is no overflow (``softmax_parts``).
    """
    if mdp.n_states * mdp.n_actions > MAX_EXACT_ENTRIES:
        raise ValueError("MDP too large for exact soft value iteration")
    check_temperature(alpha)
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
        sums = np.exp(_shifted(x, m)).sum(axis=1)
        # math.log, not np.log: numpy's SIMD log can differ in the last bit.
        # Python float arithmetic rounds as numpy's does.
        v_order[p0:p1] = [
            alpha * (mx + math.log(s)) for (mx,), s in zip(m.tolist(), sums.tolist())
        ]
    v[order] = v_order[:n_live]
    return v


@np.errstate(over="raise", invalid="raise")
def train_soft_q(
    mdp: MdpSpec, alpha: float, episodes: int, learning_rate: float, rng: np.random.Generator
) -> QTable:
    """Tabular soft Q-learning with Boltzmann exploration.

    Behavior is the softmax policy of the current table; targets bootstrap
    through the soft value of the next state (zero at terminals). Constant
    ``learning_rate`` in (0, 1], ``episodes`` >= 1 undiscounted episodes;
    every draw comes from ``rng``. One softmax per visited state: the row
    built for the next state gives the step's target and is the policy the
    next step samples from. Raises ``ValueError`` on an argument out of
    range or an MDP that breaks its horizon bound, and numpy's
    ``FloatingPointError``, with no warning, where Q / alpha overflows, as
    ``exact_soft_vi`` does.
    """
    check_temperature(alpha)
    if episodes < 1:
        raise ValueError("episode count must be at least 1")
    if not 0.0 < learning_rate <= 1.0:  # NaN fails this too
        raise ValueError("learning rate must lie in (0, 1]")
    heights(mdp)  # on a cycle, an episode might never end
    q = np.zeros((mdp.n_states, mdp.n_actions))
    for _ in range(episodes):
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
            q[s, a] += learning_rate * (target - q[s, a])
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
