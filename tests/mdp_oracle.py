"""Sampled and enumerated trajectories of small games, the oracles the exact
evaluators and the coder are measured against in the tests, and the
round-by-round height iteration ``mdp.heights`` is measured against."""

from __future__ import annotations

from typing import Callable

import numpy as np

from trajcomm.dist import Dist, sample_index
from trajcomm.mcg import McgSpec, message_prior_prob
from trajcomm.mdp import (
    MdpSpec,
    ObservedTrajectory,
    Step,
    Trajectory,
    apply_actuator_noise,
    step,
    trajectory_return,
)

ENUMERATION_LIMIT = 10**6


def heights_by_rounds(mdp: MdpSpec) -> np.ndarray:
    """Reference for ``mdp.heights``: the same heights and the same error.

    Iterates h(s) = 1 + max of h over s's entries from h = 0, on all live
    states at once: each live state's entries are contiguous, so one
    ``maximum.reduceat`` takes every max. After k rounds h is the height
    capped at k, so h is final after the first round k whose max is below
    k; if round ``horizon_bound + 1`` is not, some height exceeds the bound.
    """
    live = np.flatnonzero(~mdp.terminal_mask)
    n_live = len(live)
    if not n_live:
        return np.zeros(0, dtype=np.int64)
    position = np.full(mdp.n_states, n_live)  # terminals read the last slot, 0
    position[live] = np.arange(n_live)
    nxt = position[mdp.next_state]
    starts = mdp.row_offsets[live * mdp.n_actions]
    h = np.zeros(n_live + 1, dtype=np.int64)
    top = np.empty(n_live, dtype=np.int64)
    for k in range(1, mdp.horizon_bound + 2):
        np.maximum.reduceat(h[nxt], starts, out=top)
        np.add(top, 1, out=h[:n_live])
        if top.max() < k - 1:  # top is h - 1
            return h[:n_live]
    raise ValueError(
        f"the MDP breaks its horizon bound: a state is more than {mdp.horizon_bound} "
        "steps from a terminal, or on a cycle"
    )


def rollout(
    mdp: MdpSpec,
    policy: Callable[[int], Dist],
    rng: np.random.Generator,
    noise_p: float = 0.0,
) -> Trajectory:
    """Play one episode following ``policy``, with optional actuator noise."""
    s = mdp.initial_state
    steps = []
    while not mdp.is_terminal(s):
        if len(steps) >= mdp.horizon_bound:
            raise RuntimeError("episode exceeded the declared horizon bound")
        intended = sample_index(policy(s).probs, rng)
        executed = apply_actuator_noise(intended, noise_p, mdp.n_actions, rng)
        nxt, reward = step(mdp, s, executed, rng)
        steps.append(Step(s, intended, executed, reward))
        s = nxt
    return Trajectory(steps=tuple(steps), final_state=s)


def enumerate_trajectories(
    mdp: MdpSpec, policy: Callable[[int], Dist]
) -> list[tuple[Trajectory, float]]:
    """Every positive-probability trajectory of a (noiseless) policy.

    Probabilities multiply policy and transition branches and sum to 1 within
    tolerance. A backward pass first counts the trajectories, and raises if
    there are more than ``ENUMERATION_LIMIT``, before any is built.
    """
    action_probs: dict[int, np.ndarray] = {}
    counts: dict[int, int] = {}

    def count(s: int) -> int:
        if mdp.is_terminal(s):
            return 1
        if s not in counts:
            probs = action_probs[s] = policy(s).probs
            counts[s] = sum(
                count(nxt)
                for a in range(mdp.n_actions)
                if probs[a] != 0.0
                for nxt, pt in mdp.successors(s, a)
                if pt != 0.0
            )
        return counts[s]

    if count(mdp.initial_state) > ENUMERATION_LIMIT:
        raise ValueError("trajectory enumeration exceeded its size guard")

    out: list[tuple[Trajectory, float]] = []
    prefix: list[Step] = []

    def walk(s: int, prob: float):
        if mdp.is_terminal(s):
            out.append((Trajectory(steps=tuple(prefix), final_state=s), prob))
            return
        probs = action_probs[s]
        for a in range(mdp.n_actions):
            pa = float(probs[a])
            if pa == 0.0:
                continue
            reward = float(mdp.rewards[s, a])
            for nxt, pt in mdp.successors(s, a):
                if pt == 0.0:
                    continue
                prefix.append(Step(s, a, a, reward))
                walk(nxt, prob * pa * pt)
                prefix.pop()

    walk(mdp.initial_state, 1.0)
    return out


def exact_mcg_value(
    mcg: McgSpec,
    sender_policy: Callable[[int, object], Dist],
    receiver_guess: Callable[[ObservedTrajectory], Dist],
) -> float:
    """Exact expected payoff of a (sender, receiver) pair, noiseless.

    ``sender_policy(s, m)`` gives the sender's action distribution;
    ``receiver_guess(view)`` gives a distribution over guessed messages,
    indexed in message-enumeration order. Enumeration is over every message
    and every positive-probability trajectory, so this is only for small
    games.
    """
    messages = list(mcg.message_space.messages())
    total = 0.0
    for mi, m in enumerate(messages):
        pm = message_prior_prob(mcg, m)
        if pm == 0.0:
            continue
        for z, pz in enumerate_trajectories(mcg.mdp, lambda s, _m=m: sender_policy(s, _m)):
            guess = receiver_guess(z.receiver_view())
            total += pm * pz * (trajectory_return(z) + mcg.priority * guess[mi])
    return total
