"""The benchmark's workloads: what one operation is and how its output is checked.

Every workload is a closed loop with one client: the next operation starts
when the previous one returns. The benchmark draws every message (and every
sweep-cell seed) from its own generator seeded by ``--seed``; the program
gets those inputs plus a separately seeded ``np.random.Generator``.

Why each workload exists, and which module it stresses, is recorded in
BENCHMARK.json and perfbench/README.md.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Callable

import numpy as np

from tracing import CheckFailed


@dataclasses.dataclass(frozen=True)
class OpResult:
    """What one checked operation delivered."""

    messages: int  # messages carried end to end
    blocks: int  # message blocks scored for accuracy
    correct: float  # blocks decoded correctly
    mean_return: float  # mean MDP return of the operation's episodes


def same_trace(a, b) -> bool:
    """Bit-identical belief traces: same length, same blocks, same bytes."""
    if len(a) != len(b):
        return False
    for x, y in zip(a, b):
        if len(x.blocks) != len(y.blocks):
            return False
        for u, v in zip(x.blocks, y.blocks):
            if u is not v and u.probs.tobytes() != v.probs.tobytes():
                return False
    return True


@dataclasses.dataclass(frozen=True)
class RoundTripWorkload:
    """One operation is ``run_roundtrip`` of one drawn message, planned once at ``beta``."""

    name: str
    build: Callable  # trajcomm -> McgSpec
    beta: float
    min_ops: int  # quality metrics cover exactly the first ``min_ops`` operations
    traced_ops: int  # operations replayed by a traced run
    setup_reps: int

    def setup(self, tc):
        mcg = self.build(tc)
        return mcg, tc.maxent.exact_soft_vi(mcg.mdp, 1.0 / self.beta)

    def draw(self, state, gen: np.random.Generator, i: int):
        space = state[0].message_space
        values = tuple(int(gen.integers(b)) for b in space.block_sizes)
        return values if space.factored else values[0]

    def op(self, tc, state, m, rng: np.random.Generator):
        mcg, q = state
        return tc.coding.run_roundtrip(q, mcg, m, rng)

    def check(self, tc, state, m, record) -> OpResult:
        mcg = state[0]
        if not mcg.message_space.contains(record.decoded):
            raise CheckFailed("DecodedOutsideSpace", repr(record.decoded))
        if not same_trace(record.sender_belief_trace, record.receiver_belief_trace):
            raise CheckFailed("BeliefTraceMismatch", "sender and receiver beliefs differ")
        if mcg.message_space.factored:
            blocks, correct = len(m), sum(a == b for a, b in zip(m, record.decoded))
        else:
            blocks, correct = 1, int(m == record.decoded)
        ret = tc.mdp.trajectory_return(record.trajectory)
        return OpResult(messages=1, blocks=blocks, correct=correct, mean_return=ret)


@dataclasses.dataclass(frozen=True)
class SweepWorkload:
    """One operation is one ``run_sweep`` cell; cells cycle through ``grid``.

    ``config`` holds the ``SweepConfig`` fields other than ``grid`` and
    ``seeds``, which the benchmark fills in per cell.
    """

    name: str
    config: dict
    grid: tuple
    min_ops: int
    traced_ops: int
    setup_reps: int

    def setup(self, tc):
        return tc.sweep.build_env(self.config["env"], self.config["env_params"])

    def draw(self, state, gen: np.random.Generator, i: int):
        return self.grid[i % len(self.grid)], int(gen.integers(2**31))

    def op(self, tc, state, cell, rng: np.random.Generator):
        param, seed = cell
        cfg = tc.sweep.SweepConfig(grid=(param,), seeds=(seed,), **self.config)
        return tc.sweep.run_sweep(cfg)

    def check(self, tc, state, cell, rows) -> OpResult:
        if len(rows) != 1:
            raise CheckFailed("SweepRowCount", f"{len(rows)} rows for one cell")
        row = rows[0]
        if row.error:
            raise CheckFailed(row.error.split(":", 1)[0], row.error)
        return OpResult(
            messages=row.rollouts,
            blocks=1,
            correct=row.decode_accuracy,
            mean_return=row.mean_return,
        )


def codegrid_game(tc, n_messages: int):
    return tc.envs.build_codegrid(n_messages)


def chain_image_game(tc, steps: int, pixels: int, noise_p: float):
    mdp = tc.envs.build_channel_chain(steps, 2)
    space = tc.mcg.MessageSpace.product([2] * pixels)
    return tc.envs.chain_mcg(mdp, space, noise_p=noise_p)


WORKLOADS = {
    w.name: w
    for w in (
        # Coupling- and decision-heavy: ~16 couplings of a 1024-row belief per
        # round trip. At beta=7 the game trades return against accuracy, so a
        # coupler that moves fewer bits shows up as lost accuracy.
        RoundTripWorkload(
            name="codegrid-1024",
            build=functools.partial(codegrid_game, n_messages=1024),
            beta=7.0,
            min_ops=256,
            traced_ops=96,
            setup_reps=21,
        ),
        # 400 tiny 2x2 couplings per round trip, so per-decision fixed cost
        # dominates; the only workload on the factored-message and noise paths.
        RoundTripWorkload(
            name="chain-image-noisy",
            build=functools.partial(chain_image_game, steps=200, pixels=64, noise_p=0.05),
            beta=1.0,
            min_ops=128,
            traced_ops=64,
            setup_reps=7,
        ),
        # Planning-heavy: exact_soft_vi is most of each cell (the paper's
        # beta sweep).
        SweepWorkload(
            name="sweep-chain-plan",
            config={
                "env": "chain",
                "env_params": {"steps": 200, "n_actions": 4, "n_messages": 64},
                "method": "meme",
                "rollouts": 2,
            },
            grid=(1.0, 2.0, 4.0, 8.0),
            min_ops=24,
            traced_ops=16,
            setup_reps=31,
        ),
        # RL plus perfect receiver: step and sample_index ~25k times per cell,
        # no coupling and no planning.
        SweepWorkload(
            name="sweep-rlpr",
            config={
                "env": "codegrid",
                "env_params": {"n_messages": 8},
                "method": "rl_pr",
                "rollouts": 32,
                "episodes": 3000,
            },
            grid=(0.1, 0.3, 1.0, 3.0),
            min_ops=16,
            traced_ops=12,
            setup_reps=31,
        ),
    )
}
