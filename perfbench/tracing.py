"""Per-module tracing that needs no change to ``trajcomm``.

``Tracer`` replaces public callables with timing wrappers for the duration of
a ``with`` block and puts the originals back afterwards. Each wrapper is
installed under the name its caller looks it up by: ``trajcomm.coding`` does
``from .mec import greedy_mec``, so the coder's calls go through
``trajcomm.coding.greedy_mec`` and a wrapper on ``trajcomm.mec.greedy_mec``
would see none of them. Spans stay in memory; ``layer_metrics`` reduces them
to the per-module metrics listed under ``per_layer`` in BENCHMARK.json.

The tracer's clock leaves out the time its own result checks take (coupling
entropies, marginal checks), so span durations and the traced wall time
measure the program plus the bare wrapper cost.
"""

from __future__ import annotations

import collections
import functools
import importlib
import statistics
import time

import numpy as np

# Same tolerance as the program's own "sums to one" checks.
MARGINAL_ATOL = 1e-9


class CheckFailed(RuntimeError):
    """An output broke an invariant; ``kind`` names the check."""

    def __init__(self, kind: str, detail: str):
        super().__init__(f"{kind}: {detail}")
        self.kind = kind


def _mec_result(tracer: "Tracer", args, kwargs, coupling) -> None:
    p, q = args[0], args[1]
    for what, got, want in (
        ("row", coupling.row_marginal().probs, p.probs),
        ("column", coupling.col_marginal().probs, q.probs),
    ):
        err = float(np.max(np.abs(got - want)))
        if err > MARGINAL_ATOL:
            raise CheckFailed("MarginalMismatch", f"greedy_mec {what} marginal off by {err!r}")
    ent = tracer.trajcomm.dist.coupling_entropies(coupling)
    tracer.sums["mec.rows"] += int(np.count_nonzero(p.probs))
    tracer.sums["mec.excess_bits"] += ent.joint_bits - max(
        ent.row_marginal_bits, ent.col_marginal_bits
    )
    tracer.sums["mec.mi_bits"] += ent.mutual_info_bits


def _plan_result(tracer: "Tracer", args, kwargs, qtable) -> None:
    mdp = args[0] if args else kwargs["mdp"]
    live = mdp.n_states - len(mdp.terminal_states)
    tracer.sums["maxent.backups"] += mdp.horizon_bound * live * mdp.n_actions


def _send_result(tracer: "Tracer", args, kwargs, record) -> None:
    steps = record.trajectory.steps
    tracer.sums["coding.decisions"] += len(steps)
    tracer.sums["coding.noise_flips"] += sum(
        s.intended_action != s.executed_action for s in steps
    )


def _decode_result(tracer: "Tracer", args, kwargs, result) -> None:
    z = args[2] if len(args) > 2 else kwargs["z"]
    tracer.sums["coding.decisions"] += len(z.steps)


def _baseline_step_result(tracer: "Tracer", args, kwargs, result) -> None:
    if tracer.in_span("baseline.train"):
        tracer.sums["baseline.train_steps"] += 1


def _sweep_result(tracer: "Tracer", args, kwargs, rows) -> None:
    tracer.sums["sweep.cells"] += len(rows)
    tracer.sums["sweep.cell_errors"] += sum(1 for r in rows if r.error)


# (module, attribute, span name, result hook). ``sample_index`` is wrapped at
# every module that imports it, so ``dist.sample`` counts draws from every
# caller.
TARGETS = (
    ("trajcomm.coding", "sender_episode", "coding.send", _send_result),
    ("trajcomm.coding", "receiver_decode", "coding.decode", _decode_result),
    ("trajcomm.coding", "conditional_rows", "coding.rows", None),
    ("trajcomm.coding", "check_mixture", "coding.mixcheck", None),
    ("trajcomm.coding", "posterior_update", "coding.posterior", None),
    ("trajcomm.coding", "greedy_mec", "mec", _mec_result),
    ("trajcomm.coding", "softmax_policy", "maxent.policy", None),
    ("trajcomm.coding", "step", "mdp.step", None),
    ("trajcomm.coding", "sample_index", "dist.sample", None),
    ("trajcomm.maxent", "exact_soft_vi", "maxent.plan", _plan_result),
    ("trajcomm.maxent", "step", "mdp.step", None),
    ("trajcomm.maxent", "sample_index", "dist.sample", None),
    ("trajcomm.sweep", "run_sweep", "sweep.run", _sweep_result),
    ("trajcomm.sweep", "exact_soft_vi", "maxent.plan", _plan_result),
    ("trajcomm.sweep", "train_rl_pr", "baseline.train", None),
    ("trajcomm.sweep", "rollout_rl_pr", "baseline.rollout", None),
    ("trajcomm.sweep", "sample_index", "dist.sample", None),
    ("trajcomm.baseline", "step", "mdp.step", _baseline_step_result),
    ("trajcomm.baseline", "sample_index", "dist.sample", None),
    ("trajcomm.mcg", "sample_index", "dist.sample", None),
    ("trajcomm.mdp", "sample_index", "dist.sample", None),
    ("trajcomm.envs", "build_codegrid", "envs.build", None),
    ("trajcomm.envs", "build_channel_chain", "envs.build", None),
    ("trajcomm.envs", "chain_mcg", "envs.build", None),
)


class Tracer:
    """Timing wrappers around ``TARGETS``, installed while the tracer is entered.

    A name that no longer exists is skipped and listed in ``absent``; the
    metrics that depend on it then read 0.
    """

    def __init__(self, trajcomm):
        self.trajcomm = trajcomm
        self.durations = collections.defaultdict(list)
        self.self_s = collections.defaultdict(float)
        self.sums = collections.defaultdict(float)
        self.absent: list[str] = []
        self._stack: list[list] = []  # [span name, seconds in child spans]
        self._excluded = 0.0
        self._saved: list[tuple] = []

    def now(self) -> float:
        """Clock that stops while the tracer checks results."""
        return time.perf_counter() - self._excluded

    def __enter__(self) -> "Tracer":
        for module_name, attr, span, hook in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span, hook))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, span: str, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [span, 0.0]
            self._stack.append(frame)
            start = self.now()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = self.now() - start
                self._stack.pop()
                self.durations[span].append(took)
                self.self_s[span] += took - frame[1]
                if self._stack:
                    self._stack[-1][1] += took
            if hook is not None:
                started = time.perf_counter()
                try:
                    hook(self, args, kwargs, result)
                finally:
                    self._excluded += time.perf_counter() - started
            return result

        return traced

    def in_span(self, span: str) -> bool:
        """Whether a span of this name is open around the current call."""
        return any(frame[0] == span for frame in self._stack)

    def calls(self, span: str) -> int:
        return len(self.durations[span])

    def busy_s(self, span: str) -> float:
        return float(sum(self.durations[span]))

    def p50(self, span: str) -> float:
        d = self.durations[span]
        return float(statistics.median(d)) if d else 0.0


def layer_metrics(t: Tracer, wall_s: float, overhead_frac: float, wipeouts: int) -> dict:
    """Reduce a traced run to the per-module metric values, keyed by name."""
    mec_calls = t.calls("mec")
    decisions = t.sums["coding.decisions"]
    coding_self = t.self_s["coding.send"] + t.self_s["coding.decode"]

    def per_mec_call(key):
        return t.sums[key] / mec_calls if mec_calls else 0.0

    return {
        "mec.calls": mec_calls,
        "mec.busy_s": t.busy_s("mec"),
        "mec.us_p50": t.p50("mec") * 1e6,
        "mec.rows_mean": per_mec_call("mec.rows"),
        "mec.excess_bits_mean": per_mec_call("mec.excess_bits"),
        "mec.mi_bits_mean": per_mec_call("mec.mi_bits"),
        "coding.decisions": int(decisions),
        "coding.send_s": t.busy_s("coding.send"),
        "coding.decode_s": t.busy_s("coding.decode"),
        "coding.self_us_per_decision": coding_self / decisions * 1e6 if decisions else 0.0,
        "coding.rows_s": t.busy_s("coding.rows"),
        "coding.mixcheck_s": t.busy_s("coding.mixcheck"),
        "coding.posterior_s": t.busy_s("coding.posterior"),
        "coding.wipeouts": wipeouts,
        "coding.noise_flips": int(t.sums["coding.noise_flips"]),
        "maxent.plan_calls": t.calls("maxent.plan"),
        "maxent.plan_s": t.busy_s("maxent.plan"),
        "maxent.plan_ms_p50": t.p50("maxent.plan") * 1e3,
        "maxent.backups": int(t.sums["maxent.backups"]),
        "maxent.policy_calls": t.calls("maxent.policy"),
        "maxent.policy_s": t.busy_s("maxent.policy"),
        "mdp.step_calls": t.calls("mdp.step"),
        "mdp.step_s": t.busy_s("mdp.step"),
        "mdp.step_us_p50": t.p50("mdp.step") * 1e6,
        "dist.sample_calls": t.calls("dist.sample"),
        "dist.sample_s": t.busy_s("dist.sample"),
        "baseline.train_s": t.busy_s("baseline.train"),
        "baseline.train_steps": int(t.sums["baseline.train_steps"]),
        "baseline.rollout_s": t.busy_s("baseline.rollout"),
        "envs.build_calls": t.calls("envs.build"),
        "envs.build_s": t.busy_s("envs.build"),
        "sweep.cells": int(t.sums["sweep.cells"]),
        "sweep.cell_errors": int(t.sums["sweep.cell_errors"]),
        "trace.wall_s": wall_s,
        "trace.overhead_frac": overhead_frac,
    }
