"""Benchmark for trajcomm: run one workload closed loop and print its metrics.

    python3 perfbench/run.py --workload codegrid-1024 --seed 1 --seconds 20 --trace 0

Run it from the repository root; it imports ``trajcomm`` from ``src/`` next to
this directory and from nowhere else. ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-module metrics of a traced run (which replays
a fixed number of operations per workload). Metric names,
units and directions come from BENCHMARK.json. The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``; the lines before it restate the metrics for people, with the
seed, the software versions and every failed operation.
"""

import os

# One BLAS/OpenMP thread: pinned before numpy is first imported.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"

# Independent random streams derived from --seed: one for the inputs the
# benchmark draws, one per operation for the program's own generator.
INPUT_STREAM, PROGRAM_STREAM = 0, 1

# A p90 is reported only with at least ten samples beyond it.
P90_MIN_SAMPLES = 100

# Machine-speed calibration. The host's cores are shared, and its speed
# drifts by tens of percent within seconds, in this process's CPU time as
# much as in its wall time. Before and after every operation and set-up the
# benchmark times a fixed calibration kernel, and scales each time by
# REFERENCE_CALIBRATION_S over the mean of the two kernel times around it.
# Reported times therefore read as on a host where the kernel takes
# REFERENCE_CALIBRATION_S.
REFERENCE_CALIBRATION_S = 0.0065
_GATHER_FROM = np.arange(1 << 20, dtype=np.float64)
_GATHER_AT = np.random.default_rng(0).integers(0, 1 << 20, 1 << 16)


def load_trajcomm():
    """Import ``trajcomm`` from this checkout's ``src/``; exit if it is not there."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import trajcomm
    except ImportError as e:
        raise SystemExit(f"perfbench: cannot import trajcomm from {src}: {e}")
    if Path(trajcomm.__file__).resolve().parent.parent != src:
        raise SystemExit(f"perfbench: trajcomm came from {trajcomm.__file__}, not {src}")
    return trajcomm


def environment() -> dict:
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
        commit = git.stdout.strip() if git.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": commit,
    }


class WarningCounter(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        self.count += 1


@contextlib.contextmanager
def counted_warnings(logger_name: str):
    """Count a logger's warnings instead of printing them."""
    logger = logging.getLogger(logger_name)
    handler = WarningCounter()
    propagate = logger.propagate
    logger.addHandler(handler)
    logger.propagate = False
    try:
        yield handler
    finally:
        logger.removeHandler(handler)
        logger.propagate = propagate


@dataclasses.dataclass
class Op:
    index: int
    seconds: float
    result: "workloads.OpResult | None"
    error_class: str = ""
    error_detail: str = ""


def operations(tc, wl, state, seed: int):
    """Run operations 0, 1, 2, ... one at a time, checking each; yields ``Op``.

    Operation ``i`` gets the ``i``-th input drawn from the benchmark's own
    generator and a program generator seeded by ``(seed, i)``, so the same
    seed replays the same operations.
    """
    gen = np.random.default_rng([seed, INPUT_STREAM])
    i = 0
    while True:
        inp = wl.draw(state, gen, i)
        rng = np.random.default_rng([seed, PROGRAM_STREAM, i])
        start = time.perf_counter()
        try:
            out = wl.op(tc, state, inp, rng)
        except Exception as e:  # a failed operation is counted, not fatal
            kind = e.kind if isinstance(e, tracing.CheckFailed) else type(e).__name__
            yield Op(i, time.perf_counter() - start, None, kind, str(e))
        else:
            took = time.perf_counter() - start
            try:
                result = wl.check(tc, state, inp, out)
            except tracing.CheckFailed as e:
                yield Op(i, took, None, e.kind, str(e))
            else:
                yield Op(i, took, result)
        i += 1


@dataclasses.dataclass(frozen=True)
class _Vector:
    """A validated read-only vector, built the way the program builds a ``Dist``."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.array(self.values, dtype=np.float64, copy=True)
        if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
            raise ValueError("calibration vector left the simplex")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)


def calibration_kernel() -> float:
    """Fixed work in the program's proportions.

    It has four parts: small-array numpy calls, validated immutable vectors,
    plain interpreter work, and scattered reads from an 8 MB array. Each part
    slows differently when a neighbour loads the host, so their sum tracks
    the program better than any one part. About 6.5 ms on a quiet 2-core VM.
    """
    acc = 0.0
    x = np.linspace(-1.0, 1.0, 64)
    for i in range(330):
        y = np.exp(x * (i % 7))
        y /= y.sum()
        acc += float(y[i % 64])
        sorted(range(8), key=lambda j: (j * 7919 + i) % 11)
    kept = {}
    v = [0.25, 0.25, 0.5]
    for i in range(200):
        d = _Vector(v)
        kept[i % 64] = (d, tuple(range(i % 5)))
        v = [d.values[2] * 0.5, d.values[0], 1.0 - d.values[2] * 0.5 - d.values[0]]
    table = {}
    n = 0
    for i in range(7000):
        n += (i * 7) % 13
        table[i % 251] = n
    for _ in range(2):
        acc += float(_GATHER_FROM.take(_GATHER_AT).sum())
    return acc + n


def calibration_s() -> float:
    start = time.perf_counter()
    calibration_kernel()
    return time.perf_counter() - start


def speed_scaled(durations: list, calibrations: list) -> list:
    """Scale durations to the reference speed.

    ``calibrations[i]`` and ``calibrations[i + 1]`` are the kernel times just
    before and just after ``durations[i]``.
    """
    return [
        d * 2 * REFERENCE_CALIBRATION_S / (before + after)
        for d, before, after in zip(durations, calibrations, calibrations[1:])
    ]


def run_for(ops_iter, seconds: float, min_ops: int) -> tuple[list, list]:
    """Operation 0 warms up; then run until ``seconds`` pass and ``min_ops`` are done.

    At least one operation follows the warm-up. Returns the operations and
    the calibration times around them, one more than there are operations.
    """
    calibrations = [calibration_s()]
    ops = [next(ops_iter)]
    calibrations.append(calibration_s())
    start = time.perf_counter()
    for op in ops_iter:
        ops.append(op)
        calibrations.append(calibration_s())
        if len(ops) >= min_ops and time.perf_counter() - start >= seconds:
            break
    return ops, calibrations


def measure(tc, wl, seed: int, seconds: float):
    """Untraced run: returns (end-to-end metrics, operations, reported-only extras)."""
    setup_times, setup_calibrations = [], [calibration_s()]
    for _ in range(wl.setup_reps):
        start = time.perf_counter()
        state = wl.setup(tc)
        setup_times.append(time.perf_counter() - start)
        setup_calibrations.append(calibration_s())
    with counted_warnings("trajcomm.coding"):
        ops, calibrations = run_for(operations(tc, wl, state, seed), seconds, wl.min_ops)
    timed = ops[1:]
    raw = [op.seconds for op in timed]
    durations = speed_scaled(raw, calibrations[1:])
    delivered = sum(op.result.messages for op in timed if op.result)
    scored = [op.result for op in ops[: wl.min_ops] if op.result]
    blocks = sum(r.blocks for r in scored)
    metrics = {
        "setup_s": statistics.median(speed_scaled(setup_times, setup_calibrations)),
        "op_ms_p50": statistics.median(durations) * 1e3,
        "msgs_per_s": delivered / sum(durations),
        "decode_accuracy": sum(r.correct for r in scored) / blocks if blocks else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    extras = {
        "timed_ops": len(timed),
        "raw_op_ms_p50": statistics.median(raw) * 1e3,
        "raw_setup_s": statistics.median(setup_times),
        "calibration_ms": statistics.median(calibrations) * 1e3,
        "op_ms_p90": (
            float(np.percentile(durations, 90)) * 1e3
            if len(durations) >= P90_MIN_SAMPLES
            else None
        ),
        "mean_return": statistics.fmean(r.mean_return for r in scored) if scored else 0.0,
        "failed_frac": sum(1 for op in ops if op.result is None) / len(ops),
    }
    return metrics, ops, extras


def measure_traced(tc, wl, seed: int):
    """Traced run: ``wl.traced_ops`` operations untraced, then the same ones traced.

    The count is fixed rather than timed, so every per-module count repeats
    exactly for a seed and busy times compare across commits on identical
    work. Returns (per-module metrics, operations of both passes, tracer);
    the tracing overhead compares the speed-scaled time of the two passes.
    """
    with counted_warnings("trajcomm.coding") as warnings:
        state = wl.setup(tc)
        reference, reference_cal = run_for(operations(tc, wl, state, seed), 0.0, wl.traced_ops)
        before = warnings.count
        with tracing.Tracer(tc) as tracer:
            start = tracer.now()
            state = wl.setup(tc)
            traced, traced_cal = run_for(operations(tc, wl, state, seed), 0.0, wl.traced_ops)
            wall = tracer.now() - start - sum(traced_cal)
        wipeouts = warnings.count - before

    def scaled_s(ops, calibrations):
        return sum(speed_scaled([op.seconds for op in ops[1:]], calibrations[1:]))

    overhead = scaled_s(traced, traced_cal) / scaled_s(reference, reference_cal) - 1
    metrics = tracing.layer_metrics(tracer, wall, overhead, wipeouts)
    return metrics, reference + traced, tracer


def report_metrics(lines: list, spec: dict, metrics: dict) -> dict:
    """Add one line per metric to ``lines``; return the JSON ``metrics`` object."""
    if set(metrics) != set(spec):
        mismatch = sorted(set(metrics) ^ set(spec))
        raise RuntimeError(f"metrics {mismatch} disagree with BENCHMARK.json")
    out = {}
    for name, m in spec.items():
        value = metrics[name]
        lines.append(f"{name:32s} {value:>14.6g} {m['unit']:10s} {m['better']} is better")
        out[name] = {"value": value, "unit": m["unit"]}
    return out


def shares(metrics: dict) -> str:
    wall = metrics["trace.wall_s"]
    parts = {
        "coding (send+decode)": metrics["coding.send_s"] + metrics["coding.decode_s"],
        "mec": metrics["mec.busy_s"],
        "maxent.plan": metrics["maxent.plan_s"],
        "baseline.train": metrics["baseline.train_s"],
        "mdp.step": metrics["mdp.step_s"],
        "dist.sample": metrics["dist.sample_s"],
    }
    return ", ".join(f"{k} {v / wall:.1%}" for k, v in parts.items()) if wall else "n/a"


def run(tc, wl, seed: int, seconds: float, trace: bool, doc: dict) -> tuple[dict, list]:
    """Measure one workload; returns (result object, human-readable lines)."""
    lines = [f"workload={wl.name} seed={seed} seconds={seconds} trace={int(trace)}"]
    lines.append("environment: " + json.dumps(environment(), sort_keys=True))
    if trace:
        metrics, ops, tracer = measure_traced(tc, wl, seed)
        spec = {m["name"]: m for m in doc["per_layer"]}
        lines.append(f"share of traced wall time: {shares(metrics)}")
        for name in tracer.absent:
            lines.append(f"absent: {name} no longer exists; its metrics read 0")
    else:
        metrics, ops, extras = measure(tc, wl, seed, seconds)
        spec = {m["name"]: m for m in doc["end_to_end"]}
        p90 = extras["op_ms_p90"]
        lines.append(
            f"timed ops {extras['timed_ops']}; op_ms_p90 "
            + (f"{p90:.6g} ms" if p90 is not None else f"n/a (< {P90_MIN_SAMPLES} timed ops)")
            + f"; mean_return {extras['mean_return']:.6g}; failed_frac {extras['failed_frac']:.6g}"
        )
        lines.append(
            f"unscaled op_ms_p50 {extras['raw_op_ms_p50']:.6g} ms,"
            f" setup_s {extras['raw_setup_s']:.6g} s;"
            f" calibration kernel median {extras['calibration_ms']:.6g} ms"
            f" (reference {REFERENCE_CALIBRATION_S * 1e3:g} ms)"
        )
    failed = [op for op in ops if op.result is None]
    for op in failed:
        lines.append(f"failed op {op.index}: {op.error_class}: {op.error_detail[:200]}")
    result = {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": report_metrics(lines, spec, metrics),
    }
    return result, lines


def main(argv=None) -> int:
    doc = json.loads(SPEC_PATH.read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    tc = load_trajcomm()
    wl = workloads.WORKLOADS[args.workload]
    result, lines = run(tc, wl, args.seed, args.seconds, bool(args.trace), doc)
    for line in lines:
        print("# " + line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
