"""The benchmark's hold on the program: each workload in ``perfbench/`` runs
one checked operation against this checkout, and the tracer finds the names
it wraps. A change to the package's API that breaks the benchmark fails here.

The benchmark's own modules are imported as they are, from ``perfbench/``.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

import trajcomm

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import tracing  # noqa: E402
import workloads  # noqa: E402

# Targets the tracer already skips: ``coding.conditional_rows`` is gone, and
# the sweep draws its messages through ``mcg.sample_message``.
STALE_TARGETS = {"trajcomm.coding.conditional_rows", "trajcomm.sweep.sample_index"}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_runs_one_checked_operation(name):
    # Seeded as perfbench/run.py seeds operation 0 of --seed 1.
    wl = workloads.WORKLOADS[name]
    state = wl.setup(trajcomm)
    inp = wl.draw(state, np.random.default_rng([1, 0]), 0)
    out = wl.op(trajcomm, state, inp, np.random.default_rng([1, 1, 0]))
    result = wl.check(trajcomm, state, inp, out)
    assert result.messages >= 1 and 0 <= result.correct <= result.blocks


def test_tracer_finds_every_target_but_the_stale_ones():
    with tracing.Tracer(trajcomm) as tracer:
        pass
    assert set(tracer.absent) <= STALE_TARGETS
