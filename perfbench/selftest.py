"""Self-tests for the benchmark harness, kept out of the repository's test suite.

    python3 -m pytest -q perfbench/selftest.py

Every workload runs at a tiny size, traced and untraced, and must report each
metric BENCHMARK.json names with its unit and direction. Tampered or broken
outputs must be counted as failed operations without aborting the run.
"""

import dataclasses
import functools
import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (pins the thread pools before numpy loads)
import tracing  # noqa: E402
import workloads  # noqa: E402

DOC = json.loads(run.SPEC_PATH.read_text())
TC = run.load_trajcomm()

TINY = {
    "codegrid-1024": {"build": functools.partial(workloads.codegrid_game, n_messages=16)},
    "chain-image-noisy": {
        "build": functools.partial(workloads.chain_image_game, steps=24, pixels=8, noise_p=0.05)
    },
    "sweep-chain-plan": {
        "config": {
            "env": "chain",
            "env_params": {"steps": 12, "n_actions": 4, "n_messages": 8},
            "method": "meme",
            "rollouts": 2,
        }
    },
    "sweep-rlpr": {
        "config": {
            "env": "codegrid",
            "env_params": {"n_messages": 4},
            "method": "rl_pr",
            "rollouts": 4,
            "episodes": 20,
        }
    },
}


def tiny(name: str, **changes):
    fields = {"min_ops": 3, "traced_ops": 3, "setup_reps": 2, **TINY[name], **changes}
    return dataclasses.replace(workloads.WORKLOADS[name], **fields)


def run_tiny(name: str, trace: bool, seed: int = 3, **changes):
    return run.run(TC, tiny(name, **changes), seed, 0.01, trace, DOC)


def test_benchmark_json_names_every_workload():
    assert [w["name"] for w in DOC["workloads"]] == list(workloads.WORKLOADS)
    assert set(TINY) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_run_reports_every_metric(name, trace):
    originals = [
        (importlib.import_module(m), attr, getattr(importlib.import_module(m), attr))
        for m, attr, _, _ in tracing.TARGETS
    ]
    result, lines = run_tiny(name, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    listed = DOC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        reported = result["metrics"][m["name"]]
        assert reported["unit"] == m["unit"]
        assert isinstance(reported["value"], (int, float))
        assert any(
            line.split()[:1] == [m["name"]] and f"{m['unit']}" in line.split()
            and line.endswith(f"{m['better']} is better")
            for line in lines
        )
    for module, attr, original in originals:
        assert getattr(module, attr) is original


def test_same_seed_repeats_decode_accuracy():
    first, _ = run_tiny("codegrid-1024", False, seed=11)
    second, _ = run_tiny("codegrid-1024", False, seed=11)
    key = "decode_accuracy"
    assert first["metrics"][key]["value"] == second["metrics"][key]["value"]


@pytest.mark.parametrize(
    "name, kinds",
    [
        ("chain-image-noisy", {"BeliefTraceMismatch"}),
        ("codegrid-1024", {"BeliefTraceMismatch", "ValueError"}),
    ],
)
def test_tampered_action_is_a_failed_operation(monkeypatch, name, kinds):
    original = TC.coding.receiver_decode
    calls = []

    def tampered(q, mcg, z):
        calls.append(z)
        if len(calls) == 2:  # operation 1; operation 0 is the warm-up
            (s, a), *rest = z.steps
            flipped = (s, (a + 1) % mcg.mdp.n_actions)
            z = TC.mdp.ObservedTrajectory(steps=(flipped, *rest), final_state=z.final_state)
        return original(q, mcg, z)

    monkeypatch.setattr(TC.coding, "receiver_decode", tampered)
    result, lines = run_tiny(name, False)
    assert not result["correct"]
    assert result["failed"] == 1 and result["attempted"] >= 3
    failures = [line for line in lines if line.startswith("failed op")]
    assert len(failures) == 1 and failures[0].split(":")[0] == "failed op 1"
    assert failures[0].split(":")[1].strip() in kinds


def test_sweep_row_error_is_a_failed_operation():
    # rl_pr caps message spaces at 128, so every cell stores an error row.
    config = {**TINY["sweep-rlpr"]["config"], "env_params": {"n_messages": 200}}
    result, lines = run_tiny("sweep-rlpr", False, config=config)
    assert result["failed"] == result["attempted"] >= 3
    assert all("ValueError" in line for line in lines if line.startswith("failed op"))


def test_traced_run_flags_coupling_with_wrong_marginals(monkeypatch):
    original = TC.coding.greedy_mec

    def skewed(p, q):
        return original(p, TC.dist.Dist.point_mass(0, len(q)))

    monkeypatch.setattr(TC.coding, "greedy_mec", skewed)
    result, lines = run_tiny("codegrid-1024", True)
    assert result["failed"] == result["attempted"]
    assert any(": MarginalMismatch:" in line for line in lines)


def test_absent_name_is_reported_not_fatal(monkeypatch):
    monkeypatch.delattr(TC.maxent, "step")  # not on any workload's path
    result, lines = run_tiny("codegrid-1024", True)
    assert result["correct"]
    assert "absent: trajcomm.maxent.step no longer exists; its metrics read 0" in lines


def test_cli_prints_the_result_last(monkeypatch, capsys):
    monkeypatch.setitem(workloads.WORKLOADS, "sweep-rlpr", tiny("sweep-rlpr"))
    argv = ["--workload", "sweep-rlpr", "--seed", "5", "--seconds", "0.01", "--trace", "0"]
    assert run.main(argv) == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}


def test_cli_fails_without_the_program(tmp_path):
    shutil.copy(run.SPEC_PATH, tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    argv = ["--workload", "codegrid-1024", "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", *argv],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
