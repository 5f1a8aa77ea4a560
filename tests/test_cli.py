"""End-to-end runs of the command-line file pipeline."""

import hashlib
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from trajcomm.cli import main
from trajcomm.envs import build_toy_mcg, chain_mcg
from trajcomm.formats import load_mcg, load_qtable, mcg_to_document, save_mcg, save_qtable
from trajcomm.maxent import train_soft_q
from trajcomm.mcg import MessageSpace
from trajcomm.mdp import MdpSpec


def _codegrid_8(tmp_path):
    """A codegrid spec with 8 messages and its Q table at beta = 2."""
    spec, qtable = tmp_path / "env.json", tmp_path / "q.txt"
    assert main(["make-env", "codegrid", "--messages", "8", "--out", str(spec)]) == 0
    assert main(["solve", "--spec", str(spec), "--beta", "2", "--out", str(qtable)]) == 0
    return spec, qtable


SRC = Path(__file__).resolve().parents[1] / "src"


def _run_cli(argv, cwd):
    """``python -m trajcomm.cli`` with ``argv``, in a process of its own on this
    checkout's sources; one that runs past a minute fails the test."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "trajcomm.cli", *argv], cwd=cwd,
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=60,
    )


def test_solve_send_receive_decodes_the_sent_message(tmp_path):
    spec, qtable = _codegrid_8(tmp_path)
    traj, decoded = tmp_path / "z.txt", tmp_path / "m.txt"
    assert main([
        "send", "--spec", str(spec), "--qtable", str(qtable),
        "--message", "3", "--seed", "0", "--out", str(traj),
    ]) == 0
    assert main([
        "receive", "--spec", str(spec), "--qtable", str(qtable),
        "--traj", str(traj), "--out", str(decoded),
    ]) == 0
    assert decoded.read_text() == "3\n"


def test_noisy_chain_round_trips_decode_with_the_spec_noise(tmp_path):
    # Sender and receiver both read the actuator noise from the spec; a
    # send-only override would leave the receiver's Bayes update assuming the
    # wrong noise level.
    spec, qtable = tmp_path / "env.json", tmp_path / "q.txt"
    assert main([
        "make-env", "chain", "--steps", "40", "--actions", "2", "--messages", "64",
        "--noise-p", "0.2", "--out", str(spec),
    ]) == 0
    assert main(["solve", "--spec", str(spec), "--beta", "1", "--out", str(qtable)]) == 0
    flips = 0
    for seed, message in enumerate((0, 37, 10, 47)):
        traj, decoded = tmp_path / f"z{seed}.txt", tmp_path / f"m{seed}.txt"
        assert main([
            "send", "--spec", str(spec), "--qtable", str(qtable),
            "--message", str(message), "--seed", str(seed), "--out", str(traj),
        ]) == 0
        assert main([
            "receive", "--spec", str(spec), "--qtable", str(qtable),
            "--traj", str(traj), "--out", str(decoded),
        ]) == 0
        assert decoded.read_text() == f"{message}\n"
        steps = [line.split() for line in traj.read_text().splitlines()[1:]]
        flips += sum(intended != executed for _, intended, executed, _ in steps)
    assert flips > 0
    with pytest.raises(SystemExit):
        main([
            "send", "--spec", str(spec), "--qtable", str(qtable), "--message", "0",
            "--seed", "0", "--noise-p", "0.2", "--out", str(tmp_path / "z.txt"),
        ])


def test_train_writes_the_sampled_table_that_send_and_receive_use(tmp_path):
    spec, qtable = tmp_path / "env.json", tmp_path / "q.txt"
    traj, decoded = tmp_path / "z.txt", tmp_path / "m.txt"
    assert main([
        "make-env", "chain", "--steps", "3", "--actions", "2", "--messages", "4",
        "--out", str(spec),
    ]) == 0
    assert main([
        "train", "--spec", str(spec), "--beta", "1", "--episodes", "2000", "--seed", "0",
        "--out", str(qtable),
    ]) == 0
    want = tmp_path / "want.txt"
    save_qtable(train_soft_q(load_mcg(spec).mdp, 1.0, 2000, 0.1, np.random.default_rng(0)), want)
    assert qtable.read_bytes() == want.read_bytes()
    assert main([
        "send", "--spec", str(spec), "--qtable", str(qtable),
        "--message", "2", "--seed", "0", "--out", str(traj),
    ]) == 0
    assert main([
        "receive", "--spec", str(spec), "--qtable", str(qtable),
        "--traj", str(traj), "--out", str(decoded),
    ]) == 0
    assert decoded.read_text() == "2\n"


def test_mec_prints_the_coupling_and_its_entropy(tmp_path, capsys):
    p, q = tmp_path / "p.txt", tmp_path / "q.txt"
    p.write_text("0.5\n0.5\n")
    q.write_text("0.5\n0.25\n0.25\n")
    assert main(["mec", "--p", str(p), "--q", str(q)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:3] == ["0.5 0 0", "0.25 1 1", "0.25 1 2"]
    assert "joint_bits 1.5" in lines


def test_mec_checks_the_coupling_against_its_inputs(tmp_path, monkeypatch):
    from trajcomm import cli
    from trajcomm.dist import Dist

    p, q = tmp_path / "p.txt", tmp_path / "q.txt"
    p.write_text("0.5\n0.5\n")
    q.write_text("0.5\n0.5\n")
    original = cli.greedy_mec
    monkeypatch.setattr(cli, "greedy_mec", lambda a, b: original(a, Dist.point_mass(0, len(b))))
    with pytest.raises(RuntimeError, match="drifted from the policy"):
        main(["mec", "--p", str(p), "--q", str(q)])


def test_mec_names_a_faulty_line_of_a_distribution_file(tmp_path, capsys):
    # The line "abc" printed float()'s "could not convert string to float: 'abc'".
    p, q = tmp_path / "p.txt", tmp_path / "q.txt"
    p.write_text("# a coin\n0.5\nabc  # typo\n")
    q.write_text("1.0\n")
    assert main(["mec", "--p", str(p), "--q", str(q)]) == 2
    err = capsys.readouterr().err
    assert err == "error: distribution line 3 is not 'probability': 'abc'\n"


def test_receive_writes_the_belief_entropy_trace(tmp_path):
    spec, qtable = _codegrid_8(tmp_path)
    traj, decoded, csv = tmp_path / "z.txt", tmp_path / "m.txt", tmp_path / "h.csv"
    assert main([
        "send", "--spec", str(spec), "--qtable", str(qtable),
        "--message", "5", "--seed", "1", "--out", str(traj),
    ]) == 0
    assert main([
        "receive", "--spec", str(spec), "--qtable", str(qtable), "--traj", str(traj),
        "--out", str(decoded), "--entropy-csv", str(csv),
    ]) == 0
    n_steps = len(traj.read_text().splitlines()) - 1
    lines = csv.read_text().splitlines()
    assert lines[0] == "step,belief_entropy_bits"
    rows = [line.split(",") for line in lines[1:]]
    assert [int(step) for step, _ in rows] == list(range(n_steps + 1))
    bits = [float(h) for _, h in rows]
    assert bits[0] == pytest.approx(3.0, abs=1e-9)
    assert all(0.0 <= h <= 3.0 for h in bits)


def test_sweep_writes_one_row_per_cell(tmp_path):
    config, out = tmp_path / "sweep.json", tmp_path / "rows.csv"
    config.write_text(json.dumps({
        "env": "codegrid", "env_params": {"n_messages": 4}, "method": "meme",
        "grid": [2.0], "seeds": [0], "rollouts": 2,
    }))
    assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0
    header, *rows = out.read_text().splitlines()
    assert header == (
        "method,beta_or_zeta,noise_p,seed,decode_accuracy,accuracy_se,mean_return,"
        "return_se,mean_hamming,hamming_se,rollouts,error"
    )
    assert len(rows) == 1
    assert rows[0].split(",")[-1] == ""


def test_sweep_takes_the_grid_keywords(tmp_path):
    config, out = tmp_path / "sweep.json", tmp_path / "rows.csv"
    config.write_text(json.dumps({
        "env": "codegrid", "method": "meme", "grid": [2.0], "seeds": [0], "rollouts": 2,
        "env_params": {"n_messages": 4, "width": 3, "height": 3, "goal": [3, 3],
                       "max_steps": 5},
    }))
    assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0
    [row] = out.read_text().splitlines()[1:]
    assert row.split(",")[-1] == ""


@pytest.mark.parametrize(
    "doc, key",
    [
        ({"env": "codegrid", "method": "meme", "grid": [2.0], "seeds": [0], "rollout": 3},
         "rollout"),
        ({"method": "meme", "grid": [2.0], "seeds": [0]}, "env"),
        ({"env": "codegrid", "method": "meme", "grid": [2.0], "seeds": [0], "rollouts": 0},
         "rollouts"),
        ({"env": "codegrid", "method": "rl_pr", "grid": [2.0], "seeds": [0],
          "method_params": {"learning_rate": 0.1}}, "method_params"),
        ({"env": "codegrid", "method": "rl_pr", "grid": [2.0], "seeds": [0], "episodes": 0},
         "episodes"),
        ({"env": "codegrid", "method": "meme", "grid": [2.0], "seeds": [0],
          "noise_p": [0.1, 0.6]}, "noise_p"),
        ({"env": "codegrid", "method": "meme", "grid": [2.0], "seeds": [0],
          "env_params": {"n_mesages": 4}}, "n_mesages"),
        ({"env": "codegrid", "method": "meme", "grid": [2.0], "seeds": [0],
          "env_params": {"n_messages": 4, "noise_p": 0.3}}, "noise_p"),
        ({"env": "toy", "method": "meme", "grid": [2.0], "seeds": [0], "noise_p": []},
         "noise_p"),
        ({"env": "codegrid", "method": "meme", "grid": [2.0], "seeds": [0],
          "env_params": {"grid": {"width": 3}}}, "grid"),
        ({"env": "toy", "method": "meme", "grid": [2.0], "seeds": [0], "rollouts": 2.5},
         "rollouts"),
        ({"env": "toy", "method": "meme", "grid": [2.0], "seeds": [0], "rollouts": True},
         "rollouts"),
        ({"env": "toy", "method": "rl_pr", "grid": [2.0], "seeds": [0], "episodes": 2.5,
          "rollouts": 1}, "episodes"),
        ({"env": "toy", "method": "meme", "grid": [2.0], "seeds": [1.5], "rollouts": 1},
         "seeds"),
        # Each grid value and noise level was run through float(): "17" ran
        # beta = 1 and beta = 7, ["7", true] ran (7.0, 1.0), and "0" ran (0.0,).
        ({"env": "toy", "method": "meme", "grid": "17", "seeds": [0]}, "grid"),
        ({"env": "toy", "method": "meme", "grid": ["7", 2.0], "seeds": [0]}, "grid"),
        ({"env": "toy", "method": "meme", "grid": [7.0, True], "seeds": [0]}, "grid"),
        ({"env": "toy", "method": "meme", "grid": [None], "seeds": [0]}, "grid"),
        ({"env": "toy", "method": "meme", "grid": [2.0], "seeds": [0], "noise_p": "0"},
         "noise_p"),
        ({"env": "toy", "method": "meme", "grid": [2.0], "seeds": [0], "noise_p": ["0"]},
         "noise_p"),
        ({"env": "toy", "method": "meme", "grid": [2.0], "seeds": [0], "noise_p": [False]},
         "noise_p"),
        ({"env": "toy", "method": "meme", "grid": [2.0], "seeds": [0], "noise_p": [[0.1]]},
         "noise_p"),
        # Each game parameter is held to its builder's annotation. These ran
        # every cell into an error row, and the sweep exited 0.
        ({"env": "codegrid", "method": "meme", "grid": [2.0], "seeds": [0],
          "env_params": {"n_messages": "8"}}, "n_messages"),
        ({"env": "codegrid", "method": "meme", "grid": [2.0], "seeds": [0],
          "env_params": {"n_messages": 8.0}}, "n_messages"),
        ({"env": "codegrid", "method": "meme", "grid": [2.0], "seeds": [0],
          "env_params": {"n_messages": True}}, "n_messages"),
        ({"env": "codegrid", "method": "meme", "grid": [2.0], "seeds": [0],
          "env_params": {"priority": True}}, "priority"),
        ({"env": "codegrid", "method": "rl_pr", "grid": [2.0], "seeds": [0],
          "env_params": {"priority": "1"}}, "priority"),
        ({"env": "codegrid", "method": "meme", "grid": [2.0], "seeds": [0],
          "env_params": {"goal": [3]}}, "goal"),
        ({"env": "codegrid", "method": "meme", "grid": [2.0], "seeds": [0],
          "env_params": {"start": [1.5, 1]}}, "start"),
        ({"env": "coding", "method": "meme", "grid": [2.0], "seeds": [0],
          "env_params": {"symbol_costs": ["1", "2"]}}, "symbol_costs"),
        ({"env": "chain", "method": "meme", "grid": [2.0], "seeds": [0],
          "env_params": {"rewards": [1.0]}}, "rewards"),
        # A negative seed exited 2 with numpy's "expected non-negative
        # integer", which names no field.
        ({"env": "toy", "method": "meme", "grid": [2.0], "seeds": [0, -1]}, "seeds"),
        # Each reward is held to float: true was played as 1.0 and "2.5" as 2.5.
        ({"env": "chain", "method": "meme", "grid": [2.0], "seeds": [0],
          "env_params": {"steps": 3, "n_actions": 2, "rewards": {"0": True}}}, "rewards"),
        ({"env": "chain", "method": "meme", "grid": [2.0], "seeds": [0],
          "env_params": {"steps": 3, "n_actions": 2, "rewards": {"1": "2.5"}}}, "rewards"),
        # Values that fit their annotations but that the builder refuses.
        # The game was built in every cell, so each of these was an error row
        # and the sweep exited 0.
        ({"env": "chain", "method": "meme", "grid": [2.0], "seeds": [0],
          "env_params": {"steps": 3, "rewards": {"7": 1.0}}}, "rewards"),
        ({"env": "chain", "method": "meme", "grid": [2.0], "seeds": [0],
          "env_params": {"steps": 3, "rewards": {"zero": 1.0}}}, "rewards"),
        ({"env": "chain", "method": "rl_pr", "grid": [2.0], "seeds": [0],
          "env_params": {"steps": 0}}, "steps"),
        ({"env": "codegrid", "method": "meme", "grid": [2.0], "seeds": [0],
          "env_params": {"start": [2, 2], "goal": [2, 2]}}, "start"),
        ({"env": "codegrid", "method": "rl_pr", "grid": [2.0], "seeds": [0],
          "env_params": {"n_messages": 0}}, "n_messages"),
    ],
    ids=["misspelt-key", "missing-env", "rollouts-0", "method-params", "episodes-0",
         "noise-p-0.6", "env-params-typo", "env-params-noise", "noise-p-empty",
         "env-params-grid", "rollouts-float", "rollouts-bool", "episodes-float",
         "seed-float", "grid-string", "grid-string-item", "grid-bool-item",
         "grid-null-item", "noise-p-string", "noise-p-string-item", "noise-p-bool-item",
         "noise-p-list-item", "env-params-int-string", "env-params-int-float",
         "env-params-int-bool", "env-params-priority-bool", "env-params-priority-string",
         "env-params-tuple-short", "env-params-tuple-float-item",
         "env-params-tuple-string-items", "env-params-dict-list", "seed-negative",
         "env-params-dict-bool-value", "env-params-dict-string-value",
         "chain-reward-step-off-chain", "chain-reward-key-no-step", "chain-steps-0",
         "codegrid-start-on-goal", "codegrid-messages-0"],
)
def test_sweep_rejects_a_bad_config_key(tmp_path, capsys, doc, key):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps(doc))
    assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "rows.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and repr(key) in err
    assert not (tmp_path / "rows.csv").exists()


# make-env command lines and the SHA-256 of the spec each writes. Every game's
# defaults live in its builder; these digests were recorded when the defaults
# were still restated on the command line and in the sweep, and the coding
# lines when they still named a variant, so a default that moves shows here.
SPEC_DIGESTS = (
    ("toy",
     "9e035aeb55c6a5bf3e1ee7135f9ad47309812326229ab6ea0282a43f7988f42c"),
    ("codegrid",
     "a92bbb2db85e5e717678eafea3a7bc8cbe66beff2d8732f68798bdc99cff3289"),
    ("chain",
     "671730415b7b636e4d8ee5bfe1c53738d5f6f61292be8111d83370004df99d87"),
    ("coding",
     "9be40279e72651aa1fde3c33b8d3b5cb42faa8270e35bfe7cddb6dfe7deaa8a6"),
    ("toy --zeta 2.5 --noise-p 0.1",
     "a7c3bcd418347694240277db8e5e737fecf05dc63699aebc026aabb4c065afb5"),
    ("codegrid --zeta 3 --noise-p 0.2",
     "59f5ab893258c27f3e6f401ba1730c49548d152ac33f1058021607f21ea3bb4d"),
    ("chain --steps 30 --actions 3 --messages 16",
     "05b8e63791a6decc2ad7d246bc85f8f3ab3e3b623558b7ccc6f38dfd876f1e9c"),
    ("chain --steps 20 --image-pixels 8",
     "b247331d582a74c1e5ffea7035dbee274dbb015b703f66a38ddee73ddb229b1c"),
    ("chain --steps 20 --image-pixels 8 --block-pixels 2",
     "8d10771568757e5e9e369b600d4fdcf0f2725908fb09db9356b22043afb992da"),
    ("coding --length-limit 5 --messages 4",
     "d23edb64460515cda8d0dd18722a2dae1ff2a59ca366fd0702e77c37a5cf4ff9"),
    ("coding --alphabet 3 --symbol-costs 1 2 0.5",
     "6b96c0b4c2f2f58c48cc38ddb97e0170877c8556add4a0632912fd5c1e029458"),
    ("codegrid --messages 8",
     "a9c03e40b80680545213d0278c719f9013afc31f76597f95cbad20b280c9a4dd"),
    ("coding --alphabet 3 --length-limit 10 --messages 3",
     "2faaad5ea42353f58b4b5d307ed0306eb611dd83640b2e85ddeb64a09cf3c17e"),
)


@pytest.mark.parametrize("args, digest", SPEC_DIGESTS, ids=[a for a, _ in SPEC_DIGESTS])
def test_make_env_writes_the_recorded_spec(tmp_path, args, digest):
    spec = tmp_path / "env.json"
    assert main(["make-env", *args.split(), "--out", str(spec)]) == 0
    assert hashlib.sha256(spec.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("cost", ["nan", "inf"])
def test_make_env_refuses_a_cost_that_is_not_finite(tmp_path, capsys, cost):
    # Each was written into the spec with exit 0; solve then blamed --beta.
    spec = tmp_path / "env.json"
    assert main(["make-env", "coding", "--symbol-costs", cost, "1", "--out", str(spec)]) == 2
    err = capsys.readouterr().err
    assert err == "error: rewards must be finite\n"
    assert not spec.exists()


@pytest.mark.parametrize(
    "args, key",
    [
        ("toy --messages 8", "n_messages"),
        ("codegrid --steps 5", "steps"),
        ("chain --image-pixels 16 --messages 8", "n_messages"),
        ("chain --image-pixels 0", "image_pixels"),
        ("chain --messages 8 --block-pixels 2", "block_pixels"),
    ],
)
def test_make_env_rejects_a_flag_the_game_does_not_use(tmp_path, capsys, args, key):
    # Each of these used to write a spec that ignored the flag.
    spec = tmp_path / "env.json"
    assert main(["make-env", *args.split(), "--out", str(spec)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and repr(key) in err
    assert not spec.exists()


@pytest.mark.parametrize("zeta", ["nan", "inf"])
def test_make_env_rejects_a_priority_that_is_not_finite(tmp_path, capsys, zeta):
    # Each used to write a spec holding "priority": NaN or Infinity, which
    # is not standard JSON.
    spec = tmp_path / "env.json"
    assert main(["make-env", "codegrid", "--zeta", zeta, "--out", str(spec)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "message priority must be finite" in err
    assert not spec.exists()


def test_commands_reject_a_spec_with_a_nan_priority(tmp_path, capsys):
    # load_mcg used to read such a spec back.
    spec, qtable = tmp_path / "env.json", tmp_path / "q.txt"
    assert main(["make-env", "codegrid", "--out", str(spec)]) == 0
    document = json.loads(spec.read_text())
    document["priority"] = float("nan")
    spec.write_text(json.dumps(document))
    assert '"priority": NaN' in spec.read_text()
    capsys.readouterr()
    assert main(["solve", "--spec", str(spec), "--beta", "1", "--out", str(qtable)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "message priority must be finite" in err
    assert not qtable.exists()


@pytest.mark.parametrize(
    "args", ["coding --variant standard", "coding --alphabet 3 --max-symbols 10"]
)
def test_make_env_has_no_coding_variant_flags(tmp_path, args):
    spec = tmp_path / "env.json"
    with pytest.raises(SystemExit) as exit_:
        main(["make-env", *args.split(), "--out", str(spec)])
    assert exit_.value.code == 2
    assert not spec.exists()


def test_image_round_trip_reads_the_block_size_off_the_spec(tmp_path):
    spec, qtable, image = tmp_path / "env.json", tmp_path / "q.txt", tmp_path / "in.pbm"
    traj, decoded = tmp_path / "z.txt", tmp_path / "out.pbm"
    image.write_text("P1\n4 2\n1 0 0 1\n0 1 1 1\n")
    assert main([
        "make-env", "chain", "--steps", "24", "--image-pixels", "8", "--block-pixels", "2",
        "--out", str(spec),
    ]) == 0
    assert main(["solve", "--spec", str(spec), "--beta", "1", "--out", str(qtable)]) == 0
    assert main([
        "send", "--spec", str(spec), "--qtable", str(qtable), "--image", str(image),
        "--seed", "0", "--out", str(traj),
    ]) == 0
    assert main([
        "receive", "--spec", str(spec), "--qtable", str(qtable), "--traj", str(traj),
        "--image-shape", "2", "4", "--out", str(decoded),
    ]) == 0
    assert decoded.read_bytes() == image.read_bytes()


@pytest.mark.parametrize("blocks", [[4, 2], [3, 3], [1, 1]])
def test_send_rejects_an_image_for_a_space_that_carries_none(tmp_path, capsys, blocks):
    # Blocks of 4 and 2 states, of 3 states, and of one state hold no
    # equal-sized groups of pixels.
    spec, qtable = _codegrid_8(tmp_path)
    document = json.loads(spec.read_text())
    document["message_space"] = {"factored": True, "block_sizes": blocks}
    document["prior"] = [[1.0 / b] * b for b in blocks]
    spec.write_text(json.dumps(document))
    image = tmp_path / "in.pbm"
    image.write_text("P1\n3 1\n1 0 1\n")
    capsys.readouterr()
    assert main([
        "send", "--spec", str(spec), "--qtable", str(qtable), "--image", str(image),
        "--seed", "0", "--out", str(tmp_path / "z.txt"),
    ]) == 2
    assert "carries no image" in capsys.readouterr().err


@pytest.mark.parametrize("given", [[], ["--message", "3", "--image", "in.pbm"]])
def test_send_takes_exactly_one_message_source(tmp_path, given):
    # Given both, send used to drop the message and send the image.
    spec, qtable = _codegrid_8(tmp_path)
    traj = tmp_path / "z.txt"
    with pytest.raises(SystemExit) as exit_:
        main(["send", "--spec", str(spec), "--qtable", str(qtable), *given,
              "--seed", "0", "--out", str(traj)])
    assert exit_.value.code == 2
    assert not traj.exists()


@pytest.mark.parametrize("command, seed", [("send", "-1"), ("train", "-3")])
def test_a_negative_seed_is_named(tmp_path, capsys, command, seed):
    # numpy's "expected non-negative integer" named no flag.
    spec, qtable = _codegrid_8(tmp_path)
    out = tmp_path / "out.txt"
    argv = {
        "send": ["--qtable", str(qtable), "--message", "3"],
        "train": ["--beta", "1", "--episodes", "10"],
    }[command]
    capsys.readouterr()
    assert main([command, "--spec", str(spec), *argv, "--seed", seed, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: --seed must be at least 0, not {seed}\n"
    assert not out.exists()


@pytest.mark.parametrize("shape", [["-2", "-4"], ["0", "8"], ["8", "0"], ["-1", "-8"]])
def test_receive_names_an_image_shape_below_one(tmp_path, capsys, shape):
    # On an 8-pixel image, -2 x -4 passed the pixel count and reached
    # numpy's "can only specify one unknown dimension".
    spec, qtable, traj = tmp_path / "env.json", tmp_path / "q.txt", tmp_path / "z.txt"
    out, image = tmp_path / "out.pbm", tmp_path / "in.pbm"
    image.write_text("P1\n4 2\n1 0 0 1\n0 1 1 1\n")
    assert main([
        "make-env", "chain", "--steps", "8", "--image-pixels", "8", "--out", str(spec),
    ]) == 0
    assert main(["solve", "--spec", str(spec), "--beta", "1", "--out", str(qtable)]) == 0
    assert main([
        "send", "--spec", str(spec), "--qtable", str(qtable), "--image", str(image),
        "--seed", "0", "--out", str(traj),
    ]) == 0
    capsys.readouterr()
    assert main([
        "receive", "--spec", str(spec), "--qtable", str(qtable), "--traj", str(traj),
        "--image-shape", *shape, "--out", str(out),
    ]) == 2
    h, w = shape
    assert capsys.readouterr().err == (
        f"error: --image-shape dimensions must be at least 1, not {h} {w}\n"
    )
    assert not out.exists()


def _break_horizon_bound(spec, fault):
    """Break a 5-step, 2-action chain spec: declare horizon_bound 4, or send
    state 1's first action back to state 0."""
    document = json.loads(spec.read_text())
    if fault == "cycle":
        document["mdp"]["next_state"][2] = 0
    else:
        document["mdp"]["horizon_bound"] = 4
    spec.write_text(json.dumps(document))


@pytest.mark.parametrize("fault", ["horizon-one-short", "cycle"])
def test_load_rejects_a_spec_that_breaks_its_horizon_bound(tmp_path, fault):
    # Every command loads its spec through load_mcg. On the cycle, train and
    # send used to loop for ever.
    spec = tmp_path / "env.json"
    assert main(["make-env", "chain", "--steps", "5", "--actions", "2", "--out", str(spec)]) == 0
    _break_horizon_bound(spec, fault)
    with pytest.raises(ValueError, match="breaks its horizon bound"):
        load_mcg(spec)


def _broken_horizon_argv(tmp_path, command, fault):
    """A train, send or receive command line on a 5-step chain spec broken by
    ``fault``, writing ``tmp_path / "out.txt"``; its table and trajectory
    were made before the spec was broken."""
    spec, qtable, traj = tmp_path / "env.json", tmp_path / "q.txt", tmp_path / "z.txt"
    assert main(["make-env", "chain", "--steps", "5", "--actions", "2", "--out", str(spec)]) == 0
    assert main(["solve", "--spec", str(spec), "--beta", "1", "--out", str(qtable)]) == 0
    assert main([
        "send", "--spec", str(spec), "--qtable", str(qtable), "--message", "1",
        "--seed", "0", "--out", str(traj),
    ]) == 0
    _break_horizon_bound(spec, fault)
    args = {
        "train": ["--beta", "1", "--episodes", "10", "--seed", "0"],
        "send": ["--qtable", str(qtable), "--message", "1", "--seed", "0"],
        "receive": ["--qtable", str(qtable), "--traj", str(traj)],
    }[command]
    return [command, "--spec", str(spec), *args, "--out", str(tmp_path / "out.txt")]


@pytest.mark.parametrize("command", ["train", "send", "receive"])
def test_commands_reject_a_spec_that_breaks_its_horizon_bound(tmp_path, capsys, command):
    # The horizon-one-short fault: on it, a command that missed the check
    # would still end, and fail this test instead of hanging it.
    argv = _broken_horizon_argv(tmp_path, command, "horizon-one-short")
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "horizon bound" in err
    assert not (tmp_path / "out.txt").exists()


@pytest.mark.parametrize("command", ["train", "send", "receive"])
def test_commands_reject_a_spec_with_a_cycle(tmp_path, command):
    # On the cycle, train and send used to loop for ever: each command runs
    # in a process of its own, whose timeout turns a hang into a failure.
    result = _run_cli(_broken_horizon_argv(tmp_path, command, "cycle"), tmp_path)
    assert result.returncode == 2
    assert result.stderr.startswith("error:") and "horizon bound" in result.stderr
    assert not (tmp_path / "out.txt").exists()


@pytest.mark.parametrize("fault", ["horizon-one-short", "cycle"])
def test_solve_rejects_a_spec_that_breaks_its_horizon_bound(tmp_path, capsys, fault):
    # Both faults used to solve to a truncated table.
    spec, qtable = tmp_path / "env.json", tmp_path / "q.txt"
    assert main(["make-env", "chain", "--steps", "5", "--actions", "2", "--out", str(spec)]) == 0
    _break_horizon_bound(spec, fault)
    capsys.readouterr()
    assert main(["solve", "--spec", str(spec), "--beta", "1", "--out", str(qtable)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "horizon bound" in err
    assert not qtable.exists()


@pytest.mark.parametrize("command", ["solve", "train"])
def test_beta_zero_exits_cleanly(tmp_path, capsys, command):
    # 1 / beta used to raise ZeroDivisionError.
    spec, out = tmp_path / "env.json", tmp_path / "q.txt"
    assert main(["make-env", "chain", "--steps", "3", "--out", str(spec)]) == 0
    extra = ["--episodes", "10", "--seed", "0"] if command == "train" else []
    capsys.readouterr()
    assert main([command, "--spec", str(spec), "--beta", "0", *extra, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--beta must be positive and finite, got 0.0" in err
    assert not out.exists()


def test_solve_rejects_a_spec_field_of_the_wrong_type(tmp_path, capsys):
    # A number for the prior used to escape as a TypeError traceback, exit 1.
    spec, qtable = tmp_path / "env.json", tmp_path / "q.txt"
    assert main(["make-env", "toy", "--out", str(spec)]) == 0
    document = json.loads(spec.read_text())
    document["prior"] = 3
    spec.write_text(json.dumps(document))
    capsys.readouterr()
    assert main(["solve", "--spec", str(spec), "--beta", "1", "--out", str(qtable)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "game spec has a field of the wrong type" in err
    assert not qtable.exists()


def _toy_with(**edits):
    """The toy game's spec document with some of its "mdp" keys and top-level
    keys replaced."""
    doc = mcg_to_document(build_toy_mcg())
    mdp = {key: edits.pop(key) for key in doc["mdp"] if key in edits}
    return {**doc, **edits, "mdp": {**doc["mdp"], **mdp}}


# Valid JSON that is no game spec, and the text the error must contain. The
# version is read first: a document with no "format_version" is version 1.
# "next-state-float" and "prior-string" used to solve with exit 0, reading
# 1.7 as 1 and "0.5" as 0.5. An integer past 64 bits died with numpy's
# OverflowError "Python int too large to convert to C long", exit 1.
BAD_SPECS = {
    "terminal_states": ({"format_version": 2, "mdp": {}}, "terminal_states"),
    "version-missing": ({"mdp": {}}, "unsupported game-spec format version 1"),
    "spec-list": ([1], "game spec must be a JSON object, not list"),
    "mdp-list": ({"format_version": 2, "mdp": []},
                 'game spec "mdp" must be a JSON object, not list'),
    "next-state-float": (_toy_with(next_state=[1.7, 1, 1]),
                         "'next_state' takes tuple[int, ...], not [1.7, 1, 1]"),
    "prior-string": (_toy_with(prior=[["0.5", 0.5]]),
                     "'prior' takes tuple[tuple[float, ...], ...], not [['0.5', 0.5]]"),
    "next-state-past-64-bits": (_toy_with(next_state=[10**30, 1, 1]),
                                "next_state holds an integer past the int64 range"),
    "row-offsets-past-64-bits": (_toy_with(row_offsets=[0, 1, 2, 3, 3, 3, -(10**30)]),
                                 "row_offsets holds an integer past the int64 range"),
    "reward-nan": (_toy_with(rewards=[[float("nan"), 3.0, 0.0], [0.0, 0.0, 0.0]]),
                   "rewards must be finite"),
}


# Edits to the lines of a valid Q-table file (its header, then one line per
# (state, action) pair), and the text the error must contain. The emptied
# file aside, the first three edited tables used to load: a repeated pair
# overwrote the first, a missing pair read 0, and a negative index wrapped
# round. A state index of 10^12 was sized before its lines were counted and
# died with numpy's MemoryError, exit 1, and a line of four fields read "too
# many values to unpack (expected 3)", a state of 1.5 "invalid literal for
# int() with base 10: '1.5'", and a header "alpha x" "could not convert string
# to float: 'x'".
BAD_QTABLES = {
    "Q-table": (lambda lines: [], "Q-table"),
    "qtable-repeated": (lambda lines: lines + [lines[1].rsplit(" ", 1)[0] + " 9.0"],
                        "repeats state 0, action 0"),
    "qtable-missing": (lambda lines: lines[:5] + lines[6:], "lacks 1 of"),
    "qtable-negative": (lambda lines: lines + ["-1 0 9.0"], "negative index"),
    "qtable-huge-index": (lambda lines: lines + ["1000000000000 0 0.0"],
                          "of its (1000000000001, 4) pairs"),
    "qtable-four-fields": (lambda lines: lines + ["0 0 0.0 1"],
                           "is not 'state action value': '0 0 0.0 1'"),
    "qtable-float-state": (lambda lines: lines + ["1.5 0 0.0"],
                           "is not 'state action value': '1.5 0 0.0'"),
    "qtable-header-value": (lambda lines: ["alpha x", *lines[1:]],
                            "Q-table line 1 is not 'alpha <value>': 'alpha x'"),
}


# Trajectory file texts, and the text the error must contain. The last three
# printed Python's own errors: "not enough values to unpack (expected 4, got
# 2)" and, twice, "invalid literal for int() with base 10: '1.5'".
BAD_TRAJECTORIES = {
    "trajectory": ("", "trajectory"),
    "trajectory-two-fields": ("final_state 5\n0 1\n",
                              "trajectory line 2 is not 'state intended executed reward': '0 1'"),
    "trajectory-float-state": ("final_state 5\n0 1 1 0.0\n1.5 0 0 0.0\n",
                               "trajectory line 3 is not 'state intended executed reward'"),
    "trajectory-header-value": ("final_state 1.5\n0 1 1 0.0\n",
                                "trajectory line 1 is not 'final_state <s>': 'final_state 1.5'"),
}


@pytest.mark.parametrize("fault", [*BAD_TRAJECTORIES, *BAD_SPECS, *BAD_QTABLES])
def test_malformed_input_files_exit_cleanly(tmp_path, capsys, fault):
    # Faulty Q tables, trajectory files and game specs (above) each exit 2
    # with one error line.
    spec, qtable = _codegrid_8(tmp_path)
    bad = tmp_path / "bad.txt"
    if fault in BAD_QTABLES:
        edit, expected = BAD_QTABLES[fault]
        bad.write_text("".join(f"{line}\n" for line in edit(qtable.read_text().splitlines())))
        argv = ["send", "--spec", str(spec), "--qtable", str(bad),
                "--message", "0", "--seed", "0", "--out", str(tmp_path / "z.txt")]
    elif fault in BAD_TRAJECTORIES:
        text, expected = BAD_TRAJECTORIES[fault]
        bad.write_text(text)
        argv = ["receive", "--spec", str(spec), "--qtable", str(qtable),
                "--traj", str(bad), "--out", str(tmp_path / "m.txt")]
    else:
        document, expected = BAD_SPECS[fault]
        bad.write_text(json.dumps(document))
        argv = ["solve", "--spec", str(bad), "--beta", "2", "--out", str(tmp_path / "q2.txt")]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and expected in err


def _send_receive_argv(tmp_path, command, spec, qtable):
    """A send or receive command line whose output is ``tmp_path / "out.txt"``;
    receive reads a trajectory sent with the spec's own solved table."""
    if command == "send":
        return ["send", "--spec", str(spec), "--qtable", str(qtable),
                "--message", "1", "--seed", "0", "--out", str(tmp_path / "out.txt")]
    good, traj = tmp_path / "good.txt", tmp_path / "z.txt"
    assert main(["solve", "--spec", str(spec), "--beta", "2", "--out", str(good)]) == 0
    assert main(["send", "--spec", str(spec), "--qtable", str(good), "--message", "1",
                 "--seed", "0", "--out", str(traj)]) == 0
    return ["receive", "--spec", str(spec), "--qtable", str(qtable), "--traj", str(traj),
            "--out", str(tmp_path / "out.txt")]


@pytest.mark.parametrize("command", ["send", "receive"])
def test_send_and_receive_refuse_a_table_at_an_infinite_temperature(tmp_path, capsys, command):
    # A header of "alpha inf" used to load, and the message went out and came
    # back through the uniform policy with exit 0.
    spec, qtable = _codegrid_8(tmp_path)
    lines = qtable.read_text().splitlines()
    qtable.write_text("\n".join(["alpha inf", *lines[1:]]) + "\n")
    argv = _send_receive_argv(tmp_path, command, spec, qtable)
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "error: temperature must be positive and finite, got inf\n"
    )
    assert not (tmp_path / "out.txt").exists()


@pytest.mark.parametrize("command", ["send", "receive"])
def test_send_and_receive_refuse_a_table_of_another_game(tmp_path, capsys, command):
    spec, _ = _codegrid_8(tmp_path)
    other, qtable = tmp_path / "chain.json", tmp_path / "qchain.txt"
    assert main(["make-env", "chain", "--steps", "3", "--out", str(other)]) == 0
    assert main(["solve", "--spec", str(other), "--beta", "1", "--out", str(qtable)]) == 0
    argv = _send_receive_argv(tmp_path, command, spec, qtable)
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "error: Q table shape (4, 2) does not match the spec's MDP "
        "(144 states x 4 actions)\n"
    )
    assert not (tmp_path / "out.txt").exists()


@pytest.mark.parametrize(
    "flags, error",
    [
        (["--episodes", "0"], "episode count must be at least 1"),
        (["--lr", "0"], "learning rate must lie in (0, 1]"),
        (["--lr", "1.5"], "learning rate must lie in (0, 1]"),
        (["--lr", "nan"], "learning rate must lie in (0, 1]"),
    ],
    ids=["episodes-0", "lr-0", "lr-1.5", "lr-nan"],
)
def test_train_refuses_a_budget_out_of_range(tmp_path, capsys, flags, error):
    spec, out = tmp_path / "env.json", tmp_path / "q.txt"
    assert main(["make-env", "chain", "--steps", "3", "--out", str(spec)]) == 0
    capsys.readouterr()
    argv = ["train", "--spec", str(spec), "--beta", "1", "--episodes", "10", "--seed", "0"]
    assert main([*argv, *flags, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {error}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "train"])
def test_a_beta_whose_temperature_overflows_exits_cleanly(tmp_path, capsys, command):
    # 1 / 1e-320 is inf: solve used to print numpy's "invalid value
    # encountered in divide" and then "error: Q values must be finite".
    spec, out = tmp_path / "env.json", tmp_path / "q.txt"
    assert main(["make-env", "chain", "--steps", "3", "--out", str(spec)]) == 0
    extra = ["--episodes", "10", "--seed", "0"] if command == "train" else []
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        status = main([command, "--spec", str(spec), "--beta", "1e-320", *extra,
                       "--out", str(out)])
    assert status == 2 and caught == []
    assert capsys.readouterr().err == (
        "error: the temperature 1 / --beta must be positive and finite, got inf\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "train"])
def test_a_beta_whose_q_over_alpha_overflows_exits_cleanly(tmp_path, capsys, command):
    # At beta = 1e308 the toy's rewards 4 and 3 over alpha overflow. solve and
    # train used to print numpy's "overflow encountered in divide" and
    # "invalid value encountered in subtract", exit 0 and write the table.
    spec, out = tmp_path / "toy.json", tmp_path / "q.txt"
    assert main(["make-env", "toy", "--out", str(spec)]) == 0
    extra = ["--episodes", "1000", "--seed", "0"] if command == "train" else []
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        status = main([command, "--spec", str(spec), "--beta", "1e308", *extra,
                       "--out", str(out)])
    assert status == 2 and caught == []
    assert capsys.readouterr().err == "error: --beta must keep Q / alpha finite, got 1e+308\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "train"])
def test_a_beta_whose_rows_spread_passes_the_float_range_writes_the_table(
    tmp_path, capsys, command
):
    # Rewards +1 and -1 at beta = 1e308: Q / alpha is finite, but the row's
    # spread is not. That is no overflow of Q / alpha, and the table is taken.
    spec, out = tmp_path / "pm.json", tmp_path / "q.txt"
    mdp = MdpSpec.deterministic(
        next_table=np.ones((2, 2), dtype=np.int64),
        rewards=np.array([[1.0, -1.0], [0.0, 0.0]]),
        initial_state=0,
        terminal_states=frozenset({1}),
        horizon_bound=1,
    )
    save_mcg(chain_mcg(mdp, MessageSpace.explicit(2)), spec)
    extra = ["--episodes", "5", "--lr", "1", "--seed", "0"] if command == "train" else []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        status = main([command, "--spec", str(spec), "--beta", "1e308", *extra,
                       "--out", str(out)])
    assert status == 0 and caught == []
    assert capsys.readouterr().err == ""
    assert load_qtable(out).values.tolist() == [[1.0, -1.0], [0.0, 0.0]]


@pytest.mark.parametrize("command", ["send", "receive"])
def test_send_and_receive_refuse_a_table_whose_q_over_alpha_overflows(tmp_path, capsys, command):
    # The table solve used to write at beta = 1e308: send failed with
    # "distribution entries must be finite", after numpy's two warnings.
    spec, qtable = tmp_path / "toy.json", tmp_path / "qhot.txt"
    assert main(["make-env", "toy", "--out", str(spec)]) == 0
    qtable.write_text("alpha 1e-308\n0 0 4.0\n0 1 3.0\n0 2 0.0\n1 0 0.0\n1 1 0.0\n1 2 0.0\n")
    argv = _send_receive_argv(tmp_path, command, spec, qtable)
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 2
    assert caught == []
    assert capsys.readouterr().err == (
        "error: Q / alpha must be finite, but |Q| reaches 4.0 at temperature 1e-308\n"
    )
    assert not (tmp_path / "out.txt").exists()


# The command-line pins: each stage of the pipeline, from planning through
# coupling and sending to replaying and decoding, run in-process through
# cli.main, with the bytes it must write or print.

def _digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize(
    "pixels, block, image, shape, digest",
    [
        (8, 2, "P1\n4 2\n1 0 0 1\n0 1 1 1\n", ("2", "4"),
         "10ca1bc313c6f3d10afb2bf84fdeeb05f7bc6b09985d80a77690e5a3145e33b8"),
        (6, 3, "P1\n3 2\n1 0 1\n0 1 1\n", ("2", "3"),
         "c8679a527d8cf4b5db6bf0e6e43ba51788bddf59920daedbeb3bcbcb4ec2cbdc"),
    ],
    ids=["znoisy", "znoisy3"],
)
def test_noisy_image_round_trip_writes_the_recorded_trajectory(
    tmp_path, pixels, block, image, shape, digest
):
    # 5% actuator noise over 24 steps: seed 0 flips at least one action, and
    # the noise-aware receiver still decodes the image. Blocks of 3 pixels
    # have 8 values, the smallest belief block whose weights numpy sums
    # pairwise; blocks of 2 pixels sum theirs one at a time.
    spec, qtable, pbm = tmp_path / "noisy.json", tmp_path / "q.txt", tmp_path / "in.pbm"
    traj, decoded = tmp_path / "z.txt", tmp_path / "out.pbm"
    pbm.write_text(image)
    assert main([
        "make-env", "chain", "--steps", "24", "--image-pixels", str(pixels),
        "--block-pixels", str(block), "--noise-p", "0.05", "--out", str(spec),
    ]) == 0
    assert main(["solve", "--spec", str(spec), "--beta", "1", "--out", str(qtable)]) == 0
    assert main(["send", "--spec", str(spec), "--qtable", str(qtable), "--image", str(pbm),
                 "--seed", "0", "--out", str(traj)]) == 0
    assert main(["receive", "--spec", str(spec), "--qtable", str(qtable), "--traj", str(traj),
                 "--image-shape", *shape, "--out", str(decoded)]) == 0
    assert decoded.read_bytes() == pbm.read_bytes()
    steps = [line.split() for line in traj.read_text().splitlines()[1:]]
    assert any(intended != executed for _, intended, executed, _ in steps)
    assert _digest(traj) == digest


def test_chain_of_200_steps_writes_the_recorded_trajectory_and_entropy_trace(tmp_path):
    # 64 explicit messages over 4 actions: the belief collapses to a point
    # mass within a few steps, and nearly every later decision reuses a
    # memoized coupling and keeps its belief as it is.
    spec, qtable = tmp_path / "chain64.json", tmp_path / "q64.txt"
    traj, csv, decoded = tmp_path / "z64.txt", tmp_path / "h64.csv", tmp_path / "m64.txt"
    assert main(["make-env", "chain", "--steps", "200", "--actions", "4", "--messages", "64",
                 "--out", str(spec)]) == 0
    assert main(["solve", "--spec", str(spec), "--beta", "1", "--out", str(qtable)]) == 0
    assert main(["send", "--spec", str(spec), "--qtable", str(qtable), "--message", "17",
                 "--seed", "0", "--out", str(traj)]) == 0
    assert main(["receive", "--spec", str(spec), "--qtable", str(qtable), "--traj", str(traj),
                 "--entropy-csv", str(csv), "--out", str(decoded)]) == 0
    assert decoded.read_text() == "17\n"
    assert _digest(traj) == "7ae6560ef54c8fe5d9a7ede5e236be07cf5feb8cf06301ec5a29ab7b99f03fba"
    assert _digest(csv) == "73a6798c23bf479bc5e179f30d773fd4e40a80b9e931b214975d08dbd86e1491"


SWEEP_HEADER = (
    "method,beta_or_zeta,noise_p,seed,decode_accuracy,accuracy_se,mean_return,return_se,"
    "mean_hamming,hamming_se,rollouts,error"
)

# Sweep configs and the rows each writes.
SWEEP_PINS = {
    "rl_pr": (
        {"env": "codegrid", "env_params": {"n_messages": 4}, "method": "rl_pr",
         "grid": [0.3, 3.0], "seeds": [2], "noise_p": [0.1], "episodes": 200, "rollouts": 8},
        ["rl_pr,0.3,0.1,2,1,0,0,0,0,0,8,", "rl_pr,3,0.1,2,1,0,0,0,0,0,8,"],
    ),
    "zeta-1e308": (
        {"env": "codegrid", "env_params": {"n_messages": 8}, "method": "rl_pr",
         "grid": [1e308, 1.0], "seeds": [0], "episodes": 300, "rollouts": 5},
        ["rl_pr,1e+308,0,0,0,0,0,0,0,0,0,"
         "ValueError: zeta must keep Q / alpha finite; got 1e+308",
         "rl_pr,1,0,0,1,0,0,0,0,0,5,"],
    ),
    "codegrid-8x8": (
        {"env": "codegrid", "method": "rl_pr", "env_params": {"n_messages": 8, "width": 8,
         "height": 8, "goal": [8, 8], "max_steps": 16}, "grid": [0.3, 3.0], "seeds": [1],
         "noise_p": [0.3, 0.5], "episodes": 600, "rollouts": 16},
        ["rl_pr,0.3,0.3,1,1,0,0,0,0,0,16,", "rl_pr,0.3,0.5,1,0.9375,0.0625,0,0,0.0625,0.0625,16,",
         "rl_pr,3,0.3,1,0.9375,0.0625,0,0,0.0625,0.0625,16,",
         "rl_pr,3,0.5,1,0.9375,0.0625,0,0,0.0625,0.0625,16,"],
    ),
    "meme": (
        {"env": "codegrid", "env_params": {"n_messages": 64}, "method": "meme",
         "grid": [1.0, 7.0], "seeds": [2], "noise_p": [0.1], "rollouts": 8},
        ["meme,1,0.1,2,1,0,0.125,0.125,0,0,8,",
         "meme,7,0.1,2,0.625,0.182981264,0.875,0.125,0.375,0.182981264,8,"],
    ),
    "beta-0": (
        {"env": "codegrid", "env_params": {"n_messages": 8}, "method": "meme",
         "grid": [0.0, 1.0], "seeds": [3], "noise_p": [0.1], "rollouts": 8},
        ["meme,0,0.1,3,0,0,0,0,0,0,0,ValueError: beta must be positive and finite; got 0.0",
         "meme,1,0.1,3,1,0,0.125,0.125,0,0,8,"],
    ),
    "beta-1e308": (
        {"env": "toy", "method": "meme", "grid": [1e308, 1.0], "seeds": [0], "rollouts": 4},
        ["meme,1e+308,0,0,0,0,0,0,0,0,0,ValueError: beta must keep Q / alpha finite; got 1e+308",
         "meme,1,0,0,1,0,3.5,0.288675135,0,0,4,"],
    ),
}


@pytest.mark.parametrize("name", list(SWEEP_PINS))
def test_sweep_writes_the_recorded_rows(tmp_path, capsys, name):
    # No numpy warning either: at zeta = 1e308 training stops at the first
    # overflow, before numpy would warn.
    doc, rows = SWEEP_PINS[name]
    config, out = tmp_path / "sweep.json", tmp_path / "rows.csv"
    config.write_text(json.dumps(doc))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0
    assert caught == [] and capsys.readouterr().err == ""
    assert out.read_text() == "\n".join([SWEEP_HEADER, *rows]) + "\n"


def _readme_sweep_configs():
    """The sweep config each ``printf '%s'`` example of README.md writes, by
    the file it writes to: printf repeats its format for every argument, so
    the config is the arguments joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    configs = {}
    for command, out in re.findall(r"^ *printf '%s' ([^>]+)> (\S+)$", text, re.M):
        configs[out] = json.loads("".join(re.findall(r"'([^']*)'", command)))
    return configs


def test_readme_sweep_examples_are_the_pinned_configs():
    # The examples users copy write exactly the configs whose rows are pinned.
    assert _readme_sweep_configs() == {
        "meme.json": SWEEP_PINS["meme"][0], "rlpr.json": SWEEP_PINS["rl_pr"][0],
    }


def test_solve_writes_the_three_step_chain_soft_values(tmp_path):
    # Exact soft value iteration: V(t) = (3 - t) ln 2 on a 2-action chain.
    spec, qtable = tmp_path / "chain.json", tmp_path / "q.txt"
    assert main(["make-env", "chain", "--steps", "3", "--actions", "2", "--out", str(spec)]) == 0
    assert main(["solve", "--spec", str(spec), "--beta", "1", "--out", str(qtable)]) == 0
    assert qtable.read_text() == "\n".join([
        "alpha 1.0", "0 0 1.3862943611198906", "0 1 1.3862943611198906",
        "1 0 0.6931471805599453", "1 1 0.6931471805599453", "2 0 0.0", "2 1 0.0",
        "3 0 0.0", "3 1 0.0",
    ]) + "\n"


# mec inputs and the lines each prints.
MEC_PINS = {
    "two-rows": ("0.5\n0.5\n", "0.25\n0.75\n", [
        "0.5 0 1", "0.25 1 0", "0.25 1 1", "joint_bits 1.5", "row_marginal_bits 1",
        "col_marginal_bits 0.811278124", "mutual_info_bits 0.311278124",
    ]),
    "zero-rows": ("0\n0.5\n0\n0.5\n", "0.25\n0.75\n", [
        "0.5 1 1", "0.25 3 0", "0.25 3 1", "joint_bits 1.5", "row_marginal_bits 1",
        "col_marginal_bits 0.811278124", "mutual_info_bits 0.311278124",
    ]),
    "ties-residual-zero-column": ("0.5\n0.25\n0.125\n0.125\n", "0.25\n0\n0.25\n0.25\n0.25\n", [
        "0.25 0 0", "0.25 0 2", "0.25 1 3", "0.125 2 4", "0.125 3 4", "joint_bits 2.25",
        "row_marginal_bits 1.75", "col_marginal_bits 2", "mutual_info_bits 1.5",
    ]),
}


@pytest.mark.parametrize("name", list(MEC_PINS))
def test_mec_prints_the_recorded_coupling(tmp_path, capsys, name):
    p_text, q_text, lines = MEC_PINS[name]
    p, q = tmp_path / "p.txt", tmp_path / "q.txt"
    p.write_text(p_text)
    q.write_text(q_text)
    assert main(["mec", "--p", str(p), "--q", str(q)]) == 0
    assert capsys.readouterr().out == "\n".join(lines) + "\n"


def test_mec_prints_the_recorded_run_of_100_equal_rows(tmp_path, capsys):
    # 100 rows of 0.01 are one run of equal masses, placed in bulk; the
    # digest is of what the one-step-at-a-time coupler printed.
    p, q = tmp_path / "p.txt", tmp_path / "q.txt"
    p.write_text("0.01\n" * 100)
    q.write_text("0.5\n0.3\n0.2\n")
    assert main(["mec", "--p", str(p), "--q", str(q)]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == (
        "fe2307228ec6a0c83911e4628cad37049a12c2a0c83a729b5b42e6be41f98f56"
    )


# The process boundary: the exit status main returns is the program's, and
# pyproject.toml installs main as the trajcomm console script.

def test_the_program_exits_0_when_a_command_succeeds(tmp_path):
    result = _run_cli(["make-env", "toy", "--out", "toy.json"], tmp_path)
    assert result.returncode == 0 and result.stderr == ""
    assert _digest(tmp_path / "toy.json") == dict(SPEC_DIGESTS)["toy"]


def test_the_program_exits_2_with_one_error_line_and_writes_nothing(tmp_path):
    # A grid given as the string "17" used to run beta = 1 and beta = 7.
    (tmp_path / "grid.json").write_text(json.dumps(
        {"env": "codegrid", "method": "meme", "grid": "17", "seeds": [0], "rollouts": 1}
    ))
    result = _run_cli(["sweep", "--config", "grid.json", "--out", "grid.csv"], tmp_path)
    assert result.returncode == 2 and result.stdout == ""
    assert result.stderr == "error: 'grid' takes tuple[float, ...], not '17'\n"
    assert not (tmp_path / "grid.csv").exists()


def test_the_console_script_is_cli_main():
    # A regex, not tomllib, which Python 3.10 lacks.
    text = (SRC.parent / "pyproject.toml").read_text()
    scripts = re.search(r"^\[project\.scripts\]$(.*?)(?=^\[|\Z)", text, re.M | re.S)
    assert scripts is not None
    assert re.findall(r"^(\S+)\s*=\s*\"(.*)\"\s*$", scripts.group(1), re.M) == [
        ("trajcomm", "trajcomm.cli:main")
    ]
