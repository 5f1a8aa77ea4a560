"""End-to-end runs of the command-line file pipeline."""

import hashlib
import json

import numpy as np
import pytest

from trajcomm.cli import main
from trajcomm.formats import load_mcg, save_qtable
from trajcomm.maxent import TrainConfig, train_soft_q


def _codegrid_8(tmp_path):
    """A codegrid spec with 8 messages and its Q table at beta = 2."""
    spec, qtable = tmp_path / "env.json", tmp_path / "q.txt"
    assert main(["make-env", "codegrid", "--messages", "8", "--out", str(spec)]) == 0
    assert main(["solve", "--spec", str(spec), "--beta", "2", "--out", str(qtable)]) == 0
    return spec, qtable


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
    cfg = TrainConfig(episodes=2000, learning_rate=0.1)
    save_qtable(train_soft_q(load_mcg(spec).mdp, 1.0, cfg, np.random.default_rng(0)), want)
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
    ],
    ids=["misspelt-key", "missing-env", "rollouts-0", "method-params", "episodes-0",
         "noise-p-0.6", "env-params-typo", "env-params-noise", "noise-p-empty",
         "env-params-grid", "rollouts-float", "rollouts-bool", "episodes-float",
         "seed-float"],
)
def test_sweep_rejects_a_bad_config_key(tmp_path, capsys, doc, key):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps(doc))
    assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "rows.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and repr(key) in err
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


@pytest.mark.parametrize("command", ["train", "send", "receive"])
def test_commands_reject_a_spec_that_breaks_its_horizon_bound(tmp_path, capsys, command):
    # The horizon-one-short fault: on it, a command that missed the check
    # would still end, and fail this test instead of hanging it.
    spec, qtable, traj = tmp_path / "env.json", tmp_path / "q.txt", tmp_path / "z.txt"
    assert main(["make-env", "chain", "--steps", "5", "--actions", "2", "--out", str(spec)]) == 0
    assert main(["solve", "--spec", str(spec), "--beta", "1", "--out", str(qtable)]) == 0
    assert main([
        "send", "--spec", str(spec), "--qtable", str(qtable), "--message", "1",
        "--seed", "0", "--out", str(traj),
    ]) == 0
    _break_horizon_bound(spec, "horizon-one-short")
    out = tmp_path / "out.txt"
    args = {
        "train": ["--beta", "1", "--episodes", "10", "--seed", "0"],
        "send": ["--qtable", str(qtable), "--message", "1", "--seed", "0"],
        "receive": ["--qtable", str(qtable), "--traj", str(traj)],
    }[command]
    capsys.readouterr()
    assert main([command, "--spec", str(spec), *args, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "horizon bound" in err
    assert not out.exists()


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


# Valid JSON that is no game spec, and the text the error must contain.
BAD_SPECS = {
    "terminal_states": ({"mdp": {}}, "terminal_states"),
    "spec-list": ([1], "game spec must be a JSON object, not list"),
    "mdp-list": ({"mdp": []}, 'game spec "mdp" must be a JSON object, not list'),
}


# Edits to the lines of a valid Q-table file (its header, then one line per
# (state, action) pair), and the text the error must contain. Apart from the
# emptied file, each edited table used to load: a repeated pair overwrote the
# first, a missing pair read 0, and a negative index wrapped round.
BAD_QTABLES = {
    "Q-table": (lambda lines: [], "Q-table"),
    "qtable-repeated": (lambda lines: lines + [lines[1].rsplit(" ", 1)[0] + " 9.0"],
                        "repeats state 0, action 0"),
    "qtable-missing": (lambda lines: lines[:5] + lines[6:], "lacks 1 of"),
    "qtable-negative": (lambda lines: lines + ["-1 0 9.0"], "negative index"),
}


@pytest.mark.parametrize("fault", ["trajectory", *BAD_SPECS, *BAD_QTABLES])
def test_malformed_input_files_exit_cleanly(tmp_path, capsys, fault):
    # Faulty Q tables (above), an empty trajectory file, and game specs that
    # parse as JSON but have the wrong shape: an "mdp" object that lacks
    # every key, a list for the whole document, and a list for "mdp".
    spec, qtable = _codegrid_8(tmp_path)
    bad = tmp_path / "bad.txt"
    if fault in BAD_QTABLES:
        edit, expected = BAD_QTABLES[fault]
        bad.write_text("".join(f"{line}\n" for line in edit(qtable.read_text().splitlines())))
        argv = ["send", "--spec", str(spec), "--qtable", str(bad),
                "--message", "0", "--seed", "0", "--out", str(tmp_path / "z.txt")]
    elif fault == "trajectory":
        bad.write_text("")
        expected = fault
        argv = ["receive", "--spec", str(spec), "--qtable", str(qtable),
                "--traj", str(bad), "--out", str(tmp_path / "m.txt")]
    else:
        document, expected = BAD_SPECS[fault]
        bad.write_text(json.dumps(document))
        argv = ["solve", "--spec", str(bad), "--beta", "2", "--out", str(tmp_path / "q2.txt")]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and expected in err
