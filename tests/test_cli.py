"""End-to-end runs of the command-line file pipeline."""

import json

import pytest

from trajcomm.cli import main
from trajcomm.dist import Dist
from trajcomm.formats import METRICS_COLUMNS, save_dist


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


def test_mec_prints_the_coupling_and_its_entropy(tmp_path, capsys):
    p, q = tmp_path / "p.txt", tmp_path / "q.txt"
    save_dist(Dist([0.5, 0.5]), p)
    save_dist(Dist([0.5, 0.25, 0.25]), q)
    assert main(["mec", "--p", str(p), "--q", str(q)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:3] == ["0.5 0 0", "0.25 1 1", "0.25 1 2"]
    assert "joint_bits 1.5" in lines


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
    assert header == ",".join(METRICS_COLUMNS)
    assert len(rows) == 1
    assert rows[0].split(",")[-1] == ""


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
    ],
    ids=["misspelt-key", "missing-env", "rollouts-0", "method-params"],
)
def test_sweep_rejects_a_bad_config_key(tmp_path, capsys, doc, key):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps(doc))
    assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "rows.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and repr(key) in err
    assert not (tmp_path / "rows.csv").exists()


@pytest.mark.parametrize("fault", ["horizon-one-short", "cycle"])
def test_solve_rejects_a_spec_that_breaks_its_horizon_bound(tmp_path, capsys, fault):
    # A 5-step chain declared with horizon_bound 4, or with state 1's first
    # action sent back to state 0. Both used to solve to a truncated table.
    spec, qtable = tmp_path / "env.json", tmp_path / "q.txt"
    assert main(["make-env", "chain", "--steps", "5", "--actions", "2", "--out", str(spec)]) == 0
    document = json.loads(spec.read_text())
    if fault == "cycle":
        document["mdp"]["next_state"][2] = 0
    else:
        document["mdp"]["horizon_bound"] = 4
    spec.write_text(json.dumps(document))
    capsys.readouterr()
    assert main(["solve", "--spec", str(spec), "--beta", "1", "--out", str(qtable)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "horizon bound" in err
    assert not qtable.exists()


# Valid JSON that is no game spec, and the text the error must contain.
BAD_SPECS = {
    "terminal_states": ({"mdp": {}}, "terminal_states"),
    "spec-list": ([1], "game spec must be a JSON object, not list"),
    "mdp-list": ({"mdp": []}, 'game spec "mdp" must be a JSON object, not list'),
}


@pytest.mark.parametrize("fault", ["Q-table", "trajectory", *BAD_SPECS])
def test_malformed_input_files_exit_cleanly(tmp_path, capsys, fault):
    # An empty Q-table file, an empty trajectory file, and game specs that
    # parse as JSON but have the wrong shape: an "mdp" object that lacks
    # every key, a list for the whole document, and a list for "mdp".
    spec, qtable = _codegrid_8(tmp_path)
    empty, bad_spec = tmp_path / "empty.txt", tmp_path / "bad.json"
    empty.write_text("")
    document, expected = BAD_SPECS.get(fault, ({}, fault))
    bad_spec.write_text(json.dumps(document))
    argv = {
        "Q-table": ["send", "--spec", str(spec), "--qtable", str(empty),
                    "--message", "0", "--seed", "0", "--out", str(tmp_path / "z.txt")],
        "trajectory": ["receive", "--spec", str(spec), "--qtable", str(qtable),
                       "--traj", str(empty), "--out", str(tmp_path / "m.txt")],
    }.get(fault, ["solve", "--spec", str(bad_spec), "--beta", "2",
                  "--out", str(tmp_path / "q2.txt")])
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and expected in err
