"""End-to-end runs of the command-line file pipeline."""

import pytest

from trajcomm.cli import main
from trajcomm.dist import Dist
from trajcomm.formats import save_dist


def test_solve_send_receive_decodes_the_sent_message(tmp_path):
    spec, qtable, traj, decoded = (tmp_path / n for n in ("env.json", "q.txt", "z.txt", "m.txt"))
    assert main(["make-env", "codegrid", "--messages", "8", "--out", str(spec)]) == 0
    assert main(["solve", "--spec", str(spec), "--beta", "2", "--out", str(qtable)]) == 0
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
