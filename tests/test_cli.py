"""End-to-end runs of the command-line file pipeline."""

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


def test_mec_prints_the_coupling_and_its_entropy(tmp_path, capsys):
    p, q = tmp_path / "p.txt", tmp_path / "q.txt"
    save_dist(Dist([0.5, 0.5]), p)
    save_dist(Dist([0.5, 0.25, 0.25]), q)
    assert main(["mec", "--p", str(p), "--q", str(q)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:3] == ["0.5 0 0", "0.25 1 1", "0.25 1 2"]
    assert "joint_bits 1.5" in lines
