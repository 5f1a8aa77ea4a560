"""Command-line driver.

Subcommands: make-env (emit a game spec), solve (exact planner), train
(sampled learner), send (encode a message into a trajectory), receive
(decode a trajectory), sweep (parameter grid to CSV), and mec (couple two
distribution files).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .coding import check_mixture, receiver_decode, sender_episode
from .dist import coupling_entropies
from .envs import GAMES, build_env, image_to_message, message_to_image
from .formats import (
    load_dist,
    load_mcg,
    load_pbm,
    load_qtable,
    load_trajectory,
    save_entropy_trace_csv,
    save_mcg,
    save_metrics_csv,
    save_pbm,
    save_qtable,
    save_trajectory,
)
from .maxent import TrainConfig, exact_soft_vi, train_soft_q
from .mec import greedy_mec
from .sweep import run_sweep, sweep_config_from_document


def _add_make_env(sub):
    p = sub.add_parser(
        "make-env",
        help="emit a game spec document",
        description="Emit a game spec document. A game flag left out takes its "
        "builder's default in trajcomm.envs; one the game does not take is an error. "
        "The coding game is standard source coding by default, length-limited "
        "coding with --length-limit, and unequal-cost coding with --symbol-costs.",
        argument_default=argparse.SUPPRESS,
    )
    p.add_argument("env", choices=list(GAMES))
    p.add_argument("--out", required=True)
    g = p.add_argument_group("every game")
    g.add_argument("--zeta", dest="priority", type=float, help="message priority")
    g.add_argument("--noise-p", type=float)
    g = p.add_argument_group("codegrid, chain and coding")
    g.add_argument("--messages", dest="n_messages", type=int, help="explicit message count")
    g = p.add_argument_group("chain")
    g.add_argument("--image-pixels", type=int, help="factored image space (chain only)")
    g.add_argument("--block-pixels", type=int, help="pixels per message block")
    g.add_argument("--steps", type=int, help="chain length")
    g.add_argument("--actions", dest="n_actions", type=int, help="chain action count")
    g = p.add_argument_group("coding")
    g.add_argument("--alphabet", dest="alphabet_size", type=int, help="symbol count")
    g.add_argument("--length-limit", type=int, help="most symbols an episode emits")
    g.add_argument("--symbol-costs", type=float, nargs="+", help="one cost per symbol")


def _cmd_make_env(args) -> int:
    params = {k: v for k, v in vars(args).items() if k not in ("command", "env", "out")}
    noise = {"noise_p": params.pop("noise_p")} if "noise_p" in params else {}
    mcg = build_env(args.env, params, **noise)
    save_mcg(mcg, args.out)
    print(f"wrote {args.env} spec to {args.out}")
    return 0


def _alpha(beta: float) -> float:
    """The temperature 1/beta of a positive, finite ``--beta``."""
    if not 0.0 < beta < math.inf:
        raise ValueError(f"--beta must be positive and finite, got {beta}")
    return 1.0 / beta


def _cmd_solve(args) -> int:
    alpha = _alpha(args.beta)
    mcg = load_mcg(args.spec)
    q = exact_soft_vi(mcg.mdp, alpha=alpha)
    save_qtable(q, args.out)
    print(f"solved {args.spec} at beta={args.beta}; wrote {args.out}")
    return 0


def _cmd_train(args) -> int:
    alpha = _alpha(args.beta)
    mcg = load_mcg(args.spec)
    cfg = TrainConfig(episodes=args.episodes, learning_rate=args.lr)
    q = train_soft_q(mcg.mdp, alpha, cfg, np.random.default_rng(args.seed))
    save_qtable(q, args.out)
    print(f"trained {args.episodes} episodes at beta={args.beta}; wrote {args.out}")
    return 0


def _message_from_args(args, mcg):
    if args.image is None:
        return args.message
    return image_to_message(load_pbm(args.image), mcg.message_space)


def _cmd_send(args) -> int:
    mcg = load_mcg(args.spec)
    q = load_qtable(args.qtable)
    _check_qtable(mcg, q)
    m = _message_from_args(args, mcg)
    rng = np.random.default_rng(args.seed)
    record = sender_episode(q, mcg, m, rng)
    save_trajectory(record.trajectory, args.out)
    print(f"sent message through {len(record.trajectory.steps)} steps; wrote {args.out}")
    return 0


def _cmd_receive(args) -> int:
    mcg = load_mcg(args.spec)
    q = load_qtable(args.qtable)
    _check_qtable(mcg, q)
    z = load_trajectory(args.traj).receiver_view()
    decoded, trace = receiver_decode(q, mcg, z)
    if mcg.message_space.factored:
        if args.image_shape is None:
            raise ValueError("factored decoding needs --image-shape H W")
        save_pbm(message_to_image(decoded, args.image_shape, mcg.message_space), args.out)
    else:
        with open(args.out, "w") as f:
            f.write(f"{decoded}\n")
    if args.entropy_csv:
        save_entropy_trace_csv([b.entropy_bits() for b in trace], args.entropy_csv)
    print(f"decoded {'image' if mcg.message_space.factored else 'message'}; wrote {args.out}")
    return 0


def _cmd_sweep(args) -> int:
    with open(args.config) as f:
        cfg = sweep_config_from_document(json.load(f))
    rows = run_sweep(cfg)
    save_metrics_csv(rows, args.out)
    failures = sum(1 for r in rows if r.error)
    print(f"wrote {len(rows)} rows to {args.out} ({failures} cell failures)")
    return 0


def _cmd_mec(args) -> int:
    p = load_dist(args.p)
    q = load_dist(args.q)
    coupling = greedy_mec(p, q)
    check_mixture(coupling, p, q)
    for mass, r, c in coupling.entries:
        print(f"{mass:.9g} {r} {c}")
    e = coupling_entropies(coupling)
    print(f"joint_bits {e.joint_bits:.9g}")
    print(f"row_marginal_bits {e.row_marginal_bits:.9g}")
    print(f"col_marginal_bits {e.col_marginal_bits:.9g}")
    print(f"mutual_info_bits {e.mutual_info_bits:.9g}")
    return 0


def _check_qtable(mcg, q) -> None:
    if q.values.shape != (mcg.mdp.n_states, mcg.mdp.n_actions):
        raise ValueError(
            f"Q table shape {q.values.shape} does not match the spec's MDP "
            f"({mcg.mdp.n_states} states x {mcg.mdp.n_actions} actions)"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="trajcomm", description="communicate messages through MDP trajectories"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _add_make_env(sub)

    p = sub.add_parser("solve", help="exact max-entropy planning to a Q-table file")
    p.add_argument("--spec", required=True)
    p.add_argument("--beta", type=float, required=True, help="inverse temperature")
    p.add_argument("--out", required=True)

    p = sub.add_parser("train", help="sampled max-entropy Q-learning")
    p.add_argument("--spec", required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--episodes", type=int, default=200_000)
    p.add_argument("--lr", type=float, default=0.1)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("send", help="encode a message into one trajectory")
    p.add_argument("--spec", required=True)
    p.add_argument("--qtable", required=True)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--message", type=int)
    g.add_argument("--image", help="plain PBM file carrying the message")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("receive", help="decode a trajectory file")
    p.add_argument("--spec", required=True)
    p.add_argument("--qtable", required=True)
    p.add_argument("--traj", required=True)
    p.add_argument("--image-shape", type=int, nargs=2, metavar=("H", "W"))
    p.add_argument("--entropy-csv", help="write the belief-entropy trace here")
    p.add_argument("--out", required=True)

    p = sub.add_parser("sweep", help="run a parameter sweep to CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("mec", help="couple two distribution files")
    p.add_argument("--p", required=True)
    p.add_argument("--q", required=True)

    args = parser.parse_args(argv)
    handlers = {
        "make-env": _cmd_make_env,
        "solve": _cmd_solve,
        "train": _cmd_train,
        "send": _cmd_send,
        "receive": _cmd_receive,
        "sweep": _cmd_sweep,
        "mec": _cmd_mec,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
