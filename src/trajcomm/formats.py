"""File formats: distributions, game specs, Q tables, trajectories, plain PBM
images, and metrics CSVs. All writers are deterministic byte-for-byte.

Each layout has one owner elsewhere: a metrics CSV's columns are
``sweep.MetricsRow``'s fields, and an image's pixels map to a message of its
image space through ``envs.image_to_message`` and ``message_to_image``."""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np

from .dist import Dist
from .mcg import Belief, McgSpec, MessageSpace
from .mdp import MdpSpec, Step, Trajectory, heights
from .maxent import QTable
from .sweep import MetricsRow


def _num(x: float) -> str:
    """Nine significant digits, stable across platforms."""
    return f"{x:.9g}"


def _exact(x: float) -> str:
    """Shortest text that parses back to the same double.

    ``float`` first: under numpy 2 a numpy scalar's repr is ``np.float64(...)``,
    which ``float()`` cannot read back.
    """
    return repr(float(x))


# ---------------------------------------------------------------------------
# Distributions: one probability per line, '#' starts a comment.
# ---------------------------------------------------------------------------

def load_dist(path) -> Dist:
    probs = []
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            probs.append(float(line))
    if not probs:
        raise ValueError(f"no probabilities found in {path}")
    return Dist(np.array(probs))


# ---------------------------------------------------------------------------
# Game specs as JSON documents of format version 2, which stores the MDP's
# CSR transition arrays.
# ---------------------------------------------------------------------------

MCG_FORMAT_VERSION = 2


def mcg_to_document(mcg: McgSpec) -> dict:
    mdp = mcg.mdp
    return {
        "format_version": MCG_FORMAT_VERSION,
        "mdp": {
            "n_states": mdp.n_states,
            "n_actions": mdp.n_actions,
            "initial_state": mdp.initial_state,
            "terminal_states": sorted(mdp.terminal_states),
            "horizon_bound": mdp.horizon_bound,
            "row_offsets": mdp.row_offsets.tolist(),
            "next_state": mdp.next_state.tolist(),
            "prob": mdp.prob.tolist(),
            "rewards": mdp.rewards.tolist(),
        },
        "message_space": {
            "factored": mcg.message_space.factored,
            "block_sizes": list(mcg.message_space.block_sizes),
        },
        "prior": [list(map(float, b.probs)) for b in mcg.prior.blocks],
        "priority": mcg.priority,
        "noise_p": mcg.noise_p,
    }


def _integer(value, field: str):
    """``value`` if it is an integer; a TypeError naming ``field`` for any
    other value, a bool or a float such as 1.0 included."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{field} must be an integer, not {value!r}")
    return value


def mcg_from_document(doc: dict) -> McgSpec:
    """The game spec a document describes.

    A document of another format version than ``MCG_FORMAT_VERSION`` (one
    with no ``format_version`` is version 1), a missing key, a field of the
    wrong type (a count, state or block size that is not an integer, or a
    ``factored`` that is not a bool included), a document or ``"mdp"`` that
    is not a JSON object, or an MDP that breaks its horizon bound raises
    ValueError.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"game spec must be a JSON object, not {type(doc).__name__}")
    try:
        m = doc["mdp"]
        if not isinstance(m, dict):
            raise ValueError(f'game spec "mdp" must be a JSON object, not {type(m).__name__}')
        terminal = frozenset(_integer(s, "a terminal state") for s in m["terminal_states"])
        n_states = _integer(m["n_states"], "n_states")
        n_actions = _integer(m["n_actions"], "n_actions")
        version = doc.get("format_version", 1)  # version 1 wrote no such field
        if version != MCG_FORMAT_VERSION:
            raise ValueError(
                f"unsupported game-spec format version {version!r}; "
                f"only version {MCG_FORMAT_VERSION} is read"
            )
        mdp = MdpSpec(
            n_states=n_states,
            n_actions=n_actions,
            row_offsets=m["row_offsets"],
            next_state=m["next_state"],
            prob=m["prob"],
            rewards=np.array(m["rewards"]),
            initial_state=_integer(m["initial_state"], "initial_state"),
            terminal_states=terminal,
            horizon_bound=_integer(m["horizon_bound"], "horizon_bound"),
        )
        heights(mdp)  # on a spec that breaks its horizon bound, episodes may never end
        factored = doc["message_space"]["factored"]
        if not isinstance(factored, bool):
            raise TypeError(f"factored must be true or false, not {factored!r}")
        space = MessageSpace(
            tuple(_integer(b, "a block size") for b in doc["message_space"]["block_sizes"]),
            factored=factored,
        )
        prior = Belief(tuple(Dist(np.array(b)) for b in doc["prior"]))
        return McgSpec(
            mdp=mdp,
            message_space=space,
            prior=prior,
            priority=doc["priority"],
            noise_p=doc["noise_p"],
        )
    except KeyError as e:
        raise ValueError(f"game spec is missing the key {e.args[0]!r}") from e
    except TypeError as e:
        raise ValueError(f"game spec has a field of the wrong type: {e}") from e


def save_mcg(mcg: McgSpec, path) -> None:
    Path(path).write_text(json.dumps(mcg_to_document(mcg), indent=1, sort_keys=True))


def load_mcg(path) -> McgSpec:
    return mcg_from_document(json.loads(Path(path).read_text()))


# ---------------------------------------------------------------------------
# Q tables: a header line with the temperature, then 'state action value'.
# ---------------------------------------------------------------------------

def save_qtable(q: QTable, path) -> None:
    lines = [f"alpha {_exact(q.alpha)}"]
    n_states, n_actions = q.values.shape
    for s in range(n_states):
        for a in range(n_actions):
            lines.append(f"{s} {a} {_exact(q.values[s, a])}")
    Path(path).write_text("\n".join(lines) + "\n")


def load_qtable(path) -> QTable:
    lines = Path(path).read_text().splitlines() or [""]
    head = lines[0].split()
    if len(head) != 2 or head[0] != "alpha":
        raise ValueError("Q-table file must start with an 'alpha <value>' header")
    alpha = float(head[1])
    triples = []
    for line in lines[1:]:
        if not line.strip():
            continue
        s, a, v = line.split()
        triples.append((int(s), int(a), float(v)))
    if not triples:
        raise ValueError("Q-table file has no 'state action value' lines")
    # The shape follows the largest indices; each pair in it appears once.
    n_states = max(s for s, _, _ in triples) + 1
    n_actions = max(a for _, a, _ in triples) + 1
    values = np.zeros((n_states, n_actions))
    seen = set()
    for s, a, v in triples:
        if s < 0 or a < 0 or (s, a) in seen:
            raise ValueError(f"Q-table repeats state {s}, action {a}, or has a negative index")
        seen.add((s, a))
        values[s, a] = v
    if len(seen) != values.size:
        raise ValueError(f"Q-table lacks {values.size - len(seen)} of its {values.shape} pairs")
    return QTable(values=values, alpha=alpha)


# ---------------------------------------------------------------------------
# Trajectories: header with the final state, then one step per line.
# ---------------------------------------------------------------------------

def save_trajectory(z: Trajectory, path) -> None:
    lines = [f"final_state {z.final_state}"]
    for s in z.steps:
        lines.append(
            f"{s.state} {s.intended_action} {s.executed_action} {_exact(s.reward)}"
        )
    Path(path).write_text("\n".join(lines) + "\n")


def load_trajectory(path) -> Trajectory:
    lines = Path(path).read_text().splitlines() or [""]
    head = lines[0].split()
    if len(head) != 2 or head[0] != "final_state":
        raise ValueError("trajectory file must start with a 'final_state <s>' header")
    steps = []
    for line in lines[1:]:
        if not line.strip():
            continue
        s, intended, executed, reward = line.split()
        steps.append(Step(int(s), int(intended), int(executed), float(reward)))
    return Trajectory(steps=tuple(steps), final_state=int(head[1]))


# ---------------------------------------------------------------------------
# Plain PBM (P1) images.
# ---------------------------------------------------------------------------

def load_pbm(path) -> np.ndarray:
    """A plain PBM file as an (h, w) array of 0/1 values.

    After the three header tokens (``P1``, width, height) every raster
    character is one bit, so bits may run together or be separated by any
    whitespace; ``#`` starts a comment to the end of its line anywhere.
    """
    text = "\n".join(raw.split("#", 1)[0] for raw in Path(path).read_text().splitlines())
    tokens = text.split(maxsplit=3)
    if not tokens or tokens[0] != "P1":
        raise ValueError("expected a plain PBM (P1) file")
    if len(tokens) < 3:
        raise ValueError("PBM header is truncated")
    try:
        w, h = int(tokens[1]), int(tokens[2])
    except ValueError as e:
        raise ValueError("PBM dimensions must be integers") from e
    if w < 1 or h < 1:
        raise ValueError(f"PBM width and height must be positive, got {w} x {h}")
    bits = "".join("".join(tokens[3:]).split())  # the raster, whitespace dropped
    if len(bits) != w * h:
        raise ValueError(f"PBM expects {w * h} bits, found {len(bits)}")
    if any(b not in ("0", "1") for b in bits):
        raise ValueError("PBM bits must be 0 or 1")
    return np.array([int(b) for b in bits], dtype=np.int64).reshape(h, w)


def save_pbm(image: np.ndarray, path) -> None:
    image = np.asarray(image)
    if image.ndim != 2 or not np.isin(image, (0, 1)).all():
        raise ValueError("image must be a 2-D array of 0/1 values")
    if image.size == 0:
        raise ValueError(f"image must have at least one pixel, got shape {image.shape}")
    h, w = image.shape
    rows = [" ".join(str(int(v)) for v in row) for row in image]
    Path(path).write_text(f"P1\n{w} {h}\n" + "\n".join(rows) + "\n")


# ---------------------------------------------------------------------------
# Metrics CSV.
# ---------------------------------------------------------------------------

def _cell(value) -> str:
    """A CSV cell: text with ',' made ';', an int in full, a float by ``_num``."""
    if isinstance(value, str):
        return value.replace(",", ";")
    return str(value) if isinstance(value, int) else _num(value)


def metrics_to_csv(rows) -> str:
    """The rows as CSV text, one column per ``MetricsRow`` field."""
    out = [",".join(f.name for f in dataclasses.fields(MetricsRow))]
    out += [",".join(map(_cell, dataclasses.astuple(r))) for r in rows]
    return "\n".join(out) + "\n"


def save_metrics_csv(rows, path) -> None:
    Path(path).write_text(metrics_to_csv(rows))


def save_entropy_trace_csv(entropies, path) -> None:
    """Per-decision-point belief entropy (bits), step 0 being the prior."""
    lines = ["step,belief_entropy_bits"]
    for i, h in enumerate(entropies):
        lines.append(f"{i},{_num(h)}")
    Path(path).write_text("\n".join(lines) + "\n")
