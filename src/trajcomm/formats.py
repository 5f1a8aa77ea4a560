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
from .envs import check_fits, fits
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

# The spec document of version 2, declared once: each key's JSON type as
# ``envs.fits`` reads it, a nested table for a nested object. The "mdp" keys
# are ``MdpSpec``'s fields, and those of "message_space" ``MessageSpace``'s.
_INTS, _NUMBERS = tuple[int, ...], tuple[float, ...]
SPEC_FIELDS = {
    "mdp": {
        "n_states": int, "n_actions": int, "row_offsets": _INTS, "next_state": _INTS,
        "prob": _NUMBERS, "rewards": tuple[_NUMBERS, ...], "initial_state": int,
        "terminal_states": _INTS, "horizon_bound": int,
    },
    "message_space": {"block_sizes": _INTS, "factored": bool},
    "prior": tuple[_NUMBERS, ...],
    "priority": float,
    "noise_p": float,
}


def _written(value, hint):
    """A spec value as JSON: a nested table's object, an array as (nested)
    lists, a set sorted, a belief as its blocks' probabilities."""
    if isinstance(hint, dict):
        return {key: _written(getattr(value, key), inner) for key, inner in hint.items()}
    if isinstance(value, Belief):
        return [b.probs.tolist() for b in value.blocks]
    if isinstance(value, np.ndarray):
        return value.tolist()
    return sorted(value) if isinstance(value, frozenset) else value


def mcg_to_document(mcg: McgSpec) -> dict:
    return {"format_version": MCG_FORMAT_VERSION, **_written(mcg, SPEC_FIELDS)}


_WRONG_TYPE = "game spec has a field of the wrong type: "


def _check_fields(doc: dict, fields: dict, name: str) -> None:
    """Raise ValueError unless the JSON object ``doc`` holds every key of
    ``fields``, each of its declared type; other keys are ignored."""
    for key, hint in fields.items():
        if key not in doc:
            missing = ", ".join(repr(k) for k in fields if k not in doc)
            raise ValueError(f"{name} is missing {missing}")
        value = doc[key]
        if not isinstance(hint, dict):
            check_fits(key, value, hint, _WRONG_TYPE)
        elif fits(value, dict):
            _check_fields(value, hint, f'{name} "{key}"')
        else:
            kind = type(value).__name__
            raise ValueError(f'{_WRONG_TYPE}{name} "{key}" must be a JSON object, not {kind}')


def mcg_from_document(doc: dict) -> McgSpec:
    """The game spec a document describes.

    Raises ValueError, checked in this order, on a format version other than
    ``MCG_FORMAT_VERSION`` (a document with none is version 1); on a missing
    key or a field that does not fit its type in ``SPEC_FIELDS``, before
    anything is built; and on an MDP that breaks its horizon bound.
    """
    if not fits(doc, dict):
        raise ValueError(f"game spec must be a JSON object, not {type(doc).__name__}")
    version = doc.get("format_version", 1)  # version 1 wrote no such field
    if version != MCG_FORMAT_VERSION:
        raise ValueError(
            f"unsupported game-spec format version {version!r}; "
            f"only version {MCG_FORMAT_VERSION} is read"
        )
    _check_fields(doc, SPEC_FIELDS, "game spec")
    m, ms = doc["mdp"], doc["message_space"]
    mdp = MdpSpec(**{key: m[key] for key in SPEC_FIELDS["mdp"]})
    heights(mdp)  # on a spec that breaks its horizon bound, episodes may never end
    space = MessageSpace(**{key: ms[key] for key in SPEC_FIELDS["message_space"]})
    prior = Belief(tuple(map(Dist, doc["prior"])))
    return McgSpec(mdp, space, prior, priority=doc["priority"], noise_p=doc["noise_p"])


def save_mcg(mcg: McgSpec, path) -> None:
    Path(path).write_text(json.dumps(mcg_to_document(mcg), indent=1, sort_keys=True))


def load_mcg(path) -> McgSpec:
    return mcg_from_document(json.loads(Path(path).read_text()))


# ---------------------------------------------------------------------------
# Q tables: a header line with the temperature, then 'state action value'.
# ---------------------------------------------------------------------------

def _parsed(line: str, n: int, kind: str, names: str, reads) -> list:
    """Line ``n`` of a ``kind`` file as its fields ``names``, each read by
    the matching one of ``reads``; a ValueError naming the line otherwise."""
    fields = line.split()
    try:
        if len(fields) == len(reads):
            return [read(f) for read, f in zip(reads, fields)]
    except ValueError:
        pass
    raise ValueError(f"{kind} line {n} is not '{names}': {line!r}")


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
    _, alpha = _parsed(lines[0], 1, "Q-table", "alpha <value>", (str, float))
    pairs = {}
    for n, line in enumerate(lines[1:], start=2):
        if not line.split():
            continue
        s, a, v = _parsed(line, n, "Q-table", "state action value", (int, int, float))
        if s < 0 or a < 0 or (s, a) in pairs:
            raise ValueError(f"Q-table repeats state {s}, action {a}, or has a negative index")
        pairs[s, a] = v
    if not pairs:
        raise ValueError("Q-table file has no 'state action value' lines")
    # The shape follows the largest indices, and each pair in it has a line,
    # so a table is sized only once its lines cover it.
    shape = (max(s for s, _ in pairs) + 1, max(a for _, a in pairs) + 1)
    if len(pairs) != shape[0] * shape[1]:
        raise ValueError(f"Q-table lacks {shape[0] * shape[1] - len(pairs)} of its {shape} pairs")
    values = np.zeros(shape)
    for (s, a), v in pairs.items():
        values[s, a] = v
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
    _, final_state = _parsed(lines[0], 1, "trajectory", "final_state <s>", (str, int))
    names, reads = "state intended executed reward", (int, int, int, float)
    steps = [
        Step(*_parsed(line, n, "trajectory", names, reads))
        for n, line in enumerate(lines[1:], start=2) if line.split()
    ]
    return Trajectory(steps=tuple(steps), final_state=final_state)


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
