"""Parameter sweeps: run (grid x noise x seed) cells and collect metrics rows.

The grid axis is the inverse temperature (beta) for the coupling-coded
sender, or the message priority (zeta) for the RL baseline. The game is
built once, before any cell runs, so a game its builder refuses raises
ValueError and no cell runs. Each noise level is that game with its own
``noise_p``; all cells share one MDP, so the coded sender plans each beta
once. Each method turns a cell into a player of one message,
``(decoded, return)``; one loop then plays ``rollouts`` messages drawn from
the prior and scores both methods alike over the message space's block
values, so the Hamming distance of an explicit message is 1 on a miss. Cells
are fully deterministic given the config, and a cell's own failure (its beta
or zeta, training or a rollout) is recorded in its row instead of aborting
the sweep.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import typing

import numpy as np

from .baseline import rollout_rl_pr, train_rl_pr
from .coding import run_roundtrip
from .envs import build_env, check_fits, check_game_params
from .maxent import exact_soft_vi, named_overflow, temperature
from .mcg import McgSpec, hamming_distance, sample_message
from .mdp import trajectory_return


@dataclasses.dataclass(frozen=True)
class SweepConfig:
    """One sweep: an environment, a method, and the axes to scan.

    ``env`` names a game of ``envs.GAMES``, and ``env_params`` holds keywords
    of its builder. Noise comes only from ``noise_p`` (values in [0, 0.5]).
    ``grid`` holds beta values for the coded sender and zeta values for the
    baseline; a baseline cell's zeta becomes its game's message priority,
    whatever ``env_params`` says. The game is built once per sweep, before
    any cell (``run_sweep``). ``episodes`` is the per-cell training
    budget (used by the baseline; the coded sender plans exactly), and each
    cell plays ``rollouts`` evaluation episodes; both are integers of at
    least one. Every field must fit its annotation (``envs.fits``).
    """

    env: str
    method: str
    grid: tuple[float, ...]
    seeds: tuple[int, ...]
    env_params: dict = dataclasses.field(default_factory=dict)
    episodes: int = 200_000
    rollouts: int = 10
    noise_p: tuple[float, ...] = (0.0,)

    def __post_init__(self):
        for name, hint in _CONFIG_TYPES.items():
            check_fits(name, getattr(self, name), hint)
        if not self.grid:
            raise ValueError("sweep grid must be non-empty")
        if not self.seeds:
            raise ValueError("sweep needs at least one seed")
        if not self.noise_p:
            raise ValueError("'noise_p' must hold at least one noise level")
        if self.method not in ("meme", "rl_pr"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.rollouts < 1:
            raise ValueError(f"'rollouts' must be at least 1, not {self.rollouts}")
        if self.episodes < 1:
            raise ValueError(f"'episodes' must be at least 1, not {self.episodes}")
        for name, kind in (("grid", float), ("seeds", int), ("noise_p", float)):
            object.__setattr__(self, name, tuple(map(kind, getattr(self, name))))
        if any(not 0.0 <= n <= 0.5 for n in self.noise_p):
            raise ValueError(f"every 'noise_p' must lie in [0, 0.5], not {list(self.noise_p)}")
        if min(self.seeds) < 0:
            raise ValueError(f"every 'seeds' must be at least 0, not {list(self.seeds)}")
        check_game_params(self.env, self.env_params)


# Read once: a config is checked against these at every construction.
_CONFIG_TYPES = typing.get_type_hints(SweepConfig)


@dataclasses.dataclass(frozen=True)
class MetricsRow:
    """One cell's metrics; the field names are the metrics CSV's columns."""

    method: str
    beta_or_zeta: float
    noise_p: float
    seed: int
    decode_accuracy: float
    accuracy_se: float
    mean_return: float
    return_se: float
    mean_hamming: float
    hamming_se: float
    rollouts: int
    error: str = ""

    def __post_init__(self):
        if self.error:
            return
        if not 0.0 <= self.decode_accuracy <= 1.0:
            raise ValueError("accuracy must lie in [0, 1]")
        if self.mean_hamming < 0.0:
            raise ValueError("hamming distance cannot be negative")


def standard_error(x: np.ndarray) -> float:
    """Standard error of the mean of ``x``; 0 for fewer than two samples."""
    return float(x.std(ddof=1) / math.sqrt(len(x))) if len(x) > 1 else 0.0


def _meme_cell(plans: dict, cfg: SweepConfig, mcg: McgSpec, beta: float, rng):
    """Plan at ``beta``, unless ``plans`` (beta -> table, over one MDP) holds
    it; a message plays one coded round trip. A refused beta is not kept."""
    if beta not in plans:
        with named_overflow("beta", beta):
            plans[beta] = exact_soft_vi(mcg.mdp, alpha=temperature(beta))
    q = plans[beta]

    def play(m, rng):
        record = run_roundtrip(q, mcg, m, rng)
        return record.decoded, trajectory_return(record.trajectory)

    return play


def _rl_pr_cell(cfg: SweepConfig, mcg: McgSpec, zeta: float, rng):
    """Train at priority ``zeta`` on ``rng``; a message plays one greedy episode."""
    mcg = dataclasses.replace(mcg, priority=zeta)
    with named_overflow("zeta", zeta):
        q = train_rl_pr(mcg, cfg.episodes, rng)
    return functools.partial(rollout_rl_pr, q, mcg)


def _score(cfg: SweepConfig, mcg: McgSpec, play, rng) -> list[float]:
    """Mean and standard error of the hits, returns and Hamming distances of
    ``cfg.rollouts`` messages drawn from the prior and played by ``play``."""
    space = mcg.message_space
    rets, hams = np.zeros((2, cfg.rollouts))
    for i in range(cfg.rollouts):
        m = sample_message(mcg, rng)
        decoded, rets[i] = play(m, rng)
        hams[i] = hamming_distance(space.values(m), space.values(decoded))
    hits = (hams == 0.0).astype(float)
    return [v for x in (hits, rets, hams) for v in (float(x.mean()), standard_error(x))]


def run_sweep(cfg: SweepConfig) -> list[MetricsRow]:
    """Run every (grid value, noise level, seed) cell and return its rows.

    The game is built once, before any cell: a game its builder refuses
    raises that ValueError and no cell runs. A MEME sweep plans each beta
    once, in this call only."""
    game = build_env(cfg.env, cfg.env_params)
    cell = functools.partial(_meme_cell, {}) if cfg.method == "meme" else _rl_pr_cell
    rows = []
    for gi, param in enumerate(cfg.grid):
        for ni, noise in enumerate(cfg.noise_p):
            mcg = dataclasses.replace(game, noise_p=noise)
            for seed in cfg.seeds:
                rng = np.random.default_rng(
                    np.random.SeedSequence([seed, gi, ni, 0xC0DE])
                )
                try:
                    stats = _score(cfg, mcg, cell(cfg, mcg, param, rng), rng)
                    row = MetricsRow(cfg.method, param, noise, seed, *stats, cfg.rollouts)
                except Exception as e:  # per-cell failures stay in the row
                    row = MetricsRow(
                        cfg.method, param, noise, seed, *(0.0,) * 6, rollouts=0,
                        error=f"{type(e).__name__}: {e}",
                    )
                rows.append(row)
    return rows


def sweep_config_from_document(doc: dict) -> SweepConfig:
    """The sweep a config document describes; its keys are ``SweepConfig``'s
    fields. A missing or unknown key raises ValueError."""
    try:
        return SweepConfig(**doc)
    except TypeError as e:
        raise ValueError(f"bad sweep config: {e}") from e
