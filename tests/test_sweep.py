"""How much work a sweep does: one game per sweep, one plan per beta."""

import functools

import pytest

from trajcomm import envs, sweep
from trajcomm.sweep import SweepConfig, run_sweep


def _counted(monkeypatch, module, name):
    """Wrap ``module.name`` so that each call appends its arguments to the
    returned list."""
    calls, original = [], getattr(module, name)

    @functools.wraps(original)
    def wrapped(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapped)
    return calls


class TestSweepBuildsOnce:
    def test_a_meme_sweep_builds_once_and_plans_each_beta_once(self, monkeypatch):
        builds = _counted(monkeypatch, envs, "build_codegrid")
        plans = _counted(monkeypatch, sweep, "exact_soft_vi")
        cfg = SweepConfig(
            env="codegrid", env_params={"n_messages": 4}, method="meme",
            grid=(0.5, 1.0, 7.0), seeds=(0, 1), noise_p=(0.0, 0.2), rollouts=2,
        )
        rows = run_sweep(cfg)
        assert len(rows) == 12 and not any(r.error for r in rows)
        assert len(builds) == 1
        assert [kwargs["alpha"] for _, kwargs in plans] == [2.0, 1.0, 1 / 7.0]

    def test_an_rl_pr_sweep_builds_once(self, monkeypatch):
        builds = _counted(monkeypatch, envs, "build_codegrid")
        cfg = SweepConfig(
            env="codegrid", env_params={"n_messages": 4}, method="rl_pr",
            grid=(0.3, 3.0), seeds=(0, 1), noise_p=(0.0, 0.2), episodes=20, rollouts=2,
        )
        rows = run_sweep(cfg)
        assert len(rows) == 8 and not any(r.error for r in rows)
        assert len(builds) == 1

    def test_a_refused_beta_is_an_error_row_in_every_cell(self):
        cfg = SweepConfig(
            env="codegrid", env_params={"n_messages": 4}, method="meme",
            grid=(0.0, 1.0), seeds=(0, 1), noise_p=(0.0, 0.2), rollouts=2,
        )
        rows = run_sweep(cfg)
        assert [r.error for r in rows[:4]] == [
            "ValueError: beta must be positive and finite, got 0.0"
        ] * 4
        assert all(r.rollouts == 0 for r in rows[:4])
        assert [(r.error, r.rollouts) for r in rows[4:]] == [("", 2)] * 4

    def test_a_beta_refused_in_planning_is_planned_again_in_every_cell(self, monkeypatch):
        # The plan of a refused beta is not kept: each of its cells plans,
        # is refused and names beta, while beta = 1 plans once.
        plans = _counted(monkeypatch, sweep, "exact_soft_vi")
        cfg = SweepConfig(
            env="toy", method="meme", grid=(1e308, 1.0), seeds=(0, 1),
            noise_p=(0.0, 0.1), rollouts=2,
        )
        rows = run_sweep(cfg)
        assert [r.error for r in rows] == [
            "ValueError: beta must keep Q / alpha finite, got 1e+308"
        ] * 4 + [""] * 4
        assert len(plans) == 5

    @pytest.mark.parametrize("method", ["meme", "rl_pr"])
    def test_a_game_its_builder_refuses_raises_before_any_cell(self, monkeypatch, method):
        plans = _counted(monkeypatch, sweep, "exact_soft_vi")
        trainings = _counted(monkeypatch, sweep, "train_rl_pr")
        cfg = SweepConfig(
            env="chain", env_params={"steps": 3, "rewards": {"7": 1.0}}, method=method,
            grid=(1.0, 2.0), seeds=(0,), noise_p=(0.0, 0.1), episodes=10, rollouts=2,
        )
        with pytest.raises(ValueError, match=r"^'rewards' keys must be steps in \[0, 3\), not 7$"):
            run_sweep(cfg)
        assert plans == [] and trainings == []
