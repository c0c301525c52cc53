import contextlib
import io
import json
import math
import os
import tempfile
import warnings
from dataclasses import asdict, fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import floats
from explorebench.cli import main
from explorebench.reward import (DISTANCE_FORMS, RewardConfig, StepObservation,
                                 compute_reward, reward_terms)

CFG = RewardConfig()  # T_c=0.2, T_g=0.3, M_linear=0.26, paren form
CFG_LITERAL = RewardConfig(distance_term_form="literal")


def obs(lidar_min=10.0, d_init=5.0, d_now=5.0, angle=0.0, lin=0.26, ang=0.0):
    return StepObservation(lidar_min=lidar_min, d_goal_init=d_init,
                           d_goal_now=d_now, goal_angle=angle,
                           action_linear=lin, action_angular=ang)


class TestComputeReward:
    def test_neutral_step_is_zero(self):
        assert compute_reward(obs(), CFG) == 0.0

    def test_goal_reached_bonus(self):
        # r_distance = 2d/(d+0) - 1 = 1, then +5000 inside the goal band.
        assert compute_reward(obs(d_now=0.0), CFG) == 5001.0

    def test_double_obstacle_penalty(self):
        assert compute_reward(obs(lidar_min=0.0), CFG) == -2050.0

    def test_literal_form_examples(self):
        # Same three inputs under the literal denominator reading.
        assert compute_reward(obs(), CFG_LITERAL) == pytest.approx(2 * 5 / 9)
        assert compute_reward(obs(d_now=0.0), CFG_LITERAL) == pytest.approx(
            2 * 5 / 4 + 5000)
        assert compute_reward(obs(lidar_min=0.0), CFG_LITERAL) == pytest.approx(
            2 * 5 / 9 - 2050)

    def test_r_linear_excluded_by_default(self):
        slow = obs(lin=0.0)
        assert compute_reward(slow, CFG) == 0.0
        with_linear = RewardConfig(include_r_linear=True)
        assert compute_reward(slow, with_linear) == -(0.26 * 10) ** 2

    def test_terms_breakdown(self):
        o = obs(lidar_min=0.25, d_now=2.5, angle=-0.3, lin=0.2, ang=0.5)
        terms = reward_terms(o, CFG)
        assert terms["r_yaw"] == -0.3
        assert terms["r_linear"] == pytest.approx(-((0.26 - 0.2) * 10) ** 2)
        assert terms["r_angular"] == -0.25
        assert terms["r_distance"] == pytest.approx(2 * 5 / 7.5 - 1)
        assert terms["r_obstacle"] == -50.0
        total = compute_reward(o, CFG)
        assert total == pytest.approx(
            terms["r_yaw"] + terms["r_angular"] + terms["r_distance"]
            + terms["r_obstacle"])

    def test_obstacle_threshold_steps(self):
        eps = 1e-9
        base = compute_reward(obs(lidar_min=1.5 * CFG.collision_threshold), CFG)
        near = compute_reward(obs(lidar_min=1.5 * CFG.collision_threshold - eps), CFG)
        assert base - near == 50.0
        collide = compute_reward(obs(lidar_min=CFG.collision_threshold - eps), CFG)
        assert near - collide == 2000.0

    @pytest.mark.parametrize("cfg", [CFG, CFG_LITERAL])
    def test_weakly_decreasing_in_heading_and_angular(self, cfg, rng):
        for _ in range(200):
            base = obs(lidar_min=float(rng.uniform(0, 2)),
                       d_init=float(rng.uniform(0.5, 10)),
                       d_now=float(rng.uniform(0, 10)),
                       lin=float(rng.uniform(0, 0.26)))
            angles = sorted(rng.uniform(0, math.pi, size=4))
            rewards = [compute_reward(
                obs(base.lidar_min, base.d_goal_init, base.d_goal_now,
                    a, base.action_linear, 0.0), cfg) for a in angles]
            assert all(x >= y for x, y in zip(rewards, rewards[1:]))
            spins = sorted(rng.uniform(0, 3, size=4))
            rewards = [compute_reward(
                obs(base.lidar_min, base.d_goal_init, base.d_goal_now,
                    0.0, base.action_linear, w), cfg) for w in spins]
            assert all(x >= y for x, y in zip(rewards, rewards[1:]))

    def test_distance_term_bounds_default_form(self, rng):
        for _ in range(200):
            d_init = float(rng.uniform(0.1, 20))
            d_now = float(rng.uniform(0, 40))
            r = reward_terms(obs(d_init=d_init, d_now=d_now), CFG)["r_distance"]
            assert -1.0 < r <= 1.0
        assert reward_terms(obs(d_now=0.0), CFG)["r_distance"] == 1.0
        assert reward_terms(obs(d_init=3.0, d_now=3.0), CFG)["r_distance"] == 0.0

    def test_literal_form_degenerate_denominator(self):
        with pytest.raises(ZeroDivisionError, match="d_goal_init \\+ d_goal_now - 1 is zero"):
            compute_reward(obs(d_init=0.6, d_now=0.4), CFG_LITERAL)

    def test_non_finite_total_rejected(self):
        # Two finite squares whose sum overflows.
        o = obs(lin=-1.2e153, ang=1.2e154)
        assert all(math.isfinite(v) for v in reward_terms(o, CFG).values())
        with pytest.raises(ValueError, match="reward is not finite"):
            compute_reward(o, RewardConfig(include_r_linear=True))
        with pytest.raises(ValueError, match="reward is not finite"):
            reward_terms(o, RewardConfig(include_r_linear=True))

    def test_pure_function(self):
        o = obs(lidar_min=0.1, d_now=1.0, angle=0.2, ang=-0.4)
        assert compute_reward(o, CFG) == compute_reward(o, CFG)


class TestValidation:
    def test_observation_invariants(self):
        with pytest.raises(ValueError):
            obs(lidar_min=-0.1)
        with pytest.raises(ValueError):
            obs(d_init=0.0)
        with pytest.raises(ValueError):
            obs(d_now=-1.0)

    @pytest.mark.parametrize("field", ["lidar_min", "d_init", "d_now", "angle",
                                       "lin", "ang"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_observation_rejected(self, field, value):
        with pytest.raises(ValueError, match="must be finite"):
            obs(**{field: value})

    @pytest.mark.parametrize("field", [f.name for f in fields(StepObservation)])
    @pytest.mark.parametrize("value", [True, False, "10", None],
                             ids=["true", "false", "str", "none"])
    def test_non_number_observation_rejected(self, field, value):
        # A boolean read as 1 or 0; a string or None died in abs(), unnamed.
        with pytest.raises(ValueError, match=f"^{field} must be a number, got "):
            StepObservation(**{**asdict(obs()), field: value})

    def test_config_invariants(self):
        with pytest.raises(ValueError):
            RewardConfig(max_linear=0.0)
        with pytest.raises(ValueError):
            RewardConfig(collision_threshold=-1.0)
        with pytest.raises(ValueError):
            RewardConfig(distance_term_form="nonsense")

    @pytest.mark.parametrize("field", ["max_linear", "collision_threshold",
                                       "goal_threshold"])
    def test_nan_config_rejected(self, field):
        # A NaN threshold compares False with every distance, so a step at
        # the goal would earn no goal bonus.
        with pytest.raises(ValueError):
            RewardConfig(**{field: math.nan})


# Every field of both, each with the signs and the zero its validation allows.
OBSERVATIONS = st.fixed_dictionaries({
    "lidar_min": floats(zero=True), "d_goal_init": floats(),
    "d_goal_now": floats(zero=True), "goal_angle": floats(sign=True, zero=True),
    "action_linear": floats(sign=True, zero=True),
    "action_angular": floats(sign=True, zero=True)})
CONFIGS = st.fixed_dictionaries({
    "max_linear": floats(), "collision_threshold": floats(), "goal_threshold": floats(),
    "include_r_linear": st.booleans(), "distance_term_form": st.sampled_from(DISTANCE_FORMS)})


class TestFiniteOrTypedError:
    """Whatever valid inputs it gets, the reward either raises ValueError or
    ZeroDivisionError, or gives terms and a total that are all finite."""

    # Warnings are errors inside each example only: on a failure, hypothesis
    # imports modules of its own that warn while it explains the example.
    @settings(max_examples=400, deadline=None)
    @given(OBSERVATIONS, CONFIGS)
    def test_reward(self, observation, config):
        o, cfg = StepObservation(**observation), RewardConfig(**config)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                terms, total = reward_terms(o, cfg), compute_reward(o, cfg)
        except (ValueError, ZeroDivisionError):
            return
        assert all(math.isfinite(v) for v in terms.values()) and math.isfinite(total)
        assert total == terms["reward"]

    @settings(max_examples=100, deadline=None)
    @given(OBSERVATIONS, CONFIGS)
    def test_cli(self, observation, config):
        # Exit 0 with one CSV row of finite values, or exit 1 naming line 1.
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            cfg_path, obs_path = os.path.join(tmp, "reward.cfg"), os.path.join(tmp, "obs.jsonl")
            with open(cfg_path, "w") as f:
                f.write("[reward]\n" + "".join(f"{k} = {v}\n" for k, v in config.items()))
            with open(obs_path, "w") as f:
                f.write(json.dumps(observation) + "\n")
            with (contextlib.redirect_stdout(out), contextlib.redirect_stderr(err),
                  warnings.catch_warnings()):
                warnings.simplefilter("error")
                rc = main(["reward", "--config", cfg_path, "--input", obs_path])
        if rc == 1:
            assert err.getvalue().startswith("error: line 1: "), err.getvalue()
            return
        assert rc == 0, err.getvalue()
        header, row = out.getvalue().splitlines()
        assert all(math.isfinite(float(v)) for v in row.split(","))
