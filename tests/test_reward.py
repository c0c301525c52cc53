import math

import pytest

from explorebench.reward import (DegenerateDistanceError, RewardConfig,
                                 StepObservation, compute_reward, reward_terms)

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
        with pytest.raises(DegenerateDistanceError):
            compute_reward(obs(d_init=0.6, d_now=0.4), CFG_LITERAL)

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
