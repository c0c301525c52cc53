"""Step reward for a goal-seeking local navigator, as a pure function.

Penalizes heading error, angular effort, and obstacle proximity, pays a
distance-progress term plus a large terminal bonus near the goal, and
subtracts a large penalty inside the collision band. The linear-speed
penalty is computed but excluded from the sum by default; include_r_linear
folds it in. Two readings of the distance term are selectable because its
published typesetting is ambiguous; see RewardConfig.distance_term_form.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields

DISTANCE_FORMS = ("paren_minus_one", "literal")


class DegenerateDistanceError(ZeroDivisionError):
    pass


class NonFiniteRewardError(ValueError):
    pass


@dataclass(frozen=True)
class StepObservation:
    """One control step as seen by the reward."""

    lidar_min: float        # smallest beam range this step, meters
    d_goal_init: float      # goal distance when the goal was issued, meters
    d_goal_now: float       # current goal distance, meters
    goal_angle: float       # signed heading error toward the goal, radians
    action_linear: float    # commanded linear speed, m/s
    action_angular: float   # commanded angular speed, rad/s

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            # A boolean is an int, but no number of meters or radians.
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"{f.name} must be a number, got {value!r}")
            # False for NaN, the infinities, and integers past every float.
            if not abs(value) <= sys.float_info.max:
                raise ValueError(f"{f.name} must be finite, got {value}")
            # An integer reads as its float, so the terms are float arithmetic.
            object.__setattr__(self, f.name, float(value))
        if self.lidar_min < 0.0:
            raise ValueError(f"lidar_min must be >= 0, got {self.lidar_min}")
        if self.d_goal_init <= 0.0:
            raise ValueError(f"d_goal_init must be > 0, got {self.d_goal_init}")
        if self.d_goal_now < 0.0:
            raise ValueError(f"d_goal_now must be >= 0, got {self.d_goal_now}")


@dataclass(frozen=True)
class RewardConfig:
    max_linear: float = 0.26          # platform top speed, m/s
    collision_threshold: float = 0.2  # T_c, meters
    goal_threshold: float = 0.3       # T_g, meters
    include_r_linear: bool = False
    distance_term_form: str = "paren_minus_one"

    def __post_init__(self):
        if not (self.max_linear > 0.0):
            raise ValueError(f"max_linear must be > 0, got {self.max_linear}")
        if not (self.collision_threshold > 0.0):
            raise ValueError(f"collision_threshold must be > 0, got {self.collision_threshold}")
        if not (self.goal_threshold > 0.0):
            raise ValueError(f"goal_threshold must be > 0, got {self.goal_threshold}")
        if self.distance_term_form not in DISTANCE_FORMS:
            raise ValueError(
                f"distance_term_form must be one of {DISTANCE_FORMS}, "
                f"got {self.distance_term_form!r}"
            )


def reward_terms(obs: StepObservation, cfg: RewardConfig) -> dict[str, float]:
    """Every individual term, keyed by name (r_linear always computed), and
    the total step reward under "reward".

    reward = r_yaw + r_angular + r_distance + r_obstacle (r_linear only when
    include_r_linear), then +5000 once within goal_threshold and -2000 once
    lidar_min drops below collision_threshold. NonFiniteRewardError names
    the first term, or the total, that is not finite.
    """
    r_yaw = -abs(obs.goal_angle)
    # x * x, not x ** 2: it gives inf where ** raises OverflowError.
    lin = (cfg.max_linear - obs.action_linear) * 10.0
    r_linear = -(lin * lin)
    r_angular = -(obs.action_angular * obs.action_angular)
    if cfg.distance_term_form == "paren_minus_one":
        # Positive: d_goal_init > 0 and d_goal_now >= 0.
        r_distance = 2.0 * obs.d_goal_init / (obs.d_goal_init + obs.d_goal_now) - 1.0
    else:
        denom = obs.d_goal_init + obs.d_goal_now - 1.0
        if denom == 0.0:
            raise DegenerateDistanceError("d_goal_init + d_goal_now - 1 is zero")
        r_distance = 2.0 * obs.d_goal_init / denom
    r_obstacle = -50.0 if obs.lidar_min < 1.5 * cfg.collision_threshold else 0.0
    total = r_yaw + r_angular + r_distance + r_obstacle
    if cfg.include_r_linear:
        total += r_linear
    if obs.d_goal_now < cfg.goal_threshold:
        total += 5000.0
    if obs.lidar_min < cfg.collision_threshold:
        total -= 2000.0
    terms = {
        "r_yaw": r_yaw,
        "r_linear": r_linear,
        "r_angular": r_angular,
        "r_distance": r_distance,
        "r_obstacle": r_obstacle,
        "reward": total,
    }
    for name, value in terms.items():
        if not math.isfinite(value):
            raise NonFiniteRewardError(f"{name} is not finite: {value}")
    return terms


def compute_reward(obs: StepObservation, cfg: RewardConfig) -> float:
    """Total step reward: reward_terms' "reward"."""
    return reward_terms(obs, cfg)["reward"]
