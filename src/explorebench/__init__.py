"""Deterministic frontier-exploration simulator and selector benchmark."""

from .frontier import FrontierSegment, cluster_segments, detect_frontiers
from .gridmap import (COST_INSCRIBED, COST_LETHAL, COST_UNKNOWN, FREE, OCCUPIED,
                      UNKNOWN, InflationParams, InvalidRadiiError, LidarModel,
                      MalformedMapError, MapError, OccupancyGrid, Pose,
                      PoseInsideObstacleError, PoseOutOfBoundsError,
                      StartUnreachableError, ZeroResolutionError,
                      exploration_rate, inflate, load_belief, load_map,
                      load_map_file, raycast_reveal, reachable_free_mask,
                      remap_costs, to_ascii, wrap_angle)
from .navigator import KinematicState, NoPathError, PlannedPath, advance, plan_path
from .reward import (DegenerateDistanceError, RewardConfig, StepObservation,
                     compute_reward, reward_terms)
from .scoring import (HeuristicParams, InputOutOfRangeError, NegativeDistanceError,
                      NoFrontiersError, ScoreBreakdown, distance_score, heuristic,
                      occupancy_score, score_segments)
from .explorer import (OUTCOME_COMPLETE, OUTCOME_STALLED, OUTCOME_TICK_LIMIT,
                       Decision, RunLimits, RunRecord, RunResult, SelectorKind,
                       aggregate_results, rank_segments, run_exploration)
from .mapgen import TIERS, generate_map, pick_start

__version__ = "0.1.0"
