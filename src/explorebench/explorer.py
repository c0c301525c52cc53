"""The closed exploration loop, frontier ranking, and run aggregation.

Each tick reveals the world through the simulated scanner, samples the
coverage metric, and advances the robot along its current path. Waypoint
selection is event driven: the loop re-scores frontiers only when the
current path is consumed, invalidated by newly revealed obstacles, or its
target segment no longer borders Unknown space. Runs are pure functions
of their inputs; repeated runs produce identical records. The run
matrix over maps, seeds and selectors lives in cli.run_all.

Runs advance in lockstep: each run is a stepper (a generator) that stops
before every reveal. Per round, explore_lockstep makes one batched scan
(gridmap.BeamScanner, one buffer slot per run) that culls, marches and
filters the beams of all live runs and stamps a cached inflation kernel
at every run's new cells. A run's belief is its slot, so the scan has
written the reveal; the run then decides, plans and steps alone. After a
reveal that changed nothing, the coverage, the target and the path's
validity are as they were; after any other, only the target's own cells
are checked. Only a decision lists the frontier cells. The batch shares a
reveal's fixed cost of numpy calls; a run's record does not depend on its
batch. run_exploration is a batch of one.
"""

from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .frontier import FrontierSegment, cluster_segments, detect_frontiers
from .gridmap import (COST_INSCRIBED, FREE, UNKNOWN, BeamScanner, LidarModel,
                      OccupancyGrid, Pose, exploration_rate, raycast_reveal,
                      reachable_free_mask)
from .gridmap import to_ascii as _grid_ascii
from .navigator import KinematicState, NoPathError, plan_path
from .navigator import advance as kin_advance
from .scoring import HeuristicParams, ScoreBreakdown, score_segments

SELECTOR_KINDS = ("heuristic", "nearest", "largest", "random")

OUTCOME_COMPLETE = "complete"
OUTCOME_STALLED = "stalled"
OUTCOME_TICK_LIMIT = "tick_limit"


@dataclass(frozen=True)
class SelectorKind:
    """Which waypoint policy a run uses; only random carries a seed."""

    kind: str
    seed: int | None = None

    def __post_init__(self):
        if self.kind not in SELECTOR_KINDS:
            raise ValueError(f"kind must be one of {SELECTOR_KINDS}, got {self.kind!r}")
        if self.kind == "random" and self.seed is None:
            raise ValueError("random selector needs an explicit seed")
        if self.kind != "random" and self.seed is not None:
            raise ValueError(f"{self.kind} selector takes no seed")

    @classmethod
    def parse(cls, text: str) -> "SelectorKind":
        """Parse 'heuristic' or 'random:123' style selector specs."""
        if ":" in text:
            kind, seed = text.split(":", 1)
            return cls(kind.strip(), int(seed))
        return cls(text.strip())

    def label(self) -> str:
        return self.kind if self.seed is None else f"{self.kind}:{self.seed}"


@dataclass(frozen=True)
class RunLimits:
    max_ticks: int = 4000
    expr_target: float = 0.99

    def __post_init__(self):
        if self.max_ticks < 1:
            raise ValueError("max_ticks must be >= 1")
        if not (0.0 < self.expr_target <= 1.0):
            raise ValueError("expr_target must lie in (0, 1]")


@dataclass
class Decision:
    tick: int
    chosen: int
    target: tuple[float, float]
    scores: list[ScoreBreakdown]


@dataclass
class RunRecord:
    """Full trace of one exploration run."""

    selector: SelectorKind
    params: HeuristicParams
    start: Pose
    outcome: str = OUTCOME_TICK_LIMIT
    samples: list[tuple[float, float, float, float, float, float]] = field(
        default_factory=list
    )  # (t, x, y, theta, cumulative_distance, exploration_rate)
    decisions: list[Decision] = field(default_factory=list)
    final_belief: OccupancyGrid | None = None

    @property
    def total_distance(self) -> float:
        return self.samples[-1][4] if self.samples else 0.0

    @property
    def total_time(self) -> float:
        return self.samples[-1][0] if self.samples else 0.0

    @property
    def final_rate(self) -> float:
        return self.samples[-1][5] if self.samples else 0.0

    def to_json(self) -> dict:
        return {
            "selector": self.selector.label(),
            "params": asdict(self.params),
            "start": asdict(self.start),
            "outcome": self.outcome,
            "totals": {
                "distance": self.total_distance,
                "time": self.total_time,
                "exploration_rate": self.final_rate,
                "ticks": len(self.samples) - 1 if self.samples else 0,
            },
            "samples": [list(s) for s in self.samples],
            "decisions": [asdict(d) for d in self.decisions],
            "final_belief": (None if self.final_belief is None
                             else _grid_ascii(self.final_belief)),
        }


def rank_segments(selector: SelectorKind, segments: list[FrontierSegment],
                  robot: Pose, belief: OccupancyGrid, params: HeuristicParams,
                  ) -> tuple[list[int], list[ScoreBreakdown]]:
    """Order segment indices by the selector's preference (best first).

    heuristic ranks by ascending combined score h, nearest by distance d,
    largest by descending frontier length; ties break toward the smaller
    distance, then (the sort is stable) toward the earlier segment. random
    is a shuffle seeded by the selector seed, the segment count and the
    robot cell. Score breakdowns are computed for every policy so run logs
    stay comparable across selectors; only the heuristic policy ranks by
    them. Raises ValueError on an empty list.
    """
    if not segments:
        raise ValueError("no frontier segments to select from")
    breakdowns = score_segments(segments, robot, belief, params)
    if selector.kind == "heuristic":
        order = sorted(breakdowns, key=lambda b: (b.h, b.d))
    elif selector.kind == "nearest":
        order = sorted(breakdowns, key=lambda b: b.d)
    elif selector.kind == "largest":
        order = sorted(breakdowns, key=lambda b: (-segments[b.segment_id].length_af, b.d))
    else:
        ci, cj = belief.world_to_cell(robot.x, robot.y)
        rng = random.Random(f"{selector.seed}:{len(segments)}:{ci}:{cj}")
        return rng.sample(range(len(segments)), len(segments)), breakdowns
    return [b.segment_id for b in order], breakdowns


def _path_cells_valid(belief, waypoints, robot_cell):
    cells = {belief.world_to_cell(x, y) for x, y in waypoints} - {robot_cell}
    return all(belief.states[j, i] == FREE and belief.costs[j, i] < COST_INSCRIBED
               for i, j in cells)


def _target_alive(belief, cells):
    """Whether the frontier still lists one of a target's (i, j) cells:
    they were Free when chosen and known cells never change, so whether one
    has an Unknown 4-neighbour on the grid."""
    s, w, h = belief.states, belief.width, belief.height
    for i, j in cells.tolist():
        if (i + 1 < w and s[j, i + 1] == UNKNOWN or i > 0 and s[j, i - 1] == UNKNOWN
                or j + 1 < h and s[j + 1, i] == UNKNOWN or j > 0 and s[j - 1, i] == UNKNOWN):
            return True
    return False


def _explore(truth: OccupancyGrid, belief: OccupancyGrid, start: Pose,
             selector: SelectorKind, params: HeuristicParams, kin: KinematicState,
             limits: RunLimits, min_segment_size: int,
             cost_weight: float, goal_relax_radius: int):
    """One run as a stepper on its belief, a BeamScanner slot: yields its
    pose before each reveal, is sent the cells that the batched scan made
    known there, and returns the record with a copy of the final belief."""
    reachable = reachable_free_mask(truth, start)
    pose = Pose(start.x, start.y, start.theta)
    record = RunRecord(selector=selector, params=params,
                       start=Pose(start.x, start.y, start.theta))

    rate = cumdist = 0.0  # no cell is known yet; only a change moves the rate
    waypoints: list[tuple[float, float]] = []
    no_progress = 0
    # Enough ticks for a half turn in place, the most that turning toward
    # any waypoint takes, plus slack.
    stuck_limit = int(math.pi / (kin.w_max * kin.dt)) + 8

    for tick in range(limits.max_ticks + 1):
        cells = yield pose
        if changed := raycast_reveal(belief, cells).size:
            rate = exploration_rate(belief, reachable)
        record.samples.append((tick * kin.dt, pose.x, pose.y, pose.theta, cumdist, rate))
        if rate >= limits.expr_target:
            record.outcome = OUTCOME_COMPLETE
            break
        if tick == limits.max_ticks:
            break

        # After a reveal that changed nothing the target is still alive, and
        # the path needs a check only off the cell the last check exempted.
        robot_cell = belief.world_to_cell(pose.x, pose.y)
        if waypoints:
            if (no_progress >= stuck_limit
                    or changed and not _target_alive(belief, target_cells)
                    or (changed or robot_cell != checked)
                    and not _path_cells_valid(belief, waypoints, robot_cell)):
                waypoints = []
                no_progress = 0
            checked = robot_cell

        if not waypoints:
            segments = cluster_segments(detect_frontiers(belief), belief, min_segment_size)
            if not segments:
                record.outcome = OUTCOME_COMPLETE
                break
            ranked, breakdowns = rank_segments(selector, segments, pose, belief, params)
            for chosen in ranked:
                try:
                    path = plan_path(belief, pose, segments[chosen].centroid,
                                     cost_weight, goal_relax_radius)
                except NoPathError:
                    continue
                # One waypoint: at the relaxed goal, whose frontier is unseen from here.
                if len(path.waypoints) > 1:
                    waypoints = list(path.waypoints)
                    break
            else:
                record.outcome = OUTCOME_STALLED
                break
            seg = segments[chosen]
            target_cells, checked = seg.cells, None
            # The step below lands at tick + 1, the decision's tick.
            record.decisions.append(Decision(tick + 1, chosen, seg.centroid, breakdowns))

        moved = kin_advance(pose, kin, waypoints, belief)
        cumdist += moved
        no_progress = 0 if moved > 0.0 else no_progress + 1
    record.final_belief = replace(belief, states=belief.states.copy(), costs=belief.costs.copy())
    return record


def explore_lockstep(runs: list[tuple[OccupancyGrid, Pose, SelectorKind]],
                     params: HeuristicParams, lidar: LidarModel,
                     kin: KinematicState, limits: RunLimits, min_segment_size: int,
                     cost_weight: float, goal_relax_radius: int) -> list[RunRecord]:
    """Explore each (truth, start, selector) run; records in input order.

    The runs advance in lockstep: each round makes one batched scan for
    every live run, and each run then steps to its next reveal with the
    cells it revealed. A run's record does not depend on the runs beside it.
    """
    scanner = BeamScanner([truth for truth, _, _ in runs], lidar)
    steppers = [_explore(truth, belief, start, selector, params, kin, limits,
                         min_segment_size, cost_weight, goal_relax_radius)
                for (truth, start, selector), belief in zip(runs, scanner.grids)]
    records: list[RunRecord] = [None] * len(runs)
    live = {k: next(stepper) for k, stepper in enumerate(steppers)}
    while live:
        for k, cells in zip(list(live), scanner.scan(list(live.items()))):
            try:
                live[k] = steppers[k].send(cells)
            except StopIteration as done:
                records[k] = done.value
                del live[k]
    return records


def run_exploration(truth: OccupancyGrid, start: Pose, selector: SelectorKind,
                    params: HeuristicParams, lidar: LidarModel,
                    kin: KinematicState, limits: RunLimits,
                    min_segment_size: int, cost_weight: float,
                    goal_relax_radius: int) -> RunRecord:
    """Explore the truth map from start until done, stalled, or out of ticks."""
    return explore_lockstep([(truth, start, selector)], params, lidar, kin, limits,
                            min_segment_size, cost_weight, goal_relax_radius)[0]


# ---------------------------------------------------------------------------
# Run results and aggregation
# ---------------------------------------------------------------------------

@dataclass
class RunResult:
    map_name: str
    selector: SelectorKind
    seed: int
    start: Pose
    record: RunRecord


def aggregate_results(results: list[RunResult],
                      by_map: bool = True) -> list[dict]:
    """Table III style statistics per selector (optionally per map)."""
    groups: dict[tuple, list[RunResult]] = {}
    for r in results:
        key = (r.map_name, r.selector.label()) if by_map else (r.selector.label(),)
        groups.setdefault(key, []).append(r)

    rows = []
    for key in sorted(groups):
        runs = groups[key]
        row = {
            "map": key[0] if by_map else "all",
            "selector": key[-1],
            "runs": len(runs),
            "complete": sum(1 for r in runs if r.record.outcome == OUTCOME_COMPLETE),
        }
        for metric, attr in (("dist", "total_distance"), ("time", "total_time"),
                             ("expr", "final_rate")):
            arr = np.array([getattr(r.record, attr) for r in runs], dtype=np.float64)
            for stat in ("mean", "min", "max", "std"):
                row[f"{metric}_{stat}"] = float(getattr(arr, stat)())
        rows.append(row)
    return rows
