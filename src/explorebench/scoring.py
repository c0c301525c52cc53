"""Waypoint scoring: distance score, occupancy score, and their blend.

The distance score squashes robot-to-centroid distance into [0, 1) with
three regimes: a short-range region pinned near 0 (nearby candidates are
not penalized against each other), a rising mid band, and saturation near
1 for far candidates. alpha positions the rise, beta sets its steepness.

The occupancy score averages remapped costmap values over the disk that
encloses a segment and discounts long frontiers through a hyperbolic
secant of their length. Unknown-dominated disks score near 0, open or
wall-adjacent disks score high.

The combined score is the convex blend h = D * gamma + O * (1 - gamma).
explorer.rank_segments orders segments by it; the next waypoint is the
segment minimizing h.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .frontier import FrontierSegment
from .gridmap import REMAPPED, OccupancyGrid, Pose

_ONE_BELOW_1 = float(np.nextafter(1.0, 0.0))
# Every exponent of the distance score is capped here, so scores stay finite
# and bit-stable; e**30 is already deep in the saturated tail.
_EXP_ARG_CAP = 30.0


@dataclass(frozen=True)
class HeuristicParams:
    """Tuning knobs for the waypoint scores.

    alpha, beta are in meters and must be positive. gamma weights the
    distance score against the occupancy score and is capped at 1/2.
    af_scale converts frontier length to the dimensionless argument of
    sech.
    """

    alpha: float = 3.0
    beta: float = 5.0
    gamma: float = 0.5
    af_scale: float = 1.0

    def __post_init__(self):
        if not (self.alpha > 0.0):
            raise ValueError(f"alpha must be > 0, got {self.alpha}")
        if not (self.beta > 0.0):
            raise ValueError(f"beta must be > 0, got {self.beta}")
        if not (0.0 <= self.gamma <= 0.5):
            raise ValueError(f"gamma must lie in [0, 0.5], got {self.gamma}")
        if not (self.af_scale > 0.0):
            raise ValueError(f"af_scale must be > 0, got {self.af_scale}")


@dataclass(frozen=True)
class ScoreBreakdown:
    """Per-segment scores kept for logging and the CLI score table."""

    segment_id: int
    d: float
    D: float
    O: float
    h: float


def _sigmoid(z: float) -> float:
    if z >= 0.0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def _csch(x: float) -> float:
    # sinh overflows past ~710; csch is then zero to double precision.
    if x > 709.0:
        return 0.0
    return 1.0 / math.sinh(x)


def _sech(x: float) -> float:
    if x > 709.0:
        return 0.0
    return 1.0 / math.cosh(x)


def distance_score(d: float, params: HeuristicParams) -> float:
    """Squash a robot-to-centroid distance into [0, 1).

    D = tanh(E * sigmoid(E * (1 - csch(d / alpha)))) with E = exp(d / beta).
    D(0) is 0 by continuity (csch diverges, driving the sigmoid to zero),
    and so is D of a d whose d / alpha underflows. Exponent arguments are
    capped at 30 and the sigmoid argument at 30**2, so the score is finite
    for any finite distance; the output is clamped one ulp below 1 to keep
    the range open.
    """
    if not (d >= 0.0):
        raise ValueError(f"distance must be >= 0, got {d}")
    if d / params.alpha == 0.0:
        return 0.0
    cap = _EXP_ARG_CAP
    big_e = math.exp(min(d / params.beta, cap))
    inner = big_e * (1.0 - _csch(d / params.alpha))
    inner = max(-cap * cap, min(cap * cap, inner))
    score = math.tanh(big_e * _sigmoid(inner))
    return min(score, _ONE_BELOW_1)


def occupancy_scores(segments: list[FrontierSegment], belief: OccupancyGrid,
                     params: HeuristicParams) -> list[float]:
    """Every segment's O from one gather: the mean remapped cost over the
    in-bounds cells whose centers lie within radius_r of the centroid
    (radius_r clamped up to one resolution, so the disk holds the centroid
    cell; an empty disk scores 0), times sech of the scaled frontier length.

    The segments' boxes of candidate cells are laid end to end, each row by
    row; one in-disk test and one REMAPPED lookup read every disk, and each
    O sums its own slice pairwise, as np.mean does.
    """
    res = belief.resolution
    geo = np.array([(seg.radius_r, *seg.centroid) for seg in segments]).reshape(-1, 3).T
    r, xy = np.maximum(geo[0], res), geo[1:]
    # Each disk's box of candidate cells, clipped to the grid.
    lo = np.maximum(0, np.floor((xy - r) / res - 0.5))
    hi = np.minimum([[belief.width - 1], [belief.height - 1]], np.ceil((xy + r) / res - 0.5))
    (i_lo, j_lo), (w, h) = lo.astype(np.intp), np.maximum(hi - lo + 1, 0).astype(np.intp)
    n = w * h
    owner = np.repeat(np.arange(len(segments)), n)
    dj, di = np.divmod(np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n), w[owner])
    i, j = di + i_lo[owner], dj + j_lo[owner]
    cx, cy = belief.cell_center(i, j)
    in_disk = (cx - xy[0, owner]) ** 2 + (cy - xy[1, owner]) ** 2 <= (r * r)[owner]
    vals = REMAPPED[belief.costs[j[in_disk], i[in_disk]]]
    ends = np.cumsum(np.bincount(owner[in_disk], minlength=len(segments))).tolist()
    return [float(np.add.reduce(vals[a:b])) / (b - a) * _sech(params.af_scale * seg.length_af)
            if b > a else 0.0 for seg, a, b in zip(segments, [0] + ends, ends)]


def heuristic(D: float, O: float, params: HeuristicParams) -> float:
    """Convex blend of the two scores: D * gamma + O * (1 - gamma)."""
    if not (0.0 <= D <= 1.0) or not (0.0 <= O <= 1.0):
        raise ValueError(f"scores must lie in [0, 1], got D={D}, O={O}")
    return D * params.gamma + O * (1.0 - params.gamma)


def score_segments(segments: list[FrontierSegment], robot: Pose,
                   belief: OccupancyGrid,
                   params: HeuristicParams) -> list[ScoreBreakdown]:
    """Score every segment against the robot pose, every O from one gather."""
    breakdowns = []
    for idx, (seg, O) in enumerate(zip(segments, occupancy_scores(segments, belief, params))):
        d = math.hypot(robot.x - seg.centroid[0], robot.y - seg.centroid[1])
        D = distance_score(d, params)
        breakdowns.append(ScoreBreakdown(idx, d, D, O, heuristic(D, O, params)))
    return breakdowns
