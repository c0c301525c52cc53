"""Deterministic local navigation: cost-aware A* plus a simple follower.

Planning runs on the belief grid. Traversable cells are known Free with a
cost below the inscribed band; Unknown is not traversable, so routes stay
inside mapped space and approach frontiers from the known side. Edge
weights scale step length by (1 + cost_weight * m(target)), pushing paths
away from inflated regions. Diagonal steps require both adjacent cardinal
cells to be traversable (no corner cutting).

A* only enters traversable cells, which are known, so it searches flat
indices of the bounding box of the known cells (gridmap.known_box) and the
start, ringed by one untraversable cell no step can cross. traversable_mask
takes that box, and the goal relaxes on the box's mask. A cell's step mask
is one byte, built with numpy from shifted views of the ringed flags: one
bit per traversable cardinal neighbour, and one per diagonal whose 2x2 block
with the cell is traversable. Masks and uint8 costs are bytes, g and parent
flat lists, the closed set a bytearray. An expansion reads its mask once and
tests one bit per step: E, W, S, N, then SE, NE, SW, NW. Edge weights come
from a table per step length indexed by cost. The octile heuristic of every
box cell is one float64 table, built with numpy from the IEEE operations of
the max/min expression and read through a memoryview; it costs the box's
area, which the ring already pays. Every edge weight, sum and f is the same
IEEE operation as in a whole-grid search, and the (f, push counter) heap
order is the same, so paths and costs match it.
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass

import numpy as np

from .gridmap import (COST_INSCRIBED, FREE, OCCUPIED, REMAPPED, OccupancyGrid,
                      Pose, known_box, wrap_angle)

SQRT2 = math.sqrt(2.0)


class NoPathError(Exception):
    pass


@dataclass
class PlannedPath:
    """A* output: 8-adjacent cell centers from start to goal."""

    waypoints: list[tuple[float, float]]
    total_cost: float
    expanded: int  # cells A* closed before it reached the goal


@dataclass(frozen=True)
class KinematicState:
    """Follower limits: top speed (m/s), top turn rate (rad/s), tick (s)."""

    v_max: float = 0.5
    w_max: float = 2.0
    dt: float = 0.25

    def __post_init__(self):
        for key in ("v_max", "w_max", "dt"):
            if not (getattr(self, key) > 0.0):
                raise ValueError(f"{key} must be > 0, got {getattr(self, key)}")
        turn = self.w_max * self.dt  # explorer's stall limit counts pi / turn ticks
        if not (turn > 0.0 and math.isfinite(math.pi / turn)):
            raise ValueError(f"w_max * dt = {turn!r} is too small for a half turn")


def traversable_mask(belief: OccupancyGrid, box=np.s_[:, :]) -> np.ndarray:
    """Known Free cells with a cost below the inscribed band, within box."""
    return (belief.states[box] == FREE) & (belief.costs[box] < COST_INSCRIBED)


def _nearest_traversable(trav, gi, gj, radius):
    """Closest traversable cell to (gi, gj) within a square search radius.

    Ties go to the lowest flat index: np.nonzero lists the window in
    raster order and argmin keeps the first minimum.
    """
    i0, j0 = max(gi - radius, 0), max(gj - radius, 0)
    i1, j1 = max(gi + radius + 1, 0), max(gj + radius + 1, 0)
    wj, wi = np.nonzero(trav[j0:j1, i0:i1])
    if len(wi) == 0:
        return None
    k = int(np.argmin((wi + i0 - gi) ** 2 + (wj + j0 - gj) ** 2))
    return int(wi[k]) + i0, int(wj[k]) + j0


@functools.lru_cache(maxsize=16)
def _weights(cost_weight: float, res: float) -> tuple[tuple[float, ...], ...]:
    """Edge weights by uint8 target cost: cardinal, then diagonal steps."""
    mult = (1.0 + cost_weight * REMAPPED).tolist()
    return tuple(tuple(length * m for m in mult) for length in (res, SQRT2 * res))


def plan_path(belief: OccupancyGrid, start: Pose, to_world: tuple[float, float],
              cost_weight: float, goal_relax_radius: int) -> PlannedPath:
    """Optimal A* path from the start pose to the cell nearest to_world.

    The start cell itself is always treated as traversable (the robot is
    standing on it, possibly inside freshly inflated cost). If the goal
    cell is untraversable, the goal relaxes to the nearest traversable cell
    within goal_relax_radius cells; raises NoPathError when no goal
    candidate is reachable.
    """
    res = belief.resolution
    si, sj = belief.world_to_cell(start.x, start.y)
    if not belief.in_bounds(si, sj) or belief.states[sj, si] == OCCUPIED:
        raise NoPathError(f"start cell ({si}, {sj}) is not usable")
    # The box of the known cells and the start, at (bi, bj); no other cell
    # is traversable.
    rows, cols = known_box(belief.states) or np.s_[sj:sj + 1, si:si + 1]
    bi, bj = min(cols.start, si), min(rows.start, sj)
    box = np.s_[bj:max(rows.stop, sj + 1), bi:max(cols.stop, si + 1)]
    trav = traversable_mask(belief, box)
    trav[sj - bj, si - bi] = True
    bh, bw = trav.shape

    gi, gj = belief.world_to_cell(*to_world)
    gi = min(max(gi, 0), belief.width - 1)
    gj = min(max(gj, 0), belief.height - 1)
    if not (0 <= gi - bi < bw and 0 <= gj - bj < bh and trav[gj - bj, gi - bi]):
        relaxed = _nearest_traversable(trav, gi - bi, gj - bj, goal_relax_radius)
        if relaxed is None:
            raise NoPathError("goal cell untraversable and no relaxation candidate")
        gi, gj = relaxed[0] + bi, relaxed[1] + bj

    # Flat index k of the search box is grid cell (k % w + i0, k // w + j0).
    i0, j0, w, h = bi - 1, bj - 1, bw + 2, bh + 2
    # The box ringed by 0s, as bytes: step masks (stray bits on the ring only), then costs.
    ring = np.zeros((2, h, w), dtype=np.uint8)
    ring[0, 1:-1, 1:-1], ring[1, 1:-1, 1:-1] = trav, belief.costs[box]
    p = ring[0].ravel()
    q = p[:-1] & p[1:]
    q = q[:-w] & q[w:]  # q[k]: cells k, k + 1, k + w and k + w + 1
    q = q[w:] | q[:-w] << 1  # q[k - w]: k's SE | NE << 1 blocks
    s = p[w:] | p[1:1 - w] << 1  # s[k]: S | E << 1; s[k - w - 1]: W | N << 1
    p[w + 1:-w - 1] = s[w + 1:-1] | s[:-w - 2] << 2 | (q[1:] | q[:-1] << 2) << 4
    steps, cost = (a.tobytes() for a in ring)
    w1, w2 = _weights(cost_weight, res)

    # Admissible octile heuristic of every box cell (every edge multiplier
    # is >= 1), as (min * (sqrt 2 - 1) + max) * res: the same IEEE operations
    # as the two-branch form of max/min. The start's f is never read.
    di = np.abs(np.arange(i0 - gi, i0 - gi + w, dtype=np.float64))[None, :]
    dj = np.abs(np.arange(j0 - gj, j0 - gj + h, dtype=np.float64))[:, None]
    t = np.minimum(di, dj) * (SQRT2 - 1.0)
    t += np.maximum(di, dj)
    t *= res
    octile = memoryview(t.ravel())

    start_k, goal_k = (sj - j0) * w + si - i0, (gj - j0) * w + gi - i0
    g, parent, closed = [math.inf] * (w * h), [0] * (w * h), bytearray(w * h)
    g[start_k] = 0.0
    counter = 0
    open_heap = [(0.0, counter, start_k)]
    push, pop = heapq.heappush, heapq.heappop
    while open_heap:
        k = pop(open_heap)[2]
        if closed[k]:
            continue
        if k == goal_k:
            break
        closed[k] = 1
        base, moves = g[k], steps[k]
        # E, W, S, N, then SE, NE, SW, NW.
        if moves & 2 and (t := base + w1[cost[m := k + 1]]) < g[m]:
            g[m], parent[m], counter = t, k, counter + 1
            push(open_heap, (t + octile[m], counter, m))
        if moves & 4 and (t := base + w1[cost[m := k - 1]]) < g[m]:
            g[m], parent[m], counter = t, k, counter + 1
            push(open_heap, (t + octile[m], counter, m))
        if moves & 1 and (t := base + w1[cost[m := k + w]]) < g[m]:
            g[m], parent[m], counter = t, k, counter + 1
            push(open_heap, (t + octile[m], counter, m))
        if moves & 8 and (t := base + w1[cost[m := k - w]]) < g[m]:
            g[m], parent[m], counter = t, k, counter + 1
            push(open_heap, (t + octile[m], counter, m))
        if moves & 16 and (t := base + w2[cost[m := k + w + 1]]) < g[m]:
            g[m], parent[m], counter = t, k, counter + 1
            push(open_heap, (t + octile[m], counter, m))
        if moves & 32 and (t := base + w2[cost[m := k - w + 1]]) < g[m]:
            g[m], parent[m], counter = t, k, counter + 1
            push(open_heap, (t + octile[m], counter, m))
        if moves & 64 and (t := base + w2[cost[m := k + w - 1]]) < g[m]:
            g[m], parent[m], counter = t, k, counter + 1
            push(open_heap, (t + octile[m], counter, m))
        if moves & 128 and (t := base + w2[cost[m := k - w - 1]]) < g[m]:
            g[m], parent[m], counter = t, k, counter + 1
            push(open_heap, (t + octile[m], counter, m))
    else:
        raise NoPathError(f"no path from ({si}, {sj}) to ({gi}, {gj})")

    cells = [goal_k]
    while cells[-1] != start_k:
        cells.append(parent[cells[-1]])
    waypoints = [belief.cell_center(k % w + i0, k // w + j0) for k in reversed(cells)]
    return PlannedPath(waypoints, g[goal_k], closed.count(1))


def advance(pose: Pose, kin: KinematicState, waypoints: list[tuple[float, float]],
            belief: OccupancyGrid) -> float:
    """One control tick toward the first remaining waypoint; moves pose in place.

    Turns at most w_max * dt toward the waypoint, then moves forward
    min(v_max * dt, distance to the waypoint) when the residual heading
    error is within 45 degrees. Motion into a cell that is not known Free
    is refused, so the robot never stands on an Occupied (or Unknown)
    belief cell. Waypoints within half a cell of the new pose are popped
    from the front of the list. Returns the distance actually moved.
    """
    if not waypoints:
        return 0.0
    tx, ty = waypoints[0]
    to_target = math.hypot(tx - pose.x, ty - pose.y)
    if to_target > 0.0:
        desired = math.atan2(ty - pose.y, tx - pose.x)
        err = wrap_angle(desired - pose.theta)
        turn = max(-kin.w_max * kin.dt, min(kin.w_max * kin.dt, err))
        pose.theta = wrap_angle(pose.theta + turn)
        err = wrap_angle(desired - pose.theta)
    else:
        err = 0.0

    moved = 0.0
    if abs(err) <= math.pi / 4.0:
        step = min(kin.v_max * kin.dt, to_target)
        nx = pose.x + step * math.cos(pose.theta)
        ny = pose.y + step * math.sin(pose.theta)
        ci, cj = belief.world_to_cell(nx, ny)
        same_cell = (ci, cj) == belief.world_to_cell(pose.x, pose.y)
        if belief.in_bounds(ci, cj) and (same_cell or belief.states[cj, ci] == FREE):
            pose.x, pose.y = nx, ny
            moved = step

    half_cell = 0.5 * belief.resolution
    while waypoints and math.hypot(waypoints[0][0] - pose.x,
                                   waypoints[0][1] - pose.y) <= half_cell:
        waypoints.pop(0)
    return moved
