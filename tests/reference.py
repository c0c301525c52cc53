"""Plain reference implementations that tests compare the program with.

Each one is written in the most direct form, with no buffers, boxes or
tables, so that a test can check a fast layer against it exactly.
"""

import heapq
import math
import random

import numpy as np
from scipy import ndimage

from conftest import remap_cost
from explorebench.gridmap import (COST_INSCRIBED, COST_LETHAL, COST_UNKNOWN, FREE,
                                  OCCUPIED, REMAPPED, UNKNOWN, Pose,
                                  StartUnreachableError)
from explorebench.navigator import (SQRT2, NoPathError, _nearest_traversable,
                                    traversable_mask)

# Neighbour order of the search: E, W, S, N, then SE, NE, SW, NW.
STEPS = ((1, 0, 1.0), (-1, 0, 1.0), (0, 1, 1.0), (0, -1, 1.0),
         (1, 1, SQRT2), (1, -1, SQRT2), (-1, 1, SQRT2), (-1, -1, SQRT2))


def reference_inflation_costs(states, resolution, inscribed_radius, inflation_radius,
                              decay_rate):
    """gridmap.inflate's costs from one distance transform over the whole grid."""
    occupied = states == OCCUPIED
    costs = np.zeros(states.shape, dtype=np.uint8)
    if occupied.any():
        dist = ndimage.distance_transform_edt(~occupied) * resolution
        band = (dist > inscribed_radius) & (dist <= inflation_radius)
        decayed = np.floor(252.0 * np.exp(-decay_rate * (dist[band] - inscribed_radius)) + 0.5)
        costs[band] = decayed.astype(np.uint8)
        costs[(dist <= inscribed_radius) & ~occupied] = COST_INSCRIBED
        costs[occupied] = COST_LETHAL
    costs[states == UNKNOWN] = COST_UNKNOWN
    return costs


def reference_occupancy(seg, belief, params):
    """scoring's O from the whole grid with no box: the mean REMAPPED cost of
    the cells whose centers lie within the segment's disk, read in raster
    order, times sech of the scaled length; 0 for an empty disk."""
    r = max(seg.radius_r, belief.resolution)
    (xf, yf), x = seg.centroid, params.af_scale * seg.length_af
    cx, cy = belief.cell_center(np.arange(belief.width), np.arange(belief.height))
    in_disk = (cx[None, :] - xf) ** 2 + (cy[:, None] - yf) ** 2 <= r * r
    if not in_disk.any():
        return 0.0
    sech = 0.0 if x > 709.0 else 1.0 / math.cosh(x)
    return float(REMAPPED[belief.costs[in_disk]].mean()) * sech


def brute_force_occupancy(seg, belief, params):
    """O by enumerating the disk cell by cell with the scalar remap."""
    r = max(seg.radius_r, belief.resolution)
    xf, yf = seg.centroid
    total, count = 0.0, 0
    for j in range(belief.height):
        for i in range(belief.width):
            cx, cy = belief.cell_center(i, j)
            if (cx - xf) ** 2 + (cy - yf) ** 2 <= r * r:
                total += remap_cost(int(belief.costs[j, i]))
                count += 1
    if count == 0:
        return 0.0
    x = params.af_scale * seg.length_af
    return (total / count) * (0.0 if x > 709 else 1.0 / math.cosh(x))


def reference_plan(belief, start, to_world, cost_weight, goal_relax_radius):
    """A* over the whole grid with (i, j) cell keys: (waypoints, cost, expanded).

    The search of the project's first version, with navigator's goal
    relaxation and the REMAPPED cost table. The heap orders entries by
    (f, push counter), and expanded counts the cells closed before the
    goal was popped. Raises NoPathError where plan_path must.
    """
    res = belief.resolution
    si, sj = belief.world_to_cell(start.x, start.y)
    if not belief.in_bounds(si, sj) or belief.states[sj, si] == OCCUPIED:
        raise NoPathError(f"start cell ({si}, {sj}) is not usable")
    trav = traversable_mask(belief)
    trav[sj, si] = True

    gi, gj = belief.world_to_cell(*to_world)
    gi = min(max(gi, 0), belief.width - 1)
    gj = min(max(gj, 0), belief.height - 1)
    if not trav[gj, gi]:
        relaxed = _nearest_traversable(trav, gi, gj, goal_relax_radius)
        if relaxed is None:
            raise NoPathError("goal cell untraversable and no relaxation candidate")
        gi, gj = relaxed

    passable, costs = trav.tolist(), belief.costs.tolist()

    def octile(i, j):
        di, dj = abs(i - gi), abs(j - gj)
        return (max(di, dj) + (SQRT2 - 1.0) * min(di, dj)) * res

    start_key, goal_key = (si, sj), (gi, gj)
    g_cost, parent, closed = {start_key: 0.0}, {}, set()
    counter = 0
    open_heap = [(octile(si, sj), counter, start_key)]
    while open_heap:
        _, _, current = heapq.heappop(open_heap)
        if current in closed:
            continue
        if current == goal_key:
            break
        closed.add(current)
        ci, cj = current
        base = g_cost[current]
        for di, dj, step in STEPS:
            ni, nj = ci + di, cj + dj
            if not belief.in_bounds(ni, nj) or not passable[nj][ni]:
                continue
            if di != 0 and dj != 0 and not (passable[cj][ni] and passable[nj][ci]):
                continue
            multiplier = 1.0 + cost_weight * float(REMAPPED[costs[nj][ni]])
            tentative = base + step * res * multiplier
            key = (ni, nj)
            if tentative < g_cost.get(key, math.inf):
                g_cost[key] = tentative
                parent[key] = current
                counter += 1
                heapq.heappush(open_heap, (tentative + octile(ni, nj), counter, key))
    else:
        raise NoPathError(f"no path from ({si}, {sj}) to ({gi}, {gj})")

    cells = [goal_key]
    while cells[-1] != start_key:
        cells.append(parent[cells[-1]])
    waypoints = [belief.cell_center(i, j) for i, j in reversed(cells)]
    return waypoints, g_cost[goal_key], len(closed)


def reference_adjacent(mask):
    """Cells with a 4-neighbour in mask, cell by cell; leading axes index a
    stack of 2-D masks."""
    out = np.zeros(mask.shape, dtype=bool)
    *_, h, w = mask.shape
    for *lead, j, i in np.ndindex(*mask.shape):
        out[(*lead, j, i)] = any(
            0 <= j + dj < h and 0 <= i + di < w and mask[(*lead, j + dj, i + di)]
            for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)))
    return out


def reference_pick_start(truth, seed):
    """mapgen.pick_start from the list of every Free cell: the k-th interior
    Free cell in raster order, or the k-th of all when the interior has none."""
    free_j, free_i = np.nonzero(truth.states == FREE)
    if free_i.size == 0:
        raise StartUnreachableError("map has no free cell to start on")
    interior = ((free_i > 1) & (free_i < truth.width - 2)
                & (free_j > 1) & (free_j < truth.height - 2))
    if interior.any():
        free_i, free_j = free_i[interior], free_j[interior]
    rng = random.Random(f"{seed}:start:{truth.width}x{truth.height}")
    k = rng.randrange(len(free_i))
    x, y = truth.cell_center(int(free_i[k]), int(free_j[k]))
    theta = rng.uniform(-math.pi, math.pi)
    return Pose(x, y, theta)
