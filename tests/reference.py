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


def oracle_reveal_sets(truth, pose, lidar):
    """Scalar re-implementation of the documented reveal semantics."""
    res = truth.resolution
    free_set, occ_set = set(), set()
    gx, gy = pose.x / res, pose.y / res
    range_cells = lidar.max_range / res
    pi, pj = int(math.floor(gx)), int(math.floor(gy))

    def center_in_range(i, j):
        cx, cy = (i + 0.5) * res, (j + 0.5) * res
        return (cx - pose.x) ** 2 + (cy - pose.y) ** 2 <= lidar.max_range**2

    if truth.states[pj, pi] == FREE and center_in_range(pi, pj):
        free_set.add((pi, pj))
    for k in range(lidar.beam_count):
        ang = pose.theta + lidar.angular_span * k / lidar.beam_count
        dx, dy = math.cos(ang), math.sin(ang)
        i, j = pi, pj
        si = 1 if dx > 0 else (-1 if dx < 0 else 0)
        sj = 1 if dy > 0 else (-1 if dy < 0 else 0)
        tx = ((i + 1 - gx) / dx if dx > 0 else (i - gx) / dx) if dx else math.inf
        ty = ((j + 1 - gy) / dy if dy > 0 else (j - gy) / dy) if dy else math.inf
        dtx = abs(1.0 / dx) if dx else math.inf
        dty = abs(1.0 / dy) if dy else math.inf
        while True:
            if tx <= ty:
                entry, i, tx = tx, i + si, tx + dtx
            else:
                entry, j, ty = ty, j + sj, ty + dty
            if entry > range_cells or not truth.in_bounds(i, j):
                break
            if truth.states[j, i] == OCCUPIED:
                occ_set.add((i, j))
                break
            if center_in_range(i, j):
                free_set.add((i, j))
    return free_set, occ_set


def oracle_beam_walks(grid, pose, angles, max_range):
    """Walk each beam on its own, one boundary crossing per step.

    The arithmetic is the documented one: inv = 1/d, the first crossing at
    (c + 1 - g) * inv or (c - g) * inv, then t += |inv| per crossing, the x
    crossing first on ties. A beam stops on entering a cell beyond
    max_range, leaving the grid, or entering an Occupied cell (which it
    keeps). Returns the cells each beam entered, one list per beam.
    """
    res = grid.resolution
    gx, gy = pose.x / res, pose.y / res
    range_cells = max_range / res
    walks = []
    for dx, dy in zip(np.cos(angles), np.sin(angles)):
        dx, dy = float(dx), float(dy)
        i, j = int(math.floor(gx)), int(math.floor(gy))
        si = 1 if dx > 0 else (-1 if dx < 0 else 0)
        sj = 1 if dy > 0 else (-1 if dy < 0 else 0)
        inv_x = 1.0 / dx if dx else math.inf
        inv_y = 1.0 / dy if dy else math.inf
        tx = (i + 1 - gx) * inv_x if dx > 0 else ((i - gx) * inv_x if dx < 0 else math.inf)
        ty = (j + 1 - gy) * inv_y if dy > 0 else ((j - gy) * inv_y if dy < 0 else math.inf)
        entered = []
        while True:
            if tx <= ty:
                entry, i, tx = tx, i + si, tx + abs(inv_x)
            else:
                entry, j, ty = ty, j + sj, ty + abs(inv_y)
            if entry > range_cells or not grid.in_bounds(i, j):
                break
            entered.append((i, j))
            if grid.states[j, i] == OCCUPIED:
                break
        walks.append(entered)
    return walks


def brute_force_marks(belief):
    """Quantified definition: Free with at least one Unknown 4-neighbor."""
    marks = np.zeros_like(belief.states, dtype=bool)
    for j in range(belief.height):
        for i in range(belief.width):
            if belief.states[j, i] != FREE:
                continue
            for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                ni, nj = i + di, j + dj
                if belief.in_bounds(ni, nj) and belief.states[nj, ni] == UNKNOWN:
                    marks[j, i] = True
                    break
    return marks


def oracle_segments(marks, resolution, min_size):
    """Scalar 8-connected flood fill with the documented segment geometry.

    Each segment lists its cells in flat-index order; its centroid is the
    mean cell center and radius_r the largest center distance.
    """
    h, w = marks.shape
    seen = set()
    segments = []
    for j in range(h):
        for i in range(w):
            if not marks[j, i] or (i, j) in seen:
                continue
            seen.add((i, j))
            stack, cells = [(i, j)], []
            while stack:
                ci, cj = stack.pop()
                cells.append((ci, cj))
                for nj in range(max(cj - 1, 0), min(cj + 2, h)):
                    for ni in range(max(ci - 1, 0), min(ci + 2, w)):
                        if marks[nj, ni] and (ni, nj) not in seen:
                            seen.add((ni, nj))
                            stack.append((ni, nj))
            n = len(cells)
            if n < min_size:
                continue
            cells.sort(key=lambda c: c[1] * w + c[0])
            mean_i = sum(c[0] for c in cells) / n
            mean_j = sum(c[1] for c in cells) / n
            d2 = [(ci - mean_i) * (ci - mean_i) + (cj - mean_j) * (cj - mean_j)
                  for ci, cj in cells]
            segments.append({
                "cells": cells,
                "centroid": ((mean_i + 0.5) * resolution, (mean_j + 0.5) * resolution),
                "length_af": n * resolution,
                "radius_r": math.sqrt(max(d2)) * resolution,
            })
    segments.sort(key=lambda s: (s["centroid"][1], s["centroid"][0],
                                 s["cells"][0][1] * w + s["cells"][0][0]))
    return segments
