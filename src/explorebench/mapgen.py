"""Seeded indoor map generator: rooms, doorways, box obstacles.

Three complexity tiers produce fully connected worlds of increasing size
and structure. Generation is a pure function of (tier, seed); maps whose
free space ends up disconnected are rejected and regenerated from a
derived seed, so the returned world is always fully explorable.
"""

from __future__ import annotations

import math
import random

import numpy as np
from scipy import ndimage

from .gridmap import (_FOUR_CONNECTED, FREE, OCCUPIED, InflationParams, OccupancyGrid,
                      Pose, StartUnreachableError, grid_from_states)

TIERS = ("low", "medium", "high")

_TIER_SHAPE = {"low": (19, 19), "medium": (29, 29), "high": (39, 39)}
_TIER_SECTIONS = {"low": (1, 2), "medium": (2, 2), "high": (3, 3)}
_TIER_BOXES = {"low": 3, "medium": 5, "high": 8}


def _carve_partitions(occ, rng, rows, cols):
    """Add internal walls splitting the interior into rows x cols sections,
    then open a 2-cell doorway through every wall between adjacent sections.

    A wall is a row of occ (horizontal) or a row of occ.T (vertical); the
    walls of the other view split it into the spans that get a doorway.
    """
    views = ((occ, rows), (occ.T, cols))
    walls = []
    for view, sections in views:
        n, m = view.shape
        lows = [(n - 2) * s // sections for s in range(1, sections)]
        walls.append([rng.randrange(max(2, lo), min(n - 3, lo + 3) + 1) for lo in lows])
        view[walls[-1], 1 : m - 1] = OCCUPIED
    for (view, _), own, other in zip(views, walls, walls[::-1]):
        spans = [1, *sorted(other), view.shape[1] - 1]
        for k in own:
            for a, b in zip(spans, spans[1:]):
                # A span too narrow for a doorway gets it at its first cell.
                gap = rng.randrange(a + 1, max(a + 2, b - 1))
                view[k, gap : gap + 2] = FREE


def _scatter_boxes(occ, rng, count):
    height, width = occ.shape
    placed = 0
    for _ in range(count * 20):
        if placed >= count:
            break
        bw = rng.randrange(1, 3)
        bh = rng.randrange(1, 3)
        i = rng.randrange(2, width - 2 - bw)
        j = rng.randrange(2, height - 2 - bh)
        # Keep one free ring around the box so doorways never get sealed.
        region = occ[j - 1 : j + bh + 1, i - 1 : i + bw + 1]
        if (region == OCCUPIED).any():
            continue
        occ[j : j + bh, i : i + bw] = OCCUPIED
        placed += 1


def _is_connected(occ) -> bool:
    """True when the free cells form exactly one 4-connected component."""
    _, count = ndimage.label(occ == FREE, structure=_FOUR_CONNECTED)
    return count == 1


def generate_map(tier: str, seed: int, resolution: float = 0.25,
                 inflation: InflationParams | None = None) -> OccupancyGrid:
    """Deterministic ground-truth world for one (tier, seed) pair."""
    if tier not in TIERS:
        raise ValueError(f"tier must be one of {TIERS}, got {tier!r}")
    height, width = _TIER_SHAPE[tier]
    rows, cols = _TIER_SECTIONS[tier]
    for attempt in range(32):
        # str seeds hash via sha512 inside random.seed, so this stays
        # deterministic across processes (tuple seeds do not).
        rng = random.Random(f"{seed}:{tier}:{attempt}")
        occ = np.full((height, width), FREE, dtype=np.uint8)
        occ[0, :] = occ[-1, :] = OCCUPIED
        occ[:, 0] = occ[:, -1] = OCCUPIED
        _carve_partitions(occ, rng, rows, cols)
        _scatter_boxes(occ, rng, _TIER_BOXES[tier])
        if _is_connected(occ):
            break
    else:
        raise RuntimeError(f"could not generate a connected {tier} map for seed {seed}")
    return grid_from_states(occ, resolution, inflation)


def pick_start(truth: OccupancyGrid, seed: int) -> Pose:
    """Deterministic start pose on a free cell, away from the outer wall.

    The cell is a seeded draw k of the Free cells in raster order of the
    interior (the cells two or more from every edge), or of the whole grid
    when the interior has none. It reads one interior mask, that mask's
    per-row Free counts, and then only the row that holds the k-th cell.
    Raises StartUnreachableError when the map has no Free cell.
    """
    h, w = truth.height, truth.width
    for rows, corner in ((truth.states[2 : h - 2, 2 : w - 2], 2), (truth.states, 0)):
        counts = np.count_nonzero(rows == FREE, axis=1)
        if counts.any():
            break
    else:
        raise StartUnreachableError("map has no free cell to start on")
    ends = np.cumsum(counts)
    rng = random.Random(f"{seed}:start:{w}x{h}")
    k = rng.randrange(int(ends[-1]))
    r = int(np.searchsorted(ends, k, "right"))
    c = np.flatnonzero(rows[r] == FREE)[k - ends[r] + counts[r]]
    x, y = truth.cell_center(corner + int(c), corner + r)
    theta = rng.uniform(-math.pi, math.pi)
    return Pose(x, y, theta)
