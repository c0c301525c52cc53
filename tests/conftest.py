from dataclasses import replace

import numpy as np
import pytest

from explorebench.gridmap import (COST_LETHAL, COST_UNKNOWN, FREE, OCCUPIED,
                                  UNKNOWN, InflationParams, OccupancyGrid, grid_from_states,
                                  inflate)

STATE_CHARS = {".": FREE, "#": OCCUPIED, "?": UNKNOWN}


def remap_cost(raw_cost) -> float:
    """Scalar oracle for the gridmap.REMAPPED table: map one raw cost into [0, 1].

    Unknown -> 0, lethal (254) -> 1 exactly, anything else (raw + 1) / 255.
    """
    if raw_cost == COST_UNKNOWN:
        return 0.0
    if raw_cost == COST_LETHAL:
        return 1.0
    return (int(raw_cost) + 1) / 255.0


def clone_grid(grid):
    """The grid with copies of its states and costs."""
    return replace(grid, states=grid.states.copy(), costs=grid.costs.copy())


def unknown_grid(width, height, resolution, inflation=InflationParams()):
    """An all-Unknown grid (every cost the Unknown marker), from grid_from_states."""
    return grid_from_states(np.full((height, width), UNKNOWN, dtype=np.uint8), resolution,
                            inflation)


def cell_set(segment):
    """A frontier segment's cells as a set of (i, j) tuples."""
    return {(int(i), int(j)) for i, j in segment.cells}


def grid_from_rows(rows, resolution=0.25, inflation=None, inflate_costs=True):
    """Build a grid from a list of equal-length strings ('.', '#', '?')."""
    height = len(rows)
    width = len(rows[0])
    states = np.empty((height, width), dtype=np.uint8)
    for j, row in enumerate(rows):
        assert len(row) == width, f"row {j} length mismatch"
        for i, ch in enumerate(row):
            states[j, i] = STATE_CHARS[ch]
    inflation = inflation or InflationParams()
    grid = OccupancyGrid(width, height, resolution, states,
                         np.zeros_like(states), inflation=inflation)
    if inflate_costs:
        inflate(grid, inflation.inscribed_radius, inflation.inflation_radius,
                inflation.decay_rate)
    else:
        grid.costs[states == UNKNOWN] = 255
        grid.costs[states == OCCUPIED] = 254
    return grid


@pytest.fixture
def rng():
    return np.random.RandomState(20240811)
