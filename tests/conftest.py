import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import strategies as st

from explorebench.gridmap import (COST_LETHAL, COST_UNKNOWN, FREE, OCCUPIED,
                                  UNKNOWN, BeamScanner, InflationParams, MapError,
                                  OccupancyGrid, grid_from_states, inflate)

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


def reveal(belief, truth, pose, lidar):
    """Reveal into belief the truth cells that lidar sees from pose, as one
    run alone; return the cells that changed.

    Beam k points at pose.theta + angular_span * k / beam_count. Cells a
    beam crosses before its first Occupied truth cell become Free in the
    belief when their center lies within max_range of the pose; the hit
    cell becomes Occupied. Returns the (i, j) arrays, in raster order, of
    the cells that were Unknown before this reveal and are known after it.

    The reveal scans a batch of one on a BeamScanner slot seeded from the
    belief, and copies the slot back only if a cell became known.
    Precondition: the belief agrees with the truth wherever it is known
    and holds a full inflate's costs.
    """
    if (belief.states.shape != truth.states.shape or belief.inflation != truth.inflation
            or belief.resolution != truth.resolution):
        raise MapError("belief and truth grids must share geometry")
    scanner = BeamScanner([truth], lidar)
    slot = scanner.grids[0]
    slot.states[...], slot.costs[...] = belief.states, belief.costs
    if (cells := scanner.scan([(0, pose)])[0]).size:
        belief.states[...], belief.costs[...] = slot.states, slot.costs
    cj, ci = np.divmod(cells, truth.width)
    return ci, cj


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


def floats(sign=False, zero=False):
    """Floats log-uniform in magnitude from the smallest subnormal to the
    largest finite double: a uniform binary exponent, then a mantissa in
    [1, 2); with sign, either sign; with zero, 0.0 as well."""
    magnitude = st.builds(math.ldexp, st.floats(1.0, 2.0, exclude_max=True),
                          st.integers(-1074, 1023))
    if sign:
        magnitude = st.builds(math.copysign, magnitude, st.sampled_from([1.0, -1.0]))
    return st.one_of(st.just(0.0), magnitude) if zero else magnitude


@pytest.fixture
def rng():
    return np.random.RandomState(20240811)
