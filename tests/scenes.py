"""Hand-built belief scenes shared by module and acceptance tests.

All scenes use 0.25 m cells. The three frontier-type scenes hold exactly
one scoreable segment of six cells whose centroid sits 2.0 m from the
robot, so occupancy content is the only thing that differs:

  closed     a free ring around a two-cell unknown blob, no walls at all
  open_wide  a six-cell sensing edge flanked by wall stubs, unknown beyond
  door_gap   the same doorway plus free cells and a facing wall seen
             through the gap, raising the disk's remapped-cost content

The case-study scene holds two candidates: a nearby four-cell doorway
frontier and a farther twelve-cell ring around an unexplored pocket.
"""

from __future__ import annotations

import numpy as np

from explorebench.gridmap import (FREE, OCCUPIED, UNKNOWN, InflationParams,
                                  OccupancyGrid, Pose, inflate)

RES = 0.25
INFLATION = InflationParams(inscribed_radius=0.12, inflation_radius=0.6,
                            decay_rate=4.0)


def _belief_from_states(states: np.ndarray) -> OccupancyGrid:
    height, width = states.shape
    grid = OccupancyGrid(width, height, RES, states.astype(np.uint8),
                         np.zeros_like(states, dtype=np.uint8),
                         inflation=INFLATION)
    inflate(grid, INFLATION.inscribed_radius, INFLATION.inflation_radius,
            INFLATION.decay_rate)
    return grid


def frontier_type_scenes() -> dict[str, tuple[OccupancyGrid, Pose]]:
    robot = Pose(3.75, 5.125, 0.0)
    scenes = {}

    # Closed: all free except an unknown blob; frontier is the free ring.
    states = np.full((29, 29), FREE, dtype=np.uint8)
    states[12, 14:16] = UNKNOWN
    scenes["closed"] = (_belief_from_states(states), robot)

    # Open-wide: a doorway-sized sensing edge, everything beyond unknown.
    states = np.full((29, 29), FREE, dtype=np.uint8)
    states[12, :] = OCCUPIED
    states[12, 12:18] = FREE
    states[:12, :] = UNKNOWN
    scenes["open_wide"] = (_belief_from_states(states), robot)

    # Door-gap: as open-wide, plus free cells and a facing wall visible
    # through the gap (those free cells form a two-cell fragment that the
    # min_size = 3 filter drops, but they enrich the disk).
    states = np.full((29, 29), FREE, dtype=np.uint8)
    states[12, :] = OCCUPIED
    states[12, 12:18] = FREE
    states[:12, :] = UNKNOWN
    states[10, 14:16] = FREE
    states[9, 12:18] = OCCUPIED
    scenes["door_gap"] = (_belief_from_states(states), robot)
    return scenes


def case_study_scene() -> tuple[OccupancyGrid, Pose]:
    """Nearby doorway frontier vs farther, longer, enclosed pocket ring.

    Returns (belief, robot). The pocket ring has 12 cells with centroid
    (3.75, 2.75); the doorway has 4 cells with centroid (4.0, 6.625). The
    robot at (4.125, 5.625) is 1.008 m from the doorway and 2.899 m from
    the ring.
    """
    states = np.full((33, 33), FREE, dtype=np.uint8)
    states[10:12, 13:17] = UNKNOWN          # unexplored pocket
    states[26, :] = OCCUPIED                # south wall ...
    states[26, 14:18] = FREE                # ... with a four-cell doorway
    states[27:, :] = UNKNOWN                # beyond the doorway
    return _belief_from_states(states), Pose(4.125, 5.625, 0.0)
