"""Frontier detection and clustering on belief grids.

A frontier cell is a Free belief cell with at least one Unknown 4-neighbor;
detect_frontiers marks them in a bool array shaped like the belief states.
Marked cells are grouped into 8-connected segments; each segment is
summarized by the geometry the waypoint scorer consumes: world-space
centroid, total length, and the radius that encloses all its cells.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .gridmap import FREE, UNKNOWN, OccupancyGrid, adjacent_to

_EIGHT_CONNECTED = np.ones((3, 3), dtype=bool)


@dataclass
class FrontierSegment:
    """One 8-connected cluster of frontier cells.

    cells is an (n, 2) array of (i, j) grid indices. centroid is the mean
    of the member cell centers in world meters; radius_r the largest
    centroid-to-cell-center distance; length_af the cell count times the
    grid resolution.
    """

    cells: np.ndarray
    centroid: tuple[float, float]
    length_af: float
    radius_r: float

    def cell_set(self) -> set[tuple[int, int]]:
        return {(int(i), int(j)) for i, j in self.cells}


def detect_frontiers(belief: OccupancyGrid) -> np.ndarray:
    """Mark Free cells that border Unknown space (4-connectivity)."""
    return (belief.states == FREE) & adjacent_to(belief.states == UNKNOWN)


def cluster_segments(marks: np.ndarray, belief: OccupancyGrid,
                     min_size: int) -> list[FrontierSegment]:
    """Group marked cells into 8-connected segments of at least min_size cells.

    Each segment's cells come in flat-index order. The result is sorted by
    (centroid y, centroid x), then by first cell, so segment indices are
    stable regardless of label discovery order.
    """
    if marks.shape != belief.states.shape:
        raise ValueError("mask dimensions do not match belief grid")
    width = belief.width
    labels, _ = ndimage.label(marks, structure=_EIGHT_CONNECTED)
    jj, ii = np.nonzero(labels)
    segments = []
    for (members,) in ndimage.value_indices(labels[jj, ii]).values():
        n = len(members)
        if n < min_size:
            continue
        si, sj = ii[members], jj[members]
        mean_i, mean_j = si.sum() / n, sj.sum() / n
        # Squared center-to-centroid distance per cell, in cell units.
        d2 = (si - mean_i) ** 2 + (sj - mean_j) ** 2
        segments.append(FrontierSegment(
            cells=np.column_stack((si, sj)),
            centroid=belief.cell_center(mean_i, mean_j),
            length_af=n * belief.resolution,
            radius_r=float(np.sqrt(d2.max()) * belief.resolution),
        ))
    segments.sort(key=lambda s: (s.centroid[1], s.centroid[0],
                                 int(s.cells[0][1]) * width + int(s.cells[0][0])))
    return segments
