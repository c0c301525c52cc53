"""Frontier detection and clustering on belief grids.

A frontier cell is a Free belief cell with at least one Unknown 4-neighbor;
detect_frontiers marks them in a bool array shaped like the belief states.
Marked cells are grouped into 8-connected segments; each segment is
summarized by the geometry the waypoint scorer consumes: world-space
centroid, total length, and the radius that encloses its farthest cell.
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
    centroid-to-cell-center distance, attained at farthest_cell; length_af
    the cell count times the grid resolution.
    """

    cells: np.ndarray
    centroid: tuple[float, float]
    length_af: float
    radius_r: float
    farthest_cell: tuple[int, int]

    def cell_set(self) -> set[tuple[int, int]]:
        return {(int(i), int(j)) for i, j in self.cells}


def detect_frontiers(belief: OccupancyGrid) -> np.ndarray:
    """Mark Free cells that border Unknown space (4-connectivity)."""
    return (belief.states == FREE) & adjacent_to(belief.states == UNKNOWN)


def cluster_segments(marks: np.ndarray, belief: OccupancyGrid,
                     min_size: int) -> list[FrontierSegment]:
    """Group marked cells into 8-connected segments of at least min_size cells.

    Each segment's cells come in flat-index order, so farthest_cell is the
    lowest flat index among the cells that attain radius_r. The result is
    sorted by (centroid y, centroid x) so segment indices are stable
    regardless of label discovery order.
    """
    if marks.shape != belief.states.shape:
        raise ValueError("mask dimensions do not match belief grid")
    width = belief.width
    res = belief.resolution
    ox, oy = belief.origin
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
        far = int(d2.argmax())
        segments.append(FrontierSegment(
            cells=np.column_stack((si, sj)),
            centroid=(ox + (mean_i + 0.5) * res, oy + (mean_j + 0.5) * res),
            length_af=n * res,
            radius_r=float(np.sqrt(d2[far]) * res),
            farthest_cell=(int(si[far]), int(sj[far])),
        ))
    segments.sort(key=lambda s: (s.centroid[1], s.centroid[0],
                                 int(s.cells[0][1]) * width + int(s.cells[0][0])))
    return segments
