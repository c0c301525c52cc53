"""Frontier detection and clustering on belief grids.

A frontier cell is a Free belief cell with at least one Unknown 4-neighbor;
detect_frontiers marks them in a bool array shaped like the belief states,
reading only the box of the known cells grown by one cell (gridmap.known_box):
every cell outside the known box is Unknown, and the grown box holds each
4-neighbor on the grid of every Free cell.
Marked cells are grouped into 8-connected segments; each segment is
summarized by the geometry the waypoint scorer consumes: world-space
centroid, total length, and the radius that encloses all its cells.

Frontier cells border Unknown space, so on a large map that is mostly
unexplored they fill a small box. Clustering labels only the bounding box
of the marked cells: labels there still number in raster order, so the
segments, their cells and their geometry are those of a whole-grid label.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .gridmap import FREE, UNKNOWN, OccupancyGrid, adjacent_to, known_box

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


def detect_frontiers(belief: OccupancyGrid) -> np.ndarray:
    """Mark Free cells that border Unknown space (4-connectivity)."""
    marks = np.zeros(belief.states.shape, dtype=bool)
    if (box := known_box(belief.states, 1)) is not None:
        s = belief.states[box]
        marks[box] = (s == FREE) & adjacent_to(s == UNKNOWN)
    return marks


def cluster_segments(marks: np.ndarray, belief: OccupancyGrid,
                     min_size: int) -> list[FrontierSegment]:
    """Group marked cells into 8-connected segments of at least min_size cells.

    Each segment's cells come in flat-index order. The result is sorted by
    (centroid y, centroid x); ties keep label order, which ndimage.label
    numbers by first cell in raster order, so the first cell breaks them.

    Only the bounding box of the marks (gridmap.known_box) is labelled, and
    the box offset is added back to the cell indices. Unmarked rows and
    columns join no two cells, and a raster scan of the box meets the cells
    in their whole-grid flat-index order, so the segments are those of the
    whole grid. Each label's size, mean cell and radius come from one
    reduceat over the cells sorted by label (each label's in raster order),
    not a loop.
    """
    if marks.shape != belief.states.shape:
        raise ValueError("mask dimensions do not match belief grid")
    if (box := known_box(marks)) is None:
        return []
    j0, i0 = box[0].start, box[1].start
    labels, _ = ndimage.label(marks[box], structure=_EIGHT_CONNECTED)
    jj, ii = np.nonzero(labels)
    lab = labels[jj, ii]
    by_label = np.argsort(lab, kind="stable")
    si, sj = ii[by_label] + i0, jj[by_label] + j0
    sizes = np.bincount(lab)[1:]
    starts = np.cumsum(sizes) - sizes
    mean_i, mean_j = (np.add.reduceat(a, starts) / sizes for a in (si, sj))
    d2 = (si - np.repeat(mean_i, sizes)) ** 2 + (sj - np.repeat(mean_j, sizes)) ** 2
    radii = (np.sqrt(np.maximum.reduceat(d2, starts)) * belief.resolution).tolist()
    cx, cy = (c.tolist() for c in belief.cell_center(mean_i, mean_j))
    cells = np.column_stack((si, sj))
    segments = [FrontierSegment(cells=cells[a : a + n], centroid=(cx[k], cy[k]),
                                length_af=n * belief.resolution, radius_r=radii[k])
                for k, (a, n) in enumerate(zip(starts.tolist(), sizes.tolist()))
                if n >= min_size]
    segments.sort(key=lambda s: (s.centroid[1], s.centroid[0]))
    return segments
