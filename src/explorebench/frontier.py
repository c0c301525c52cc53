"""Frontier detection and clustering on belief grids.

A frontier cell is a Free belief cell with at least one Unknown 4-neighbor;
detect_frontiers lists them as ascending flat indices i + width * j, reading
only the box of the known cells grown by one cell (gridmap.known_box): every
cell outside the known box is Unknown, and the grown box holds each
4-neighbor on the grid of every Free cell. No grid-sized array is made.
Listed cells are grouped into 8-connected segments; each segment is
summarized by the geometry the waypoint scorer consumes: world-space
centroid, total length, and the radius that encloses all its cells.

Frontier cells border Unknown space, so on a large map that is mostly
unexplored they fill a small box. Clustering labels only the bounding box
of the listed cells: labels there still number in raster order, so the
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
    """Ascending flat indices (np.intp) of the Free cells that border
    Unknown space (4-connectivity)."""
    if (box := known_box(belief.states, 1)) is None:
        return np.empty(0, dtype=np.intp)
    s = belief.states[box]
    jj, ii = np.nonzero((s == FREE) & adjacent_to(s == UNKNOWN))
    return (jj + box[0].start) * belief.width + (ii + box[1].start)


def cluster_segments(cells: np.ndarray, belief: OccupancyGrid,
                     min_size: int) -> list[FrontierSegment]:
    """Group frontier cells, ascending flat indices as detect_frontiers
    lists them, into 8-connected segments of at least min_size cells.

    Each segment's cells come in flat-index order. The result is sorted by
    (centroid y, centroid x); ties keep label order, which ndimage.label
    numbers by first cell in raster order, so the first cell breaks them.

    Only the bounding box of the cells is labelled: its rows come from the
    first and last index, its columns from the cells' extreme columns. The
    cells are scattered into the box and their labels read back at the same
    cells. Unlisted rows and columns join no two cells, and a raster scan of
    the box meets the cells in their flat-index order, so the segments are
    those of the whole grid. Each label's size, mean cell and radius come
    from one reduceat over the cells sorted by label (each label's in
    raster order), not a loop.
    """
    if len(cells) == 0:
        return []
    w = belief.width
    if not (0 <= cells[0] and cells[-1] < w * belief.height and (cells[1:] > cells[:-1]).all()):
        raise ValueError("frontier cells are not ascending flat indices of the belief grid")
    jj, ii = np.divmod(cells, w)
    j0, i0 = jj[0], ii.min()
    box, at = np.zeros((jj[-1] - j0 + 1, ii.max() - i0 + 1), dtype=bool), (jj - j0, ii - i0)
    box[at] = True
    lab = ndimage.label(box, structure=_EIGHT_CONNECTED)[0][at]
    by_label = np.argsort(lab, kind="stable")
    si, sj = ii[by_label], jj[by_label]
    sizes = np.bincount(lab)[1:]
    starts = np.cumsum(sizes) - sizes
    mean_i, mean_j = (np.add.reduceat(a, starts) / sizes for a in (si, sj))
    d2 = (si - np.repeat(mean_i, sizes)) ** 2 + (sj - np.repeat(mean_j, sizes)) ** 2
    radii = (np.sqrt(np.maximum.reduceat(d2, starts)) * belief.resolution).tolist()
    cx, cy = (c.tolist() for c in belief.cell_center(mean_i, mean_j))
    ij = np.column_stack((si, sj))
    segments = [FrontierSegment(cells=ij[a : a + n], centroid=(cx[k], cy[k]),
                                length_af=n * belief.resolution, radius_r=radii[k])
                for k, (a, n) in enumerate(zip(starts.tolist(), sizes.tolist()))
                if n >= min_size]
    segments.sort(key=lambda s: (s.centroid[1], s.centroid[0]))
    return segments
