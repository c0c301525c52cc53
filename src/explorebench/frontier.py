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

from .gridmap import FREE, UNKNOWN, OccupancyGrid

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

    def to_json(self) -> dict:
        return {
            "cells": [[int(i), int(j)] for i, j in self.cells],
            "centroid": [self.centroid[0], self.centroid[1]],
            "length_af": self.length_af,
            "radius_r": self.radius_r,
            "farthest_cell": [int(self.farthest_cell[0]), int(self.farthest_cell[1])],
        }


def detect_frontiers(belief: OccupancyGrid) -> np.ndarray:
    """Mark Free cells that border Unknown space (4-connectivity)."""
    states = belief.states
    unknown = states == UNKNOWN
    near_unknown = np.zeros(states.shape, dtype=bool)
    near_unknown[:, 1:] |= unknown[:, :-1]
    near_unknown[:, :-1] |= unknown[:, 1:]
    near_unknown[1:, :] |= unknown[:-1, :]
    near_unknown[:-1, :] |= unknown[1:, :]
    return (states == FREE) & near_unknown


def cluster_segments(marks: np.ndarray, belief: OccupancyGrid,
                     min_size: int = 1) -> list[FrontierSegment]:
    """Group marked cells into 8-connected segments of at least min_size cells.

    The result is sorted by (centroid y, centroid x) so segment indices are
    stable regardless of label discovery order.
    """
    if marks.shape != belief.states.shape:
        raise ValueError("mask dimensions do not match belief grid")
    width = belief.width
    labels, count = ndimage.label(marks, structure=_EIGHT_CONNECTED)
    if count == 0:
        return []
    jj, ii = np.nonzero(labels)
    lab = labels[jj, ii]
    sizes = np.bincount(lab, minlength=count + 1)

    res = belief.resolution
    ox, oy = belief.origin
    cx_cells = np.bincount(lab, weights=ii, minlength=count + 1)
    cy_cells = np.bincount(lab, weights=jj, minlength=count + 1)
    with np.errstate(invalid="ignore", divide="ignore"):
        mean_i = cx_cells / sizes
        mean_j = cy_cells / sizes
    # Squared center-to-centroid distance per marked cell, in cell units.
    d2 = (ii - mean_i[lab]) ** 2 + (jj - mean_j[lab]) ** 2
    max_d2 = np.full(count + 1, -1.0)
    np.maximum.at(max_d2, lab, d2)
    flat = jj.astype(np.int64) * width + ii
    far_flat = np.full(count + 1, np.iinfo(np.int64).max, dtype=np.int64)
    attains = d2 == max_d2[lab]
    np.minimum.at(far_flat, lab[attains], flat[attains])

    order = np.lexsort((flat, lab))
    sorted_lab = lab[order]
    boundaries = np.flatnonzero(np.diff(sorted_lab)) + 1
    groups = np.split(order, boundaries)

    segments = []
    for group in groups:
        label_id = lab[group[0]]
        n = int(sizes[label_id])
        if n < min_size:
            continue
        cells = np.column_stack((ii[group], jj[group])).astype(np.int64)
        centroid = (ox + (mean_i[label_id] + 0.5) * res,
                    oy + (mean_j[label_id] + 0.5) * res)
        radius = float(np.sqrt(max_d2[label_id]) * res)
        fi = int(far_flat[label_id] % width)
        fj = int(far_flat[label_id] // width)
        segments.append(FrontierSegment(
            cells=cells,
            centroid=centroid,
            length_af=n * res,
            radius_r=radius,
            farthest_cell=(fi, fj),
        ))
    segments.sort(key=lambda s: (s.centroid[1], s.centroid[0],
                                 int(s.cells[0][1]) * width + int(s.cells[0][0])))
    return segments
