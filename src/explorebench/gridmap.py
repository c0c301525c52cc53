"""Occupancy grids: ground truth and belief, sensing, inflation, coverage.

The simulator keeps two grids with identical geometry: a ground-truth grid
(every cell Free or Occupied) and the robot's belief grid (cells start
Unknown and are filled in by simulated LiDAR reveals). Costs follow the
usual costmap convention: 0..252 decaying inflation, 253 inscribed,
254 lethal, 255 reserved as the unknown marker.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

UNKNOWN = 0
FREE = 1
OCCUPIED = 2

COST_INSCRIBED = 253
COST_LETHAL = 254
COST_UNKNOWN = 255  # marker, not a cost; paired with state UNKNOWN

_FOUR_CONNECTED = ndimage.generate_binary_structure(2, 1)


class MapError(Exception):
    """Base class for map loading and geometry errors."""


class MalformedMapError(MapError):
    pass


class ZeroResolutionError(MapError):
    pass


class InvalidRadiiError(MapError):
    pass


class PoseOutOfBoundsError(MapError):
    pass


class PoseInsideObstacleError(MapError):
    pass


class StartUnreachableError(MapError):
    pass


def wrap_angle(theta: float) -> float:
    """Normalize an angle into (-pi, pi]; a non-finite angle gives NaN."""
    if not math.isfinite(theta):
        return math.nan
    t = math.fmod(theta + math.pi, 2.0 * math.pi)
    if t <= 0.0:
        t += 2.0 * math.pi
    return t - math.pi


@dataclass
class Pose:
    """Planar robot pose; theta is normalized into (-pi, pi] on construction."""

    x: float
    y: float
    theta: float = 0.0

    def __post_init__(self):
        self.theta = wrap_angle(self.theta)


@dataclass(frozen=True)
class LidarModel:
    """Simulated scanner: beam_count rays spread over angular_span radians."""

    beam_count: int = 360
    max_range: float = 2.5
    angular_span: float = 2.0 * math.pi

    def __post_init__(self):
        if self.beam_count < 1:
            raise ValueError(f"beam_count must be >= 1, got {self.beam_count}")
        if not (self.max_range > 0.0):
            raise ValueError(f"max_range must be > 0, got {self.max_range}")
        # Within (0, 2 pi] every beam angle span * k / beam_count already
        # lies on the circle [0, 2 pi), in ascending order.
        if not (0.0 < self.angular_span <= 2.0 * math.pi):
            raise ValueError(f"angular_span must be in (0, 2 pi], got {self.angular_span}")


@dataclass(frozen=True)
class InflationParams:
    """Costmap inflation: lethal at obstacles, inscribed band, then exponential decay."""

    inscribed_radius: float = 0.12
    inflation_radius: float = 0.6
    decay_rate: float = 4.0

    def __post_init__(self):
        if not (0.0 < self.inscribed_radius <= self.inflation_radius):
            raise InvalidRadiiError(
                f"need 0 < inscribed_radius <= inflation_radius, got "
                f"{self.inscribed_radius} and {self.inflation_radius}"
            )
        if not (self.decay_rate >= 0.0):  # a cost may only fall with distance
            raise MapError(f"decay_rate must be >= 0, got {self.decay_rate}")
        # The band ends within a grid's extent, whose square is finite.
        reach = min(self.inflation_radius - self.inscribed_radius, math.sqrt(np.finfo(float).max))
        if not math.isfinite(self.decay_rate * reach):
            raise MapError(f"decay_rate {self.decay_rate} times the band's reach {reach} overflows")


@dataclass
class OccupancyGrid:
    """Row-major occupancy grid; flat index k = i + width * j.

    states and costs are (height, width) uint8 arrays indexed [j, i].
    The cost array mirrors states: Unknown cells hold the COST_UNKNOWN
    marker and Occupied cells hold COST_LETHAL. Cell (0, 0) has its corner
    at the world origin; cell (i, j) has its center at ((i + 0.5) *
    resolution, (j + 0.5) * resolution).
    """

    width: int
    height: int
    resolution: float
    states: np.ndarray
    costs: np.ndarray
    inflation: InflationParams = InflationParams()

    def __post_init__(self):
        span = (self.width + self.height) * self.resolution  # squared, bounds dx² + dy²
        if not math.isfinite(span * span):
            raise MalformedMapError(f"resolution {self.resolution}: squared extent not finite")
        if self.resolution <= 0.0:
            raise ZeroResolutionError(f"resolution must be > 0, got {self.resolution}")
        if self.states.shape != (self.height, self.width):
            raise MalformedMapError(
                f"states shape {self.states.shape} != {(self.height, self.width)}"
            )
        if self.costs.shape != self.states.shape:
            raise MalformedMapError("costs shape differs from states shape")

    def in_bounds(self, i: int, j: int) -> bool:
        return 0 <= i < self.width and 0 <= j < self.height

    def world_to_cell(self, x: float, y: float) -> tuple[int, int]:
        """Cell containing the world point (cells are half-open squares)."""
        return int(math.floor(x / self.resolution)), int(math.floor(y / self.resolution))

    def cell_center(self, i, j):
        """World center of cell (i, j); i and j may be index arrays."""
        return (i + 0.5) * self.resolution, (j + 0.5) * self.resolution


# ---------------------------------------------------------------------------
# Map I/O
#
# ASCII format: header line "W H RES", then H rows of W characters,
# '.' = Free, '#' = Occupied ('?' = Unknown accepted only for beliefs).
# Row 0 of the text is grid row j = 0.
#
# PGM format: binary P5, maxval 255; byte <= occupied_threshold => Occupied.
# The header: optional whitespace and '#' comments (each to the end of its
# line), the magic P5, then width, height and maxval, each after a gap that
# opens with a whitespace byte and may hold comments, then exactly one
# whitespace byte before the pixels. Resolution and threshold arrive out of
# band (sidecar "key = value" text).
# ---------------------------------------------------------------------------

# The ASCII character of each state, indexed by UNKNOWN, FREE, OCCUPIED.
_ASCII_CHARS = np.frombuffer(b"?.#", dtype=np.uint8)
# The lookahead keeps a comment from ending before its newline.
_PGM_GAP = rb"(?:\s|#[^\n]*(?![^\n]))*"
_PGM_HEADER = re.compile(_PGM_GAP + rb"P5" + (rb"\s" + _PGM_GAP + rb"(\S+)") * 3 + rb"\s")


def _parse_ascii(content: str | bytes, allow_unknown: bool):
    if isinstance(content, bytes):
        try:
            content = content.decode("ascii")
        except UnicodeDecodeError as e:
            raise MalformedMapError(f"map is not ASCII text: {e}") from None
    lines = [ln for ln in content.splitlines() if ln.strip() != ""]
    if not lines:
        raise MalformedMapError("empty map content")
    header = lines[0].split()
    if len(header) != 3:
        raise MalformedMapError(f"header must be 'W H RES', got {lines[0]!r}")
    try:
        width, height = int(header[0]), int(header[1])
        resolution = float(header[2])
    except ValueError as e:
        raise MalformedMapError(f"bad header numbers: {e}") from None
    if width <= 0 or height <= 0:
        raise MalformedMapError(f"bad dimensions {width}x{height}")
    rows = lines[1:]
    if len(rows) != height:
        raise MalformedMapError(f"expected {height} rows, got {len(rows)}")
    for j, row in enumerate(rows):
        if len(row) != width:
            raise MalformedMapError(f"row {j} has {len(row)} chars, expected {width}")
    # Code points of every cell, compared with each state's character.
    codes = np.array(rows, dtype=f"U{width}").view(np.uint32).reshape(height, width)
    match = codes[:, :, None] == _ASCII_CHARS
    match[:, :, UNKNOWN] &= allow_unknown
    illegal = ~match.any(axis=2)
    if illegal.any():
        j, i = divmod(int(illegal.argmax()), width)
        raise MalformedMapError(f"illegal character {rows[j][i]!r} at row {j} col {i}")
    return resolution, match.argmax(axis=2).astype(np.uint8)


def _parse_pgm(data: bytes, occupied_threshold: int):
    header = isinstance(data, (bytes, bytearray)) and _PGM_HEADER.match(data)
    if not header:
        raise MalformedMapError("not a binary PGM (P5) file")
    try:
        width, height, maxval = map(int, header.groups())
    except ValueError as e:
        raise MalformedMapError(f"bad PGM header: {e}") from None
    if width <= 0 or height <= 0:
        raise MalformedMapError(f"bad dimensions {width}x{height}")
    if maxval != 255:
        raise MalformedMapError(f"PGM maxval must be 255, got {maxval}")
    pixels = data[header.end() : header.end() + width * height]
    if len(pixels) != width * height:
        raise MalformedMapError(
            f"PGM payload has {len(pixels)} bytes, expected {width * height}"
        )
    raw = np.frombuffer(pixels, dtype=np.uint8).reshape(height, width)
    return np.where(raw <= occupied_threshold, OCCUPIED, FREE).astype(np.uint8)


def grid_from_states(states: np.ndarray, resolution: float,
                     inflation: InflationParams = InflationParams()) -> OccupancyGrid:
    """Wrap a (height, width) state array in a grid with inflated costs."""
    height, width = states.shape
    grid = OccupancyGrid(width, height, resolution, states, np.empty_like(states),
                         inflation=inflation)
    _inflation_costs(states, resolution, inflation, grid.costs)
    return grid


def load_map(source, fmt: str = "ascii", *, resolution: float | None = None,
             occupied_threshold: int = 50,
             inflation: InflationParams = InflationParams()) -> OccupancyGrid:
    """Parse a ground-truth map (no Unknown cells) and inflate its costs.

    fmt="ascii" takes the text content (str, or bytes holding ASCII);
    fmt="pgm" takes the raw bytes plus a resolution (from the sidecar) and
    the occupied byte threshold.
    """
    if fmt == "ascii":
        resolution, states = _parse_ascii(source, allow_unknown=False)
    elif fmt == "pgm":
        if resolution is None:
            raise MalformedMapError("pgm maps need an explicit resolution")
        if not 0 <= occupied_threshold <= 255:
            raise MalformedMapError(f"occupied_threshold {occupied_threshold} is not a byte")
        states = _parse_pgm(source, occupied_threshold)
    else:
        raise MalformedMapError(f"unknown map format {fmt!r}")
    return grid_from_states(states, resolution, inflation)


def load_belief(content: str | bytes,
                inflation: InflationParams = InflationParams()) -> OccupancyGrid:
    """Parse a belief snapshot in the ASCII format, with '?' for Unknown."""
    resolution, states = _parse_ascii(content, allow_unknown=True)
    return grid_from_states(states, resolution, inflation)


def load_map_file(path, inflation: InflationParams = InflationParams()) -> OccupancyGrid:
    """Load a map file, picking the format from the extension.

    *.pgm expects a sidecar text file '<path>.txt' with 'resolution = <m>'
    and optionally 'occupied_threshold = <byte>' lines, and no other key.
    """
    path = str(path)
    with open(path, "rb") as f:
        data = f.read()
    if not path.endswith(".pgm"):
        return load_map(data, "ascii", inflation=inflation)
    meta = {"occupied_threshold": "50"}
    try:
        with open(path + ".txt") as f:
            for line in f:
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise MalformedMapError(f"bad sidecar line {line!r}")
                key, value = (part.strip() for part in line.split("=", 1))
                if key not in ("resolution", "occupied_threshold"):
                    raise MalformedMapError(f"unknown sidecar key {key!r}")
                meta[key] = value
        if "resolution" not in meta:
            raise MalformedMapError(f"sidecar for {path} lacks 'resolution'")
        resolution = float(meta["resolution"])
        threshold = int(meta["occupied_threshold"])
    except ValueError as e:
        raise MalformedMapError(f"sidecar for {path}: {e}") from None
    return load_map(data, "pgm", resolution=resolution,
                    occupied_threshold=threshold, inflation=inflation)


def to_ascii(grid: OccupancyGrid) -> str:
    """Serialize a grid to the ASCII format ('?' for Unknown cells)."""
    newlines = np.full((grid.height, 1), ord("\n"), dtype=np.uint8)
    rows = np.hstack((_ASCII_CHARS[grid.states], newlines))
    return f"{grid.width} {grid.height} {grid.resolution}\n" + rows.tobytes().decode("ascii")


# ---------------------------------------------------------------------------
# Costmap inflation and remapping
# ---------------------------------------------------------------------------

def _inflation_costs(states, resolution, p: InflationParams, costs):
    """Cost array for a state window under p (Euclidean cell-center
    distances), written into costs and returned. Costs are set in the box
    of the Occupied cells grown by the radius (clamped to the window): no
    cell outside it is in reach, and each inside has its nearest obstacle
    in it. Only the box gets scratch arrays; outside it a cell holds 0 or,
    if Unknown, the Unknown marker."""
    np.equal(states, UNKNOWN, out=costs.view(bool))  # a bool out skips a cast
    costs *= COST_UNKNOWN
    ring = math.ceil(min(p.inflation_radius / resolution, max(states.shape)))
    if (box := known_box(states, ring, level=OCCUPIED)) is not None:
        states, near = states[box], costs[box]
        occupied = states == OCCUPIED
        dist = ndimage.distance_transform_edt(~occupied) * resolution
        band = (dist > p.inscribed_radius) & (dist <= p.inflation_radius)
        decayed = np.floor(252.0 * np.exp(-p.decay_rate * (dist[band] - p.inscribed_radius)) + 0.5)
        near[band] = decayed.astype(np.uint8)
        near[dist <= p.inscribed_radius] = COST_INSCRIBED  # Occupied cells too, till the next line
        near[occupied] = COST_LETHAL
        near[states == UNKNOWN] = COST_UNKNOWN
    return costs


def inflate(grid: OccupancyGrid, inscribed_radius: float, inflation_radius: float,
            decay_rate: float) -> None:
    """Recompute grid.costs from grid.states, in place.

    Occupied cells get COST_LETHAL, Free cells within inscribed_radius of an
    Occupied cell get COST_INSCRIBED, Free cells at distance d in
    (inscribed_radius, inflation_radius] get round(252 * exp(-decay_rate *
    (d - inscribed_radius))), everything farther is 0. Unknown cells keep
    the COST_UNKNOWN marker. Distances are Euclidean between cell centers.
    The costs are written straight into grid.costs, and the distance
    transform and its scratch arrays cover only the obstacles' box grown by
    inflation_radius, not the grid, so a mostly Unknown belief costs little.
    """
    grid.inflation = InflationParams(inscribed_radius, inflation_radius, decay_rate)
    _inflation_costs(grid.states, grid.resolution, grid.inflation, grid.costs)


@functools.lru_cache(maxsize=64)
def _kernel(resolution: float, p: InflationParams, extent: int):
    """(r, dj, di, costs): the offsets, at most r <= extent cells in each
    axis, and the costs of the Free cells one obstacle inflates, from
    _inflation_costs of a one-obstacle patch (the same distances)."""
    r = int(min(p.inflation_radius / resolution + 1.0, extent))
    patch = np.full((2 * r + 1, 2 * r + 1), FREE, dtype=np.uint8)
    patch[r, r] = OCCUPIED
    costs = _inflation_costs(patch, resolution, p, np.empty_like(patch))
    dj, di = np.nonzero((costs > 0) & (costs < COST_LETHAL))
    return r, dj - r, di - r, costs[dj, di]


def reinflate_window(states, costs, cells, near, weights):
    """Stamp the costs around newly known cells of grids in flat buffers.

    states holds the grids row by row, each inside a border (neither Free
    nor Occupied) as wide as its kernel, and the cells' new states; costs
    a full inflate's of the states before. Cell cells[n]'s kernel is the
    buffer cells near[n] with the costs weights[n], padded with cells[n]
    at cost 0.
    A cost only falls with distance, so a Free cell's is the largest an
    Occupied cell in its kernel gives; a reveal only adds known cells, so
    the costs that change are the new cells' and those of the Free cells
    in a new obstacle's kernel. Writes them into costs.
    """
    lethal = states[cells] == OCCUPIED
    costs[cells] = np.where(lethal, COST_LETHAL, np.where(
        states[near] == OCCUPIED, weights, 0).max(axis=1, initial=0))
    near, weights = near[lethal], weights[lethal]
    free = states[near] == FREE
    np.maximum.at(costs, near[free], weights[free])


# Raw costs mapped into [0, 1], indexed by uint8 cost: the unknown marker -> 0,
# lethal (254) -> 1 exactly, anything else (raw + 1) / 255.
REMAPPED = (np.arange(256) + 1.0) / 255.0
REMAPPED[COST_LETHAL] = 1.0
REMAPPED[COST_UNKNOWN] = 0.0


# ---------------------------------------------------------------------------
# Simulated LiDAR reveal
# ---------------------------------------------------------------------------

def _march(flat, start, stride, g, angles, range_cells, k):
    """March beams through grids held in one flat buffer (Amanatides-Woo walk).

    Each grid is stored row by row, stride[b] cells to a row, inside a
    border of _OUTSIDE cells; beam b starts at g[b], the pose in cells, in the cell
    flat[start[b]]. It crosses cell boundaries in order of its ray parameter
    t, measured in cells. Per axis, the first k crossings (enough for every
    beam to pass its range or to leave its grid) are t0, t0 + delta, ...
    summed one delta at a time, so they round like a running t += delta. A
    stable sort of the x | y crossings merges them with the x crossing first
    on ties, so corner hits visit both adjacent cells (supercover behavior:
    diagonal walls block diagonally passing rays). A beam enters cells until
    its next crossing lies beyond range_cells[b], it would enter the
    border, or it enters an Occupied cell (a hit). So a walk is the prefix
    of sorted crossings within range (counted on the unsorted t), cut at its
    first Occupied (kept) or border cell; none is marched further.

    Returns (cells, counts): the flat index of every cell the beams entered
    (hit cells included), beam by beam, and how many each entered.
    """
    n = len(angles)
    c = np.floor(g)
    d = np.concatenate((np.cos(angles)[:, None], np.sin(angles)[:, None]), axis=1)
    step = np.sign(d).astype(start.dtype)
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = np.where(d != 0.0, 1.0 / d, np.inf)
        t0 = np.where(d > 0, (c + 1 - g) * inv, np.where(d < 0, (c - g) * inv, np.inf))
    increments = np.repeat(np.abs(inv)[:, :, None], k, axis=2)
    increments[:, :, 0] = t0
    t = np.cumsum(increments, axis=2).reshape(n, 2 * k)
    within = np.count_nonzero(t <= range_cells[:, None], axis=1)
    order = np.argsort(t, axis=1, kind="stable")[:, :max(1, within.max())]
    # Each crossing steps one cell along x, or one row along y.
    moves = np.where(order < k, step[:, :1], step[:, 1:] * stride[:, None])
    cells = np.cumsum(moves, axis=1, out=moves)
    cells += start[:, None]
    # Past the border the walk may leave the buffer; it is never seen there.
    state = np.take(flat, cells, mode="clip")
    first = (state >= OCCUPIED).argmax(axis=1)
    stop = np.take_along_axis(state, first[:, None], axis=1)[:, 0]
    counts = np.where(stop >= OCCUPIED, np.minimum(within, first + (stop == OCCUPIED)), within)
    return cells[np.arange(cells.shape[1]) < counts[:, None]], counts


def check_pose(truth: OccupancyGrid, pose: Pose) -> None:
    """Raise unless the pose is finite and stands on an in-bounds, not
    Occupied truth cell."""
    if not all(map(math.isfinite, (pose.x, pose.y, pose.theta))):
        raise PoseOutOfBoundsError(f"pose {pose} is not finite")
    pi, pj = truth.world_to_cell(pose.x, pose.y)
    if not truth.in_bounds(pi, pj):
        raise PoseOutOfBoundsError(f"pose cell ({pi}, {pj}) outside {truth.width}x{truth.height}")
    if truth.states[pj, pi] == OCCUPIED:
        raise PoseInsideObstacleError(f"pose cell ({pi}, {pj}) is occupied")


def adjacent_to(mask: np.ndarray) -> np.ndarray:
    """Cells with a 4-neighbour in mask; leading axes index a stack of masks.

    Row neighbours come from contiguous shifts of the raveled mask, which wrap
    each row's ends into the next; the first and last columns are then reset."""
    flat, out = np.ravel(mask), np.zeros(mask.size, dtype=bool)
    out[1:] = flat[:-1]
    out[:-1] |= flat[1:]
    out = out.reshape(mask.shape)
    if mask.shape[-1] > 1:
        out[..., 0], out[..., -1] = mask[..., 1], mask[..., -2]
    else:
        out[..., :1] = False
    out[..., 1:, :] |= mask[..., :-1, :]
    out[..., :-1, :] |= mask[..., 1:, :]
    return out


def known_box(states: np.ndarray, ring: int = 0, level: int = 1):
    """Slices of the box of the cells at or above level (by default the
    nonzero, known, cells) of a uint8 or bool array grown by ring cells and
    clipped to the grid, or None when there is no such cell. The rows come
    from a max over each row, read as bytes; the columns only from the band
    of those rows. No grid-sized array is made: with level=OCCUPIED, the
    largest state, a grid's Occupied box needs no Occupied mask."""
    states = states.view(np.uint8)
    rows = (states.max(axis=1, initial=0) >= level).nonzero()[0]
    if len(rows) == 0:
        return None
    cols = (states[rows[0]:rows[-1] + 1].max(axis=0) >= level).nonzero()[0]
    (j0, j1), (i0, i1), (h, w) = rows[[0, -1]].tolist(), cols[[0, -1]].tolist(), states.shape
    return (slice(max(j0 - ring, 0), min(j1 + 1 + ring, h)),
            slice(max(i0 - ring, 0), min(i1 + 1 + ring, w)))


# Padding of each candidate's beam interval (radians) and of its range test
# (cells); it covers the rounding of atan2, of the beam angles and of the
# march's crossings.
_CULL_EPS = 1e-9
# Marked beams marched at once; bounds the march's transient arrays.
_MARCH_GROUP = 512
# The state of the border cells around each grid in a scan's buffer: they
# stop a beam, as an Occupied cell does, but are never seen.
_OUTSIDE = 3


class BeamScanner:
    """The cull and the march of many runs' reveals, one batched call per
    round; built once per batch from each run's truth grid. Run k's slot,
    bounds[k] : bounds[k + 1] in flat (its truth's states), local (each
    cell's index i + width * j, -1 on the border), beliefs and costs (its
    belief, all Unknown at first), holds its grid row by row inside a
    border of _OUTSIDE cells that no kernel and no cull window crosses.
    grids[k] is run k's belief: an OccupancyGrid whose states and costs
    are views of its slot, which only scans write."""

    def __init__(self, truths: list[OccupancyGrid], lidar: LidarModel):
        self.truths = truths
        self.lidar = lidar
        # Each run's range, clamped past its grid's diagonal: no cell is farther.
        self.ranges = [min(lidar.max_range, (math.hypot(t.width, t.height) + 1) * t.resolution)
                       for t in truths]
        # Each map's inflation kernel, clamped to its extent, and its cull
        # window's reach: past its range, or past the grid from any pose.
        kernels = [_kernel(t.resolution, t.inflation, max(t.width, t.height) - 1)
                   for t in truths]
        self.reach = [min(math.ceil(rng / t.resolution) + 2, max(t.width, t.height) + 1)
                      for rng, t in zip(self.ranges, truths)]
        b = self.border = max(1, *(k[0] for k in kernels), *self.reach)
        self.flat = np.concatenate([np.pad(t.states, b, constant_values=_OUTSIDE).ravel()
                                    for t in truths])
        self.bounds = np.cumsum([0] + [(t.width + 2 * b) * (t.height + 2 * b) for t in truths])
        index = np.int32 if self.bounds[-1] < 2**31 else np.int64
        self.local = np.concatenate([
            np.pad(np.arange(t.states.size, dtype=index).reshape(t.states.shape), b,
                   constant_values=-1).ravel() for t in truths])
        self.beliefs, self.costs = np.where(self.local < 0, np.uint8(_OUTSIDE),
                                            np.uint8([[UNKNOWN], [COST_UNKNOWN]]))
        self.grids = [OccupancyGrid(t.width, t.height, t.resolution, *(
            a[lo:hi].reshape(t.height + 2 * b, -1)[b:-b, b:-b] for a in (self.beliefs, self.costs)),
            t.inflation) for lo, hi, t in zip(self.bounds, self.bounds[1:], truths)]
        # Each run's kernel as offsets in the buffer and costs, padded to one length.
        n = max(len(k[3]) for k in kernels)
        self.offsets = np.array([np.pad(dj * (t.width + 2 * b) + di, (0, n - len(dj)))
                                 for (_, dj, di, _), t in zip(kernels, truths)], dtype=index)
        self.weights = np.array([np.pad(w, (0, n - len(w))) for *_, w in kernels])
        # Beam k's angle from pose.theta, ascending within [0, 2 pi).
        k = np.arange(lidar.beam_count, dtype=np.float64)
        self.beams = lidar.angular_span * k / lidar.beam_count

    def scan(self, runs: list[tuple[int, Pose]]) -> list[np.ndarray]:
        """Cull, march and filter the beams of each (run, pose), each run at
        most once, and write what they reveal into the runs' beliefs.

        Returns, per run, the indices i + width * j, ascending, of its cells
        that become known; their states and one reinflate_window stamp for
        all runs that changed are written into the slots. Every pose is
        checked before any run's cells are read, so one run's bad pose
        never reads another's map.
        """
        floats, ints, crossings, b = [], [], 0, self.border
        for run, pose in runs:
            truth = self.truths[run]
            check_pose(truth, pose)
            w, h, res, rng = truth.width, truth.height, truth.resolution, self.ranges[run]
            gx, gy, range_cells = pose.x / res, pose.y / res, rng / res
            c = range_cells + _CULL_EPS
            floats.append((gx, gy, pose.theta, range_cells, c * c, pose.x, pose.y, res, rng * rng))
            pi, pj = math.floor(gx), math.floor(gy)
            ints.append((pi, pj, self.bounds[run] + (pj + b) * (w + 2 * b) + pi + b, w + 2 * b, w))
            # Enough crossings per axis to pass the range or to leave the grid.
            crossings = max(crossings,
                            math.ceil(min(range_cells, max(pi, w - 1 - pi, pj, h - 1 - pj))) + 2)
        # Per run, f: pose in cells, theta, range in cells, squared cull range,
        # pose, resolution, squared range; i: pose cell, its buffer index, row length, width.
        f, i = np.array(floats), np.array(ints, dtype=self.local.dtype)
        # The belief cells around each pose, border cells past its grid.
        r = max(self.reach[run] for run, _ in runs)
        window = np.arange(-r, r + 1)
        stack = self.beliefs[i[:, 2, None, None] + window[:, None] * i[:, 3, None, None]
                             + window]

        def known(run, cells):
            # The entered cells still Unknown that become known: hits
            # (Occupied), and Free cells whose centre lies within range, so
            # the revealed set is the rasterized disk.
            unknown = self.beliefs[cells] == UNKNOWN
            run, cells = run[unknown], cells[unknown]
            cj, ci = np.divmod(self.local[cells], i[run, 4])
            res = f[run, 7]
            dx, dy = (ci + 0.5) * res - f[run, 5], (cj + 0.5) * res - f[run, 6]
            keep = (dx**2 + dy**2 <= f[run, 8]) | (self.flat[cells] == OCCUPIED)
            return np.unique(cells[keep])

        rb, beam = np.nonzero(self._cull(stack, f, i))
        # Each run's pose cell (known() keeps it only while Unknown, before
        # the run's first reveal), then the beams, marched and filtered a
        # group at a time so a large batch never holds every beam's
        # crossings or entered cells at once; each group's cells come out unique.
        found = [known(np.arange(len(runs)), i[:, 2])]
        for a in range(0, len(rb), _MARCH_GROUP):
            group = slice(a, a + _MARCH_GROUP)
            fb, ib = f[rb[group]], i[rb[group]]
            entered, counts = _march(self.flat, ib[:, 2], ib[:, 3], fb[:, :2],
                                     fb[:, 2] + self.beams[beam[group]], fb[:, 3], crossings)
            found.append(known(np.repeat(rb[group], counts), entered))
        cells = np.unique(np.concatenate(found))
        # Each slot's new cells, then their states and one stamp for every run.
        ends = np.searchsorted(cells, self.bounds)
        if cells.size:
            owner = np.repeat(np.arange(len(self.truths)), np.diff(ends))
            self.beliefs[cells] = self.flat[cells]
            reinflate_window(self.beliefs, self.costs, cells,
                             self.offsets[owner] + cells[:, None], self.weights[owner])
        local, ends = self.local[cells], ends.tolist()
        return [local[ends[run] : ends[run + 1]] for run, _ in runs]

    def _cull(self, stack, f, i) -> np.ndarray:
        """(runs, beams) mask of the beams that can enter an Unknown belief cell.

        All beams are marked while the pose cell is Unknown; else a beam
        enters its first Unknown cell U from a known Free 4-neighbour F,
        across their shared edge. Each F|U edge whose line has the pose on
        F's side (within _CULL_EPS), so that U's nearest point lies on it,
        and that point within max_range, marks the beams whose angle lies
        between those of its ends, padded by _CULL_EPS; all of them if its
        closed segment holds the pose (the x-first tie-break crosses it at t
        = 0 whatever the beam's direction). Each run's edges come from its
        window of the stack of belief cells around the poses; cells past the
        grid read _OUTSIDE, so they are never U or F.
        """
        (m, width, _), n = stack.shape, self.lidar.beam_count
        g, theta, p, r = f[:, :2], f[:, 2], i[:, :2], width // 2
        # Offsets from the pose, in cells, of the left (edges[0]) and right
        # (edges[1]) edge of each window column ([:, :, 0]) and row
        # ([:, :, 1]), and of the point of its squares nearest the pose.
        edges = np.add.outer((0.0, 1.0), (p[:, :, None] + np.arange(-r, r + 1))
                             - g[:, :, None])
        sq = np.maximum(edges[0], np.minimum(edges[1], 0.0)) ** 2
        near = sq[:, 1, :, None] + sq[:, 0, None, :] <= f[:, 4, None, None]
        s, cj, ci = np.nonzero((stack == UNKNOWN) & near & adjacent_to(stack == FREE))
        # Each U's (never on the window's rim) left, right, bottom and top edge
        # as a box (x0, x1, y0, y1) where F lies across it, facing the pose.
        (xl, xr), (yb, yt) = edges[:, s, 0, ci], edges[:, s, 1, cj]
        free = stack[s, cj + [[0], [0], [-1], [1]], ci + [[-1], [1], [0], [0]]] == FREE
        side, e = np.nonzero(free & (np.array((xl, -xr, yb, -yt)) > -_CULL_EPS))
        boxes = np.array(((xl, xl, yb, yt), (xr, xr, yb, yt), (xl, xr, yb, yb), (xl, xr, yt, yt)))
        x0, x1, y0, y1 = boxes[side, :, e].T
        s = s[e]
        # Seen from outside U, every corner of U lies within 3 pi / 4 of the
        # direction of its centre, so offsets from it never wrap; offsets
        # from an edge's midpoint can, for a pose just off the edge's line.
        two_pi = 2.0 * math.pi
        centre = np.arctan2(yb + 0.5, xl + 0.5)[e]
        angles = np.arctan2((y0, y1), (x0, x1))
        offsets = np.mod(angles - centre + math.pi, two_pi) - math.pi
        lo = np.mod(centre + offsets.min(axis=0) - (theta[s] + _CULL_EPS), two_pi)
        hi = lo + np.ptp(offsets, axis=0) + 2.0 * _CULL_EPS
        hi[(x0 <= 0.0) & (0.0 <= x1) & (y0 <= 0.0) & (0.0 <= y1)] = np.inf
        # Each interval, and its wrap past 2 pi, covers a run of beams,
        # summed by one difference array with a stretch of n + 1 entries per run.
        base = s * (n + 1)
        starts = np.searchsorted(self.beams, (lo, lo - two_pi), "left") + base
        ends = np.searchsorted(self.beams, (hi, hi - two_pi), "right") + base
        size = m * (n + 1)
        depth = np.cumsum(np.bincount(starts.ravel(), minlength=size)
                          - np.bincount(ends.ravel(), minlength=size))
        return (depth.reshape(m, n + 1)[:, :n] > 0) | (stack[:, r, r, None] == UNKNOWN)


def raycast_reveal(belief: OccupancyGrid, cells: np.ndarray) -> np.ndarray:
    """cells, unchanged: one run's cells from a BeamScanner scan whose slot
    is belief, which the scan has written. It only marks the reveal for
    perfbench/tracing.py, which wraps explorer.raycast_reveal by name."""
    return cells


# ---------------------------------------------------------------------------
# Coverage metric
# ---------------------------------------------------------------------------

def reachable_free_mask(truth: OccupancyGrid, start: Pose) -> np.ndarray:
    """Free truth cells 4-connected to the start cell."""
    si, sj = truth.world_to_cell(start.x, start.y)
    if not truth.in_bounds(si, sj) or truth.states[sj, si] != FREE:
        raise StartUnreachableError(f"start cell ({si}, {sj}) is not a free truth cell")
    free = truth.states == FREE
    labels, _ = ndimage.label(free, structure=_FOUR_CONNECTED)
    return labels == labels[sj, si]


def exploration_rate(belief: OccupancyGrid, reachable: np.ndarray) -> float:
    """Fraction of the reachable cells that are known in the belief.

    reachable is the mask reachable_free_mask gives for the truth grid and
    the start pose.
    """
    if belief.states.shape != reachable.shape:
        raise MapError("belief and reachable mask must share dimensions")
    total = int(np.count_nonzero(reachable))
    known = int(np.count_nonzero(reachable & (belief.states != UNKNOWN)))
    return known / total
