import math
import re
import tracemalloc
from dataclasses import astuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (STATE_CHARS, clone_grid, grid_from_rows, remap_cost, reveal,
                      unknown_grid)
from reference import (oracle_beam_walks, oracle_reveal_sets, reference_adjacent,
                       reference_inflation_costs)
from explorebench import gridmap
from explorebench.mapgen import TIERS, generate_map, pick_start
from explorebench.gridmap import (COST_INSCRIBED, COST_LETHAL, COST_UNKNOWN,
                                  FREE, OCCUPIED, UNKNOWN, BeamScanner,
                                  InflationParams,
                                  InvalidRadiiError, LidarModel,
                                  MalformedMapError, MapError, OccupancyGrid,
                                  Pose,
                                  PoseInsideObstacleError,
                                  PoseOutOfBoundsError, StartUnreachableError,
                                  ZeroResolutionError, adjacent_to,
                                  exploration_rate, inflate, known_box,
                                  load_belief, load_map, load_map_file,
                                  reachable_free_mask,
                                  REMAPPED, to_ascii, wrap_angle)


# ---------------------------------------------------------------------------
# Map I/O
# ---------------------------------------------------------------------------

class TestLoadMap:
    def test_all_free_3x3(self):
        grid = load_map("3 3 0.5\n...\n...\n...\n")
        assert grid.width == 3 and grid.height == 3
        assert grid.resolution == 0.5
        assert (grid.states == FREE).all()

    def test_center_obstacle(self):
        grid = load_map("3 3 0.5\n...\n.#.\n...\n")
        assert grid.states[1, 1] == OCCUPIED
        assert int((grid.states == FREE).sum()) == 8
        assert grid.costs[1, 1] == COST_LETHAL

    def test_pgm_against_byte_scan(self, rng):
        raw = rng.randint(0, 256, size=(64, 64)).astype(np.uint8)
        payload = (b"P5\n# synthetic\n64 64\n255\n" + raw.tobytes())
        grid = load_map(payload, fmt="pgm", resolution=0.05)
        assert (grid.width, grid.height) == (64, 64)
        # Oracle: direct byte enumeration with the default threshold.
        expected = sum(1 for b in raw.tobytes() if b <= 50)
        assert int((grid.states == OCCUPIED).sum()) == expected

    def test_pgm_threshold(self):
        payload = b"P5 2 2 255\n" + bytes([0, 100, 200, 255])
        for threshold, occupied in ((0, 1), (100, 2), (255, 4)):
            grid = load_map(payload, fmt="pgm", resolution=1.0, occupied_threshold=threshold)
            assert int((grid.states == OCCUPIED).sum()) == occupied
        # Past a byte's range a threshold would read every cell as Occupied
        # (300) or as Free (-1).
        for threshold in (-1, 256, 300):
            with pytest.raises(MalformedMapError):
                load_map(payload, fmt="pgm", resolution=1.0, occupied_threshold=threshold)

    @pytest.mark.parametrize("content", [
        "",
        "3 3\n...\n...\n...\n",
        "3 3 0.5\n...\n...\n",
        "3 3 0.5\n...\n..\n...\n",
        "3 3 0.5\n...\n.?.\n...\n",
        "3 3 0.5\n...\n.x.\n...\n",
        "0 3 0.5\n",
        "3 3 nan\n...\n...\n...\n",
        "3 3 inf\n...\n...\n...\n",
        b"3 3 0.5\n...\n.\xff.\n...\n",
        "3 1 0.5\n.\xe9.\n",
        "10000000000000 1 0.5\n.\n",
        "99999999999999999999999 1 0.5\n.\n",
    ])
    def test_malformed_ascii(self, content):
        with pytest.raises(MalformedMapError):
            load_map(content)

    @pytest.mark.parametrize("content,needle", [
        ("3 2 0.5\n.x.\n..y\n", "'x' at row 0 col 1"),
        ("3 2 0.5\n...\n#?x\n", "'?' at row 1 col 1"),
        ("3 1 0.5\n.\xe9\x00\n", "'\xe9' at row 0 col 1"),
    ])
    def test_illegal_character_names_first_cell(self, content, needle):
        with pytest.raises(MalformedMapError, match=re.escape(needle)):
            load_map(content)

    def test_zero_resolution(self):
        with pytest.raises(ZeroResolutionError):
            load_map("2 2 0\n..\n..\n")

    @pytest.mark.parametrize("payload", [
        b"P2 2 2 255\n....",
        b"P5 2 2 127\n" + bytes(4),
        b"P5 2 2 255\n" + bytes(3),
        b"P5#c\n2 2 255\n" + bytes(4),
        b"P5\n# 2 2 255\n" + bytes(4),
    ])
    def test_malformed_pgm(self, payload):
        with pytest.raises(MalformedMapError):
            load_map(payload, fmt="pgm", resolution=1.0)

    @pytest.mark.parametrize("header", [
        b"# c\nP5 2 1 255\n",
        b"P5\n# c\n2 1 # c\n255\n",
        b"P5 2 1 255\n",
    ])
    @pytest.mark.parametrize("first_pixel", [b"\x00", b"\n"])
    def test_pgm_header_grammar(self, header, first_pixel):
        # Exactly one whitespace byte ends the header, so a first pixel
        # byte that is whitespace is still a pixel.
        grid = load_map(header + first_pixel + b"\xff", fmt="pgm", resolution=1.0)
        assert grid.states.tolist() == [[OCCUPIED, FREE]]

    def test_pgm_needs_resolution(self):
        with pytest.raises(MalformedMapError):
            load_map(b"P5 1 1 255\n\x00", fmt="pgm")

    def test_load_map_file_with_sidecar(self, tmp_path):
        pgm = tmp_path / "world.pgm"
        pgm.write_bytes(b"P5 2 2 255\n" + bytes([0, 255, 255, 0]))
        (tmp_path / "world.pgm.txt").write_text(
            "resolution = 0.1\noccupied_threshold = 50\n")
        grid = load_map_file(pgm)
        assert grid.resolution == 0.1
        assert int((grid.states == OCCUPIED).sum()) == 2

    @pytest.mark.parametrize("sidecar", [
        "resolution = abc\n",
        "resolution = nan\n",
        "resolution = 0.1\noccupied_threshold = x\n",
        "resolution = 0.1\noccupied_threshold = 256\n",
        "resolution = 0.1\noccupied_threshold = -1\n",
        "resolution = 0.1\nocupied_threshold = 10\n",
    ])
    def test_malformed_sidecar(self, tmp_path, sidecar):
        pgm = tmp_path / "world.pgm"
        pgm.write_bytes(b"P5 2 2 255\n" + bytes([0, 255, 255, 0]))
        (tmp_path / "world.pgm.txt").write_text(sidecar)
        with pytest.raises(MalformedMapError):
            load_map_file(pgm)

    def test_belief_roundtrip(self):
        text = "3 2 0.5\n.?#\n#?.\n"
        belief = load_belief(text)
        assert belief.states[0, 1] == UNKNOWN
        assert belief.costs[0, 1] == COST_UNKNOWN
        assert to_ascii(belief) == text

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_to_ascii_matches_per_cell_join(self, data):
        h = data.draw(st.integers(1, 12), label="h")
        w = data.draw(st.integers(1, 12), label="w")
        res = data.draw(st.sampled_from([0.05, 0.25, 1.0, 2.5]), label="res")
        cells = data.draw(st.lists(st.sampled_from([UNKNOWN, FREE, OCCUPIED]),
                                   min_size=h * w, max_size=h * w), label="cells")
        states = np.array(cells, dtype=np.uint8).reshape(h, w)
        grid = OccupancyGrid(w, h, res, states, np.zeros_like(states))
        char = {state: ch for ch, state in STATE_CHARS.items()}
        rows = ["".join(char[s] for s in row) + "\n" for row in states.tolist()]
        text = to_ascii(grid)
        assert text == f"{w} {h} {res}\n" + "".join(rows)
        assert np.array_equal(load_belief(text).states, states)


# Loaders take bytes from outside the program: whatever they get, they
# either return a grid or raise a MapError.
_ASCII_ISH = st.text(alphabet="0123456789 .#?x\n\r\t-+e_na\xe9", max_size=60)
_PGM_TOKENS = st.sampled_from([b"P5", b"P2", b"1", b"2", b"255", b"-1", b"0",
                               b"+2", b"1_0", b"#c\n", b"#", b" ", b"\n", b"\t"])
_PGM_ISH = st.builds(lambda tokens, tail: b"".join(tokens) + tail,
                     st.lists(_PGM_TOKENS, max_size=12), st.binary(max_size=8))


class TestLoaderFuzz:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.binary(max_size=60), st.text(max_size=60), _ASCII_ISH,
                     _ASCII_ISH.map(lambda t: t.encode("utf-8"))))
    def test_ascii_raises_only_map_error(self, content):
        for load in (load_map, load_belief):
            try:
                grid = load(content)
            except MapError:
                continue
            assert grid.states.shape == (grid.height, grid.width)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.binary(max_size=60), st.text(max_size=20), _PGM_ISH))
    def test_pgm_raises_only_map_error(self, payload):
        try:
            grid = load_map(payload, fmt="pgm", resolution=1.0)
        except MapError:
            return
        assert grid.states.shape == (grid.height, grid.width)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(st.binary(max_size=60),
                     st.text(alphabet="resolution_thd =#.0123456789e-\n", max_size=60)
                     .map(str.encode)))
    def test_sidecar_raises_only_map_error(self, tmp_path_factory, sidecar):
        pgm = tmp_path_factory.getbasetemp() / "world.pgm"
        pgm.write_bytes(b"P5 2 2 255\n" + bytes([0, 255, 255, 0]))
        pgm.with_suffix(".pgm.txt").write_bytes(sidecar)
        try:
            grid = load_map_file(pgm)
        except MapError:
            return
        assert grid.states.shape == (2, 2)


# ---------------------------------------------------------------------------
# Inflation and cost remap
# ---------------------------------------------------------------------------

class TestInflate:
    def test_no_obstacles_all_zero(self):
        grid = grid_from_rows(["...", "...", "..."])
        assert (grid.costs == 0).all()

    def test_single_obstacle_inscribed_neighbors(self):
        rows = ["." * 7 for _ in range(7)]
        grid = grid_from_rows(rows, resolution=1.0, inflate_costs=False)
        grid.states[3, 3] = OCCUPIED
        inflate(grid, inscribed_radius=1.0, inflation_radius=3.0, decay_rate=0.5)
        assert grid.costs[3, 3] == COST_LETHAL
        for i, j in ((2, 3), (4, 3), (3, 2), (3, 4)):
            assert grid.costs[j, i] == COST_INSCRIBED

    def test_costs_match_brute_force_distance_field(self, rng):
        # Oracle: all-pairs Euclidean distances, spec cost mapping.
        for _ in range(20):
            h, w = rng.randint(4, 33), rng.randint(4, 33)
            states = np.where(rng.rand(h, w) < 0.15, OCCUPIED, FREE).astype(np.uint8)
            states[rng.rand(h, w) < 0.1] = UNKNOWN
            grid = OccupancyGrid(w, h, 0.5, states, np.zeros_like(states))
            r_in, r_out, rate = 0.6, 1.7, 1.3
            inflate(grid, r_in, r_out, rate)
            occ = [(i, j) for j in range(h) for i in range(w)
                   if states[j, i] == OCCUPIED]
            for j in range(h):
                for i in range(w):
                    if states[j, i] == UNKNOWN:
                        assert grid.costs[j, i] == COST_UNKNOWN
                        continue
                    if states[j, i] == OCCUPIED:
                        assert grid.costs[j, i] == COST_LETHAL
                        continue
                    if not occ:
                        assert grid.costs[j, i] == 0
                        continue
                    d = min(math.hypot(i - oi, j - oj) for oi, oj in occ) * 0.5
                    if d <= r_in:
                        expected = COST_INSCRIBED
                    elif d <= r_out:
                        expected = math.floor(252.0 * math.exp(-rate * (d - r_in)) + 0.5)
                    else:
                        expected = 0
                    assert grid.costs[j, i] == expected, (i, j)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_whole_grid_oracle(self, data):
        # A mostly Unknown grid whose obstacles lie only in a sub-box (often
        # on an edge), one obstacle, or none; radii that are exact multiples
        # of the cell, arbitrary, or beyond any grid.
        h, w = data.draw(st.integers(1, 120)), data.draw(st.integers(1, 120))
        res = data.draw(st.sampled_from((0.05, 0.1, 0.25, 0.5, 1.0)))
        radius = data.draw(st.one_of(st.integers(1, 12).map(lambda k: k * res),
                                     st.floats(0.01, 4.0), st.sampled_from((1e308, math.inf))))
        inscribed = data.draw(st.floats(0.01, min(radius, 2.0)))
        rate = data.draw(st.floats(0.05, 3.0))
        rng = np.random.RandomState(data.draw(st.integers(0, 2**32 - 1)))
        states = np.where(rng.rand(h, w) < data.draw(st.sampled_from((0.5, 0.8, 0.95))),
                          UNKNOWN, FREE).astype(np.uint8)
        obstacles = data.draw(st.sampled_from(("none", "one", "box")))
        if obstacles == "one":
            states[rng.randint(h), rng.randint(w)] = OCCUPIED
        elif obstacles == "box":
            j0 = data.draw(st.one_of(st.just(0), st.integers(0, h - 1)))
            j1 = data.draw(st.one_of(st.just(h), st.integers(j0 + 1, h)))
            i0 = data.draw(st.one_of(st.just(0), st.integers(0, w - 1)))
            i1 = data.draw(st.one_of(st.just(w), st.integers(i0 + 1, w)))
            box = states[j0:j1, i0:i1]
            box[rng.rand(*box.shape) < data.draw(st.sampled_from((0.01, 0.1, 0.5)))] = OCCUPIED
        grid = OccupancyGrid(w, h, res, states, np.zeros_like(states))
        inflate(grid, inscribed, radius, rate)
        expected = reference_inflation_costs(states, res, inscribed, radius, rate)
        assert (grid.costs == expected).all()

    def test_in_place_memory_bounded(self):
        # A 1024 x 1024 belief that knows one 64 x 64 patch with a short
        # wall in it: the costs are written in place, and only the wall's
        # box gets scratch arrays. Three grid-sized temporaries (an Occupied
        # mask, a fresh cost array and an Unknown mask) peaked at 3x.
        grid = unknown_grid(1024, 1024, 0.05)
        grid.states[480:544, 480:544] = FREE
        grid.states[512, 500:520] = OCCUPIED
        expected = reference_inflation_costs(grid.states, 0.05, *astuple(InflationParams()))
        costs = grid.costs
        tracemalloc.start()
        try:
            inflate(grid, *astuple(InflationParams()))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert grid.costs is costs and (costs == expected).all()
        assert peak < 0.1 * grid.states.nbytes

    def test_zero_size_grid(self):
        for h, w in ((3, 0), (0, 3), (0, 0)):
            grid = unknown_grid(w, h, 0.25)
            inflate(grid, *astuple(InflationParams()))
            assert grid.costs.shape == (h, w)

    def test_monotone_in_distance(self):
        rows = ["." * 15 for _ in range(1)]
        grid = grid_from_rows(rows, resolution=1.0, inflate_costs=False)
        grid.states[0, 0] = OCCUPIED
        inflate(grid, 1.0, 6.0, 0.7)
        costs = [int(grid.costs[0, i]) for i in range(1, 15)]
        assert all(a >= b for a, b in zip(costs, costs[1:]))

    def test_boundary_cell_at_inflation_radius(self):
        grid = grid_from_rows(["." * 9], resolution=1.0, inflate_costs=False)
        grid.states[0, 0] = OCCUPIED
        inflate(grid, 1.0, 3.0, 0.5)
        expected = math.floor(252.0 * math.exp(-0.5 * (3.0 - 1.0)) + 0.5)
        assert expected > 0
        assert grid.costs[0, 3] == expected
        assert grid.costs[0, 4] == 0

    def test_invalid_radii(self):
        grid = grid_from_rows(["..", ".."])
        with pytest.raises(InvalidRadiiError):
            inflate(grid, 0.0, 1.0, 1.0)
        with pytest.raises(InvalidRadiiError):
            inflate(grid, 2.0, 1.0, 1.0)


# Two parameter sets: at resolution 0.25 the second's inflation_radius is
# two cells exactly.
INFLATIONS = (InflationParams(), InflationParams(0.25, 0.5, 2.0))


def stamp(reveals):
    """One reinflate_window call for every (grid, cells, states), on the
    buffers of a scanner built from the grids, each slot seeded from its
    grid; copies each slot back."""
    scanner = BeamScanner([grid for grid, _, _ in reveals], LidarModel())
    b, at = scanner.border, []
    for k, (grid, cells, states) in enumerate(reveals):
        scanner.grids[k].states[...], scanner.grids[k].costs[...] = grid.states, grid.costs
        cj, ci = np.divmod(cells, grid.width)
        at.append(scanner.bounds[k] + (cj + b) * (grid.width + 2 * b) + ci + b)
        scanner.beliefs[at[-1]] = states
    ids, cells = np.repeat(np.arange(len(reveals)), [len(a) for a in at]), np.concatenate(at)
    gridmap.reinflate_window(scanner.beliefs, scanner.costs, cells,
                             scanner.offsets[ids] + cells[:, None], scanner.weights[ids])
    for (grid, _, _), slot in zip(reveals, scanner.grids):
        grid.states[...], grid.costs[...] = slot.states, slot.costs


class TestReinflateWindow:
    """One call stamps the costs of many grids' newly known cells."""

    @staticmethod
    def _reveals(rng):
        # Per resolution and parameter set (one with an inscribed band
        # wider than the cells, one whose radius the grid's extent clamps):
        # boxes of up to 2 x 2 changed cells on each edge and corner of a
        # grid and inside it, on grids with and without Occupied cells, and
        # a 1 x 1 grid. The changed cells are Unknown in the grid and take
        # their truth states; the grid's costs are a full inflate's.
        reveals = []
        for res in (0.0625, 0.1, 0.25, 0.5):
            for params in (*INFLATIONS, InflationParams(0.3, 0.7, 3.0),
                           InflationParams(0.12, 1e308, 0.5)):
                for w, h, p_occupied in ((14, 11, 0.25), (9, 16, 0.0), (1, 1, 0.0)):
                    truth = np.where(rng.rand(h, w) < p_occupied, OCCUPIED,
                                     FREE).astype(np.uint8)
                    for i, j in {(0, 0), (w - 1, 0), (0, h - 1), (w - 1, h - 1),
                                 (w // 2, 0), (w // 2, h - 1), (0, h // 2),
                                 (w - 1, h // 2), (w // 2, h // 2)}:
                        box = np.zeros((h, w), dtype=bool)
                        box[j : j + 1 + rng.randint(2), i : i + 1 + rng.randint(2)] = True
                        states = truth.copy()
                        states[box | (rng.rand(h, w) < 0.2)] = UNKNOWN
                        grid = OccupancyGrid(w, h, res, states, np.zeros_like(states))
                        inflate(grid, *astuple(params))
                        cells = np.flatnonzero(box)
                        reveals.append((grid, cells, truth.flat[cells]))
        return reveals

    def test_stamp_equals_full_inflate(self, rng):
        for _ in range(2):
            reveals = self._reveals(rng)
            stamp(reveals)
            for grid, _, _ in reveals:
                full = clone_grid(grid)
                inflate(full, *astuple(grid.inflation))
                assert (grid.costs == full.costs).all()

    def test_kernel_clamped_to_extent(self):
        r, dj, di, costs = gridmap._kernel(0.1, InflationParams(0.12, 1e308, 4.0), 5)
        assert r == max(np.abs(dj).max(), np.abs(di).max()) == 5
        assert len(costs) == 11 * 11 - 1 and (costs > 0).all()


class TestRemapCost:
    def test_endpoints(self):
        m = REMAPPED[np.array([COST_UNKNOWN, COST_LETHAL, 0], dtype=np.uint8)]
        assert m.tolist() == [0.0, 1.0, 1 / 255]

    def test_total_monotone_bounded(self):
        values = REMAPPED[np.arange(255, dtype=np.uint8)].tolist()
        assert all(0.0 <= v <= 1.0 for v in values)
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_vectorized_matches_scalar(self):
        costs = np.arange(256, dtype=np.uint8).reshape(16, 16)
        vec = REMAPPED[costs]
        for j in range(16):
            for i in range(16):
                assert vec[j, i] == remap_cost(int(costs[j, i]))


# ---------------------------------------------------------------------------
# Raycast reveal
# ---------------------------------------------------------------------------

def make_belief_like(truth):
    return unknown_grid(truth.width, truth.height, truth.resolution, truth.inflation)


def _off_edge(edge, outward, ulps):
    """The float ulps steps from edge toward outward."""
    for _ in range(ulps):
        edge = np.nextafter(edge, outward)
    return float(edge)


# One beam into the square [1, 2] x [1, 2] from 1 and 4 ulps outside each
# of its edges.
_NEAR_EDGE_POSES = {
    f"off-{name}-{ulps}ulp": pose for ulps in (1, 4) for name, pose in (
        ("left", Pose(_off_edge(1.0, 0.0, ulps), 1.5, math.pi / 4)),
        ("right", Pose(_off_edge(2.0, 3.0, ulps), 1.5, 5 * math.pi / 4)),
        ("bottom", Pose(1.5, _off_edge(1.0, 0.0, ulps), 3 * math.pi / 4)),
        ("top", Pose(1.5, _off_edge(2.0, 3.0, ulps), -math.pi / 4)))}


class TestRaycastReveal:
    def test_empty_map_reveals_exact_disk(self):
        truth = grid_from_rows(["." * 21] * 21, resolution=0.5)
        belief = make_belief_like(truth)
        pose = Pose(*truth.cell_center(10, 10))
        lidar = LidarModel(beam_count=360, max_range=5.0)
        reveal(belief, truth, pose, lidar)
        revealed = {(i, j) for j in range(21) for i in range(21)
                    if belief.states[j, i] != UNKNOWN}
        disk = {(i, j) for j in range(21) for i in range(21)
                if math.hypot(i - 10, j - 10) <= 10.0}
        assert revealed == disk

    def test_full_wall_occludes_everything_behind(self):
        rows = ["........."] * 4 + ["#########"] + ["........."] * 4
        truth = grid_from_rows(rows, resolution=0.5)
        belief = make_belief_like(truth)
        pose = Pose(*truth.cell_center(4, 2))
        reveal(belief, truth, pose, LidarModel(beam_count=720, max_range=10.0))
        assert (belief.states[5:, :] == UNKNOWN).all()
        assert (belief.states[4, :] != FREE).all()  # wall row never Free

    def test_single_beam_east(self):
        truth = grid_from_rows(["........."] * 7, resolution=0.5,
                               inflate_costs=False)
        truth.states[3, 5] = OCCUPIED
        inflate(truth, 0.12, 0.6, 4.0)
        belief = make_belief_like(truth)
        pose = Pose(*truth.cell_center(2, 3))
        lidar = LidarModel(beam_count=1, max_range=10.0)
        reveal(belief, truth, pose, lidar)
        known = {(i, j) for j in range(7) for i in range(9)
                 if belief.states[j, i] != UNKNOWN}
        assert known == {(2, 3), (3, 3), (4, 3), (5, 3)}
        assert belief.states[3, 5] == OCCUPIED
        assert belief.states[3, 3] == FREE and belief.states[3, 4] == FREE

    def test_pose_errors(self):
        truth = grid_from_rows(["...", ".#.", "..."])
        belief = make_belief_like(truth)
        lidar = LidarModel()
        with pytest.raises(PoseOutOfBoundsError):
            reveal(belief, truth, Pose(-1.0, 0.1), lidar)
        with pytest.raises(PoseInsideObstacleError):
            reveal(belief, truth, Pose(*truth.cell_center(1, 1)), lidar)
        # Without the finiteness check, x and y failed untyped in
        # world_to_cell and a NaN theta revealed only the pose cell.
        for pose in (Pose(math.nan, 1.0), Pose(math.inf, 1.0), Pose(1.0, -math.inf),
                     Pose(0.5, 0.5, math.nan), Pose(0.5, 0.5, math.inf),
                     Pose(0.5, 0.5, -math.inf)):
            with pytest.raises(PoseOutOfBoundsError):
                reveal(belief, truth, pose, lidar)
        assert (belief.states == UNKNOWN).all()

    def test_belief_never_contradicts_truth(self, rng):
        truth = self._random_truth(rng, 25, 25)
        belief = make_belief_like(truth)
        lidar = LidarModel(beam_count=90, max_range=4.0)
        for _ in range(8):
            pose = self._random_free_pose(rng, truth)
            reveal(belief, truth, pose, lidar)
            known = belief.states != UNKNOWN
            assert (belief.states[known] == truth.states[known]).all()

    def test_matches_scalar_oracle_on_random_grids(self, rng):
        lidar = LidarModel(beam_count=360, max_range=6.0)
        for _ in range(25):
            h, w = rng.randint(8, 42), rng.randint(8, 42)
            truth = self._random_truth(rng, w, h)
            pose = self._random_free_pose(rng, truth)
            belief = make_belief_like(truth)
            reveal(belief, truth, pose, lidar)
            free_set, occ_set = oracle_reveal_sets(truth, pose, lidar)
            got_free = {(i, j) for j in range(h) for i in range(w)
                        if belief.states[j, i] == FREE}
            got_occ = {(i, j) for j in range(h) for i in range(w)
                       if belief.states[j, i] == OCCUPIED}
            assert got_free == free_set
            assert got_occ == occ_set

    def test_corner_tie_follows_documented_arithmetic(self):
        # A beam from (0.21875, 1.21875) cells at -3 pi / 4 meets the corner
        # of the grid's edge: divided by d its two first crossings tie, but
        # times 1/d the y crossing comes first, so the beam enters cell
        # (0, 0). Both oracles must agree with the scan.
        truth = grid_from_rows([".", "."], resolution=0.1)
        pose = Pose(0.21875 * 0.1, 1.21875 * 0.1, -3 * math.pi / 4)
        lidar = LidarModel(beam_count=1, max_range=0.1)
        belief = make_belief_like(truth)
        reveal(belief, truth, pose, lidar)
        assert oracle_beam_walks(truth, pose, np.array([pose.theta]), 0.1) == [[(0, 0)]]
        assert oracle_reveal_sets(truth, pose, lidar) == ({(0, 0), (0, 1)}, set())
        assert (belief.states == FREE).all()

    def test_window_reinflation_matches_full(self, rng):
        truth = self._random_truth(rng, 30, 30)
        belief = make_belief_like(truth)
        lidar = LidarModel(beam_count=180, max_range=3.0)
        for _ in range(5):
            pose = self._random_free_pose(rng, truth)
            reveal(belief, truth, pose, lidar)
            reference = clone_grid(belief)
            inflate(reference, belief.inflation.inscribed_radius,
                    belief.inflation.inflation_radius,
                    belief.inflation.decay_rate)
            assert (reference.costs == belief.costs).all()

    def test_first_reveal_returns_cells_that_became_known(self, rng):
        truth = self._random_truth(rng, 20, 20)
        belief = make_belief_like(truth)
        ci, cj = reveal(belief, truth, self._random_free_pose(rng, truth),
                                LidarModel(beam_count=180, max_range=3.0))
        known_j, known_i = np.nonzero(belief.states != UNKNOWN)
        assert sorted(zip(ci.tolist(), cj.tolist())) == sorted(
            zip(known_i.tolist(), known_j.tolist()))

    def test_repeat_reveal_changes_nothing(self, rng, monkeypatch):
        calls = []
        reinflate = gridmap.reinflate_window
        monkeypatch.setattr(gridmap, "reinflate_window",
                            lambda *args: calls.append(args) or reinflate(*args))
        truth = self._random_truth(rng, 20, 20)
        belief = make_belief_like(truth)
        pose = self._random_free_pose(rng, truth)
        lidar = LidarModel(beam_count=180, max_range=3.0)
        reveal(belief, truth, pose, lidar)
        assert len(calls) == 1
        states, costs = belief.states.copy(), belief.costs.copy()
        # The slot equals the belief after an empty reveal: nothing writes it.
        belief.states.flags.writeable = belief.costs.flags.writeable = False
        ci, cj = reveal(belief, truth, pose, lidar)
        assert ci.size == 0 and cj.size == 0
        assert (belief.states == states).all() and (belief.costs == costs).all()
        assert len(calls) == 1

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_culled_reveals_match_oracle(self, data):
        w = data.draw(st.integers(1, 40), label="width")
        h = data.draw(st.integers(1, 40), label="height")
        res = data.draw(st.sampled_from([0.1, 0.25, 0.5]), label="res")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        p_occupied = data.draw(st.sampled_from([0.0, 0.15, 0.4]), label="p")
        states = np.where(np.random.RandomState(seed).rand(h, w) < p_occupied,
                          OCCUPIED, FREE).astype(np.uint8)
        states.flat[data.draw(st.integers(0, w * h - 1), label="free")] = FREE
        truth = OccupancyGrid(w, h, res, states, np.zeros_like(states))
        inflate(truth, 0.12, 0.6, 4.0)
        lidar = LidarModel(
            beam_count=data.draw(st.integers(1, 720), label="beams"),
            max_range=data.draw(st.floats(0.05, 10.0), label="range") * res,
            angular_span=data.draw(st.sampled_from([2.0 * math.pi, math.pi, 1.0]),
                                   label="span"))
        # Cell centres, edges, corners, or anywhere in a cell.
        fraction = st.one_of(st.sampled_from([0.0, 0.5]),
                             st.floats(0.0, 1.0, exclude_max=True))
        belief = make_belief_like(truth)
        free_set, occ_set = set(), set()
        for _ in range(data.draw(st.integers(1, 12), label="reveals")):
            # After the first reveal the robot stands on known Free cells.
            free_j, free_i = np.nonzero((belief if free_set else truth).states == FREE)
            k = data.draw(st.integers(0, len(free_i) - 1), label="cell")
            pose = Pose((free_i[k] + data.draw(fraction, label="fx")) * res,
                        (free_j[k] + data.draw(fraction, label="fy")) * res,
                        data.draw(st.one_of(
                            st.sampled_from([q * math.pi / 4 for q in range(-3, 5)]),
                            st.floats(-math.pi, math.pi)), label="theta"))
            pi, pj = truth.world_to_cell(pose.x, pose.y)
            if not truth.in_bounds(pi, pj) or states[pj, pi] != FREE:
                continue  # rounding pushed an edge pose into another cell
            unknown = belief.states == UNKNOWN
            ci, cj = reveal(belief, truth, pose, lidar)
            more_free, more_occ = oracle_reveal_sets(truth, pose, lidar)
            free_set |= more_free
            occ_set |= more_occ
            expected = np.full((h, w), UNKNOWN, dtype=np.uint8)
            for cells, state in ((free_set, FREE), (occ_set, OCCUPIED)):
                if cells:
                    i, j = zip(*cells)
                    expected[list(j), list(i)] = state
            assert (belief.states == expected).all()
            changed_j, changed_i = np.nonzero(unknown & (expected != UNKNOWN))
            assert ci.tolist() == changed_i.tolist() and cj.tolist() == changed_j.tolist()
            reference = clone_grid(belief)
            inflate(reference, 0.12, 0.6, 4.0)
            assert (reference.costs == belief.costs).all()

    @pytest.mark.parametrize("truth_rows,belief_rows,pose,lidar,changed", [
        # The pose sits on the corner shared by cells (1, 1), (2, 1), (1, 2)
        # and (2, 2). At t = 0 the x-first tie-break enters (1, 2) even for
        # beams pointing down and left, away from it.
        *((["....."] * 5, ["....."] * 2 + [".?..."] + ["....."] * 2,
           Pose(2.0, 2.0, theta), LidarModel(beam_count=3, max_range=2.0,
                                             angular_span=0.1), [(1, 2)])
          for theta in (5 * math.pi / 4, -math.pi / 2 - 0.2, math.pi)),
        # The beam at 3 pi / 4 passes through the corner of (0, 4) that ends
        # the cell's beam interval.
        (["##", "##", "..", "..", ".."], ["##", "##", "..", "..", "??"],
         Pose(1.5, 2.5, math.pi), LidarModel(beam_count=8, max_range=3.6),
         [(0, 4), (1, 4)]),
        # The pose lies ulps outside an edge of the Unknown cell (1, 1).
        # Offsets from one of its corners can wrap past pi there and drop
        # the beam from the cell's interval.
        *((["..."] * 3, ["...", ".?.", "..."], pose,
           LidarModel(beam_count=1, max_range=2.0), [(1, 1)])
          for pose in _NEAR_EDGE_POSES.values()),
        # The pose lies on the edge x = 1 between the pose cell (1, 1) and the
        # Unknown (0, 1); the beam crosses it at t = 0.
        (["..."] * 3, ["...", "?..", "..."], Pose(1.0, 1.5, math.pi),
         LidarModel(beam_count=1, max_range=2.0), [(0, 1)]),
        # The pose lies 4 ulps past that edge's line, on the Unknown cell's
        # side, in (0, 0); the beam enters (0, 1) across its bottom edge.
        (["..."] * 3, ["...", "?..", "..."], Pose(_off_edge(1.0, 0.0, 4), 0.5, math.pi / 2),
         LidarModel(beam_count=1, max_range=2.0), [(0, 1)]),
        # The beam passes through (1, 1), the end of (0, 1)'s right and
        # bottom edges, and enters it across the right one.
        (["..."] * 3, ["...", "?..", "..."], Pose(1.5, 0.5, 3 * math.pi / 4),
         LidarModel(beam_count=1, max_range=2.0), [(0, 1)]),
    ], ids=["pose-on-corner-0", "pose-on-corner-1", "pose-on-corner-2",
            "beam-through-corner", *_NEAR_EDGE_POSES, "pose-on-edge-line",
            "pose-ulps-past-edge-line", "beam-through-edge-end"])
    def test_interval_edge_cases(self, truth_rows, belief_rows, pose, lidar, changed):
        truth = grid_from_rows(truth_rows, resolution=1.0)
        belief = grid_from_rows(belief_rows, resolution=1.0)
        ci, cj = reveal(belief, truth, pose, lidar)
        assert list(zip(ci.tolist(), cj.tolist())) == changed
        assert (belief.states == truth.states).all()
        assert (belief.costs == truth.costs).all()

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_cull_marks_every_beam_entering_unknown(self, data):
        # Per beam: a beam whose walk on the truth enters a belief-Unknown
        # cell is marked, even where another beam reveals that cell.
        w = data.draw(st.integers(1, 30), label="width")
        h = data.draw(st.integers(1, 30), label="height")
        res = data.draw(st.sampled_from([0.1, 0.25, 0.5, 1.0]), label="res")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        p_occupied = data.draw(st.sampled_from([0.0, 0.15, 0.4]), label="p")
        p_known = data.draw(st.sampled_from([0.3, 0.7, 0.95]), label="known")
        rs = np.random.RandomState(seed)
        states = np.where(rs.rand(h, w) < p_occupied, OCCUPIED, FREE).astype(np.uint8)
        pi, pj = data.draw(st.integers(0, w - 1), label="ci"), data.draw(
            st.integers(0, h - 1), label="cj")
        states[pj, pi] = FREE
        truth = OccupancyGrid(w, h, res, states, np.zeros_like(states))
        inflate(truth, 0.12, 0.6, 4.0)
        known = rs.rand(h, w) < p_known
        known[pj, pi] = True  # else every beam is marked
        belief = OccupancyGrid(w, h, res, np.where(known, states, UNKNOWN).astype(np.uint8),
                               np.zeros_like(states))
        inflate(belief, 0.12, 0.6, 4.0)
        # Cell centres, edges, corners, or anywhere in a cell.
        fraction = st.one_of(st.sampled_from([0.0, 0.5]),
                             st.floats(0.0, 1.0, exclude_max=True))
        pose = Pose((pi + data.draw(fraction, label="fx")) * res,
                    (pj + data.draw(fraction, label="fy")) * res,
                    data.draw(st.one_of(
                        st.sampled_from([q * math.pi / 4 for q in range(-3, 5)]),
                        st.floats(-math.pi, math.pi)), label="theta"))
        assume(truth.world_to_cell(pose.x, pose.y) == (pi, pj))
        lidar = LidarModel(beam_count=data.draw(st.integers(1, 360), label="beams"),
                           max_range=data.draw(st.floats(0.05, 12.0), label="range") * res,
                           angular_span=data.draw(st.sampled_from([2.0 * math.pi, 1.0]),
                                                  label="span"))
        scanner, masks, cull = BeamScanner([truth], lidar), [], BeamScanner._cull
        slot = scanner.grids[0]
        slot.states[...], slot.costs[...] = belief.states, belief.costs
        with mock.patch.object(BeamScanner, "_cull",
                               lambda *args: masks.append(cull(*args)) or masks[-1]):
            scanner.scan([(0, pose)])
        walks = oracle_beam_walks(truth, pose, pose.theta + scanner.beams, lidar.max_range)
        for beam, entered in enumerate(walks):
            if any(belief.states[j, i] == UNKNOWN for i, j in entered):
                assert masks[0][0, beam], (beam, entered)

    @staticmethod
    def _random_truth(rng, w, h):
        states = np.where(rng.rand(h, w) < 0.18, OCCUPIED, FREE).astype(np.uint8)
        grid = OccupancyGrid(w, h, 0.5, states, np.zeros_like(states))
        inflate(grid, 0.12, 0.6, 4.0)
        return grid

    @staticmethod
    def _random_free_pose(rng, truth):
        free_j, free_i = np.nonzero(truth.states == FREE)
        k = rng.randint(len(free_i))
        x, y = truth.cell_center(int(free_i[k]), int(free_j[k]))
        return Pose(x, y, float(rng.uniform(-math.pi, math.pi)))


def assert_march_matches_walks(grid, pose, beams, max_range):
    # With the belief (a new slot) all Unknown every beam is marched; the
    # scan's march calls give each beam's cells in the order it entered them.
    scanner = BeamScanner([grid], LidarModel(beam_count=beams, max_range=max_range))
    angles = pose.theta + scanner.beams
    assert (scanner.grids[0].states == UNKNOWN).all()
    marched, march = [], gridmap._march
    with mock.patch.object(gridmap, "_march",
                           lambda *args: marched.append(march(*args)) or marched[-1]):
        scanner.scan([(0, pose)])
    cells, counts = (np.concatenate(parts) for parts in zip(*marched))
    walks = oracle_beam_walks(grid, pose, angles, max_range)
    vj, vi = np.divmod(scanner.local[cells], grid.width)
    assert list(zip(vi.tolist(), vj.tolist())) == [c for entered in walks for c in entered]
    assert counts.tolist() == [len(entered) for entered in walks]


class TestTraverseBeams:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_per_beam_walk(self, data):
        w = data.draw(st.integers(1, 24), label="width")
        h = data.draw(st.integers(1, 24), label="height")
        res = data.draw(st.sampled_from([0.05, 0.1, 0.25, 0.3, 0.5, 1.0]), label="res")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        p_occupied = data.draw(st.sampled_from([0.0, 0.15, 0.4]), label="p")
        states = np.where(np.random.RandomState(seed).rand(h, w) < p_occupied,
                          OCCUPIED, FREE).astype(np.uint8)
        grid = OccupancyGrid(w, h, res, states, np.zeros_like(states))
        # Anywhere in a cell, boundaries included.
        fraction = st.one_of(st.sampled_from([0.0, 0.5]),
                             st.floats(0.0, 1.0, exclude_max=True))
        ci = data.draw(st.integers(0, w - 1), label="ci")
        cj = data.draw(st.integers(0, h - 1), label="cj")
        x = (ci + data.draw(fraction, label="fx")) * res
        y = (cj + data.draw(fraction, label="fy")) * res
        theta = data.draw(st.one_of(
            st.sampled_from([k * math.pi / 4 for k in range(-3, 5)]),
            st.floats(-math.pi, math.pi)), label="theta")
        pose = Pose(x, y, theta)
        pi, pj = grid.world_to_cell(pose.x, pose.y)
        assume(grid.in_bounds(pi, pj))  # rounding can push an edge pose out
        states[pj, pi] = FREE
        beams = data.draw(st.integers(1, 720), label="beams")
        max_range = data.draw(st.floats(0.01, 30.0), label="max_range") * res
        assert_march_matches_walks(grid, pose, beams, max_range)

    @pytest.mark.parametrize("res,fraction,theta,beams,max_range", [
        (0.1, 0.5, math.pi / 4, 632, 1.8654940112648628),
        (0.1, 0.5, 0.0, 136, 1.467117916737256),
        (0.25, 0.0, 0.0, 696, 4.080989443704497),
    ])
    def test_long_walks_round_like_running_sum(self, res, fraction, theta,
                                               beams, max_range):
        # Late crossings of the two axes nearly tie here; t0 + k * delta
        # rounds differently from t += delta and reorders some of them.
        states = np.full((40, 40), FREE, dtype=np.uint8)
        grid = OccupancyGrid(40, 40, res, states, np.zeros_like(states))
        pose = Pose((20 + fraction) * res, (20 + fraction) * res, theta)
        assert_march_matches_walks(grid, pose, beams, max_range)


class TestBeamScanner:
    """One scan for many runs gives each run what its scan alone gives."""

    @staticmethod
    def _runs(rng, count, lidar):
        # Truths of mixed shapes, resolutions and inflation parameters, the
        # last two runs on the truth objects of the first two (each run has
        # a slot of its own). Beliefs cycle through all Unknown (the pose
        # cell too), partly revealed, and all known (no candidate); poses
        # through a cell centre, a cell corner and a cell on the grid's edge.
        truths = []
        for k in range(count - 2):
            w, h = int(rng.randint(2, 30)), int(rng.randint(2, 30))
            states = np.where(rng.rand(h, w) < 0.2, OCCUPIED, FREE).astype(np.uint8)
            states[h // 2, :] = FREE
            truth = OccupancyGrid(w, h, (0.25, 0.5)[k % 2], states, np.zeros_like(states))
            inflate(truth, *astuple(INFLATIONS[k // 2 % 2]))
            truths.append(truth)
        truths += truths[:2]
        runs = []
        for k, truth in enumerate(truths):
            free_j, free_i = np.nonzero(truth.states == FREE)
            belief = make_belief_like(truth)
            if k % 3 == 1:
                for _ in range(2):
                    n = rng.randint(len(free_i))
                    reveal(belief, truth, Pose(*truth.cell_center(free_i[n], free_j[n])), lidar)
                free_j, free_i = np.nonzero(belief.states == FREE)
            elif k % 3 == 2:
                belief = clone_grid(truth)
            if k % 4 == 2:
                edge = (free_i == 0) | (free_i == truth.width - 1)
                free_j, free_i = free_j[edge], free_i[edge]
            n = rng.randint(len(free_i))
            x, y = truth.cell_center(free_i[n], free_j[n])
            if k % 4 == 1:
                x, y = free_i[n] * truth.resolution, free_j[n] * truth.resolution
            runs.append((truth, belief, Pose(x, y, float(rng.uniform(-math.pi, math.pi)))))
        return runs

    def test_batch_equals_batches_of_one(self, rng):
        # Each slot, seeded from its run's belief, is left with the states
        # and costs that a reveal of the run alone leaves, and the costs of
        # a full inflate, and the scan returns the cells that reveal changed.
        lidar = LidarModel(beam_count=180, max_range=2.0)
        for _ in range(12):
            runs = self._runs(rng, 8, lidar)
            scanner = BeamScanner([truth for truth, _, _ in runs], lidar)
            for (_, belief, _), slot in zip(runs, scanner.grids):
                slot.states[...], slot.costs[...] = belief.states, belief.costs
            found = scanner.scan([(k, pose) for k, (_, _, pose) in enumerate(runs)])
            assert len(found) == len(runs)
            for (truth, belief, pose), cells, slot in zip(runs, found, scanner.grids):
                ci, cj = reveal(belief, truth, pose, lidar)
                assert cells.tolist() == (ci + truth.width * cj).tolist()
                assert (slot.states == belief.states).all()
                assert (slot.costs == belief.costs).all()
                reference = clone_grid(slot)
                inflate(reference, *astuple(slot.inflation))
                assert (reference.costs == slot.costs).all()

    def test_unknown_and_known_pose_cells_in_one_batch(self, rng):
        # One scan of runs whose pose cell is Unknown (with the rest of the
        # belief Unknown, or with every other cell known) and of runs whose
        # pose cell is known (alone, or after a reveal from that pose). Each
        # run gets the cells that were Unknown and became known, and the
        # cells and slot that a reveal of the run alone gives.
        lidar = LidarModel(beam_count=90, max_range=1.5)
        for _ in range(10):
            truth = TestRaycastReveal._random_truth(rng, 12, 12)
            poses = [TestRaycastReveal._random_free_pose(rng, truth) for _ in range(4)]
            beliefs = [make_belief_like(truth), make_belief_like(truth),
                       make_belief_like(truth), clone_grid(truth)]
            pose_cells = [truth.world_to_cell(p.x, p.y)[::-1] for p in poses]
            beliefs[1].states[pose_cells[1]] = truth.states[pose_cells[1]]
            reveal(beliefs[2], truth, poses[2], lidar)
            beliefs[3].states[pose_cells[3]] = UNKNOWN
            for belief in beliefs[1], beliefs[3]:
                inflate(belief, *astuple(belief.inflation))
            scanner = BeamScanner([truth] * len(poses), lidar)
            for belief, slot in zip(beliefs, scanner.grids):
                slot.states[...], slot.costs[...] = belief.states, belief.costs
            found = scanner.scan(list(enumerate(poses)))
            assert found[3].tolist() == [pose_cells[3][1] + truth.width * pose_cells[3][0]]
            for belief, pose, cells, slot in zip(beliefs, poses, found, scanner.grids):
                before = belief.states.copy()
                ci, cj = reveal(belief, truth, pose, lidar)
                assert cells.tolist() == (ci + truth.width * cj).tolist()
                assert cells.tolist() == np.flatnonzero(
                    (before == UNKNOWN) & (belief.states != UNKNOWN)).tolist()
                assert (slot.states == belief.states).all()
                assert (slot.costs == belief.costs).all()

    @pytest.mark.parametrize("where,error", [
        ("past-east-edge", PoseOutOfBoundsError), ("in-obstacle", PoseInsideObstacleError),
        ("nan-x", PoseOutOfBoundsError), ("inf-x", PoseOutOfBoundsError),
        ("nan-y", PoseOutOfBoundsError), ("nan-theta", PoseOutOfBoundsError),
        ("inf-theta", PoseOutOfBoundsError), ("-inf-theta", PoseOutOfBoundsError)])
    def test_bad_pose_raises_before_any_read(self, where, error):
        truth = grid_from_rows(["....", ".#..", "...."], resolution=1.0)
        other = grid_from_rows(["...", "...", "...", "..."], resolution=1.0)
        # Past the east edge, the cell's flat index lies in the next row.
        bad = Pose(*{"past-east-edge": (4.5, 0.5), "in-obstacle": (1.5, 1.5),
                     "nan-x": (math.nan, 0.5), "inf-x": (math.inf, 0.5),
                     "nan-y": (0.5, math.nan), "nan-theta": (0.5, 0.5, math.nan),
                     "inf-theta": (0.5, 0.5, math.inf),
                     "-inf-theta": (0.5, 0.5, -math.inf)}[where])
        scanner = BeamScanner([truth, truth, other], LidarModel(beam_count=8))
        with pytest.raises(error):
            scanner.scan([(0, Pose(0.5, 0.5)), (1, bad), (2, Pose(0.5, 0.5))])
        assert all((g.states == UNKNOWN).all() and (g.costs == 255).all()
                   for g in scanner.grids)

    @pytest.mark.filterwarnings("error")
    def test_squared_range_past_largest_float(self):
        # The range clamps to the diagonal plus one cell, which on a grid one
        # cell wide is longer than its width + height: at this resolution the
        # grid is accepted, and the range's square raised OverflowError.
        truth = grid_from_rows(["."], resolution=6e153)
        scanner = BeamScanner([truth], LidarModel(max_range=1e300))
        assert scanner.scan([(0, Pose(3e153, 3e153))])[0].tolist() == [0]

    def test_belief_with_other_inflation_rejected(self):
        # The stamp uses the truth's kernel, so the belief must share it.
        truth = grid_from_rows(["....", "....", "...."], resolution=1.0)
        belief = unknown_grid(4, 3, 1.0, InflationParams(0.5, 1.0, 1.0))
        with pytest.raises(MapError):
            reveal(belief, truth, Pose(0.5, 0.5), LidarModel(beam_count=8))

    def test_first_round_memory_bounded(self):
        # Without marching in groups, 20 first reveals at once held 5 to 17
        # times the memory of one.
        lidar = LidarModel()
        truths = [generate_map(TIERS[k % 3], 100 + k) for k in range(20)]
        poses = [pick_start(truth, 1) for truth in truths]
        tracemalloc.start()
        try:
            reveal(make_belief_like(truths[2]), truths[2], poses[2], lidar)
            one = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            scanner = BeamScanner(truths, lidar)
            found = scanner.scan(list(zip(range(20), poses)))
            # Each run's (i, j) arrays, as the one-run reveal above returns them.
            for truth, cells in zip(truths, found):
                np.divmod(cells, truth.width)
            batch = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert batch <= 3 * one

    def test_range_past_grid_memory_bounded(self):
        # The cull window and the border reach max(w, h) + 1 cells past the
        # pose cell at most, which covers the grid from any pose; unclamped,
        # they grew with the diagonal.
        truth = generate_map("high", 100)
        pose, peaks, side = pick_start(truth, 1), [], max(truth.width, truth.height)
        for max_range in (side * truth.resolution, 1e308):
            assert BeamScanner([truth], LidarModel(max_range=max_range)).border == side + 1
            belief = make_belief_like(truth)
            tracemalloc.start()
            try:
                reveal(belief, truth, pose, LidarModel(max_range=max_range))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0]

    def test_huge_radius_memory_bounded(self):
        # The kernel is clamped to the grid's extent; unclamped, a radius
        # of 1e12 m would need a patch of about 6e25 cells.
        lidar, peaks = LidarModel(), []
        for radius in (0.6, 1e12):
            truth = generate_map("high", 100, inflation=InflationParams(0.12, radius, 4.0))
            belief = make_belief_like(truth)
            tracemalloc.start()
            try:
                reveal(belief, truth, pick_start(truth, 1), lidar)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            full = clone_grid(belief)
            inflate(full, *astuple(belief.inflation))
            assert (belief.costs == full.costs).all()
        assert peaks[1] <= 3 * peaks[0]


def test_adjacent_to_matches_reference(rng):
    # Random 2-D masks and stacks of them, with axes of length 1 and 2 (a
    # row's first cell is its last), and transposed views, which ravel to
    # copies in the transposed order.
    short = transposed = 0
    for _ in range(600):
        shape = tuple(int(rng.choice([1, 2, 3, 7])) for _ in range(rng.randint(2, 4)))
        mask = rng.rand(*shape) < rng.rand()
        if rng.rand() < 0.3:
            mask = mask.swapaxes(-1, -2)
            transposed += 1
        short += min(mask.shape[-2:]) <= 2
        assert (adjacent_to(mask) == reference_adjacent(mask)).all(), mask.shape
    assert short >= 100 and transposed >= 100


class TestKnownBox:
    def test_none_when_nothing_known(self):
        assert known_box(np.zeros((4, 5), dtype=np.uint8)) is None
        assert known_box(np.zeros((1, 1), dtype=np.uint8), ring=3) is None
        for shape in ((3, 0), (0, 3), (0, 0)):
            assert known_box(np.zeros(shape, dtype=np.uint8)) is None
            assert known_box(np.zeros(shape, dtype=bool), ring=2) is None

    def test_ring_clipped_at_each_edge(self):
        # One known cell beside each edge of a 6 x 8 grid, ringed by two.
        for (j, i), rows, cols in (((0, 3), (0, 3), (1, 6)), ((5, 3), (3, 6), (1, 6)),
                                   ((2, 0), (0, 5), (0, 3)), ((2, 7), (0, 5), (5, 8)),
                                   ((0, 0), (0, 3), (0, 3)), ((5, 7), (3, 6), (5, 8))):
            states = np.zeros((6, 8), dtype=np.uint8)
            states[j, i] = FREE
            assert known_box(states, ring=2) == np.s_[slice(*rows), slice(*cols)], (j, i)
            assert known_box(states) == np.s_[j:j + 1, i:i + 1]
        assert known_box(np.full((6, 8), OCCUPIED, dtype=np.uint8), ring=1) == np.s_[0:6, 0:8]

    def test_matches_nonzero_box(self, rng):
        empty = 0
        for _ in range(400):
            h, w = (int(n) for n in rng.randint(1, 41, size=2))
            density = rng.choice([0.002, 0.02, 0.2])
            states = np.where(rng.rand(h, w) < density, rng.randint(1, 3, size=(h, w)),
                              UNKNOWN).astype(np.uint8)
            ring = int(rng.randint(0, 4))
            jj, ii = np.nonzero(states)
            if len(jj) == 0:
                assert known_box(states, ring) is None
                empty += 1
                continue
            j0, j1, i0, i1 = (int(x) for x in (jj.min(), jj.max() + 1, ii.min(), ii.max() + 1))
            assert known_box(states, ring) == np.s_[max(j0 - ring, 0):min(j1 + ring, h),
                                                    max(i0 - ring, 0):min(i1 + ring, w)]
            assert known_box(states != UNKNOWN, ring) == known_box(states, ring)
            assert (known_box(states, ring, OCCUPIED)
                    == known_box(states == OCCUPIED, ring))
        assert 20 <= empty <= 200


# ---------------------------------------------------------------------------
# Exploration rate
# ---------------------------------------------------------------------------

class TestExplorationRate:
    def _fixture(self):
        truth = grid_from_rows([".....", ".....", "#####", "#####", "#####"],
                               resolution=1.0)
        return truth, reachable_free_mask(truth, Pose(*truth.cell_center(0, 0)))

    def test_all_unknown_is_zero(self):
        truth, reachable = self._fixture()
        belief = make_belief_like(truth)
        assert exploration_rate(belief, reachable) == 0.0

    def test_full_knowledge_is_one(self):
        truth, reachable = self._fixture()
        assert exploration_rate(truth, reachable) == 1.0

    def test_hand_counted_partial(self):
        _, reachable = self._fixture()
        belief = load_belief("5 5 1.0\n.....\n..???\n?????\n?????\n?????\n")
        # 10 reachable free cells, 7 known.
        assert exploration_rate(belief, reachable) == pytest.approx(0.7)

    def test_unreachable_free_space_excluded(self):
        truth = grid_from_rows([".#.", ".#.", ".#."], resolution=1.0)
        reachable = reachable_free_mask(truth, Pose(*truth.cell_center(0, 0)))
        assert reachable.sum() == 3
        belief = clone_grid(truth)
        belief.states[:, 2] = UNKNOWN
        assert exploration_rate(belief, reachable) == 1.0

    def test_start_errors(self):
        truth, _ = self._fixture()
        with pytest.raises(StartUnreachableError):
            reachable_free_mask(truth, Pose(*truth.cell_center(0, 4)))
        with pytest.raises(StartUnreachableError):
            reachable_free_mask(truth, Pose(-5.0, -5.0))

    def test_shape_mismatch_raises(self):
        _, reachable = self._fixture()
        with pytest.raises(MapError):
            exploration_rate(unknown_grid(4, 5, 1.0), reachable)

    def test_monotone_across_reveals(self):
        truth = grid_from_rows(["." * 15] * 15, resolution=0.5)
        belief = make_belief_like(truth)
        lidar = LidarModel(beam_count=90, max_range=1.5)
        reachable = reachable_free_mask(truth, Pose(*truth.cell_center(2, 2)))
        rates = []
        for i in range(2, 13, 2):
            reveal(belief, truth, Pose(*truth.cell_center(i, i)), lidar)
            rates.append(exploration_rate(belief, reachable))
        assert all(a <= b for a, b in zip(rates, rates[1:]))


def test_wrap_angle_range():
    assert wrap_angle(math.pi) == pytest.approx(math.pi)
    assert wrap_angle(-math.pi) == pytest.approx(math.pi)
    assert wrap_angle(3 * math.pi / 2) == pytest.approx(-math.pi / 2)
    for t in np.linspace(-12, 12, 101):
        w = wrap_angle(float(t))
        assert -math.pi < w <= math.pi


class TestTypes:
    def test_pose_normalizes_theta(self):
        assert Pose(0, 0, 3 * math.pi).theta == pytest.approx(math.pi)

    def test_lidar_validation(self):
        with pytest.raises(ValueError):
            LidarModel(beam_count=0)
        with pytest.raises(ValueError):
            LidarModel(max_range=0.0)
        with pytest.raises(ValueError, match="max_range"):
            LidarModel(max_range=math.nan)
        # A NaN span made every beam angle NaN, which the march cast to an
        # integer: the first reveal of a generated low map then found 1
        # cell in place of 193.
        # A span outside (0, 2 pi] would put beam angles off the circle
        # [0, 2 pi) or out of ascending order, which the scan's cull assumes.
        for span in (math.nan, math.inf, -math.inf, 0.0, -1.0, 2.0 * math.pi + 1e-9, 7.0):
            with pytest.raises(ValueError, match="angular_span"):
                LidarModel(angular_span=span)
        assert LidarModel(angular_span=2.0 * math.pi).angular_span == 2.0 * math.pi

    def test_inflation_params_validation(self):
        with pytest.raises(InvalidRadiiError):
            InflationParams(inscribed_radius=0.0)
        with pytest.raises(InvalidRadiiError):
            InflationParams(inscribed_radius=1.0, inflation_radius=0.5)
        # A negative rate would raise costs with distance, past 252 and up to
        # the Unknown marker on Free cells.
        for rate in (-4.0, -1e-9, math.nan):
            with pytest.raises(MapError, match="decay_rate"):
                InflationParams(decay_rate=rate)
        assert InflationParams(decay_rate=0.0).decay_rate == 0.0
        # The decay's exponent must stay finite over the band's reach, which
        # a grid's extent bounds below sqrt(DBL_MAX) whatever the radius.
        with pytest.raises(MapError, match="decay_rate"):
            InflationParams(0.12, 1e300, 1.7e308)
        assert InflationParams(0.12, 1e308, 4.0).decay_rate == 4.0

    def test_grid_shape_checks(self):
        with pytest.raises(MalformedMapError):
            OccupancyGrid(3, 3, 0.5, np.zeros((2, 3), np.uint8),
                          np.zeros((2, 3), np.uint8))
        with pytest.raises(ZeroResolutionError):
            OccupancyGrid(3, 2, 0.0, np.zeros((2, 3), np.uint8),
                          np.zeros((2, 3), np.uint8))

    def test_squared_span_must_be_finite(self):
        # A squared distance between two points of a grid is at most
        # ((width + height) * resolution) squared; at resolution 1e300 the
        # occupancy score's squares overflowed.
        states = np.zeros((19, 19), np.uint8)
        for res in (1e300, 4e152, math.inf, -math.inf, math.nan):
            with pytest.raises(MalformedMapError, match="squared extent"):
                OccupancyGrid(19, 19, res, states, states.copy())
        assert OccupancyGrid(19, 19, 3e152, states, states.copy()).resolution == 3e152

    def test_cell_round_trip(self):
        grid = unknown_grid(8, 5, 0.5)
        assert (grid.costs == COST_UNKNOWN).all()
        for i, j in ((0, 0), (7, 4), (3, 2)):
            x, y = grid.cell_center(i, j)
            assert grid.world_to_cell(x, y) == (i, j)

    def test_flat_index_convention(self):
        grid = unknown_grid(4, 3, 1.0)
        grid.states[2, 1] = FREE  # i=1, j=2 -> k = i + width*j = 9
        assert grid.states.flat[1 + 4 * 2] == FREE
