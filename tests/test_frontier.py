import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cell_set, grid_from_rows, unknown_grid
from reference import brute_force_marks, oracle_segments
from explorebench.frontier import cluster_segments, detect_frontiers
from explorebench.gridmap import FREE, UNKNOWN, OccupancyGrid


class TestDetect:
    def test_all_free_no_frontier(self):
        belief = grid_from_rows(["...."] * 4)
        assert not detect_frontiers(belief).any()

    def test_free_columns_against_unknown(self):
        belief = grid_from_rows(["..???"] * 5)
        marks = detect_frontiers(belief)
        expected = np.zeros((5, 5), dtype=bool)
        expected[:, 1] = True
        assert (marks == expected).all()

    def test_sealed_cell_not_frontier(self):
        belief = grid_from_rows(["?????", "?###?", "?#.#?", "?###?", "?????"])
        assert not detect_frontiers(belief).any()

    def test_zero_size_grid(self):
        for h, w in ((3, 0), (0, 3), (0, 0)):
            marks = detect_frontiers(unknown_grid(w, h, 0.25))
            assert marks.shape == (h, w)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_brute_force(self, data):
        w = data.draw(st.integers(1, 32))
        h = data.draw(st.integers(1, 32))
        cells = data.draw(st.lists(
            st.sampled_from([UNKNOWN, FREE, 2]), min_size=w * h, max_size=w * h))
        states = np.array(cells, dtype=np.uint8).reshape(h, w)
        belief = OccupancyGrid(w, h, 0.25, states, np.zeros_like(states))
        assert (detect_frontiers(belief) == brute_force_marks(belief)).all()


    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_sparse_known_matches_brute_force(self, data):
        # A mostly Unknown grid holding one small known blob, so the box that
        # detect_frontiers reads is a small part of the grid.
        w = data.draw(st.integers(1, 64), label="width")
        h = data.draw(st.integers(1, 64), label="height")
        bw = data.draw(st.integers(1, min(w, 6)), label="blob width")
        bh = data.draw(st.integers(1, min(h, 6)), label="blob height")
        i0 = data.draw(st.integers(0, w - bw), label="blob column")
        j0 = data.draw(st.integers(0, h - bh), label="blob row")
        blob = data.draw(st.lists(st.sampled_from([UNKNOWN, FREE, 2]),
                                  min_size=bw * bh, max_size=bw * bh), label="blob")
        states = np.zeros((h, w), dtype=np.uint8)
        states[j0:j0 + bh, i0:i0 + bw] = np.array(blob).reshape(bh, bw)
        belief = OccupancyGrid(w, h, 0.25, states, np.zeros_like(states))
        assert (detect_frontiers(belief) == brute_force_marks(belief)).all()

    @pytest.mark.parametrize("h, w", [(9, 12), (1, 12), (12, 1), (1, 1), (2, 2)])
    def test_blobs_at_edges_and_corners(self, rng, h, w):
        # A known blob at each corner, at the middle of each edge and inside,
        # on grids that are 1 x N and N x 1 too; then the all-Unknown grid and
        # all-known grids.
        def check(states):
            belief = OccupancyGrid(w, h, 0.25, states, np.zeros_like(states))
            marks = detect_frontiers(belief)
            assert (marks == brute_force_marks(belief)).all(), states
            return marks

        bh, bw = min(h, 3), min(w, 3)
        for j0 in sorted({0, (h - bh) // 2, h - bh}):
            for i0 in sorted({0, (w - bw) // 2, w - bw}):
                for _ in range(4):
                    states = np.zeros((h, w), dtype=np.uint8)
                    states[j0:j0 + bh, i0:i0 + bw] = rng.choice(
                        [UNKNOWN, FREE, FREE, 2], size=(bh, bw))
                    check(states)
                states = np.zeros((h, w), dtype=np.uint8)
                states[j0:j0 + bh, i0:i0 + bw] = FREE
                assert check(states).any() == (bh < h or bw < w)
        assert not check(np.zeros((h, w), dtype=np.uint8)).any()
        assert not check(np.full((h, w), FREE, dtype=np.uint8)).any()
        assert not check(rng.choice([FREE, 2], size=(h, w)).astype(np.uint8)).any()


class TestCluster:
    def test_diagonal_cells_one_segment(self):
        belief = grid_from_rows(["?????", "?.???", "??.??", "?????"])
        # Both free cells border unknown; they touch diagonally.
        segments = cluster_segments(detect_frontiers(belief), belief, min_size=1)
        assert len(segments) == 1
        assert len(segments[0].cells) == 2

    def test_gap_splits_and_min_size_filters(self):
        belief = grid_from_rows(["?????", "?.??.", "?????"])
        mask = detect_frontiers(belief)
        assert len(cluster_segments(mask, belief, min_size=1)) == 2
        assert len(cluster_segments(mask, belief, min_size=2)) == 0

    def test_l_shaped_geometry_hand_computed(self):
        belief = grid_from_rows([
            "#########",
            "#########",
            "#?.......",
            "#?.......",
            "#?...####",
            "###??####",
            "#########",
            "#########",
            "#########",
        ], resolution=0.5)
        segments = cluster_segments(detect_frontiers(belief), belief, min_size=1)
        assert len(segments) == 1
        seg = segments[0]
        assert cell_set(seg) == {(2, 2), (2, 3), (2, 4), (3, 4), (4, 4)}
        assert seg.length_af == pytest.approx(5 * 0.5)
        # Centroid: mean cell center; cells have mean (i, j) = (2.6, 3.4).
        assert seg.centroid[0] == pytest.approx((2.6 + 0.5) * 0.5)
        assert seg.centroid[1] == pytest.approx((3.4 + 0.5) * 0.5)
        assert seg.radius_r == pytest.approx(math.sqrt(2.32) * 0.5)

    def test_segments_partition_marks(self, rng):
        for _ in range(25):
            h, w = rng.randint(2, 33), rng.randint(2, 33)
            states = rng.choice([UNKNOWN, FREE, 2], size=(h, w),
                                p=[0.35, 0.5, 0.15]).astype(np.uint8)
            belief = OccupancyGrid(w, h, 0.25, states, np.zeros_like(states))
            mask = detect_frontiers(belief)
            min_size = int(rng.randint(1, 4))
            segments = cluster_segments(mask, belief, min_size)
            seen = set()
            for seg in segments:
                cells = cell_set(seg)
                assert len(cells) == len(seg.cells) >= min_size
                assert not (cells & seen)
                seen |= cells
                ii = [c[0] for c in cells]
                jj = [c[1] for c in cells]
                cx = seg.centroid[0] / belief.resolution - 0.5
                cy = seg.centroid[1] / belief.resolution - 0.5
                assert min(ii) <= cx <= max(ii)
                assert min(jj) <= cy <= max(jj)
                # radius_r is attained at the farthest cell.
                d = max(math.hypot(i - cx, j - cy) for i, j in cells) * belief.resolution
                assert d == pytest.approx(seg.radius_r)
            # Union over all (unfiltered) segments equals the mask.
            all_cells = set()
            for seg in cluster_segments(mask, belief, 1):
                all_cells |= cell_set(seg)
            marked = {(i, j) for j in range(h) for i in range(w) if mask[j, i]}
            assert all_cells == marked

    def test_canonical_order(self):
        belief = grid_from_rows([
            "??????",
            "?.??.?",
            "?.??.?",
            "??????",
        ])
        segments = cluster_segments(detect_frontiers(belief), belief, min_size=1)
        assert len(segments) == 2
        keys = [(s.centroid[1], s.centroid[0]) for s in segments]
        assert keys == sorted(keys)

    def test_equal_centroids_rank_by_first_cell(self):
        # The perimeter of 5x5 cells and a mark at its centre: two segments
        # with exactly the same centroid. The ring's first cell comes first
        # in raster order, so the ring ranks first.
        marks = np.zeros((7, 7), dtype=bool)
        marks[1:6, 1:6] = True
        marks[2:5, 2:5] = False
        marks[3, 3] = True
        states = np.zeros(marks.shape, dtype=np.uint8)
        belief = OccupancyGrid(7, 7, 0.25, states, states.copy())
        ring, centre = cluster_segments(marks, belief, min_size=1)
        assert ring.centroid == centre.centroid
        assert len(ring.cells) == 16 and cell_set(centre) == {(3, 3)}

    def test_mismatched_mask_rejected(self):
        a = grid_from_rows(["??", ".."])
        b = grid_from_rows(["???", "..."])
        with pytest.raises(ValueError):
            cluster_segments(detect_frontiers(a), b, 1)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_flood_fill_oracle(self, data):
        w = data.draw(st.integers(1, 28), label="width")
        h = data.draw(st.integers(1, 28), label="height")
        density = data.draw(st.sampled_from([0.1, 0.3, 0.6, 0.9]), label="density")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        marks = np.random.RandomState(seed).rand(h, w) < density
        res = data.draw(st.floats(0.01, 2.0), label="res")
        min_size = data.draw(st.integers(1, 5), label="min_size")
        # The same marks inside a larger all-False frame, at an offset: only
        # the box of the marks is labelled, so its edges must not cut cells.
        fh = h + data.draw(st.integers(0, 12), label="extra rows")
        fw = w + data.draw(st.integers(0, 12), label="extra cols")
        oj = data.draw(st.integers(0, fh - h), label="row offset")
        oi = data.draw(st.integers(0, fw - w), label="col offset")
        framed = np.zeros((fh, fw), dtype=bool)
        framed[oj:oj + h, oi:oi + w] = marks
        cells = []
        for mask in (marks, framed):
            states = np.zeros(mask.shape, dtype=np.uint8)
            belief = OccupancyGrid(mask.shape[1], mask.shape[0], res, states, states.copy())
            got = cluster_segments(mask, belief, min_size)
            expected = oracle_segments(mask, res, min_size)
            assert len(got) == len(expected)
            for seg, ref in zip(got, expected):
                assert [tuple(c) for c in seg.cells.tolist()] == ref["cells"]
                assert seg.centroid == ref["centroid"]
                assert seg.length_af == ref["length_af"]
                assert seg.radius_r == ref["radius_r"]
            cells.append([ref["cells"] for ref in expected])
        # The frame only moves every segment by the offset.
        assert [[(i + oi, j + oj) for i, j in c] for c in cells[0]] == cells[1]
        assert cluster_segments(np.zeros_like(framed), belief, 1) == []
