import math
import sys
import tracemalloc

import numpy as np
import pytest

from conftest import grid_from_rows
from reference import brute_force_occupancy, reference_occupancy
from explorebench.frontier import FrontierSegment, cluster_segments, detect_frontiers
from explorebench.gridmap import COST_LETHAL, FREE, UNKNOWN, OccupancyGrid, Pose
from explorebench.explorer import SelectorKind, rank_segments
from explorebench.scoring import (HeuristicParams, InputOutOfRangeError,
                                  NegativeDistanceError, NoFrontiersError,
                                  ScoreBreakdown, distance_score, heuristic,
                                  occupancy_score, score_segments)

# Frozen golden values, computed with a 60-digit mpmath evaluator of
# tanh(E * sigmoid(E * (1 - csch(d/alpha)))), E = exp(d/beta), before any
# implementation existed. See mp_distance_score below for the evaluator.
GOLDEN_ALPHA_2_BETA_4 = {
    1.0: 0.29295736981171358546,
    2.0: 0.72833181629765287462,
    4.0: 0.98318995149614229667,
    8.0: 0.99999922701226126725,
}


def mp_distance_score(d, alpha, beta, cap=30):
    import mpmath as mp

    with mp.workdps(60):
        d, alpha, beta = mp.mpf(d), mp.mpf(alpha), mp.mpf(beta)
        big_e = mp.e ** min(d / beta, mp.mpf(cap))
        inner = big_e * (1 - mp.csch(d / alpha))
        inner = max(mp.mpf(-cap * cap), min(mp.mpf(cap * cap), inner))
        sigma = 1 / (1 + mp.e ** (-inner))
        return float(mp.tanh(big_e * sigma))


class TestDistanceScore:
    def test_zero_distance_is_exactly_zero(self):
        for params in (HeuristicParams(), HeuristicParams(0.1, 9.0, 0.2)):
            assert distance_score(0.0, params) == 0.0

    def test_underflowed_ratio_is_the_zero_limit(self):
        # d / alpha underflows to 0, where csch(0) would divide by zero: D
        # takes its d = 0 limit, which the capped path reaches for tiny d.
        for d, alpha in ((5e-324, 3.0), (1e-308, 1e300)):
            assert distance_score(d, HeuristicParams(alpha=alpha)) == 0.0
        assert distance_score(1e-300, HeuristicParams()) == 0.0

    def test_negative_distance_rejected(self):
        with pytest.raises(NegativeDistanceError):
            distance_score(-0.1, HeuristicParams())

    def test_nan_distance_rejected(self):
        # NaN would compare False with every other score and rank arbitrarily.
        with pytest.raises(NegativeDistanceError):
            distance_score(math.nan, HeuristicParams())

    def test_infinite_distance_one_ulp_below_one(self):
        assert distance_score(math.inf, HeuristicParams()) == math.nextafter(1.0, 0.0)

    def test_golden_values(self):
        params = HeuristicParams(alpha=2.0, beta=4.0)
        for d, expected in GOLDEN_ALPHA_2_BETA_4.items():
            got = distance_score(d, params)
            assert got == pytest.approx(expected, rel=1e-12)
            # the frozen constants themselves match the live oracle
            assert mp_distance_score(d, 2.0, 4.0) == pytest.approx(expected, rel=1e-12)

    def test_far_range_saturates_below_one(self):
        for alpha, beta in ((2.0, 4.0), (1.0, 1.0), (3.0, 0.5)):
            d = 1000.0 * beta
            score = distance_score(d, HeuristicParams(alpha=alpha, beta=beta))
            assert score >= 1.0 - 1e-9
            assert score < 1.0

    def test_monotone_on_default_params(self):
        params = HeuristicParams()
        grid = np.linspace(0.0, 60.0, 4000)
        values = [distance_score(float(d), params) for d in grid]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_finite_everywhere(self):
        for alpha in (1e-3, 1.0, 1e3):
            for beta in (1e-3, 1.0, 1e3):
                params = HeuristicParams(alpha=alpha, beta=beta)
                for d in (0.0, 1e-9, 1e-3, 1.0, 1e3, 1e6, 1e9):
                    v = distance_score(d, params)
                    assert math.isfinite(v)
                    assert 0.0 <= v < 1.0

    def test_largest_cap_stays_finite(self):
        # ln(DBL_MAX), the largest cap allowed, at distances far beyond
        # beta * cap.
        cap = math.log(sys.float_info.max)
        params = HeuristicParams(beta=0.01, exp_arg_cap=cap)
        for d in (20.0, 1e3 * params.beta * cap, 1e300):
            v = distance_score(d, params)
            assert math.isfinite(v)
            assert 0.0 <= v < 1.0


class TestOccupancyScore:
    def _segment(self, centroid, length, radius):
        return FrontierSegment(cells=np.array([[0, 0]]), centroid=centroid,
                               length_af=length, radius_r=radius)

    def test_all_unknown_disk_scores_zero(self):
        belief = grid_from_rows(["?" * 9] * 9, inflate_costs=False)
        seg = self._segment(belief.cell_center(4, 4), length=2.0, radius=0.6)
        assert occupancy_score(seg, belief, HeuristicParams()) == 0.0

    def test_lethal_disk_hits_sech_ceiling(self):
        belief = grid_from_rows(["#" * 9] * 9)
        assert (belief.costs == COST_LETHAL).all()
        center = belief.cell_center(4, 4)
        at_zero = self._segment(center, length=0.0, radius=0.5)
        assert occupancy_score(at_zero, belief, HeuristicParams()) == 1.0
        longer = self._segment(center, length=1.0, radius=0.5)
        expected = 1.0 / math.cosh(1.0)
        assert occupancy_score(longer, belief, HeuristicParams()) == pytest.approx(expected)
        assert occupancy_score(longer, belief, HeuristicParams()) < 1.0

    def test_door_gap_fixture_matches_enumeration(self):
        belief = grid_from_rows([
            "?????????",
            "?????????",
            "####...##",
            "....?....",
            ".........",
            ".........",
            ".........",
            ".........",
            ".........",
        ])
        segments = cluster_segments(detect_frontiers(belief), belief, min_size=3)
        assert len(segments) == 1
        seg = segments[0]
        params = HeuristicParams()
        got = occupancy_score(seg, belief, params)
        assert got == pytest.approx(brute_force_occupancy(seg, belief, params), rel=1e-12)
        assert got > 0.0

    def test_degenerate_radius_uses_resolution_disk(self):
        belief = grid_from_rows(["..."] * 3)
        seg = self._segment(belief.cell_center(1, 1), length=0.25, radius=0.0)
        got = occupancy_score(seg, belief, HeuristicParams())
        # Disk of one resolution: center plus 4-neighbors, all free cost 0.
        expected = (1 / 255) * (1.0 / math.cosh(0.25))
        assert got == pytest.approx(expected, rel=1e-12)

    def test_matches_enumeration_on_random_fixtures(self, rng):
        params = HeuristicParams(af_scale=0.7)
        for _ in range(40):
            h, w = rng.randint(6, 40), rng.randint(6, 40)
            belief = self.random_belief(rng, w, h)
            seg = self._segment(
                (float(rng.uniform(-1, w * 0.25 + 1)),
                 float(rng.uniform(-1, h * 0.25 + 1))),
                length=float(rng.uniform(0, 4.0)),
                radius=float(rng.uniform(0, 2.0)),
            )
            got = occupancy_score(seg, belief, params)
            assert got == pytest.approx(brute_force_occupancy(seg, belief, params),
                                        rel=1e-12, abs=1e-15)

    @staticmethod
    def random_belief(rng, w, h):
        from explorebench.gridmap import inflate

        states = rng.choice([UNKNOWN, FREE, 2], size=(h, w),
                            p=[0.3, 0.5, 0.2]).astype(np.uint8)
        grid = OccupancyGrid(w, h, 0.25, states, np.zeros_like(states))
        inflate(grid, 0.12, 0.6, 4.0)
        return grid


class TestScoreSegments:
    def test_matches_one_segment_scores_exactly(self, rng):
        # Each breakdown equals, bit for bit, the one-segment distance score
        # and the whole-grid reference O: the frontier segments of random
        # beliefs (many of one cell), plus disks around random points that
        # the grid clips at each border, some with a radius below one
        # resolution.
        seen = dict.fromkeys(("left", "right", "bottom", "top", "small", "one cell"), 0)
        for _ in range(60):
            h, w = rng.randint(3, 40), rng.randint(3, 40)
            belief = TestOccupancyScore.random_belief(rng, w, h)
            params = HeuristicParams(af_scale=float(rng.choice([0.1, 0.7, 3.0])))
            segments = cluster_segments(detect_frontiers(belief), belief, min_size=1)
            for _ in range(rng.randint(0, 6)):
                xf, yf = rng.uniform(-1, w * 0.25 + 1), rng.uniform(-1, h * 0.25 + 1)
                segments.append(FrontierSegment(
                    np.array([[0, 0]]), (float(xf), float(yf)), float(rng.uniform(0, 4.0)),
                    float(rng.choice([0.0, 0.1, rng.uniform(0, 3.0)]))))
            robot = Pose(float(rng.uniform(0, w * 0.25)), float(rng.uniform(0, h * 0.25)))
            expected = []
            for idx, seg in enumerate(segments):
                d = math.hypot(robot.x - seg.centroid[0], robot.y - seg.centroid[1])
                D, O = distance_score(d, params), reference_occupancy(seg, belief, params)
                expected.append(ScoreBreakdown(idx, d, D, O, heuristic(D, O, params)))
                (xf, yf), r = seg.centroid, max(seg.radius_r, belief.resolution)
                seen["left"] += xf - r < 0
                seen["right"] += xf + r > w * belief.resolution
                seen["bottom"] += yf - r < 0
                seen["top"] += yf + r > h * belief.resolution
                seen["small"] += seg.radius_r < belief.resolution
                seen["one cell"] += len(seg.cells) == 1
            assert score_segments(segments, robot, belief, params) == expected
        assert min(seen.values()) >= 20, seen

    def test_no_segments(self):
        belief = grid_from_rows(["..."] * 3)
        assert score_segments([], Pose(0.1, 0.1), belief, HeuristicParams()) == []

    def test_gather_memory_bounded(self):
        # The gather holds each segment's own box, not segments x the largest
        # box: a padded gather of these 51 segments peaked at 3.2 MB.
        states = np.full((200, 200), FREE, dtype=np.uint8)
        belief = OccupancyGrid(200, 200, 0.25, states, np.zeros_like(states))
        big = FrontierSegment(np.array([[100, 100]]), belief.cell_center(100, 100),
                              0.25, 40 * 0.25)
        segments = [big] + [FrontierSegment(np.array([[i, 10]]), belief.cell_center(i, 10),
                                            0.25, 0.0) for i in range(50)]
        tracemalloc.start()
        try:
            score_segments(segments, Pose(1.0, 1.0), belief, HeuristicParams())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestHeuristic:
    def test_gamma_zero_returns_occupancy(self):
        params = HeuristicParams(gamma=0.0)
        assert heuristic(0.73, 0.41, params) == 0.41

    def test_equal_weight_average(self):
        params = HeuristicParams(gamma=0.5)
        assert heuristic(0.4, 0.6, params) == pytest.approx(0.5)

    def test_direct_arithmetic(self):
        params = HeuristicParams(gamma=0.3)
        assert heuristic(0.2, 0.9, params) == pytest.approx(0.69)

    def test_rejects_out_of_range(self):
        params = HeuristicParams()
        with pytest.raises(InputOutOfRangeError):
            heuristic(1.2, 0.5, params)
        with pytest.raises(InputOutOfRangeError):
            heuristic(0.5, -0.1, params)

    def test_common_scale_preserves_argmin(self, rng):
        params = HeuristicParams(gamma=0.4)
        for _ in range(50):
            pairs = rng.rand(6, 2)
            scale = float(rng.uniform(0.05, 1.0))
            base = [heuristic(float(D), float(O), params) for D, O in pairs]
            scaled = [heuristic(float(D * scale), float(O * scale), params)
                      for D, O in pairs]
            assert int(np.argmin(base)) == int(np.argmin(scaled))


class TestParamsValidation:
    @pytest.mark.parametrize("kwargs", [
        {"alpha": 0.0}, {"beta": -1.0}, {"gamma": 0.6}, {"gamma": -0.01},
        {"af_scale": 0.0}, {"exp_arg_cap": 0.0},
        {"alpha": math.nan}, {"beta": math.nan}, {"af_scale": math.nan},
        {"exp_arg_cap": math.nextafter(math.log(sys.float_info.max), math.inf)},
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            HeuristicParams(**kwargs)


def heuristic_pick(segments, robot, belief, params):
    """The heuristic policy's top segment and every segment's scores."""
    ranked, breakdowns = rank_segments(SelectorKind("heuristic"), segments,
                                       robot, belief, params)
    return segments[ranked[0]], breakdowns


class TestSelectWaypoint:
    def test_empty_raises(self):
        belief = grid_from_rows(["..."])
        with pytest.raises(NoFrontiersError):
            rank_segments(SelectorKind("heuristic"), [], Pose(0, 0), belief,
                          HeuristicParams())

    def test_singleton(self):
        belief = grid_from_rows(["??", ".."])
        segments = cluster_segments(detect_frontiers(belief), belief, 1)
        chosen, breakdowns = heuristic_pick(segments, Pose(0.1, 0.4), belief,
                                            HeuristicParams())
        assert chosen is segments[0]
        assert len(breakdowns) == len(segments)
        for b in breakdowns:
            assert b.h == pytest.approx(
                b.D * 0.5 + b.O * 0.5, rel=1e-15, abs=1e-15)

    def test_symmetric_tie_breaks_canonically(self):
        belief = grid_from_rows([
            "???????????",
            "?...???...?",
            "?...???...?",
            "?...???...?",
            "???????????",
        ])
        segments = cluster_segments(detect_frontiers(belief), belief, 1)
        assert len(segments) == 2
        robot = Pose(*belief.cell_center(5, 2))
        chosen, breakdowns = heuristic_pick(segments, robot, belief,
                                            HeuristicParams())
        assert breakdowns[0].h == pytest.approx(breakdowns[1].h, rel=1e-12)
        assert breakdowns[0].d == pytest.approx(breakdowns[1].d, rel=1e-12)
        assert chosen is segments[0]

    def test_equal_h_breaks_toward_smaller_distance(self):
        # gamma=0 makes h == O; identical unknown disks tie on O while the
        # distances differ, so the nearer segment must win.
        belief = grid_from_rows(["?" * 40] * 9, inflate_costs=False)

        def seg(cx):
            return FrontierSegment(cells=np.array([[0, 0]]), centroid=(cx, 1.0),
                                   length_af=0.75, radius_r=0.5)

        far, near = seg(8.0), seg(3.0)
        chosen, breakdowns = heuristic_pick([far, near], Pose(0.0, 1.0),
                                            belief, HeuristicParams(gamma=0.0))
        assert breakdowns[0].h == breakdowns[1].h == 0.0
        assert chosen is near

    def test_prefers_lower_h(self):
        from scenes import case_study_scene

        belief, robot = case_study_scene()
        segments = cluster_segments(detect_frontiers(belief), belief, 3)
        params = HeuristicParams(alpha=8.0, beta=5.0, gamma=0.5)
        chosen, breakdowns = heuristic_pick(segments, robot, belief, params)
        by_h = min(breakdowns, key=lambda b: (b.h, b.d, b.segment_id))
        assert chosen is segments[by_h.segment_id]
