import math
import os
from dataclasses import replace

import numpy as np
import pytest

from conftest import clone_grid, grid_from_rows
from explorebench import explorer
from explorebench.cli import record_json, run_all, samples_csv
from explorebench.config import parse_config
from explorebench.explorer import (OUTCOME_COMPLETE, RunLimits, SelectorKind,
                                   aggregate_results, rank_segments,
                                   run_exploration)
from explorebench.frontier import FrontierSegment, detect_frontiers
from explorebench.gridmap import (FREE, UNKNOWN, InflationParams, LidarModel,
                                  OccupancyGrid, Pose, inflate, reachable_free_mask)
from explorebench.mapgen import TIERS, generate_map, pick_start
from explorebench.navigator import KinematicState
from explorebench.scoring import HeuristicParams, NoFrontiersError

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
LIDAR = LidarModel(beam_count=360, max_range=2.5)
KIN = KinematicState(v_max=0.5, w_max=2.0, dt=0.25)
PARAMS = HeuristicParams()
LIMITS = RunLimits(max_ticks=3000, expr_target=0.99)


def run(truth, start, selector="heuristic", limits=LIMITS, lidar=LIDAR, **kw):
    kw.setdefault("min_segment_size", 1)
    kw.setdefault("cost_weight", 3.0)
    kw.setdefault("goal_relax_radius", 5)
    return run_exploration(truth, start, SelectorKind.parse(selector), PARAMS,
                           lidar, KIN, limits, **kw)


class TestSelectorKind:
    def test_parse_and_label(self):
        assert SelectorKind.parse("nearest") == SelectorKind("nearest")
        assert SelectorKind.parse("random:7") == SelectorKind("random", 7)
        assert SelectorKind("random", 7).label() == "random:7"

    def test_validation(self):
        with pytest.raises(ValueError):
            SelectorKind("fancy")
        with pytest.raises(ValueError):
            SelectorKind("random")


class TestBaselines:
    def _segments(self):
        def seg(cx, cy, n):
            return FrontierSegment(cells=np.array([[0, 0]]), centroid=(cx, cy),
                                   length_af=n * 0.25, radius_r=0.5)
        return [seg(2.0, 0.0, 4), seg(5.0, 0.0, 10)]

    def _belief(self):
        return grid_from_rows(["." * 24] * 8, inflate_costs=False)

    def _top(self, kind, segments):
        ranked, _ = rank_segments(kind, segments, Pose(0, 0), self._belief(),
                                  PARAMS)
        return segments[ranked[0]]

    def test_nearest_picks_smaller_distance(self):
        chosen = self._top(SelectorKind("nearest"), self._segments())
        assert chosen.centroid == (2.0, 0.0)

    def test_largest_picks_longer(self):
        chosen = self._top(SelectorKind("largest"), self._segments())
        assert chosen.centroid == (5.0, 0.0)

    def test_random_is_deterministic(self):
        kind = SelectorKind("random", 7)
        segments = self._segments()
        assert self._top(kind, segments) is self._top(kind, segments)

    def test_empty_raises(self):
        with pytest.raises(NoFrontiersError):
            rank_segments(SelectorKind("nearest"), [], Pose(0, 0),
                          self._belief(), PARAMS)

    def test_rank_covers_all_segments(self):
        for kind in ("heuristic", "nearest", "largest"):
            ranked, breakdowns = rank_segments(SelectorKind(kind),
                                               self._segments(), Pose(0, 0),
                                               self._belief(), PARAMS)
            assert sorted(ranked) == [0, 1]
            assert len(breakdowns) == 2
        ranked, _ = rank_segments(SelectorKind("random", 3), self._segments(),
                                  Pose(0, 0), self._belief(), PARAMS)
        assert sorted(ranked) == [0, 1]


class TestRunExploration:
    def test_single_scan_room_completes_immediately(self):
        truth = grid_from_rows(["#" * 11] + ["#" + "." * 9 + "#"] * 9 + ["#" * 11])
        start = Pose(*truth.cell_center(5, 5))
        # The first reveal covers the room: one sample, no decision, also
        # when that reveal is the last tick's.
        for limits in (LIMITS, RunLimits(max_ticks=1, expr_target=LIMITS.expr_target)):
            record = run(truth, start, limits=limits)
            assert record.outcome == OUTCOME_COMPLETE
            assert record.final_rate == 1.0
            assert record.total_distance == 0.0
            assert len(record.samples) == 1
            assert record.decisions == []

    def test_two_rooms_full_coverage(self):
        rows = [
            "###############",
            "#......#......#",
            "#......#......#",
            "#.............#",
            "#......#......#",
            "#......#......#",
            "###############",
        ]
        truth = grid_from_rows(rows)
        start = Pose(*truth.cell_center(2, 2))
        record = run(truth, start, limits=RunLimits(max_ticks=3000, expr_target=1.0))
        assert record.outcome == OUTCOME_COMPLETE
        # Flood-fill completeness: every truth-reachable free cell is known.
        assert record.final_rate == 1.0
        reach = reachable_free_mask(truth, start)
        known = record.final_belief.states != UNKNOWN
        assert bool((known | ~reach).all())

    def test_sealed_area_excluded_from_rate(self):
        rows = [
            "############",
            "#....##....#",
            "#....##....#",
            "#....##....#",
            "############",
        ]
        truth = grid_from_rows(rows)
        start = Pose(*truth.cell_center(2, 2))
        record = run(truth, start)
        assert record.outcome == OUTCOME_COMPLETE
        assert record.final_rate == 1.0
        # The right room stays unknown; the metric never counts it.
        assert (record.final_belief.states[1:4, 7:11] == UNKNOWN).all()

    def test_record_invariants(self):
        rows = [
            "############",
            "#..........#",
            "#.###..###.#",
            "#..........#",
            "#....##....#",
            "#..........#",
            "############",
        ]
        truth = grid_from_rows(rows)
        start = Pose(*truth.cell_center(1, 1))
        record = run(truth, start, "nearest")
        assert record.outcome == OUTCOME_COMPLETE
        t = [s[0] for s in record.samples]
        dist = [s[4] for s in record.samples]
        rate = [s[5] for s in record.samples]
        assert t == [i * KIN.dt for i in range(len(t))]
        assert all(a <= b for a, b in zip(dist, dist[1:]))
        assert all(a <= b for a, b in zip(rate, rate[1:]))
        assert record.decisions, "expected at least one waypoint decision"
        for decision in record.decisions:
            ids = [s.segment_id for s in decision.scores]
            assert decision.chosen in ids

    def test_deterministic_records(self):
        rows = [
            "##########",
            "#........#",
            "#..##....#",
            "#........#",
            "##########",
        ]
        truth = grid_from_rows(rows)
        start = Pose(*truth.cell_center(1, 1), )
        a = run(truth, start, "random:9")
        b = run(truth, start, "random:9")
        assert a.samples == b.samples
        assert record_json(a) == record_json(b)
        assert samples_csv(a) == samples_csv(b)

    def test_tick_limit_outcome(self):
        rows = ["#" * 30] + ["#" + "." * 28 + "#"] * 28 + ["#" * 30]
        truth = grid_from_rows(rows)
        start = Pose(*truth.cell_center(2, 2))
        for max_ticks in (3, 1):
            record = run(truth, start, limits=RunLimits(max_ticks=max_ticks, expr_target=0.999))
            assert record.outcome == "tick_limit"
            assert len(record.samples) == max_ticks + 1

    def test_stalled_when_every_segment_is_unreachable(self):
        # An inscribed radius larger than the cell size seals the one-cell
        # doorway for the planner while the scanner still sees through it,
        # leaving only unplannable frontiers.
        from explorebench.gridmap import InflationParams

        rows = [
            "###############",
            "#......#......#",
            "#......#......#",
            "#.............#",
            "#......#......#",
            "#......#......#",
            "###############",
        ]
        inflation = InflationParams(inscribed_radius=0.3, inflation_radius=0.6,
                                    decay_rate=4.0)
        truth = grid_from_rows(rows, inflation=inflation)
        assert truth.costs[3, 7] == 253  # the doorway is planner-sealed
        record = run(truth, Pose(*truth.cell_center(2, 3)), "nearest")
        assert record.outcome == "stalled"
        assert record.final_rate < 0.99

    @pytest.mark.parametrize("selector", ["heuristic", "nearest"])
    @pytest.mark.parametrize("tier", TIERS)
    def test_invariants_hold_after_every_reveal(self, monkeypatch, tier, selector):
        # The loop's reveal, wrapped: after each one the robot stands on a
        # truth-Free cell, the belief equals the truth wherever it is known,
        # and the costs equal a full inflate of the states.
        reveal = explorer.raycast_reveal
        checked = []

        def reveal_and_check(belief, truth, pose, cells):
            changed = reveal(belief, truth, pose, cells)
            i, j = truth.world_to_cell(pose.x, pose.y)
            assert truth.in_bounds(i, j) and truth.states[j, i] == FREE
            known = belief.states != UNKNOWN
            assert (belief.states[known] == truth.states[known]).all()
            reference = clone_grid(belief)
            p = belief.inflation
            inflate(reference, p.inscribed_radius, p.inflation_radius, p.decay_rate)
            assert (reference.costs == belief.costs).all()
            checked.append(pose)
            return changed

        monkeypatch.setattr(explorer, "raycast_reveal", reveal_and_check)
        truth = generate_map(tier, seed=100)
        record = run(truth, pick_start(truth, 1), selector)
        assert record.outcome == OUTCOME_COMPLETE
        assert len(checked) == len(record.samples)

    def test_tick_after_empty_reveal_skips_rechecks(self, monkeypatch):
        # While a path is followed, a tick after a reveal that changed
        # nothing, with the robot on the cell of the last tick, calls
        # neither _target_alive nor _path_cells_valid; after a reveal that
        # changed something, it calls both. Only a tick that decides builds
        # the frontier mask.
        events, reveal = [], explorer.raycast_reveal

        def log(name, fn):
            return lambda *args: events.append(name) or fn(*args)

        def logged_reveal(belief, truth, pose, *args):
            changed = reveal(belief, truth, pose, *args)
            events.append((changed[0].size, truth.world_to_cell(pose.x, pose.y)))
            return changed

        monkeypatch.setattr(explorer, "raycast_reveal", logged_reveal)
        for name in ("detect_frontiers", "_target_alive", "_path_cells_valid"):
            monkeypatch.setattr(explorer, name, log(name, getattr(explorer, name)))
        truth = generate_map("medium", seed=100)
        record = run(truth, pick_start(truth, 1), "nearest")
        # ticks[t]: the reveal that ends tick t, and the calls tick t made.
        ticks, calls = [], []
        for event in events:
            if isinstance(event, tuple):
                ticks.append((event, calls))
                calls = []
            else:
                calls.append(event)
        ticks.append((None, calls))
        decided = {d.tick for d in record.decisions}
        assert len(decided) > 5
        # The last tick may find no segment to decide on and end the run.
        for t in range(1, len(ticks) - 1):
            assert ticks[t][1].count("detect_frontiers") == (t in decided), t
        skipped = checked = 0
        for t in range(2, len(ticks) - 1):
            (size, cell), calls = ticks[t - 1][0], ticks[t][1]
            if t in decided or t - 1 in decided:
                continue
            if size == 0 and cell == ticks[t - 2][0][1]:
                assert calls == [], t
                skipped += 1
            elif size:
                assert calls == ["_target_alive", "_path_cells_valid"], t
                checked += 1
        assert skipped > 20 and checked > 20

    @pytest.mark.parametrize("name, seeds", [("benchmark", [1, 2]), ("corridors", None)],
                             ids=["benchmark", "corridors"])
    def test_target_check_matches_frontier_mask(self, monkeypatch, name, seeds):
        # Each answer of the loop's check of a live target equals the
        # whole-grid frontier mask read at the target's cells, on the
        # benchmark's 20 maps (two of its five start seeds) and on the
        # bundled corridors.
        answers, alive = [], explorer._target_alive

        def checked(belief, cells):
            got = alive(belief, cells)
            assert got == detect_frontiers(belief)[cells[:, 1], cells[:, 0]].any()
            answers.append(bool(got))
            return got

        monkeypatch.setattr(explorer, "_target_alive", checked)
        monkeypatch.chdir(ROOT)
        with open(os.path.join("configs", f"{name}.cfg")) as f:
            cfg = parse_config(f.read())
        run_all(replace(cfg, seeds=seeds or cfg.seeds), jobs=1)
        assert answers.count(True) > 1000 and answers.count(False) > 100

    def test_target_check_on_random_grids(self, rng):
        # Targets of random Free cells on small random grids, whose edges
        # hold Free cells, as the corpus maps' borders never do.
        answers = []
        for _ in range(400):
            h, w = (int(n) for n in rng.randint(1, 7, size=2))
            states = rng.choice([UNKNOWN, FREE, FREE, 2], size=(h, w)).astype(np.uint8)
            free = np.argwhere(states == FREE)[:, ::-1]
            if len(free) == 0:
                continue
            cells = free[rng.permutation(len(free))[:rng.randint(1, len(free) + 1)]]
            belief = OccupancyGrid(w, h, 0.25, states, np.zeros_like(states))
            expected = bool(detect_frontiers(belief)[cells[:, 1], cells[:, 0]].any())
            assert explorer._target_alive(belief, cells) == expected, (states, cells)
            answers.append(expected)
        assert answers.count(True) > 50 and answers.count(False) > 50

    def test_lockstep_beliefs_are_scanner_slots(self, monkeypatch):
        # Each lockstep run reveals into its slot of the batch's scanner, and
        # its record keeps a copy of its slot of its own: two runs on one
        # truth object share neither a slot nor a final belief.
        scanners, beliefs = [], {}
        scanner_class, reveal = explorer.BeamScanner, explorer.raycast_reveal
        monkeypatch.setattr(explorer, "BeamScanner",
                            lambda *args: scanners.append(scanner_class(*args)) or scanners[-1])
        monkeypatch.setattr(explorer, "raycast_reveal", lambda belief, *args: (
            beliefs.setdefault(id(belief), belief), reveal(belief, *args))[1])
        low, medium = generate_map("low", seed=100), generate_map("medium", seed=100)
        runs = [(low, pick_start(low, 1), SelectorKind("heuristic")),
                (medium, pick_start(medium, 1), SelectorKind("nearest")),
                (low, pick_start(low, 2), SelectorKind("random", 3))]
        records = explorer.explore_lockstep(runs, PARAMS, LIDAR, KIN, RunLimits(max_ticks=40),
                                            min_segment_size=1, cost_weight=3.0,
                                            goal_relax_radius=5)
        (scanner,) = scanners
        assert len(beliefs) == len(runs)
        for belief in beliefs.values():
            assert np.shares_memory(belief.states, scanner.beliefs)
            assert np.shares_memory(belief.costs, scanner.costs)
        finals = [record.final_belief for record in records]
        for k, (final, slot) in enumerate(zip(finals, scanner.grids)):
            assert (final.states == slot.states).all() and (final.costs == slot.costs).all()
            for a in (final.states, final.costs):
                others = [scanner.beliefs, scanner.costs,
                          *(b for other in finals[k + 1:] for b in (other.states, other.costs))]
                assert not any(np.may_share_memory(a, b) for b in others)

    def test_huge_inflation_radius_run(self):
        # A radius beyond every grid, whose cell count overflows an int:
        # the kernel is clamped to the grid's extent.
        inflation = InflationParams(0.12, 1e308, 4.0)
        truth = generate_map("low", 100, inflation=inflation)
        record = run(truth, pick_start(truth, 1), limits=RunLimits(max_ticks=200))
        assert record.outcome == OUTCOME_COMPLETE
        belief = record.final_belief
        full = clone_grid(belief)
        inflate(full, inflation.inscribed_radius, inflation.inflation_radius,
                inflation.decay_rate)
        assert (belief.costs == full.costs).all()

    def test_huge_lidar_range_run(self):
        # Every range past the grid's diagonal reveals the same cells, so
        # the scan clamps it: a range whose cell count or square overflows
        # runs as one just past the diagonal.
        truth = generate_map("low", 100)
        start = pick_start(truth, 1)
        diagonal = math.hypot(truth.width, truth.height) * truth.resolution
        records = [run(truth, start, lidar=LidarModel(max_range=max_range))
                   for max_range in (1e308, diagonal + truth.resolution,
                                     diagonal + truth.resolution / 2)]
        assert records[0].outcome == OUTCOME_COMPLETE
        assert record_json(records[0]) == record_json(records[1]) == record_json(records[2])

    def test_random_maps_fuzz_invariants(self, rng):
        for trial in range(6):
            tier = ("low", "medium")[trial % 2]
            truth = generate_map(tier, seed=int(rng.randint(0, 10_000)))
            start = pick_start(truth, int(rng.randint(0, 10_000)))
            selector = ("heuristic", "nearest", "largest", "random:3")[trial % 4]
            record = run(truth, start, selector,
                         limits=RunLimits(max_ticks=2500, expr_target=0.99))
            assert record.outcome == OUTCOME_COMPLETE, (tier, trial)
            dist = [s[4] for s in record.samples]
            rate = [s[5] for s in record.samples]
            assert all(a <= b for a, b in zip(dist, dist[1:]))
            assert all(a <= b for a, b in zip(rate, rate[1:]))
            known = record.final_belief.states != UNKNOWN
            assert (record.final_belief.states[known]
                    == truth.states[known]).all()


class TestCompare:
    def _results(self, selectors, seeds):
        # The same settings as PARAMS, LIDAR, KIN and LIMITS above.
        cfg = parse_config(f"[selectors]\nselectors = {selectors}\n"
                           "[heuristic]\nmin_segment_size = 1\n"
                           "[limits]\nmax_ticks = 3000\n"
                           f"[run]\nseeds = {seeds}\n", need_maps=False)
        rows = [
            "############",
            "#..........#",
            "#.###..###.#",
            "#..........#",
            "############",
        ]
        cfg.maps = [("tiny", grid_from_rows(rows))]
        return run_all(cfg)

    def test_singleton_aggregate_equals_run(self):
        results = self._results("nearest", "3")
        assert len(results) == 1
        rows = aggregate_results(results)
        assert len(rows) == 1
        row = rows[0]
        rec = results[0].record
        assert row["runs"] == 1
        assert row["dist_mean"] == row["dist_min"] == row["dist_max"] \
            == rec.total_distance
        assert row["dist_std"] == 0.0
        assert row["time_mean"] == rec.total_time
        assert row["expr_mean"] == rec.final_rate

    def test_repeatable(self):
        rows_a = aggregate_results(self._results("heuristic", "1 2"))
        rows_b = aggregate_results(self._results("heuristic", "1 2"))
        assert rows_a == rows_b

    def test_aggregate_statistics(self):
        results = self._results("nearest heuristic", "1 2 3")
        rows = aggregate_results(results)
        assert len(rows) == 2
        for row in rows:
            group = [r.record.total_distance for r in results
                     if r.selector.label() == row["selector"]]
            assert row["runs"] == 3
            assert row["dist_mean"] == pytest.approx(float(np.mean(group)))
            assert row["dist_std"] == pytest.approx(float(np.std(group)))
