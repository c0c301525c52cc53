"""Acceptance suite: one test per shipping criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion. The comparative criteria (7 and 8) and the loop's invariants
share a 200-run benchmark corpus (20 generated maps x 5 seeds x 2
selectors) built once per session.
"""

import hashlib
import json
import math
import os
import time

import numpy as np
import pytest

from conftest import clone_grid
from explorebench.cli import main, record_json, run_all
from explorebench.config import parse_config
from explorebench.explorer import OUTCOME_COMPLETE, SelectorKind, rank_segments
from explorebench.frontier import (FrontierSegment, cluster_segments,
                                   detect_frontiers)
from explorebench.gridmap import FREE, OCCUPIED, UNKNOWN, OccupancyGrid, inflate
from explorebench.mapgen import generate_map
from explorebench.reward import RewardConfig, StepObservation, compute_reward
from explorebench.scoring import (HeuristicParams, distance_score, heuristic,
                                  occupancy_score)
from reference import brute_force_marks, brute_force_occupancy
from scenes import case_study_scene, frontier_type_scenes

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
BENCH_CONFIG = os.path.join(ROOT, "configs", "benchmark.cfg")
# The three digests below were recorded with numpy 2.4.6 and scipy 1.17.1.
# sha256 of record_json of the 200 corpus records, in corpus order.
CORPUS_DIGEST = "99cd13d407be4fbdaa1df8b636a112b5cc09211217f0c9220852095c124cbb3c"
# sha256 of record_json of the 24 corridor records of
# test_corridor_records_pinned, in run order.
CORRIDOR_DIGEST = "448fded6676380abf108b2e8a0e46f0a1b301a85fed1e6276d594e2c4f93b479"
# sha256 of the 36 artifacts of test_criterion_9_artifact_determinism, in
# name order: the CSV, SVG and JSON writers' bytes.
ARTIFACT_DIGEST = "4c7df7eec4a1e6b950930d9d1617446e22ce786439ea22ac8c7a38a9b652aa01"


def report(criterion, text):
    print(f"PASS  criterion {criterion}: {text}")


# ---------------------------------------------------------------------------
# 1. Frontier oracle equivalence
# ---------------------------------------------------------------------------

def test_criterion_1_frontier_oracle_equivalence():
    rng = np.random.RandomState(101)
    start = time.perf_counter()
    checked = 0
    for _ in range(1000):
        w = int(rng.randint(1, 33))
        h = int(rng.randint(1, 33))
        states = rng.choice([UNKNOWN, FREE, OCCUPIED], size=(h, w),
                            p=[0.3, 0.5, 0.2]).astype(np.uint8)
        belief = OccupancyGrid(w, h, 0.25, states, np.zeros_like(states))
        cells, expected = detect_frontiers(belief), np.flatnonzero(brute_force_marks(belief))
        assert np.array_equal(cells, expected), (w, h, np.setxor1d(cells, expected))
        checked += states.size
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(1, f"1000 grids, {checked} cells, 100% agreement in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. Distance score regime checks
# ---------------------------------------------------------------------------

def test_criterion_2_distance_score_regimes():
    # 50 pairs from the operating regime alpha, beta in [1, 4] m. Outside
    # alpha/beta <~ 4.4 the score provably dips inside the deep-suppressed
    # short-range region, so the regime bound is part of the contract.
    rng = np.random.RandomState(202)
    for _ in range(50):
        alpha = float(10 ** rng.uniform(0, math.log10(4.0)))
        beta = float(10 ** rng.uniform(0, math.log10(4.0)))
        params = HeuristicParams(alpha=alpha, beta=beta)
        assert distance_score(0.0, params) == 0.0
        grid = np.linspace(0.0, 1000.0 * beta, 10_000)
        values = np.array([distance_score(float(d), params) for d in grid])
        assert np.all(np.diff(values) >= 0.0), (alpha, beta)
        assert values[-1] >= 1.0 - 1e-9
        assert np.all(np.isfinite(values))
        assert np.all((values >= 0.0) & (values < 1.0))
    # No NaN or infinity anywhere in the wide parameter box.
    for _ in range(50):
        alpha = float(10 ** rng.uniform(-3, 3))
        beta = float(10 ** rng.uniform(-3, 3))
        params = HeuristicParams(alpha=alpha, beta=beta)
        for d in np.geomspace(1e-6, 1e9, 40).tolist() + [0.0, 1e9]:
            v = distance_score(float(d), params)
            assert math.isfinite(v) and 0.0 <= v < 1.0
    report(2, "50 pairs: D(0)=0, monotone over 10k-point grids, "
              "D(1000*beta)>=1-1e-9, finite everywhere")


# ---------------------------------------------------------------------------
# 3. Occupancy score oracle equivalence
# ---------------------------------------------------------------------------

def test_criterion_3_occupancy_oracle_equivalence():
    rng = np.random.RandomState(303)
    params = HeuristicParams(af_scale=1.0)
    for trial in range(500):
        w = int(rng.randint(4, 65))
        h = int(rng.randint(4, 65))
        states = rng.choice([UNKNOWN, FREE, OCCUPIED], size=(h, w),
                            p=[0.3, 0.5, 0.2]).astype(np.uint8)
        belief = OccupancyGrid(w, h, 0.25, states, np.zeros_like(states))
        inflate(belief, 0.12, 0.6, 4.0)
        seg = FrontierSegment(
            cells=np.array([[0, 0]]),
            centroid=(float(rng.uniform(-0.5, w * 0.25 + 0.5)),
                      float(rng.uniform(-0.5, h * 0.25 + 0.5))),
            length_af=float(rng.uniform(0.0, 5.0)),
            radius_r=float(rng.uniform(0.0, 2.5)),
        )
        got = occupancy_score(seg, belief, params)
        expected = brute_force_occupancy(seg, belief, params)
        assert got == pytest.approx(expected, rel=1e-12, abs=1e-15), trial
    report(3, "500 fixtures up to 64x64 match brute-force enumeration at 1e-12")


# ---------------------------------------------------------------------------
# 4. Frontier-type ordering
# ---------------------------------------------------------------------------

def test_criterion_4_frontier_type_ordering():
    scenes = frontier_type_scenes()
    params = HeuristicParams(gamma=0.5)
    scores = {}
    for name, (belief, robot) in scenes.items():
        segments = cluster_segments(detect_frontiers(belief), belief, 3)
        assert len(segments) == 1, name
        seg = segments[0]
        d = math.hypot(robot.x - seg.centroid[0], robot.y - seg.centroid[1])
        scores[name] = (d, seg.length_af, distance_score(d, params),
                        occupancy_score(seg, belief, params))
    distances = {round(v[0], 12) for v in scores.values()}
    lengths = {v[1] for v in scores.values()}
    assert len(distances) == 1 and len(lengths) == 1, "fixtures must match"
    o_closed = scores["closed"][3]
    o_open = scores["open_wide"][3]
    o_door = scores["door_gap"][3]
    assert o_closed < o_open < o_door
    h_values = {name: heuristic(v[2], v[3], params)
                for name, v in scores.items()}
    assert min(h_values, key=h_values.get) == "closed"
    report(4, f"O closed={o_closed:.5f} < open-wide={o_open:.5f} "
              f"< door-gap={o_door:.5f}; gamma=0.5 argmin is the closed frontier")


# ---------------------------------------------------------------------------
# 5. Case-study selection
# ---------------------------------------------------------------------------

def test_criterion_5_case_study_selection():
    belief, robot = case_study_scene()
    segments = cluster_segments(detect_frontiers(belief), belief, 3)
    assert len(segments) == 2
    params = HeuristicParams(alpha=8.0, beta=5.0, gamma=0.5)
    ranked, breakdowns = rank_segments(SelectorKind("heuristic"), segments,
                                       robot, belief, params)
    chosen = segments[ranked[0]]
    sizes = {len(s.cells) for s in segments}
    assert sizes == {4, 12}
    assert len(chosen.cells) == 12, "expected the enclosed pocket ring"
    by_size = {len(segments[b.segment_id].cells): b for b in breakdowns}
    ring, door = by_size[12], by_size[4]
    assert ring.d > door.d, "the winner is the farther frontier"
    assert ring.h < door.h
    report(5, f"enclosed frontier (d={ring.d:.3f}m, h={ring.h:.4f}) beats "
              f"door gap (d={door.d:.3f}m, h={door.h:.4f})")


# ---------------------------------------------------------------------------
# 6. Reward contract
# ---------------------------------------------------------------------------

def test_criterion_6_reward_contract():
    rng = np.random.RandomState(606)
    for form in ("paren_minus_one", "literal"):
        cfg = RewardConfig(distance_term_form=form)

        def obs(lidar_min=10.0, d_now=5.0, angle=0.0, ang=0.0):
            return StepObservation(lidar_min=lidar_min, d_goal_init=5.0,
                                   d_goal_now=d_now, goal_angle=angle,
                                   action_linear=0.26, action_angular=ang)

        base = 0.0 if form == "paren_minus_one" else 2 * 5.0 / 9.0
        reach = 1.0 if form == "paren_minus_one" else 2.5
        assert compute_reward(obs(), cfg) == pytest.approx(base)
        assert compute_reward(obs(d_now=0.0), cfg) == pytest.approx(reach + 5000.0)
        assert compute_reward(obs(lidar_min=0.0), cfg) == pytest.approx(base - 2050.0)

        for _ in range(500):
            lidar_min = float(rng.uniform(0, 2))
            d_now = float(rng.uniform(0, 10))
            angles = sorted(rng.uniform(0, math.pi, size=3))
            rewards = [compute_reward(obs(lidar_min, d_now, a, 0.0), cfg)
                       for a in angles]
            assert all(x >= y for x, y in zip(rewards, rewards[1:]))
            spins = sorted(rng.uniform(0, 3, size=3))
            rewards = [compute_reward(obs(lidar_min, d_now, 0.0, wv), cfg)
                       for wv in spins]
            assert all(x >= y for x, y in zip(rewards, rewards[1:]))
        eps = 1e-9
        tc = cfg.collision_threshold
        at = compute_reward(obs(lidar_min=1.5 * tc), cfg)
        below = compute_reward(obs(lidar_min=1.5 * tc - eps), cfg)
        collide = compute_reward(obs(lidar_min=tc - eps), cfg)
        assert at - below == pytest.approx(50.0, abs=1e-9)
        assert below - collide == pytest.approx(2000.0, abs=1e-9)
    report(6, "examples and 1000 monotonicity probes hold in both "
              "distance-term forms")


# ---------------------------------------------------------------------------
# 7 and 8. Benchmark corpus criteria
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def benchmark_corpus():
    # The shipped comparison in one lockstep batch: 20 maps (low:6 medium:7
    # high:7 from map seed 100) x start seeds 1-5 x heuristic and nearest.
    with open(BENCH_CONFIG) as f:
        cfg = parse_config(f.read())
    start = time.perf_counter()
    results = run_all(cfg, jobs=1)
    elapsed = time.perf_counter() - start
    maps = [(name.rstrip("0123456789"), name, truth) for name, truth in cfg.maps]
    runs = [(r.map_name.rstrip("0123456789"), r.map_name, r.seed, r.selector.kind,
             r.record) for r in results]
    return maps, runs, elapsed


def test_criterion_7_completeness(benchmark_corpus):
    maps, runs, elapsed = benchmark_corpus
    assert len(maps) == 20
    assert len(runs) == 200
    for tier, name, seed, selector, record in runs:
        assert record.outcome == OUTCOME_COMPLETE, (name, seed, selector)
        assert record.final_rate >= 0.99, (name, seed, selector)
    assert elapsed < 300.0
    report(7, f"200/200 runs complete with rate >= 0.99 on 20 maps "
              f"({elapsed:.1f}s single-threaded, bound 300s)")


def test_criterion_8_directional_comparison(benchmark_corpus):
    _, runs, _ = benchmark_corpus
    dist = {}
    times = {}
    for tier, _, _, selector, record in runs:
        dist.setdefault((tier, selector), []).append(record.total_distance)
        times.setdefault((tier, selector), []).append(record.total_time)
    summary = []
    for tier in ("low", "medium", "high"):
        fh_d = float(np.mean(dist[(tier, "heuristic")]))
        nf_d = float(np.mean(dist[(tier, "nearest")]))
        fh_t = float(np.mean(times[(tier, "heuristic")]))
        nf_t = float(np.mean(times[(tier, "nearest")]))
        if tier in ("medium", "high"):
            assert fh_d <= nf_d, (tier, fh_d, nf_d)
        assert fh_t <= nf_t, (tier, fh_t, nf_t)
        summary.append(f"{tier}: dist {fh_d:.2f}<={nf_d:.2f}m "
                       f"time {fh_t:.1f}<={nf_t:.1f}s")
    report(8, "heuristic vs nearest means - " + "; ".join(summary))


def test_corpus_records_pinned(benchmark_corpus):
    # Every trajectory, decision and final belief of the 200 runs. A change
    # that moves this digest on purpose names the change and re-pins it.
    _, runs, _ = benchmark_corpus
    digest = hashlib.sha256()
    for *_, record in runs:
        digest.update(record_json(record).encode())
    assert digest.hexdigest() == CORPUS_DIGEST


def test_corridor_records_pinned():
    # The bundled corridors with a wider inflation (a kernel of radius 3 at
    # 0.25 m, an inscribed band) and every selector: runs that stand on
    # inscribed cells, which the path check exempts, as the corpus never does.
    maps = " ".join(os.path.join(ROOT, "maps", f"corridor_{x}.txt") for x in "ab")
    cfg = parse_config(
        f"[maps]\nfiles = {maps}\n"
        "[inflation]\ninscribed_radius = 0.26\ninflation_radius = 0.8\ndecay_rate = 3.0\n"
        "[selectors]\nselectors = heuristic nearest largest random:3\n"
        "[heuristic]\nmin_segment_size = 1\n[run]\nseeds = 1 2 3\n")
    digest = hashlib.sha256()
    for result in run_all(cfg, jobs=1):
        digest.update(record_json(result.record).encode())
    assert digest.hexdigest() == CORRIDOR_DIGEST


def test_corpus_run_invariants(benchmark_corpus):
    # The loop's invariants, which the reveal's cull and its windowed
    # re-inflation rely on to be exact, checked on every corpus run's end.
    maps, runs, _ = benchmark_corpus
    truths = {name: truth for _, name, truth in maps}
    for _, name, seed, selector, record in runs:
        truth = truths[name]
        samples = np.array(record.samples)
        cells = (truth.world_to_cell(x, y) for x, y in samples[:, 1:3])
        assert all(truth.in_bounds(i, j) and truth.states[j, i] == FREE
                   for i, j in cells), (name, seed, selector)
        # Cumulative distance and coverage.
        assert (np.diff(samples[:, 4:], axis=0) >= 0).all()
        belief = record.final_belief
        known = belief.states != UNKNOWN
        assert (belief.states[known] == truth.states[known]).all()
        reference = clone_grid(belief)
        p = belief.inflation
        inflate(reference, p.inscribed_radius, p.inflation_radius, p.decay_rate)
        assert (reference.costs == belief.costs).all(), (name, seed, selector)


# ---------------------------------------------------------------------------
# 9. Determinism of artifacts
# ---------------------------------------------------------------------------

def test_criterion_9_artifact_determinism(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "[maps]\ngenerate = low:1 medium:1\nmap_seed = 100\n"
        "[selectors]\nselectors = heuristic nearest random:5\n"
        "[heuristic]\nmin_segment_size = 1\n"
        "[run]\nseeds = 1 2\n"
        f"outdir = {tmp_path / 'a'}\nemit = csv json svg\n")
    assert main(["run", "--config", str(cfg)]) == 0
    first = {p.name: p.read_bytes() for p in (tmp_path / "a").iterdir()}
    assert main(["run", "--config", str(cfg)]) == 0
    second = {p.name: p.read_bytes() for p in (tmp_path / "a").iterdir()}
    assert first == second
    assert len(first) == 2 * 3 * 2 * 3  # maps x selectors x seeds x formats
    digest = hashlib.sha256()
    for name in sorted(first):
        digest.update(first[name])
    assert digest.hexdigest() == ARTIFACT_DIGEST
    payload = json.loads(first["low00_heuristic_1.json"].decode())
    assert payload["outcome"] == OUTCOME_COMPLETE
    report(9, f"{len(first)} artifacts byte-identical across reruns")


# ---------------------------------------------------------------------------
# 10. Performance floor
# ---------------------------------------------------------------------------

def test_criterion_10_large_grid_performance():
    base = generate_map("high", seed=11)
    reps = math.ceil(1000 / base.height), math.ceil(1000 / base.width)
    states = np.tile(base.states, reps)[:1000, :1000].copy()
    jj, ii = np.mgrid[0:1000, 0:1000]
    hidden = (ii - 500) ** 2 + (jj - 500) ** 2 > 420**2
    states[hidden] = UNKNOWN
    costs = np.zeros_like(states)
    costs[states == UNKNOWN] = 255
    costs[states == OCCUPIED] = 254
    belief = OccupancyGrid(1000, 1000, 0.05, states, costs)

    detect_frontiers(belief)  # warm-up
    start = time.perf_counter()
    cells = detect_frontiers(belief)
    segments = cluster_segments(cells, belief, min_size=3)
    elapsed = time.perf_counter() - start
    assert len(cells) > 1000
    assert segments, "expected frontier segments on the reveal boundary"
    assert elapsed < 0.150
    report(10, f"1000x1000 detect+cluster in {elapsed * 1000:.1f}ms "
               f"({len(segments)} segments, {len(cells)} cells)")
