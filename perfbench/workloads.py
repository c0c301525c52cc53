"""The benchmark's workloads: inputs from a seed, one timed pass, output checks.

Each workload has three steps. ``setup(lap)`` builds the inputs (config
load, map generation, inflation) and is timed as set-up; it calls ``lap()``
between its phases, so each phase can be timed on its own.
``run_pass(inputs, probe)`` is the timed unit of work and returns raw
outputs; where it times operations one by one it calls ``probe()``, when
given, before each operation and after the last, untimed, so each
operation's time can be set against the machine's speed around it. ``finish(inputs, raw)``
runs outside the timing: it checks the outputs and reduces them to a
``PassResult`` with a digest, so repeated passes over the same inputs must
give the same digest.

The program is called only through its public entry points, looked up on
their modules at call time so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import os
import random
from dataclasses import dataclass, field
from time import perf_counter, process_time

import numpy as np
from scipy import ndimage

from explorebench import cli, config, explorer, gridmap, mapgen, navigator
from explorebench.explorer import OUTCOME_COMPLETE, RunResult, SelectorKind
from explorebench.gridmap import FREE, UNKNOWN, OccupancyGrid
from explorebench.navigator import NoPathError

# The shipped comparison (configs/benchmark.cfg), pinned here so the
# workload does not follow edits to that file. map_seed is the workload
# seed. One pass runs a fifth of its 200 runs: every map and both
# selectors, with start seed 1 + seed mod 5.
CORPUS_CONFIG = """\
[maps]
generate = low:6 medium:7 high:7
map_seed = {seed}

[selectors]
selectors = heuristic nearest

[heuristic]
min_segment_size = 1

[run]
seeds = {start_seed}
outdir = {outdir}
emit = csv
"""

# decide-large keeps every default except the segment filter, as the corpus.
DECIDE_CONFIG = """\
[heuristic]
min_segment_size = 1
"""

TILES = 26  # 26 x 26 high-tier maps of 39 x 39 cells: 1014 x 1014 cells
SNAPSHOTS = 16
# Geodesic radii in cells, one per snapshot: a fixed ladder, so the seed
# changes where the robot stands but not how much of the map it knows.
RADII = tuple(30 + round(70 * k / (SNAPSHOTS - 1)) for k in range(SNAPSHOTS))
DECIDE_SELECTORS = (SelectorKind("heuristic"), SelectorKind("nearest"))
_FOUR = ndimage.generate_binary_structure(2, 1)


@dataclass
class PassResult:
    digest: str
    attempted: int  # runs or decisions
    failed: int
    ops: int  # simulated ticks (corpus workloads) or decisions (decide-large)
    ticks: int = 0
    decisions: int = 0
    op_times: list[float] = field(default_factory=list)  # wall s per run or decision
    op_cpu: list[float] = field(default_factory=list)  # CPU s per run or decision
    # probe() results around the operations: one before each, one after the last
    op_probes: list = field(default_factory=list)
    problems: list[str] = field(default_factory=list)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _write(path: str, text: str) -> str:
    with open(path, "w") as f:
        f.write(text)
    return path


# ---------------------------------------------------------------------------
# corpus: the shipped comparison, serially, one run at a time
# ---------------------------------------------------------------------------

class Corpus:
    times_ops = True  # run_pass times each run and probes around it

    def __init__(self, seed: int, workdir: str):
        self.outdir = os.path.join(workdir, "compare")
        os.makedirs(self.outdir, exist_ok=True)
        text = CORPUS_CONFIG.format(seed=seed, start_seed=1 + seed % 5,
                                    outdir=self.outdir)
        self.cfg_path = _write(os.path.join(workdir, "corpus.cfg"), text)

    def setup(self, lap):
        cfg = config.load_config(self.cfg_path)
        lap()
        # Same order as the compare harness: map, start seed, selector.
        specs = [(name, truth, s, mapgen.pick_start(truth, s), selector)
                 for name, truth in cfg.maps
                 for s in cfg.seeds
                 for selector in cfg.selectors]
        return cfg, specs

    def run_pass(self, inputs, probe=None):
        cfg, specs = inputs
        results, times, cpu, probes = [], [], [], []
        for name, truth, s, start, selector in specs:
            if probe:
                probes.append(probe())
            t0, c0 = perf_counter(), process_time()
            record = explorer.run_exploration(
                truth, start, selector, cfg.params, cfg.lidar, cfg.kinematics,
                cfg.limits, min_segment_size=cfg.min_segment_size,
                cost_weight=cfg.cost_weight, goal_relax_radius=cfg.goal_relax_radius)
            times.append(perf_counter() - t0)
            cpu.append(process_time() - c0)
            results.append(RunResult(name, selector, s, start, record))
        if probe:
            probes.append(probe())
        return results, times, cpu, probes

    def finish(self, inputs, raw) -> PassResult:
        cfg = inputs[0]
        results, times, cpu, probes = raw
        problems, failed = [], 0
        for r in results:
            rec = r.record
            label = f"{r.map_name}/{r.selector.label()}/{r.seed}"
            if rec.outcome != OUTCOME_COMPLETE or rec.final_rate < cfg.limits.expr_target:
                failed += 1
                problems.append(f"{label}: {rec.outcome} at coverage {rec.final_rate:.4f}")
            cover = np.array([s[5] for s in rec.samples])
            dist = np.array([s[4] for s in rec.samples])
            if (np.diff(cover) < 0).any() or (np.diff(dist) < 0).any():
                problems.append(f"{label}: coverage or distance decreased")
        text = cli.aggregate_csv(explorer.aggregate_results(results, by_map=True))
        ticks = sum(len(r.record.samples) - 1 for r in results)
        return PassResult(
            digest=_digest(text), attempted=len(results), failed=failed, ops=ticks,
            ticks=ticks, decisions=sum(len(r.record.decisions) for r in results),
            op_times=times, op_cpu=cpu, op_probes=probes, problems=problems)


# ---------------------------------------------------------------------------
# corpus-pool: the same inputs through `explorebench compare --jobs N`
# ---------------------------------------------------------------------------

class CorpusPool(Corpus):
    times_ops = False

    def __init__(self, seed: int, workdir: str, jobs: int):
        super().__init__(seed, workdir)
        self.jobs = jobs
        self.aggregate_path = os.path.join(self.outdir, "aggregate.csv")

    def setup(self, lap):
        return config.load_config(self.cfg_path)

    def run_pass(self, inputs, probe=None):
        """One `compare` call; its runs are not timed one by one, so it
        never calls `probe`."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["compare", "--config", self.cfg_path,
                             "--jobs", str(self.jobs)])
        return code

    def finish(self, inputs, raw) -> PassResult:
        cfg = inputs
        with open(self.aggregate_path) as f:
            text = f.read()
        os.remove(self.aggregate_path)
        rows = list(csv.DictReader(io.StringIO(text)))
        problems = [] if raw == 0 else [f"compare exited with {raw}"]
        runs = sum(int(row["runs"]) for row in rows)
        failed = runs - sum(int(row["complete"]) for row in rows)
        for row in rows:
            if float(row["expr_min"]) < cfg.limits.expr_target:
                problems.append(f"{row['map']}/{row['selector']}: coverage "
                                f"{row['expr_min']} below the target")
        if failed:
            problems.append(f"{failed} of {runs} runs did not complete")
        expected = len(cfg.maps) * len(cfg.seeds) * len(cfg.selectors)
        if runs != expected:
            problems.append(f"aggregate holds {runs} runs, expected {expected}")
        ticks = round(sum(int(row["runs"]) * float(row["time_mean"]) for row in rows)
                      / cfg.kinematics.dt)
        return PassResult(digest=_digest(text), attempted=runs, failed=failed,
                          ops=ticks, ticks=ticks, problems=problems)


# ---------------------------------------------------------------------------
# decide-large: one waypoint decision per operation on large snapshots
# ---------------------------------------------------------------------------

def tiled_truth(seed: int, inflation, lap) -> OccupancyGrid:
    """Tile seeded high-tier maps and carve a 2-cell doorway between
    neighbours; ``lap()`` after each row of tiles."""
    tiles = []
    for r in range(TILES):
        tiles.append([mapgen.generate_map("high", seed * 1000 + r * TILES + c,
                                          inflation=inflation)
                      for c in range(TILES)])
        lap()
    res = tiles[0][0].resolution
    states = [[t.states for t in row] for row in tiles]
    n = states[0][0].shape[0]
    rng = random.Random(f"{seed}:doorways")
    for r in range(TILES):
        for c in range(TILES):
            a = states[r][c]
            if c + 1 < TILES:  # through a's east wall and its neighbour's west wall
                b = states[r][c + 1]
                ok = ((a[1:n - 2, n - 2] == FREE) & (a[2:n - 1, n - 2] == FREE)
                      & (b[1:n - 2, 1] == FREE) & (b[2:n - 1, 1] == FREE))
                rows = np.flatnonzero(ok) + 1
                if len(rows):
                    j = int(rows[rng.randrange(len(rows))])
                    a[j:j + 2, n - 1] = FREE
                    b[j:j + 2, 0] = FREE
            if r + 1 < TILES:  # through a's south wall and its neighbour's north wall
                b = states[r + 1][c]
                ok = ((a[n - 2, 1:n - 2] == FREE) & (a[n - 2, 2:n - 1] == FREE)
                      & (b[1, 1:n - 2] == FREE) & (b[1, 2:n - 1] == FREE))
                cols = np.flatnonzero(ok) + 1
                if len(cols):
                    i = int(cols[rng.randrange(len(cols))])
                    a[n - 1, i:i + 2] = FREE
                    b[0, i:i + 2] = FREE
    grid = np.block(states)
    height, width = grid.shape
    return OccupancyGrid(width, height, res, grid, np.zeros_like(grid),
                         inflation=inflation)


def snapshot(truth: OccupancyGrid, free: np.ndarray, start_seed: int, radius: int):
    """Belief that knows the free cells within a geodesic radius, plus their rim."""
    robot = mapgen.pick_start(truth, start_seed)
    si, sj = truth.world_to_cell(robot.x, robot.y)
    seed_cell = np.zeros_like(free)
    seed_cell[sj, si] = True
    region = ndimage.binary_dilation(seed_cell, _FOUR, iterations=radius, mask=free)
    known = ndimage.binary_dilation(region, _FOUR)
    states = np.where(known, truth.states, UNKNOWN).astype(np.uint8)
    belief = OccupancyGrid(truth.width, truth.height, truth.resolution, states,
                           np.zeros_like(states), inflation=truth.inflation)
    p = truth.inflation
    gridmap.inflate(belief, p.inscribed_radius, p.inflation_radius, p.decay_rate)
    return belief, robot


@dataclass
class Choice:
    chosen: int | None  # segment index, None when no candidate gave a path
    tried: int
    centroid: tuple[float, float] | None = None
    path: navigator.PlannedPath | None = None


def decide(cfg, belief, robot, selector) -> Choice:
    """Frontiers, segments, ranking, then A* down the ranking."""
    mask = explorer.detect_frontiers(belief)
    segments = explorer.cluster_segments(mask, belief, cfg.min_segment_size)
    if not segments:
        return Choice(None, 0)
    ranked, _ = explorer.rank_segments(selector, segments, robot, belief, cfg.params)
    for tried, idx in enumerate(ranked, start=1):
        try:
            path = explorer.plan_path(belief, robot, segments[idx].centroid,
                                      cfg.cost_weight, cfg.goal_relax_radius)
        except NoPathError:
            continue
        if len(path.waypoints) > 1:
            return Choice(idx, tried, segments[idx].centroid, path)
    return Choice(None, len(ranked))


def path_problems(belief, robot, choice: Choice, relax: int) -> list[str]:
    """The path starts on the robot's cell, takes 8-adjacent steps over
    traversable cells without cutting corners, and ends at the goal."""
    trav = navigator.traversable_mask(belief)
    ri, rj = belief.world_to_cell(robot.x, robot.y)
    trav[rj, ri] = True
    cells = [belief.world_to_cell(x, y) for x, y in choice.path.waypoints]
    problems = []
    if cells[0] != (ri, rj):
        problems.append(f"starts at {cells[0]}, robot at {(ri, rj)}")
    for (ci, cj), (ni, nj) in zip(cells, cells[1:]):
        di, dj = ni - ci, nj - cj
        if max(abs(di), abs(dj)) != 1 or not trav[nj, ni]:
            problems.append(f"bad step {(ci, cj)} -> {(ni, nj)}")
            break
        if di and dj and not (trav[cj, ni] and trav[nj, ci]):
            problems.append(f"corner cut {(ci, cj)} -> {(ni, nj)}")
            break
    # Goal: the centroid's cell, or else the traversable cell nearest to
    # it within the relax window (ties to the lower flat index).
    gi, gj = belief.world_to_cell(*choice.centroid)
    gi = min(max(gi, 0), belief.width - 1)
    gj = min(max(gj, 0), belief.height - 1)
    goal = (gi, gj)
    if not trav[gj, gi]:
        j0, i0 = max(gj - relax, 0), max(gi - relax, 0)
        jj, ii = np.nonzero(trav[j0:gj + relax + 1, i0:gi + relax + 1])
        jj, ii = jj + j0, ii + i0
        best = np.lexsort((jj * belief.width + ii, (ii - gi) ** 2 + (jj - gj) ** 2))[0]
        goal = (int(ii[best]), int(jj[best]))
    if cells[-1] != goal:
        problems.append(f"ends at {cells[-1]}, goal {goal}")
    return problems


class DecideLarge:
    times_ops = True  # run_pass times each decision and probes around it

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.cfg_path = _write(os.path.join(workdir, "decide.cfg"), DECIDE_CONFIG)

    def setup(self, lap):
        cfg = config.load_config(self.cfg_path, need_maps=False)
        truth = tiled_truth(self.seed, cfg.inflation, lap)
        free = truth.states == FREE
        snaps = []
        for k, radius in enumerate(RADII):
            lap()
            snaps.append(snapshot(truth, free, self.seed * 1000 + k, radius))
        return cfg, snaps

    def run_pass(self, inputs, probe=None):
        cfg, snaps = inputs
        choices, times, cpu, probes = [], [], [], []
        for belief, robot in snaps:
            for selector in DECIDE_SELECTORS:
                if probe:
                    probes.append(probe())
                t0, c0 = perf_counter(), process_time()
                choices.append(decide(cfg, belief, robot, selector))
                times.append(perf_counter() - t0)
                cpu.append(process_time() - c0)
        if probe:
            probes.append(probe())
        return choices, times, cpu, probes

    def finish(self, inputs, raw) -> PassResult:
        cfg, snaps = inputs
        choices, times, cpu, probes = raw
        problems, lines, failed = [], [], 0
        pairs = [(snap, sel) for snap in snaps for sel in DECIDE_SELECTORS]
        for k, (((belief, robot), selector), choice) in enumerate(zip(pairs, choices)):
            label = f"snapshot {k // len(DECIDE_SELECTORS)}/{selector.label()}"
            if choice.chosen is None:
                failed += 1
                problems.append(f"{label}: no candidate of {choice.tried} gave a path")
                lines.append(f"{label} none {choice.tried}")
                continue
            problems += [f"{label}: {p}" for p in
                         path_problems(belief, robot, choice, cfg.goal_relax_radius)]
            lines.append(f"{label} {choice.chosen} {choice.tried} "
                         f"{choice.path.total_cost!r} {choice.path.waypoints!r}")
        return PassResult(digest=_digest("\n".join(lines)), attempted=len(choices),
                          failed=failed, ops=len(choices), decisions=len(choices),
                          op_times=times, op_cpu=cpu, op_probes=probes,
                          problems=problems)
