"""Command line interface: run experiments, inspect scores, compute rewards.

Subcommands:
  run      execute every (map, seed, selector) run and write artifacts
  compare  same runs, aggregated into one Table-style CSV plus a summary
  score    print the per-segment score table for a map/belief snapshot
  reward   turn JSON step observations into reward CSV lines

Exit codes: 0 success (run/compare: all runs complete), 1 config or I/O
error, 2 some run stalled or hit the tick limit, 3 no frontiers (score).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from functools import partial

from .config import (DEFAULT_CONFIG, ConfigError, ExperimentConfig, load_config,
                     parse_config)
# perfbench/tracing.py wraps cli.run_exploration by name.
from .explorer import (OUTCOME_COMPLETE, RunResult, SelectorKind,  # noqa: F401
                       aggregate_results, explore_lockstep, rank_segments,
                       run_exploration)
from .frontier import cluster_segments, detect_frontiers
from .gridmap import MapError, Pose, check_pose, load_belief, load_map_file
from .mapgen import pick_start
from .render import run_svg
from .reward import RewardConfig, StepObservation, compute_reward, reward_terms

SAMPLES_CSV_HEADER = ["t", "x", "y", "cumulative_distance", "exploration_rate"]
SCORE_CSV_HEADER = ["segment_id", "d", "D", "O", "h", "chosen"]
REWARD_CSV_HEADER = ["r_yaw", "r_linear", "r_angular", "r_distance",
                     "r_obstacle", "reward"]


def samples_csv(record) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SAMPLES_CSV_HEADER)
    for t, x, y, _theta, dist, rate in record.samples:
        writer.writerow([repr(t), repr(x), repr(y), repr(dist), repr(rate)])
    return buf.getvalue()


def aggregate_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def record_json(record) -> str:
    return json.dumps(record.to_json(), sort_keys=True, indent=2, allow_nan=False) + "\n"


def _artifact_stem(map_name, selector, seed) -> str:
    return f"{map_name}_{selector.label().replace(':', '-')}_{seed}"


def _write_artifacts(outdir, result: RunResult, emit):
    stem = os.path.join(outdir, _artifact_stem(result.map_name, result.selector,
                                               result.seed))
    for ext, writer in (("json", record_json), ("csv", samples_csv), ("svg", run_svg)):
        if ext in emit:
            with open(f"{stem}.{ext}", "w") as f:
                f.write(writer(result.record))


def run_all(cfg: ExperimentConfig, jobs: int = 1) -> list[RunResult]:
    """Run every (map, seed, selector) combination, in that nesting order.

    Each seed picks the start pose on each map. The runs are dealt into
    min(jobs, runs) chunks in snake order (0, 1, ..., jobs - 1, jobs - 1,
    ..., 0, 0, 1, ...), so every chunk gets a like share of maps and
    selectors; each chunk runs in lockstep (explorer.explore_lockstep), in
    a worker process of its own when there are two or more. Results come
    back in combination order and do not depend on jobs.
    """
    specs = [(name, truth, selector, seed, pick_start(truth, seed))
             for name, truth in cfg.maps
             for seed in cfg.seeds
             for selector in cfg.selectors]
    jobs = max(1, min(jobs, len(specs)))
    deal = [min(n % (2 * jobs), 2 * jobs - 1 - n % (2 * jobs)) for n in range(len(specs))]
    chunks = [[(truth, start, selector) for (_, truth, selector, _, start), q in zip(specs, deal)
               if q == chunk] for chunk in range(jobs)]
    explore = partial(explore_lockstep, params=cfg.params, lidar=cfg.lidar,
                      kin=cfg.kinematics, limits=cfg.limits,
                      min_segment_size=cfg.min_segment_size, cost_weight=cfg.cost_weight,
                      goal_relax_radius=cfg.goal_relax_radius)
    if jobs == 1:
        done = [explore(chunks[0])]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            done = list(pool.map(explore, chunks))
    records = [iter(chunk) for chunk in done]
    return [RunResult(name, selector, seed, start, next(records[q]))
            for (name, _, selector, seed, start), q in zip(specs, deal)]


def cmd_run(cfg: ExperimentConfig, results: list[RunResult]) -> None:
    for r in results:
        _write_artifacts(cfg.outdir, r, cfg.emit)
        rec = r.record
        print(f"{_artifact_stem(r.map_name, r.selector, r.seed)}: {rec.outcome} "
              f"dist={rec.total_distance:.3f}m time={rec.total_time:.1f}s "
              f"expr={rec.final_rate * 100:.2f}%")


def cmd_compare(cfg: ExperimentConfig, results: list[RunResult]) -> None:
    rows = aggregate_results(results, by_map=True)
    with open(os.path.join(cfg.outdir, "aggregate.csv"), "w") as f:
        f.write(aggregate_csv(rows))
    for row in aggregate_results(results, by_map=False):
        print(f"{row['selector']}: runs={row['runs']} "
              f"dist={row['dist_mean']:.3f}m time={row['time_mean']:.1f}s "
              f"expr={row['expr_mean'] * 100:.2f}%")


def cmd_score(cfg: ExperimentConfig, map_path, belief_path, pose_text) -> int:
    truth = load_map_file(map_path, cfg.inflation)
    with open(belief_path, "rb") as f:
        belief = load_belief(f.read(), cfg.inflation)
    if belief.states.shape != truth.states.shape:
        print("error: belief and map dimensions differ", file=sys.stderr)
        return 1
    if belief.resolution != truth.resolution:
        print("error: belief and map resolutions differ", file=sys.stderr)
        return 1
    try:
        pose = [float(v) for v in pose_text.split(",")]
    except ValueError:
        pose = []
    if len(pose) != 3 or not all(map(math.isfinite, pose)):
        print(f"error: bad pose {pose_text!r}, expected x,y,theta", file=sys.stderr)
        return 1
    robot = Pose(*pose)
    check_pose(truth, robot)
    segments = cluster_segments(detect_frontiers(belief), belief,
                                cfg.min_segment_size)
    if not segments:
        print("no frontiers", file=sys.stderr)
        return 3
    ranked, breakdowns = rank_segments(SelectorKind("heuristic"), segments,
                                       robot, belief, cfg.params)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(SCORE_CSV_HEADER)
    for b in breakdowns:
        writer.writerow([b.segment_id, repr(b.d), repr(b.D), repr(b.O), repr(b.h),
                         str(b.segment_id == ranked[0]).lower()])
    return 0


def cmd_reward(reward_cfg: RewardConfig, stream) -> int:
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(REWARD_CSV_HEADER)
    for lineno, line in enumerate(stream, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obs = StepObservation(**json.loads(line))
            terms = reward_terms(obs, reward_cfg)
            total = compute_reward(obs, reward_cfg)
        except (ValueError, TypeError, ArithmeticError) as e:
            print(f"error: line {lineno}: {e}", file=sys.stderr)
            return 1
        writer.writerow([repr(terms[k]) for k in REWARD_CSV_HEADER[:-1]]
                        + [repr(total)])
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="explorebench",
        description="Deterministic frontier-exploration simulator and benchmark",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "compare"):
        p = sub.add_parser(name)
        p.add_argument("--config", help="experiment config file")
        p.add_argument("--jobs", type=int, default=1, help="parallel runs")
        p.add_argument("--print-defaults", action="store_true")
    p = sub.add_parser("score")
    p.add_argument("--config", help="experiment config file (for params)")
    p.add_argument("--map", dest="map_path", help="ground-truth map file")
    p.add_argument("--belief", dest="belief_path", help="belief snapshot (ascii)")
    p.add_argument("--pose", help="robot pose as x,y,theta")
    p.add_argument("--print-defaults", action="store_true")
    p = sub.add_parser("reward")
    p.add_argument("--config", help="experiment config file (for reward params)")
    p.add_argument("--input", help="JSON-lines observation file (default stdin)")
    p.add_argument("--print-defaults", action="store_true")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.print_defaults:
        sys.stdout.write(DEFAULT_CONFIG)
        return 0
    try:
        if args.command in ("run", "compare"):
            if not args.config:
                print("error: --config is required", file=sys.stderr)
                return 1
            cfg = load_config(args.config)
            os.makedirs(cfg.outdir, exist_ok=True)
            results = run_all(cfg, args.jobs)
            (cmd_run if args.command == "run" else cmd_compare)(cfg, results)
            return 0 if all(r.record.outcome == OUTCOME_COMPLETE for r in results) else 2
        cfg = (load_config(args.config, need_maps=False) if args.config
               else parse_config("", need_maps=False))
        if args.command == "score":
            if not (args.map_path and args.belief_path and args.pose):
                print("error: score needs --map, --belief and --pose", file=sys.stderr)
                return 1
            return cmd_score(cfg, args.map_path, args.belief_path, args.pose)
        if args.input:
            with open(args.input, encoding="utf-8") as f:
                return cmd_reward(cfg.reward, f)
        return cmd_reward(cfg.reward, sys.stdin)
    except UnicodeDecodeError as e:
        print(f"error: input is not UTF-8: {e}", file=sys.stderr)
        return 1
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except MapError as e:
        print(f"map error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"io error: {e}", file=sys.stderr)
        return 1
