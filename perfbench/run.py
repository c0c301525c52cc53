"""explorebench benchmark: time one workload end to end or per layer.

    python3 perfbench/run.py --workload corpus --seed 100 --seconds 50 --trace 0

Run from the repository root. It imports the program from ``src/`` of the
same checkout. ``--trace 0`` times untraced passes and reports the
end-to-end metrics, each time scaled to a reference machine speed by a
probe kernel run next to the work (README.md, "Timings"); ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics.
``--workload all`` runs every workload both
ways, each in its own process. The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``. The exit
code is 1 when an output check fails, and 2 when the program is missing.

Scratch files (configs, the compare output, span dumps) go to
``.bench_build/perfbench/`` under the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from time import perf_counter, thread_time

import numpy as np
from scipy import ndimage

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("corpus", "corpus-pool", "decide-large")
DEFAULT_SEED = 100
HELD_OUT_SEED = 2027

# result_digest per (workload, seed). corpus and corpus-pool share inputs,
# so the same aggregate.csv, whatever --jobs is.
EXPECTED_DIGESTS = {
    ("corpus", DEFAULT_SEED): "0e93958fd292c0f9",
    ("corpus-pool", DEFAULT_SEED): "0e93958fd292c0f9",
    ("decide-large", DEFAULT_SEED): "67971c9f5bb5f5e9",
    ("corpus", HELD_OUT_SEED): "7dfb7934be467a35",
    ("corpus-pool", HELD_OUT_SEED): "7dfb7934be467a35",
    ("decide-large", HELD_OUT_SEED): "319cd534d983909c",
}

# The probe time that scaled timings are expressed at: a round figure
# between what `probe()` reads on the machine the benchmark was built on at
# full speed (about 2.5 ms) and in its host's slow spells (about 4 ms).
REFERENCE_PROBE_S = 0.003
# Probes at the start and the end of a run, for the machine facts.
END_PROBES = 5
# Seconds between probes while a `compare` call runs (corpus-pool).
PROBE_INTERVAL = 0.2

# Set-up repeats between passes while it has taken less than this share of
# the run so far, so its samples spread over the whole run.
SETUP_SHARE = 0.15

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s",
                    "ops_per_s": "1/s", "peak_rss_mb": "MB"}

# Shares the benchmark was designed from, from a prototype run (share of wall
# time); the traced output says whether this checkout still matches them.
SIZING = {
    "corpus": {"gridmap.raycast_reveal": 0.84},
    "decide-large": {"navigator.plan_path": 0.55, "frontier.cluster_segments": 0.35},
}
SIZING_TOLERANCE = 0.10  # absolute, in share of wall time
# The overhead estimate is itself noisy; a gap this small always counts
# as accounted for.
ACCOUNTING_FLOOR = 0.02


def import_program():
    """Import explorebench from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "explorebench", "__init__.py")):
        print(f"error: {SRC}/explorebench not found; run from a full checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import explorebench

    if not os.path.abspath(explorebench.__file__).startswith(SRC + os.sep):
        print(f"error: imported explorebench from {explorebench.__file__}", file=sys.stderr)
        sys.exit(2)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def machine_facts(seed: int) -> dict:
    import numpy
    import scipy

    return {"nproc": nproc(), "cpu_model": cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "pool_start_method": multiprocessing.get_start_method(), "seed": seed}


_PROBE_ROW = np.arange(64, dtype=np.float64)
_PROBE_MASK = np.random.default_rng(0).random((200, 200)) < 0.55


def probe() -> float:
    """CPU seconds, of the calling thread, of one fixed kernel that does not
    touch explorebench: a Python loop over small numpy arrays, then
    labelling, masking and dilating a 200 x 200 grid, the mix the workloads
    make. CPU time, not wall time, so that a probe that waits for a core
    still reads the core's speed. It takes about 2.5 ms on the machine the
    benchmark was built on when its host gives it full speed, and about
    4 ms when it does not."""
    c0 = thread_time()
    s = 0.0
    for i in range(300):
        s += float((_PROBE_ROW * (i % 7) + 1.0).sum()) + (i * i) % 13
    ndimage.label(_PROBE_MASK)
    np.where(_PROBE_MASK, 2.0, 0.0).sum()
    ndimage.binary_dilation(_PROBE_MASK)
    return thread_time() - c0


def probes(n: int) -> float:
    """Median CPU seconds of `n` probes."""
    return statistics.median(probe() for _ in range(n))


class ProbeThread:
    """Probes every PROBE_INTERVAL seconds in a thread while the main
    thread waits on a `compare` call: each probe takes a core from a pool
    worker for about 3 ms, under 2% of the pass."""

    def __init__(self):
        self.samples = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self):
        # The first probe waits an interval, so `compare` has forked its
        # workers before any probe runs.
        while not self._stop.wait(PROBE_INTERVAL):
            self.samples.append(probe())

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()


def scaled(times, around) -> list[float]:
    """Each time at the reference speed: times REFERENCE_PROBE_S over the
    mean of the probes just before and just after it."""
    return [REFERENCE_PROBE_S * t / ((a + b) / 2) for t, a, b in zip(times, around, around[1:])]


def cpu_seconds(who) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def tail(values: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it: (value, pct, n)."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


@dataclass
class Pass:
    traced: bool
    wall: float
    cpu_self: float
    cpu_children: float
    result: object  # workloads.PassResult
    speeds: list[float]  # ProbeThread samples during the pass, untraced corpus-pool only


@dataclass
class Setup:
    times: list[float]  # wall seconds of each phase
    around: list  # probe() before each phase and after the last; empty if unprobed
    elapsed: float  # wall seconds of the whole set-up, probes included


def timed_setup(workload, setups, with_probes=False):
    """Set up once; append its `Setup` to `setups`. With probes, one runs
    before each phase and after the last, outside the phase times."""
    begin = perf_counter()
    times, around = [], []
    if with_probes:
        around.append(probe())
    t0 = perf_counter()

    def lap():
        nonlocal t0
        times.append(perf_counter() - t0)
        if with_probes:
            around.append(probe())
        t0 = perf_counter()

    inputs = workload.setup(lap)
    lap()
    setups.append(Setup(times, around, perf_counter() - begin))
    return inputs


def run_passes(workload, inputs, begin, deadline, tracer=None, children=None,
               setups=None) -> list[Pass]:
    """Passes until the next one would end after `deadline`; with a tracer,
    odd passes are traced, and there is at least one of each kind. Without
    one, every pass is probed: around each operation where the workload
    times them one by one, else by a `ProbeThread`. With `setups`, set-up
    repeats, probed, after a pass while it has taken less than SETUP_SHARE
    of the time since `begin` and would end before `deadline`; its outputs
    are dropped, the passes keep using `inputs`."""
    passes = []
    while True:
        t_start = perf_counter()
        traced = tracer is not None and len(passes) % 2 == 1
        thread = (ProbeThread() if tracer is None and not workload.times_ops
                  else contextlib.nullcontext())
        if traced:
            tracer.install()
        try:
            with thread:
                c0 = cpu_seconds(resource.RUSAGE_SELF)
                k0 = cpu_seconds(resource.RUSAGE_CHILDREN)
                t0 = perf_counter()
                raw = workload.run_pass(inputs, probe if tracer is None else None)
                wall = perf_counter() - t0
                c1 = cpu_seconds(resource.RUSAGE_SELF)
                k1 = cpu_seconds(resource.RUSAGE_CHILDREN)
        finally:
            if traced:
                tracer.remove()
        if traced and children is not None:
            children.extend(tracer.collect_children())
        speeds = getattr(thread, "samples", [])
        c1 -= sum(speeds)  # the probe thread's own CPU time
        passes.append(Pass(traced, wall, c1 - c0, k1 - k0, workload.finish(inputs, raw),
                           speeds))
        del raw
        step = perf_counter() - t_start
        while (setups is not None
               and sum(x.elapsed for x in setups) < SETUP_SHARE * (perf_counter() - begin)
               and perf_counter() + setups[-1].elapsed < deadline):
            timed_setup(workload, setups, with_probes=True)
        enough = len(passes) >= (2 if tracer is not None else 1)
        if enough and perf_counter() + step > deadline:
            return passes


def fastest(passes) -> float:
    """Raw pass wall time with each operation at its fastest across the
    passes: the sum of per-operation minima where operations are timed one
    by one, else the fastest pass. The traced run's overhead uses it."""
    ops = [p.result.op_times for p in passes]
    if all(ops):
        return sum(min(times) for times in zip(*ops))
    return min(p.wall for p in passes)


def op_times(passes, which: int) -> list[float]:
    """Each operation's time at the reference speed (`which` 0 for wall, 1
    for CPU), the median across the passes. A `compare` call, whose runs
    are not timed one by one, is one operation, scaled by the mean of the
    probes made during it."""
    per_pass = []
    for p in passes:
        if p.result.op_probes:
            times = p.result.op_times if which == 0 else p.result.op_cpu
            per_pass.append(scaled(times, p.result.op_probes))
        else:
            time = p.wall if which == 0 else p.cpu_self + p.cpu_children
            per_pass.append([REFERENCE_PROBE_S * time / statistics.mean(p.speeds)])
    return [statistics.median(times) for times in zip(*per_pass)]


def end_to_end(setups, passes) -> dict[str, float]:
    """See README.md, "Timings"."""
    wall = sum(op_times(passes, 0))
    phases = [scaled(x.times, x.around) for x in setups]
    return {
        "setup_s": sum(statistics.median(times) for times in zip(*phases)),
        "wall_s": wall,
        "cpu_s": sum(op_times(passes, 1)),
        "ops_per_s": passes[0].result.ops / wall,
        "peak_rss_mb": max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                           resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0,
    }


def detail(name, passes) -> dict[str, dict]:
    """Workload-specific end-to-end numbers; reported, not gated. Rates and
    latency percentiles count operations as `wall_s` does; `raw_wall_s` is
    the median pass as timed."""
    out = {}
    total_attempted = sum(p.result.attempted for p in passes)
    out["fail_frac"] = (sum(p.result.failed for p in passes) / total_attempted, "frac")
    times = op_times(passes, 0)
    wall = sum(times)
    out["raw_wall_s"] = (statistics.median(p.wall for p in passes), "s")
    if name in ("corpus", "corpus-pool"):
        out["ticks_per_s"] = (passes[0].result.ticks / wall, "1/s")
    if name in ("corpus", "decide-large"):
        out["decisions_per_s"] = (passes[0].result.decisions / wall, "1/s")
    if passes[0].result.op_times:
        value, pct, n = tail(times)
        scale, prefix, unit = (1.0, "run_s", "s") if name == "corpus" else (1000.0, "decide_ms", "ms")
        out[f"{prefix}_p50"] = (scale * statistics.median(times), unit)
        out[f"{prefix}_tail"] = (scale * value, unit, {"percentile": pct, "samples": n})
    return {k: {"value": v[0], "unit": v[1], **(v[2] if len(v) > 2 else {})}
            for k, v in out.items()}


def probe_quartiles_ms(setups, passes) -> list[float]:
    """Quartiles of the run's probe times, in CPU ms: the host's speed."""
    times = [a for x in setups for a in x.around]
    times += [a for p in passes for a in p.result.op_probes + p.speeds]
    if len(times) < 2:
        return []
    return [1000.0 * q for q in statistics.quantiles(times, n=4)]


def per_layer(setup_totals, pass_totals, book, passes, workers) -> dict:
    """Per-layer metrics from the traced passes (counts and seconds per pass)."""
    med = statistics.median
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    n = len(traced)
    denom = workers * sum(p.wall for p in traced)
    t = pass_totals
    out = {}
    for layer in ("gridmap.raycast_reveal", "gridmap.reinflate_window",
                  "gridmap.exploration_rate", "frontier.detect_frontiers",
                  "frontier.cluster_segments", "scoring.score_segments",
                  "explorer.rank_segments", "navigator.plan_path",
                  "navigator.advance", "explorer.run_exploration"):
        out[f"{layer}.calls"] = (t[layer]["calls"] / n, "count")
        out[f"{layer}.s"] = (t[layer]["self_s"] / n, "s")
        out[f"{layer}.share"] = (t[layer]["self_s"] / denom, "frac")

    def ratio(a, b):
        return a / b if b else 0.0

    out["gridmap.raycast_reveal.noop_frac"] = (
        ratio(t["gridmap.raycast_reveal"]["aux"], t["gridmap.raycast_reveal"]["calls"]), "frac")
    out["frontier.cluster_segments.segments"] = (
        t["frontier.cluster_segments"]["aux"] / n, "count")
    out["scoring.score_segments.segments_scored"] = (
        t["scoring.score_segments"]["aux"] / n, "count")
    out["navigator.plan_path.nopath_frac"] = (
        ratio(t["navigator.plan_path"]["nopath"], t["navigator.plan_path"]["calls"]), "frac")
    out["navigator.plan_path.waypoints"] = (t["navigator.plan_path"]["aux"] / n, "count")
    out["navigator.advance.blocked_frac"] = (
        ratio(t["navigator.advance"]["aux"], t["navigator.advance"]["calls"]), "frac")
    out["explorer.run_exploration.ticks"] = (t["explorer.run_exploration"]["aux"] / n, "count")
    # The loop ranks once per decision; decide-large ranks outside any loop.
    in_loop = t["explorer.run_exploration"]["calls"] > 0
    out["explorer.run_exploration.decisions"] = (
        t["explorer.rank_segments"]["calls"] / n if in_loop else 0.0, "count")
    out["explorer.candidates_per_decision"] = (
        ratio(t["navigator.plan_path"]["calls"], t["explorer.rank_segments"]["calls"]), "count")
    out["mapgen.generate_map.calls"] = (setup_totals["mapgen.generate_map"]["calls"], "count")
    out["mapgen.generate_map.s"] = (setup_totals["mapgen.generate_map"]["self_s"], "s")
    out["config.load_config.s"] = (setup_totals["config.load_config"]["self_s"], "s")

    busy = [(p.cpu_children if workers > 1 else p.cpu_self) for p in plain]
    out["cli.pool.busy_frac"] = (med(b / (workers * p.wall) for b, p in zip(busy, plain)), "frac")
    out["cli.pool.idle_s"] = (med(workers * p.wall - b for b, p in zip(busy, plain)), "s")
    out["trace.overhead_frac"] = (fastest(traced) / fastest(plain) - 1.0, "frac")
    out["trace.accounted_frac"] = (sum(v["self_s"] for v in t.values()) / denom, "frac")
    out["trace.bookkeeping_frac"] = (book / denom, "frac")
    out["trace.wall_s"] = (med(p.wall for p in traced), "s")
    return {k: {"value": float(v), "unit": u} for k, (v, u) in out.items()}


def sizing_report(name, metrics) -> list[str]:
    lines = []
    shares = {"gridmap.raycast_reveal": metrics["gridmap.raycast_reveal.share"]["value"]
              + metrics["gridmap.reinflate_window.share"]["value"],
              "navigator.plan_path": metrics["navigator.plan_path.share"]["value"],
              "frontier.cluster_segments": metrics["frontier.cluster_segments.share"]["value"]}
    for layer, expected in SIZING.get(name, {}).items():
        got = shares[layer]
        verdict = "matches" if abs(got - expected) <= SIZING_TOLERANCE else "differs from"
        lines.append(f"sizing: {layer} {got:.1%} of traced wall (with children) "
                     f"{verdict} the design sizing {expected:.0%} (tolerance "
                     f"{SIZING_TOLERANCE:.0%} points)")
    accounted = metrics["trace.accounted_frac"]["value"] + metrics["trace.bookkeeping_frac"]["value"]
    overhead = abs(metrics["trace.overhead_frac"]["value"])
    idle = 1.0 - metrics["cli.pool.busy_frac"]["value"]
    allowed = max(overhead, ACCOUNTING_FLOOR) + idle
    within = abs(1.0 - accounted) <= allowed
    lines.append(f"accounting: self times + bookkeeping = {accounted:.1%} of traced wall "
                 f"x workers; gap {1.0 - accounted:+.1%} is "
                 f"{'within' if within else 'outside'} {allowed:.1%} "
                 f"(|trace.overhead_frac| {overhead:.1%}, floor {ACCOUNTING_FLOOR:.0%}, "
                 f"worker idle {idle:.1%})")
    return lines


def run_one(args) -> int:
    begin = perf_counter()  # set-up, passes and speed probes fit in --seconds
    import_program()
    import numpy as np

    import tracing
    import workloads

    workdir = os.path.join(ROOT, ".bench_build", "perfbench",
                           f"{args.workload}-s{args.seed}-t{args.trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    jobs = max(2, nproc())
    if args.workload == "corpus":
        workload = workloads.Corpus(args.seed, workdir)
    elif args.workload == "corpus-pool":
        workload = workloads.CorpusPool(args.seed, workdir, jobs)
    else:
        workload = workloads.DecideLarge(args.seed, workdir)
    workers = jobs if args.workload == "corpus-pool" else 1
    t0 = perf_counter()
    probe_before = 1000.0 * probes(END_PROBES)
    deadline = begin + args.seconds - (perf_counter() - t0)  # room for the last probe

    setups = []
    if args.trace:
        setup_tracer = tracing.Tracer()
        setup_tracer.install()
        try:
            inputs = timed_setup(workload, setups)
        finally:
            setup_tracer.remove()
        child_dir = os.path.join(workdir, "spans")
        os.makedirs(child_dir)
        tracer = tracing.Tracer(child_dir)
        children = []
        passes = run_passes(workload, inputs, begin, deadline, tracer, children)
        span_sets = [tracer.arrays()] + children
        np.savez(os.path.join(workdir, "spans.npz"), layers=np.array(tracing.LAYERS),
                 **{f"set{i}_{k}": v for i, s in enumerate(span_sets) for k, v in s.items()})
        setup_totals, _ = tracing.layer_totals([setup_tracer.arrays()])
        pass_totals, book = tracing.layer_totals(span_sets)
        metrics = per_layer(setup_totals, pass_totals, book, passes, workers)
    else:
        inputs = timed_setup(workload, setups, with_probes=True)
        passes = run_passes(workload, inputs, begin, deadline, setups=setups)
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in end_to_end(setups, passes).items()}

    probe_ms = {"before": probe_before, "after": 1000.0 * probes(END_PROBES),
                "quartiles": probe_quartiles_ms(setups, passes),
                "reference": 1000.0 * REFERENCE_PROBE_S}
    digests = [p.result.digest for p in passes]
    problems = [msg for p in passes for msg in p.result.problems]
    if len(set(digests)) != 1:
        problems.append(f"passes disagree: result digests {sorted(set(digests))}")
    expected = EXPECTED_DIGESTS.get((args.workload, args.seed))
    if expected and digests[0] != expected:
        problems.append(f"result_digest {digests[0]} != recorded {expected}")
    attempted = sum(p.result.attempted for p in passes)
    failed = sum(p.result.failed for p in passes)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(passes)} passes ({sum(p.traced for p in passes)} traced), "
          f"result_digest {digests[0]}"
          + (f" (recorded {expected})" if expected else " (no recorded digest)"))
    for k, v in metrics.items():
        print(f"  {k} = {v['value']:.6g} {v['unit']}")
    extra = {}
    if not args.trace:
        extra = detail(args.workload, passes)
        for k, v in extra.items():
            note = (f" (p{v['percentile']:.1f} of {v['samples']} samples)"
                    if "percentile" in v else "")
            print(f"  {k} = {v['value']:.6g} {v['unit']}{note}")
    else:
        for line in sizing_report(args.workload, metrics):
            print(line)
    for msg in problems[:20]:
        print(f"CHECK FAILED: {msg}")
    machine = {**machine_facts(args.seed), "probe_ms": probe_ms}
    print(json.dumps({"workload": args.workload, "machine": machine,
                      "result_digest": digests[0], "passes": len(passes),
                      "setups": len(setups),
                      "detail": extra}))
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if not problems else 1


def run_all(args) -> int:
    """Every workload untraced, then traced, each in its own process.
    `corpus` runs untraced only: it is there for the --jobs check, and
    `corpus-pool`'s traced run covers the same layers."""
    combined, results, digests = {}, [], {}
    for name in WORKLOADS:
        for trace in ((0,) if name == "corpus" else (0, 1)):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode not in (0, 1) or not lines:
                print(f"error: {name} trace {trace} exited with {proc.returncode}")
                return 2
            result = json.loads(lines[-1])
            results.append(result)
            digests[name] = json.loads(lines[-2])["result_digest"]
            combined.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    correct = all(r["correct"] for r in results)
    if digests["corpus"] != digests["corpus-pool"]:
        print(f"CHECK FAILED: corpus {digests['corpus']} != corpus-pool "
              f"{digests['corpus-pool']}: results depend on --jobs")
        correct = False
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": combined}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
