"""Span tracing for the benchmark's traced run.

The tracer replaces module-level names that explorebench looks up at call
time (for example ``explorer.raycast_reveal``) with wrappers that record one
span per call: layer name, start, end, the enclosing span, and one count
(``aux``) taken at the boundary. Spans stay in memory and are reduced to
per-layer numbers, and written out, when the benchmark ends. Nothing under
``src/`` changes; ``remove()`` restores every original name.

Pool workers forked while the wrappers are installed inherit them. Each
worker clears the copied spans, records its own, and writes them to
``child_dir`` when it exits; ``collect_children()`` merges those files.
"""

from __future__ import annotations

import glob
import os
from multiprocessing import util as mp_util
from time import perf_counter

import numpy as np

from explorebench import cli, config, explorer, gridmap, mapgen
from explorebench.gridmap import UNKNOWN
from explorebench.navigator import NoPathError


def _unknown_count(args, kwargs):
    belief = args[0] if args else kwargs["belief"]
    return int(np.count_nonzero(belief.states == UNKNOWN))


def _reveal_noop(args, kwargs, result, before):
    return int(_unknown_count(args, kwargs) == before)


def _result_len(args, kwargs, result, before):
    return len(result)


def _segments_in(args, kwargs, result, before):
    return len(args[0] if args else kwargs["segments"])


def _waypoint_count(args, kwargs, result, before):
    return len(result.waypoints)


def _blocked(args, kwargs, result, before):
    return int(result == 0.0)


def _ticks(args, kwargs, result, before):
    return len(result.samples) - 1


# (module, attribute, layer, pre, post). pre runs before the call and post
# after it; both sit outside the span's own interval, and their time is
# kept per span as bookkeeping so no layer's self time includes it.
TARGETS = (
    (explorer, "run_exploration", "explorer.run_exploration", None, _ticks),
    (cli, "run_exploration", "explorer.run_exploration", None, _ticks),
    (explorer, "raycast_reveal", "gridmap.raycast_reveal", _unknown_count, _reveal_noop),
    (gridmap, "reinflate_window", "gridmap.reinflate_window", None, None),
    (explorer, "exploration_rate", "gridmap.exploration_rate", None, None),
    (explorer, "detect_frontiers", "frontier.detect_frontiers", None, None),
    (explorer, "cluster_segments", "frontier.cluster_segments", None, _result_len),
    (explorer, "rank_segments", "explorer.rank_segments", None, None),
    (explorer, "score_segments", "scoring.score_segments", None, _segments_in),
    (explorer, "plan_path", "navigator.plan_path", None, _waypoint_count),
    (explorer, "kin_advance", "navigator.advance", None, _blocked),
    (config, "load_config", "config.load_config", None, None),
    (cli, "load_config", "config.load_config", None, None),
    (config, "generate_map", "mapgen.generate_map", None, None),
    (mapgen, "generate_map", "mapgen.generate_map", None, None),
)
LAYERS = tuple(dict.fromkeys(layer for _, _, layer, _, _ in TARGETS))
NOPATH = -1  # aux of a plan_path span that raised NoPathError


class Tracer:
    """Records spans while installed; reduce ``arrays()`` with ``layer_totals()``."""

    def __init__(self, child_dir: str | None = None):
        self.child_dir = child_dir
        self._originals = []
        self._reset()
        mp_util.register_after_fork(self, Tracer._after_fork)

    def _reset(self):
        self.layer, self.parent, self.aux = [], [], []
        self.start, self.end, self.book = [], [], []
        self._stack = []

    @property
    def installed(self) -> bool:
        return bool(self._originals)

    def install(self):
        if self.installed:
            raise RuntimeError("tracer already installed")
        for module, attr, layer, pre, post in TARGETS:
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, LAYERS.index(layer), pre, post))

    def remove(self):
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals = []

    def _wrap(self, fn, layer_id, pre, post):
        def traced(*args, **kwargs):
            b0 = perf_counter()
            before = pre(args, kwargs) if pre is not None else None
            idx = len(self.layer)
            self.layer.append(layer_id)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.start.append(0.0)
            self.end.append(0.0)
            self.aux.append(0)
            self.book.append(0.0)
            self._stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except NoPathError:
                self._close(idx, b0, t0, perf_counter(), NOPATH)
                raise
            except BaseException:
                self._close(idx, b0, t0, perf_counter(), 0)
                raise
            t1 = perf_counter()
            aux = post(args, kwargs, result, before) if post is not None else 0
            self._close(idx, b0, t0, t1, aux)
            return result

        return traced

    def _close(self, idx, b0, t0, t1, aux):
        self._stack.pop()
        self.start[idx] = t0
        self.end[idx] = t1
        self.aux[idx] = aux
        self.book[idx] = (t0 - b0) + (perf_counter() - t1)

    def arrays(self) -> dict[str, np.ndarray]:
        """Spans as arrays in opening order; book is each span's pre/post time."""
        return {
            "layer": np.asarray(self.layer, dtype=np.int64),
            "parent": np.asarray(self.parent, dtype=np.int64),
            "start": np.asarray(self.start, dtype=np.float64),
            "end": np.asarray(self.end, dtype=np.float64),
            "aux": np.asarray(self.aux, dtype=np.int64),
            "book": np.asarray(self.book, dtype=np.float64),
        }

    # -- pool workers ------------------------------------------------------

    def _after_fork(self):
        self._reset()
        if self.installed and self.child_dir:
            mp_util.Finalize(self, self._dump_child, exitpriority=100)

    def _dump_child(self):
        path = os.path.join(self.child_dir, f"spans-{os.getpid()}.npz")
        np.savez(path, **self.arrays())

    def collect_children(self) -> list[dict[str, np.ndarray]]:
        """Read and delete the span files pool workers wrote."""
        out = []
        for path in sorted(glob.glob(os.path.join(self.child_dir, "spans-*.npz"))):
            with np.load(path) as data:
                out.append({k: data[k] for k in data.files})
            os.remove(path)
        return out


def layer_totals(span_sets) -> tuple[dict[str, dict[str, float]], float]:
    """Reduce span arrays to per-layer totals and the total bookkeeping time.

    A span's self time is its duration minus the outer intervals (duration
    plus bookkeeping) of the spans it encloses directly. Per layer: calls,
    self_s, aux (sum of non-negative counts) and nopath (negative counts).
    """
    n = len(LAYERS)
    calls, self_s, aux, neg = np.zeros(n), np.zeros(n), np.zeros(n), np.zeros(n)
    book = 0.0
    for spans in span_sets:
        layer, parent = spans["layer"], spans["parent"]
        dur = spans["end"] - spans["start"]
        nested = parent >= 0
        enclosed = np.bincount(parent[nested], weights=(dur + spans["book"])[nested],
                               minlength=len(dur))
        calls += np.bincount(layer, minlength=n)
        self_s += np.bincount(layer, weights=dur - enclosed, minlength=n)
        aux += np.bincount(layer, weights=np.maximum(spans["aux"], 0), minlength=n)
        neg += np.bincount(layer, weights=spans["aux"] < 0, minlength=n)
        book += float(spans["book"].sum())
    totals = {name: {"calls": calls[k], "self_s": self_s[k], "aux": aux[k],
                     "nopath": neg[k]}
              for k, name in enumerate(LAYERS)}
    return totals, book
