"""Experiment configuration: one INI-style file drives every CLI command.

Every knob has a default; `--print-defaults` emits the full annotated file
so experiment configs stay reviewable artifacts. Its parameter keys and
defaults are written from the parameter dataclasses. Unknown keys and
non-finite numbers are rejected; errors name the offending section and key.
"""

from __future__ import annotations

import configparser
import math
import os
import sys
from collections import Counter
from dataclasses import dataclass, fields

from .explorer import RunLimits, SelectorKind
from .gridmap import InflationParams, LidarModel, MapError, OccupancyGrid, load_map_file
from .mapgen import TIERS, generate_map
from .navigator import KinematicState
from .reward import DISTANCE_FORMS, RewardConfig
from .scoring import HeuristicParams


def _keys(cls, **notes) -> str:
    """cls's fields as `key = value` lines, booleans in lower case;
    notes[key] is written as a comment line above its key."""
    lines = []
    for f in fields(cls):
        if f.name in notes:
            lines.append(f"# {notes[f.name]}")
        value = str(f.default).lower() if isinstance(f.default, bool) else f.default
        lines.append(f"{f.name} = {value}")
    return "\n".join(lines)


DEFAULT_CONFIG = f"""\
# explorebench experiment configuration (key = value, INI sections)

[maps]
# Explicit map files (whitespace separated, .txt ascii or .pgm + sidecar)
# take precedence over the generator when non-empty.
files =
# Generated set: whitespace separated tier:count pairs.
generate = low:2 medium:2 high:2
# Base seed for generated maps; map k of a tier uses map_seed + k.
map_seed = 100
resolution = 0.25

[selectors]
# heuristic | nearest | largest | random:<seed>
selectors = heuristic nearest

[heuristic]
{_keys(HeuristicParams)}
# Minimum frontier segment size in cells (1 disables filtering).
min_segment_size = 1

[lidar]
{_keys(LidarModel)}

[kinematics]
{_keys(KinematicState)}

[inflation]
{_keys(InflationParams)}

[planner]
cost_weight = 3.0
goal_relax_radius = 5

[reward]
{_keys(RewardConfig, distance_term_form=' | '.join(DISTANCE_FORMS))}

[limits]
{_keys(RunLimits)}

[run]
# One run per (map, selector, seed); the seed also picks the start pose.
seeds = 1 2 3
outdir = out
# Any of: csv json svg
emit = csv json
"""


def _defaults_parser() -> configparser.ConfigParser:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",),
                                       interpolation=None)
    parser.read_string(DEFAULT_CONFIG)
    return parser


# Every (section, key) a config may set: those of DEFAULT_CONFIG.
_KNOWN_KEYS = {(s, k) for s, keys in _defaults_parser().items() for k in keys}


class ConfigError(Exception):
    pass


@dataclass
class ExperimentConfig:
    maps: list[tuple[str, OccupancyGrid]]
    selectors: list[SelectorKind]
    params: HeuristicParams
    lidar: LidarModel
    kinematics: KinematicState
    inflation: InflationParams
    reward: RewardConfig
    limits: RunLimits
    seeds: list[int]
    outdir: str
    emit: set[str]
    min_segment_size: int
    cost_weight: float
    goal_relax_radius: int


def _get(parser, section, key, cast, check=None):
    try:
        value = parser.getboolean(section, key) if cast is bool else cast(parser.get(section, key))
    except ValueError as e:
        raise ConfigError(f"[{section}] {key}: {e}") from None
    if cast is float and not math.isfinite(value) or check and not check(value):
        raise ConfigError(f"[{section}] {key}: invalid value {value!r}")
    return value


def _section(parser, section, cls):
    """Build cls from the section's keys, one per field; each value is
    cast to the type of its field's default."""
    kwargs = {f.name: _get(parser, section, f.name, type(f.default))
              for f in fields(cls)}
    try:
        return cls(**kwargs)
    except (ValueError, ArithmeticError) as e:
        raise ConfigError(f"[{section}] {e}") from None


def _unique(where, names):
    """Reject a repeated name: the runs it names would merge into one."""
    for name, count in Counter(names).items():
        if count > 1:
            raise ConfigError(f"{where}: duplicate {name!r}")


def _load_maps(parser, inflation):
    files = _get(parser, "maps", "files", str).split()
    if files:
        names = [os.path.splitext(os.path.basename(path))[0] for path in files]
        _unique("[maps] files", names)
        maps = []
        for name, path in zip(names, files):
            try:
                maps.append((name, load_map_file(path, inflation)))
            except (MapError, OSError) as e:
                raise ConfigError(f"[maps] files: {path}: {e}") from None
        return maps
    spec = _get(parser, "maps", "generate", str).split()
    map_seed = _get(parser, "maps", "map_seed", int)
    resolution = _get(parser, "maps", "resolution", float, lambda v: v > 0)
    todo = []
    for item in spec:
        tier, _, count = item.partition(":")
        if not count.isdecimal():
            raise ConfigError(f"[maps] generate: bad entry {item!r}")
        if tier not in TIERS:
            raise ConfigError(f"[maps] generate: unknown tier {tier!r}")
        todo += [(f"{tier}{k:02d}", tier, map_seed + k) for k in range(int(count))]
    if not todo:
        raise ConfigError("[maps] generate: no maps configured")
    _unique("[maps] generate", [name for name, _, _ in todo])
    try:
        return [(name, generate_map(tier, seed, resolution, inflation))
                for name, tier, seed in todo]
    except MapError as e:
        raise ConfigError(f"[maps] resolution: {e}") from None


def parse_config(text: str, need_maps: bool = True) -> ExperimentConfig:
    """Parse a config on top of the defaults.

    need_maps=False skips loading or generating the map set (score and
    reward only consume parameter sections).
    """
    parser = _defaults_parser()
    try:
        parser.read_string(text)
    except configparser.Error as e:
        raise ConfigError(f"config parse error: {e}") from None
    for section in parser:  # [DEFAULT] first, so its keys are named there
        for key in parser[section]:
            if (section, key) not in _KNOWN_KEYS:
                raise ConfigError(f"[{section}] {key}: unknown key")

    inflation = _section(parser, "inflation", InflationParams)
    params = _section(parser, "heuristic", HeuristicParams)
    lidar = _section(parser, "lidar", LidarModel)
    kinematics = _section(parser, "kinematics", KinematicState)
    reward = _section(parser, "reward", RewardConfig)
    limits = _section(parser, "limits", RunLimits)
    # The last sample's time (a tick count past the largest float overflows too).
    ticks, dt = limits.max_ticks, kinematics.dt
    if ticks > sys.float_info.max or not math.isfinite(ticks * dt):
        raise ConfigError(f"[kinematics] dt: {dt!r} s times max_ticks is not finite")

    selector_specs = _get(parser, "selectors", "selectors", str).split()
    if not selector_specs:
        raise ConfigError("[selectors] selectors: empty selector list")
    try:
        selectors = [SelectorKind.parse(s) for s in selector_specs]
    except ValueError as e:
        raise ConfigError(f"[selectors] selectors: {e}") from None
    _unique("[selectors] selectors", [s.label() for s in selectors])

    seeds_raw = _get(parser, "run", "seeds", str).split()
    if not seeds_raw:
        raise ConfigError("[run] seeds: empty seed list")
    try:
        seeds = [int(s) for s in seeds_raw]
    except ValueError as e:
        raise ConfigError(f"[run] seeds: {e}") from None
    _unique("[run] seeds", seeds)

    emit = set(_get(parser, "run", "emit", str).split())
    bad = emit - {"csv", "json", "svg"}
    if bad:
        raise ConfigError(f"[run] emit: unknown formats {sorted(bad)}")

    return ExperimentConfig(
        maps=_load_maps(parser, inflation) if need_maps else [],
        selectors=selectors,
        params=params,
        lidar=lidar,
        kinematics=kinematics,
        inflation=inflation,
        reward=reward,
        limits=limits,
        seeds=seeds,
        outdir=_get(parser, "run", "outdir", str),
        emit=emit,
        min_segment_size=_get(parser, "heuristic", "min_segment_size", int,
                              lambda v: v >= 1),
        cost_weight=_get(parser, "planner", "cost_weight", float, lambda v: v >= 0),
        goal_relax_radius=_get(parser, "planner", "goal_relax_radius", int,
                               lambda v: v >= 0),
    )


def load_config(path: str, need_maps: bool = True) -> ExperimentConfig:
    if not os.path.exists(path):
        raise ConfigError(f"config file {path} does not exist")
    with open(path, "rb") as f:
        try:
            text = f.read().decode("utf-8")
        except UnicodeDecodeError as e:
            raise ConfigError(f"config file {path} is not UTF-8: {e}") from None
    return parse_config(text, need_maps)
