import configparser
import contextlib
import hashlib
import io
import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from conftest import clone_grid, floats
from explorebench import cli, config
from explorebench.cli import main, record_json
from explorebench.config import DEFAULT_CONFIG, ConfigError, parse_config
from explorebench.explorer import RunLimits, run_exploration
from explorebench.gridmap import (OCCUPIED, InflationParams, LidarModel, load_belief,
                                  load_map_file, to_ascii)
from explorebench.mapgen import pick_start
from explorebench.navigator import KinematicState
from explorebench.reward import RewardConfig
from explorebench.scoring import HeuristicParams
from scenes import case_study_scene

TINY_ROOM = "11 11 0.25\n" + "\n".join(
    ["#" * 11] + ["#" + "." * 9 + "#"] * 9 + ["#" * 11]) + "\n"


def write_config(tmp_path, map_files, selectors="nearest", seeds="1",
                 extra=""):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "[maps]\n"
        f"files = {' '.join(str(p) for p in map_files)}\n"
        "[selectors]\n"
        f"selectors = {selectors}\n"
        "[run]\n"
        f"seeds = {seeds}\n"
        f"outdir = {tmp_path / 'out'}\n"
        "emit = csv json svg\n"
        + extra
    )
    return cfg


# Config text from outside the program: keys of the defaults under their
# own section, each with its default or an odd value, and stray lines.
_DEFAULTS = configparser.ConfigParser(interpolation=None,
                                      inline_comment_prefixes=("#",))
_DEFAULTS.read_string(DEFAULT_CONFIG)


def _key_line(entry):
    section, key, default = entry
    value = st.one_of(st.just(default), st.text(max_size=8), st.sampled_from(
        ["", "nan", "1e999", "-1", "0", "%", "%(x)s", "%%", "random:x",
         "csv pdf", "1 x"]))
    return value.map(f"[{section}]\n{key} = {{}}".format)


CONFIG_LINE = st.one_of(
    st.sampled_from([(section, key, value) for section in _DEFAULTS.sections()
                     for key, value in _DEFAULTS[section].items()]).flatmap(_key_line),
    st.sampled_from(["[DEFAULT]", "[bogus]", "x = 1", "[run", "= 1", "  1"]),
    st.text(max_size=12))


@pytest.fixture
def tiny_map(tmp_path):
    path = tmp_path / "room.txt"
    path.write_text(TINY_ROOM)
    return path


class TestConfig:
    def test_defaults_parse_cleanly(self):
        cfg = parse_config(DEFAULT_CONFIG, need_maps=False)
        assert cfg.params.gamma == 0.5
        assert cfg.limits.expr_target == 0.99
        assert {s.kind for s in cfg.selectors} == {"heuristic", "nearest"}

    def test_defaults_text_covers_all_sections(self):
        for section in ("[maps]", "[selectors]", "[heuristic]", "[lidar]",
                        "[kinematics]", "[inflation]", "[planner]", "[reward]",
                        "[limits]", "[run]"):
            assert section in DEFAULT_CONFIG

    def test_defaults_match_code_defaults(self):
        cfg = parse_config("", need_maps=False)
        assert cfg.inflation == InflationParams()
        assert cfg.params == HeuristicParams()
        assert cfg.lidar == LidarModel()
        assert cfg.kinematics == KinematicState()
        assert cfg.reward == RewardConfig()
        assert cfg.limits == RunLimits()

    @pytest.mark.parametrize("text,needle", [
        ("[selectors]\nselectors =\n", "[selectors] selectors"),
        ("[selectors]\nselectors = warp\n", "[selectors] selectors"),
        ("[run]\nseeds =\n", "[run] seeds"),
        ("[run]\nemit = csv pdf\n", "[run] emit"),
        ("[heuristic]\ngamma = 0.9\n", "gamma"),
        ("[maps]\nfiles = /no/such/map.txt\n", "/no/such/map.txt"),
        ("[lidar]\nbeam_count = zero\n", "[lidar] beam_count"),
        ("[maps]\ngenerate =\n", "[maps] generate"),
        ("[inflation]\ninscribed_radius = 0\n", "inscribed_radius"),
        ("[heuristic]\nalpha = nan\n", "[heuristic] alpha"),
        ("[heuristic]\nbeta = 0.01\nexp_arg_cap = 1000\n", "[heuristic] exp_arg_cap: unknown key"),
        ("[lidar]\nmax_range = nan\n", "[lidar] max_range"),
        ("[kinematics]\ndt = inf\n", "[kinematics] dt"),
        ("[kinematics]\ndt = 0\n", "[kinematics] dt must be > 0, got 0.0"),
        ("[heuristic]\nbeta = 0\n", "[heuristic] beta must be > 0, got 0.0"),
        ("[kinematics]\nw_max = 1e-320\n", "[kinematics] w_max * dt"),
        ("[kinematics]\ndt = 1e308\n", "[kinematics] dt"),
        # A tick count past the largest float fails to convert, not to multiply.
        ("[limits]\nmax_ticks = 1" + "0" * 400 + "\n", "[kinematics] dt"),
        ("[maps]\nresolution = 1e300\n", "[maps] resolution"),
        ("[inflation]\ndecay_rate = nan\n", "[inflation] decay_rate"),
        ("[inflation]\ndecay_rate = -4\n", "[inflation] decay_rate"),
        ("[inflation]\ninflation_radius = inf\n", "[inflation] inflation_radius"),
        ("[planner]\ncost_weight = inf\n", "[planner] cost_weight"),
        ("[reward]\nmax_linear = nan\n", "[reward] max_linear"),
        ("[reward]\ngoal_threshold = 0\n", "[reward] goal_threshold"),
        ("[reward]\ninclude_r_linear = maybe\n", "[reward] include_r_linear"),
        ("[lidar]\nangular_span = 7.0\n", "[lidar] angular_span"),
        ("[heuristic]\ngama = 0.3\n", "[heuristic] gama"),
        ("[bogus]\nx = 1\n", "[bogus]"),
        ("[selectors]\nselectors = heuristic heuristic\n",
         "[selectors] selectors: duplicate 'heuristic'"),
        ("[selectors]\nselectors = random:7 nearest random:07\n",
         "[selectors] selectors: duplicate 'random:7'"),
        ("[run]\nseeds = 1 1\n", "[run] seeds: duplicate 1"),
        ("[maps]\ngenerate = low:2 low:3\n",
         "[maps] generate: duplicate 'low00'"),
        ("[selectors]\nselectors = heuristic heuristic:5\n",
         "[selectors] selectors: heuristic selector takes no seed"),
        ("[selectors]\nselectors = nearest:0\n",
         "[selectors] selectors: nearest selector takes no seed"),
        ("[maps]\ngenerate = low:-1 medium:1\n",
         "[maps] generate: bad entry 'low:-1'"),
    ])
    def test_errors_name_offending_field(self, text, needle):
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert needle in str(err.value)

    @pytest.mark.parametrize("dirs", [("a", "b"), ("a", "a")])
    def test_same_named_map_files_rejected(self, tmp_path, monkeypatch, dirs):
        # a/x.txt and b/x.txt, or one path listed twice, would both write
        # and aggregate their runs under the map name x. The names are
        # checked before any file is loaded.
        monkeypatch.setattr(config, "load_map_file",
                            lambda *a: pytest.fail("loaded a map"))
        paths = []
        for d in dirs:
            path = tmp_path / d / "x.txt"
            path.parent.mkdir(exist_ok=True)
            path.write_text(TINY_ROOM)
            paths.append(str(path))
        with pytest.raises(ConfigError) as err:
            parse_config(f"[maps]\nfiles = {' '.join(paths)}\n")
        assert "[maps] files: duplicate 'x'" in str(err.value)

    def test_repeated_tier_rejected_before_generating(self, monkeypatch):
        monkeypatch.setattr(config, "generate_map",
                            lambda *a: pytest.fail("generated a map"))
        with pytest.raises(ConfigError) as err:
            parse_config("[maps]\ngenerate = high:500 high:1\n")
        assert "[maps] generate: duplicate 'high00'" in str(err.value)

    def test_malformed_map_file_names_path(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("3 3 0.25\n###\n#x#\n###\n")
        with pytest.raises(ConfigError) as err:
            parse_config(f"[maps]\nfiles = {bad}\n")
        assert str(bad) in str(err.value)

    @pytest.mark.parametrize("raw,value", [("on", True), ("off", False), ("yes", True),
                                           ("0", False), ("TRUE", True)])
    def test_boolean_spellings(self, raw, value):
        # configparser's spellings: 1/yes/true/on and 0/no/false/off, any case.
        text = f"[reward]\ninclude_r_linear = {raw}\n"
        assert parse_config(text, need_maps=False).reward.include_r_linear is value

    @pytest.mark.parametrize("outdir", ["out/50%", "%(x)s", "100%%"])
    def test_percent_is_literal(self, outdir):
        assert parse_config(f"[run]\noutdir = {outdir}\n",
                            need_maps=False).outdir == outdir

    @settings(max_examples=400, deadline=None)
    @given(st.lists(CONFIG_LINE, max_size=8))
    def test_parse_raises_only_config_error(self, lines):
        try:
            parse_config("\n".join(lines), need_maps=False)
        except ConfigError:
            pass

    def test_non_utf8_config_exit_1(self, tmp_path, capsys):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes(b"# caf\xff\n[run]\nseeds = 1\n")
        assert main(["run", "--config", str(cfg)]) == 1
        assert "config error" in capsys.readouterr().err


class TestPrintDefaults:
    def test_matches_default_config(self, capsys):
        assert main(["run", "--print-defaults"]) == 0
        assert capsys.readouterr().out == DEFAULT_CONFIG

    def test_digest_pinned(self, capsys):
        assert main(["run", "--print-defaults"]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == ("287a9223944ee5116c28b6036d5ed1de"
                          "75b5aeb156c6fd26ab0a95588b3d7a94")

    @pytest.mark.parametrize("command", ["run", "compare", "score", "reward"])
    def test_every_subcommand(self, capsys, command):
        # --config and --print-defaults are declared once, for all four.
        with pytest.raises(SystemExit) as done:
            main([command, "--help"])
        assert done.value.code == 0
        usage = capsys.readouterr().out
        assert "--config" in usage and "--print-defaults" in usage
        assert main([command, "--print-defaults"]) == 0
        assert capsys.readouterr().out == DEFAULT_CONFIG


class TestModuleEntry:
    """python -m explorebench, run from the source tree in a process of its own."""

    @staticmethod
    def _run(*args):
        root = os.path.join(os.path.dirname(__file__), os.pardir)
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        return subprocess.run([sys.executable, "-m", "explorebench", *args], cwd=root,
                              env=env, capture_output=True, text=True, timeout=120)

    def test_print_defaults(self):
        done = self._run("run", "--print-defaults")
        assert done.returncode == 0 and done.stdout == DEFAULT_CONFIG

    def test_compare_needs_config(self):
        done = self._run("compare")
        assert done.returncode == 1 and "--config is required" in done.stderr


class TestCmdRun:
    def test_minimal_run_artifacts(self, tmp_path, tiny_map, capsys):
        cfg = write_config(tmp_path, [tiny_map])
        assert main(["run", "--config", str(cfg)]) == 0
        out = tmp_path / "out"
        stem = "room_nearest_1"
        assert (out / f"{stem}.json").exists()
        assert (out / f"{stem}.csv").exists()
        assert (out / f"{stem}.svg").exists()
        payload = json.loads((out / f"{stem}.json").read_text())
        assert payload["outcome"] == "complete"
        csv_text = (out / f"{stem}.csv").read_text()
        assert csv_text.splitlines()[0] == "t,x,y,cumulative_distance,exploration_rate"
        assert "room_nearest_1: complete" in capsys.readouterr().out

    def test_byte_identical_reruns(self, tmp_path, tiny_map):
        cfg = write_config(tmp_path, [tiny_map])
        main(["run", "--config", str(cfg)])
        out = tmp_path / "out"
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        main(["run", "--config", str(cfg)])
        second = {p.name: p.read_bytes() for p in out.iterdir()}
        assert first == second

    def test_tick_limit_exit_code(self, tmp_path, tiny_map):
        cfg = write_config(tmp_path, [tiny_map],
                           extra="[limits]\nmax_ticks = 1\nexpr_target = 0.999\n"
                                 "[lidar]\nmax_range = 0.5\n")
        assert main(["run", "--config", str(cfg)]) == 2
        assert main(["compare", "--config", str(cfg)]) == 2
        assert (tmp_path / "out" / "aggregate.csv").is_file()

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("fmt", ["ascii", "pgm"])
    def test_map_without_free_cell_is_map_error(self, tmp_path, capsys, fmt, jobs):
        # Two seeds make two runs, so --jobs 2 starts a real pool.
        if fmt == "ascii":
            path = tmp_path / "walls.txt"
            path.write_text("2 2 0.5\n##\n##\n")
        else:
            path = tmp_path / "walls.pgm"
            path.write_bytes(b"P5 2 2 255\n" + bytes([255, 200, 0, 255]))
            (tmp_path / "walls.pgm.txt").write_text(
                "resolution = 0.5\noccupied_threshold = 255\n")
        cfg = write_config(tmp_path, [path], seeds="1 2")
        assert main(["run", "--config", str(cfg), "--jobs", str(jobs)]) == 1
        assert "map error: " in capsys.readouterr().err

    def test_missing_config(self, capsys):
        assert main(["run", "--config", "/no/such.cfg"]) == 1
        assert "config error" in capsys.readouterr().err

    def test_svg_is_valid_self_contained_xml(self, tmp_path, tiny_map):
        cfg = write_config(tmp_path, [tiny_map])
        main(["run", "--config", str(cfg)])
        svg = (tmp_path / "out" / "room_nearest_1.svg").read_text()
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")
        assert "http://" not in svg.replace("http://www.w3.org/2000/svg", "")

    def test_pgm_map_via_config(self, tmp_path):
        import numpy as np

        from explorebench.gridmap import FREE, OCCUPIED

        side = 11
        raw = np.full((side, side), 200, dtype=np.uint8)
        raw[0, :] = raw[-1, :] = raw[:, 0] = raw[:, -1] = 0
        pgm = tmp_path / "world.pgm"
        pgm.write_bytes(f"P5 {side} {side} 255\n".encode() + raw.tobytes())
        (tmp_path / "world.pgm.txt").write_text("resolution = 0.25\n")
        cfg = write_config(tmp_path, [pgm])
        assert main(["run", "--config", str(cfg)]) == 0
        payload = json.loads(
            (tmp_path / "out" / "world_nearest_1.json").read_text())
        assert payload["outcome"] == "complete"


def _reject_constant(name):
    raise ValueError(f"non-finite JSON token {name}")


# Every float key of the config: those whose default has a decimal point.
FLOAT_KEYS = [(section, key) for section in _DEFAULTS.sections()
              for key, value in _DEFAULTS[section].items() if "." in value]


@st.composite
def float_keys(draw):
    """Up to four float keys at once, positive and log-uniform over the whole
    double range; in about one example in four, one of them is negated or
    zeroed (no key accepts either, so one such key fails the config)."""
    values = draw(st.dictionaries(st.sampled_from(FLOAT_KEYS), floats(),
                                  min_size=1, max_size=4))
    if draw(st.integers(0, 3)) == 0:
        key = draw(st.sampled_from(sorted(values)))
        values[key] = draw(st.sampled_from([-values[key], 0.0]))
    return values


class TestExtremeValues:
    """One `run` of a generated low map for a few dozen ticks with one or
    more keys at extreme values either fails as a config error that names
    one of the keys, or ends with artifacts that a strict JSON parser reads
    and whose samples are all finite; no warning is raised. At dt = 1e308
    the sample times overflowed into Infinity tokens; at resolution = 1e300
    the occupancy score's squares overflowed. At resolution = 1e-308 with
    alpha = 1e300, d / alpha underflowed into csch(0); at decay_rate =
    1.7e308 with inflation_radius = 1e300, the decay's exponent overflowed."""

    CASES = [
        *([case] for case in (
            ("kinematics", "dt", "1e308"), ("maps", "resolution", "1e300"),
            ("kinematics", "v_max", "1e308"), ("kinematics", "w_max", "1e308"),
            ("planner", "cost_weight", "1e308"), ("heuristic", "alpha", "5e-324"),
            ("heuristic", "beta", "5e-324"), ("heuristic", "af_scale", "5e-324"),
            ("lidar", "angular_span", "1e300"), ("lidar", "max_range", "1e-300"),
            ("inflation", "decay_rate", "1e308"), ("inflation", "inscribed_radius", "1e-300"),
            ("inflation", "inscribed_radius", "1e300"),
            ("inflation", "inflation_radius", "1e300"),
            ("inflation", "inflation_radius", "1e-300"), ("maps", "resolution", "1e-300"),
            ("planner", "goal_relax_radius", "1000000000"))),
        [("maps", "resolution", "1e-308"), ("heuristic", "alpha", "1e300")],
        [("inflation", "decay_rate", "1.7e308"), ("inflation", "inflation_radius", "1e300")],
    ]

    @staticmethod
    def _ends_cleanly(workdir, keys, max_ticks):
        sections = {"maps": {"generate": "low:1"}, "limits": {"max_ticks": str(max_ticks)},
                    "run": {"seeds": "1", "outdir": str(workdir / "out")}}
        for section, key, value in keys:
            sections.setdefault(section, {})[key] = value
        cfg = workdir / "exp.cfg"
        cfg.write_text("".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in entries.items())
                               for name, entries in sections.items()))
        err = io.StringIO()
        # Warnings are errors inside the run only: on a failure, hypothesis
        # imports modules of its own that warn while it explains the example.
        with (contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err),
              warnings.catch_warnings()):
            warnings.simplefilter("error")
            code = main(["run", "--config", str(cfg)])
        if code == 1:
            message = err.getvalue()
            assert message.startswith("config error")
            assert any(f"[{section}]" in message and key in message for section, key, _ in keys)
            return code
        assert code in (0, 2)
        artifacts = sorted((workdir / "out").glob("*.json"))
        assert len(artifacts) == 2
        for path in artifacts:
            samples = json.loads(path.read_text(), parse_constant=_reject_constant)["samples"]
            assert samples and np.isfinite(samples).all()
        return code

    @pytest.mark.parametrize("keys", CASES, ids=lambda keys: "-".join(
        part for case in keys for part in case))
    def test_ends_cleanly(self, tmp_path, keys):
        self._ends_cleanly(tmp_path, keys, 60)

    # --hypothesis-show-statistics reports the share of each exit code.
    @settings(max_examples=500, deadline=None)
    @given(float_keys())
    @example({("maps", "resolution"): 1e-308, ("heuristic", "alpha"): 1e300})
    @example({("inflation", "decay_rate"): 1.7e308, ("inflation", "inflation_radius"): 1e300})
    @example({("maps", "resolution"): 1e-308})
    def test_float_keys_end_cleanly(self, values):
        with tempfile.TemporaryDirectory() as tmp:
            code = self._ends_cleanly(pathlib.Path(tmp), [(section, key, repr(value))
                                                          for (section, key), value in values.items()],
                                      40)
        event(f"exit {code}")

    def test_tiny_resolution_stall_is_the_robot_outgrowing_the_map(self, tmp_path):
        # At resolution = 1e-308 half a cell is subnormal, and both runs stall
        # at their first decision with the first scan's coverage. They stall
        # alike at resolution = 0.01, where every length is a normal double:
        # the 0.12 m inscribed radius then covers every Free cell of the
        # 19-cell map, so A* finds no traversable step.
        ends = []
        for resolution in ("0.01", "1e-308"):
            out = tmp_path / resolution
            cfg = tmp_path / "exp.cfg"
            cfg.write_text(f"[maps]\ngenerate = low:1\nresolution = {resolution}\n"
                           f"[run]\nseeds = 1\noutdir = {out}\nemit = json\n")
            assert main(["run", "--config", str(cfg)]) == 2
            records = [json.loads(p.read_text()) for p in sorted(out.glob("*.json"))]
            ends.append([(r["outcome"], r["totals"], r["decisions"]) for r in records])
        assert ends[0] == ends[1] and len(ends[0]) == 2
        for outcome, totals, decisions in ends[0]:
            assert outcome == "stalled" and decisions == []
            assert totals["distance"] == 0.0 and totals["ticks"] == 0
            assert 0.8 < totals["exploration_rate"] < 0.9


class TestCmdCompare:
    def test_aggregate_csv_and_summary(self, tmp_path, tiny_map, capsys):
        cfg = write_config(tmp_path, [tiny_map],
                           selectors="nearest heuristic", seeds="1 2 3")
        assert main(["compare", "--config", str(cfg)]) == 0
        agg = (tmp_path / "out" / "aggregate.csv").read_text()
        lines = agg.splitlines()
        assert lines[0] == ("map,selector,runs,complete,"
                            "dist_mean,dist_min,dist_max,dist_std,"
                            "time_mean,time_min,time_max,time_std,"
                            "expr_mean,expr_min,expr_max,expr_std")
        assert len(lines) == 3  # two selectors on one map
        out = capsys.readouterr().out
        assert "nearest: runs=3" in out
        assert "heuristic: runs=3" in out

    def test_jobs_do_not_change_output(self, tmp_path):
        # Grids of 19, 29 and 39 cells square share each batch, next to a
        # seeded random selector; every record equals a lone run's.
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(
            "[maps]\ngenerate = low:1 medium:1 high:1\nmap_seed = 100\n"
            "[selectors]\nselectors = heuristic random:3\n"
            "[heuristic]\nmin_segment_size = 1\n"
            f"[run]\nseeds = 1\noutdir = {tmp_path / 'out'}\nemit = json\n")
        outputs = []
        for jobs in ("1", "2", "3"):
            assert main(["run", "--config", str(cfg_path), "--jobs", jobs]) == 0
            assert main(["compare", "--config", str(cfg_path), "--jobs", jobs]) == 0
            outputs.append({p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()})
            shutil.rmtree(tmp_path / "out")
        assert outputs[0] == outputs[1] == outputs[2]
        cfg = config.load_config(str(cfg_path))
        assert len(outputs[0]) == len(cfg.maps) * 2 + 1
        for name, truth in cfg.maps:
            for seed in cfg.seeds:
                for selector in cfg.selectors:
                    record = run_exploration(
                        truth, pick_start(truth, seed), selector, cfg.params, cfg.lidar,
                        cfg.kinematics, cfg.limits, cfg.min_segment_size,
                        cfg.cost_weight, cfg.goal_relax_radius)
                    stem = f"{name}_{selector.label().replace(':', '-')}_{seed}"
                    assert outputs[0][stem + ".json"] == record_json(record).encode()

    @pytest.mark.parametrize("seeds,jobs,started", [
        ("1", 6, []), ("1 2", 5000, [2]), ("1 2 3", 2, [2])])
    def test_workers_capped_at_run_count(self, tmp_path, tiny_map, monkeypatch,
                                         seeds, jobs, started):
        # A stand-in pool records its size and runs the specs in-process.
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, specs):
                return map(fn, specs)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
        cfg = write_config(tmp_path, [tiny_map], seeds=seeds)
        assert main(["compare", "--config", str(cfg), "--jobs", str(jobs)]) == 0
        assert sizes == started


class TestCmdScore:
    def _write_scene(self, tmp_path):
        belief, robot = case_study_scene()
        belief_path = tmp_path / "belief.txt"
        belief_path.write_text(to_ascii(belief))
        truth = clone_grid(belief)
        truth.states[truth.states == 0] = 1  # unknown -> free, same dims
        map_path = tmp_path / "truth.txt"
        map_path.write_text(to_ascii(truth).replace("?", "."))
        cfg = tmp_path / "score.cfg"
        cfg.write_text("[heuristic]\nalpha = 8.0\nbeta = 5.0\ngamma = 0.5\n")
        return map_path, belief_path, robot, cfg

    def test_case_study_table(self, tmp_path, capsys):
        map_path, belief_path, robot, cfg = self._write_scene(tmp_path)
        rc = main(["score", "--config", str(cfg), "--map", str(map_path),
                   "--belief", str(belief_path),
                   "--pose", f"{robot.x},{robot.y},0"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "segment_id,d,D,O,h,chosen"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 2
        chosen = [r for r in rows if r[5] == "true"]
        assert len(chosen) == 1
        # The enclosed pocket ring (farther, longer) wins over the doorway.
        h_by_id = {r[0]: float(r[4]) for r in rows}
        d_by_id = {r[0]: float(r[1]) for r in rows}
        ring_id = min(d_by_id, key=lambda k: -d_by_id[k])
        assert chosen[0][0] == ring_id
        assert h_by_id[ring_id] < min(v for k, v in h_by_id.items() if k != ring_id)

    def test_no_frontiers_exit_3(self, tmp_path, capsys):
        map_path = tmp_path / "truth.txt"
        map_path.write_text(TINY_ROOM)
        belief_path = tmp_path / "belief.txt"
        belief_path.write_text(TINY_ROOM)  # fully known
        rc = main(["score", "--map", str(map_path), "--belief",
                   str(belief_path), "--pose", "0.5,0.5,0"])
        assert rc == 3
        assert "no frontiers" in capsys.readouterr().err

    def test_missing_flags(self, capsys):
        assert main(["score", "--map", "x"]) == 1

    def test_malformed_map_or_belief_exit_1(self, tmp_path, capsys):
        good = tmp_path / "good.txt"
        good.write_text(TINY_ROOM)
        bad = tmp_path / "bad.txt"
        bad.write_text("3 3 nan\n...\n...\n...\n")
        for map_path, belief_path in ((bad, good), (good, bad)):
            rc = main(["score", "--map", str(map_path), "--belief",
                       str(belief_path), "--pose", "0.5,0.5,0"])
            assert rc == 1
            assert "map error" in capsys.readouterr().err

    def test_dimension_mismatch_exit_1(self, tmp_path, capsys):
        map_path = tmp_path / "truth.txt"
        map_path.write_text(TINY_ROOM)
        belief_path = tmp_path / "belief.txt"
        belief_path.write_text("3 3 0.25\n???\n?.?\n???\n")
        rc = main(["score", "--map", str(map_path), "--belief",
                   str(belief_path), "--pose", "0.5,0.5,0"])
        assert rc == 1
        assert "dimensions" in capsys.readouterr().err

    def test_resolution_mismatch_exit_1(self, tmp_path, capsys):
        map_path = tmp_path / "truth.txt"
        map_path.write_text(TINY_ROOM)
        belief_path = tmp_path / "belief.txt"
        belief_path.write_text(TINY_ROOM.replace("0.25", "0.5", 1)
                               .replace("#.........#", "#....?....#", 1))
        rc = main(["score", "--map", str(map_path), "--belief",
                   str(belief_path), "--pose", "0.5,0.5,0"])
        assert rc == 1
        assert "resolutions" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["outside", "obstacle", "1e308", "-1e300"])
    def test_pose_off_free_truth_exit_1(self, tmp_path, capsys, where):
        # 1e308 / resolution is inf, which has no int cell index; -1e300 had
        # one of 300 digits.
        map_path, belief_path, _, cfg = self._write_scene(tmp_path)
        truth = load_map_file(map_path)
        j, i = np.argwhere(truth.states == OCCUPIED)[0]
        x, y = {"outside": (100.0, 100.0), "obstacle": truth.cell_center(i, j),
                "1e308": (1e308, 1.0), "-1e300": (-1e300, 1.0)}[where]
        rc = main(["score", "--config", str(cfg), "--map", str(map_path),
                   "--belief", str(belief_path), f"--pose={x},{y},0"])
        assert rc == 1
        captured = capsys.readouterr()
        needle = "is occupied" if where == "obstacle" else f"pose ({x}, {y}) outside the "
        assert captured.err.startswith("map error: ") and needle in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("pose", ["nan,0,0", "inf,0,0", "1,-inf,0",
                                      "1,1,nan", "1,1", "1,x,0"])
    def test_bad_pose_exit_1(self, tmp_path, capsys, pose):
        map_path, belief_path, _, cfg = self._write_scene(tmp_path)
        rc = main(["score", "--config", str(cfg), "--map", str(map_path),
                   "--belief", str(belief_path), "--pose", pose])
        assert rc == 1
        captured = capsys.readouterr()
        assert "bad pose" in captured.err
        assert captured.out == ""


class TestCmdReward:
    def test_csv_output(self, tmp_path, capsys):
        lines = [
            {"lidar_min": 10.0, "d_goal_init": 5.0, "d_goal_now": 5.0,
             "goal_angle": 0.0, "action_linear": 0.26, "action_angular": 0.0},
            {"lidar_min": 10.0, "d_goal_init": 5.0, "d_goal_now": 0.0,
             "goal_angle": 0.0, "action_linear": 0.26, "action_angular": 0.0},
            {"lidar_min": 0.0, "d_goal_init": 5.0, "d_goal_now": 5.0,
             "goal_angle": 0.0, "action_linear": 0.26, "action_angular": 0.0},
        ]
        path = tmp_path / "obs.jsonl"
        path.write_text("\n".join(json.dumps(o) for o in lines) + "\n")
        rc = main(["reward", "--input", str(path)])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "r_yaw,r_linear,r_angular,r_distance,r_obstacle,reward"
        totals = [float(line.split(",")[-1]) for line in out[1:]]
        assert totals == [0.0, 5001.0, -2050.0]

    def test_bad_line_exit_1(self, tmp_path, capsys):
        path = tmp_path / "obs.jsonl"
        path.write_text('{"lidar_min": -1, "d_goal_init": 1, "d_goal_now": 1, '
                        '"goal_angle": 0, "action_linear": 0, "action_angular": 0}\n')
        assert main(["reward", "--input", str(path)]) == 1
        assert "line 1" in capsys.readouterr().err

    @pytest.mark.parametrize("field,value", [("lidar_min", "NaN"),
                                             ("d_goal_init", "Infinity"),
                                             ("goal_angle", "-Infinity"),
                                             pytest.param("lidar_min", "9" * 400,
                                                          id="lidar_min-400-digits"),
                                             # A boolean read as 1 or 0 and gave a
                                             # row; a string or null died in abs().
                                             ("lidar_min", "true"), ("d_goal_now", "false"),
                                             pytest.param("lidar_min", '"10"',
                                                          id="lidar_min-string"),
                                             ("action_angular", "null")])
    def test_non_finite_field_exit_1(self, tmp_path, capsys, field, value):
        fields = {"lidar_min": "10.0", "d_goal_init": "5.0", "d_goal_now": "5.0",
                  "goal_angle": "0.0", "action_linear": "0.26",
                  "action_angular": "0.0"}
        fields[field] = value
        path = tmp_path / "obs.jsonl"
        path.write_text("{" + ", ".join(f'"{k}": {v}' for k, v in fields.items())
                        + "}\n")
        assert main(["reward", "--input", str(path)]) == 1
        err = capsys.readouterr().err
        assert "line 1" in err and field in err

    @pytest.mark.parametrize("changes,form", [
        ({"d_goal_init": 1e308, "d_goal_now": 0.0}, "paren_minus_one"),
        ({"d_goal_init": 1e308, "d_goal_now": 1e308}, "paren_minus_one"),
        ({"action_linear": 1e200}, "paren_minus_one"),
        ({"action_angular": 1e200}, "paren_minus_one"),
        ({"d_goal_init": 0.6, "d_goal_now": 0.4}, "literal")],
        ids=["inf-distance", "nan-distance", "huge-linear", "huge-angular", "zero-denominator"])
    def test_reward_past_float_range_exit_1(self, tmp_path, capsys, changes, form):
        # Each wrote inf or nan into the CSV, or died with a traceback.
        fields = {"lidar_min": 10.0, "d_goal_init": 5.0, "d_goal_now": 5.0,
                  "goal_angle": 0.0, "action_linear": 0.26, "action_angular": 0.0}
        path, cfg = tmp_path / "obs.jsonl", tmp_path / "reward.cfg"
        path.write_text(json.dumps({**fields, **changes}) + "\n")
        cfg.write_text(f"[reward]\ndistance_term_form = {form}\n")
        assert main(["reward", "--config", str(cfg), "--input", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: line 1: ")
        assert captured.out == "r_yaw,r_linear,r_angular,r_distance,r_obstacle,reward\n"

    def test_non_utf8_input_exit_1(self, tmp_path, capsys):
        path = tmp_path / "obs.jsonl"
        path.write_bytes(b'{"lidar_min": 10.0}\n\xff\n')
        assert main(["reward", "--input", str(path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_integer_fields_read_as_floats(self, tmp_path, capsys):
        # An integer-valued line gives the bytes of its float-valued twin:
        # -abs(0) and -(0 * 0) printed 0 where the floats give -0.0.
        ints = {"lidar_min": 10, "d_goal_init": 5, "d_goal_now": 5, "goal_angle": 0,
                "action_linear": 0, "action_angular": 0}
        path = tmp_path / "obs.jsonl"
        path.write_text(json.dumps(ints) + "\n"
                        + json.dumps({k: float(v) for k, v in ints.items()}) + "\n")
        assert main(["reward", "--input", str(path)]) == 0
        _, as_ints, as_floats = capsys.readouterr().out.splitlines()
        assert as_ints == as_floats == "-0.0,-6.760000000000001,-0.0,0.0,0.0,0.0"

    def test_huge_integer_names_its_term(self, tmp_path, capsys):
        # 10**300 squared is an int past every float: it failed to convert
        # with a message that named neither the field nor the term.
        path = tmp_path / "obs.jsonl"
        path.write_text('{"lidar_min": 10, "d_goal_init": 5, "d_goal_now": 5, "goal_angle": 0, '
                        '"action_linear": 0, "action_angular": 1' + "0" * 300 + "}\n")
        assert main(["reward", "--input", str(path)]) == 1
        assert capsys.readouterr().err == "error: line 1: r_angular is not finite: -inf\n"

    def test_reads_stdin_by_default(self, capsys, monkeypatch):
        import io
        import sys

        payload = ('{"lidar_min": 10.0, "d_goal_init": 2.0, "d_goal_now": 2.0,'
                   ' "goal_angle": 0.0, "action_linear": 0.26,'
                   ' "action_angular": 0.0}\n')
        monkeypatch.setattr(sys, "stdin", io.StringIO(payload))
        assert main(["reward"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 2
        assert float(out[1].split(",")[-1]) == 0.0


class TestBundledCorridors:
    def test_compare_direction_on_bundled_maps(self, tmp_path, capsys):
        import pathlib

        root = pathlib.Path(__file__).resolve().parents[1]
        map_a = root / "maps" / "corridor_a.txt"
        map_b = root / "maps" / "corridor_b.txt"
        assert map_a.exists() and map_b.exists()
        cfg = tmp_path / "corridors.cfg"
        cfg.write_text(
            "[maps]\n"
            f"files = {map_a} {map_b}\n"
            "[selectors]\nselectors = heuristic nearest\n"
            "[heuristic]\nmin_segment_size = 1\n"
            "[run]\nseeds = 1 2 3\n"
            f"outdir = {tmp_path / 'out'}\nemit = csv\n")
        assert main(["compare", "--config", str(cfg)]) == 0
        agg = (tmp_path / "out" / "aggregate.csv").read_text().splitlines()
        header = agg[0].split(",")
        col = header.index("dist_mean")
        by_selector = {}
        for line in agg[1:]:
            parts = line.split(",")
            by_selector.setdefault(parts[1], []).append(float(parts[col]))
        fh = sum(by_selector["heuristic"]) / len(by_selector["heuristic"])
        nf = sum(by_selector["nearest"]) / len(by_selector["nearest"])
        assert fh <= nf


class TestBeliefExportRoundTrip:
    def test_final_belief_json_parses_back(self, tmp_path, tiny_map):
        cfg = write_config(tmp_path, [tiny_map])
        main(["run", "--config", str(cfg)])
        payload = json.loads((tmp_path / "out" / "room_nearest_1.json").read_text())
        belief = load_belief(payload["final_belief"])
        assert belief.width == 11 and belief.height == 11
