"""The benchmark's hooks into the program still resolve and still fire.

perfbench/tracing.py wraps module attributes by name and perfbench/workloads.py
calls the program's entry points; a rename or a call that moves elsewhere
would leave a layer silently unmeasured. This runs each hook once, small.
"""

from perfbench import tracing, workloads

from explorebench import config, explorer, mapgen
from explorebench.gridmap import FREE


def test_every_target_resolves():
    for module, attr, layer, _, _ in tracing.TARGETS:
        assert callable(getattr(module, attr)), (module.__name__, attr, layer)


def test_every_layer_records_calls(tmp_path):
    cfg_path = tmp_path / "decide.cfg"
    cfg_path.write_text(workloads.DECIDE_CONFIG)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        cfg = config.load_config(str(cfg_path), need_maps=False)
        truth = mapgen.generate_map("low", 100, inflation=cfg.inflation)
        start = mapgen.pick_start(truth, 1)
        record = explorer.run_exploration(
            truth, start, explorer.SelectorKind("heuristic"), cfg.params, cfg.lidar,
            cfg.kinematics, explorer.RunLimits(max_ticks=40), cfg.min_segment_size,
            cfg.cost_weight, cfg.goal_relax_radius)
        big = mapgen.generate_map("high", 100, inflation=cfg.inflation)
        belief, robot = workloads.snapshot(big, big.states == FREE, 1, 6)
        choice = workloads.decide(cfg, belief, robot, explorer.SelectorKind("nearest"))
    finally:
        tracer.remove()
    assert len(record.samples) > 1
    assert choice.chosen is not None
    assert workloads.path_problems(belief, robot, choice, cfg.goal_relax_radius) == []
    totals, _ = tracing.layer_totals([tracer.arrays()])
    assert {layer for layer, t in totals.items() if t["calls"] == 0} == set()
