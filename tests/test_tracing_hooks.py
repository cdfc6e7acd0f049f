"""The benchmark's tracer patches potbet functions by name, but only under
--trace 1; an untraced run never notices that one was renamed or deleted."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    # tracing.py imports only the standard library
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_function_exists():
    tracing = load_tracing()
    assert tracing.WRAPPED
    for module in tracing.MODULES:
        importlib.import_module(module)
    missing = [(module, attr) for module, attr, *_ in tracing.WRAPPED
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []


def test_game_counters_count_the_games_of_scored_levels_only():
    # betting.games and betting.rounds count run_rounds calls: one game of K
    # rounds per level select_level scores, and none for null_calibration,
    # whose trials play through the same loop without run_rounds
    import potbet
    from potbet import betting

    tracing = load_tracing()
    data = potbet.generate_synthetic(potbet.SynthSpec(n_runs=2, years_per_run=10, seed=3))
    target = potbet.reduce_target(data, potbet.TargetSpec.canonical("T2"))
    cfg = potbet.GameConfig(K=4, level_grid=(0.9, 0.95, 0.99, 0.9999))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        sel = betting.select_level(target, cfg)
        played = dict(tracer.counts)
        betting.null_calibration(sel.fits[sel.p_star], cfg, trials=100)
    finally:
        tracer.uninstall()
    assert sel.results and sel.failures
    assert played["betting.games"] == len(sel.results)
    assert played["betting.rounds"] == cfg.K * len(sel.results)
    assert tracer.counts == played
