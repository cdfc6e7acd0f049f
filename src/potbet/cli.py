"""Batch CLI: synthesize/ingest runs, reduce, fit, select a level, estimate.

Every stage writes files, so the pipeline is resumable and each stage is
independently testable.  All outputs carry the seed and a config hash in a
leading comment line; a fixed seed makes the whole run byte-reproducible.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import betting, estimate, ingest, potmodel
from . import reduce as reduce_mod

# the JSON type of each list field of a config or a synth block
_LIST_TYPES = {"k_list": "list of int", "level_grid": "list of float",
               "targets": "list of str", "data_paths": "list of str"}


def _check_json(cls, obj: dict, what: str) -> None:
    """ValueError unless each key of obj names a field of the dataclass cls
    and holds a JSON value of its type (null only where the default is None)."""
    known = fields(cls)
    nullable = {f.name for f in known if f.default is None}
    ingest.check_json({k: v for k, v in obj.items() if v is not None or k not in nullable},
                      {f.name: _LIST_TYPES.get(f.name, f.type) for f in known}, what)


def _check_unique(key: str, values: list) -> None:
    """ValueError naming the entries that values repeats."""
    repeated = sorted({v for v in values if values.count(v) > 1})
    if repeated:
        raise ValueError(f"{key} repeats {repeated}")


@dataclass
class PipelineConfig:
    """Everything needed to reproduce a full run."""

    data_paths: list = field(default_factory=list)
    synth: dict = None                 # SynthSpec fields; used when data_paths is empty
    targets: list = field(default_factory=lambda: list(reduce_mod.TARGET_IDS))
    seed: int = 0
    k_list: list = field(default_factory=lambda: [3, 5])
    level_grid: list = field(default_factory=lambda: list(betting.GameConfig.level_grid))
    max_level: float = betting.GameConfig.max_level
    alpha: float = betting.GameConfig.alpha
    n_basis: int = betting.GameConfig.n_basis
    n_replications: int = estimate.EstimateConfig.n_replications
    confidence: float = estimate.EstimateConfig.confidence
    total_runs: int = estimate.EstimateConfig.total_runs
    given_runs: int = estimate.EstimateConfig.given_runs
    years: int = estimate.EstimateConfig.years
    out_dir: str = "."

    def __post_init__(self):
        for key in ("targets", "k_list"):
            if not getattr(self, key):
                raise ValueError(f"{key} must be non-empty")
        for key in ("targets", "k_list", "level_grid"):
            _check_unique(key, getattr(self, key))
        unknown = [t for t in self.targets if t not in reduce_mod.TARGET_IDS]
        if unknown:
            raise ValueError(f"unknown targets: {unknown}")
        # the stage configs check their own values, before any target runs
        for k in self.k_list:
            self.game_config(k)
        self.estimate_config()
        if self.synth is not None:
            self.synth_spec()

    @classmethod
    def from_file(cls, path) -> "PipelineConfig":
        """Load a JSON object of fields; unknown keys and wrong types are a ValueError."""
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
        if not isinstance(obj, dict):
            raise ValueError(f"config {path} must be a JSON object")
        _check_json(cls, obj, "config")
        return cls(**obj)

    def config_hash(self) -> str:
        # where the outputs land must not change what they contain
        fields = {k: v for k, v in asdict(self).items() if k != "out_dir"}
        blob = json.dumps(fields, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    def game_config(self, k: int) -> betting.GameConfig:
        return betting.GameConfig(K=k, **self._shared(betting.GameConfig))

    def estimate_config(self) -> estimate.EstimateConfig:
        return estimate.EstimateConfig(**self._shared(estimate.EstimateConfig))

    def _shared(self, cls) -> dict:
        """This config's values of the fields of the dataclass cls it also has."""
        return {f.name: vars(self)[f.name] for f in fields(cls) if f.name in vars(self)}

    def synth_spec(self, **overrides) -> ingest.SynthSpec:
        """The synth fields over the config's seed, then the overrides that
        are not None; an unknown field or a wrong type is a ValueError."""
        synth = {"seed": self.seed, **(self.synth or {}),
                 **{k: v for k, v in overrides.items() if v is not None}}
        _check_json(ingest.SynthSpec, synth, "synth")
        return ingest.SynthSpec(**synth)


def _write_csv(path, cfg: PipelineConfig, header: str, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# seed={cfg.seed} config_hash={cfg.config_hash()}\n")
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(str(x) for x in row) + "\n")


def _fmt(x: float) -> str:
    return repr(float(x))


SCORES_HEADER = "target_id,K,p,terminal_wealth,rejected,rejection_round,seed"
ANSWER_HEADER = "target_id,point,ci_lo,ci_hi,confidence_achieved,lambda,N,seed"


def _load(cfg: PipelineConfig) -> ingest.Dataset:
    """The config's data: its files, or else its synthetic panel."""
    if cfg.data_paths:
        return ingest.load_dataset(cfg.data_paths)
    if cfg.synth is None:
        raise ValueError("config needs data_paths or a synth spec")
    return ingest.generate_synthetic(cfg.synth_spec())


def _check_panel(cfg: PipelineConfig, data: ingest.Dataset) -> None:
    """ValueError unless data holds given_runs runs of `years` years each:
    the panel whose event count the estimate scales to total_runs."""
    years = [run.n_days // ingest.DAYS_PER_YEAR for run in data.runs]
    if years != [cfg.years] * cfg.given_runs:
        raise ValueError(f"data holds runs of {years} years, but the config has "
                         f"given_runs {cfg.given_runs} and years {cfg.years}")


def _outdir(cfg: PipelineConfig) -> Path:
    outdir = Path(cfg.out_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    return outdir


def _select(cfg, outdir, target, k, fits=None) -> betting.LevelSelection:
    """Select stage: play every level's game at K = k and write the scores."""
    sel = betting.select_level(target, cfg.game_config(k), fits)
    tid = target.target_id
    rows = ((tid, k, p, _fmt(res.terminal_wealth), res.rejection_round is not None,
             "" if res.rejection_round is None else res.rejection_round, cfg.seed)
            for p, res in sorted(sel.results.items()))
    _write_csv(outdir / f"scores_{tid}_K{k}.csv", cfg, SCORES_HEADER, rows)
    return sel


def _write_model(outdir, model) -> Path:
    """Fit stage output: the model's JSON file."""
    path = outdir / f"model_{model.target_id}.json"
    path.write_text(model.to_json() + "\n")
    return path


def _emit_poisson_plot(outdir, cfg, tid, est):
    counts = est.counts
    # the rows hold every replicated count and both Poisson tails to 1e-9;
    # counts below them carry no mass worth a row (98% of them at a mean of 1e5)
    lo = min(int(counts.min()), int(estimate.poisson_ppf(1e-9, est.lam)))
    hi = max(int(counts.max()) + 1, int(estimate.poisson_ppf(1 - 1e-9, est.lam)))
    ks = np.arange(lo, hi + 1)
    pois = estimate.poisson_pmf(ks, est.lam)
    emp = np.bincount(counts - lo, minlength=hi - lo + 1) / len(counts)
    _write_csv(outdir / f"poisson_{tid}.csv", cfg, "count,poisson_prob,empirical_freq",
               ((int(k), _fmt(p), _fmt(e)) for k, p, e in zip(ks, pois, emp)))


def _estimate(cfg, outdir, target, spec, model):
    """Estimate stage: the frequency estimate, its poisson_<T>.csv and its
    answer.csv row."""
    est = estimate.estimate_frequency(
        model, spec, reduce_mod.count_events(target, spec), cfg.estimate_config(),
        body_rate=estimate.body_event_rate(target, model, spec))
    _emit_poisson_plot(outdir, cfg, spec.target_id, est)
    return est, (spec.target_id, _fmt(est.point), _fmt(est.ci_lo), _fmt(est.ci_hi),
                 _fmt(est.achieved_coverage), _fmt(est.lam), cfg.n_replications, cfg.seed)


def _emit_plot_data(outdir, cfg, target, model):
    """Report stage: seasonal, adjusted, Q-Q and (paired targets) angular plot data."""
    tid = target.target_id
    _write_csv(outdir / f"seasonal_{tid}.csv", cfg, "day_of_year,scale",
               ((d, _fmt(v)) for d, v in enumerate(model.scale.table, start=1)))
    exc = reduce_mod.exceedances(target, model.p, model.q)
    adj = potmodel.adjust(exc, model.scale)
    _write_csv(outdir / f"adjusted_{tid}.csv", cfg, "day_of_year,adjusted_excess",
               ((int(d), _fmt(v)) for d, v in zip(exc.days, adj.values)))
    qq = potmodel.qq_exponential(adj)
    _write_csv(outdir / f"qq_{tid}.csv", cfg, "theoretical,observed",
               ((_fmt(a), _fmt(b)) for a, b in zip(qq.theoretical, qq.observed)))
    if target.has_aux:
        rep = reduce_mod.angular_diagnostic(target, exc)
        _write_csv(
            outdir / f"angular_{tid}.csv", cfg, "bin_left,bin_right,count",
            ((_fmt(rep.bin_edges[i]), _fmt(rep.bin_edges[i + 1]), int(c))
             for i, c in enumerate(rep.hist_counts)),
        )


def run_pipeline(cfg: PipelineConfig) -> dict:
    """Full pipeline for every configured target; returns per-target summaries."""
    data = _load(cfg)
    _check_panel(cfg, data)
    outdir = _outdir(cfg)
    report = {}
    errors = {}
    answer_rows = []
    for tid in cfg.targets:
        try:
            spec = reduce_mod.TargetSpec.canonical(tid)
            target = reduce_mod.reduce_target(data, spec)
            # the first K in the list decides the level; every K plays on its fits
            selection = _select(cfg, outdir, target, cfg.k_list[0])
            for k in cfg.k_list[1:]:
                _select(cfg, outdir, target, k, selection.fits)
            model = selection.fits[selection.p_star]
            _write_model(outdir, model)
            est, row = _estimate(cfg, outdir, target, spec, model)
            _emit_plot_data(outdir, cfg, target, model)
            # answered only once every output of the target succeeded
            answer_rows.append(row)
            report[tid] = {"p_star": selection.p_star, "point": est.point,
                           "ci": (est.ci_lo, est.ci_hi)}
        except (ValueError, np.linalg.LinAlgError) as exc:
            # a domain failure of one target; the remaining targets still run,
            # and anything else is a programming error that must surface
            errors[tid] = f"{type(exc).__name__}: {exc}"
    _write_csv(outdir / "answer.csv", cfg, ANSWER_HEADER, answer_rows)
    report["errors"] = errors
    return report


# ---------------------------------------------------------------- subcommands

def _add_common(sp, data=True):
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--out", default=None)
    sp.add_argument("--config", default=None, help="JSON config file")
    if data:
        sp.add_argument("--data", nargs="+")


def _build_config(args, **overrides) -> PipelineConfig:
    cfg = PipelineConfig.from_file(args.config) if args.config else PipelineConfig()
    overrides.update(seed=args.seed, out_dir=args.out,
                     data_paths=getattr(args, "data", None))
    return replace(cfg, **{k: v for k, v in overrides.items() if v is not None})


def _prologue(args):
    """Config, data and output directory of a stage subcommand."""
    cfg = _build_config(args)
    return cfg, _load(cfg), _outdir(cfg)


def _model_prologue(args):
    """Config, data, model, spec and target of a model subcommand; the
    model must be of the kind fit_pot_model gives its target."""
    cfg = _build_config(args)
    data = _load(cfg)
    model = potmodel.PotModel.from_json(Path(args.model).read_text())
    spec = reduce_mod.TargetSpec.canonical(model.target_id)
    target = reduce_mod.reduce_target(data, spec)
    kind = potmodel.model_kind(target)
    if model.kind != kind:
        raise ValueError(f"a {spec.target_id} model must be {kind!r}, got {model.kind!r}")
    return cfg, data, model, spec, target


def _cmd_synth(args) -> int:
    cfg = _build_config(args)
    data = ingest.generate_synthetic(cfg.synth_spec(n_runs=args.runs,
                                                    years_per_run=args.years))
    outdir = _outdir(cfg)
    paths = [outdir / f"run_{r.run_id:02d}.csv" for r in data.runs]
    ingest.write_dataset(data, paths)
    for p in paths:
        print(p)
    return 0


def _cmd_reduce(args) -> int:
    # the flags bypass PipelineConfig, whose hash every output carries
    _check_unique("targets", args.target or [])
    cfg, data, outdir = _prologue(args)
    for tid in args.target or cfg.targets:
        spec = reduce_mod.TargetSpec.canonical(tid)
        target = reduce_mod.reduce_target(data, spec)
        path = outdir / f"target_{tid}.csv"
        aux = (target.y31, target.y32, target.ybar) if target.has_aux else ()
        header = "target_id,t,day_of_year,y" + (",y31,y32,ybar" if aux else "")
        rows = enumerate(zip(target.d, target.y, *aux), start=1)
        _write_csv(path, cfg, header, ((tid, t, d, *map(_fmt, ys)) for t, (d, *ys) in rows))
        print(f"{path} events={reduce_mod.count_events(target, spec)}")
    return 0


def _cmd_fit(args) -> int:
    cfg, data, outdir = _prologue(args)
    target = reduce_mod.reduce_target(data, reduce_mod.TargetSpec.canonical(args.target))
    model = potmodel.fit_pot_model(target, args.p, n_basis=cfg.n_basis)
    if args.p > cfg.max_level:
        print(f"warning: p={args.p} exceeds max selectable level {cfg.max_level}",
              file=sys.stderr)
    print(_write_model(outdir, model))
    return 0


def _cmd_select(args) -> int:
    cfg, data, outdir = _prologue(args)
    target = reduce_mod.reduce_target(data, reduce_mod.TargetSpec.canonical(args.target))
    sel = _select(cfg, outdir, target, args.K if args.K is not None else cfg.k_list[0])
    print(f"p_star = {sel.p_star}")
    return 0


def _cmd_estimate(args) -> int:
    cfg, data, model, spec, target = _model_prologue(args)
    _check_panel(cfg, data)
    outdir = _outdir(cfg)
    est, row = _estimate(cfg, outdir, target, spec, model)
    _write_csv(outdir / "answer.csv", cfg, ANSWER_HEADER, [row])
    print(f"{model.target_id}: point={est.point} ci=[{est.ci_lo}, {est.ci_hi}]")
    return 0


def _cmd_report(args) -> int:
    cfg, _, model, spec, target = _model_prologue(args)
    outdir = _outdir(cfg)
    _emit_plot_data(outdir, cfg, target, model)
    print(outdir)
    return 0


def _cmd_run(args) -> int:
    cfg = _build_config(args, targets=args.target)
    report = run_pipeline(cfg)
    errors = report.pop("errors")
    for tid, info in report.items():
        print(f"{tid}: p_star={info['p_star']} point={info['point']} "
              f"ci={info['ci']}")
    for tid, msg in errors.items():
        print(f"{tid}: FAILED ({msg})", file=sys.stderr)
    return 0 if all(t in report for t in cfg.targets) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="potbet",
        description="Seasonal POT frequency estimation with betting-based "
                    "threshold selection",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("synth", help="generate synthetic run files")
    _add_common(sp, data=False)
    sp.add_argument("--runs", type=int)
    sp.add_argument("--years", type=int)
    sp.set_defaults(func=_cmd_synth)

    sp = sub.add_parser("reduce", help="reduce runs to univariate target series")
    _add_common(sp)
    sp.add_argument("--target", action="append", choices=reduce_mod.TARGET_IDS)
    sp.set_defaults(func=_cmd_reduce)

    sp = sub.add_parser("fit", help="fit a POT model at a given level")
    _add_common(sp)
    sp.add_argument("--target", required=True, choices=reduce_mod.TARGET_IDS)
    sp.add_argument("--p", type=float, required=True)
    sp.set_defaults(func=_cmd_fit)

    sp = sub.add_parser("select", help="score the level grid and pick p*")
    _add_common(sp)
    sp.add_argument("--target", required=True, choices=reduce_mod.TARGET_IDS)
    sp.add_argument("--K", type=int)
    sp.set_defaults(func=_cmd_select)

    sp = sub.add_parser("estimate", help="frequency estimate from a fitted model")
    _add_common(sp)
    sp.add_argument("--model", required=True)
    sp.set_defaults(func=_cmd_estimate)

    sp = sub.add_parser("report", help="emit plot data for a fitted model")
    _add_common(sp)
    sp.add_argument("--model", required=True)
    sp.set_defaults(func=_cmd_report)

    sp = sub.add_parser("run", help="full pipeline for all targets")
    _add_common(sp)
    sp.add_argument("--target", action="append", choices=reduce_mod.TARGET_IDS)
    sp.set_defaults(func=_cmd_run)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
