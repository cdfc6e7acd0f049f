"""Command-line interface tests: subcommands, outputs, exit codes."""

import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import stats

import potbet
from potbet import betting, estimate, potmodel
from potbet.cli import PipelineConfig, build_parser, main, run_pipeline

# JSON values of every type, and for each annotated config type the ones it takes
JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-10, 10),
    st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=4),
    st.lists(st.integers(0, 3), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(0, 3), max_size=2),
)
ACCEPTS = {
    "int": lambda v: type(v) is int,
    "float": lambda v: type(v) in (int, float),
    "bool": lambda v: type(v) is bool,
    "str": lambda v: type(v) is str,
    "list": lambda v: type(v) is list,
    "dict": lambda v: type(v) is dict,
}
CONFIG_FIELDS = {f.name: f for f in dataclasses.fields(PipelineConfig)}


def bad_config_exits_2(obj) -> bool:
    """from_file raises ValueError on obj, and `potbet run` exits 2 on it."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(ValueError):
            PipelineConfig.from_file(path)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main(["run", "--config", str(path), "--out", tmp])
    return rc == 2 and err.getvalue().startswith("error:")


def small_config(tmp_path, **overrides):
    cfg = {
        "synth": {
            "n_runs": 4,
            "years_per_run": 25,
            "tail_scale": 1.0,
            "seasonal_amplitude": 0.5,
        },
        "targets": ["T2"],
        "seed": 42,
        "k_list": [3],
        "level_grid": [0.9, 0.95],
        "n_replications": 100,
        "years": 25,
        "out_dir": str(tmp_path / "out"),
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def read_all(directory):
    return {p.name: p.read_bytes() for p in Path(directory).iterdir()}


class TestSynth:
    def test_writes_run_files_and_prints_paths(self, tmp_path, capsys):
        rc = main(["synth", "--seed", "3", "--out", str(tmp_path),
                   "--runs", "2", "--years", "1"])
        assert rc == 0
        printed = capsys.readouterr().out.strip().splitlines()
        assert len(printed) == 2
        for line in printed:
            assert Path(line).exists()

    def test_deterministic_given_seed(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["synth", "--seed", "7", "--out", str(a), "--runs", "1",
              "--years", "1"])
        main(["synth", "--seed", "7", "--out", str(b), "--runs", "1",
              "--years", "1"])
        assert (a / "run_00.csv").read_bytes() == (b / "run_00.csv").read_bytes()

    def test_different_seed_changes_data(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["synth", "--seed", "7", "--out", str(a), "--runs", "1",
              "--years", "1"])
        main(["synth", "--seed", "8", "--out", str(b), "--runs", "1",
              "--years", "1"])
        assert (a / "run_00.csv").read_bytes() != (b / "run_00.csv").read_bytes()


class TestReduceAndFit:
    def test_reduce_writes_target_csv_with_comment(self, tmp_path, capsys):
        cfg = small_config(tmp_path)
        rc = main(["reduce", "--config", str(cfg), "--target", "T2"])
        assert rc == 0
        out = Path(json.loads(cfg.read_text())["out_dir"])
        target_file = out / "target_T2.csv"
        assert target_file.exists()
        first = target_file.read_text().splitlines()[0]
        assert first.startswith("#") and "seed=42" in first
        assert "events=" in capsys.readouterr().out

    def test_reduce_writes_every_row_of_the_target(self, tmp_path):
        cfg = small_config(tmp_path)
        assert main(["reduce", "--config", str(cfg), "--target", "T2", "--target", "T3"]) == 0
        data = potbet.generate_synthetic(potbet.SynthSpec(
            n_runs=4, years_per_run=25, seed=42, tail_scale=1.0, seasonal_amplitude=0.5))
        comment = f"# seed=42 config_hash={PipelineConfig.from_file(cfg).config_hash()}"
        for tid, aux in (("T2", ""), ("T3", ",y31,y32,ybar")):
            target = potbet.reduce_target(data, potbet.TargetSpec.canonical(tid))
            cols = [target.y] + ([target.y31, target.y32, target.ybar] if aux else [])
            rows = [f"{tid},{i + 1},{target.d[i]}," + ",".join(repr(float(c[i])) for c in cols)
                    for i in range(len(target.y))]
            lines = (tmp_path / "out" / f"target_{tid}.csv").read_text().splitlines()
            assert lines == [comment, "target_id,t,day_of_year,y" + aux] + rows

    def test_fit_writes_model_json(self, tmp_path, capsys):
        cfg = small_config(tmp_path)
        rc = main(["fit", "--config", str(cfg), "--target", "T2",
                   "--p", "0.95"])
        assert rc == 0
        path = Path(capsys.readouterr().out.strip())
        model = json.loads(path.read_text())
        assert model["target_id"] == "T2"
        assert model["p"] == 0.95

    def test_fit_warns_above_max_selectable_level(self, tmp_path, capsys):
        # the warning follows a fit that succeeded
        cfg = small_config(tmp_path, max_level=0.9)
        rc = main(["fit", "--config", str(cfg), "--target", "T2", "--p", "0.95"])
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.err == "warning: p=0.95 exceeds max selectable level 0.9\n"

    @pytest.mark.parametrize("p", ["1.5", "0.9999"])
    def test_failed_fit_prints_one_error_line(self, tmp_path, capsys, p):
        # p outside (0, 1), and a level too extreme to leave enough
        # exceedances: one error line and no warning before it
        cfg = small_config(tmp_path)
        rc = main(["fit", "--config", str(cfg), "--target", "T2", "--p", p])
        err = capsys.readouterr().err.splitlines()
        assert rc == 2
        assert len(err) == 1 and err[0].startswith("error:")


class TestSelect:
    def test_scores_csv_and_p_star(self, tmp_path, capsys):
        cfg = small_config(tmp_path)
        rc = main(["select", "--config", str(cfg), "--target", "T2"])
        assert rc == 0
        assert "p_star = 0.9" in capsys.readouterr().out
        out = Path(json.loads(cfg.read_text())["out_dir"])
        lines = (out / "scores_T2_K3.csv").read_text().splitlines()
        assert lines[0].startswith("# seed=42 config_hash=")
        assert lines[1].startswith("target_id,K,p,terminal_wealth")
        # one scored row per grid level
        assert len(lines) == 2 + 2

    def test_rejected_is_true_where_the_wealth_reached_one_over_alpha(self, tmp_path):
        # at p = 0.9 the path crosses 1/alpha = 2 while the terminal wealth
        # ends near 1; the other levels never cross
        cfg = small_config(tmp_path, k_list=[10], alpha=0.5, level_grid=[0.9, 0.95, 0.99])
        assert main(["select", "--config", str(cfg), "--target", "T2"]) == 0
        lines = (tmp_path / "out" / "scores_T2_K10.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines[2:]]
        assert [(r[2], r[4], r[5]) for r in rows] == [
            ("0.9", "True", "3"), ("0.95", "False", ""), ("0.99", "False", "")]
        assert float(rows[0][3]) < 2.0


class TestEstimate:
    def fitted_model(self, tmp_path):
        cfg = small_config(tmp_path)
        main(["fit", "--config", str(cfg), "--target", "T2", "--p", "0.95"])
        out = Path(json.loads(cfg.read_text())["out_dir"])
        return cfg, out / "model_T2.json"

    def test_estimate_writes_a_point_on_the_grid(self, tmp_path, capsys):
        cfg, model = self.fitted_model(tmp_path)
        rc = main(["estimate", "--config", str(cfg), "--model", str(model)])
        assert rc == 0
        assert "point=" in capsys.readouterr().out
        out = model.parent / "answer.csv"
        lines = out.read_text().splitlines()
        assert lines[1].startswith("target_id,point")
        point = float(lines[2].split(",")[1])
        assert round(point * 50) == pytest.approx(point * 50)

    def test_model_without_floor_exits_2(self, tmp_path, capsys):
        cfg, model = self.fitted_model(tmp_path)
        obj = json.loads(model.read_text())
        del obj["floor"]
        model.write_text(json.dumps(obj))
        capsys.readouterr()
        rc = main(["estimate", "--config", str(cfg), "--model", str(model)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error:") and "'floor'" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["estimate", "report"])
    @pytest.mark.parametrize("key,value,message", [
        ("target_id", "T9", "unknown target 'T9'"),
        ("kind", "angular", "a T2 model must be 'direct', got 'angular'"),
        ("target_id", "T3", "a T3 model must be 'angular', got 'direct'"),
        ("p", "0.9", "model key 'p' must be a number in (0, 1), got '0.9'"),
        ("p", None, "model key 'p' must be a number in (0, 1), got None"),
        ("p", 1.5, "model key 'p' must be a number in (0, 1), got 1.5"),
        ("q", "1.0", "model key 'q' must be a finite number, got '1.0'"),
        ("q", float("nan"), "model key 'q' must be a finite number, got nan"),
        ("floor", "1e-6", "model key 'floor' must be a finite number, got '1e-6'"),
        ("n_basis", 10.0, "model key 'n_basis' must be int, got 10.0"),
        ("target_id", ["T2"], "model key 'target_id' must be str, got ['T2']"),
        ("kind", None, "model key 'kind' must be str, got None"),
        ("coefficients", None, "model key 'coefficients' must be a list of float, got None"),
        ("coefficients", ["1.0"] * 10,
         "model key 'coefficients' must be a list of float, got ['1.0', '1.0'"),
        ("coefficients", [True] * 10,
         "model key 'coefficients' must be a list of float, got [True, True"),
        ("day_pool", [1, 2.0], "model key 'day_pool' must be a list of int, got [1, 2.0]"),
        ("fits", {}, "unknown model keys: ['fits']"),
        ("coefficients", [float("nan")] * 10,
         "model key 'coefficients' must be a list of float, got [nan, nan"),
        pytest.param("q", 10**400, "model key 'q' must be a finite number, got 1000000000",
                     id="q-int-beyond-double"),
    ])
    def test_bad_target_or_kind_exits_2(self, tmp_path, capsys, command, key,
                                         value, message):
        cfg, model = self.fitted_model(tmp_path)
        obj = json.loads(model.read_text())
        obj[key] = value
        model.write_text(json.dumps(obj))
        capsys.readouterr()
        rc = main([command, "--config", str(cfg), "--model", str(model)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error:") and message in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("day", [0, 366])
    def test_pool_day_outside_year_exits_2(self, tmp_path, capsys, day):
        cfg, model = self.fitted_model(tmp_path)
        obj = json.loads(model.read_text())
        obj["day_pool"][-1] = day
        model.write_text(json.dumps(obj))
        capsys.readouterr()
        rc = main(["estimate", "--config", str(cfg), "--model", str(model)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error:") and "day_pool" in err
        assert err.count("\n") == 1


class TestRunPipeline:
    def test_full_run_emits_answer_and_plots(self, tmp_path, capsys):
        cfg = small_config(tmp_path)
        rc = main(["run", "--config", str(cfg)])
        assert rc == 0
        out = Path(json.loads(cfg.read_text())["out_dir"])
        names = {p.name for p in out.iterdir()}
        assert {"answer.csv", "model_T2.json", "scores_T2_K3.csv",
                "seasonal_T2.csv", "adjusted_T2.csv", "qq_T2.csv",
                "poisson_T2.csv"} <= names
        assert "T2: p_star=" in capsys.readouterr().out

    def test_poisson_plot_rows_hold_every_count(self, tmp_path):
        cfg = small_config(tmp_path, targets=["T1"])
        assert main(["run", "--config", str(cfg)]) == 0
        out = Path(json.loads(cfg.read_text())["out_dir"])
        lam = float((out / "answer.csv").read_text().splitlines()[2].split(",")[5])
        rows = [line.split(",") for line in
                (out / "poisson_T1.csv").read_text().splitlines()[2:]]
        ks = [int(r[0]) for r in rows]
        assert ks == list(range(ks[0], ks[-1] + 1))
        assert sum(float(r[2]) for r in rows) == pytest.approx(1.0)
        assert float(rows[-1][2]) == 0.0  # a row above the largest count
        # rows start where the Poisson mass below them is negligible, not at 0,
        # and end where the mass above them is, not at the largest count
        assert ks[0] > 0 and stats.poisson.cdf(ks[0] - 1, lam) < 1e-9
        assert stats.poisson.sf(ks[-1], lam) < 1e-9

    def test_level_too_small_for_qq_not_selected(self, tmp_path, capsys):
        # T2 once got p* = 0.9995 (18 exceedances) here, and its Q-Q report failed
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "synth": {"n_runs": 4, "years_per_run": 25, "seed": 6},
            "n_basis": 6, "seed": 6, "years": 25, "n_replications": 300}))
        assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 0
        assert "FAILED" not in capsys.readouterr().err
        rows = (tmp_path / "answer.csv").read_text().splitlines()[2:]
        assert [r.split(",")[0] for r in rows] == ["T1", "T2", "T3"]

    def test_rerun_byte_identical(self, tmp_path):
        cfg = small_config(tmp_path)
        main(["run", "--config", str(cfg)])
        out = json.loads(cfg.read_text())["out_dir"]
        first = read_all(out)
        main(["run", "--config", str(cfg)])
        assert read_all(out) == first

    def test_point_and_bounds_on_grid(self, tmp_path):
        cfg = small_config(tmp_path)
        main(["run", "--config", str(cfg)])
        out = Path(json.loads(cfg.read_text())["out_dir"])
        row = (out / "answer.csv").read_text().splitlines()[2].split(",")
        for value in row[1:4]:
            scaled = float(value) * 50
            assert abs(scaled - round(scaled)) < 1e-9

    def test_angular_plot_for_paired_target(self, tmp_path):
        cfg = small_config(tmp_path, targets=["T3"],
                           synth={"n_runs": 4, "years_per_run": 25,
                                  "tail_scale": 0.5,
                                  "seasonal_amplitude": 0.5})
        rc = main(["run", "--config", str(cfg)])
        assert rc == 0
        out = Path(json.loads(cfg.read_text())["out_dir"])
        assert (out / "angular_T3.csv").exists()

    def test_failed_target_reported_and_exit_1(self, tmp_path, capsys):
        # threshold far above any synthetic value: reduction succeeds but the
        # pipeline still answers; instead break it with an impossible level
        cfg = small_config(tmp_path, level_grid=[0.99999], max_level=1.0)
        rc = main(["run", "--config", str(cfg)])
        captured = capsys.readouterr()
        assert rc == 1
        assert "T2: FAILED" in captured.err

    def test_failed_target_writes_no_answer_row(self, tmp_path, capsys, monkeypatch):
        # the Q-Q plot data, written after the estimate, sees only 18 of the
        # adjusted exceedances, too few for a report: the estimate is dropped
        real = potmodel.qq_exponential
        monkeypatch.setattr(potmodel, "qq_exponential", lambda adj: real(
            potmodel.AdjustedExceedances(adj.values[:18])))
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "synth": {"n_runs": 4, "years_per_run": 25, "seed": 6},
            "targets": ["T2"], "n_basis": 6, "seed": 6, "years": 25,
            "n_replications": 300, "out_dir": str(tmp_path / "out")}))
        rc = main(["run", "--config", str(cfg)])
        assert rc == 1
        assert "T2: FAILED (InsufficientDataError: need >= 20 values" in capsys.readouterr().err
        lines = (tmp_path / "out" / "answer.csv").read_text().splitlines()
        assert lines[1].startswith("target_id,") and len(lines) == 2

    def test_each_level_fitted_once_per_target(self, tmp_path, monkeypatch):
        fitted = []
        real = potmodel.fit_pot_model

        def counting(target, p, **kwargs):
            fitted.append((target.target_id, p))
            return real(target, p, **kwargs)

        monkeypatch.setattr(potmodel, "fit_pot_model", counting)
        cfg = PipelineConfig.from_file(
            small_config(tmp_path, targets=["T2", "T3"], k_list=[3, 5]))
        assert run_pipeline(cfg)["errors"] == {}
        assert len(fitted) == len(cfg.targets) * len(cfg.level_grid)
        assert sorted(fitted) == [(t, p) for t in cfg.targets for p in cfg.level_grid]

    def test_stage_commands_write_the_bytes_of_run(self, tmp_path):
        cfg = small_config(tmp_path, targets=["T2", "T3"], k_list=[3, 5])
        assert main(["run", "--config", str(cfg)]) == 0
        ran = read_all(tmp_path / "out")
        answer = ran["answer.csv"].decode().splitlines()
        for tid in ("T2", "T3"):
            out = tmp_path / f"stage_{tid}"
            common = ["--config", str(cfg), "--out", str(out)]
            for k in ("3", "5"):
                assert main(["select", *common, "--target", tid, "--K", k]) == 0
            p_star = str(json.loads(ran[f"model_{tid}.json"])["p"])
            assert main(["fit", *common, "--target", tid, "--p", p_star]) == 0
            model = str(out / f"model_{tid}.json")
            assert main(["estimate", *common, "--model", model]) == 0
            assert main(["report", *common, "--model", model]) == 0
            staged = read_all(out)
            plots = ["seasonal", "adjusted", "qq", "poisson"] + ["angular"] * (tid == "T3")
            assert sorted(staged) == sorted(
                ["answer.csv", f"model_{tid}.json", f"scores_{tid}_K3.csv",
                 f"scores_{tid}_K5.csv"] + [f"{name}_{tid}.csv" for name in plots])
            row = [line for line in answer if line.startswith(f"{tid},")]
            assert staged.pop("answer.csv").decode().splitlines() == answer[:2] + row
            for name, data in staged.items():
                assert data == ran[name], name

    def test_report_on_another_panel_thresholds_at_the_model_q(self, tmp_path):
        # a model fitted on one panel and reported on another: the adjusted
        # and angular files hold exactly the days above the model's q
        cfg = small_config(tmp_path)
        out = tmp_path / "out"
        assert main(["fit", "--config", str(cfg), "--seed", "0", "--target", "T3",
                     "--p", "0.9"]) == 0
        model = potmodel.PotModel.from_json((out / "model_T3.json").read_text())
        assert main(["report", "--config", str(cfg), "--seed", "1",
                     "--model", str(out / "model_T3.json")]) == 0
        data = potbet.generate_synthetic(potbet.SynthSpec(
            n_runs=4, years_per_run=25, seed=1, tail_scale=1.0, seasonal_amplitude=0.5))
        target = potbet.reduce_target(data, potbet.TargetSpec.canonical("T3"))
        above = target.ybar > model.q
        assert np.count_nonzero(above) != np.count_nonzero(
            target.ybar > potbet.empirical_quantile(target.ybar, model.p))
        rows = (out / "adjusted_T3.csv").read_text().splitlines()[2:]
        assert [int(r.split(",")[0]) for r in rows] == target.d[above].tolist()
        counts = (out / "angular_T3.csv").read_text().splitlines()[2:]
        assert sum(int(r.split(",")[2]) for r in counts) == np.count_nonzero(above)

    def test_programming_error_propagates(self, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("broken stage")

        monkeypatch.setattr(estimate, "estimate_frequency", broken)
        cfg = PipelineConfig.from_file(small_config(tmp_path))
        with pytest.raises(TypeError, match="broken stage"):
            run_pipeline(cfg)


class TestConfigAndErrors:
    def test_empty_level_grid_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            PipelineConfig(level_grid=[])

    def test_unknown_target_rejected(self):
        with pytest.raises(ValueError):
            PipelineConfig(targets=["T9"])

    def test_config_hash_tracks_content(self):
        a = PipelineConfig(seed=1)
        b = PipelineConfig(seed=2)
        assert a.config_hash() != b.config_hash()
        assert a.config_hash() == PipelineConfig(seed=1).config_hash()

    @pytest.mark.parametrize("extra,message", [
        ({"seedx": 1}, "unknown config keys: ['seedx']"),
        ({"seed": "7"}, "config key 'seed' must be int, got '7'"),
        ({"emit_plot_data": True}, "unknown config keys: ['emit_plot_data']"),
        ({"confidence": True}, "config key 'confidence' must be float"),
        ({"k_list": [1]}, "K must be >= 2"),
        ({"alpha": 2}, "alpha must be in (0, 1)"),
        ({"clip": 1}, "unknown config keys: ['clip']"),
        ({"n_replications": 10}, "n_replications must be >= 100"),
        ({"confidence": 0.3}, "confidence must be in (0.5, 1)"),
        ({"given_runs": 60}, "need 0 <= given_runs < total_runs"),
        ({"total_runs": 0}, "need 0 <= given_runs < total_runs"),
        ({"level_grid": [1.5]}, "levels must be in (0, 1), got [1.5]"),
        ({"n_basis": 2}, "n_basis must be >= 4"),
        ({"n_basis": 366}, "n_basis must be >= 4 and <= 365, got 366"),
        ({"years": 0}, "years must be >= 1"),
        ({"k_list": ["3"]}, "config key 'k_list' must be a list of int, got ['3']"),
        ({"k_list": [3, True]}, "config key 'k_list' must be a list of int"),
        ({"level_grid": [0.9, "x"]}, "config key 'level_grid' must be a list of float"),
        ({"targets": ["T2", 1]}, "config key 'targets' must be a list of str"),
        ({"data_paths": [5]}, "config key 'data_paths' must be a list of str, got [5]"),
        ({"synth": {"n_runs": 1, "bogus": 1}}, "unknown synth keys: ['bogus']"),
        ({"synth": {"n_runs": "1"}}, "synth key 'n_runs' must be int, got '1'"),
        ({"synth": {"tail_scale": False}}, "synth key 'tail_scale' must be float"),
        ({"synth": {"spatial_loading": [1.0] * 25}},
         "unknown synth keys: ['spatial_loading']"),
        ({"synth": {"n_runs": 0}}, "n_runs and years_per_run must be >= 1"),
        ({"targets": ["T2", "T2"]}, "targets repeats ['T2']"),
        ({"k_list": [3, 5, 3]}, "k_list repeats [3]"),
        ({"level_grid": [0.9, 0.99, 0.9]}, "level_grid repeats [0.9]"),
        ({"synth": {"tail_scale": 10**400}},
         "synth key 'tail_scale' must be float, got 1000000000"),
        ({"level_grid": [float("nan"), 0.9]},
         "config key 'level_grid' must be a list of float, got [nan, 0.9]"),
        ({"targets": []}, "targets must be non-empty"),
        ({"seed": -1}, "seed must be >= 0"),
        ({"seed": -1, "synth": {"n_runs": 4, "years_per_run": 25, "seed": 1}},
         "seed must be >= 0"),
        ({"synth": {"n_runs": 4, "years_per_run": 25, "seed": -1}}, "seed must be >= 0"),
        ({"synth": {"years_per_run": 10**400}},
         "synth key 'years_per_run' must be int, got 1000000000"),
        ({"n_basis": 10**400}, "config key 'n_basis' must be int, got 1000000000"),
        ({"seed": 2**63}, "config key 'seed' must be int, got 9223372036854775808"),
        ({"synth": {"n_runs": 4, "years_per_run": 3}, "years": 3, "n_replications": 2**62},
         "n_replications must be <= 1152921504606846975"),
        ({"max_level": 0.5}, "max_level must be >= the smallest grid level 0.9, got 0.5"),
        ({"synth": {"n_runs": 4, "years_per_run": 25, "seasonal_amplitude": 3.0}},
         "seasonal_amplitude must be in [0, 1]"),
        ({"confidence": 0.999999999999}, "confidence must be <= 0.999999"),
        ({"years": 2, "total_runs": 40000000000000000},
         "total_runs * years * 365 must be <= 9223372036854775807"),
    ])
    def test_bad_config_file_exits_2(self, tmp_path, capsys, extra, message):
        cfg = small_config(tmp_path, **extra)
        for command in ("run", "synth"):
            rc = main([command, "--config", str(cfg)])
            err = capsys.readouterr().err
            assert rc == 2
            assert err.startswith("error:") and message in err
            assert err.count("\n") == 1
            assert not (tmp_path / "out").exists()  # rejected before any output

    def test_repeated_target_flag_exits_2(self, tmp_path, capsys):
        cfg = small_config(tmp_path)
        rc = main(["run", "--config", str(cfg), "--target", "T2", "--target", "T2"])
        assert rc == 2
        assert capsys.readouterr().err == "error: targets repeats ['T2']\n"
        assert not (tmp_path / "out").exists()

    def test_reduce_repeated_target_flag_exits_2(self, tmp_path, capsys):
        cfg = small_config(tmp_path)
        rc = main(["reduce", "--config", str(cfg),
                   "--target", "T1", "--target", "T2", "--target", "T2"])
        assert rc == 2
        assert capsys.readouterr() == ("", "error: targets repeats ['T2']\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("extra", [{"years": 165}, {"given_runs": 3}])
    def test_panel_unlike_years_and_given_runs_exits_2(self, tmp_path, capsys, extra):
        # the estimate scales the count of given_runs runs of `years` years:
        # another panel would answer for the wrong number of days
        fitted = tmp_path / "fitted"
        assert main(["fit", "--config", str(small_config(tmp_path)), "--target", "T2",
                     "--p", "0.95", "--out", str(fitted)]) == 0
        cfg = small_config(tmp_path, **extra)
        given, years = extra.get("given_runs", 4), extra.get("years", 25)
        message = ("error: data holds runs of [25, 25, 25, 25] years, but the config has "
                   f"given_runs {given} and years {years}\n")
        for argv in (["run"], ["estimate", "--model", str(fitted / "model_T2.json")]):
            capsys.readouterr()
            assert main([*argv, "--config", str(cfg)]) == 2
            assert capsys.readouterr() == ("", message)
            assert not (tmp_path / "out").exists()  # rejected before any output

    def test_stage_configs_copy_the_shared_fields_by_name(self):
        cfg = PipelineConfig(level_grid=[0.99, 0.9], max_level=0.995, alpha=0.1,
                             seed=7, n_basis=6, n_replications=200, total_runs=40,
                             given_runs=3, years=20, confidence=0.9)
        game, est = cfg.game_config(4), cfg.estimate_config()
        # every shared field differs from its default, so none is left out unseen
        for stage in (game, est):
            for f in dataclasses.fields(stage):
                assert f.name == "K" or getattr(stage, f.name) != f.default, f.name
        assert game == betting.GameConfig(
            K=4, alpha=cfg.alpha,
            level_grid=tuple(cfg.level_grid), max_level=cfg.max_level,
            seed=cfg.seed, n_basis=cfg.n_basis,
        )
        assert est == estimate.EstimateConfig(
            n_replications=cfg.n_replications, total_runs=cfg.total_runs,
            given_runs=cfg.given_runs, years=cfg.years,
            confidence=cfg.confidence, seed=cfg.seed,
        )

    @pytest.mark.parametrize("flag", ["--amplitude", "--tail-scale"])
    def test_synth_has_no_generator_flags(self, tmp_path, capsys, flag):
        # the synth block's seasonal_amplitude and tail_scale keys set these
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--out", str(tmp_path), flag, "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_default_config_hash_is_pinned(self):
        # every output's first line carries this hash: a default or a field
        # that drifts changes every file (clip and emit_plot_data left the
        # config, and its hash, with b2c3d9f15fde96f3)
        assert PipelineConfig().config_hash() == "59cb0fdbb6cf5730"

    def test_synth_config_takes_every_synth_spec_field(self, tmp_path):
        synth = {"n_runs": 1, "years_per_run": 2, "seed": 3, "seasonal_amplitude": 0,
                 "tail_scale": 2}
        spec = PipelineConfig.from_file(small_config(tmp_path, synth=synth)).synth_spec()
        assert (spec.n_runs, spec.years_per_run, spec.seed) == (1, 2, 3)
        assert (spec.seasonal_amplitude, spec.tail_scale) == (0, 2)
        # the config's seed is the default, and a synth flag overrides the file
        cfg = PipelineConfig(seed=9, synth={"n_runs": 1})
        assert cfg.synth_spec().seed == 9
        assert cfg.synth_spec(n_runs=2, tail_scale=None).n_runs == 2

    def test_config_accepts_int_for_float_and_null_synth(self, tmp_path):
        cfg = PipelineConfig.from_file(small_config(tmp_path, max_level=1, synth=None))
        assert cfg.max_level == 1 and cfg.synth is None

    @given(st.text(min_size=1, max_size=8).filter(lambda k: k not in CONFIG_FIELDS),
           JSON_VALUES)
    @settings(max_examples=40, deadline=None)
    def test_unknown_key_exits_2(self, key, value):
        assert bad_config_exits_2({"seed": 1, key: value})

    @given(st.sampled_from(sorted(CONFIG_FIELDS)), JSON_VALUES)
    @example("seed", True)  # a bool is an int in Python, not in the config
    @example("seed", None)  # null is taken only where the default is None
    @example("years", 25.0)
    @settings(max_examples=150, deadline=None)
    def test_wrong_json_type_exits_2(self, key, value):
        f = CONFIG_FIELDS[key]
        assume(not ACCEPTS[f.type](value) and not (value is None and f.default is None))
        assert bad_config_exits_2({key: value})

    def test_import_leaves_scipy_stats_out(self):
        # scipy.stats costs about a second to import; potbet needs scipy.special only
        env = dict(os.environ, PYTHONPATH=str(Path(potbet.__file__).parents[1]))
        code = ("import sys, potbet, potbet.cli; "
                "assert 'scipy.stats' not in sys.modules, 'scipy.stats imported'")
        subprocess.run([sys.executable, "-c", code], env=env, check=True)

    def test_module_entry_point_warns_nothing(self):
        env = dict(os.environ, PYTHONPATH=str(Path(potbet.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-m", "potbet.cli", "--help"],
                              capture_output=True, text=True, env=env, check=True)
        assert proc.stderr == ""
        assert "usage: potbet" in proc.stdout

    def test_missing_data_file_exits_2(self, tmp_path, capsys):
        rc = main(["reduce", "--data", str(tmp_path / "nope.csv"),
                   "--target", "T1", "--out", str(tmp_path)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_config_without_data_or_synth_exits_2(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"targets": ["T1"]}))
        rc = main(["reduce", "--config", str(path)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_parser_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_pipeline_returns_report(self, tmp_path):
        cfg = PipelineConfig(
            synth={"n_runs": 4, "years_per_run": 25, "tail_scale": 1.0,
                   "seasonal_amplitude": 0.5},
            targets=["T2"], seed=5, k_list=[3], level_grid=[0.9, 0.95],
            n_replications=100, years=25, out_dir=str(tmp_path),
        )
        report = run_pipeline(cfg)
        assert report["errors"] == {}
        assert report["T2"]["p_star"] in (0.9, 0.95)
        assert 0.0 <= report["T2"]["point"]
