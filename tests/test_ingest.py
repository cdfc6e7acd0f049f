"""Tests for panel loading, validation and the synthetic generator."""

import contextlib
import functools
import hashlib
import io
import multiprocessing
import os
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from potbet import (
    Dataset,
    GridRun,
    SynthSpec,
    TargetSpec,
    generate_synthetic,
    ground_truth_frequency,
    load_dataset,
    reduce_target,
    write_dataset,
)
from potbet import ingest
from potbet.cli import main
from potbet.ingest import CSV_HEADER, ROW_BLOCK, IngestError, rankth_largest


def small_spec(**kw):
    base = dict(n_runs=2, years_per_run=2, seed=11, seasonal_amplitude=0.3)
    base.update(kw)
    return SynthSpec(**base)


class TestValidation:
    def test_day_of_year_out_of_range_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        vals = ",".join(["0.0"] * 25)
        lines = [CSV_HEADER]
        for i in range(365):
            doy = 366 if i == 200 else i + 1  # leap-day style overflow
            lines.append(f"1,{i + 1},{doy},{vals}")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(IngestError, match="day_of_year"):
            load_dataset([path])

    @pytest.mark.parametrize("labels,message", [
        ([*range(1, 201), 202, 201, *range(203, 366)], "202: day_of_year 202, expected 201"),
        ([*range(2, 366), 1], "2: day_of_year 2, expected 1"),
    ], ids=["adjacent-rows-swapped", "starts-on-day-2"])
    def test_day_of_year_off_the_calendar_names_file_and_line(self, tmp_path, labels,
                                                               message):
        # every label lies in 1..365, but not where the calendar puts it
        path = tmp_path / "bad.csv"
        vals = ",".join(["0.0"] * 25)
        lines = [CSV_HEADER] + [f"1,{i},{doy},{vals}" for i, doy in enumerate(labels, 1)]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(IngestError) as info:
            load_dataset([path])
        assert str(info.value) == f"{path}:{message}"

    def test_wrong_column_count_is_schema_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(CSV_HEADER + "\n1,1,1," + ",".join(["0.0"] * 24) + "\n")
        with pytest.raises(IngestError, match="columns"):
            load_dataset([path])

    def test_malformed_row_names_file_and_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        row = "1,1,1," + ",".join(["0.0"] * 24) + ",oops"
        path.write_text(CSV_HEADER + "\n" + row + "\n")
        with pytest.raises(IngestError, match=r"bad\.csv:2"):
            load_dataset([path])

    def test_non_multiple_of_365_rejected(self):
        with pytest.raises(IngestError, match="multiple of 365"):
            GridRun(run_id=0, values=np.zeros((100, 25)))

    def test_duplicate_run_ids_rejected(self):
        run = generate_synthetic(small_spec()).runs[0]
        with pytest.raises(IngestError, match="duplicate"):
            Dataset(runs=[run, run])

    def test_negative_values_rejected(self):
        values = np.zeros((365, 25))
        values[10, 3] = -0.5
        with pytest.raises(IngestError, match=">= 0"):
            GridRun(run_id=0, values=values)


class TestRoundTrip:
    def test_write_then_load_is_identical(self, tmp_path):
        data = generate_synthetic(small_spec())
        paths = [tmp_path / f"run_{r.run_id}.csv" for r in data.runs]
        write_dataset(data, paths)
        loaded = load_dataset(paths)
        for a, b in zip(data.runs, loaded.runs):
            assert a.run_id == b.run_id
            assert np.array_equal(a.day_of_year, b.day_of_year)
            assert np.array_equal(a.values, b.values)

    def test_canonical_files_round_trip_byte_for_byte(self, tmp_path):
        data = generate_synthetic(small_spec())
        first = [tmp_path / f"a_{r.run_id}.csv" for r in data.runs]
        second = [tmp_path / f"b_{r.run_id}.csv" for r in data.runs]
        write_dataset(data, first)
        write_dataset(load_dataset(first), second)
        for f, s in zip(first, second):
            assert f.read_bytes() == s.read_bytes()

    def test_all_zero_year(self, tmp_path):
        run = GridRun(run_id=1, values=np.zeros((365, 25)))
        path = tmp_path / "zero.csv"
        write_dataset(Dataset(runs=[run]), [path])
        loaded = load_dataset([path])
        assert loaded.n_total == 365
        assert np.all(loaded.concat_values() == 0.0)



# sha256 of each file `potbet synth --seed 0 --runs 4 --years 2` writes, as
# written by one process writing every run in turn
SYNTH_DIGESTS = {
    "run_00.csv": "539e24ad938ccddc2e5dd1cbbc194b09eab6f18c9c2fe63e782fa6368ec254a0",
    "run_01.csv": "a39a575d353c92edd1b5dccc57560f857c2a96fcfc61e0e9ac036f281afa0e8e",
    "run_02.csv": "8f2a1f99325b9440b87701038cc0f9a87a9cab34ddd6b562261675dcefe15ebc",
    "run_03.csv": "0f24db4bbc4298e6246386e50eb4b016da1c118cde295e305e523931c708a4b9",
}


def use_cpus(monkeypatch, n_cpus: int) -> list:
    """Make this process see n_cpus usable CPUs; return the list that each
    multiprocessing process started from now on is appended to."""
    monkeypatch.setattr(ingest.os, "sched_getaffinity", lambda pid: set(range(n_cpus)),
                        raising=False)
    started = []
    start = multiprocessing.process.BaseProcess.start

    def counting_start(proc):
        started.append(proc)
        start(proc)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", counting_start)
    return started


class TestParallelWrite:
    """Worker processes write whole runs; the bytes are the serial writer's."""

    def test_synth_files_are_pinned(self, tmp_path):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["synth", "--seed", "0", "--runs", "4", "--years", "2",
                         "--out", str(tmp_path)]) == 0
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in tmp_path.iterdir()}
        assert digests == SYNTH_DIGESTS

    @pytest.mark.parametrize("n_cpus", [1, 2, 3, 8])
    def test_equals_each_run_written_alone(self, tmp_path, monkeypatch, n_cpus):
        data = generate_synthetic(small_spec(n_runs=4))
        alone = []
        for run in data.runs:
            alone.append(tmp_path / f"alone_{run.run_id}.csv")
            write_dataset(Dataset([run]), alone[-1:])
        started = use_cpus(monkeypatch, n_cpus)
        together = [tmp_path / f"together_{r.run_id}.csv" for r in data.runs]
        write_dataset(data, together)
        # one process per CPU up to one per run, this process being one of them
        assert len(started) == min(n_cpus, len(data.runs)) - 1
        assert not multiprocessing.active_children()
        for a, b in zip(alone, together):
            assert a.read_bytes() == b.read_bytes()

    # with more than one CPU, this process writes run_00 and a worker run_01
    @pytest.mark.parametrize("bad", ["run_00.csv", "run_01.csv"])
    @pytest.mark.parametrize("n_cpus", [1, 2, 4])
    def test_unwritable_run_file_exits_2_and_leaves_no_process(
            self, tmp_path, monkeypatch, capsys, n_cpus, bad):
        use_cpus(monkeypatch, n_cpus)
        (tmp_path / bad).mkdir()
        rc = main(["synth", "--seed", "0", "--runs", "4", "--years", "1",
                   "--out", str(tmp_path)])
        err = capsys.readouterr().err.splitlines()
        assert rc == 2
        assert len(err) == 1 and err[0].startswith("error:")
        assert str(tmp_path / bad) in err[0]
        assert not multiprocessing.active_children()
        # no complete run file is left to pass for the set
        assert not [p for p in tmp_path.glob("run_*.csv") if p.is_file()]

    @staticmethod
    def fail_in_worker(monkeypatch, fail):
        """Make writing run 1, a worker's share at 2 CPUs, call fail."""
        use_cpus(monkeypatch, 2)
        write_run = ingest._write_run

        def failing(run, path):
            if run.run_id == 1:
                fail()
            write_run(run, path)

        monkeypatch.setattr(ingest, "_write_run", failing)

    def test_worker_bug_reaches_the_caller_as_itself(self, tmp_path, monkeypatch):
        def bug():
            raise ZeroDivisionError("a bug")

        self.fail_in_worker(monkeypatch, bug)
        data = generate_synthetic(small_spec())
        with pytest.raises(ZeroDivisionError, match="a bug"):
            write_dataset(data, [tmp_path / "a.csv", tmp_path / "b.csv"])
        assert not multiprocessing.active_children()
        assert not list(tmp_path.iterdir())  # this process's a.csv is removed

    def test_worker_that_dies_without_reporting_is_an_error(self, tmp_path, monkeypatch):
        self.fail_in_worker(monkeypatch, lambda: os._exit(1))
        data = generate_synthetic(small_spec())
        with pytest.raises(RuntimeError):
            write_dataset(data, [tmp_path / "a.csv", tmp_path / "b.csv"])
        assert not multiprocessing.active_children()
        assert not list(tmp_path.iterdir())  # this process's a.csv is removed

    @pytest.mark.parametrize("second", ["run.csv", "sub/../run.csv"])
    def test_repeated_path_is_rejected_before_any_file_is_opened(
            self, tmp_path, monkeypatch, second):
        started = use_cpus(monkeypatch, 2)
        (tmp_path / "sub").mkdir()
        (tmp_path / "run.csv").write_bytes(b"earlier")
        data = generate_synthetic(small_spec())
        with pytest.raises(ValueError, match="run paths repeat"):
            write_dataset(data, [tmp_path / "run.csv", tmp_path / second])
        # neither opened for writing nor removed
        assert (tmp_path / "run.csv").read_bytes() == b"earlier"
        assert not started and not multiprocessing.active_children()

    def test_wrong_path_count_removes_no_file(self, tmp_path):
        (tmp_path / "run.csv").write_bytes(b"earlier")
        data = generate_synthetic(small_spec())
        with pytest.raises(ValueError, match="need 2 paths, got 1"):
            write_dataset(data, [tmp_path / "run.csv"])
        assert (tmp_path / "run.csv").read_bytes() == b"earlier"


def _outcome(loader, path):
    """What a loader makes of a file: its arrays bit for bit, or its error."""
    try:
        run = loader(path)
    except IngestError as exc:
        return ("error", str(exc))
    return (
        "ok", run.run_id, type(run.run_id),
        run.day_of_year.dtype, run.day_of_year.tobytes(),
        run.values.dtype, run.values.shape, run.values.tobytes(),
    )


@functools.lru_cache(maxsize=None)
def _canonical_lines(seed):
    """The lines (header first, no line ends) of a canonical one-year file."""
    data = generate_synthetic(SynthSpec(n_runs=1, years_per_run=1, seed=seed))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.csv"
        write_dataset(data, [path])
        return tuple(path.read_text().splitlines())


# Field spellings: some both parsers read, some only Python's int()/float()
# reads, some neither does.
_VALUE_TEXT = st.one_of(
    st.floats().map(repr),
    st.sampled_from([
        "nan", "inf", "-inf", "NaN", "Infinity", "-0.0", "1e400", "1e-400",
        "5e-324", " 2.5 ", "+1.5", ".5", "5.", "1_0.5", "1E3", "", "abc",
        "0x1p3", "1 2", "-1.0",
    ]),
)


def _int_spellings(text):
    """Other spellings of the integer field `text`."""
    return st.sampled_from([
        f"{text}.0", f"{text}e0", f"0_{text}", "_".join(text), f" {text} ",
        f"+{text}", f"0{text}", f"{text}x", "",
    ])


_CORRUPTIONS = (
    "truncate_row", "truncate_file", "extra_column", "missing_column",
    "value", "int_spelling", "run_id_changed", "run_id_everywhere",
    "day_index_changed", "skip_row", "repeat_row", "day_of_year_out",
    "blank_line", "whitespace_line", "header_only", "day_of_year_swap",
)


@st.composite
def _csv_files(draw):
    """A canonical file, corrupted in up to three ways, as bytes."""
    lines = list(_canonical_lines(draw(st.integers(0, 2))))
    # mostly one corruption, so that the first bad line is the one made bad
    for _ in range(draw(st.sampled_from([0, 1, 1, 1, 1, 2, 3]))):
        kind = draw(st.sampled_from(_CORRUPTIONS))
        n = len(lines) - 1
        if n == 0:
            break
        i = draw(st.integers(1, n))
        fields = lines[i].split(",")
        if kind == "truncate_row":
            lines[i] = lines[i][:draw(st.integers(0, max(len(lines[i]) - 1, 0)))]
        elif kind == "truncate_file":
            lines = lines[:1 + draw(st.integers(1, n))]
        elif kind == "extra_column":
            lines[i] += "," + draw(_VALUE_TEXT)
        elif kind == "missing_column":
            lines[i] = ",".join(fields[:-1])
        elif kind == "value" and len(fields) > 3:
            fields[draw(st.integers(3, len(fields) - 1))] = draw(_VALUE_TEXT)
            lines[i] = ",".join(fields)
        elif kind == "int_spelling" and len(fields) > 3:
            j = draw(st.integers(0, 2))
            fields[j] = draw(_int_spellings(fields[j]))
            lines[i] = ",".join(fields)
        elif kind == "run_id_changed":
            fields[0] = str(draw(st.sampled_from([1, -1, 2**63, 2**70])))
            lines[i] = ",".join(fields)
        elif kind == "day_index_changed" and len(fields) > 1:
            fields[1] = str(i + draw(st.sampled_from([-1, 1, 2**63])))
            lines[i] = ",".join(fields)
        elif kind == "day_of_year_out" and len(fields) > 2:
            fields[2] = draw(st.sampled_from(["0", "366"]))
            lines[i] = ",".join(fields)
        elif kind == "run_id_everywhere":
            rid = str(draw(st.sampled_from([0, 7, 2**63 - 1, 2**63, 2**70, -(2**63) - 1])))
            lines[1:] = [rid + line[line.find(","):] if "," in line else line
                         for line in lines[1:]]
        elif kind == "skip_row":
            del lines[i]
        elif kind == "repeat_row":
            lines.insert(i, lines[i])
        elif kind == "blank_line":
            lines.insert(draw(st.integers(1, n + 1)), "")
        elif kind == "whitespace_line":
            lines.insert(draw(st.integers(1, n + 1)), draw(st.sampled_from([" ", "\t"])))
        elif kind == "header_only":
            lines = lines[:1]
        elif kind == "day_of_year_swap" and i < n:
            # two adjacent labels trade places: each stays in 1..365
            after = lines[i + 1].split(",")
            if len(fields) > 2 and len(after) > 2:
                fields[2], after[2] = after[2], fields[2]
                lines[i], lines[i + 1] = ",".join(fields), ",".join(after)
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    final = newline if draw(st.booleans()) else ""
    return (newline.join(lines) + final).encode("utf-8")


class TestFastPass:
    @given(_csv_files())
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_agrees_with_line_by_line_parser(self, tmp_path, content):
        path = tmp_path / "run.csv"
        path.write_bytes(content)
        assert _outcome(ingest._load_run, path) == _outcome(ingest._load_run_by_line, path)

    @pytest.mark.parametrize("line_end,blank_lines,final_newline", [
        ("\n", False, True),
        ("\r\n", False, True),
        ("\n", True, True),
        ("\n", False, False),
    ])
    def test_canonical_files_take_the_fast_pass(
        self, tmp_path, monkeypatch, line_end, blank_lines, final_newline
    ):
        data = generate_synthetic(small_spec())
        paths = [tmp_path / f"run_{r.run_id}.csv" for r in data.runs]
        write_dataset(data, paths)
        for path in paths:
            lines = path.read_text().splitlines()
            if blank_lines:
                lines.insert(1, "")
                lines.insert(100, "")
            text = line_end.join(lines) + (line_end if final_newline else "")
            path.write_bytes(text.encode("utf-8"))

        def refuse(path):
            raise AssertionError(f"{path} fell back to the line-by-line parser")

        monkeypatch.setattr(ingest, "_load_run_by_line", refuse)
        loaded = load_dataset(paths)
        for a, b in zip(data.runs, loaded.runs):
            assert a.run_id == b.run_id and type(b.run_id) is int
            assert np.array_equal(a.day_of_year, b.day_of_year)
            assert np.array_equal(a.values, b.values)
            assert b.day_of_year.flags.c_contiguous

    @pytest.mark.parametrize("spelling,field", [("1_0", 2), (str(2**63), 0)])
    def test_spellings_only_python_reads_still_load(self, tmp_path, spelling, field):
        # loadtxt rejects these, int() takes them: the file loads as before
        lines = list(_canonical_lines(0))
        for i in range(1, len(lines)):
            fields = lines[i].split(",")
            if field == 0 or fields[field] == "10":
                fields[field] = spelling
            lines[i] = ",".join(fields)
        path = tmp_path / "run.csv"
        path.write_text("\n".join(lines) + "\n")
        got = _outcome(ingest._load_run, path)
        assert got[0] == "ok"
        assert got == _outcome(ingest._load_run_by_line, path)

    def test_header_only_file_is_an_error_without_a_warning(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text(CSV_HEADER + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IngestError, match="no data rows"):
                load_dataset([path])


class TestSynthetic:
    def test_challenge_shape(self):
        # 4 runs x 165 years, as in the challenge layout
        data = generate_synthetic(SynthSpec(n_runs=4, years_per_run=165, seed=3))
        assert data.n_total == 240900

    def test_seed_determinism(self):
        a = generate_synthetic(small_spec())
        b = generate_synthetic(small_spec())
        for ra, rb in zip(a.runs, b.runs):
            assert np.array_equal(ra.values, rb.values)

    def test_different_seeds_differ(self):
        a = generate_synthetic(small_spec(seed=1))
        b = generate_synthetic(small_spec(seed=2))
        assert not np.array_equal(a.runs[0].values, b.runs[0].values)

    def test_exchangeable_columns_when_flat(self):
        # amplitude 0 and unit loadings: all columns share one latent factor
        data = generate_synthetic(SynthSpec(
            n_runs=1, years_per_run=60, seed=5, seasonal_amplitude=0.0))
        means = data.concat_values().mean(axis=0)
        se = data.concat_values().std(axis=0).max() / np.sqrt(data.n_total)
        assert means.max() - means.min() < 6 * se

    def test_flat_day_of_year_means_when_no_seasonality(self):
        # >= 500 years, per-day means of one column differ by < 5 SE
        data = generate_synthetic(SynthSpec(
            n_runs=1, years_per_run=500, seed=6, seasonal_amplitude=0.0))
        col = data.concat_values()[:, 0]
        days = data.concat_days()
        by_day = np.array([col[days == d].mean() for d in range(1, 366)])
        se = col.std() / np.sqrt(500)
        assert by_day.max() - by_day.min() < 5 * se * 2  # max-vs-min of 365 draws

    def test_tail_against_brute_force_oracle(self):
        # Frozen oracle: P(location 0 > 12.0) = 2.827e-4 (se 5.3e-6) under
        # tail_scale=1, amplitude=0.5, unit loadings; 1e7-day brute-force
        # simulation of the same generator.
        p_oracle = 2.827e-4
        data = generate_synthetic(SynthSpec(
            n_runs=4, years_per_run=200, seed=9, seasonal_amplitude=0.5,
            tail_scale=1.0))
        hits = int(np.sum(data.concat_values()[:, 0] > 12.0))
        expected = p_oracle * data.n_total
        assert abs(hits - expected) < 5 * np.sqrt(expected)

    @staticmethod
    def _assert_factor_plus_noise(n_days):
        # the law written out as it was first drawn, on a twin generator
        spec = SynthSpec(seasonal_amplitude=0.3, tail_scale=2.5)
        doy = np.arange(n_days) % 365 + 1
        got = spec.sample_days(np.random.default_rng(21), doy)
        twin = np.random.default_rng(21)
        s = 2.5 * (1.0 + 0.3 * np.sin(2.0 * np.pi * doy / 365))
        z = s * twin.exponential(size=doy.size)
        noise = twin.exponential(size=(doy.size, 25))
        expected = z[:, None] + noise
        assert got.tobytes() == expected.tobytes()
        # and drew as much: the next draw of the caller's rng is unchanged
        rng = np.random.default_rng(21)
        spec.sample_days(rng, doy)
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_sample_days_is_the_factor_plus_noise(self):
        self._assert_factor_plus_noise(3 * 365)

    @pytest.mark.parametrize("n_days", [ROW_BLOCK, ROW_BLOCK + 1, 2 * ROW_BLOCK + 3])
    def test_sample_days_across_row_blocks(self, n_days):
        self._assert_factor_plus_noise(n_days)

    @pytest.mark.parametrize("spec, digest", [
        (SynthSpec(n_runs=2, years_per_run=1, seed=0),
         "f11dd3b6e46b84423a69a9ccec5c552afaee06d146a5018702fe65ba20c0ea59"),
        (SynthSpec(n_runs=2, years_per_run=1, seed=5, seasonal_amplitude=0.3,
                   tail_scale=2.5),
         "88b1d6c4e7892a8d8e68026c6a67cfd994ab2ed9fd3d968daf9016b3625d29fc"),
        (SynthSpec(n_runs=1, years_per_run=12, seed=5, seasonal_amplitude=0.3,
                   tail_scale=2.5),
         "3026729695a14f2accd1459dccaa38b2505ed5a401d59286a0863dc1b4e03e8f"),
    ], ids=["default-law", "non-default-law", "longer-than-a-row-block"])
    def test_generated_bytes_are_pinned(self, spec, digest):
        # the synthetic stream every fixture and oracle rests on
        values = generate_synthetic(spec).concat_values()
        assert hashlib.sha256(values.tobytes()).hexdigest() == digest

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            SynthSpec(seed=-1)

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            SynthSpec(tail_scale=0.0)
        for amplitude in (-0.1, 1.01):  # above 1, s(d) goes negative
            with pytest.raises(ValueError, match=r"seasonal_amplitude must be in \[0, 1\]"):
                SynthSpec(seasonal_amplitude=amplitude)


_ROW_VALUES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 2.5]),
                        st.floats(0.0, 1e6))


class TestRankthLargest:
    @given(rows=st.lists(st.lists(_ROW_VALUES, min_size=25, max_size=25),
                         min_size=1, max_size=12),
           n_zero_rows=st.integers(0, 2))
    @settings(max_examples=200, deadline=None)
    def test_equals_the_sorted_row_at_every_rank(self, rows, n_zero_rows):
        # small value pools give ties; all-zero rows tie across the row.
        # Equal values are equal bits, except that 0.0 and -0.0 tie: which
        # zero a tie returns is unspecified for the partition pick too.
        values = np.array(rows + [[0.0] * 25] * n_zero_rows)
        ascending = np.sort(values, axis=1)
        for rank in range(1, 26):
            got = rankth_largest(values, rank)
            picked = np.partition(values, 25 - rank, axis=1)[:, 25 - rank]
            np.testing.assert_array_equal(got, ascending[:, 25 - rank], str(rank))
            np.testing.assert_array_equal(got, picked, str(rank))

    @pytest.mark.parametrize("n_rows", [ROW_BLOCK, ROW_BLOCK + 1, 2 * ROW_BLOCK + 3])
    def test_across_row_blocks(self, n_rows):
        # a small value pool gives ties; below rank 25, the blocks pick the
        # bits one whole-array partition picks, signed zeros included
        rng = np.random.default_rng(n_rows)
        values = rng.choice([0.0, -0.0, 1.0, 2.5, 7.0], size=(n_rows, 25))
        values[::3] = rng.exponential(size=values[::3].shape)
        ascending = np.sort(values, axis=1)
        for rank in range(1, 26):
            got = rankth_largest(values, rank)
            np.testing.assert_array_equal(got, ascending[:, 25 - rank], str(rank))
            if rank < 25:
                picked = np.partition(values, 25 - rank, axis=1)[:, 25 - rank]
                assert got.tobytes() == picked.tobytes(), rank


def _traced_peak(f) -> int:
    """The most bytes f held at once, as tracemalloc counts them (numpy
    reports its buffers to it, so the count is exact, unlike the RSS)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        f()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


class TestTransientMemory:
    """Each kernel's transient memory is one row block, not a copy of a run;
    the unit is one 50-year run's values."""

    @pytest.fixture(scope="class")
    def panel(self):
        return generate_synthetic(SynthSpec(n_runs=4, years_per_run=50, seed=1))

    @pytest.mark.parametrize("target_id", ["T2", "T3"])
    def test_reduce_target_holds_no_partitioned_copy(self, panel, target_id):
        spec = TargetSpec.canonical(target_id)
        peak = _traced_peak(lambda: reduce_target(panel, spec))
        assert peak < 1.5 * panel.runs[0].values.nbytes

    def test_write_dataset_formats_one_row_at_a_time(self, panel, tmp_path):
        # the writer's peak is one run's, so one run keeps the test short
        one_run = Dataset(panel.runs[:1])
        peak = _traced_peak(lambda: write_dataset(one_run, [tmp_path / "run.csv"]))
        assert peak < 0.5 * panel.runs[0].values.nbytes

    def test_write_dataset_sends_no_run_through_this_process(
            self, panel, tmp_path, monkeypatch):
        # worker processes inherit the runs, so this process formats its own
        # share row by row and receives no pickled run
        started = use_cpus(monkeypatch, len(panel.runs))
        paths = [tmp_path / f"run_{r.run_id}.csv" for r in panel.runs]
        peak = _traced_peak(lambda: write_dataset(panel, paths))
        assert len(started) == len(panel.runs) - 1
        assert peak < 0.5 * panel.runs[0].values.nbytes

    def test_load_run_holds_one_copy_of_the_values(self, panel, tmp_path):
        # np.loadtxt's rows are 28 numbers a day to the values' 25, so a
        # load that keeps them holds 1.12 units; a second copy would add one
        path = tmp_path / "run.csv"
        write_dataset(Dataset(panel.runs[:1]), [path])
        peak = _traced_peak(lambda: ingest._load_run(path))
        assert peak < 1.6 * panel.runs[0].values.nbytes

    def test_sample_days_adds_the_factor_block_by_block(self, panel):
        # the (n_days, 25) result itself is one unit
        spec, doy = SynthSpec(), panel.runs[0].day_of_year
        peak = _traced_peak(lambda: spec.sample_days(np.random.default_rng(0), doy))
        assert peak < 1.6 * panel.runs[0].values.nbytes

    def test_oracle_reduces_one_row_block_at_a_time(self):
        # the unit here is one chunk's (chunk_days, 25) values, which the
        # oracle never holds; its per-day arrays are about a fifth of it
        days = 1_000_000
        target = TargetSpec.canonical("T3")
        peak = _traced_peak(lambda: ground_truth_frequency(
            SynthSpec(), target, oracle_days=days, chunk_days=days))
        assert peak < 0.3 * days * ingest.N_LOCATIONS * 8


class TestGroundTruthOracle:
    def test_impossible_event_is_zero(self):
        t = TargetSpec("X1", 25, np.inf)
        o = ground_truth_frequency(SynthSpec(seed=1), t, oracle_days=10**6)
        assert o.events_per_run == 0.0

    def test_certain_event_counts_every_day(self):
        t = TargetSpec("X1", 25, -1.0)
        o = ground_truth_frequency(SynthSpec(seed=1), t, oracle_days=10**6)
        assert o.events_per_run == 60225.0

    def test_regression_fixture(self):
        # Frozen output of this oracle at these exact arguments.
        t = TargetSpec("X1", 25, 12.0)
        o = ground_truth_frequency(SynthSpec(), t, oracle_days=2_000_000)
        assert o.events_per_run == pytest.approx(5.0287875, abs=1e-9)

    def test_too_few_days_rejected(self):
        t = TargetSpec("X1", 25, 1.0)
        with pytest.raises(ValueError, match="1e6"):
            ground_truth_frequency(SynthSpec(), t, oracle_days=1000)
