"""Loading, validation and synthetic generation of climate-run panels.

A run is a daily precipitation panel over a 5x5 grid (25 locations) on a
365-day calendar (no leap days).  Synthetic runs share a seasonal
heavy-tailed latent factor across locations, so an exponential tail model
is exactly correct on them and end-to-end estimates can be checked against
a brute-force Monte Carlo oracle.
"""

from __future__ import annotations

import contextlib
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

N_LOCATIONS = 25
DAYS_PER_YEAR = 365

CSV_HEADER = (
    "run_id,day_index,day_of_year,"
    + ",".join(f"loc_{j:02d}" for j in range(N_LOCATIONS))
)
_N_COLUMNS = 3 + N_LOCATIONS


class IngestError(ValueError):
    """Raised for malformed or invalid input files."""


@dataclass
class GridRun:
    """One climate run: daily precipitation at 25 locations."""

    run_id: int
    day_of_year: np.ndarray  # int, values in 1..365
    values: np.ndarray       # (n_days, 25), non-negative

    def __post_init__(self):
        self.day_of_year = np.asarray(self.day_of_year, dtype=np.int64)
        self.values = np.asarray(self.values, dtype=np.float64)
        n = self.n_days
        if self.values.ndim != 2 or self.values.shape != (n, N_LOCATIONS):
            raise IngestError(
                f"run {self.run_id}: values must be ({n}, {N_LOCATIONS}), "
                f"got {self.values.shape}"
            )
        if n % DAYS_PER_YEAR != 0:
            raise IngestError(
                f"run {self.run_id}: {n} days is not a multiple of {DAYS_PER_YEAR}"
            )
        if self.day_of_year.min(initial=1) < 1 or self.day_of_year.max(initial=365) > 365:
            raise IngestError(f"run {self.run_id}: day_of_year outside 1..365")
        expected = np.arange(n) % DAYS_PER_YEAR + 1
        if not np.array_equal(self.day_of_year, expected):
            raise IngestError(
                f"run {self.run_id}: day_of_year must cycle 1..365 from day 1"
            )
        if not np.all(np.isfinite(self.values)) or self.values.min(initial=0.0) < 0:
            raise IngestError(f"run {self.run_id}: values must be finite and >= 0")

    @property
    def n_days(self) -> int:
        return len(self.day_of_year)


@dataclass
class Dataset:
    """Ordered collection of runs, concatenated by ascending run_id."""

    runs: list[GridRun]

    def __post_init__(self):
        ids = [r.run_id for r in self.runs]
        if len(set(ids)) != len(ids):
            raise IngestError(f"duplicate run_ids: {sorted(ids)}")
        self.runs = sorted(self.runs, key=lambda r: r.run_id)

    @property
    def n_total(self) -> int:
        return sum(r.n_days for r in self.runs)

    def concat_values(self) -> np.ndarray:
        return np.concatenate([r.values for r in self.runs], axis=0)

    def concat_days(self) -> np.ndarray:
        return np.concatenate([r.day_of_year for r in self.runs])


@dataclass
class SynthSpec:
    """Parameters of the synthetic ground-truth generator.

    Each day t draws a latent factor Z_t = s(d_t) * E_t with E_t standard
    exponential and s(d) = tail_scale * (1 + seasonal_amplitude * sin(2*pi*d/365)).
    Location j observes spatial_loading[j] * Z_t plus independent unit-
    exponential noise.  The seed fully determines the dataset.
    """

    n_runs: int = 4
    years_per_run: int = 165
    seed: int = 0
    seasonal_amplitude: float = 0.5
    tail_scale: float = 1.0
    spatial_loading: np.ndarray = field(
        default_factory=lambda: np.ones(N_LOCATIONS)
    )

    def __post_init__(self):
        self.spatial_loading = np.asarray(self.spatial_loading, dtype=np.float64)
        if self.n_runs < 1 or self.years_per_run < 1:
            raise ValueError("n_runs and years_per_run must be >= 1")
        if self.seasonal_amplitude < 0:
            raise ValueError("seasonal_amplitude must be >= 0")
        if self.tail_scale <= 0:
            raise ValueError("tail_scale must be > 0")
        if self.spatial_loading.shape != (N_LOCATIONS,):
            raise ValueError(f"spatial_loading must have length {N_LOCATIONS}")
        if np.any(self.spatial_loading <= 0) or np.any(self.spatial_loading > 1):
            raise ValueError("spatial_loading entries must lie in (0, 1]")

    def sample_days(self, rng, day_of_year: np.ndarray) -> np.ndarray:
        """The (n_days, 25) values of the given days; rng draws all of Z's
        exponentials first, then the noise."""
        d = np.asarray(day_of_year, dtype=np.float64)
        s = self.tail_scale * (
            1.0 + self.seasonal_amplitude * np.sin(2.0 * np.pi * d / DAYS_PER_YEAR)
        )
        z = s * rng.exponential(size=d.size)
        noise = rng.exponential(size=(d.size, N_LOCATIONS))
        return self.spatial_loading[None, :] * z[:, None] + noise


def generate_synthetic(spec: SynthSpec) -> Dataset:
    """Generate a Dataset from the seasonal latent-factor model, seed-deterministic."""
    rng = np.random.default_rng(spec.seed)
    doy = np.arange(spec.years_per_run * DAYS_PER_YEAR) % DAYS_PER_YEAR + 1
    runs = [GridRun(run_id=r, day_of_year=doy.copy(), values=spec.sample_days(rng, doy))
            for r in range(spec.n_runs)]
    return Dataset(runs=runs)


def load_dataset(paths: list) -> Dataset:
    """Load runs from CSV files (one run per file) and validate them."""
    runs = []
    for path in paths:
        runs.append(_load_run(path))
    return Dataset(runs=runs)


# One CSV row: the three integer columns, then the 25 values.
_ROW_DTYPE = np.dtype([
    ("run_id", np.int64),
    ("day_index", np.int64),
    ("day_of_year", np.int64),
    ("values", np.float64, (N_LOCATIONS,)),
])


@contextlib.contextmanager
def _open_data_rows(path):
    """Open a run file in text mode and check its header; yield the handle."""
    with open(path, "r", encoding="utf-8") as fh:
        if fh.readline().rstrip("\n") != CSV_HEADER:
            raise IngestError(f"{path}: bad header, expected '{CSV_HEADER}'")
        yield fh


def _load_run(path) -> GridRun:
    """Load one run in a single vectorised pass.

    A file the pass cannot take, or whose rows break a per-line rule, goes
    through `_load_run_by_line`, which names the offending line.  That
    parser also accepts the few spellings `np.loadtxt` rejects (such as
    `1_0`, or integers beyond int64), so both accept the same files and,
    on canonical files, return the same arrays.
    """
    with _open_data_rows(path) as fh:
        try:
            with warnings.catch_warnings():
                # a header-only file is reported below as "no data rows"
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                rows = np.loadtxt(fh, delimiter=",", comments=None, ndmin=1,
                                  dtype=_ROW_DTYPE)
        except ValueError:
            rows = None
    if (
        rows is None
        or rows.size == 0
        or np.any(rows["run_id"] != rows["run_id"][0])
        or not np.array_equal(rows["day_index"], np.arange(1, rows.size + 1))
        or np.any((rows["day_of_year"] < 1) | (rows["day_of_year"] > 365))
    ):
        return _load_run_by_line(path)
    return GridRun(
        run_id=int(rows["run_id"][0]),
        day_of_year=np.ascontiguousarray(rows["day_of_year"]),
        values=np.ascontiguousarray(rows["values"]),
    )


def _load_run_by_line(path) -> GridRun:
    """Parse and check one run line by line, naming the file and line at fault."""
    with _open_data_rows(path) as fh:
        run_id = None
        days = []
        rows = []
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != _N_COLUMNS:
                raise IngestError(
                    f"{path}:{lineno}: expected {_N_COLUMNS} columns, got {len(parts)}"
                )
            try:
                rid = int(parts[0])
                day_index = int(parts[1])
                doy = int(parts[2])
                vals = [float(v) for v in parts[3:]]
            except ValueError as exc:
                raise IngestError(f"{path}:{lineno}: malformed row ({exc})") from exc
            if run_id is None:
                run_id = rid
            elif rid != run_id:
                raise IngestError(
                    f"{path}:{lineno}: run_id changed from {run_id} to {rid}"
                )
            if day_index != len(rows) + 1:
                raise IngestError(
                    f"{path}:{lineno}: day_index {day_index}, expected {len(rows) + 1}"
                )
            if not 1 <= doy <= 365:
                raise IngestError(f"{path}:{lineno}: day_of_year {doy} outside 1..365")
            days.append(doy)
            rows.append(vals)
    if run_id is None:
        raise IngestError(f"{path}: no data rows")
    return GridRun(run_id=run_id, day_of_year=np.array(days), values=np.array(rows))


def write_dataset(data: Dataset, paths: list) -> None:
    """Write one CSV file per run (canonical format: shortest round-trip floats, LF)."""
    if len(paths) != len(data.runs):
        raise ValueError(f"need {len(data.runs)} paths, got {len(paths)}")
    for run, path in zip(data.runs, paths):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(CSV_HEADER + "\n")
            days = run.day_of_year.tolist()
            for i, (doy, vals) in enumerate(zip(days, run.values.tolist()), start=1):
                fh.write(f"{run.run_id},{i},{doy},{','.join(map(repr, vals))}\n")


@dataclass
class OracleFrequency:
    """Brute-force Monte Carlo frequency with its standard error."""

    events_per_run: float
    stderr: float
    oracle_days: int
    run_days: int


def ground_truth_frequency(
    spec: SynthSpec,
    target,
    oracle_days: int,
    run_days: int = 60225,
    chunk_days: int = 1_000_000,
) -> OracleFrequency:
    """Brute-force estimate of expected events per run of `run_days` days.

    Simulates `oracle_days` days under the generator defined by `spec`,
    reduces them with `target` (a reduce.TargetSpec) and counts threshold
    crossings.  Independent of the POT pipeline by construction.
    """
    if oracle_days < 10**6:
        raise ValueError("oracle_days must be >= 1e6")
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 0x0AC1E]))
    count = 0
    done = 0
    prev_y_last = None  # last day's order statistic, for consecutive targets
    while done < oracle_days:
        n = min(chunk_days, oracle_days - done)
        doy = (done + np.arange(n)) % DAYS_PER_YEAR + 1
        values = spec.sample_days(rng, doy)
        idx = N_LOCATIONS - target.rank
        y = np.partition(values, idx, axis=1)[:, idx]
        if target.consecutive:
            if prev_y_last is not None:
                y_full = np.concatenate([[prev_y_last], y])
            else:
                y_full = y
            pair_min = np.minimum(y_full[:-1], y_full[1:])
            count += int(np.sum(pair_min >= target.event_threshold))
            prev_y_last = y[-1]
        else:
            count += int(np.sum(y >= target.event_threshold))
        done += n
    per_run = count / oracle_days * run_days
    stderr = math.sqrt(max(count, 1)) / oracle_days * run_days
    return OracleFrequency(
        events_per_run=per_run, stderr=stderr,
        oracle_days=oracle_days, run_days=run_days,
    )
