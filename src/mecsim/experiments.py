"""Seeded experiment sweeps, CSV emission and trend-shape checks.

A sweep walks one axis (band split ``a``, slot split ``t1_frac``, or the
popularity exponent ``delta``) over a grid, overlaying popularity exponents
and averaging over seeds.  Per seed the deployment is drawn once; only the
quantities that depend on the swept parameter are regenerated (rates for the
resource splits, requests/caches for delta).

``SweepRow``'s fields, in order, are the CSV columns and their types;
``ExperimentConfig``'s fields and their defaults' types are the config
file's keys and value types.
"""

import inspect
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .association import abcg_init, run_amnd
from .content import Catalog, DemandProfile, build_demand, demand_rng
from .delays import audit_constraints
from .domains import check_fields
from .scenario import Counts, Scenario, SystemParams, generate_scenario

_CONFIG_HEADER = "mecsim-config v1"

SWEEP_AXES = ("a", "t1_frac", "delta")

_CATALOG = inspect.signature(Catalog.build).parameters
_DEMAND = inspect.signature(build_demand).parameters


@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep: base system + workload knobs, axis grid, seeds, algorithms.

    Each system and workload field takes its default from the definition
    it feeds (``SystemParams``, ``Catalog.build``, ``build_demand``, whose
    docstring says why its storage and cache policy make the workload
    contended), except the device counts: 40 computation devices against
    20 high-rate devices keep edge-server sharing binding.
    """

    axis: str = "a"
    grid: tuple = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
    deltas: tuple = (0.6, 1.0, 1.4)
    seeds: tuple = (1, 2, 3, 4, 5)
    algorithms: tuple = ("ABCG", "AMND")
    w_hz: float = SystemParams.w_hz
    a: float = SystemParams.a
    t1_frac: float = SystemParams.t1_frac
    m_sbs: int = SystemParams.m_sbs
    n_mbs: int = SystemParams.n_mbs
    isd_m: float = SystemParams.isd_m
    p_mbs_dbm: float = SystemParams.p_mbs_dbm
    p_sbs_dbm: float = SystemParams.p_sbs_dbm
    p_md_dbm: float = SystemParams.p_md_dbm
    noise_dbm_hz: float = SystemParams.noise_dbm_hz
    n_hrd: int = 20
    n_csd: int = 40
    n_files: int = _CATALOG["n_files"].default
    file_size_bytes: float = _CATALOG["file_size_bytes"].default
    requests_per_hrd: int = _DEMAND["requests_per_hrd"].default
    task_input_bytes: float = _DEMAND["task_input_bytes"].default
    task_cycles: float = _DEMAND["task_cycles"].default
    local_cps: float = _DEMAND["local_cps"].default
    edge_cps: float = _DEMAND["edge_cps"].default
    storage_bytes: float = _DEMAND["storage_bytes"].default
    cache_policy: str = _DEMAND["cache_policy"].default
    output: str = "sweep.csv"

    def validate(self) -> None:
        if self.axis not in SWEEP_AXES:
            raise ValueError(f"sweep axis must be one of {SWEEP_AXES}")
        if not self.grid:
            raise ValueError("sweep grid is empty")
        if not self.seeds:
            raise ValueError("need at least one seed")
        if not self.algorithms:
            raise ValueError("algorithms is empty: name ABCG, AMND or both")
        bad = [alg for alg in self.algorithms if alg not in ("ABCG", "AMND")]
        if bad:
            raise ValueError(f"unknown algorithms {bad}")
        check_fields(self)
        if self.axis in ("a", "t1_frac"):
            if any(not (0.0 < v < 1.0) for v in self.grid):
                raise ValueError(f"{self.axis} grid must lie strictly in (0, 1)")

    def scenario(self, seed: int) -> Scenario:
        """The deployment of ``seed`` at the base system parameters; each
        field of ``SystemParams`` is this config's field of its name."""
        params = {f.name: getattr(self, f.name) for f in fields(SystemParams)
                  if f.name != "seed"}
        return generate_scenario(SystemParams(**params, seed=seed),
                                 Counts(n_hrd=self.n_hrd, n_csd=self.n_csd))

    def demand(self, n_sbs: int, seed: int, delta: float) -> DemandProfile:
        """Requests, caches and tasks of ``seed`` at popularity ``delta``;
        each keyword of ``build_demand`` is this config's field of its name."""
        catalog = Catalog.build(self.n_files, delta, self.file_size_bytes)
        return build_demand(
            catalog, n_sbs, self.n_hrd, self.n_csd, demand_rng(seed, delta),
            **{name: getattr(self, name) for name, p in _DEMAND.items()
               if p.kind is p.KEYWORD_ONLY})


@dataclass
class SweepRow:
    """One sweep CSV row; its fields are the columns, in order and type."""

    axis: str
    axis_value: float
    delta: float
    seed: int
    algorithm: str
    F: float
    hrd_total_s: float
    hrd_backhaul_s: float
    csd_total_s: float
    csd_local_s: float
    csd_offload_s: float
    n_local_csd: int
    n_edge_csd: int
    n_backhauled_files: int
    accepted_moves: int


CSV_COLUMNS = tuple(f.name for f in fields(SweepRow))


def _row_from_state(axis, axis_value, delta, seed, algorithm,
                    state) -> SweepRow:
    rep = state.report()
    return SweepRow(
        axis=axis, axis_value=float(axis_value), delta=float(delta),
        seed=int(seed), algorithm=algorithm, F=rep.objective,
        accepted_moves=state.accepted_moves,
        **{f.name: getattr(rep, f.name) for f in fields(rep)
           if f.name in CSV_COLUMNS})


def run_sweep(config: ExperimentConfig, *,
              audit: bool = False) -> list[SweepRow]:
    """Run the whole sweep; deterministic given the config."""
    config.validate()
    rows: list[SweepRow] = []
    if config.axis == "delta":
        points = [(d, d) for d in config.grid]
    else:
        points = [(v, d) for v in config.grid for d in config.deltas]

    for seed in config.seeds:
        base = config.scenario(seed)
        demand_cache: dict[float, DemandProfile] = {}
        for axis_value, delta in points:
            if delta not in demand_cache:
                demand_cache[delta] = config.demand(base.n_sbs, seed, delta)
            demand = demand_cache[delta]
            if config.axis == "delta":
                scn = base
            else:
                scn = base.with_params(**{config.axis: float(axis_value)})
            state0 = abcg_init(scn, demand)
            if audit:
                _assert_clean(scn, demand, state0, "ABCG",
                              axis_value, delta, seed)
            if "ABCG" in config.algorithms:
                rows.append(_row_from_state(config.axis, axis_value, delta,
                                            seed, "ABCG", state0))
            if "AMND" in config.algorithms:
                final = run_amnd(scn, demand, init_state=state0)
                if audit:
                    _assert_clean(scn, demand, final, "AMND",
                                  axis_value, delta, seed)
                rows.append(_row_from_state(config.axis, axis_value, delta,
                                            seed, "AMND", final))
    rows.sort(key=lambda r: (r.axis_value, r.delta, r.seed, r.algorithm))
    return rows


def _assert_clean(scn, demand, state, algorithm, axis_value, delta, seed):
    bad = audit_constraints(scn, demand, state.partition, state.allocation,
                            state.table)
    if bad:
        raise RuntimeError(
            f"constraint violations in {algorithm} state at "
            f"axis={axis_value} delta={delta} seed={seed}: {bad[:3]}")


def emit_rate_csv(scenario, table, path) -> None:
    """Dump per-SBS share factors and per-link spectral efficiencies."""
    header = ["sbs", "s_dl_hz", "s_ul_hz", "s_bh_hz", "r_bh"]
    header += [f"r_dl_hrd{k}" for k in range(scenario.n_hrd)]
    header += [f"r_ul_csd{k}" for k in range(scenario.n_csd)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for n in range(scenario.n_sbs):
            cells = [str(n)] + [format(v, ".12g") for v in
                                (table.s_dl[n], table.s_ul[n], table.s_bh[n],
                                 table.r_bh[n])]
            cells += [format(v, ".12g") for v in table.r_dl[n]]
            cells += [format(v, ".12g") for v in table.r_ul[n]]
            fh.write(",".join(cells) + "\n")


def emit_csv(rows: list[SweepRow], path) -> None:
    """Write rows in the documented column order, floats at 12 significant
    digits, newline-terminated."""
    if not rows:
        raise ValueError("refusing to emit an empty sweep")
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        values = [f.type(getattr(row, f.name)) for f in fields(SweepRow)]
        lines.append(",".join(format(v, ".12g") if isinstance(v, float)
                              else str(v) for v in values))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_csv(path) -> list[SweepRow]:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        if tuple(header) != CSV_COLUMNS:
            raise ValueError(f"unexpected CSV header in {path}")
        rows = []
        for number, line in enumerate(fh, start=2):
            cells = line.strip().split(",")
            if cells == [""]:
                continue
            if len(cells) != len(CSV_COLUMNS):
                raise ValueError(f"{path} line {number}: {len(cells)} cells, "
                                 f"not {len(CSV_COLUMNS)}")
            try:
                values = [f.type(cell)
                          for f, cell in zip(fields(SweepRow), cells)]
            except ValueError as exc:
                raise ValueError(f"{path} line {number}: {exc}") from None
            rows.append(SweepRow(*values))
    return rows


@dataclass
class TrendResult:
    metric: str
    shape: str
    passed: bool
    detail: str
    axis_values: tuple
    series: tuple


def seed_average(rows, metric: str, *, algorithm: str = "AMND",
                 delta: float | None = None):
    """Seed-averaged metric per axis value (sorted)."""
    groups: dict[float, list[float]] = {}
    for row in rows:
        if row.algorithm != algorithm:
            continue
        if delta is not None and abs(row.delta - delta) > 1e-12:
            continue
        groups.setdefault(row.axis_value, []).append(getattr(row, metric))
    xs = sorted(groups)
    return np.array(xs), np.array([np.mean(groups[x]) for x in xs])


TREND_RHO_MIN = 0.8      # |Spearman rho| a monotone trend must reach
TREND_MIN_POINTS = 5     # grid points a trend check needs


def _average_ranks(v) -> np.ndarray:
    """Ranks 1..n of ``v``, tied values taking their average rank: one plus
    the count of smaller values plus half the count of other equal ones.
    A nan has no rank.  ``v`` has one value per grid point, so comparing
    every pair costs little."""
    v = np.asarray(v, dtype=float)
    below = (v[:, None] > v).sum(axis=1)
    tied = (v[:, None] == v).sum(axis=1)
    return np.where(np.isnan(v), np.nan, below + (tied + 1) / 2)


def spearman_rho(xs, ys) -> float:
    """Spearman's rank correlation (Am. J. Psychol. 15(1), 1904): Pearson's
    correlation of the two series' average ranks.  nan where a series has
    no spread or holds a nan."""
    rx, ry = _average_ranks(xs), _average_ranks(ys)
    rx, ry = rx - rx.mean(), ry - ry.mean()
    spread = math.sqrt((rx @ rx) * (ry @ ry))
    return float(rx @ ry / spread) if spread > 0 else math.nan


def trend_check(rows, metric: str, shape: str, *, algorithm: str = "AMND",
                delta: float | None = None) -> TrendResult:
    """Shape test on the seed-averaged metric along the sweep axis.

    Shapes: "u" needs an interior minimum strictly below both endpoints;
    "nonincreasing"/"nondecreasing" need a Spearman correlation
    (``spearman_rho``) of magnitude at least ``TREND_RHO_MIN`` with the
    matching sign; a flat series has none, and fails.  ``metric`` is a
    numeric CSV column.
    """
    if metric not in {f.name for f in fields(SweepRow) if f.type is not str}:
        raise ValueError(f"metric {metric!r} is not a numeric CSV column")
    xs, ys = seed_average(rows, metric, algorithm=algorithm, delta=delta)
    if xs.size < TREND_MIN_POINTS:
        raise ValueError(
            f"trend check needs at least {TREND_MIN_POINTS} grid points")
    if shape == "u":
        m = int(np.argmin(ys))
        passed = 0 < m < ys.size - 1 and ys[m] < ys[0] and ys[m] < ys[-1]
        detail = f"argmin at index {m}/{ys.size - 1}"
    elif shape in ("nonincreasing", "nondecreasing"):
        rho = spearman_rho(xs, ys)
        passed = (rho <= -TREND_RHO_MIN if shape == "nonincreasing"
                  else rho >= TREND_RHO_MIN)
        detail = f"spearman rho = {rho:.3f}"
    else:
        raise ValueError(f"unknown shape {shape!r}")
    return TrendResult(metric=metric, shape=shape, passed=bool(passed),
                       detail=detail, axis_values=tuple(xs), series=tuple(ys))


# ---------------------------------------------------------------------------
# Config file (versioned key = value text; field names match the dataclass).
# ---------------------------------------------------------------------------

def save_config(config: ExperimentConfig, path) -> None:
    lines = [_CONFIG_HEADER]
    for f in fields(ExperimentConfig):
        value = getattr(config, f.name)
        if isinstance(value, tuple):
            value = " ".join(str(v) for v in value)
        lines.append(f"{f.name} = {value}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_config(path) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != _CONFIG_HEADER:
            raise ValueError(f"not a config file (header {header!r})")
        overrides = {}
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"malformed config line: {line!r}")
            overrides[key.strip()] = value.strip()
    return config_with_overrides(ExperimentConfig(), overrides)


def config_with_overrides(config: ExperimentConfig,
                          overrides: dict) -> ExperimentConfig:
    """Apply string-valued overrides (config file or CLI) onto a config."""
    defaults = {f.name: f.default for f in fields(ExperimentConfig)}
    parsed = {}
    for key, raw in overrides.items():
        if key not in defaults:
            raise ValueError(f"unknown config field {key!r}")
        try:
            parsed[key] = _parse(raw, defaults[key])
        except ValueError as exc:
            raise ValueError(f"{key}: {exc}") from None
    return replace(config, **parsed)


def _parse(raw, default):
    """``raw`` as the type of ``default``, item by item for a tuple."""
    if isinstance(default, tuple):
        return tuple(type(default[0])(t)
                     for t in str(raw).replace(",", " ").split())
    return type(default)(raw)
