"""Seeded experiment sweeps, CSV emission and trend-shape checks.

A sweep walks one axis (band split ``a``, slot split ``t1_frac``, or the
popularity exponent ``delta``) over a grid, overlaying popularity exponents
and averaging over seeds.  Per seed the deployment is drawn once; only the
quantities that depend on the swept parameter are regenerated (rates for the
resource splits, requests/caches for delta).

The default workload is deliberately contended: storage below the catalog
size with popularity-sampled per-SBS caches (so cache-hit dynamics are
visible) and enough computation devices per SBS that edge-server sharing
stays binding across the grid.  Pass Table-style storage (2 GB) or smaller
device counts for uncontended workloads.
"""

import time
from dataclasses import dataclass, fields, replace

import numpy as np

from .association import abcg_init, run_amnd
from .content import Catalog, DemandProfile, build_demand, demand_rng
from .delays import audit_constraints
from .radio import build_rate_table
from .scenario import Counts, Scenario, SystemParams, generate_scenario

_CONFIG_HEADER = "mecsim-config v1"

CSV_COLUMNS = (
    "axis", "axis_value", "delta", "seed", "algorithm", "F",
    "hrd_total_s", "hrd_backhaul_s", "csd_total_s", "csd_local_s",
    "csd_offload_s", "n_local_csd", "n_edge_csd", "n_backhauled_files",
    "accepted_moves", "runtime_ms",
)

_INT_COLUMNS = {"seed", "n_local_csd", "n_edge_csd", "n_backhauled_files",
                "accepted_moves"}
_STR_COLUMNS = {"axis", "algorithm"}
_TYPES = tuple(str if col in _STR_COLUMNS else int if col in _INT_COLUMNS
               else float for col in CSV_COLUMNS)

SWEEP_AXES = ("a", "t1_frac", "delta")


@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep: base system + workload knobs, axis grid, seeds, algorithms."""

    axis: str = "a"
    grid: tuple = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
    deltas: tuple = (0.6, 1.0, 1.4)
    seeds: tuple = (1, 2, 3, 4, 5)
    algorithms: tuple = ("ABCG", "AMND")
    w_hz: float = 20e6
    a: float = 0.5
    t1_frac: float = 0.5
    m_sbs: int = 5
    n_mbs: int = 3
    isd_m: float = 1000.0
    p_mbs_dbm: float = 46.0
    p_sbs_dbm: float = 24.0
    p_md_dbm: float = 23.0
    noise_dbm_hz: float = -174.0
    n_hrd: int = 20
    n_csd: int = 40
    n_files: int = 20
    file_size_bytes: float = 5e6
    requests_per_hrd: int = 1
    task_input_bytes: float = 1e5
    task_cycles: float = 1e9
    local_cps: float = 1.4e9
    edge_cps: float = 6e10
    storage_bytes: float = 28e6
    cache_policy: str = "sampled"
    game_iters: int = 0          # 0 selects the built-in default
    patience: int = 0            # 0 selects the built-in default
    stabilize: bool = True
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
        if self.axis in ("a", "t1_frac"):
            if any(not (0.0 < v < 1.0) for v in self.grid):
                raise ValueError(f"{self.axis} grid must lie strictly in (0, 1)")
        else:
            if any(v < 0 for v in self.grid):
                raise ValueError("delta grid must be nonnegative")
        for name in ("game_iters", "patience"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be at least 0 (0 = default)")

    def system_params(self, seed: int, axis_value: float | None = None) -> SystemParams:
        a, t1 = self.a, self.t1_frac
        if axis_value is not None and self.axis == "a":
            a = axis_value
        elif axis_value is not None and self.axis == "t1_frac":
            t1 = axis_value
        return SystemParams(
            w_hz=self.w_hz, a=a, t1_frac=t1, m_sbs=self.m_sbs,
            n_mbs=self.n_mbs, isd_m=self.isd_m, p_mbs_dbm=self.p_mbs_dbm,
            p_sbs_dbm=self.p_sbs_dbm, p_md_dbm=self.p_md_dbm,
            noise_dbm_hz=self.noise_dbm_hz, seed=seed)

    def scenario(self, seed: int) -> Scenario:
        """The deployment of ``seed`` at the base system parameters."""
        return generate_scenario(self.system_params(seed),
                                 Counts(n_hrd=self.n_hrd, n_csd=self.n_csd))

    def demand(self, n_sbs: int, seed: int, delta: float) -> DemandProfile:
        """Requests, caches and tasks of ``seed`` at popularity ``delta``."""
        catalog = Catalog.build(self.n_files, delta, self.file_size_bytes)
        return build_demand(
            catalog, n_sbs, self.n_hrd, self.n_csd, demand_rng(seed, delta),
            requests_per_hrd=self.requests_per_hrd,
            task_input_bytes=self.task_input_bytes,
            task_cycles=self.task_cycles, local_cps=self.local_cps,
            edge_cps=self.edge_cps, storage_bytes=self.storage_bytes,
            cache_policy=self.cache_policy)


@dataclass
class SweepRow:
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
    runtime_ms: float
    n_cached_hits: int = 0    # carried for analysis; not a CSV column


def _row_from_state(cfg, axis_value, delta, seed, algorithm, state,
                    runtime_ms) -> SweepRow:
    rep = state.report()
    return SweepRow(
        axis=cfg.axis, axis_value=float(axis_value), delta=float(delta),
        seed=int(seed), algorithm=algorithm, F=rep.objective,
        hrd_total_s=rep.hrd_total_s, hrd_backhaul_s=rep.hrd_backhaul_s,
        csd_total_s=rep.csd_total_s, csd_local_s=rep.csd_local_s,
        csd_offload_s=rep.csd_offload_s, n_local_csd=rep.n_local_csd,
        n_edge_csd=rep.n_edge_csd, n_backhauled_files=rep.n_backhauled_files,
        accepted_moves=state.accepted_moves, runtime_ms=float(runtime_ms),
        n_cached_hits=rep.n_cached_hits)


def run_sweep(config: ExperimentConfig, *, audit: bool = False,
              timing: bool = False) -> list[SweepRow]:
    """Run the whole sweep; deterministic given the config (runtimes are
    emitted as 0 unless ``timing`` is set, keeping the CSV byte-stable)."""
    config.validate()
    t2, patience = config.game_iters or None, config.patience or None
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
            table = build_rate_table(scn)

            t0 = time.perf_counter()
            state0 = abcg_init(scn, demand, table=table)
            dt0 = (time.perf_counter() - t0) * 1e3 if timing else 0.0
            if audit:
                _assert_clean(scn, demand, state0, "ABCG",
                              axis_value, delta, seed)
            if "ABCG" in config.algorithms:
                rows.append(_row_from_state(config, axis_value, delta, seed,
                                            "ABCG", state0, dt0))
            if "AMND" in config.algorithms:
                t0 = time.perf_counter()
                final = run_amnd(scn, demand, t2=t2, patience=patience,
                                 stabilize=config.stabilize, init_state=state0)
                dt1 = (time.perf_counter() - t0) * 1e3 + dt0 if timing else 0.0
                if audit:
                    _assert_clean(scn, demand, final, "AMND",
                                  axis_value, delta, seed)
                rows.append(_row_from_state(config, axis_value, delta, seed,
                                            "AMND", final, dt1))
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
        cells = []
        for col in CSV_COLUMNS:
            value = getattr(row, col)
            if col in _STR_COLUMNS:
                cells.append(str(value))
            elif col in _INT_COLUMNS:
                cells.append(str(int(value)))
            else:
                cells.append(format(float(value), ".12g"))
        lines.append(",".join(cells))
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
                values = [kind(cell) for kind, cell in zip(_TYPES, cells)]
            except ValueError as exc:
                raise ValueError(f"{path} line {number}: {exc}") from None
            rows.append(SweepRow(**dict(zip(CSV_COLUMNS, values))))
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


def trend_check(rows, metric: str, shape: str, *, algorithm: str = "AMND",
                delta: float | None = None) -> TrendResult:
    """Shape test on the seed-averaged metric along the sweep axis.

    Shapes: "u" needs an interior minimum strictly below both endpoints;
    "nonincreasing"/"nondecreasing" need a Spearman correlation of magnitude
    at least ``TREND_RHO_MIN`` with the matching sign.  ``metric`` is a
    numeric CSV column.
    """
    if metric not in CSV_COLUMNS or metric in _STR_COLUMNS:
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
        # Imported here: scipy.stats takes most of ``import mecsim``'s time.
        from scipy import stats
        rho = float(stats.spearmanr(xs, ys).statistic)
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

_TUPLE_FLOAT = {"grid", "deltas"}
_TUPLE_INT = {"seeds"}
_TUPLE_STR = {"algorithms"}
_BOOL = {"stabilize"}
_TRUE, _FALSE = ("1", "true", "yes", "on"), ("0", "false", "no", "off")


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
    valid = {f.name: f.type for f in fields(ExperimentConfig)}
    parsed = {}
    for key, raw in overrides.items():
        if key not in valid:
            raise ValueError(f"unknown config field {key!r}")
        if key in _TUPLE_FLOAT:
            parsed[key] = tuple(float(t) for t in str(raw).replace(",", " ").split())
        elif key in _TUPLE_INT:
            parsed[key] = tuple(int(t) for t in str(raw).replace(",", " ").split())
        elif key in _TUPLE_STR:
            parsed[key] = tuple(str(raw).replace(",", " ").split())
        elif key in _BOOL:
            word = str(raw).strip().lower()
            if word not in _TRUE + _FALSE:
                raise ValueError(f"{key} takes {'/'.join(_TRUE + _FALSE)}, "
                                 f"not {raw!r}")
            parsed[key] = word in _TRUE
        else:
            current = getattr(config, key)
            parsed[key] = type(current)(raw) if not isinstance(current, str) else str(raw)
    return replace(config, **parsed)
