"""Reproducible network deployments and quasi-static channel snapshots.

A scenario is one frozen draw of an urban small-cell layout: macro base
stations (MBS) on a hexagonal lattice, small base stations (SBS) and the two
mobile-device classes dropped uniformly into discs around each MBS.  Channel
gains combine distance pathloss, a line-of-sight draw and lognormal
shadowing, all drawn once and frozen (the coherence-block assumption).

Two device classes exist throughout the package:

* HRD, high-rate devices, download files from SBS caches or over the SBS's
  wireless backhaul to its nearest MBS;
* CSD, computation-sensitive devices, offload a task to an SBS edge server
  or execute it locally.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .domains import check, check_fields

MIN_PATHLOSS_DISTANCE_M = 1.0   # pathloss curves are clamped below this
_COLLOCATION_EPS_M = 1e-9
_MAX_PLACEMENT_RETRIES = 100
_SCENARIO_HEADER = "mecsim-scenario v1"


@dataclass(frozen=True)
class SystemParams:
    """Radio and deployment constants shared by every link in a scenario."""

    w_hz: float = 20e6          # system bandwidth
    a: float = 0.5              # band share of access links (1-a for backhaul)
    t1_frac: float = 0.5        # uplink share of the coherence block
    m_sbs: int = 5              # SBS count per macrocell
    n_mbs: int = 3
    isd_m: float = 1000.0       # inter-site distance between MBSs
    p_mbs_dbm: float = 46.0
    p_sbs_dbm: float = 24.0
    p_md_dbm: float = 23.0
    noise_dbm_hz: float = -174.0
    seed: int = 0

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class Counts:
    """Device counts for one deployment; the SBS count is params.m_sbs."""

    n_hrd: int
    n_csd: int

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class LinkModel:
    """Pathloss + LOS-probability + shadowing description of one link class.

    ``los_form`` selects the LOS-probability curve: "macro" is the
    exponential-decay form with scale ``los_scale_m``; "micro" is the
    street-canyon form used for SBS-to-device links.
    """

    los_a: float
    los_b: float
    nlos_a: float
    nlos_b: float
    los_form: str
    los_scale_m: float
    shadow_sd_los_db: float
    shadow_sd_nlos_db: float


# The model's two link classes: SBSs serve the devices, and each SBS is
# backhauled by its nearest MBS.
MBS_SBS = LinkModel(30.2, 23.5, 16.3, 36.3, "macro", 72.0, 6.0, 6.0)
SBS_MD = LinkModel(41.1, 20.9, 32.9, 37.5, "micro", 0.0, 6.0, 4.0)


def pathloss_db(model: LinkModel, d_m, los):
    """Distance pathloss in dB; distances below 1 m are clamped to 1 m."""
    d = np.maximum(np.asarray(d_m, dtype=float), MIN_PATHLOSS_DISTANCE_M)
    logd = np.log10(d)
    pl = np.where(los, model.los_a + model.los_b * logd,
                  model.nlos_a + model.nlos_b * logd)
    return pl if pl.ndim else float(pl)


def los_probability(model: LinkModel, d_m):
    """Probability that a link of length d_m is line-of-sight, in [0, 1]."""
    d = np.asarray(d_m, dtype=float)
    if np.any(d <= 0):
        raise ValueError("LOS probability needs a positive distance")
    if model.los_form == "macro":
        decay = np.exp(-d / model.los_scale_m)
        p = (1.0 - decay) * np.minimum(18.0 / d, 1.0) + decay
    elif model.los_form == "micro":
        p = (0.5 - np.minimum(0.5, 5.0 * np.exp(-156.0 / d))
             + np.minimum(0.5, 5.0 * np.exp(-d / 30.0)))
    else:
        raise ValueError(f"unknown LOS form {model.los_form!r}")
    return p if p.ndim else float(p)


def channel_gain(model: LinkModel, d_m, los_uniform, shadow_normal):
    """Linear channel gain from one LOS uniform and one standard-normal draw.

    The link is LOS iff ``los_uniform < los_probability(d)``; the shadowing
    draw is scaled by the class's (LOS- or NLOS-specific) standard deviation.
    """
    d = np.asarray(d_m, dtype=float)
    los = np.asarray(los_uniform, dtype=float) < los_probability(model, d)
    sd = np.where(los, model.shadow_sd_los_db, model.shadow_sd_nlos_db)
    pl = pathloss_db(model, d, los) + np.asarray(shadow_normal, dtype=float) * sd
    gain = 10.0 ** (-pl / 10.0)
    return gain if np.ndim(gain) else float(gain)


def dbm_to_mw(dbm: float) -> float:
    return 10.0 ** (dbm / 10.0)


@dataclass(frozen=True)
class Scenario:
    """Immutable deployment + channel snapshot; safe to share read-only."""

    params: SystemParams
    mbs_pos: np.ndarray        # (n_mbs, 2) m
    sbs_pos: np.ndarray        # (n_sbs, 2)
    sbs_cell: np.ndarray       # (n_sbs,) generating macrocell index
    hrd_pos: np.ndarray
    hrd_cell: np.ndarray
    csd_pos: np.ndarray
    csd_cell: np.ndarray
    gain_sbs_hrd: np.ndarray   # (n_sbs, n_hrd) linear
    gain_sbs_csd: np.ndarray   # (n_sbs, n_csd)
    gain_mbs_sbs: np.ndarray   # (n_sbs,) gain to the backhaul MBS
    backhaul_mbs: np.ndarray   # (n_sbs,) nearest MBS per SBS

    @property
    def n_mbs(self) -> int:
        return self.mbs_pos.shape[0]

    @property
    def n_sbs(self) -> int:
        return self.sbs_pos.shape[0]

    @property
    def n_hrd(self) -> int:
        return self.hrd_pos.shape[0]

    @property
    def n_csd(self) -> int:
        return self.csd_pos.shape[0]

    def with_params(self, **changes) -> "Scenario":
        """Copy with replaced SystemParams fields.

        Gains depend only on geometry and the frozen LOS/shadowing draws, so
        resource-split fields (a, t1_frac) can be swept without redrawing.
        """
        for key in changes:
            if key in ("m_sbs", "n_mbs", "isd_m", "seed"):
                raise ValueError(f"{key} is baked into the deployment; regenerate")
        return replace(self, params=replace(self.params, **changes))


def rng_streams(seed: int):
    """Independent child generators: deployment, shadowing, LOS.  Demand
    draws have their own stream (``content.demand_rng``)."""
    return tuple(np.random.default_rng(child)
                 for child in np.random.SeedSequence(seed).spawn(3))


def hex_lattice(n: int, isd_m: float) -> np.ndarray:
    """First n sites of a hexagonal lattice with spacing isd_m around origin."""
    if n < 1:
        raise ValueError("need at least one lattice site")
    radius = 1
    while 1 + 3 * radius * (radius + 1) < n:
        radius += 1
    cells = []
    for q in range(-radius, radius + 1):
        for r in range(-radius, radius + 1):
            dist = (abs(q) + abs(r) + abs(q + r)) / 2
            if dist > radius:
                continue
            x = isd_m * (q + r / 2.0)
            y = isd_m * (r * math.sqrt(3.0) / 2.0)
            ang = math.atan2(y, x) % (2.0 * math.pi) if (q or r) else 0.0
            cells.append((dist, ang, q, r, x, y))
    cells.sort()
    return np.array([[c[4], c[5]] for c in cells[:n]], dtype=float)


class ReadAhead:
    """A generator's stream of ``rng.random()`` doubles, read ahead in
    batches, for the placement and demand draws, so that many draws cost
    one numpy call.

    ``window(k)`` returns the next ``k`` unread entries without consuming
    them, reading a batch at least as long as the buffer when it runs
    short, and ``skip(k)`` consumes them.  A batch of ``k`` makes the same
    draws as ``k`` single draws, so ``release`` puts the generator exactly
    where the consumed entries leave it: back at the start, then past as
    many entries as were consumed (nothing to do when every entry read was
    consumed).  What a caller draws through it, and the generator's end
    state, are therefore those of drawing one entry at a time, which the
    tests keep as the reference.
    """

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.start = rng.bit_generator.state
        self.buf = rng.random(0)
        self.pos = 0       # next unread entry of buf
        self.base = 0      # entries consumed before buf[0]

    def window(self, k: int) -> np.ndarray:
        missing = self.pos + k - len(self.buf)
        if missing > 0:
            # Read at least as much again; keep only the unread entries.
            more = self.rng.random(max(missing, len(self.buf)))
            self.base += self.pos
            self.buf = np.concatenate((self.buf[self.pos:], more))
            self.pos = 0
        return self.buf[self.pos:self.pos + k]

    def skip(self, k: int) -> None:
        self.pos += k

    def release(self) -> None:
        if self.pos < len(self.buf):
            self.rng.bit_generator.state = self.start
            self.rng.random(self.base + self.pos)


def _first_collocation(xy: np.ndarray, first: int):
    """The index of the first point of ``xy`` from ``first`` on that lies
    within ``_COLLOCATION_EPS_M`` of an earlier point, or None.

    One matrix of squared distances screens every pair; ``math.hypot``
    decides each pair closer than twice the threshold, so every pair is
    judged exactly as a per-point ``math.hypot`` check judges it.
    """
    eps = _COLLOCATION_EPS_M
    dx = xy[first:, 0, None] - xy[None, :-1, 0]
    dy = xy[first:, 1, None] - xy[None, :-1, 1]
    near = ~(dx * dx + dy * dy > 4.0 * eps * eps)
    near &= np.arange(len(xy) - 1) < np.arange(first, len(xy))[:, None]
    for i, j in zip(*np.nonzero(near)):
        if not math.hypot(dx[i, j], dy[i, j]) > eps:
            return first + int(i)
    return None


def _drop_nodes(rng, centers: np.ndarray, radius: float,
                fixed: np.ndarray) -> np.ndarray:
    """One uniform point in the disc of ``radius`` around each row of
    ``centers``, none collocated with ``fixed`` or with an earlier point.

    Each point takes two draws of ``rng.random()``, for its radius and its
    angle, and a collocated point is redrawn from the next two, up to
    ``_MAX_PLACEMENT_RETRIES`` times.  The draws of all points are read at
    once (``ReadAhead``) and one distance matrix screens them; from a
    collocated point on, the later points are laid out again on the draws
    that follow its rejected pair.  The points and the generator's end state
    are therefore those of placing and checking one point at a time.
    Positions use ``math.cos``/``math.sin``, whose results numpy's may
    miss by an ulp.
    """
    n, n_fixed = len(centers), len(fixed)
    xy = np.concatenate((fixed, np.empty((n, 2))))
    draws = ReadAhead(rng)
    t = rejected = 0
    while t < n:
        u = draws.window(2 * (n - t))
        r = radius * np.sqrt(u[0::2])
        ang = (2.0 * math.pi * u[1::2]).tolist()
        xy[n_fixed + t:, 0] = centers[t:, 0] + r * np.array(
            [math.cos(a) for a in ang])
        xy[n_fixed + t:, 1] = centers[t:, 1] + r * np.array(
            [math.sin(a) for a in ang])
        bad = _first_collocation(xy, n_fixed + t)
        if bad is None:
            draws.skip(u.size)
            break
        bad -= n_fixed
        draws.skip(2 * (bad - t) + 2)
        rejected = rejected + 1 if bad == t else 1
        if rejected == _MAX_PLACEMENT_RETRIES:
            draws.release()
            raise RuntimeError(
                f"could not place a node without collocation after "
                f"{_MAX_PLACEMENT_RETRIES} tries")
        t = bad
    draws.release()
    return xy[n_fixed:]


def generate_scenario(params: SystemParams, counts: Counts) -> Scenario:
    """Draw one deployment and its frozen channel gains.

    MBSs sit on a hexagonal lattice with spacing ``isd_m``; ``m_sbs`` SBSs
    per macrocell and the devices are uniform in discs of radius ``isd_m/2``
    around each MBS, with devices spread over macrocells round-robin.  The
    whole draw is a pure function of (params, counts).

    Nodes are placed in a fixed order, SBSs cell by cell, then HRDs, then
    CSDs, each resampled while it is collocated with an MBS or an earlier
    node.  The deployment stream's draws are read in one batch
    (``_drop_nodes``) and consumed exactly as placing one node at a time
    would consume them.  The gains must lie in the domain that
    ``load_scenario`` applies, or ValueError names the gain and ``isd_m``.
    """
    radius = params.isd_m / 2.0

    rng_dep, rng_shadow, rng_los = rng_streams(params.seed)
    mbs_pos = hex_lattice(params.n_mbs, params.isd_m)
    sbs_cell = np.repeat(np.arange(params.n_mbs, dtype=np.int64), params.m_sbs)
    hrd_cell = np.arange(counts.n_hrd, dtype=np.int64) % params.n_mbs
    csd_cell = np.arange(counts.n_csd, dtype=np.int64) % params.n_mbs
    cells = np.concatenate((sbs_cell, hrd_cell, csd_cell))
    pos = _drop_nodes(rng_dep, mbs_pos[cells], radius, mbs_pos)
    n_sbs = len(sbs_cell)
    sbs_pos = pos[:n_sbs]
    hrd_pos = pos[n_sbs:n_sbs + counts.n_hrd]
    csd_pos = pos[n_sbs + counts.n_hrd:]

    def pair_dist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)

    # Draw order is fixed (SBS-HRD, SBS-CSD, MBS-SBS) per stream so that a
    # scenario is reproducible from the seed alone.
    d_sh = pair_dist(sbs_pos, hrd_pos)
    gain_sbs_hrd = channel_gain(SBS_MD, d_sh,
                                rng_los.random(d_sh.shape),
                                rng_shadow.standard_normal(d_sh.shape))
    d_sc = pair_dist(sbs_pos, csd_pos)
    gain_sbs_csd = channel_gain(SBS_MD, d_sc,
                                rng_los.random(d_sc.shape),
                                rng_shadow.standard_normal(d_sc.shape))
    d_ms = pair_dist(mbs_pos, sbs_pos)          # (n_mbs, n_sbs)
    backhaul_mbs = np.argmin(d_ms, axis=0).astype(np.int64)
    d_bh = d_ms[backhaul_mbs, np.arange(len(sbs_pos))]
    gain_mbs_sbs = channel_gain(MBS_SBS, d_bh,
                                rng_los.random(len(sbs_pos)),
                                rng_shadow.standard_normal(len(sbs_pos)))

    scenario = Scenario(
        params=params, mbs_pos=mbs_pos,
        sbs_pos=sbs_pos, sbs_cell=sbs_cell,
        hrd_pos=hrd_pos, hrd_cell=hrd_cell,
        csd_pos=csd_pos, csd_cell=csd_cell,
        gain_sbs_hrd=np.asarray(gain_sbs_hrd, dtype=float).reshape(d_sh.shape),
        gain_sbs_csd=np.asarray(gain_sbs_csd, dtype=float).reshape(d_sc.shape),
        gain_mbs_sbs=np.asarray(gain_mbs_sbs, dtype=float).reshape(-1),
        backhaul_mbs=backhaul_mbs,
    )
    for name in ("gain_sbs_hrd", "gain_sbs_csd", "gain_mbs_sbs"):
        try:
            check(name, getattr(scenario, name))
        except ValueError as exc:
            raise ValueError(f"{exc}: its pathloss underflows at isd_m = "
                             f"{params.isd_m:g} m") from None
    return scenario


# ---------------------------------------------------------------------------
# Versioned text serialization (17 significant digits, row-major matrices).
# ---------------------------------------------------------------------------

# Keys of the [params] and [catalog] sections, in file order, with types.
_PARAMS = tuple((key, float) for key in (
    "w_hz", "a", "t1_frac", "isd_m", "p_mbs_dbm", "p_sbs_dbm", "p_md_dbm",
    "noise_dbm_hz")) + (("m_sbs", int), ("n_mbs", int), ("seed", int))
_CATALOG = (("n_files", int), ("file_size_bytes", float), ("delta", float))

# The array sections, in file order: name, element type and shape.  A
# named dimension counts the rows of a position section ("mbs", "sbs",
# "hrd", "csd"), which the first section holding it fixes, or the files
# of [catalog] ("files").  A matrix takes one line per row, a vector one.
_SCENARIO_ARRAYS = (
    ("mbs_pos", float, ("mbs", 2)),
    ("sbs_pos", float, ("sbs", 2)),
    ("sbs_cell", np.int64, ("sbs",)),
    ("backhaul_mbs", np.int64, ("sbs",)),
    ("hrd_pos", float, ("hrd", 2)),
    ("hrd_cell", np.int64, ("hrd",)),
    ("csd_pos", float, ("csd", 2)),
    ("csd_cell", np.int64, ("csd",)),
    ("gain_sbs_hrd", float, ("sbs", "hrd")),
    ("gain_sbs_csd", float, ("sbs", "csd")),
    ("gain_mbs_sbs", float, ("sbs",)),
)
# The demand block's, after a [demand] line and its [catalog].
_DEMAND_ARRAYS = (
    ("popularity", float, ("files",)),
    ("requests", np.int8, ("hrd", "files")),
    ("cache", np.int8, ("sbs", "files")),
    ("task_input_bytes", float, ("csd",)),
    ("task_cycles", float, ("csd",)),
    ("local_cps", float, ("csd",)),
    ("edge_cps", float, ("sbs",)),
    ("storage_bytes", float, ("sbs",)),
    ("hrd_weight", float, ("hrd",)),
    ("csd_weight", float, ("csd",)),
)
# The integer sections whose entries lie in [0, bound): MBS indices, whose
# bound is the number of MBS positions, and 0/1 flags.
_VALUE_BOUNDS = {"sbs_cell": "mbs", "backhaul_mbs": "mbs", "hrd_cell": "mbs",
                 "csd_cell": "mbs", "requests": 2, "cache": 2}


def _text(kind, value) -> str:
    return format(float(value), ".17g") if kind is float else str(int(value))


def _write_keys(lines, name, keys, obj):
    lines.append(f"[{name}]")
    lines.extend(f"{key} = {_text(kind, getattr(obj, key))}"
                 for key, kind in keys)


def _write_arrays(lines, table, arrays):
    for name, kind, _ in table:
        lines.append(f"[{name}]")
        for row in np.atleast_2d(np.asarray(arrays[name], kind)).tolist():
            lines.append(" ".join([_text(kind, v) for v in row]))


def save_scenario(path, scenario: Scenario, demand) -> None:
    """Write a scenario and its demand profile to a text file."""
    lines = [_SCENARIO_HEADER]
    _write_keys(lines, "params", _PARAMS, scenario.params)
    _write_arrays(lines, _SCENARIO_ARRAYS, vars(scenario))
    lines.append("[demand]")
    _write_keys(lines, "catalog", _CATALOG, demand.catalog)
    _write_arrays(lines, _DEMAND_ARRAYS, dict(
        vars(demand), popularity=demand.catalog.popularity,
        requests=demand.request))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _parse_sections(text: str):
    """The non-blank lines of each section, by section name."""
    header, *rest = text.splitlines() or [""]
    if header.strip() != _SCENARIO_HEADER:
        raise ValueError(f"not a scenario file (header {header!r})")
    sections, current = {}, None
    for line in filter(None, map(str.strip, rest)):
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1]
            if current in sections:
                raise ValueError(f"section [{current}] appears twice")
            sections[current] = []
        elif current is None:
            raise ValueError(f"content before first section: {line!r}")
        else:
            sections[current].append(line)
    return sections


def _lines(sections, name):
    if name not in sections:
        raise ValueError(f"scenario file lacks the section [{name}]")
    return sections[name]


def _read_keys(sections, name, keys) -> dict:
    """The ``key = value`` lines of section ``name``, typed as ``keys``."""
    found = {key.strip(): value.strip() for key, _, value in
             (line.partition("=") for line in _lines(sections, name))}
    try:
        return {key: kind(found[key]) for key, kind in keys}
    except KeyError as exc:
        raise ValueError(f"section [{name}] lacks the key {exc}") from None
    except ValueError as exc:
        raise ValueError(f"section [{name}]: {exc}") from None


def _read_arrays(sections, table, sizes: dict) -> dict:
    """Each array section of ``table``, read row by row and checked against
    its shape; a named dimension missing from ``sizes`` is set there to the
    section's row count."""
    out = {}
    for name, kind, shape in table:
        rows = [line.split() for line in _lines(sections, name)]
        dims = tuple(sizes.setdefault(d, len(rows)) if isinstance(d, str)
                     else d for d in shape)
        n_rows, width = dims if len(dims) == 2 else (1, dims[0])
        # A row of no values is a blank line, which the parser drops.
        if [len(row) for row in rows] != [width] * (n_rows if width else 0):
            raise ValueError(
                f"section [{name}] is not {n_rows} row(s) of {width} values")
        parse = float if kind is float else int
        try:
            out[name] = np.array([[parse(tok) for tok in row] for row in rows],
                                 dtype=kind).reshape(dims)
        except (ValueError, OverflowError) as exc:
            raise ValueError(f"section [{name}]: {exc}") from None
        if name in _VALUE_BOUNDS:
            bound = _VALUE_BOUNDS[name]
            bound = sizes[bound] if isinstance(bound, str) else bound
            if not np.all((out[name] >= 0) & (out[name] < bound)):
                raise ValueError(f"section [{name}] has entries outside "
                                 f"[0, {bound})")
    return out


def load_scenario(path):
    """Read a scenario file; returns (scenario, demand).  A missing
    section or key (the ``[demand]`` line that opens the demand block
    included), a section off its table shape, an MBS index or 0/1 flag out
    of range, or a value outside its domain (``domains.DOMAINS``:
    positions finite, gains finite and positive) raises ValueError."""
    with open(path, encoding="utf-8") as fh:
        sections = _parse_sections(fh.read())
    sizes = {}
    params = SystemParams(**_read_keys(sections, "params", _PARAMS))
    scenario = Scenario(params=params,
                        **_read_arrays(sections, _SCENARIO_ARRAYS, sizes))
    check_fields(scenario)
    _lines(sections, "demand")
    from .content import Catalog, DemandProfile
    keys = _read_keys(sections, "catalog", _CATALOG)
    sizes["files"] = keys["n_files"]
    arrays = _read_arrays(sections, _DEMAND_ARRAYS, sizes)
    demand = DemandProfile(
        catalog=Catalog(**keys, popularity=arrays.pop("popularity")),
        request=arrays.pop("requests"), **arrays)
    demand.validate()
    return scenario, demand
