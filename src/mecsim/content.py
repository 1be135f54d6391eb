"""File popularity, per-device requests and per-SBS cache placement.

File popularity follows a Zipf law with exponent ``delta``; requests are
drawn per high-rate device proportionally to popularity, and each SBS cache
is filled either greedily by popularity ("popular_first") or by popularity-
weighted sampling ("sampled") up to its storage capacity.  ``demand_rng``
is the demand stream of a seed at one popularity exponent; the picks draw
from it exactly the doubles that the one-at-a-time ``rng.choice`` calls
would (``_distinct_draws``).  ``build_demand`` weights every device 1.
The demand block of a scenario file is written and read by
``scenario.save_scenario`` and ``load_scenario``."""

import bisect
import itertools
import math
from dataclasses import dataclass

import numpy as np

from ._kernels import BYTES_TOL
from .domains import check, check_fields

# Decimal unit convention used throughout (config values are bytes).
KB = 1e3
MB = 1e6
GB = 1e9

_SUM_ATOL = float(np.sqrt(np.finfo(float).eps))   # numpy's bound on |sum(p) - 1|


def zipf_popularity(n_files: int, delta: float) -> np.ndarray:
    """Normalized Zipf weights: p_i proportional to 1 / i**delta, i from 1."""
    check("n_files", n_files)
    check("delta", delta)
    weights = np.arange(1, n_files + 1, dtype=float) ** (-float(delta))
    return weights / weights.sum()


@dataclass(frozen=True)
class Catalog:
    """The file universe: count, common size in bytes, popularity law."""

    n_files: int
    file_size_bytes: float
    delta: float
    popularity: np.ndarray

    def __post_init__(self):
        check_fields(self)

    @classmethod
    def build(cls, n_files: int = 20, delta: float = 0.6,
              file_size_bytes: float = 5 * MB) -> "Catalog":
        return cls(n_files=n_files, file_size_bytes=float(file_size_bytes),
                   delta=float(delta),
                   popularity=zipf_popularity(n_files, delta))


def _distinct_draws(catalog: Catalog, sizes, rng: np.random.Generator,
                    need: str):
    """For each size in ``sizes``, in turn, the picks of
    ``rng.choice(n_files, size, replace=False, p=popularity)``.

    This is numpy's own without-replacement loop, run on Python floats:
    draw one double per missing pick, zero the weights of the files found,
    take the cumulative sum over its last entry, find each double's file by
    ``bisect_right`` (numpy's ``searchsorted(side='right')``), and keep the
    first pick of each file; repeat until ``size`` files are found.  A
    size's first round zeroes nothing, so its cumulative sum is built once
    per call and shared; only a later round rebuilds it.  Each round's
    doubles are read in one call, so the generator ends where the
    ``rng.choice`` calls leave it.  ``need`` names what the largest size
    counts in the error raised when fewer files than that have a nonzero
    popularity.
    """
    p = np.asarray(catalog.popularity, dtype=float)
    if sizes:
        # The checks ``rng.choice`` makes before it draws.
        if not np.all(p >= 0) or abs(p.sum() - 1.0) > _SUM_ATOL:
            raise ValueError("popularity is not a probability vector")
        nonzero = np.count_nonzero(p)
        if max(sizes) > nonzero:
            raise ValueError(
                f"delta={catalog.delta:g} leaves {nonzero} of the "
                f"{catalog.n_files} files a nonzero popularity, fewer than "
                f"the {max(sizes)} distinct {need}")
    weights = p.tolist()
    first = _normalized_cdf(weights)
    out = []
    for size in sizes:
        cdf, found = first, {}
        while len(found) < size:
            if found:
                w = list(weights)
                for f in found:
                    w[f] = 0.0
                cdf = _normalized_cdf(w)
            for x in rng.random(size - len(found)).tolist():
                found.setdefault(bisect.bisect_right(cdf, x))
        out.append(list(found))
    return out


def _normalized_cdf(weights):
    """numpy's ``cdf = cumsum(p); cdf /= cdf[-1]`` on Python floats."""
    cdf = list(itertools.accumulate(weights))
    last = cdf[-1]
    return [c / last for c in cdf]


def draw_requests(catalog: Catalog, n_hrd: int, requests_per_hrd: int,
                  rng: np.random.Generator) -> np.ndarray:
    """Binary request matrix (n_hrd, n_files); distinct files per device,
    sampled without replacement proportionally to popularity.

    The picks and the generator's end state are those of one
    ``rng.choice(n_files, requests_per_hrd, replace=False, p=popularity)``
    call per device.  One request each is one ``rng.choice`` call with
    replacement, which draws the same files from the same doubles; more
    are drawn by ``_distinct_draws``.
    """
    if requests_per_hrd < 1 or requests_per_hrd > catalog.n_files:
        raise ValueError("requests_per_hrd must be in [1, n_files]")
    req = np.zeros((n_hrd, catalog.n_files), dtype=np.int8)
    if requests_per_hrd == 1:
        picks = rng.choice(catalog.n_files, size=n_hrd, p=catalog.popularity)
        req[np.arange(n_hrd), picks] = 1
    else:
        picks = _distinct_draws(catalog, [requests_per_hrd] * n_hrd, rng,
                                "requests of requests_per_hrd")
        for k, files in enumerate(picks):
            req[k, files] = 1
    return req


def place_cache(catalog: Catalog, storage_bytes, policy: str = "popular_first",
                rng: np.random.Generator | None = None) -> np.ndarray:
    """Binary cache matrix (n_sbs, n_files) respecting per-SBS capacity.

    popular_first caches files in decreasing popularity (ties: lowest index)
    until the next file would not fit; sampled draws distinct files with
    popularity weights until the same capacity.  Sampled picks and the
    generator's end state are those of one ``rng.choice(n_files, slots,
    replace=False, p=popularity)`` call per SBS with room for a file, read
    through ``_distinct_draws``.
    """
    storage = np.atleast_1d(np.asarray(storage_bytes, dtype=float))
    check("storage_bytes", storage)
    cache = np.zeros((storage.size, catalog.n_files), dtype=np.int8)
    # A quotient that overflows is a file so small that every file fits.
    with np.errstate(over="ignore", invalid="ignore"):
        room = np.minimum(storage // catalog.file_size_bytes, catalog.n_files)
    rows, sizes = [], []
    for n, slots in enumerate(room.astype(int).tolist()):
        if slots > 0:
            rows.append(n)
            sizes.append(slots)
    if not rows:
        return cache
    if policy == "popular_first":
        by_pop = np.argsort(-catalog.popularity, kind="stable")
        picks = [by_pop[:slots] for slots in sizes]
    elif policy == "sampled":
        if rng is None:
            raise ValueError("sampled cache policy needs an rng")
        picks = _distinct_draws(catalog, sizes, rng,
                                "files of a sampled cache")
    else:
        raise ValueError(f"unknown cache policy {policy!r}")
    for n, files in zip(rows, picks):
        cache[n, files] = 1
    return cache


@dataclass(frozen=True)
class DemandProfile:
    """Frozen workload: requests, caches, task sizes and capabilities."""

    catalog: Catalog
    request: np.ndarray          # (n_hrd, n_files) 0/1
    cache: np.ndarray            # (n_sbs, n_files) 0/1
    task_input_bytes: np.ndarray  # (n_csd,)
    task_cycles: np.ndarray       # (n_csd,)
    local_cps: np.ndarray         # (n_csd,) device cycles per second
    edge_cps: np.ndarray          # (n_sbs,) edge-server cycles per second
    storage_bytes: np.ndarray     # (n_sbs,)
    hrd_weight: np.ndarray        # (n_hrd,)
    csd_weight: np.ndarray        # (n_csd,)

    @property
    def n_hrd(self) -> int:
        return self.request.shape[0]

    @property
    def n_csd(self) -> int:
        return self.task_input_bytes.shape[0]

    @property
    def n_sbs(self) -> int:
        return self.cache.shape[0]

    @property
    def cached_bytes(self) -> np.ndarray:
        return self.cache.sum(axis=1) * self.catalog.file_size_bytes

    def __post_init__(self):
        check_fields(self)

    def validate(self) -> None:
        """The rules that relate two fields."""
        with np.errstate(over="ignore"):
            cached = self.cached_bytes
        if np.any(cached > self.storage_bytes + BYTES_TOL):
            raise ValueError("cached files of file_size_bytes exceed "
                             "storage_bytes")
        if self.n_hrd and not np.all(self.request.sum(axis=1) >= 1):
            raise ValueError("every HRD must request at least one file")


def build_demand(catalog: Catalog, n_sbs: int, n_hrd: int, n_csd: int,
                 rng: np.random.Generator, *,
                 requests_per_hrd: int = 1,
                 task_input_bytes: float = 100 * KB,
                 task_cycles: float = 1e9,
                 local_cps: float = 1.4e9,
                 edge_cps: float = 6e10,
                 storage_bytes: float = 28 * MB,
                 cache_policy: str = "sampled") -> DemandProfile:
    """Assemble a demand profile, every device weighted 1; requests are
    drawn before cache placement so both consume the rng in a fixed
    order.

    The default workload is contended: storage of 28 MB per SBS, below the
    default catalog's 20 files of 5 MB, with caches sampled by popularity
    (5 files cached, with headroom for offloaded task inputs), so that
    cache hits and misses both show.  Set ``storage_bytes = 2 * GB`` and
    ``cache_policy = "popular_first"`` for an everything-cached workload.
    """
    request = draw_requests(catalog, n_hrd, requests_per_hrd, rng)
    storage = np.full(n_sbs, float(storage_bytes))
    cache = place_cache(catalog, storage, cache_policy, rng)
    profile = DemandProfile(
        catalog=catalog,
        request=request,
        cache=cache,
        task_input_bytes=np.full(n_csd, float(task_input_bytes)),
        task_cycles=np.full(n_csd, float(task_cycles)),
        local_cps=np.full(n_csd, float(local_cps)),
        edge_cps=np.full(n_sbs, float(edge_cps)),
        storage_bytes=storage,
        hrd_weight=np.ones(n_hrd),
        csd_weight=np.ones(n_csd),
    )
    profile.validate()
    return profile


def demand_rng(seed: int, delta: float) -> np.random.Generator:
    """Demand-only child stream of a scenario seed.

    Keyed by the popularity exponent, so sweeping delta redraws
    requests/caches without disturbing the deployment streams.
    """
    key = float(delta) * 1e9
    if not math.isfinite(key):
        raise ValueError(f"delta={delta} overflows the demand stream's key")
    return np.random.default_rng(np.random.SeedSequence([seed, 3, round(key)]))

