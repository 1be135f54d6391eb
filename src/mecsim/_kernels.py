"""Per-coalition evaluation kernels, the hot inner loop of the association game.

Two interchangeable implementations live here: loop kernels compiled with
numba's @njit (default) and a vectorized pure-numpy fallback.  Set
``MECSIM_NO_NUMBA=1`` in the environment to force the numpy path; without
numba installed the numpy path is the only one.  ``hrd_value``, ``hrd_alloc``,
``csd_value`` and ``csd_alloc`` are the active bindings.

Conventions shared by all kernels:

* ``members`` is an int64 array of device indices forming one coalition.
* HRD coalitions are described by flattened request pairs: device ``k`` owns
  pairs ``pair_off[k] .. pair_off[k]+pair_cnt[k]``.
* ``sqrt_dl``/``sqrt_bh``/``sqrt_ul``/``sqrt_ed`` are square roots of the
  full-fraction weighted delays (delay a device-file or device would incur if
  granted the whole resource block), indexed ``[sbs, pair]`` or ``[sbs, dev]``.
* The returned value is the coalition's total weighted delay under the
  closed-form square-root allocation; ``feasible`` reports whether that
  allocation respects the per-cell budgets and the backhaul fraction floor.
"""

import os

import numpy as np

FEAS_TOL = 1e-9        # slack on per-SBS fraction budget sums
BYTES_TOL = 1e-6       # slack on storage bookkeeping (bytes)
IDLE_FRAC = 1e-8       # placeholder fraction for entries outside the association


def _truthy(value: str) -> bool:
    return value.strip().lower() in {"1", "true", "yes", "on"}


# ---------------------------------------------------------------------------
# Loop implementations (numba-compilable source).
# ---------------------------------------------------------------------------

def _hrd_value_loop(n, members, pair_off, pair_cnt, sqrt_dl, sqrt_bh, cached,
                    eta_min):
    s_dl = 0.0
    s_bh = 0.0
    ok = True
    for m in members:
        lo = pair_off[m]
        hi = lo + pair_cnt[m]
        for p in range(lo, hi):
            s_dl += sqrt_dl[n, p]
            if not cached[n, p]:
                if eta_min[n, m] > 1.0:
                    ok = False
                s_bh += sqrt_bh[n, p]
    value = s_dl * s_dl
    if s_bh > 0.0:
        sum_eta = 0.0
        v_bh = 0.0
        for m in members:
            lo = pair_off[m]
            hi = lo + pair_cnt[m]
            floor = eta_min[n, m]
            for p in range(lo, hi):
                if not cached[n, p]:
                    eta = sqrt_bh[n, p] / s_bh
                    if eta < floor:
                        eta = floor
                    if eta > 1.0:
                        eta = 1.0
                    sum_eta += eta
                    v_bh += sqrt_bh[n, p] * sqrt_bh[n, p] / eta
        if sum_eta > 1.0 + FEAS_TOL:
            ok = False
        value += v_bh
    return value, ok


def _hrd_alloc_loop(n, members, pair_off, pair_cnt, pair_flat, sqrt_dl,
                    sqrt_bh, cached, eta_min, beta_row, eta_row):
    s_dl = 0.0
    s_bh = 0.0
    ok = True
    for m in members:
        lo = pair_off[m]
        hi = lo + pair_cnt[m]
        for p in range(lo, hi):
            s_dl += sqrt_dl[n, p]
            if not cached[n, p]:
                if eta_min[n, m] > 1.0:
                    ok = False
                s_bh += sqrt_bh[n, p]
    value = s_dl * s_dl
    sum_eta = 0.0
    v_bh = 0.0
    for m in members:
        lo = pair_off[m]
        hi = lo + pair_cnt[m]
        floor = eta_min[n, m]
        for p in range(lo, hi):
            beta = sqrt_dl[n, p] / s_dl
            if beta > 1.0:
                beta = 1.0
            beta_row[pair_flat[p]] = beta
            if not cached[n, p]:
                eta = sqrt_bh[n, p] / s_bh
                if eta < floor:
                    eta = floor
                if eta > 1.0:
                    eta = 1.0
                eta_row[pair_flat[p]] = eta
                sum_eta += eta
                v_bh += sqrt_bh[n, p] * sqrt_bh[n, p] / eta
    if sum_eta > 1.0 + FEAS_TOL:
        ok = False
    value += v_bh
    return value, ok


def _csd_value_loop(n, members, sqrt_ul, sqrt_ed, task_bytes, spare_bytes):
    s_ul = 0.0
    s_ed = 0.0
    load = 0.0
    for m in members:
        s_ul += sqrt_ul[n, m]
        s_ed += sqrt_ed[n, m]
        load += task_bytes[m]
    ok = load <= spare_bytes[n] + BYTES_TOL
    return s_ul * s_ul + s_ed * s_ed, ok


def _csd_alloc_loop(n, members, sqrt_ul, sqrt_ed, task_bytes, spare_bytes,
                    alpha_row, gamma_row):
    s_ul = 0.0
    s_ed = 0.0
    load = 0.0
    for m in members:
        s_ul += sqrt_ul[n, m]
        s_ed += sqrt_ed[n, m]
        load += task_bytes[m]
    for m in members:
        alpha = sqrt_ul[n, m] / s_ul
        if alpha > 1.0:
            alpha = 1.0
        gamma = sqrt_ed[n, m] / s_ed
        if gamma > 1.0:
            gamma = 1.0
        alpha_row[m] = alpha
        gamma_row[m] = gamma
    ok = load <= spare_bytes[n] + BYTES_TOL
    return s_ul * s_ul + s_ed * s_ed, ok


# ---------------------------------------------------------------------------
# Vectorized numpy fallbacks (identical contracts, tolerance-level agreement).
# ---------------------------------------------------------------------------

def _member_pairs(members, pair_off, pair_cnt):
    if len(members) == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    cnt = pair_cnt[members]
    ks = np.repeat(members, cnt)
    idx = np.concatenate(
        [np.arange(pair_off[m], pair_off[m] + pair_cnt[m]) for m in members]
    )
    return idx, ks


def _hrd_value_numpy(n, members, pair_off, pair_cnt, sqrt_dl, sqrt_bh, cached,
                     eta_min):
    idx, ks = _member_pairs(members, pair_off, pair_cnt)
    if idx.size == 0:
        return 0.0, True
    sd = sqrt_dl[n, idx]
    value = float(sd.sum()) ** 2
    miss = ~cached[n, idx]
    ok = True
    if miss.any():
        sb = sqrt_bh[n, idx[miss]]
        floor = eta_min[n, ks[miss]]
        if (floor > 1.0).any():
            ok = False
        eta = np.minimum(1.0, np.maximum(floor, sb / sb.sum()))
        if eta.sum() > 1.0 + FEAS_TOL:
            ok = False
        value += float((sb * sb / eta).sum())
    return value, ok


def _hrd_alloc_numpy(n, members, pair_off, pair_cnt, pair_flat, sqrt_dl,
                     sqrt_bh, cached, eta_min, beta_row, eta_row):
    idx, ks = _member_pairs(members, pair_off, pair_cnt)
    if idx.size == 0:
        return 0.0, True
    sd = sqrt_dl[n, idx]
    beta_row[pair_flat[idx]] = np.minimum(1.0, sd / sd.sum())
    value = float(sd.sum()) ** 2
    miss = ~cached[n, idx]
    ok = True
    if miss.any():
        midx = idx[miss]
        sb = sqrt_bh[n, midx]
        floor = eta_min[n, ks[miss]]
        if (floor > 1.0).any():
            ok = False
        eta = np.minimum(1.0, np.maximum(floor, sb / sb.sum()))
        eta_row[pair_flat[midx]] = eta
        if eta.sum() > 1.0 + FEAS_TOL:
            ok = False
        value += float((sb * sb / eta).sum())
    return value, ok


def _csd_value_numpy(n, members, sqrt_ul, sqrt_ed, task_bytes, spare_bytes):
    if len(members) == 0:
        return 0.0, True
    value = float(sqrt_ul[n, members].sum()) ** 2
    value += float(sqrt_ed[n, members].sum()) ** 2
    ok = float(task_bytes[members].sum()) <= spare_bytes[n] + BYTES_TOL
    return value, ok


def _csd_alloc_numpy(n, members, sqrt_ul, sqrt_ed, task_bytes, spare_bytes,
                     alpha_row, gamma_row):
    if len(members) == 0:
        return 0.0, True
    su = sqrt_ul[n, members]
    se = sqrt_ed[n, members]
    alpha_row[members] = np.minimum(1.0, su / su.sum())
    gamma_row[members] = np.minimum(1.0, se / se.sum())
    ok = float(task_bytes[members].sum()) <= spare_bytes[n] + BYTES_TOL
    return float(su.sum()) ** 2 + float(se.sum()) ** 2, ok


# ---------------------------------------------------------------------------
# Binding selection.
# ---------------------------------------------------------------------------

_DISABLED = _truthy(os.environ.get("MECSIM_NO_NUMBA", ""))
USING_NUMBA = False

hrd_value = _hrd_value_numpy
hrd_alloc = _hrd_alloc_numpy
csd_value = _csd_value_numpy
csd_alloc = _csd_alloc_numpy

if not _DISABLED:
    try:
        from numba import njit
    except ImportError:
        pass
    else:
        hrd_value = njit(cache=True)(_hrd_value_loop)
        hrd_alloc = njit(cache=True)(_hrd_alloc_loop)
        csd_value = njit(cache=True)(_csd_value_loop)
        csd_alloc = njit(cache=True)(_csd_alloc_loop)
        USING_NUMBA = True


def warmup(n_pairs: int = 4, n_dev: int = 4) -> None:
    """Trigger JIT compilation once so timed sections exclude compile cost."""
    members = np.arange(2, dtype=np.int64)
    off = np.arange(n_dev, dtype=np.int64)
    cnt = np.ones(n_dev, dtype=np.int64)
    flat = np.arange(n_pairs, dtype=np.int64)
    mat = np.full((1, n_pairs), 0.5)
    cach = np.zeros((1, n_pairs), dtype=np.bool_)
    emin = np.full((1, n_dev), 0.1)
    beta = np.full(n_pairs, IDLE_FRAC)
    eta = np.full(n_pairs, IDLE_FRAC)
    hrd_value(0, members, off, cnt, mat, mat, cach, emin)
    hrd_alloc(0, members, off, cnt, flat, mat, mat, cach, emin, beta, eta)
    dev = np.full((1, n_dev), 0.5)
    tb = np.full(n_dev, 10.0)
    sp = np.full(1, 1e9)
    al = np.full(n_dev, IDLE_FRAC)
    ga = np.full(n_dev, IDLE_FRAC)
    csd_value(0, members, dev, dev, tb, sp)
    csd_alloc(0, members, dev, dev, tb, sp, al, ga)
