"""Per-coalition resource allocation: costs, the closed form, and its oracle.

``build_costs`` turns a scenario and its demand into the full-share
weighted delay of every (SBS, request pair) and (SBS, computation device)
slot, the only inputs the closed form needs.  The closed form itself lives
in ``_kernels``: square-root shares per CSD block (``_kernels.root_shares``)
and the exact HRD optimum (``_kernels.hrd_closed_form``).
``coalition_value`` values one member set from scratch with the kernels, a
public reference that no stage of the solve calls; the coalition game and
its stability audit value moves from running sums
(``association.CoalitionSums``).  ``allocate_hrd``/``allocate_csd`` are the
same closed forms on raw cost vectors.

``oracle_simplex_min`` solves one simplex block numerically (bisection on
the budget multiplier with box clamps), and ``oracle_hrd_min`` the coupled
HRD problem (nested bisection on the two budget multipliers).  They are the
independent checks used by the test suite and the audit CLI.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from ._kernels import (BYTES_TOL, FEAS_TOL, IDLE_FRAC, _sum,
                       hrd_closed_form, member_pairs, root_shares)
from .content import DemandProfile
from .delays import BITS_PER_BYTE, request_pairs
from .radio import RateTable, build_rate_table
from .scenario import Scenario

HRD = "hrd"
CSD = "csd"
_HRD_INPUTS = "file_size_bytes, hrd_weight, a, t1_frac or w_hz"


@dataclass(frozen=True)
class CoalitionCosts:
    """Precomputed closed-form inputs for every (SBS, device/file) slot.

    ``*_cost`` entries are full-share weighted delays: the delay a slot
    would incur if granted the entire block (fraction 1).  Request pairs are
    flattened row-major per device; device k owns pairs
    ``pair_off[k] .. pair_off[k] + pair_cnt[k]``.  ``rows`` holds the same
    costs as the per-SBS Python lists the kernels read (``_kernels.Rows``).
    """

    pair_k: np.ndarray      # (P,)
    pair_off: np.ndarray    # (n_hrd,)
    pair_cnt: np.ndarray
    dl_cost: np.ndarray     # (n_sbs, P)
    bh_cost: np.ndarray
    sqrt_dl: np.ndarray
    sqrt_bh: np.ndarray
    cached: np.ndarray      # (n_sbs, P) bool
    eta_min: np.ndarray     # (n_sbs, n_hrd)
    dev_sqrt_dl: np.ndarray     # (n_sbs, n_hrd)
    dev_sqrt_bh: np.ndarray
    dev_miss: np.ndarray        # int
    dev_floor_ratio: np.ndarray
    ul_cost: np.ndarray     # (n_sbs, n_csd)
    ed_cost: np.ndarray
    sqrt_ul: np.ndarray
    sqrt_ed: np.ndarray
    local_delay_w: np.ndarray   # (n_csd,) weighted local execution delay
    task_bytes: np.ndarray      # (n_csd,)
    spare_bytes: np.ndarray     # (n_sbs,) storage left after cached files
    n_sbs: int
    n_hrd: int
    n_csd: int
    rows: _kernels.Rows = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "rows", _kernels.Rows(self))


def _per_device(ufunc, pair_values, pair_k, n_hrd):
    """Reduce (n_sbs, P) pair values to (n_sbs, n_hrd) with ``ufunc``,
    starting from 0."""
    out = np.zeros((pair_values.shape[0], n_hrd), dtype=pair_values.dtype)
    ufunc.at(out, (slice(None), pair_k), pair_values)
    return out


def build_costs(scenario: Scenario, demand: DemandProfile,
                table: RateTable | None = None) -> CoalitionCosts:
    if table is None:
        table = build_rate_table(scenario)
    pair_k, pair_i = request_pairs(demand)
    cnt = np.bincount(pair_k, minlength=demand.n_hrd).astype(np.int64)
    off = np.concatenate(([0], np.cumsum(cnt)[:-1])).astype(np.int64)

    size_bits = demand.catalog.file_size_bytes * BITS_PER_BYTE
    w_pair = demand.hrd_weight[pair_k]
    with np.errstate(all="ignore"):
        in_bits = demand.task_input_bytes * BITS_PER_BYTE
        dl_cost = w_pair[None, :] * size_bits / (
            table.s_dl[:, None] * table.r_dl[:, pair_k])
        bh_cost = w_pair[None, :] * size_bits / (
            table.s_bh[:, None] * table.r_bh[:, None])
        ul_cost = demand.csd_weight[None, :] * in_bits[None, :] / (
            table.s_ul[:, None] * table.r_ul)
        ed_cost = (demand.csd_weight * demand.task_cycles)[None, :] \
            / demand.edge_cps[:, None]
        local = demand.csd_weight * demand.task_cycles / demand.local_cps
        # The split divides by a block's root costs; a device that gains
        # by offloading has a positive edge cost.  A block of m entries is
        # worth at most m times their costs' sum, so no value overflows.
        for name, cost, ok, inputs in (
                ("downlink", dl_cost, dl_cost > 0, _HRD_INPUTS),
                ("backhaul", bh_cost, bh_cost > 0, _HRD_INPUTS),
                ("uplink", ul_cost, ul_cost > 0,
                 "task_input_bytes, csd_weight, a, t1_frac or w_hz"),
                ("edge compute", ed_cost, (ed_cost > 0) | (local == 0),
                 "task_cycles, csd_weight or edge_cps"),
                ("local compute", local, local >= 0,
                 "task_cycles, csd_weight or local_cps")):
            if not (ok.all() and np.isfinite(cost.sum() * cost.size)):
                raise ValueError(
                    f"{name} costs overflow or underflow: check {inputs}")
    cached = demand.cache[:, pair_i] == 1

    sqrt_dl, sqrt_bh = np.sqrt(dl_cost), np.sqrt(bh_cost)
    miss = ~cached
    # A missed pair's ordering binds only if rho * sqrt(D) / sqrt(B) times
    # its coalition's sb exceeds sd (``_kernels.hrd_closed_form``).
    ratio = np.where(miss, table.eta_min[:, pair_k] * sqrt_dl / sqrt_bh, 0.0)

    return CoalitionCosts(
        pair_k=pair_k, pair_off=off, pair_cnt=cnt,
        dl_cost=dl_cost, bh_cost=bh_cost,
        sqrt_dl=sqrt_dl, sqrt_bh=sqrt_bh,
        cached=np.ascontiguousarray(cached),
        eta_min=table.eta_min,
        dev_sqrt_dl=_per_device(np.add, sqrt_dl, pair_k, demand.n_hrd),
        dev_sqrt_bh=_per_device(np.add, np.where(miss, sqrt_bh, 0.0), pair_k,
                                demand.n_hrd),
        dev_miss=_per_device(np.add, miss.astype(np.int64), pair_k,
                             demand.n_hrd),
        dev_floor_ratio=_per_device(np.maximum, ratio, pair_k, demand.n_hrd),
        ul_cost=ul_cost, ed_cost=ed_cost,
        sqrt_ul=np.sqrt(ul_cost), sqrt_ed=np.sqrt(ed_cost),
        local_delay_w=local,
        task_bytes=demand.task_input_bytes.astype(float),
        spare_bytes=demand.storage_bytes - demand.cached_bytes,
        n_sbs=demand.n_sbs, n_hrd=demand.n_hrd, n_csd=demand.n_csd,
    )


# ---------------------------------------------------------------------------
# Closed forms on raw cost vectors (Theorem-style square-root shares).
# ---------------------------------------------------------------------------

def allocate_csd(ul_cost, ed_cost):
    """Square-root-share fractions for one coalition's uplink/compute
    blocks, by the arithmetic ``_kernels.csd_alloc`` installs."""
    def split(cost):
        roots = np.sqrt(np.asarray(cost, dtype=float)).reshape(-1).tolist()
        return np.array(root_shares(roots, _sum(roots)))
    return split(ul_cost), split(ed_cost)


def allocate_hrd(dl_cost, bh_cost, cached, rho):
    """Downlink/backhaul fractions for one coalition's active request pairs.

    ``cached`` marks pairs with no backhaul demand; their eta stays at the
    idle placeholder.  Every missed pair keeps ``eta >= rho * beta``, its
    rate ordering (``rho`` is its ``eta_min``).
    """
    sd = np.sqrt(np.asarray(dl_cost, dtype=float))
    pos = np.flatnonzero(~np.asarray(cached, dtype=bool))
    sb = np.sqrt(np.asarray(bh_cost, dtype=float)[pos])
    rho = np.asarray(rho, dtype=float)[pos]
    beta, eta_miss, _ = hrd_closed_form(
        sd.tolist(), list(zip(pos.tolist(), sb.tolist(), rho.tolist())))
    eta = np.full(sd.shape, IDLE_FRAC)
    eta[pos] = eta_miss
    return np.array(beta), eta


def coalition_value(costs: CoalitionCosts, game: str, c: int, members):
    """The value of the member set ``members`` as coalition ``c`` of
    ``game`` ("hrd" or "csd"), under the closed-form allocation, or
    ``math.inf`` where it is infeasible.

    An HRD coalition is always feasible, and so is CSD coalition ``c ==
    n_sbs``, the virtual coalition of locally computing devices; another
    CSD coalition is infeasible once its task inputs overrun the SBS's
    spare storage.  Members are summed in the order given, which fixes the
    last ulp of the value.
    """
    kernel = _kernels.hrd_value if game == HRD else _kernels.csd_value
    return kernel(costs, c, members)


# ---------------------------------------------------------------------------
# Equal-share policy: the initializer's allocation, the ABCG baseline.
# ---------------------------------------------------------------------------

def equal_share_hrd(costs: CoalitionCosts, n: int, members):
    """Equal fractions per active pair/backhauled pair, with the access
    fraction capped so the access rate never outruns the backhaul rate.

    Returns (pair_indices, beta, eta, value), pairs in member order; eta
    holds IDLE_FRAC on hits.
    """
    rows = costs.rows
    hit, rho, span = rows.cached[n], rows.eta_min[n], rows.span
    members = sorted(members)
    pairs = [p for k in members for p in span[k]]
    beta, eta, cost_bh = [], [], []
    if pairs:
        share = 1.0 / len(pairs)
        missed = len(pairs) - sum(hit[p] for p in pairs)
        eta_miss = 1.0 / missed if missed else IDLE_FRAC
        bh = rows.bh_cost[n]
        for k in members:
            # Cap beta on misses so eta >= rho * beta (the rate ordering).
            cap = eta_miss / rho[k] if rho[k] > 0 else math.inf
            for p in span[k]:
                if hit[p]:
                    beta.append(share)
                    eta.append(IDLE_FRAC)
                else:
                    beta.append(max(IDLE_FRAC, min(share, cap)))
                    eta.append(eta_miss)
                    cost_bh.append(bh[p] / eta_miss)
    dl = rows.dl_cost[n]
    value = _sum([dl[p] / b for p, b in zip(pairs, beta)]) + _sum(cost_bh)
    return (np.array(pairs, dtype=np.int64), np.array(beta), np.array(eta),
            value)


# ---------------------------------------------------------------------------
# Independent numerical oracle.
# ---------------------------------------------------------------------------

ORACLE_MAX_ITER = 240   # bisection steps of ``_multiplier``
ORACLE_TOL = 1e-12      # budget residual that the oracles accept


def _multiplier(budget, guess: float) -> float:
    """The multiplier at which ``budget``, a nonincreasing function of it
    that falls from above 1 to below 1, crosses 1: bracketed from ``guess``
    by factors of 16, then bisected on a log scale until the residual is
    within ``ORACLE_TOL``.  Raises RuntimeError if it does not converge."""
    lo = hi = guess
    while budget(lo) < 1.0 and lo > 1e-300:
        lo /= 16.0
    while budget(hi) > 1.0 and hi < 1e300:
        hi *= 16.0
    for _ in range(ORACLE_MAX_ITER):
        mid = math.sqrt(lo) * math.sqrt(hi)
        residual = budget(mid) - 1.0
        if abs(residual) <= ORACLE_TOL:
            return mid
        if residual > 0.0:
            lo = mid
        else:
            hi = mid
        if hi <= lo * (1.0 + 1e-15):
            residual = budget(hi) - 1.0
            break
    if abs(residual) > 1e-7:
        raise RuntimeError(
            f"multiplier bisection did not converge: residual {residual:.3e}")
    return hi


def oracle_simplex_min(cost, lo, hi):
    """Minimize sum(cost/f) s.t. sum(f) <= 1, lo <= f <= hi, numerically.

    Stationarity makes every coordinate ``clip(sqrt(cost/nu), lo, hi)`` for a
    single multiplier nu; the budget is nonincreasing in nu, so nu is found
    by bisection (``_multiplier``).  Returns (fractions, objective).  Raises
    ValueError for an infeasible box (sum of floors above 1) and
    RuntimeError if the residual fails to converge.
    """
    cost = np.asarray(cost, dtype=float)
    lo = np.broadcast_to(np.asarray(lo, dtype=float), cost.shape).copy()
    hi = np.broadcast_to(np.asarray(hi, dtype=float), cost.shape).copy()
    if cost.size == 0:
        return np.empty(0), 0.0
    if np.any(cost <= 0) or np.any(lo <= 0):
        raise ValueError("costs and lower boxes must be positive")
    if lo.sum() > 1.0 + FEAS_TOL:
        raise ValueError(f"infeasible box: sum of floors = {lo.sum():.12g} > 1")
    if hi.sum() <= 1.0:
        f = hi.copy()
        return f, float((cost / f).sum())
    nu = _multiplier(
        lambda nu: float(np.clip(np.sqrt(cost / nu), lo, hi).sum()),
        float(np.sqrt(cost).sum()) ** 2)
    f = np.clip(np.sqrt(cost / nu), lo, hi)
    return f, float((cost / f).sum())


def oracle_hrd_min(dl_cost, bh_cost, cached, rho):
    """Minimize sum(D/beta) + sum_miss(B/eta) s.t. sum(beta) <= 1,
    sum(eta) <= 1 and eta >= rho * beta on every missed pair, numerically.

    For budget multipliers lambda and mu, stationarity gives a hit or a
    missed pair whose ordering is slack ``beta = sqrt(D/lambda)`` (and
    ``eta = sqrt(B/mu)``); where ``B * lambda < rho**2 * D * mu`` the
    ordering binds, and ``beta = sqrt((D + B/rho) / (lambda + rho * mu))``,
    ``eta = rho * beta``.  The downlink budget is nonincreasing in lambda
    and the backhaul budget, with lambda solved for, in mu, so each is found
    by bisection (``_multiplier``): lambda inside, for every trial mu, and
    mu outside, each to a residual of ``ORACLE_TOL``.  lambda is 0 where
    the downlink budget is slack even then (every pair missed).  Returns
    (beta, eta, objective); eta is IDLE_FRAC on hits.
    """
    dl = np.asarray(dl_cost, dtype=float)
    bh = np.asarray(bh_cost, dtype=float)
    miss = ~np.asarray(cached, dtype=bool)
    pairs = list(zip(dl.tolist(), np.where(miss, bh, np.nan).tolist(),
                     np.broadcast_to(rho, dl.shape).tolist()))

    def shares(lam, mu):
        beta, eta = [], []
        for d, b, r in pairs:
            if b != b:      # a hit: no backhaul share
                beta.append(math.sqrt(d / lam))
            elif b * lam >= r * r * d * mu:
                beta.append(math.sqrt(d / lam))
                eta.append(math.sqrt(b / mu))
            else:
                beta.append(math.sqrt((d + b / r) / (lam + r * mu)))
                eta.append(r * beta[-1])
        return beta, eta

    def lam_at(mu):
        if miss.all() and math.fsum(shares(0.0, mu)[0]) <= 1.0:
            return 0.0
        return _multiplier(lambda lam: math.fsum(shares(lam, mu)[0]),
                           float(np.sqrt(dl).sum()) ** 2)

    mu = 0.0
    if miss.any():
        mu = _multiplier(lambda mu: math.fsum(shares(lam_at(mu), mu)[1]),
                         float(np.sqrt(bh[miss]).sum()) ** 2)
    beta, eta_miss = (np.array(x) for x in shares(lam_at(mu), mu))
    eta = np.full(dl.shape, IDLE_FRAC)
    eta[miss] = eta_miss
    return beta, eta, float((dl / beta).sum() + (bh[miss] / eta_miss).sum())


def oracle_solve_p3(costs: CoalitionCosts, n: int, members, kind: str):
    """Numerically optimal per-block fractions for one coalition at SBS n.

    Returns a dict: for "hrd" kind, pair indices plus beta/eta arrays and the
    total objective (``oracle_hrd_min``), always feasible; for "csd", member
    alpha/gamma arrays and the objective, ``feasible`` False when the
    members' task inputs overrun the SBS's spare storage.
    """
    members = np.asarray(sorted(members), dtype=np.int64)
    if kind == "csd":
        if members.size == 0:
            return {"alpha": np.empty(0), "gamma": np.empty(0),
                    "objective": 0.0, "feasible": True}
        alpha, v_ul = oracle_simplex_min(
            costs.ul_cost[n, members], IDLE_FRAC, 1.0)
        gamma, v_ed = oracle_simplex_min(
            costs.ed_cost[n, members], IDLE_FRAC, 1.0)
        stored = costs.task_bytes[members].sum()
        spare_ok = stored <= costs.spare_bytes[n] + BYTES_TOL
        return {"alpha": alpha, "gamma": gamma, "objective": v_ul + v_ed,
                "feasible": bool(spare_ok)}
    if kind != "hrd":
        raise ValueError(f"unknown coalition kind {kind!r}")
    if members.size == 0:
        return {"pairs": np.empty(0, np.int64), "beta": np.empty(0),
                "eta": np.empty(0), "objective": 0.0, "feasible": True}
    idx, ks = member_pairs(costs, members)
    beta, eta, value = oracle_hrd_min(costs.dl_cost[n, idx],
                                      costs.bh_cost[n, idx],
                                      costs.cached[n, idx],
                                      costs.eta_min[n, ks])
    return {"pairs": idx, "beta": beta, "eta": eta, "objective": value,
            "feasible": True}
