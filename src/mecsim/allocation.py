"""Per-coalition resource allocation: costs, the closed form, and its oracle.

``build_costs`` turns a scenario and its demand into the full-share
weighted delay of every (SBS, request pair) and (SBS, computation device)
slot, the only inputs the closed form needs.  The closed form itself lives
in ``_kernels``: square-root shares per resource block (uplink, downlink,
backhaul, edge compute), with backhaul shares clamped up to a per-device
floor (the smallest fraction that keeps the access rate from outrunning the
backhaul rate) and a coalition whose clamped shares overrun the budget
declared infeasible rather than repaired.  ``coalition_value`` is the one
evaluator the game calls; ``coalition_utility`` and
``allocate_hrd``/``allocate_csd`` are its public views on a device set and
on raw cost vectors.

``oracle_simplex_min`` solves the same block numerically (bisection on the
budget multiplier with box clamps) and is the independent check used by the
test suite and the audit CLI.
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels
from ._kernels import (FEAS_TOL, IDLE_FRAC, hrd_closed_form, member_pairs,
                       shares)
from .content import DemandProfile
from .delays import BITS_PER_BYTE, request_pairs
from .radio import RateTable, build_rate_table
from .scenario import Scenario

HRD = "hrd"
CSD = "csd"
LOCAL = "local"   # virtual coalition tag for coalition_utility


@dataclass(frozen=True)
class CoalitionCosts:
    """Precomputed closed-form inputs for every (SBS, device/file) slot.

    ``*_cost`` entries are full-share weighted delays: the delay a slot
    would incur if granted the entire block (fraction 1).  Request pairs are
    flattened row-major per device; device k owns pairs
    ``pair_off[k] .. pair_off[k] + pair_cnt[k]``.
    """

    pair_k: np.ndarray      # (P,)
    pair_i: np.ndarray
    pair_flat: np.ndarray   # k * n_files + i, for writing into beta/eta rows
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
    n_files: int


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
    n_files = demand.catalog.n_files
    cnt = np.bincount(pair_k, minlength=demand.n_hrd).astype(np.int64)
    off = np.concatenate(([0], np.cumsum(cnt)[:-1])).astype(np.int64)

    size_bits = demand.catalog.file_size_bytes * BITS_PER_BYTE
    w_pair = demand.hrd_weight[pair_k]
    dl_cost = w_pair[None, :] * size_bits / (
        table.s_dl[:, None] * table.r_dl[:, pair_k])
    bh_cost = w_pair[None, :] * size_bits / (
        table.s_bh[:, None] * table.r_bh[:, None])
    cached = demand.cache[:, pair_i] == 1 if pair_k.size else \
        np.zeros((demand.n_sbs, 0), dtype=bool)

    in_bits = demand.task_input_bytes * BITS_PER_BYTE
    ul_cost = demand.csd_weight[None, :] * in_bits[None, :] / (
        table.s_ul[:, None] * table.r_ul)
    ed_cost = (demand.csd_weight * demand.task_cycles)[None, :] \
        / demand.edge_cps[:, None]

    sqrt_dl, sqrt_bh = np.sqrt(dl_cost), np.sqrt(bh_cost)
    miss = ~cached
    ratio = np.where(miss, table.eta_min[:, pair_k] / sqrt_bh, 0.0)

    return CoalitionCosts(
        pair_k=pair_k, pair_i=pair_i,
        pair_flat=(pair_k * n_files + pair_i).astype(np.int64),
        pair_off=off, pair_cnt=cnt,
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
        local_delay_w=demand.csd_weight * demand.task_cycles / demand.local_cps,
        task_bytes=demand.task_input_bytes.astype(float),
        spare_bytes=demand.storage_bytes - demand.cached_bytes,
        n_sbs=demand.n_sbs, n_hrd=demand.n_hrd, n_csd=demand.n_csd,
        n_files=n_files,
    )


# ---------------------------------------------------------------------------
# Closed forms on raw cost vectors (Theorem-style square-root shares).
# ---------------------------------------------------------------------------

def allocate_csd(ul_cost, ed_cost):
    """Square-root-share fractions for one coalition's uplink/compute blocks."""
    alpha = shares(np.sqrt(np.asarray(ul_cost, dtype=float)))
    gamma = shares(np.sqrt(np.asarray(ed_cost, dtype=float)))
    return alpha, gamma


def allocate_hrd(dl_cost, bh_cost, cached, eta_floor):
    """Downlink/backhaul fractions for one coalition's active request pairs.

    ``cached`` marks pairs with no backhaul demand; their eta stays at the
    idle placeholder.  Backhaul shares are clamped up to ``eta_floor``;
    the result is infeasible when a floor exceeds 1 or the clamped shares
    overrun the unit budget.
    """
    sd = np.sqrt(np.asarray(dl_cost, dtype=float))
    miss = ~np.asarray(cached, dtype=bool)
    eta = np.full(sd.shape, IDLE_FRAC)
    eta[miss], _, feasible = hrd_closed_form(
        sd, np.sqrt(np.asarray(bh_cost, dtype=float)[miss]),
        np.asarray(eta_floor, dtype=float)[miss])
    return shares(sd), eta, feasible


@dataclass
class CoalitionEval:
    """Outcome of allocating one candidate coalition.

    ``value`` is the members' total weighted delay under the produced
    allocation; infeasibility is a value here, not an error.
    """

    value: float
    feasible: bool


def coalition_value(costs: CoalitionCosts, game: str, c: int, members):
    """(value, feasible) of the member set ``members`` as coalition ``c`` of
    ``game`` ("hrd" or "csd"), under the closed-form allocation.

    CSD coalition ``c == n_sbs`` is the virtual coalition of locally
    computing devices (always feasible).  Members are summed in the order
    given, which fixes the last ulp of the value.
    """
    arr = np.asarray(members, dtype=np.int64)
    if game == CSD and c == costs.n_sbs:
        return float(costs.local_delay_w[arr].sum()), True
    if arr.size == 0:
        return 0.0, True
    kernel = _kernels.hrd_value if game == HRD else _kernels.csd_value
    value, ok = kernel(costs, c, arr)
    return float(value), bool(ok)


def coalition_utility(scenario: Scenario, demand: DemandProfile, coalition,
                      kind: str, *, table: RateTable | None = None,
                      costs: CoalitionCosts | None = None,
                      n: int | None = None) -> CoalitionEval:
    """Value and feasibility of a (possibly tentative) coalition at SBS n.

    ``coalition`` is an iterable of device indices; ``kind`` is "hrd",
    "csd", or "local" for the virtual coalition of locally-computing
    devices (always feasible).  Non-virtual coalitions need ``n``.
    """
    if costs is None:
        costs = build_costs(scenario, demand, table)
    if kind == LOCAL:
        kind, n = CSD, costs.n_sbs
    elif kind not in (HRD, CSD):
        raise ValueError(f"unknown coalition kind {kind!r}")
    elif n is None:
        raise ValueError("SBS index required for non-virtual coalitions")
    value, ok = coalition_value(costs, kind, int(n), sorted(coalition))
    return CoalitionEval(value, ok)


# ---------------------------------------------------------------------------
# Equal-share policy (the initializer's allocation, which the reallocation
# keeps when the clamped closed form is infeasible or worse).
# ---------------------------------------------------------------------------

def equal_share_hrd(costs: CoalitionCosts, n: int, members):
    """Equal fractions per active pair/backhauled pair, with the access
    fraction capped so the access rate never outruns the backhaul rate.

    Returns (pair_indices, beta, eta, value); eta holds IDLE_FRAC on hits.
    """
    members = np.asarray(sorted(members), dtype=np.int64)
    if members.size == 0:
        return np.empty(0, np.int64), np.empty(0), np.empty(0), 0.0
    idx, ks = member_pairs(costs, members)
    miss = ~costs.cached[n, idx]
    beta = np.full(idx.shape, 1.0 / idx.size)
    eta = np.full(idx.shape, IDLE_FRAC)
    if miss.any():
        eta[miss] = 1.0 / miss.sum()
        # Cap beta on misses so eta >= beta * floor (the rate ordering).
        floor = costs.eta_min[n, ks[miss]]
        with np.errstate(divide="ignore"):
            cap = np.where(floor > 0, eta[miss] / floor, np.inf)
        beta[miss] = np.maximum(IDLE_FRAC, np.minimum(beta[miss], cap))
    value = float((costs.dl_cost[n, idx] / beta).sum()
                  + (costs.bh_cost[n, idx[miss]] / eta[miss]).sum())
    return idx, beta, eta, value


# ---------------------------------------------------------------------------
# Independent numerical oracle.
# ---------------------------------------------------------------------------

def oracle_simplex_min(cost, lo, hi, tol: float = 1e-10, max_iter: int = 240):
    """Minimize sum(cost/f) s.t. sum(f) <= 1, lo <= f <= hi, numerically.

    Stationarity makes every coordinate ``clip(sqrt(cost/nu), lo, hi)`` for a
    single multiplier nu; the budget residual is monotone in nu, so nu is
    found by bisection.  Returns (fractions, objective).  Raises ValueError
    for an infeasible box (sum of floors above 1) and RuntimeError if the
    residual fails to converge.
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

    def budget(nu: float) -> float:
        return float(np.clip(np.sqrt(cost / nu), lo, hi).sum())

    nu_lo = float((cost / hi ** 2).min())
    nu_hi = float((cost / lo ** 2).max())
    while budget(nu_lo) < 1.0 and nu_lo > 1e-300:
        nu_lo /= 16.0
    while budget(nu_hi) > 1.0 and nu_hi < 1e300:
        nu_hi *= 16.0

    nu = nu_hi
    residual = budget(nu) - 1.0
    for _ in range(max_iter):
        nu = 0.5 * (nu_lo + nu_hi)
        residual = budget(nu) - 1.0
        if abs(residual) <= tol:
            break
        if residual > 0.0:
            nu_lo = nu
        else:
            nu_hi = nu
        if (nu_hi - nu_lo) <= 1e-16 * nu_hi:
            residual = budget(nu) - 1.0
            break
    if abs(residual) > 1e-7:
        raise RuntimeError(
            f"multiplier bisection did not converge: residual {residual:.3e}")
    f = np.clip(np.sqrt(cost / nu), lo, hi)
    return f, float((cost / f).sum())


def oracle_solve_p3(costs: CoalitionCosts, n: int, members, kind: str,
                    tol: float = 1e-10):
    """Numerically optimal per-block fractions for one coalition at SBS n.

    Returns a dict: for "hrd" kind, pair indices plus beta/eta arrays and the
    total objective; for "csd", member alpha/gamma arrays and the objective.
    ``feasible`` is False when the backhaul floors alone overrun the budget
    (no allocation satisfies the rate-ordering floor under the cap).
    """
    members = np.asarray(sorted(members), dtype=np.int64)
    if kind == "csd":
        if members.size == 0:
            return {"alpha": np.empty(0), "gamma": np.empty(0),
                    "objective": 0.0, "feasible": True}
        alpha, v_ul = oracle_simplex_min(
            costs.ul_cost[n, members], IDLE_FRAC, 1.0, tol)
        gamma, v_ed = oracle_simplex_min(
            costs.ed_cost[n, members], IDLE_FRAC, 1.0, tol)
        spare_ok = costs.task_bytes[members].sum() <= costs.spare_bytes[n] + 1e-6
        return {"alpha": alpha, "gamma": gamma, "objective": v_ul + v_ed,
                "feasible": bool(spare_ok)}
    if kind != "hrd":
        raise ValueError(f"unknown coalition kind {kind!r}")
    if members.size == 0:
        return {"pairs": np.empty(0, np.int64), "beta": np.empty(0),
                "eta": np.empty(0), "objective": 0.0, "feasible": True}
    idx, ks = member_pairs(costs, members)
    beta, v_dl = oracle_simplex_min(costs.dl_cost[n, idx], IDLE_FRAC, 1.0, tol)
    eta = np.full(idx.shape, IDLE_FRAC)
    v_bh = 0.0
    feasible = True
    miss = ~costs.cached[n, idx]
    if miss.any():
        floors = costs.eta_min[n, ks[miss]]
        if (floors > 1.0).any() or floors.sum() > 1.0 + FEAS_TOL:
            feasible = False
        else:
            eta_m, v_bh = oracle_simplex_min(
                costs.bh_cost[n, idx[miss]], floors, 1.0, tol)
            eta[miss] = eta_m
    return {"pairs": idx, "beta": beta, "eta": eta,
            "objective": v_dl + v_bh, "feasible": feasible}
