"""Per-coalition resource allocation: costs, the equal split, the closed
form, and its optimality certificate.

``build_costs`` turns a demand and its rate table into the full-share
weighted delay of every (SBS, request pair) and (SBS, computation device)
slot, the only inputs the closed form needs.  ``equal_split`` gives the
initializer's equal shares (the ABCG baseline) as fractions alone; their
delays are the delay model's (``delays.objective``).  The closed form
itself lives in ``_kernels``: square-root shares per CSD block
(``_kernels.root_shares``) and the exact HRD optimum
(``_kernels.hrd_closed_form``), each valued for one member set by
``_kernels.hrd_value``/``csd_value``; the coalition game and its stability
audit value moves from running sums (``association.CoalitionSums``).

``oracle_solve_p3`` certifies one coalition by weak duality instead of
solving it again: any budget multipliers >= 0 give a lower bound on its
optimum (``dual_bound``, evaluated from the costs alone), and the closed
form's own multipliers make that bound tight to rounding: a CSD block's
is the square of its root-cost sum, and ``_kernels.hrd_closed_form``
returns an HRD coalition's with its shares.  An allocation whose delay
lies within a small gap of the bound is optimal under the model's own
constraints, whoever computed it; ``mecsim audit`` and the benchmark's
checks judge each coalition so.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from ._kernels import IDLE_FRAC
from .content import DemandProfile
from .delays import BITS_PER_BYTE, CSD, HRD, Allocation, Partition, \
    request_pairs
from .radio import RateTable

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


def build_costs(demand: DemandProfile, table: RateTable) -> CoalitionCosts:
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
# Equal shares: the initializer's allocation, the ABCG baseline.
# ---------------------------------------------------------------------------

def equal_split(costs: CoalitionCosts, partition: Partition) -> Allocation:
    """The initializer's equal shares at ``partition``.

    Every request pair at an SBS gets the same downlink share and every
    missed pair there the same backhaul share; a missed pair's downlink
    share is capped at its backhaul share over ``rho``, so that its rate
    ordering ``eta >= rho * beta`` holds, and floored at IDLE_FRAC.  Each
    offloading computation device gets ``1 / size`` of its coalition's
    uplink and compute.  A hit's ``eta`` and a local device's shares hold
    IDLE_FRAC.  The delays are the delay model's (``delays.objective``).
    """
    n_sbs, pair_k = costs.n_sbs, costs.pair_k
    n_arr = partition.hrd_sbs[pair_k]
    miss = ~costs.cached[n_arr, np.arange(pair_k.size)]
    share = 1.0 / np.bincount(n_arr, minlength=n_sbs)[n_arr]
    eta = np.full(pair_k.size, IDLE_FRAC)
    eta[miss] = 1.0 / np.bincount(n_arr[miss], minlength=n_sbs)[n_arr[miss]]
    cap = eta / costs.eta_min[n_arr, pair_k]
    beta = np.where(miss, np.maximum(IDLE_FRAC, np.minimum(share, cap)), share)
    csd_sbs = partition.csd_sbs
    size = np.bincount(csd_sbs, minlength=n_sbs + 1)
    alpha = np.where(csd_sbs < n_sbs, 1.0 / size[csd_sbs], IDLE_FRAC)
    return Allocation(alpha=alpha, gamma=alpha.copy(), beta=beta, eta=eta)


# ---------------------------------------------------------------------------
# Optimality certificate: a lower bound by weak duality.
# ---------------------------------------------------------------------------

def _hrd_pairs(costs: CoalitionCosts, n: int, members):
    """``(D, B, rho)`` of every request pair of ``members`` at SBS ``n``, in
    member order; ``B`` is None on a hit."""
    rows = costs.rows
    dl, bh, hit, rho = (rows.dl_cost[n], rows.bh_cost[n], rows.cached[n],
                        rows.eta_min[n])
    return [(dl[p], None if hit[p] else bh[p], rho[k])
            for k in members for p in rows.span[k]]


def dual_bound(costs: CoalitionCosts, n: int, members, kind: str,
               multipliers) -> float:
    """The Lagrange dual function of one coalition's problem at
    ``multipliers``, from ``costs`` alone: a lower bound on its optimum for
    any multipliers >= 0, > 0 for "csd" (weak duality: Boyd & Vandenberghe,
    *Convex Optimization*, 5.2.2).

    For "hrd", ``(lambda, mu)`` price the downlink and backhaul budgets,
    and each missed pair keeps its rate ordering as a constraint: a pair is
    worth the least ``D/beta + lambda*beta + B/eta + mu*eta`` over ``beta >
    0`` and ``eta >= rho*beta``, in three cases: a hit (no ``eta`` term),
    a missed pair whose ordering is slack, and a bound one (``B*lambda <
    rho**2 * D * mu``).  For "csd", ``(nu_ul, nu_ed)`` price the uplink
    and compute budgets, and an entry is worth the least ``c/f + nu*f``
    over ``f`` in ``[IDLE_FRAC, 1]``.
    """
    members, terms = sorted(members), []
    if kind == CSD:
        for cost, nu in zip((costs.ul_cost, costs.ed_cost), multipliers):
            for c in cost[n, members].tolist():
                f = min(1.0, max(IDLE_FRAC, math.sqrt(c / nu)))
                terms += (c / f, nu * f)
    elif kind == HRD:
        lam, mu = multipliers
        for d, b, r in _hrd_pairs(costs, n, members):
            if b is None:
                terms.append(2.0 * math.sqrt(d * lam))
            elif b * lam >= r * r * d * mu:
                terms += (2.0 * math.sqrt(d * lam), 2.0 * math.sqrt(b * mu))
            else:
                terms.append(2.0 * math.sqrt((d + b / r) * (lam + r * mu)))
    else:
        raise ValueError(f"unknown coalition kind {kind!r}")
    return math.fsum(terms) - multipliers[0] - multipliers[1]


def oracle_solve_p3(costs: CoalitionCosts, n: int, members, kind: str):
    """A certified lower bound on the optimum of one coalition at SBS n.

    The bound is ``dual_bound`` at the closed form's own budget
    multipliers: for "csd" each block's ``sum(sqrt(c))**2``
    (``_kernels.csd_summary``), and for "hrd" those that
    ``_kernels.hrd_closed_form`` returns with its shares.  It holds
    whatever computed the multipliers, so an allocation within a small gap
    of it is optimal.  Returns a dict with the bound as ``objective`` and
    ``feasible``, False when CSD members' task inputs overrun the SBS's
    spare storage.
    """
    members = sorted(members)
    if kind == CSD:
        (su, se, _, _), _, value = _kernels.csd_summary(costs, n, members)
        multipliers, feasible = (su ** 2, se ** 2), value < math.inf
    elif kind == HRD:
        multipliers = _kernels._hrd_solved(costs, n, members)[5]
        feasible = True
    else:
        raise ValueError(f"unknown coalition kind {kind!r}")
    return {"objective": dual_bound(costs, n, members, kind, multipliers),
            "feasible": feasible}
