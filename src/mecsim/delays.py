"""Delay evaluation: per-device delay components and the global objective.

The objective F is the sum over all devices of weighted delays: file
delivery time for high-rate devices (downlink access plus, for cache
misses, downlink backhaul) and task completion time for computation
devices (uplink plus edge execution when offloaded, local execution
otherwise).  F is separable across SBSs, which is what lets the
association game re-evaluate only the coalitions a move touches.
``objective`` and ``audit_constraints`` read one gather of the served links
and apply one fraction rule, so they agree on what an allocation may hold.
"""

from dataclasses import dataclass

import numpy as np

from ._kernels import FEAS_TOL, BYTES_TOL, IDLE_FRAC
from .content import DemandProfile
from .radio import RateTable
from .scenario import Scenario

BITS_PER_BYTE = 8.0
# The two device classes, each the name of its coalition game.
HRD = "hrd"
CSD = "csd"


@dataclass
class Partition:
    """Association state for both device classes.

    ``hrd_sbs[k]`` is the serving SBS of high-rate device k; ``csd_sbs[k]``
    is the serving SBS of computation device k, with the sentinel value
    ``n_sbs`` meaning local execution (the virtual coalition).
    """

    hrd_sbs: np.ndarray
    csd_sbs: np.ndarray
    n_sbs: int

    def validate(self, n_hrd: int, n_csd: int) -> None:
        """Raise ValueError unless the partition associates each of
        ``n_hrd`` high-rate devices with one SBS and each of ``n_csd``
        computation devices with one SBS or local execution."""
        for name, sbs, n_dev in (("HRD", self.hrd_sbs, n_hrd),
                                 ("CSD", self.csd_sbs, n_csd)):
            if sbs.shape != (n_dev,):
                raise ValueError(f"{name} association of shape {sbs.shape} "
                                 f"for {n_dev} devices")
        if self.hrd_sbs.size and (self.hrd_sbs.min() < 0
                                  or self.hrd_sbs.max() >= self.n_sbs):
            raise ValueError("every HRD must be associated with exactly one SBS")
        if self.csd_sbs.size and (self.csd_sbs.min() < 0
                                  or self.csd_sbs.max() > self.n_sbs):
            raise ValueError("CSD association out of range")

    def coalitions(self, game: str) -> list[list[int]]:
        """Each coalition's devices in ascending order, one list per SBS of
        the game ``game`` (``HRD`` or ``CSD``, whose last list is local)."""
        sbs, n_coal = ((self.hrd_sbs, self.n_sbs) if game == HRD
                       else (self.csd_sbs, self.n_sbs + 1))
        out = [[] for _ in range(n_coal)]
        for k, n in enumerate(sbs.tolist()):
            out[n].append(k)
        return out

    def copy(self) -> "Partition":
        return Partition(self.hrd_sbs.copy(), self.csd_sbs.copy(), self.n_sbs)


@dataclass
class Allocation:
    """Each device's fractions at its serving SBS.

    ``beta``/``eta`` hold one entry per request pair, in ``request_pairs``
    order; ``alpha``/``gamma`` one per computation device.  A cache hit's
    ``eta`` and a local device's ``alpha``/``gamma`` hold IDLE_FRAC.
    """

    alpha: np.ndarray   # (n_csd,) uplink band fractions
    gamma: np.ndarray   # (n_csd,) edge compute fractions
    beta: np.ndarray    # (P,) downlink band fractions
    eta: np.ndarray     # (P,) backhaul band fractions

    def copy(self) -> "Allocation":
        return Allocation(self.alpha.copy(), self.gamma.copy(),
                          self.beta.copy(), self.eta.copy())


@dataclass
class DelayReport:
    """Per-device delay components plus the weighted aggregates."""

    pair_k: np.ndarray        # request pairs (device, file), row-major
    pair_i: np.ndarray
    t_dl_pair: np.ndarray
    t_bh_pair: np.ndarray     # zero for cache hits
    t_hr_pair: np.ndarray
    t_ul: np.ndarray          # (n_csd,) zero for local devices
    t_ed: np.ndarray
    t_lc: np.ndarray
    t_cs: np.ndarray
    hrd_total_s: float = 0.0
    hrd_backhaul_s: float = 0.0
    csd_total_s: float = 0.0
    csd_local_s: float = 0.0
    csd_offload_s: float = 0.0
    n_local_csd: int = 0
    n_edge_csd: int = 0
    n_backhauled_files: int = 0
    n_cached_hits: int = 0
    objective: float = 0.0


def request_pairs(demand: DemandProfile):
    """Active (device, file) request pairs in row-major device order."""
    pk, pi = np.nonzero(demand.request)
    return pk.astype(np.int64), pi.astype(np.int64)


def _links(partition: Partition, demand: DemandProfile):
    """Each request pair's device, file, serving SBS and cache-miss flag,
    then the offloading computation devices and their SBSs."""
    pair_k, pair_i = request_pairs(demand)
    n_arr = partition.hrd_sbs[pair_k]
    edge = np.nonzero(partition.csd_sbs < partition.n_sbs)[0]
    return (pair_k, pair_i, n_arr, demand.cache[n_arr, pair_i] == 0,
            edge, partition.csd_sbs[edge])


def _fraction_faults(allocation: Allocation, csd_sbs, pair_k, pair_i,
                     n_arr) -> list:
    """The fraction rule: one ``alpha`` and ``gamma`` per computation device
    and one ``beta`` and ``eta`` per request pair (else ValueError), each
    in ``[IDLE_FRAC, 1]`` up to FEAS_TOL (C11-C14).  Returns the entries
    outside that box as ``(name, sbs, device, file or -1)``."""
    csd = np.arange(csd_sbs.size)
    rule = (("alpha", csd_sbs, csd, np.full(csd.size, -1)),
            ("gamma", csd_sbs, csd, np.full(csd.size, -1)),
            ("beta", n_arr, pair_k, pair_i), ("eta", n_arr, pair_k, pair_i))
    if any(getattr(allocation, name).shape != k.shape
           for name, _, k, _ in rule):
        raise ValueError("allocation does not hold one fraction per request "
                         "pair and per computation device")
    lo, hi = IDLE_FRAC * (1.0 - 1e-9), 1.0 + FEAS_TOL
    faults = []
    for name, n, k, i in rule:
        frac = getattr(allocation, name)
        for j in np.nonzero((frac < lo) | (frac > hi))[0]:
            faults.append((name, int(n[j]), int(k[j]), int(i[j])))
    return faults


def objective(demand: DemandProfile, partition: Partition,
              allocation: Allocation, table: RateTable) -> DelayReport:
    """Evaluate all delay components and the weighted objective F; raises
    ValueError where the audit would report the association or a fraction."""
    partition.validate(demand.n_hrd, demand.n_csd)
    pair_k, pair_i, n_arr, miss, edge, ns = _links(partition, demand)
    bad = _fraction_faults(allocation, partition.csd_sbs, pair_k, pair_i,
                           n_arr)
    if bad:
        shown = ", ".join(f"{t}[n={n},k={k},i={i}]" for t, n, k, i in bad[:10])
        raise ValueError(f"allocation inconsistent with association: {shown}"
                         + ("..." if len(bad) > 10 else ""))

    size_bits = demand.catalog.file_size_bytes * BITS_PER_BYTE
    beta, eta = allocation.beta, allocation.eta
    t_dl = size_bits / (beta * table.s_dl[n_arr] * table.r_dl[n_arr, pair_k])
    t_bh = np.where(
        miss, size_bits / (eta * table.s_bh[n_arr] * table.r_bh[n_arr]), 0.0)
    t_hr = t_dl + t_bh
    w_pair = demand.hrd_weight[pair_k]
    hrd_total = float((w_pair * t_hr).sum())
    hrd_backhaul = float((w_pair * t_bh).sum())
    n_miss = int(miss.sum())

    n_csd = demand.n_csd
    t_ul = np.zeros(n_csd)
    t_ed = np.zeros(n_csd)
    t_lc = demand.task_cycles / demand.local_cps
    t_cs = t_lc.copy()
    alpha = allocation.alpha[edge]
    gamma = allocation.gamma[edge]
    in_bits = demand.task_input_bytes[edge] * BITS_PER_BYTE
    t_ul[edge] = in_bits / (alpha * table.s_ul[ns] * table.r_ul[ns, edge])
    t_ed[edge] = demand.task_cycles[edge] / (gamma * demand.edge_cps[ns])
    t_cs[edge] = t_ul[edge] + t_ed[edge]
    # A mask, not np.setdiff1d, whose first call imports numpy.ma (about
    # 14 ms of a fresh process).
    local = np.ones(n_csd, dtype=bool)
    local[edge] = False
    csd_offload = float((demand.csd_weight[edge] * t_cs[edge]).sum())
    csd_local = float((demand.csd_weight[local] * t_lc[local]).sum())
    csd_total = csd_offload + csd_local

    return DelayReport(
        pair_k=pair_k, pair_i=pair_i,
        t_dl_pair=t_dl, t_bh_pair=t_bh, t_hr_pair=t_hr,
        t_ul=t_ul, t_ed=t_ed, t_lc=t_lc, t_cs=t_cs,
        hrd_total_s=hrd_total, hrd_backhaul_s=hrd_backhaul,
        csd_total_s=csd_total, csd_local_s=csd_local,
        csd_offload_s=csd_offload,
        n_local_csd=n_csd - int(edge.size), n_edge_csd=int(edge.size),
        n_backhauled_files=n_miss,
        n_cached_hits=int(pair_k.size - n_miss),
        objective=hrd_total + csd_total,
    )


def audit_constraints(scenario: Scenario, demand: DemandProfile,
                      partition: Partition, allocation: Allocation,
                      table: RateTable) -> list[str]:
    """Check the full constraint set of one exposed state.

    Returns human-readable violation strings (empty list when clean):
    single association per device, the fraction rule ``objective`` also
    enforces (array shapes, then the [IDLE_FRAC, 1] boxes), per-SBS
    fraction budget sums, the access-vs-backhaul rate ordering on cache
    misses, and storage capacity including offloaded task inputs.
    """
    try:
        partition.validate(demand.n_hrd, demand.n_csd)
    except ValueError as exc:           # C1/C2/C9/C10
        return [f"association: {exc}"]
    pair_k, pair_i, n_arr, miss, edge, n_csd = _links(partition, demand)
    try:
        faults = _fraction_faults(allocation, partition.csd_sbs, pair_k,
                                  pair_i, n_arr)
    except ValueError as exc:
        return [f"allocation: {exc}"]
    out = [f"box: {name} outside [{IDLE_FRAC}, 1]"       # C11-C14
           for name in dict.fromkeys(fault[0] for fault in faults)]

    n_sbs = partition.n_sbs
    budgets = [
        (label, name, np.bincount(sbs, weights=frac, minlength=n_sbs))
        for label, name, sbs, frac in (
            ("uplink", "alpha", n_csd, allocation.alpha[edge]),
            ("compute", "gamma", n_csd, allocation.gamma[edge]),
            ("downlink", "beta", n_arr, allocation.beta),
            ("backhaul", "eta", n_arr[miss], allocation.eta[miss]))]
    for group in (budgets[:2], budgets[2:]):    # SBS by SBS in each class
        for n in range(n_sbs):
            for label, name, total in group:
                if total[n] > 1.0 + FEAS_TOL:
                    out.append(f"{label} budget: sum {name} at SBS {n} = "
                               f"{total[n]:.12g}")

    # Rate ordering on misses: access delivery must not outrun backhaul.
    acc = allocation.beta * table.s_dl[n_arr] * table.r_dl[n_arr, pair_k]
    bh = allocation.eta * table.s_bh[n_arr] * table.r_bh[n_arr]
    bad = miss & (acc > bh * (1.0 + FEAS_TOL))
    for j in np.nonzero(bad)[0]:
        out.append(
            f"rate ordering: pair (n={int(n_arr[j])}, k={int(pair_k[j])}, "
            f"i={int(pair_i[j])}) access {acc[j]:.6g} > backhaul {bh[j]:.6g}")

    # Storage: cached bytes plus offloaded task inputs per SBS.
    load = demand.cached_bytes.copy()
    np.add.at(load, n_csd, demand.task_input_bytes[edge])
    for n in range(n_sbs):
        if load[n] > demand.storage_bytes[n] + BYTES_TOL:
            out.append(f"storage: SBS {n} holds {load[n]:.12g} B "
                       f"> {demand.storage_bytes[n]:.12g} B")
    return out
