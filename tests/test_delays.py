import dataclasses

import numpy as np
import pytest

from mecsim._kernels import IDLE_FRAC
from mecsim.association import abcg_init
from mecsim.content import Catalog, DemandProfile
from mecsim.delays import (Allocation, Partition, audit_constraints,
                           objective, request_pairs)
from mecsim.radio import RateTable, build_rate_table
from mecsim.scenario import Counts, SystemParams, generate_scenario
from conftest import demand_for, idle_allocation, rate_scenario


def simple_table(s=1e6, r_dl=4.0, r_bh=4.0, r_ul=4.0, n_sbs=1, n_hrd=1,
                 n_csd=1):
    return RateTable(
        s_dl=np.full(n_sbs, s), s_ul=np.full(n_sbs, s), s_bh=np.full(n_sbs, s),
        r_dl=np.full((n_sbs, n_hrd), r_dl), r_ul=np.full((n_sbs, n_csd), r_ul),
        r_bh=np.full(n_sbs, r_bh), eta_min=np.full((n_sbs, n_hrd), 0.5))


def simple_demand(cache, n_hrd=1, n_csd=1, local_cps=1.4e9, edge_cps=6e10,
                  storage=2e9, file_size=5e6):
    cache = np.atleast_2d(np.asarray(cache, dtype=np.int8))
    n_sbs, n_files = cache.shape
    catalog = Catalog.build(n_files, 0.6, file_size)
    return DemandProfile(
        catalog=catalog,
        request=np.ones((n_hrd, n_files), dtype=np.int8),
        cache=cache,
        task_input_bytes=np.full(n_csd, 1e5),
        task_cycles=np.full(n_csd, 1e9),
        local_cps=np.full(n_csd, local_cps),
        edge_cps=np.full(n_sbs, edge_cps),
        storage_bytes=np.full(n_sbs, storage),
        hrd_weight=np.ones(n_hrd), csd_weight=np.ones(n_csd))


def one_device_report(cache, beta=1.0, eta=1.0, csd_sbs=0, alpha=1.0,
                      gamma=1.0):
    """``objective``'s report of one HRD and one CSD under ``simple_table``:
    the HRD is served by SBS 0, and the CSD offloads to it, or computes
    locally where ``csd_sbs`` is 1."""
    partition = Partition(np.array([0]), np.array([csd_sbs]), 1)
    allocation = Allocation(alpha=np.array([alpha]), gamma=np.array([gamma]),
                            beta=np.array([beta]), eta=np.array([eta]))
    return objective(simple_demand(cache), partition, allocation,
                     simple_table())


def test_cached_file_skips_backhaul():
    hit = one_device_report([[1]], beta=0.7, eta=0.3)
    assert hit.t_hr_pair[0] == hit.t_dl_pair[0]
    assert hit.t_bh_pair[0] == 0.0
    miss = one_device_report([[0]], beta=0.7, eta=0.3)
    assert miss.t_bh_pair[0] > 0
    assert miss.t_hr_pair[0] == miss.t_dl_pair[0] + miss.t_bh_pair[0]


def test_download_time_direct_substitution():
    # 5 MB = 4e7 bits over beta * 1e6 Hz * 4 bits/s/Hz.
    rep = one_device_report([[0]], beta=1.0, eta=1.0)
    t_dl, t_bh, t_hr = rep.t_dl_pair[0], rep.t_bh_pair[0], rep.t_hr_pair[0]
    assert t_dl == pytest.approx(10.0)
    assert t_bh == pytest.approx(10.0)
    assert t_hr == pytest.approx(20.0)
    half = one_device_report([[0]], beta=0.5, eta=1.0).t_dl_pair[0]
    assert half == pytest.approx(2 * t_dl)


def test_task_delay_components():
    rep = one_device_report([[1]], alpha=1.0, gamma=1.0)
    t_ul, t_ed, t_lc, t_cs = rep.t_ul[0], rep.t_ed[0], rep.t_lc[0], rep.t_cs[0]
    assert t_lc == pytest.approx(1e9 / 1.4e9)
    assert t_ed == pytest.approx(1e9 / 6e10)
    assert t_cs == pytest.approx(t_ul + t_ed)


def test_local_task_ignores_fractions():
    for alpha, gamma in ((0.1, 0.9), (1.0, 1.0), (IDLE_FRAC, IDLE_FRAC)):
        rep = one_device_report([[1]], csd_sbs=1, alpha=alpha, gamma=gamma)
        t_ul, t_ed, t_lc, t_cs = (rep.t_ul[0], rep.t_ed[0], rep.t_lc[0],
                                  rep.t_cs[0])
        assert t_cs == t_lc == pytest.approx(1e9 / 1.4e9)
        assert t_ul == 0.0 and t_ed == 0.0


def build_random_state(seed, n_sbs=3, n_hrd=5, n_csd=5, n_files=6):
    rng = np.random.default_rng(seed)
    params = SystemParams(m_sbs=n_sbs, n_mbs=1, seed=seed)
    scn = rate_scenario(params,
                        r_dl=rng.uniform(2, 18, (n_sbs, n_hrd)),
                        r_ul=rng.uniform(2, 18, (n_sbs, n_csd)),
                        r_bh=rng.uniform(4, 22, n_sbs))
    demand = demand_for(scn, n_files=n_files, file_size=5e6, storage=15.6e6,
                        policy="sampled", seed=seed)
    partition = Partition(
        hrd_sbs=rng.integers(0, n_sbs, n_hrd).astype(np.int64),
        csd_sbs=rng.integers(0, n_sbs + 1, n_csd).astype(np.int64),
        n_sbs=n_sbs)
    pk, _ = request_pairs(demand)
    allocation = idle_allocation(pk.size, n_csd)
    for j in range(pk.size):
        allocation.beta[j] = rng.uniform(0.01, 1.0)
        allocation.eta[j] = rng.uniform(0.01, 1.0)
    for k in range(n_csd):
        if partition.csd_sbs[k] < n_sbs:
            allocation.alpha[k] = rng.uniform(0.01, 1.0)
            allocation.gamma[k] = rng.uniform(0.01, 1.0)
    return scn, demand, partition, allocation


def pair_index(demand):
    """(device, file) -> index of its request pair in the allocation."""
    pk, pi = request_pairs(demand)
    return {(int(k), int(i)): j for j, (k, i) in enumerate(zip(pk, pi))}


def naive_objective(scn, demand, partition, allocation, table):
    """Independent re-summation with explicit loops over devices and files."""
    total = 0.0
    size_bits = demand.catalog.file_size_bytes * 8.0
    pair = pair_index(demand)
    for k in range(demand.n_hrd):
        n = int(partition.hrd_sbs[k])
        for i in range(demand.catalog.n_files):
            if not demand.request[k, i]:
                continue
            j = pair[k, i]
            t = size_bits / (allocation.beta[j] * table.s_dl[n]
                             * table.r_dl[n, k])
            if not demand.cache[n, i]:
                t += size_bits / (allocation.eta[j] * table.s_bh[n]
                                  * table.r_bh[n])
            total += demand.hrd_weight[k] * t
    for k in range(demand.n_csd):
        n = int(partition.csd_sbs[k])
        if n == partition.n_sbs:
            total += demand.csd_weight[k] * demand.task_cycles[k] \
                / demand.local_cps[k]
        else:
            t = demand.task_input_bytes[k] * 8.0 / (
                allocation.alpha[k] * table.s_ul[n] * table.r_ul[n, k])
            t += demand.task_cycles[k] / (allocation.gamma[k]
                                          * demand.edge_cps[n])
            total += demand.csd_weight[k] * t
    return total


@pytest.mark.parametrize("seed", range(5))
def test_objective_matches_naive_resummation(seed):
    scn, demand, partition, allocation = build_random_state(seed)
    table = build_rate_table(scn)
    rep = objective(demand, partition, allocation, table)
    ref = naive_objective(scn, demand, partition, allocation, table)
    assert rep.objective == pytest.approx(ref, rel=1e-12)
    assert rep.objective == pytest.approx(rep.hrd_total_s + rep.csd_total_s,
                                          rel=1e-12)


def test_all_local_objective_is_sum_of_local_delays():
    scn, demand, partition, allocation = build_random_state(11)
    partition.csd_sbs[:] = partition.n_sbs
    empty_req = demand
    # keep HRDs but give them zero weight so only local terms remain
    demand = DemandProfile(
        catalog=empty_req.catalog, request=empty_req.request,
        cache=empty_req.cache, task_input_bytes=empty_req.task_input_bytes,
        task_cycles=empty_req.task_cycles, local_cps=empty_req.local_cps,
        edge_cps=empty_req.edge_cps, storage_bytes=empty_req.storage_bytes,
        hrd_weight=np.full(empty_req.n_hrd, 1e-300),
        csd_weight=empty_req.csd_weight)
    rep = objective(demand, partition, allocation, build_rate_table(scn))
    expected = float((demand.csd_weight * demand.task_cycles
                      / demand.local_cps).sum())
    assert rep.csd_total_s == pytest.approx(expected, rel=1e-12)
    assert rep.csd_local_s == rep.csd_total_s
    assert rep.n_local_csd == demand.n_csd and rep.n_edge_csd == 0


def test_objective_equals_offload_gain_rearrangement():
    # Total time also equals: local-everything plus the offload differences.
    scn, demand, partition, allocation = build_random_state(13)
    table = build_rate_table(scn)
    rep = objective(demand, partition, allocation, table)
    all_local = float((demand.csd_weight * rep.t_lc).sum())
    offload_delta = sum(
        demand.csd_weight[k] * (rep.t_ul[k] + rep.t_ed[k] - rep.t_lc[k])
        for k in range(demand.n_csd)
        if partition.csd_sbs[k] < partition.n_sbs)
    assert rep.csd_total_s == pytest.approx(all_local + offload_delta,
                                            rel=1e-12)


def test_objective_separates_over_coalitions():
    scn, demand, partition, allocation = build_random_state(17)
    table = build_rate_table(scn)
    total = objective(demand, partition, allocation, table).objective
    parts = 0.0
    size_bits = demand.catalog.file_size_bytes * 8.0
    pair = pair_index(demand)
    for n in range(partition.n_sbs + 1):
        sub = 0.0
        for k in np.nonzero(partition.hrd_sbs == n)[0]:
            for i in np.nonzero(demand.request[k])[0]:
                j = pair[k, i]
                t = size_bits / (allocation.beta[j] * table.s_dl[n]
                                 * table.r_dl[n, k]) if n < partition.n_sbs else 0
                if n < partition.n_sbs and not demand.cache[n, i]:
                    t += size_bits / (allocation.eta[j] * table.s_bh[n]
                                      * table.r_bh[n])
                sub += demand.hrd_weight[k] * t
        for k in np.nonzero(partition.csd_sbs == n)[0]:
            t = demand.task_cycles[k] / demand.local_cps[k]
            if n < partition.n_sbs:
                t = (demand.task_input_bytes[k] * 8.0
                     / (allocation.alpha[k] * table.s_ul[n] * table.r_ul[n, k])
                     + demand.task_cycles[k]
                     / (allocation.gamma[k] * demand.edge_cps[n]))
            sub += demand.csd_weight[k] * t
        parts += sub
    assert parts == pytest.approx(total, rel=1e-12)


def test_raising_a_fraction_never_raises_the_objective():
    scn, demand, partition, allocation = build_random_state(19)
    table = build_rate_table(scn)
    base = objective(demand, partition, allocation, table).objective
    rng = np.random.default_rng(0)
    pk, _ = request_pairs(demand)
    for _ in range(10):
        alt = allocation.copy()
        j = int(rng.integers(len(pk)))
        alt.beta[j] = min(1.0, alt.beta[j] * 1.5)
        bumped = objective(demand, partition, alt, table).objective
        assert bumped <= base + 1e-12


def test_inconsistent_allocation_reports_offenders():
    scn, demand, partition, allocation = build_random_state(23)
    pk, pi = request_pairs(demand)
    n = partition.hrd_sbs[pk[0]]
    allocation.beta[0] = IDLE_FRAC * 0.5   # below the sentinel
    with pytest.raises(ValueError, match=rf"beta\[n={n},k={pk[0]},i={pi[0]}\]"):
        objective(demand, partition, allocation, build_rate_table(scn))


def test_allocation_of_another_shape_is_rejected():
    scn, demand, partition, allocation = build_random_state(23)
    pk, _ = request_pairs(demand)
    short_eta, short_gamma = allocation.copy(), allocation.copy()
    short_eta.eta = short_eta.eta[:-1]
    short_gamma.gamma = short_gamma.gamma[:-1]
    table = build_rate_table(scn)
    for wrong in (idle_allocation(pk.size + 1, demand.n_csd),
                  idle_allocation(pk.size, demand.n_csd - 1),
                  short_eta, short_gamma):
        with pytest.raises(ValueError, match="one fraction per request pair"):
            objective(demand, partition, wrong, table)
        msgs = audit_constraints(scn, demand, partition, wrong, table)
        assert len(msgs) == 1
        assert msgs[0].startswith("allocation: ")
        assert "one fraction per request pair" in msgs[0]


def test_association_of_another_length_is_rejected():
    scn = generate_scenario(SystemParams(seed=3), Counts(n_hrd=6, n_csd=6))
    state = abcg_init(scn, demand_for(scn))
    part = state.partition
    for name in ("hrd_sbs", "csd_sbs"):
        sbs = getattr(part, name)
        for wrong in (sbs[:-1], np.append(sbs, 0)):
            bad = dataclasses.replace(part, **{name: wrong})
            with pytest.raises(ValueError, match="association of shape"):
                objective(state.demand, bad, state.allocation, state.table)
            msgs = audit_constraints(scn, state.demand, bad, state.allocation,
                                     state.table)
            assert len(msgs) == 1 and msgs[0].startswith("association: ")


def test_audit_accepts_valid_state_and_flags_corruption():
    scn, demand, partition, allocation = build_random_state(29)
    # normalize sums so the state is budget-feasible
    pk, pi = request_pairs(demand)
    for n in range(partition.n_sbs):
        sel = np.flatnonzero(partition.hrd_sbs[pk] == n)
        if sel.size:
            total = allocation.beta[sel].sum()
            allocation.beta[sel] /= max(1.0, total)
            miss = sel[demand.cache[n, pi[sel]] == 0]
            etot = allocation.eta[miss].sum()
            if etot > 0:
                allocation.eta[miss] /= max(1.0, etot)
        csd = np.nonzero(partition.csd_sbs == n)[0]
        if csd.size:
            allocation.alpha[csd] /= max(1.0, allocation.alpha[csd].sum())
            allocation.gamma[csd] /= max(1.0, allocation.gamma[csd].sum())
    # force the rate ordering by raising eta to its floor where needed
    table = build_rate_table(scn)
    for j in range(len(pk)):
        n, k, i = partition.hrd_sbs[pk[j]], pk[j], pi[j]
        if not demand.cache[n, i]:
            need = table.eta_min[n, k] * allocation.beta[j]
            allocation.eta[j] = max(allocation.eta[j], need)
    for n in range(partition.n_sbs):   # re-normalize eta after the floors
        sel = (partition.hrd_sbs[pk] == n) & (demand.cache[partition.hrd_sbs[pk], pi] == 0)
        if sel.any():
            tot = allocation.eta[sel].sum()
            if tot > 1.0:
                allocation.eta[sel] /= tot
                allocation.beta[sel] /= tot
    assert audit_constraints(scn, demand, partition, allocation, table) == []

    broken = allocation.copy()
    k0 = np.nonzero(partition.csd_sbs < partition.n_sbs)[0]
    if k0.size:
        broken.alpha[k0[0]] = 1.5
        msgs = audit_constraints(scn, demand, partition, broken, table)
        assert any("box" in m or "budget" in m for m in msgs)


def test_audit_flags_storage_overrun():
    scn, demand, partition, allocation = build_random_state(31)
    tight = DemandProfile(
        catalog=demand.catalog, request=demand.request, cache=demand.cache,
        task_input_bytes=np.full(demand.n_csd, 1e9),
        task_cycles=demand.task_cycles, local_cps=demand.local_cps,
        edge_cps=demand.edge_cps, storage_bytes=demand.storage_bytes,
        hrd_weight=demand.hrd_weight, csd_weight=demand.csd_weight)
    partition.csd_sbs[:] = 0
    msgs = audit_constraints(scn, tight, partition, allocation,
                             build_rate_table(scn))
    assert any("storage" in m for m in msgs)
