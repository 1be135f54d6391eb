import numpy as np
import pytest

from mecsim._kernels import IDLE_FRAC
from mecsim.association import (MoveProposal, abcg_init, audit_stability,
                                evaluate_and_apply, propose_move, reallocate,
                                run_amnd, run_coalition_game)
from mecsim.content import Catalog, DemandProfile
from mecsim.delays import audit_constraints
from mecsim.radio import build_rate_table
from mecsim.scenario import Counts, SystemParams, generate_scenario
from conftest import demand_for, rate_scenario


def single_sbs_setup(cache_bit, local_cps=1.4e9, n_hrd=1, n_csd=1):
    params = SystemParams(m_sbs=1, n_mbs=1)
    scn = rate_scenario(params,
                        r_dl=np.full((1, n_hrd), 4.0),
                        r_ul=np.full((1, n_csd), 4.0),
                        r_bh=np.full(1, 9.0))
    catalog = Catalog.build(2, 0.6, file_size_bytes=5e6)
    request = np.zeros((n_hrd, 2), dtype=np.int8)
    request[:, 0] = 1
    demand = DemandProfile(
        catalog=catalog, request=request,
        cache=np.array([[cache_bit, cache_bit]], dtype=np.int8),
        task_input_bytes=np.full(n_csd, 1e5),
        task_cycles=np.full(n_csd, 1e9),
        local_cps=np.full(n_csd, local_cps),
        edge_cps=np.full(1, 6e10),
        storage_bytes=np.full(1, 2e9),
        hrd_weight=np.ones(n_hrd), csd_weight=np.ones(n_csd))
    return scn, demand


def test_init_single_cached_file_gets_full_band():
    scn, demand = single_sbs_setup(cache_bit=1)
    state = abcg_init(scn, demand)
    assert state.partition.hrd_sbs.tolist() == [0]
    assert state.allocation.beta[0, 0, 0] == 1.0
    assert state.allocation.eta[0, 0, 0] == IDLE_FRAC
    rep = state.report()
    assert rep.hrd_backhaul_s == 0.0


def test_init_two_devices_share_the_band_equally():
    scn, demand = single_sbs_setup(cache_bit=1, n_hrd=2)
    state = abcg_init(scn, demand)
    assert state.allocation.beta[0, 0, 0] == pytest.approx(0.5)
    assert state.allocation.beta[0, 1, 0] == pytest.approx(0.5)


def test_init_offload_decision_follows_the_comparison():
    # strong local CPU: offloading is slower, device computes locally
    scn, demand = single_sbs_setup(cache_bit=1, local_cps=1e12)
    state = abcg_init(scn, demand)
    assert state.partition.csd_sbs.tolist() == [1]
    # weak local CPU: offloading wins
    scn, demand = single_sbs_setup(cache_bit=1, local_cps=1e6)
    state = abcg_init(scn, demand)
    assert state.partition.csd_sbs.tolist() == [0]


def test_init_respects_storage_for_offloads():
    scn, demand = single_sbs_setup(cache_bit=1, local_cps=1e6, n_csd=3)
    tight = DemandProfile(
        catalog=demand.catalog, request=demand.request, cache=demand.cache,
        task_input_bytes=demand.task_input_bytes,
        task_cycles=demand.task_cycles, local_cps=demand.local_cps,
        edge_cps=demand.edge_cps,
        storage_bytes=np.array([demand.catalog.file_size_bytes * 2 + 2.5e5]),
        hrd_weight=demand.hrd_weight, csd_weight=demand.csd_weight)
    state = abcg_init(scn, tight)
    # room for two 1e5-byte inputs after the cached files; the third stays local
    assert state.partition.csd_sbs.tolist() == [0, 0, 1]
    assert audit_constraints(scn, tight, state.partition, state.allocation,
                             state.table) == []


def test_init_filter_prefers_sustainable_backhaul():
    # SBS 0 has the strongest access link but a backhaul that cannot keep up
    # at this band split; SBS 1 passes the filter and wins.
    params = SystemParams(a=0.8, m_sbs=2, n_mbs=1)
    scn = rate_scenario(params, r_dl=[[12.0], [4.0]], r_ul=[[4.0], [4.0]],
                        r_bh=[2.0, 17.0])
    demand = demand_for(scn, n_files=4, storage=0.0, policy="popular_first",
                        seed=1)
    table = build_rate_table(scn)
    assert table.eta_min[0, 0] > 1.0 and table.eta_min[1, 0] <= 1.0
    state = abcg_init(scn, demand, table=table)
    assert state.partition.hrd_sbs.tolist() == [1]
    assert state.fallback_hrds == []


def test_init_fallback_keeps_rate_ordering():
    # no SBS passes the filter: device falls back to the strongest gain and
    # its access fraction is capped to keep the rate ordering intact
    params = SystemParams(a=0.9, m_sbs=2, n_mbs=1)
    scn = rate_scenario(params, r_dl=[[12.0], [9.0]], r_ul=[[4.0], [4.0]],
                        r_bh=[1.0, 1.0])
    demand = demand_for(scn, n_files=4, storage=0.0, policy="popular_first",
                        seed=2)
    state = abcg_init(scn, demand)
    assert state.fallback_hrds == [0]
    assert audit_constraints(scn, demand, state.partition, state.allocation,
                             state.table) == []


def desk_state(seed=3, **kw):
    scn = generate_scenario(SystemParams(seed=seed),
                            Counts(n_hrd=12, n_csd=12))
    demand = demand_for(scn, seed=seed)
    return scn, demand, abcg_init(scn, demand, **kw)


def test_proposals_are_reproducible():
    _, _, state = desk_state()
    seq1 = [propose_move(state, "hrd", np.random.default_rng(42))
            for _ in range(25)]
    seq2 = [propose_move(state, "hrd", np.random.default_rng(42))
            for _ in range(25)]
    for a, b in zip(seq1, seq2):
        assert (a.kind, a.c_from, a.c_to, a.md_from, a.md_to) == \
            (b.kind, b.c_from, b.c_to, b.md_from, b.md_to)


def test_empty_coalition_receives_a_transfer():
    scn, demand = single_sbs_setup(cache_bit=1)
    params = SystemParams(m_sbs=2, n_mbs=1)
    scn = rate_scenario(params, r_dl=[[4.0], [3.0]], r_ul=[[4.0], [3.0]],
                        r_bh=[9.0, 9.0])
    demand = demand_for(scn, n_files=4, storage=2e9, policy="popular_first")
    state = abcg_init(scn, demand)
    # both devices sit at SBS 0; SBS 1 is empty, so every proposal transfers
    assert state.hrd_members[0] == [0] and state.hrd_members[1] == []
    rng = np.random.default_rng(0)
    for _ in range(10):
        prop = propose_move(state, "hrd", rng)
        assert prop.kind == "transfer"
        assert prop.md_from == 0 and prop.c_to == 1


def test_nonempty_pair_swaps():
    params = SystemParams(m_sbs=2, n_mbs=1)
    scn = rate_scenario(params, r_dl=[[9.0, 3.0], [3.0, 9.0]],
                        r_ul=[[4.0, 4.0], [4.0, 4.0]], r_bh=[9.0, 9.0])
    demand = demand_for(scn, n_files=4, storage=2e9, policy="popular_first")
    state = abcg_init(scn, demand)
    assert state.hrd_members[0] == [0] and state.hrd_members[1] == [1]
    rng = np.random.default_rng(1)
    prop = propose_move(state, "hrd", rng)
    assert prop.kind == "swap"
    assert {prop.md_from, prop.md_to} == {0, 1}


def test_rejected_move_leaves_state_intact():
    scn, demand, state = desk_state()
    before_assoc = state.partition.hrd_sbs.copy()
    before_f = state.objective
    before_beta = state.allocation.beta.copy()
    rng = np.random.default_rng(7)
    rejected = 0
    for _ in range(50):
        prop = propose_move(state, "hrd", rng)
        if not evaluate_and_apply(state, prop):
            rejected += 1
            assert np.array_equal(state.partition.hrd_sbs, before_assoc)
            assert state.objective == before_f
            assert np.array_equal(state.allocation.beta, before_beta)
        else:
            break
    assert rejected >= 1 or state.accepted_moves >= 1


def test_accepted_move_changes_objective_by_its_gain():
    scn, demand, state = desk_state(seed=5)
    rng = np.random.default_rng(3)
    for _ in range(300):
        prop = propose_move(state, "csd", rng)
        before = state.objective
        if evaluate_and_apply(state, prop):
            # accounting identity: the cached-value delta is applied exactly,
            # and the full delay model agrees with the caches
            assert state.objective < before - 1e-12
            state.check(tol=1e-9)
            break
    else:
        pytest.skip("no accepted move found in 300 proposals")


def test_infeasible_target_is_rejected():
    params = SystemParams(m_sbs=2, n_mbs=1)
    scn = rate_scenario(params, r_dl=[[4.0], [3.0]],
                        r_ul=[[9.0, 9.0], [2.0, 2.0]], r_bh=[9.0, 9.0])
    catalog = Catalog.build(2, 0.6, file_size_bytes=5e6)
    demand = DemandProfile(
        catalog=catalog,
        request=np.array([[1, 0]], dtype=np.int8),
        cache=np.ones((2, 2), dtype=np.int8),
        task_input_bytes=np.full(2, 4e4),
        task_cycles=np.full(2, 1e9),
        local_cps=np.full(2, 1e6),          # local is hopeless: both offload
        edge_cps=np.full(2, 6e10),
        storage_bytes=np.array([10.1e6, 10e6]),   # SBS 1 has no spare room
        hrd_weight=np.ones(1), csd_weight=np.ones(2))
    state = abcg_init(scn, demand)
    assert state.csd_members[0] == [0, 1]
    prop = MoveProposal("csd", "transfer", c_from=0, c_to=1, md_from=0)
    accepted = evaluate_and_apply(state, prop)
    assert not accepted and not prop.feasible


def test_game_rejects_zero_iteration_budget():
    _, _, state = desk_state()
    with pytest.raises(ValueError, match="t2"):
        run_coalition_game(state, "hrd", t2=0)


def test_game_trace_is_monotone():
    scn, demand, state = desk_state(seed=9, log_moves=True)
    run_coalition_game(state, "csd", t2=500, patience=200)
    run_coalition_game(state, "hrd", t2=500, patience=200)
    objs = [row[5] for row in state.move_log]
    assert all(b <= a + 1e-12 for a, b in zip(objs, objs[1:]))
    state.check()


def test_stabilized_game_passes_the_exhaustive_audit():
    scn, demand, state = desk_state(seed=11)
    run_coalition_game(state, "csd", t2=200)
    run_coalition_game(state, "hrd", t2=200)
    assert audit_stability(state) == []


def test_patience_zero_without_stabilization_changes_nothing():
    scn, demand, state = desk_state(seed=13)
    init_assoc = state.partition.hrd_sbs.copy()
    init_f = state.objective
    final = run_amnd(scn, demand, t2=100, patience=0, stabilize=False,
                     init_state=state)
    # output is the initializer followed by one guarded reallocation
    assert final.accepted_moves == 0
    assert np.array_equal(final.partition.hrd_sbs, init_assoc)
    assert final.objective <= init_f + 1e-12
    assert audit_constraints(scn, demand, final.partition, final.allocation,
                             final.table) == []


def test_optimizer_never_loses_to_the_initializer():
    for seed in range(8):
        scn = generate_scenario(SystemParams(seed=seed),
                                Counts(n_hrd=10, n_csd=10))
        demand = demand_for(scn, seed=seed)
        state0 = abcg_init(scn, demand)
        final = run_amnd(scn, demand, init_state=state0)
        assert final.objective <= state0.objective + 1e-9
        diffs = np.diff(np.array(final.trace))
        assert np.all(diffs <= 1e-12)


def test_second_round_accepts_no_move():
    # The two games share no constraint, each ends stabilized, and the
    # reallocation only lowers cached values: another round is a no-op.
    scn = generate_scenario(SystemParams(seed=21), Counts(n_hrd=10, n_csd=10))
    demand = demand_for(scn, seed=21)
    state = run_amnd(scn, demand)
    assert len(state.trace) == 4
    f, moves = state.objective, state.accepted_moves
    hrd_sbs = state.partition.hrd_sbs.copy()
    csd_sbs = state.partition.csd_sbs.copy()
    run_coalition_game(state, "csd", t2=2000)
    run_coalition_game(state, "hrd", t2=2000)
    reallocate(state)
    assert state.accepted_moves == moves
    assert state.objective == f
    assert np.array_equal(state.partition.hrd_sbs, hrd_sbs)
    assert np.array_equal(state.partition.csd_sbs, csd_sbs)


def test_trace_does_not_rise_from_roundoff():
    # Desk seed 542: summing the objective move by move drifted below the
    # recomputed sum, so the final reallocation raised F by 1.1e-12.
    scn = generate_scenario(SystemParams(seed=542), Counts(n_hrd=20, n_csd=20))
    demand = demand_for(scn, seed=542)
    state = run_amnd(scn, demand)
    assert np.diff(state.trace).max() <= 1e-12


def test_tiny_instance_reaches_an_exhaustively_stable_point():
    scn = generate_scenario(SystemParams(seed=2, m_sbs=2, n_mbs=1),
                            Counts(n_hrd=3, n_csd=3))
    demand = demand_for(scn, seed=2, n_files=6, storage=15.6e6)
    final = run_amnd(scn, demand)
    assert audit_stability(final) == []
    final.check()
