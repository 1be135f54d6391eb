import dataclasses
import functools
import gc
import hashlib
import math
import weakref
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

import mecsim
from mecsim import _kernels, association
from mecsim.allocation import oracle_solve_p3
from mecsim._kernels import BYTES_TOL, FEAS_TOL, IDLE_FRAC, hrd_closed_form
from mecsim.association import (IMPROVE_MARGIN, GameState, _draw_weights,
                                _neighbourhood, _tentative_members,
                                abcg_init, audit_stability, game_budget,
                                reallocate, run_amnd, run_coalition_game,
                                write_move_log)
from mecsim.content import Catalog, DemandProfile, build_demand, demand_rng
from mecsim.delays import audit_constraints
from mecsim.experiments import ExperimentConfig
from mecsim.scenario import (Counts, ReadAhead, SystemParams,
                             generate_scenario)
from conftest import demand_for, game_sums, idle_allocation, rate_scenario, \
    whole_block
from reference import (ATTEMPTS, MoveProposal, _evaluate, check_state,
                       check_sums, evaluate_and_apply, member_pairs,
                       propose_move, solve_p3)


def coalition_value(costs, game, c, members):
    """The closed-form value of ``members`` as coalition ``c`` of ``game``
    ("hrd" or "csd"), +inf where it is infeasible."""
    kernel = _kernels.hrd_value if game == "hrd" else _kernels.csd_value
    return kernel(costs, c, members)


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
    assert state.allocation.beta.tolist() == [1.0]
    assert state.allocation.eta.tolist() == [IDLE_FRAC]
    rep = state.report()
    assert rep.hrd_backhaul_s == 0.0


def test_init_two_devices_share_the_band_equally():
    scn, demand = single_sbs_setup(cache_bit=1, n_hrd=2)
    state = abcg_init(scn, demand)
    assert state.allocation.beta == pytest.approx([0.5, 0.5])


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
    state = abcg_init(scn, demand)
    assert state.table.eta_min[0, 0] > 1.0 and state.table.eta_min[1, 0] <= 1.0
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


def desk_state(seed=3):
    scn = generate_scenario(SystemParams(seed=seed),
                            Counts(n_hrd=12, n_csd=12))
    demand = demand_for(scn, seed=seed)
    return scn, demand, abcg_init(scn, demand)


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
    sums = game_sums(state, "hrd")
    rejected = 0
    for _ in range(50):
        prop = propose_move(state, "hrd", rng)
        if not evaluate_and_apply(state, sums, prop):
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
    sums = game_sums(state, "csd")
    for _ in range(300):
        prop = propose_move(state, "csd", rng)
        before = state.objective
        if evaluate_and_apply(state, sums, prop):
            # accounting identity: the cached-value delta is applied exactly,
            # and the full delay model agrees with the caches
            assert state.objective < before - 1e-12
            check_state(state)
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
    accepted = evaluate_and_apply(state, game_sums(state, "csd"), prop)
    assert not accepted and prop.dv == math.inf


def _budget(t2=None, patience=None):
    """A stand-in for ``association.game_budget`` that sets ``t2`` or
    ``patience`` in place of the instance's own."""
    def budget(n_hrd, n_csd):
        own_t2, own_patience = game_budget(n_hrd, n_csd)
        return (own_t2 if t2 is None else t2,
                own_patience if patience is None else patience)
    return budget


def test_run_amnd_plays_each_game_on_the_instance_budget(monkeypatch):
    # The budget has one owner: both games of a solve ask ``game_budget``
    # for the instance's, 100 proposals and a patience of 50 per device,
    # and each random phase ends where that budget ends it.
    asked = []

    def budget(n_hrd, n_csd):
        asked.append((n_hrd, n_csd))
        return game_budget(n_hrd, n_csd)

    monkeypatch.setattr(association, "game_budget", budget)
    assert game_budget(20, 20) == (4000, 2000)
    desk = generate_scenario(SystemParams(seed=0), Counts(n_hrd=20, n_csd=20))
    few = generate_scenario(SystemParams(seed=1), Counts(n_hrd=3, n_csd=2))
    for scn, demand in ((desk, demand_for(desk, seed=0)),
                        (few, demand_for(few, seed=1, n_files=6,
                                         storage=15.6e6))):
        asked.clear()
        state = run_amnd(scn, demand)
        assert asked == [(scn.n_hrd, scn.n_csd)] * 2, scn.n_hrd
        assert len(_random_phase_ends(
            state, *game_budget(scn.n_hrd, scn.n_csd))) == 2, scn.n_hrd


def test_empty_deployment_solves_to_zero():
    # No device: no game holds a member to move, so no random phase runs,
    # and every stage leaves F at 0.
    scn = generate_scenario(SystemParams(seed=0), Counts(n_hrd=0, n_csd=0))
    state = run_amnd(scn, demand_for(scn, seed=0))
    assert state.objective == 0.0 and state.trace == [0.0] * 3
    assert state.proposals == 0 and audit_stability(state) == []
    check_state(state)


def test_game_trace_is_monotone():
    scn, demand, state = desk_state(seed=9)
    run_coalition_game(state, "csd")
    run_coalition_game(state, "hrd")
    objs = [row[4] for row in state.move_log]
    assert all(b <= a + 1e-12 for a, b in zip(objs, objs[1:]))
    check_state(state)


def test_stabilized_game_passes_the_exhaustive_audit():
    scn, demand, state = desk_state(seed=11)
    run_coalition_game(state, "csd")
    run_coalition_game(state, "hrd")
    assert audit_stability(state) == []


def test_patience_zero_leaves_every_accept_to_the_sweep(monkeypatch):
    # A patience of 0 ends each random phase before it judges a move: its
    # row holds zeros, and every accept of the solve is its sweeps'.
    scn, demand, state = desk_state(seed=13)
    monkeypatch.setattr(association, "game_budget", _budget(100, 0))
    final = run_amnd(scn, demand, init_state=state)
    assert [row[2:] for row in final.phases if row[1] == "random"] == \
        [(0, 0, 0, 0, 0)] * 2
    assert sum(row[3] for row in final.phases if row[1] == "stabilize") == \
        final.accepted_moves > 0


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
    # The two games share no constraint, each ends stabilized, and its
    # allocation step only lowers cached values: another round is a no-op.
    scn = generate_scenario(SystemParams(seed=21), Counts(n_hrd=10, n_csd=10))
    demand = demand_for(scn, seed=21)
    state = run_amnd(scn, demand)
    assert len(state.trace) == 3
    f, moves = state.objective, state.accepted_moves
    hrd_sbs = state.partition.hrd_sbs.copy()
    csd_sbs = state.partition.csd_sbs.copy()
    run_coalition_game(state, "csd")
    run_coalition_game(state, "hrd")
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
    check_state(final)


@pytest.fixture(scope="module")
def bound_runs():
    """(ABCG state, AMND state) on the default workload at a = 0.9, seeds
    0-9, where many devices have rho above 1 and their rate orderings bind
    on many moves."""
    runs = []
    for seed in range(10):
        scn = generate_scenario(SystemParams(seed=seed, a=0.9),
                                Counts(n_hrd=20, n_csd=40))
        demand = demand_for(scn)
        init = abcg_init(scn, demand)
        runs.append((init, run_amnd(scn, demand, init_state=init)))
    return runs


def bound_final_state():
    """Seed 4, default workload: AMND ends with HRDs 12 and 15 at SBS 3,
    where device 15's rate ordering binds (rho = 1.33)."""
    scn = generate_scenario(SystemParams(seed=4), Counts(n_hrd=20, n_csd=40))
    state = run_amnd(scn, demand_for(scn))
    assert state.hrd_members[3] == [12, 15]
    return state


@pytest.fixture(scope="module")
def desk_runs():
    """(ABCG state, AMND state) on the criterion-2 desk, seeds 0-19."""
    runs = []
    for seed in range(20):
        scn = generate_scenario(SystemParams(seed=seed),
                                Counts(n_hrd=20, n_csd=20))
        demand = demand_for(scn, seed=seed)
        init = abcg_init(scn, demand)
        runs.append((init, run_amnd(scn, demand, init_state=init)))
    return runs


def _hood(state, game):
    """``_neighbourhood`` of ``game`` at the state's shape."""
    return _neighbourhood(association._association(state, game).size,
                          state.n_sbs + (game == "csd"))


def _move_at(state, game, q):
    """The move at position ``q`` of ``_neighbourhood``'s arrays at the
    current partition, or None where it moves nothing (a transfer into the
    device's own coalition, a swap within one)."""
    assoc = association._association(state, game)
    hood = _hood(state, game)
    swap, i, j = hood.swap.item(q), hood.rows.item(2, q), hood.rows.item(3, q)
    to = hood.rows.item(5, q)
    a = int(assoc[i])
    b = int(assoc[to]) if to < assoc.size else to - assoc.size
    if a == b:
        return None
    return MoveProposal(game, "swap" if swap else "transfer", c_from=a,
                        c_to=b, md_from=i, md_to=j if swap else None)


def _moves(state, game):
    """The moves of ``_neighbourhood``'s arrays, one at a time.  The
    association is read at each yield, so a consumer that applies a move
    sees the next moves drawn from the updated partition."""
    for q in range(_hood(state, game).swap.size):
        prop = _move_at(state, game, q)
        if prop is not None:
            yield prop


def _scratch_value(state, lists, cache, prop):
    """``(v_src, v_dst, dv)`` of ``prop`` at a state whose coalitions of
    ``prop.game`` hold the members ``lists`` and cache the values
    ``cache``, valued from scratch: one ``coalition_value`` per tentative
    coalition, +inf where it is infeasible, and then so is ``dv``."""
    src, dst = _tentative_members(lists, prop.c_from, prop.c_to,
                                  prop.md_from, prop.md_to)
    v_src = coalition_value(state.costs, prop.game, prop.c_from, src)
    v_dst = coalition_value(state.costs, prop.game, prop.c_to, dst)
    return v_src, v_dst, (v_src + v_dst) - (cache[prop.c_from]
                                            + cache[prop.c_to])


def _check_moves_against_scratch(state, games=("hrd", "csd")):
    """Every move of ``games``, valued from the running sums, against the
    from-scratch valuation of its two tentative coalitions.  Returns the
    number of infeasible moves per game."""
    infeasible = {"hrd": 0, "csd": 0}
    for game in games:
        cache = state.v_hrd if game == "hrd" else state.v_csd
        sums = game_sums(state, game)
        lists = state.hrd_members if game == "hrd" else state.csd_members
        for prop in _moves(state, game):
            v_src, v_dst, dv = _scratch_value(state, lists, cache, prop)
            _evaluate(state, sums, prop)
            assert (prop.dv == math.inf) == (math.inf in (v_src, v_dst)), prop
            assert prop.dv == dv or abs(prop.dv - dv) <= \
                1e-12 * max(1.0, abs(v_src) + abs(v_dst)), (prop, dv)
            infeasible[game] += prop.dv == math.inf
    return infeasible


def test_running_sums_value_every_move_like_the_closed_form(desk_runs):
    for init, final in desk_runs:
        _check_moves_against_scratch(init)
        _check_moves_against_scratch(final)


def _count_floor_valuations(monkeypatch):
    """Record ``(coalition, size)`` of every ``_kernels.hrd_value`` call the
    game makes (its flagged sides), and require each result to be feasible
    and to equal the numerical optimum of ``solve_p3``."""
    calls = []
    inner = association.hrd_value

    def counted(costs, c, members):
        calls.append((c, len(members)))
        value = inner(costs, c, members)
        sol = solve_p3(costs, c, members, "hrd")
        assert math.isfinite(value) and sol["feasible"]
        assert value == pytest.approx(sol["objective"], rel=1e-9), \
            (c, members)
        return value

    monkeypatch.setattr(association, "hrd_value", counted)
    return calls


def test_running_sums_fall_back_where_floors_bind(monkeypatch):
    # A rate ordering binds at SBS 3, so moves touching SBS 3 must be
    # valued over their members' pairs; every HRD move is feasible.
    state = bound_final_state()
    sums, c = game_sums(state, "hrd"), np.array([3])
    none = np.array([sums.none])
    _, floor = sums.after(c, none, none, sums.size[c])
    assert floor.tolist() == [True]
    fallbacks = _count_floor_valuations(monkeypatch)
    _check_moves_against_scratch(state, games=("csd",))
    assert fallbacks == []
    assert _check_moves_against_scratch(state, games=("hrd",))["hrd"] == 0
    assert 3 in [c for c, _ in fallbacks]


@pytest.fixture(scope="module")
def multi_request_run():
    """(ABCG state, AMND state) of the desk with two requests per HRD and
    100 files, so a device holds several missed pairs under one rho."""
    scn = generate_scenario(SystemParams(seed=3), Counts(n_hrd=20, n_csd=20))
    demand = demand_for(scn, n_files=100, requests_per_hrd=2)
    init = abcg_init(scn, demand)
    return init, run_amnd(scn, demand, init_state=init)


def test_running_sums_value_multi_request_moves(monkeypatch,
                                                multi_request_run):
    # The same workload at a = 0.9, where rate orderings bind on many moves.
    scn = generate_scenario(SystemParams(seed=3, a=0.9),
                            Counts(n_hrd=20, n_csd=20))
    bound = abcg_init(scn, demand_for(scn, n_files=100, requests_per_hrd=2))
    fallbacks = _count_floor_valuations(monkeypatch)
    for state in list(multi_request_run) + [bound]:
        _check_moves_against_scratch(state)
    assert fallbacks
    # Four members hold eight pairs, where numpy starts summing pairwise.
    assert max(size for _, size in fallbacks) >= 4


def _random_hrd_side(rng):
    """``hrd_closed_form`` inputs of two to five devices with one to three
    pairs each.  Every missed pair of a device shares its rho, drawn from
    0.05 to 3, so orderings bind on some sides.  On one side in four every
    rho is scaled so that the largest device ratio times ``sb`` exceeds
    ``sd`` by a relative 1e-12 or less: an ordering that only just binds."""
    d, miss = [], []
    for _ in range(rng.integers(2, 6)):
        n_pairs = rng.integers(1, 4)
        rho = rng.uniform(0.05, 3.0)
        for _ in range(n_pairs):
            if rng.random() < 0.8:
                miss.append([len(d), rng.uniform(0.05, 2.0), rho])
            d.append(rng.uniform(0.1, 2.0))
    if miss and rng.random() < 0.25:
        sb = _kernels._sum([s for _, s, _ in miss])
        ratio = max(r * d[i] / s for i, s, r in miss)
        scale = _kernels._sum(d) / (ratio * sb) * (1.0 + rng.uniform(0, 1e-12))
        for m in miss:
            m[2] *= scale
    return d, [tuple(m) for m in miss]


def test_feasible_floor_bound_side_is_worth_its_relaxed_bound():
    # ``_Block.screen`` rejects a flagged proposal from this bound: the
    # exact value solves a problem whose relaxation, without the rate
    # orderings, is worth sd**2 + sb**2.
    rounding = 1e-13
    assert rounding < 1e-3 * association.SLACK
    rng = np.random.default_rng(20)
    binding = marginal = 0
    for _ in range(4000):
        d, miss = _random_hrd_side(rng)
        beta, eta, value, _ = hrd_closed_form(d, miss)
        sd, sb = sum(d), sum(s for _, s, _ in miss)
        relaxed = sd ** 2 + sb ** 2
        assert value >= relaxed * (1.0 - rounding), (d, miss)
        assert sum(beta) <= 1.0 + FEAS_TOL and sum(eta) <= 1.0 + FEAS_TOL
        assert all(e >= r * beta[i] * (1.0 - FEAS_TOL)
                   for e, (i, _, r) in zip(eta, miss)), (d, miss)
        ratio = max([r * d[i] / s for i, s, r in miss], default=0.0)
        binding += ratio * sb > sd
        marginal += 1.0 < ratio * sb / sd <= 1.0 + 2e-12
    assert binding > 1000 and marginal > 100


def test_screen_skips_only_moves_that_cannot_be_accepted(desk_runs,
                                                         multi_request_run,
                                                         bound_runs):
    states = [state for run in desk_runs + bound_runs for state in run]
    states += list(multi_request_run)
    states.append(bound_final_state())
    screened_out = feasible_out = 0
    for n, state in enumerate(states):
        block = whole_block(state, "hrd")
        contenders = block.screen()
        flagged = np.flatnonzero(block.floor).tolist()
        assert set(contenders) <= set(flagged), n
        rejects = sorted(set(flagged) - set(contenders))
        for q in rejects:
            dv = block.value(q)
            assert dv >= -IMPROVE_MARGIN, (n, q, dv)
            feasible_out += dv < math.inf
        screened_out += len(rejects)
    assert screened_out > 1000 and feasible_out > 0


def _phase_moves(state):
    """Each row of ``state.phases``, with the number of the solve's
    proposals before its phase and the move log rows of its accepts."""
    log, before, out = iter(state.move_log), 0, []
    for row in state.phases:
        out.append((row, before, [next(log) for _ in range(row[3])]))
        before += row[2]
    return out


def _random_phase_ends(state, t2, patience):
    """Check each random row of ``state.phases`` against the budget ``(t2,
    patience)``, with its accepts read from the move log: they are in
    order, none is its first proposal, and the phase ends when the wait
    after its last accept reaches the budget left, ``min(t2 - done,
    patience)``.  Returns, per row, whether ``t2`` ended it."""
    ends = []
    for row, before, moves in _phase_moves(state):
        if row[1] == "random":
            accepts = [move[0] - before for move in moves]
            assert accepts == sorted(set(accepts)) and accepts[:1] != [0]
            done = accepts[-1] if accepts else 0
            assert row[2] == done + min(t2 - done, patience), \
                (row, accepts, t2, patience)
            ends.append(t2 - done <= patience)
    return ends


def _moves_that_move(state, game):
    """The transfers and swaps of ``game`` that move a device at the
    state's partition: into another coalition, or with a device of
    another coalition."""
    assoc = (state.partition.hrd_sbs if game == "hrd"
             else state.partition.csd_sbs)
    n_coal = state.n_sbs + (game == "csd")
    n, size = assoc.size, np.bincount(assoc, minlength=n_coal)
    pairs = (n * (n - 1) - int((size * (size - 1)).sum())) // 2
    return n * (n_coal - 1) + pairs


def test_each_phase_records_its_work(desk_runs, multi_request_run):
    # Each phase of a game counts its own work once, where it is done: a
    # solve holds the rows of the CSD game's random phase and sweep, then
    # the HRD game's, and their proposals and accepts are the solve's.
    # The random phase values one block per accept and one more, at the
    # partition it ends on; only an HRD side has a rate ordering to value
    # exactly.
    exact = 0
    for n, (init, final) in enumerate(desk_runs + [multi_request_run]):
        assert init.phases == [] and final.clone().phases == final.phases
        assert [row[:2] for row in final.phases] == [
            ("csd", "random"), ("csd", "stabilize"), ("hrd", "random"),
            ("hrd", "stabilize")], n
        assert sum(row[2] for row in final.phases) == final.proposals, n
        assert sum(row[3] for row in final.phases) == final.accepted_moves, n
        for game, phase, _, accepts, blocks, rows, valued in final.phases:
            assert phase == "stabilize" or blocks == accepts + 1, (n, game)
            assert 0 < blocks <= rows, (n, game, phase)
            assert game == "hrd" or valued == 0, (n, phase)
            exact += valued
    assert exact > 0


def test_game_values_each_accepted_block_move_once(desk_runs):
    # The random phase values the drawable moves once per partition, as one
    # block: once before each accept, which it applies with that block's
    # valuation, and once at the partition it ends on.  The library holds
    # no one-at-a-time draw or valuation (they live in the tests'
    # ``reference`` module), and every proposal of the sweep is a valued
    # block row, counted once: after its last accept, the sweep judges
    # each move at the partition its game ends on once.
    finals = [final for _, final in desk_runs]
    # Few devices among 15 SBSs: most coalitions are empty.
    for seed in range(4):
        scn = generate_scenario(SystemParams(seed=seed),
                                Counts(n_hrd=3, n_csd=2))
        finals.append(run_amnd(scn, demand_for(scn, seed=seed, n_files=6,
                                               storage=15.6e6)))
    tally = dict.fromkeys(("accepts", "blocks", "proposals"), 0)
    for n, final in enumerate(finals):
        for row, before, moves in _phase_moves(final):
            game, phase, proposals, accepts, blocks, rows, _ = row
            if phase == "random":
                assert blocks == accepts + 1, (n, game)
                for key, count in zip(tally, (accepts, blocks, proposals)):
                    tally[key] += count
                continue
            assert proposals <= rows, (n, game)
            last = moves[-1][0] if moves else before
            assert before + proposals - last == \
                _moves_that_move(final, game), (n, game)
    assert not any(hasattr(module, name) for module in (mecsim, association)
                   for name in ("propose_move", "evaluate_and_apply",
                                "_evaluate", "_bounded", "ATTEMPTS", "MASK32"))
    assert 0 < tally["accepts"] < sum(f.accepted_moves for f in finals)
    # Most proposals of a phase are rejections that are counted, not drawn.
    assert tally["proposals"] > 10 * tally["blocks"]


def test_skipped_tail_ends_where_a_logged_run_ends(monkeypatch, tmp_path,
                                                   desk_runs):
    # The random phase counts its rejections, the tail that ends it
    # included, without drawing them, and logs only its accepts.  Read
    # against the move log, each phase ends when the wait after its last
    # accept reaches the budget left, ``min(t2 - done, patience)``; and a
    # solve from a clone of the initial state ends where a fresh solve
    # ends, generators and log included.
    cases = [(init.scenario, init.demand, {}) for init, _ in desk_runs[:5]]
    for seed in (3, 4):
        scn = generate_scenario(SystemParams(seed=seed, a=0.9),
                                Counts(n_hrd=20, n_csd=20))
        cases.append((scn, demand_for(scn, n_files=100, requests_per_hrd=2),
                      {}))
    scn = generate_scenario(SystemParams(seed=1), Counts(n_hrd=3, n_csd=2))
    cases.append((scn, demand_for(scn, seed=1, n_files=6, storage=15.6e6),
                  {}))
    for scn, demand, _ in cases[:2]:
        cases += [(scn, demand, {"t2": 40}), (scn, demand, {"patience": 3})]
    ends = set()
    for n, (scn, demand, kw) in enumerate(cases):
        monkeypatch.setattr(association, "game_budget", _budget(**kw))
        fresh = run_amnd(scn, demand)
        cloned = run_amnd(scn, demand, init_state=abcg_init(scn, demand))
        assert _solve_fingerprint(fresh, tmp_path / "fresh.csv") == \
            _solve_fingerprint(cloned, tmp_path / "cloned.csv"), n
        assert fresh.phases == cloned.phases, n
        ends.update(_random_phase_ends(
            fresh, *association.game_budget(scn.n_hrd, scn.n_csd)))
    # Phases end on the game budget and on the patience alike.
    assert ends == {False, True}


def _land(r: int, n: int) -> int:
    """A uint32 that Lemire's multiply-shift with bound ``n`` maps to ``r``,
    outside its rejection zone: the largest one, whose low product is at
    least ``2**32 - n``."""
    return (((r + 1) << 32) - 1) // n


def _support(lists):
    """Every move ``propose_move`` can draw for coalitions of members
    ``lists``, with its probability, found by feeding it one attempt per
    slot outcome: each ordered coalition pair, each member of the side that
    leaves (the first, unless it is empty) and each member of the other
    side.  A swap is keyed by the set of its two devices, a transfer by its
    device and target."""
    n_coal, sizes = len(lists), [len(c) for c in lists]
    pairs = n_coal * (n_coal - 1)
    weights = {}
    for pair in range(pairs):
        m, n = divmod(pair, n_coal - 1)
        n += n >= m
        a, b = (m, n) if lists[m] else (n, m)
        # An empty side's draw is read unused, so it stands for 1 outcome.
        bound_a, bound_b = max(sizes[a], 1), max(sizes[b], 1)
        for i in range(bound_a):
            for j in range(bound_b):
                slot = iter([_land(pair, pairs), _land(i, bound_a),
                             _land(j, bound_b)])
                try:
                    prop = propose_move(SimpleNamespace(hrd_members=lists),
                                        "hrd", slot.__next__)
                except StopIteration:
                    # No member in the pair: the next attempt is read.
                    assert not lists[m] and not lists[n], pair
                    continue
                assert next(slot, None) is None
                key = (("swap", frozenset((prop.md_from, prop.md_to)))
                       if prop.kind == "swap" else
                       ("transfer", prop.md_from, prop.c_to))
                weights[key] = weights.get(key, 0) + Fraction(
                    1, pairs * bound_a * bound_b)
    total = sum(weights.values())
    return {key: w / total for key, w in weights.items()}


@pytest.mark.parametrize("sizes", [
    [0, 3, 0, 1, 0, 0, 2, 5], [0, 0, 0, 2], [1, 1, 1], [3, 0, 0],
    [0, 3], [1, 2], [2, 2],           # two coalitions
])
def test_drawable_count_matches_propose_move_support(sizes):
    lists = [[10 * c + k for k in range(size)] for c, size in enumerate(sizes)]
    support = _support(lists)
    # A swap of two devices of different coalitions, or a transfer into an
    # empty coalition: the moves the random phase weighs.
    members = sum(lists, [])
    moves = {("swap", frozenset((i, j))): (i // 10, j // 10)
             for i in members for j in members if i // 10 < j // 10}
    moves.update({("transfer", i, c): (i // 10, c) for i in members
                  for c, size in enumerate(sizes) if size == 0})
    assert set(moves) == set(support)
    # A uniform ordered pair among the pairs holding a member, then uniform
    # members: each move is drawn from two ordered pairs.
    empty = sizes.count(0)
    holding = len(sizes) * (len(sizes) - 1) - empty * (empty - 1)
    a, b = (np.array(x) for x in zip(*moves.values()))
    weights = _draw_weights(np.array(sizes, dtype=np.int64), a, b)
    for key, weight in zip(moves, weights.tolist()):
        devices = key[1] if key[0] == "swap" else (key[1],)
        sides = np.prod([sizes[k // 10] for k in devices])
        assert support[key] == Fraction(2, holding * int(sides)), key
        assert weight == float(support[key]), key


def test_drawable_block_holds_propose_move_support(desk_runs):
    # The random phase's drawable block holds each move ``propose_move``
    # can draw once, and weighs it by its exact probability, rounded once.
    for init, final in desk_runs[:5]:
        for state in (init, final):
            for game in ("hrd", "csd"):
                block = whole_block(state, game, drawable=True)
                lists = state.hrd_members if game == "hrd" \
                    else state.csd_members
                rows = [("swap", frozenset((i, j))) if swap else
                        ("transfer", i, to)
                        for swap, i, j, to in zip(
                            block.swap.tolist(), block.i.tolist(),
                            block.j.tolist(), block.b.tolist())]
                support = _support(lists)
                assert len(set(rows)) == len(rows) == len(support)
                weights = _draw_weights(block.sums.size, block.a,
                                        block.b).tolist()
                assert weights == [float(support[key]) for key in rows], game
    # ``_neighbourhood`` is built once per shape and shared, so read-only.
    hood = _neighbourhood(20, 15)
    assert hood is _neighbourhood(20, 15)
    assert not any(x.flags.writeable for x in hood)


def _mask(x):
    """A block's mask as a list, or None where its game has none."""
    return None if x is None else x.tolist()


def test_swap_is_valued_alike_from_either_side(desk_runs, multi_request_run,
                                               bound_runs):
    # The random phase rests on this: it values each drawable swap once,
    # from one side, whichever side ``propose_move`` would draw it from.
    states = [state for run in desk_runs + bound_runs for state in run]
    states += list(multi_request_run)
    states.append(bound_final_state())
    floor_bound = 0
    for state in states:
        for game in ("hrd", "csd"):
            block = whole_block(state, game)
            at = np.flatnonzero(block.swap)
            a, b, i, j = (x[at] for x in (block.a, block.b, block.i,
                                          block.j))
            swap, sums = np.ones(at.size, dtype=bool), block.sums
            ahead = association._Block(state, sums, swap,
                                       association._move_rows(swap, i, j),
                                       np.stack((a, b)))
            back = association._Block(state, sums, swap,
                                      association._move_rows(swap, j, i),
                                      np.stack((b, a)))
            # An infeasible side's +inf is in ``dv``, and a CSD block holds
            # no ``floor``.
            assert ahead.dv.tobytes() == back.dv.tobytes()
            assert _mask(ahead.floor) == _mask(back.floor)
            flagged = ([] if ahead.floor is None
                       else np.flatnonzero(ahead.floor).tolist())
            for q in flagged:
                assert ahead.value(q) == back.value(q), (game, q)
                floor_bound += 1
    assert floor_bound > 100


def test_running_sums_track_storage_load():
    # 250 kB of spare storage per SBS holds two 100 kB task inputs.
    scn = generate_scenario(SystemParams(seed=1), Counts(n_hrd=20, n_csd=40))
    state = abcg_init(scn, demand_for(scn, storage=25.25e6))
    assert _check_moves_against_scratch(state)["csd"] > 0


def test_an_overrun_side_makes_its_move_worth_inf():
    # Extended value: a CSD side whose stored bytes overrun its room is
    # worth +inf, so its move's ``dv`` is +inf, whatever the other side
    # gains, and no block counts it as improving; the arithmetic raises no
    # invalid-value warning.
    overrun = gaining_swaps = 0
    for seed in range(1, 6):
        scn = generate_scenario(SystemParams(seed=seed),
                                Counts(n_hrd=20, n_csd=20))
        demand = demand_for(scn, storage=25.25e6)
        # 250 kB of spare storage per SBS holds a 100 kB and a 150 kB task
        # input, but not two 150 kB ones, so swaps can overrun too; unequal
        # local speeds let the local side of a swap gain.
        n_csd = demand.n_csd
        demand = dataclasses.replace(
            demand,
            task_input_bytes=np.where(np.arange(n_csd) % 2, 150e3, 100e3),
            local_cps=demand.local_cps * np.linspace(0.5, 1.5, n_csd))
        state = abcg_init(scn, demand)
        costs = state.costs
        room = costs.spare_bytes + BYTES_TOL
        with np.errstate(invalid="raise"):
            block = whole_block(state, "csd")
            win = block.improving()
        for q in range(len(block)):
            swap, a, b = block.swap.item(q), block.a.item(q), block.b.item(q)
            sides = list(zip((a, b), _tentative_members(
                state.csd_members, a, b, block.i.item(q),
                block.j.item(q) if swap else None)))
            over = [c < state.n_sbs
                    and costs.task_bytes[members].sum() > room[c]
                    for c, members in sides]
            if not any(over):
                assert block.dv[q] < np.inf, (seed, q)
                continue
            overrun += 1
            assert block.dv[q] == np.inf and not win[q], (seed, q)
            for (c, members), bad in zip(sides, over):
                value = _kernels.csd_value(costs, c, members)
                if bad:
                    assert value == math.inf, (seed, q, c)
                elif swap:
                    gaining_swaps += value < state.v_csd[c]
    assert overrun > 100 and gaining_swaps > 0


def _cased_csd_after(sums, c, out, inn, size):
    """``CoalitionSums.after`` of CSD sides in the form that cases the
    local row: every row of the terms table holds the local delays, the
    local row's room is 0, and ``where`` picks the local row's value and
    feasibility.  Returns the values, +inf where infeasible, and the
    feasibility.  The reference for the one-expression form."""
    costs, n_sbs, none = sums.costs, sums.n_sbs, sums.none
    table = np.zeros((n_sbs + 1, sums.stride, 4))
    table[:n_sbs, :none, 0] = costs.sqrt_ul
    table[:n_sbs, :none, 1] = costs.sqrt_ed
    table[:, :none, 2] = costs.task_bytes
    table[:, :none, 3] = costs.local_delay_w
    terms = table.reshape(-1, 4)
    row = c * sums.stride
    su, se, load, local = (sums.sums[c] - terms[row + out]
                           + terms[row + inn]).T
    is_local, empty = c == n_sbs, size == 0
    value = np.where(is_local, local, su * su + se * se)
    room = np.append(costs.rows.room, 0.0)
    feasible = is_local | (load <= room[c]) | empty
    return np.where(empty, 0.0, np.where(feasible, value, np.inf)), feasible


def test_csd_sides_hold_exact_zeros_outside_their_row(desk_runs):
    # A CSD side is valued as ``su*su + se*se + local``, or +inf unless
    # ``load <= room``: the terms it adds are exact zeros (no local delay in
    # an SBS row, no root cost in the local row) and the local row's room
    # is +inf, so every side of every move gets the bits of the cased form.
    states = [state for run in desk_runs for state in run]
    for seed in range(4):
        scn = generate_scenario(SystemParams(seed=seed),
                                Counts(n_hrd=20, n_csd=40))
        # 250 kB of spare storage per SBS holds two 100 kB task inputs.
        for storage in (28e6, 25.25e6):
            init = abcg_init(scn, demand_for(scn, storage=storage))
            states += [init, run_amnd(scn, init.demand, init_state=init)]
    local_sides = emptied = full = 0
    for state in states:
        block, n_sbs = whole_block(state, "csd"), state.n_sbs
        sums = block.sums
        table = sums.terms.reshape(n_sbs + 1, sums.stride, 4)
        assert not table[:n_sbs, :, 3].any() and not table[n_sbs, :, :2].any()
        assert sums.room[n_sbs] == np.inf
        step = block.swap.astype(np.int64) - 1
        args = (block.ends.reshape(-1), np.concatenate((block.i, block.j)),
                np.concatenate((block.j, block.i)),
                sums.size.take(block.ends.reshape(-1))
                + np.concatenate((step, -step)))
        value, floor = sums.after(*args)
        ref_value, ref_feasible = _cased_csd_after(sums, *args)
        assert floor is None
        assert value.tobytes() == ref_value.tobytes()
        assert (value < np.inf).tolist() == ref_feasible.tolist()
        local_sides += np.count_nonzero(args[0] == n_sbs)
        emptied += np.count_nonzero(args[3] == 0)
        full += np.count_nonzero(value == np.inf)
    assert local_sides > 1000 and emptied > 100 and full > 100


def test_each_game_builds_its_own_running_sums(monkeypatch):
    # The running sums are the game's, not the state's: the initializer
    # and a clone build none, and a solve builds one per game, from the
    # member lists at the game's start.
    built = []
    inner = association.CoalitionSums

    def counted(costs, game, lists):
        built.append(game)
        return inner(costs, game, lists)

    monkeypatch.setattr(association, "CoalitionSums", counted)
    scn, demand, state = desk_state(seed=5)
    twin = state.clone()
    assert built == []
    final = run_amnd(scn, demand, init_state=state)
    assert built == ["csd", "hrd"] and final.accepted_moves > 0
    assert "sums" not in {f.name for f in dataclasses.fields(GameState)}
    assert not any(hasattr(s, "sums") for s in (state, twin, final))


def test_solved_state_is_freed_without_gc():
    # A reference cycle through a state would keep each solve's arrays
    # alive until the cyclic collector runs, which raises peak memory.
    scn, demand, _ = desk_state(seed=5)
    gc.disable()
    try:
        init = abcg_init(scn, demand)
        final = run_amnd(scn, demand, init_state=init)
        assert final.accepted_moves > 0
        refs = [weakref.ref(init), weakref.ref(final)]
        del init, final
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


def _rebuilt_allocation(final):
    """``final``'s allocation rebuilt on an idle one: every final coalition
    installed by the game's write path, each worth its cached value."""
    scratch = final.clone()
    scratch.allocation = idle_allocation(final.costs.pair_k.size,
                                         final.demand.n_csd)
    for game, cache in (("hrd", final.v_hrd), ("csd", final.v_csd)):
        lists = final.hrd_members if game == "hrd" else final.csd_members
        for c, members in enumerate(lists):
            value = association._write_coalition(scratch, game, c, members)
            assert value == cache[c], (game, c)
    return scratch.allocation


def test_allocation_holds_only_the_final_coalitions(desk_runs,
                                                    multi_request_run):
    # A device that moved must carry no fraction over from its old SBS: a
    # pair that became a cache hit holds an idle eta, a device that went
    # local idle alpha and gamma.
    for init, final in desk_runs + [multi_request_run]:
        alloc, costs = final.allocation, final.costs
        rebuilt = _rebuilt_allocation(final)
        for name in ("alpha", "gamma", "beta", "eta"):
            assert np.array_equal(getattr(alloc, name),
                                  getattr(rebuilt, name)), name
        pairs = np.arange(costs.pair_k.size)
        hit = costs.cached[final.partition.hrd_sbs[costs.pair_k], pairs]
        assert np.all(alloc.eta[hit] == IDLE_FRAC)
        local = final.partition.csd_sbs == final.n_sbs
        assert np.all(alloc.alpha[local] == IDLE_FRAC)
        assert np.all(alloc.gamma[local] == IDLE_FRAC)


def test_check_catches_stale_caches_and_fractions(desk_runs):
    final = desk_runs[0][1]
    check_state(final)
    n, local = int(np.flatnonzero(final.v_hrd)[0]), final.n_sbs
    j = int(np.flatnonzero(final.partition.hrd_sbs[final.costs.pair_k] == n)[0])
    for game, c, where, at in (("hrd", n, "v_hrd", n),
                               ("csd", local, "v_csd", local),
                               ("hrd", n, "beta", j)):
        state = final.clone()
        values = (state.allocation.beta if where == "beta"
                  else getattr(state, where))
        values[at] = 0.5 * values[at] + 1e-3
        with pytest.raises(AssertionError,
                           match=rf"stale {game} utility cache at coalition {c}:"):
            check_state(state)


def _closed_form_counts(monkeypatch):
    """Every ``hrd_closed_form`` call the kernels make, as the ``(costs,
    SBS, member tuple)`` whose lists it solves."""
    solved, pending = [], []
    inner_lists, inner_form = _kernels._hrd_lists, _kernels.hrd_closed_form

    def lists(costs, n, members):
        pending.append((costs, n, tuple(members)))
        return inner_lists(costs, n, members)

    def closed_form(d, miss):
        solved.append(pending.pop())
        return inner_form(d, miss)

    monkeypatch.setattr(_kernels, "_hrd_lists", lists)
    monkeypatch.setattr(_kernels, "hrd_closed_form", closed_form)
    return solved


def _memo_cases():
    """(scenario, demand) of desk seeds 0-9 and of the three a = 0.9
    points of the default sweep (seed 1)."""
    cases = []
    for seed in range(10):
        scn = generate_scenario(SystemParams(seed=seed),
                                Counts(n_hrd=20, n_csd=20))
        cases.append((scn, demand_for(scn, seed=seed)))
    config = ExperimentConfig()
    base = config.scenario(1)
    for delta in config.deltas:
        cases.append((base.with_params(a=0.9),
                      config.demand(base.n_sbs, 1, delta)))
    return cases


def test_solve_runs_each_hrd_closed_form_once(monkeypatch):
    # From the initializer through the stability audit, the kernels solve
    # each (SBS, member list) once: valuations, refreshes, installs and
    # the audit reuse the memoized solve.
    solved = _closed_form_counts(monkeypatch)
    valued = 0
    for scn, demand in _memo_cases():
        solved.clear()
        final = run_amnd(scn, demand)
        assert audit_stability(final) == []
        keys = [(n, members) for costs, n, members in solved]
        assert all(costs is final.costs for costs, _, _ in solved)
        assert len(keys) == len(set(keys))
        assert set(keys) == set(final.costs.rows.hrd_solved)
        valued += len(keys)
    assert valued > 0


def test_memoized_hrd_solves_equal_fresh_ones():
    for scn, demand in _memo_cases():
        final = run_amnd(scn, demand)
        audit_stability(final)
        memo = final.costs.rows.hrd_solved
        for n, members in enumerate(final.hrd_members):
            assert memo[n, tuple(members)][4] == final.v_hrd[n]
        assert len(memo) > final.n_sbs
        for (n, members), (row, ratio, beta, eta, value, multipliers) \
                in memo.items():
            d, miss = _kernels._hrd_lists(final.costs, n, members)
            fresh = hrd_closed_form(d, miss)
            assert np.array([value, *beta, *eta, *multipliers]).tobytes() == \
                np.array([fresh[2], *fresh[0], *fresh[1], *fresh[3]]
                         ).tobytes(), (n, members)
            sums, ratio_, _ = _numpy_sums(final.costs, "hrd", n,
                                          list(members))
            assert np.array(row).tobytes() == np.array(
                sums, dtype=float).tobytes()
            assert np.float64(ratio).tobytes() == np.float64(
                ratio_).tobytes()


def _numpy_sums(costs, game, c, members):
    """Coalition ``c``'s running-sum row, floor ratio and closed-form value,
    summed by numpy over fancy-indexed cost arrays: the reference for the
    row pass."""
    arr = np.asarray(members, dtype=np.int64)
    if game == "csd":
        if c == costs.n_sbs:
            local = costs.local_delay_w[arr].sum()
            return (0.0, 0.0, 0.0, local), 0.0, float(local)
        su, se = costs.sqrt_ul[c, arr].sum(), costs.sqrt_ed[c, arr].sum()
        return ((su, se, costs.task_bytes[arr].sum(), 0.0), 0.0,
                float(su) ** 2 + float(se) ** 2)
    idx, _ = member_pairs(costs, arr)
    pos = np.flatnonzero(~costs.cached[c, idx])
    midx = idx[pos]
    _, _, value, _ = hrd_closed_form(
        costs.sqrt_dl[c, idx].tolist(),
        list(zip(pos.tolist(), costs.sqrt_bh[c, midx].tolist(),
                 costs.eta_min[c, costs.pair_k[midx]].tolist())))
    return ((costs.sqrt_dl[c, idx].sum(), costs.sqrt_bh[c, midx].sum(),
             midx.size), costs.dev_floor_ratio[c, arr].max(initial=0.0),
            value)


def test_row_pass_sums_match_numpy_fancy_index_sums(desk_runs,
                                                    multi_request_run):
    cases = [(state.costs, game, c, members)
             for state in [s for run in desk_runs for s in run]
             + list(multi_request_run)
             for game in ("hrd", "csd")
             for c, members in enumerate(state.hrd_members if game == "hrd"
                                         else state.csd_members)]
    # Eight members or more: numpy sums pairwise, and so does ``_sum``.
    costs = multi_request_run[0].costs
    for size in (8, 9, 13, 20):
        for c in (0, 7, costs.n_sbs):
            cases.append((costs, "csd", c, list(range(size))))
            if c < costs.n_sbs:
                cases.append((costs, "hrd", c, list(range(size))))
    assert max(len(members) for *_, members in cases) >= 8
    for costs, game, c, members in cases:
        summary = (_kernels.hrd_summary if game == "hrd"
                   else _kernels.csd_summary)
        sums, ratio, value = summary(costs, c, members)
        ref_sums, ref_ratio, ref_value = _numpy_sums(costs, game, c, members)
        assert np.array(sums).tobytes() == np.array(ref_sums,
                                                    dtype=float).tobytes()
        assert np.float64(ratio).tobytes() == np.float64(ref_ratio).tobytes()
        assert np.float64(value).tobytes() == np.float64(ref_value).tobytes()
        assert value == coalition_value(costs, game, c, members)


def test_check_passes_after_evaluate_and_apply():
    scn, demand, state = desk_state(seed=5)
    rng = np.random.default_rng(3)
    sums = game_sums(state, "csd")
    accepted = 0
    for _ in range(300):
        prop = propose_move(state, "csd", rng)
        if evaluate_and_apply(state, sums, prop):
            accepted += 1
            check_state(state)
            check_sums(sums, state.csd_members)
    assert accepted >= 2
    c = int(sums.size.argmax())
    sums.sums[c] *= 0.5
    with pytest.raises(AssertionError,
                       match=rf"stale csd running sums at coalition {c}:"):
        check_sums(sums, state.csd_members)
    # ``_commit`` alone installs nothing: the moved coalitions' cached
    # values run ahead of their fractions until the game's allocation step.
    twin = state.clone()
    block = whole_block(twin, "hrd")
    wins = block.improving().nonzero()[0]
    assert wins.size
    q = wins.item(0)
    a, b = block.a.item(q), block.b.item(q)
    assert block.value(q) < -IMPROVE_MARGIN
    association._commit(twin, block, q)
    with pytest.raises(AssertionError, match=rf"stale hrd utility cache at "
                       rf"coalition ({a}|{b}):"):
        check_state(twin)
    reallocate(twin, "hrd")
    check_state(twin)


def test_solve_installs_each_coalition_once_after_its_game(monkeypatch,
                                                         desk_runs):
    # No accept installs anything; each game's allocation step, after its
    # last accept, installs each of its coalitions once: the n_sbs + 1 CSD
    # ones (the local one included), then the n_sbs HRD ones.  Each
    # install is read with the moves logged before it.
    events = []
    inner_write = association._write_coalition

    def write(state, game, c, members):
        events.append((game, c, len(state.move_log)))
        return inner_write(state, game, c, members)

    monkeypatch.setattr(association, "_write_coalition", write)
    inits = [init for init, _ in desk_runs]
    # One or three devices among 15 SBSs: most coalitions are empty.
    for n_hrd, n_csd, seed in ((3, 2, 16), (1, 1, 2)):
        scn = generate_scenario(SystemParams(seed=seed),
                                Counts(n_hrd=n_hrd, n_csd=n_csd))
        inits.append(abcg_init(scn, demand_for(scn, seed=seed, n_files=6,
                                               storage=15.6e6)))
    played = {"csd": 0, "hrd": 0}
    for init in inits:
        events.clear()
        final = run_amnd(init.scenario, init.demand, init_state=init)
        n, games = final.n_sbs, [move[1] for move in final.move_log]
        accepts = {game: games.count(game) for game in played}
        assert games == ["csd"] * accepts["csd"] + ["hrd"] * accepts["hrd"]
        assert events == (
            [("csd", c, accepts["csd"]) for c in range(n + 1)]
            + [("hrd", c, len(games)) for c in range(n)])
        for game, count in accepts.items():
            played[game] += count
    assert all(played.values()), played


def test_each_game_leaves_its_coalitions_installed(desk_runs,
                                                   multi_request_run):
    # A game run on its own ends with its allocation step: every coalition
    # of the game, the local one included, caches its closed-form value to
    # the last bit, and the state passes its check.
    for init in [init for init, _ in desk_runs[:5]] + [multi_request_run[0]]:
        for game in ("csd", "hrd"):
            state = init.clone()
            run_coalition_game(state, game)
            lists = state.hrd_members if game == "hrd" else state.csd_members
            cache = state.v_hrd if game == "hrd" else state.v_csd
            assert len(lists) == cache.size == state.n_sbs + (game == "csd")
            for c, members in enumerate(lists):
                assert cache[c] == coalition_value(state.costs, game, c,
                                                   members), (game, c)
            check_state(state)


def _state_bytes(state):
    alloc = state.allocation
    return [state.v_hrd.tobytes(), state.v_csd.tobytes(),
            repr(state.objective)] + [getattr(alloc, name).tobytes()
                                      for name in ("alpha", "gamma", "beta",
                                                   "eta")]


def _assert_reallocate_idempotent(state, games):
    """Run the allocation step of ``games``, each of which ``state`` has
    played, on a copy of ``state``: it changes no byte of the caches, the
    objective or the fractions."""
    twin = state.clone()
    for game in games:
        reallocate(twin, game)
    assert _state_bytes(twin) == _state_bytes(state)


def test_reallocate_is_idempotent(desk_runs, multi_request_run):
    # Installing a coalition that already holds its closed form writes the
    # same bits, after each game (which ended with that install) and after
    # ``run_amnd``.
    inits = [init for init, _ in desk_runs[:10]] + [multi_request_run[0]]
    scn = generate_scenario(SystemParams(seed=1), Counts(n_hrd=20, n_csd=40))
    inits.append(abcg_init(scn, demand_for(scn)))
    for init in inits:
        state = init.clone()
        for played in (("csd",), ("csd", "hrd")):
            run_coalition_game(state, played[-1])
            _assert_reallocate_idempotent(state, played)
        final = run_amnd(init.scenario, init.demand, init_state=init)
        _assert_reallocate_idempotent(final, ("csd", "hrd"))
        for game, cache in (("hrd", final.v_hrd), ("csd", final.v_csd)):
            lists = final.hrd_members if game == "hrd" else final.csd_members
            for c, members in enumerate(lists):
                assert cache[c] == coalition_value(final.costs, game, c,
                                                   members), (game, c)


# Recorded with the exact coupled HRD allocation: seed, repr(F_AMND),
# proposals, accepted moves, hrd_sbs, csd_sbs of the desk solves.
GOLDEN_DESK = (
    (0, "667.0660852850223", 6515, 16,
     [0, 9, 13, 4, 8, 1, 1, 5, 10, 2, 7, 12, 2, 6, 14, 3, 9, 11, 4, 7],
     [1, 5, 10, 15, 15, 9, 3, 15, 15, 15, 8, 12, 2, 15, 15, 15, 15, 15, 4, 7]),
    (1, "1012.3090133361644", 9111, 35,
     [0, 6, 12, 3, 4, 13, 0, 5, 10, 3, 7, 1, 13, 8, 12, 2, 9, 14, 2, 8],
     [15, 15, 14, 0, 5, 11, 2, 15, 15, 3, 15, 15, 15, 8, 10, 4, 7, 15, 8, 9]),
    (2, "669.5148483279049", 7859, 26,
     [4, 7, 13, 2, 7, 10, 3, 5, 11, 1, 8, 6, 4, 9, 12, 1, 5, 14, 2, 0],
     [15, 15, 14, 3, 5, 0, 15, 6, 10, 4, 15, 11, 2, 9, 12, 15, 15, 10, 15, 15]),
    (3, "789.1552756671138", 6866, 29,
     [0, 14, 12, 2, 8, 13, 1, 4, 10, 4, 9, 11, 3, 6, 10, 2, 7, 14, 0, 5],
     [15, 7, 13, 14, 6, 15, 15, 5, 11, 4, 15, 15, 1, 15, 12, 3, 15, 10, 2, 9]),
    (4, "649.8047888708849", 7801, 28,
     [4, 9, 12, 2, 6, 11, 0, 13, 10, 4, 7, 13, 3, 14, 10, 3, 8, 2, 1, 5],
     [11, 15, 13, 2, 5, 15, 4, 9, 15, 1, 15, 10, 0, 14, 15, 15, 6, 12, 3, 7]),
)


# The ``multi_request_run`` solve, in the same layout.
GOLDEN_MULTI_REQUEST = (
    3, "3896.178885992313", 7697, 41,
    [0, 7, 12, 2, 8, 14, 1, 4, 11, 4, 9, 13, 3, 6, 10, 2, 7, 14, 0, 5],
    [15, 7, 13, 14, 6, 15, 15, 5, 11, 4, 15, 15, 1, 15, 12, 3, 15, 10, 2, 9])


# Each game generator's final (PCG64 state, has_uint32, uinteger), CSD
# then HRD, of the desk solves above ("multi" is ``multi_request_run``),
# and the SHA-256 of the ``write_move_log`` file of seed 0.  Its HRD rows'
# objective column counts every CSD coalition's closed form, which the CSD
# game's allocation step installs before the HRD game starts.
GOLDEN_RNG = {
    0: ((83859812022039524749139676866599146185, 0, 0),
        (171577682909891176005746160613366480515, 0, 0)),
    1: ((35980785291564339547440427002349133711, 0, 0),
        (43023144488572247013051657932322201453, 0, 0)),
    2: ((190969997697919746100566314232291408707, 0, 0),
        (285786449028809158837318039036125333203, 0, 0)),
    3: ((6991687428257118705175068534766578884, 0, 0),
        (146326740694513934396620997093218687042, 0, 0)),
    4: ((78624924516840777687985225879594759139, 0, 0),
        (47338256212657138697842966483499079971, 0, 0)),
    "multi": ((6991687428257118705175068534766578884, 0, 0),
              (81734224320607830781939111464305212474, 0, 0)),
}
GOLDEN_MOVE_LOG_SEED0 = \
    "76466bc7c7aafab22479c85d378c86afaed13869c2f7899ffc0e7484908fe399"


# The SHA-256 of the bytes of the final ``alpha``, ``gamma``, ``beta`` and
# ``eta`` of the desk solves above ("multi" is ``multi_request_run``).
GOLDEN_FRACTIONS = {
    0: (
        "d3e5c95223921be5a5c0a72d949fc45aef24c4fb4658bf9d604a4bdd5002001e",
        "d3e5c95223921be5a5c0a72d949fc45aef24c4fb4658bf9d604a4bdd5002001e",
        "e21b50a3e67c55b1dfe8e1d3feab8ba148bb4dd7478b41e603fbcc99de0bea28",
        "f6e716cf2490c7e61278dd910a928dcdc52c731aa4804197cf2901019c4304ce",
    ),
    1: (
        "2ad16d7cc56148f93429dbbfc294a1c3795a7a23aef82cbae3a3cf79ee1e5204",
        "7863b49ff85764cf8734cdf28c3d2f054874d4801d33b7d41f9f43de2a8ab76f",
        "79e7ba95a0183030bedca0b3a2d8da030b63fafdf1edb20be026cc365bb4fbe0",
        "d7a808bf8d5e78980a3db5a542326ab060561421ad9c87a81f04447f0b97204e",
    ),
    2: (
        "08159ee438ef6c7f24922d8ec31875cd3b3a602ece935f4f45f503f599bd4e6a",
        "548264b2f5a26af7cba1753fbed2900c5c48b40dc5ec3653222bb2b04243ebcf",
        "95bcdfcb500bca1f1643cba9b68c54e27535f4cce2369066c5e9950933b3c0d8",
        "89b1bef1358c507ee0a8a2ebad4f1f5d8131a4bae5c02b88fb6d3e10097998bb",
    ),
    3: (
        "30795028a3abea507343efa5f2ef196dd293a958d4b4aa134d1c6b9593faedea",
        "30795028a3abea507343efa5f2ef196dd293a958d4b4aa134d1c6b9593faedea",
        "53f17f3069a9e5cdef5e688169dc95158abb0a90c19bc65280c2c154c91b7aca",
        "f3260709c665daa0ccd80d5a59beff49abbaacf92339d2d6f64a03f9e598f7c0",
    ),
    4: (
        "6091e687adbe5c0e353dcd89dd20461c48207fb2d487957dbe454727e73e5634",
        "6091e687adbe5c0e353dcd89dd20461c48207fb2d487957dbe454727e73e5634",
        "8081480d39469d67c9bc1a3e5955593927a1d2e0bb3bada40b9761b6afa6b2be",
        "9381cf431bd9d064afc8f10d43bc3d146b3e2e29798c2a5f2eec38d9a7a955b1",
    ),
    "multi": (
        "30795028a3abea507343efa5f2ef196dd293a958d4b4aa134d1c6b9593faedea",
        "30795028a3abea507343efa5f2ef196dd293a958d4b4aa134d1c6b9593faedea",
        "b1ed79696bc1c9f8b37c9bd5939b19d99a8a732bb7e05abee1c591f6bce018ef",
        "32a3f2376b604003c6122d4a819602432408365d9a9e87ff91519583d0e42823",
    ),
}


def _fraction_digests(state):
    alloc = state.allocation
    return tuple(hashlib.sha256(getattr(alloc, name).tobytes()).hexdigest()
                 for name in ("alpha", "gamma", "beta", "eta"))


def _rng_states(state):
    out = []
    for rng in (state.rng_csd, state.rng_hrd):
        st = rng.bit_generator.state
        out.append((st["state"]["state"], st["has_uint32"], st["uinteger"]))
    return tuple(out)


def test_desk_solves_match_recorded_outputs(desk_runs, multi_request_run,
                                            tmp_path):
    runs = [(golden, desk_runs[golden[0]][1]) for golden in GOLDEN_DESK]
    runs.append((GOLDEN_MULTI_REQUEST, multi_request_run[1]))
    for (seed, f, proposals, accepted, hrd_sbs, csd_sbs), final in runs:
        assert (repr(final.objective), final.proposals,
                final.accepted_moves) == (f, proposals, accepted), seed
        assert final.partition.hrd_sbs.tobytes() == \
            np.array(hrd_sbs, dtype=np.int64).tobytes(), seed
        assert final.partition.csd_sbs.tobytes() == \
            np.array(csd_sbs, dtype=np.int64).tobytes(), seed
    for seed in range(5):
        assert _rng_states(desk_runs[seed][1]) == GOLDEN_RNG[seed], seed
        assert _fraction_digests(desk_runs[seed][1]) == \
            GOLDEN_FRACTIONS[seed], seed
    assert _rng_states(multi_request_run[1]) == GOLDEN_RNG["multi"]
    assert _fraction_digests(multi_request_run[1]) == GOLDEN_FRACTIONS["multi"]
    path = tmp_path / "moves.csv"
    write_move_log(desk_runs[0][1], path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        GOLDEN_MOVE_LOG_SEED0


# The solve of seed 5 on the benchmark's large workload (80 HRD, 160 CSD,
# 3 MBS x 10 SBS, 1000 files, two requests per HRD, 28e6 B of sampled
# storage): F, proposals, accepted moves, both partitions, the fractions'
# digests and the game generators' states, in the layouts above.  Its
# neighbourhoods span several sweep chunks, which no desk solve does.
GOLDEN_LARGE = (
    5, "32898.64828719374", 94686, 186,
    [7, 18, 23, 1, 12, 22, 5, 10, 21, 9, 24, 20, 6, 17, 24, 6, 17, 28, 7,
     11, 29, 8, 14, 23, 3, 16, 29, 8, 12, 29, 6, 18, 28, 1, 13, 22, 2, 13,
     27, 3, 12, 21, 4, 16, 25, 0, 15, 26, 9, 11, 29, 0, 4, 21, 9, 15, 26,
     3, 18, 25, 5, 19, 4, 2, 20, 27, 2, 11, 24, 1, 19, 27, 7, 10, 28, 5,
     14, 25, 0, 17],
    [9, 30, 23, 30, 30, 30, 7, 16, 23, 30, 30, 30, 4, 30, 30, 30, 30, 30,
     4, 30, 30, 30, 30, 30, 30, 30, 30, 30, 14, 30, 30, 30, 30, 30, 12,
     24, 30, 19, 30, 30, 15, 30, 8, 30, 30, 30, 30, 30, 30, 30, 30, 30,
     30, 30, 30, 30, 30, 6, 30, 30, 30, 30, 30, 30, 30, 30, 2, 30, 30, 0,
     30, 30, 30, 30, 30, 5, 30, 30, 30, 30, 30, 30, 30, 27, 30, 30, 20,
     30, 18, 30, 30, 30, 30, 30, 30, 30, 30, 30, 30, 30, 30, 30, 30, 30,
     29, 30, 13, 25, 30, 30, 30, 30, 30, 21, 30, 30, 30, 30, 30, 30, 30,
     30, 26, 30, 30, 21, 30, 30, 30, 30, 10, 30, 30, 30, 30, 30, 30, 30,
     30, 30, 28, 3, 17, 30, 30, 30, 30, 30, 30, 30, 30, 30, 30, 30, 11,
     29, 30, 30, 22, 1])
GOLDEN_LARGE_FRACTIONS = (
    "0077a02bee368681956357fe7c845852dcae534ece9c9c2a26afffd40732b476",
    "2d37bbe6521ed21b741b464e549ef26fd1d1616ebb0570b222dd35bf998fccfb",
    "fb1ee1987955254bfda3e06a44a4643fdcf2f8d53c81b975d13f98878f34d131",
    "65684967b5fbd564c521c32c169cc88c364a88bdb18038f8c837013c1f26aaaa",
)
GOLDEN_LARGE_RNG = ((41767882014463807494534892034541227003, 0, 0),
                    (311830170580903917382457251849609423605, 0, 0))


def _large_instance(seed=5):
    """The benchmark's large workload at ``seed``: 80 HRD, 160 CSD, 3 MBS x
    10 SBS, 1000 files, two requests per HRD, 28e6 B of sampled storage."""
    scn = generate_scenario(SystemParams(seed=seed, n_mbs=3, m_sbs=10),
                            Counts(n_hrd=80, n_csd=160))
    return scn, build_demand(Catalog.build(1000, 0.6), scn.n_sbs, 80, 160,
                             demand_rng(seed, 0.6), requests_per_hrd=2,
                             storage_bytes=28e6, cache_policy="sampled")


def test_large_solve_matches_recorded_outputs():
    seed, f, proposals, accepted, hrd_sbs, csd_sbs = GOLDEN_LARGE
    scn, demand = _large_instance(seed)
    final = run_amnd(scn, demand, init_state=abcg_init(scn, demand))
    assert (repr(final.objective), final.proposals,
            final.accepted_moves) == (f, proposals, accepted)
    assert final.partition.hrd_sbs.tobytes() == \
        np.array(hrd_sbs, dtype=np.int64).tobytes()
    assert final.partition.csd_sbs.tobytes() == \
        np.array(csd_sbs, dtype=np.int64).tobytes()
    assert _fraction_digests(final) == GOLDEN_LARGE_FRACTIONS
    assert _rng_states(final) == GOLDEN_LARGE_RNG


# The ABCG states of desk seeds 0-4, of ``multi_request_run`` ("multi") and
# of the large seed-5 solve ("large"): ``fallback_hrds``, then the SHA-256
# of the bytes of ``hrd_sbs``, ``csd_sbs``, ``alpha``, ``gamma``, ``beta``
# and ``eta``.
GOLDEN_ABCG = {
    0: ([],
        "9123164f999fbb30c586d76ae26b45d2b3bb85e8af68280157b3f77cfe32ebfd",
        "a7d9cea056a2c431b581f3bbd6d4b5320ad4cf289139eb2be10a77621274750a",
        "ac857f1960f59603aa343581a2ee528d07be524dd6f8eb19ec9f1da785e34900",
        "ac857f1960f59603aa343581a2ee528d07be524dd6f8eb19ec9f1da785e34900",
        "0c01c34406dedd8517910db2c4d142cd186ada970519fea6789a1880bccb6260",
        "95f1f921b8ac48c064870c9f50f5090bc684581c8a88a4b2a6913a95bfb7ad26"),
    1: ([],
        "635955286d4ea9e6221af6b60dc76e244d534fb047a1c5f74d6014ff4c93a602",
        "7d3429c47c8305c780d2e5460221f3b1ca55b1410a42a4c9ea48fd1aab4b0e91",
        "9a79b357b1b484ba36e6d653ca43b38d8b0970e235223c35cabe97e5ce4de742",
        "9a79b357b1b484ba36e6d653ca43b38d8b0970e235223c35cabe97e5ce4de742",
        "1df2e5721f6dc8e8fdad63276266e94d00a554db8c282d8c5fc3de25c3778f11",
        "7a213ff88df4715596280ec1ac4ba76724ed29521aba780583ee0ed8e240e576"),
    2: ([],
        "dd54b311ce4ac3454a4e84865f9282f84b4346ce19ab83679284282e2e078821",
        "778ff1ad2903b5f22ee0aa3dac5a0b78008b131b7c7d1a5586370743aa3bb165",
        "3a4eb665b37858753e4643ed6dbf3b77d596b588502bdfdeca29e72196554888",
        "3a4eb665b37858753e4643ed6dbf3b77d596b588502bdfdeca29e72196554888",
        "ee005151309a0a94850f200f2f5e03553cc8de98385ebbb89d0ca1ae37f54b38",
        "9c44375da5cc10deafd25e35e18f7f5a9f0e54b9fe097d244949e59dad1e85e6"),
    3: ([],
        "f9df3dcae8a87d4bbabb59d9d75ceb1bfc9940bbf0d024ff4ef205f2d219271d",
        "fcc0580ff404d96e09babf070d4066b231ef906e2af0310e791c3916f862a28e",
        "7d56f514e40f438d740f04e495c46b5d2fa63377c017e3a32c583c4e91d51aad",
        "7d56f514e40f438d740f04e495c46b5d2fa63377c017e3a32c583c4e91d51aad",
        "0cdf8106eed07ce95b56ae9660996d09f1551097d1d4d292865beadbeaccd9ce",
        "f34ea3e8d09071db895d2cadfd5e2aa748890886c354b79a78df310fba7bbf54"),
    4: ([],
        "23269dcf0be656f73256954d012baf46d14d65b606c8baf52945e9f75f65d449",
        "494d7d931b59938647b82060f5cf089c30ee839b8d5dfd58fe9f4f75e09711d7",
        "f236621778e709d110fca7ccb3a5756fc097cfada7ef75cf6618396385785bea",
        "f236621778e709d110fca7ccb3a5756fc097cfada7ef75cf6618396385785bea",
        "9112bace50ba0a21d795fe8180848f4f8013330e4ccd26e33ac7c47bb1ff0355",
        "599c8bd6a935f83ad78816b795e9fc94ca4c15a342f6472d564d1cb458150688"),
    "multi": ([],
        "f9df3dcae8a87d4bbabb59d9d75ceb1bfc9940bbf0d024ff4ef205f2d219271d",
        "fcc0580ff404d96e09babf070d4066b231ef906e2af0310e791c3916f862a28e",
        "7d56f514e40f438d740f04e495c46b5d2fa63377c017e3a32c583c4e91d51aad",
        "7d56f514e40f438d740f04e495c46b5d2fa63377c017e3a32c583c4e91d51aad",
        "8883cf8c1e50af999bbe6a89e6827156cb0b496b5897cd87cde0b3808189e4b1",
        "4debe16bf40a7cf22c4b7fcae35126103ff5011453ae6576977c191308f470dd"),
    "large": ([],
        "12c7097c7d9b0da67a09db4a05fad70e5eb9cf7060e3ecf3212c38e6f9a78384",
        "47a60e1b88275f9f38d667adeacd31736de42e09810469116a60058d3eb4ad12",
        "850a0cd232e8e47d811aaf2e36d9f9f0ef1dd269fc041dfea9cbdabe9934569b",
        "850a0cd232e8e47d811aaf2e36d9f9f0ef1dd269fc041dfea9cbdabe9934569b",
        "337a1158440fd9a0c85323d78d6948be483aa27483c831333cf4e5e81469ff92",
        "d43c6a2540767bed522203c3f489fbd6a2239b9e59bc4f4c61006f7ac553d6b0"),
}


def test_abcg_states_match_recorded_outputs(desk_runs, multi_request_run):
    states = {seed: desk_runs[seed][0] for seed in range(5)}
    states["multi"] = multi_request_run[0]
    states["large"] = abcg_init(*_large_instance())
    for key, state in states.items():
        part, alloc = state.partition, state.allocation
        digests = tuple(hashlib.sha256(arr.tobytes()).hexdigest() for arr in
                        (part.hrd_sbs, part.csd_sbs, alloc.alpha, alloc.gamma,
                         alloc.beta, alloc.eta))
        assert (state.fallback_hrds, *digests) == GOLDEN_ABCG[key], key


def test_abcg_values_are_the_delay_models(desk_runs, multi_request_run):
    # The initializer caches each coalition's delay as the delay model
    # gives it, to the last bit, also where rate orderings cap shares
    # (a = 0.9) and where a device falls back.
    scn = generate_scenario(SystemParams(seed=3, a=0.9),
                            Counts(n_hrd=20, n_csd=20))
    states = [init for init, _ in desk_runs] + [
        multi_request_run[0], abcg_init(*_large_instance()),
        abcg_init(scn, demand_for(scn, n_files=100, requests_per_hrd=2))]
    params = SystemParams(a=0.9, m_sbs=2, n_mbs=1)
    scn = rate_scenario(params, r_dl=[[12.0], [9.0]], r_ul=[[4.0], [4.0]],
                        r_bh=[1.0, 1.0])
    states.append(abcg_init(scn, demand_for(scn, n_files=4, storage=0.0,
                                            policy="popular_first", seed=2)))
    assert states[-1].fallback_hrds == [0]
    for n, state in enumerate(states):
        delay_hrd, delay_csd = state.installed_delays(state.report())
        assert state.v_hrd.tobytes() == delay_hrd.tobytes(), n
        assert state.v_csd.tobytes() == delay_csd.tobytes(), n


def test_desk_solves_are_nash_stable(desk_runs):
    for seed, (_, final) in enumerate(desk_runs):
        assert audit_stability(final) == [], seed


def test_move_log_holds_each_accepted_move(desk_runs, multi_request_run):
    # One row per accepted move, in the order applied: its proposal's index
    # among the solve's proposals, its dv, which is the objective's step,
    # and the objective after it.  A game's first row steps from the
    # objective that the trace records before that game, and its last row
    # is at or above the one recorded after it, which counts the game's
    # allocation step too.
    for n, (init, final) in enumerate(desk_runs + [multi_request_run]):
        log = final.move_log
        assert len(log) == final.accepted_moves > 0, n
        index = [row[0] for row in log]
        assert 1 <= index[0] and index[-1] <= final.proposals, n
        assert all(a < b for a, b in zip(index, index[1:])), n
        games = [row[1] for row in log]
        assert games == sorted(games, key=("csd", "hrd").index), n
        assert final.trace[0] == init.objective, n
        for k, game in enumerate(("csd", "hrd")):
            rows = [row for row in log if row[1] == game]
            objs = [final.trace[k]] + [row[4] for row in rows]
            assert all(b <= a for a, b in zip(objs, objs[1:])), (n, game)
            for before, (_, _, kind, dv, after) in zip(objs, rows):
                assert kind in ("transfer", "swap")
                assert abs((after - before) - dv) <= 1e-9 * before, n
            assert objs[-1] >= final.trace[k + 1], (n, game)


def _scratch_audit(state):
    """The stability audit with every move of both games enumerated in
    nested loops and valued from scratch, one ``coalition_value`` per
    tentative coalition: the reference that ``audit_stability`` must
    match."""
    found = []
    for game in ("hrd", "csd"):
        lists = state.hrd_members if game == "hrd" else state.csd_members
        assoc = (state.partition.hrd_sbs if game == "hrd"
                 else state.partition.csd_sbs)
        cache = state.v_hrd if game == "hrd" else state.v_csd
        props = [MoveProposal(game, "transfer", c_from=int(assoc[md]),
                              c_to=target, md_from=md)
                 for md in range(assoc.size) for target in range(len(lists))
                 if target != assoc[md]]
        props += [MoveProposal(game, "swap", c_from=int(assoc[i]),
                               c_to=int(assoc[j]), md_from=i, md_to=j)
                  for i in range(assoc.size) for j in range(i + 1, assoc.size)
                  if assoc[i] != assoc[j]]
        for prop in props:
            _, _, dv = _scratch_value(state, lists, cache, prop)
            if dv < -IMPROVE_MARGIN:
                found.append((game, prop.kind, prop.c_from, prop.c_to,
                              prop.md_from, prop.md_to, dv))
    return found


def test_audit_matches_scratch_reference(monkeypatch, desk_runs,
                                         multi_request_run, bound_runs):
    states = [init for init, _ in desk_runs + bound_runs[:3]]
    # ABCG states with both classes reallocated: installed at their closed
    # forms, each still holding the improving moves the initializer left.
    for init, _ in desk_runs[:10]:
        states.append(init.clone())
        for game in ("csd", "hrd"):
            reallocate(states[-1], game)
        check_state(states[-1])
        assert states[-1].objective <= init.objective + 1e-12
    states.append(bound_final_state())
    states.append(multi_request_run[0])
    fallbacks = _count_floor_valuations(monkeypatch)
    found = 0
    for n, state in enumerate(states):
        moves, reference = audit_stability(state), _scratch_audit(state)
        assert [got[:-1] for got in moves] == \
            [ref[:-1] for ref in reference], n
        for got, ref in zip(moves, reference):
            assert got[-1] < math.inf
            assert abs(got[-1] - ref[-1]) <= 1e-12 * abs(ref[-1]), \
                (n, got, ref)
        found += len(moves)
    assert found
    assert 3 in [c for c, _ in fallbacks]


def test_audits_read_the_partition_they_are_given(desk_runs):
    # HRD 0 of the final seed-3 state moves by a write to the partition
    # alone, with nothing installed: the member lists, the certificate and
    # the stability audit all judge the moved association.
    state = desk_runs[3][1].clone()
    hrd_sbs = state.partition.hrd_sbs
    hrd_sbs[0] = (hrd_sbs[0] + 1) % state.n_sbs
    grouping = [np.flatnonzero(hrd_sbs == n).tolist()
                for n in range(state.n_sbs)]
    assert state.hrd_members == grouping
    delay_hrd, delay_csd = state.installed_delays(state.report())
    gaps = []
    for n in range(state.n_sbs):
        for game, members, delay in (
                ("hrd", grouping[n], delay_hrd[n]),
                ("csd", state.csd_members[n], delay_csd[n])):
            if members:
                sol = oracle_solve_p3(state.costs, n, members, game)
                bound = sol["objective"]
                gaps.append((delay - bound) / max(1e-12, bound)
                            if sol["feasible"] else math.inf)
    assert state.optimality_gaps().tobytes() == np.array(gaps).tobytes()
    moves = audit_stability(state)
    assert moves and [m[:-1] for m in moves] == \
        [m[:-1] for m in _scratch_audit(state)]


def test_audit_leaves_the_state_untouched(desk_runs):
    state = desk_runs[1][0].clone()

    def snapshot():
        alloc = state.allocation
        return [state.v_hrd.tobytes(), state.v_csd.tobytes(),
                repr(state.objective), alloc.alpha.tobytes(),
                alloc.gamma.tobytes(), alloc.beta.tobytes(),
                alloc.eta.tobytes(), state.partition.hrd_sbs.tobytes(),
                state.partition.csd_sbs.tobytes(), state.hrd_members,
                state.csd_members, state.rng_hrd.bit_generator.state,
                state.rng_csd.bit_generator.state]

    before = snapshot()
    moves = audit_stability(state)
    assert moves
    assert snapshot() == before


def _scalar_random_phase(state, sums, t2, patience, *, first=False):
    """The random phase of the game of the running sums ``sums`` as one
    loop of ``propose_move`` and ``evaluate_and_apply``, one proposal at a
    time, on the game's own generator: the reference that the
    rejection-free phase must equal in law.  It reads the member lists
    again only after an accept; with ``first``, it stops at its first."""
    game = sums.game
    rng = state.rng_hrd if game == "hrd" else state.rng_csd
    lists = association._member_lists(state, game)
    rejections = 0
    for _ in range(t2):
        if rejections >= patience:
            break
        if evaluate_and_apply(state, sums,
                              propose_move(state, game, rng, lists)):
            if first:
                break
            rejections = 0
            lists = association._member_lists(state, game)
        else:
            rejections += 1


def _scalar_stabilize(state, game, sums):
    """The stabilization sweep as one loop of ``_move_at`` and
    ``evaluate_and_apply``, one proposal at a time, valued from the game's
    running sums ``sums``: the reference that the block version must equal
    to the last bit.  It goes round the moves cyclically, resumes after
    each accept and stops after a whole cycle without one, and
    ``evaluate_and_apply`` counts each move it judges.  Returns its count
    of accepted moves."""
    moves = _hood(state, game).swap.size
    q = quiet = applied = 0
    while quiet < moves:
        prop = _move_at(state, game, q)
        if prop is not None and evaluate_and_apply(state, sums, prop):
            applied, quiet = applied + 1, 0
        else:
            quiet += 1
        q = (q + 1) % moves
    return applied


def _solve_fingerprint(state, path):
    alloc = state.allocation
    fingerprint = [
        repr(state.objective), [repr(v) for v in state.trace],
        state.proposals, state.accepted_moves,
        state.partition.hrd_sbs.tobytes(), state.partition.csd_sbs.tobytes(),
        alloc.alpha.tobytes(), alloc.gamma.tobytes(), alloc.beta.tobytes(),
        alloc.eta.tobytes(), state.rng_csd.bit_generator.state,
        state.rng_hrd.bit_generator.state]
    write_move_log(state, path)
    return fingerprint + [path.read_bytes()]


def _played(state, game, phase, runs, side):
    """``runs`` clones of ``state``, each after the random phase ``phase``
    of ``game``, called with the clone and running sums built from it, on a
    generator seeded by its run and ``side``."""
    for run in range(runs):
        twin = state.clone()
        twin.rng_hrd = twin.rng_csd = np.random.default_rng([run, side])
        phase(twin, game_sums(twin, game))
        yield twin


def _first_accepts(state, game, phase, runs):
    """The first accept of ``runs`` random phases ``phase`` of ``game`` from
    the ABCG state ``state`` (``_played``), read from the move log: the
    rejections before it and the move, keyed by its kind and ``dv``, which
    does not depend on the block that values it, to the last bit."""
    return [(twin.move_log[0][0] - 1, twin.move_log[0][2:4])
            for twin in _played(state, game, phase, runs, 0)]


def _same_law(a, b, least=10):
    """Pearson's chi-square test that two samples of categories come from
    one law, at significance 1e-4; categories with fewer than ``least``
    samples in the two together share one cell."""
    from scipy.stats import chi2_contingency
    pooled = {}
    for x in a + b:
        pooled[x] = pooled.get(x, 0) + 1
    cell = {x: x if n >= least else "rare" for x, n in pooled.items()}
    cells = sorted(set(cell.values()), key=repr)
    table = [[sum(cell[x] == c for x in sample) for c in cells]
             for sample in (a, b)]
    return len(cells) < 2 or chi2_contingency(table).pvalue > 1e-4


def test_random_phase_matches_scalar_reference():
    # From fixed partitions, the number of rejections before the first
    # accept and the accepted move follow the law of the one-at-a-time
    # loop, which stops there; the library plays whole phases, on a budget
    # that no wait reaches.  Each partition has several winners of unequal
    # weight; the HRD ones have flagged moves that win, and flagged moves
    # that the screen rejects.  The draws are seeded, so the outcome is
    # fixed; the critical values are generous.
    states = []
    for seed, m_sbs, n_hrd in ((2, 3, 6), (3, 4, 8)):
        scn = generate_scenario(SystemParams(seed=seed, m_sbs=m_sbs, n_mbs=1,
                                             a=0.9),
                                Counts(n_hrd=n_hrd, n_csd=4))
        demand = demand_for(scn, seed=seed, n_files=20, requests_per_hrd=2)
        states.append((abcg_init(scn, demand), "hrd"))
    # Eight of the ten CSDs compute locally: the winners' weights differ
    # from the drawable moves' mean by a factor of about 2.
    scn = generate_scenario(SystemParams(seed=8, m_sbs=4, n_mbs=1),
                            Counts(n_hrd=10, n_csd=10))
    demand = demand_for(scn, seed=8, n_files=20, storage=15.6e6)
    states.append((abcg_init(scn, demand), "csd"))
    runs = 1500
    for n, (state, game) in enumerate(states):
        block = whole_block(state, game, drawable=True)
        flagged = None if block.floor is None else block.floor.copy()
        win = block.improving()
        assert 1 < np.count_nonzero(win) < len(block), n
        assert game == "csd" or (flagged & win).any() and \
            (flagged & ~win).any(), n
        p = float(_draw_weights(block.sums.size, block.a,
                                block.b)[win].sum())
        budget = {"t2": 10 ** 6, "patience": 10 ** 6}
        ours = _first_accepts(state, game, functools.partial(
            association._random_phase, **budget), runs)
        theirs = _first_accepts(state, game, functools.partial(
            _scalar_random_phase, first=True, **budget), runs)
        for k in range(2):
            assert _same_law([x[k] for x in ours], [x[k] for x in theirs]), \
                (n, k)
        # Each side's mean wait is within 5 standard errors of the
        # geometric law's, (1 - p) / p.
        for sample in (ours, theirs):
            waits = np.array([x[0] for x in sample])
            sd = np.sqrt(1.0 - p) / p / np.sqrt(runs)
            assert abs(waits.mean() - (1.0 - p) / p) < 5 * sd, (n, p)


def _every_move_wins_state():
    """ABCG state of five HRDs among three SBSs, every file cached, where
    every drawable HRD move wins: devices 0-2 sit at SBS 0 and 3-4 at SBS 1,
    SBS 2 is empty and nearly as fast for all.  The weights spread from 1 to
    100, so the initializer's equal splits are worth far more than the
    closed forms that a move installs on both its sides, and that gain
    outweighs the rate any move gives up."""
    rates = np.array([[5.0, 5.0, 5.0, 4.9, 4.9], [4.9, 4.9, 4.9, 5.0, 5.0],
                      [4.8] * 5])
    scn = rate_scenario(SystemParams(m_sbs=3, n_mbs=1), r_dl=rates,
                        r_ul=np.full((3, 1), 4.0), r_bh=np.full(3, 9.0))
    request = np.zeros((5, 2), dtype=np.int8)
    request[:, 0] = 1
    demand = DemandProfile(
        catalog=Catalog.build(2, 0.6, file_size_bytes=5e6), request=request,
        cache=np.ones((3, 2), dtype=np.int8),
        task_input_bytes=np.full(1, 1e5), task_cycles=np.full(1, 1e9),
        local_cps=np.full(1, 1.4e9), edge_cps=np.full(3, 6e10),
        storage_bytes=np.full(3, 2e9),
        hrd_weight=np.array([1.0, 10.0, 100.0, 3.0, 30.0]),
        csd_weight=np.ones(1))
    return abcg_init(scn, demand)


def _whole_phases(state, game, phase, t2, patience, runs, side):
    """Per run of ``_played`` with the random phase ``phase`` on the budget
    ``(t2, patience)``: the end partition of the game, its number of
    accepts, its number of proposals and the number of proposals after its
    last accept."""
    out = []
    for twin in _played(state, game, functools.partial(
            phase, t2=t2, patience=patience), runs, side):
        assoc = twin.partition.hrd_sbs if game == "hrd" \
            else twin.partition.csd_sbs
        last = twin.move_log[-1][0] if twin.move_log else 0
        out.append((tuple(assoc.tolist()), len(twin.move_log),
                    twin.proposals, twin.proposals - last))
    return out


def test_whole_random_phase_matches_scalar_reference():
    # Whole random phases, to the same ``t2`` and ``patience``, end on the
    # same partitions after as many accepts and proposals as the
    # one-at-a-time loop, in law.  One phase is ended by ``t2``, one by
    # ``patience``, and one starts where every drawable move wins (the
    # wait is then 0, at ``p = 1``); the winners' weights are unequal.
    # The draws are seeded, so the outcome is fixed.
    scn = generate_scenario(SystemParams(seed=2, m_sbs=3, n_mbs=1, a=0.9),
                            Counts(n_hrd=6, n_csd=4))
    hrd = abcg_init(scn, demand_for(scn, seed=2, n_files=20,
                                    requests_per_hrd=2))
    scn = generate_scenario(SystemParams(seed=3, m_sbs=4, n_mbs=1),
                            Counts(n_hrd=4, n_csd=8))
    csd = abcg_init(scn, demand_for(scn, seed=3, n_files=20, storage=15.6e6))
    cases = {"t2": (hrd, "hrd", 4, 10 ** 6, 500),
             "patience": (csd, "csd", 10 ** 6, 4, 500),
             "every move wins": (_every_move_wins_state(), "hrd", 2, 10 ** 6,
                                 800)}
    for name, (state, game, t2, patience, runs) in cases.items():
        block = whole_block(state, game, drawable=True)
        win = block.improving()
        q = _draw_weights(block.sums.size, block.a, block.b)[win]
        assert np.unique(q).size > 1, name
        assert win.all() == (name == "every move wins"), name
        ours = _whole_phases(state, game, association._random_phase, t2,
                             patience, runs, 1)
        theirs = _whole_phases(state, game, _scalar_random_phase, t2,
                               patience, runs, 2)
        for sample in (ours, theirs):
            if name == "patience":
                assert {tail for *_, tail in sample} == {patience}, name
            else:
                assert {x[2] for x in sample} == {t2}, name
        # The long tail of proposal counts shares one bin.
        for k, key in enumerate((lambda x: x[0], lambda x: x[1],
                                 lambda x: min(x[2], 20))):
            assert _same_law(list(map(key, ours)), list(map(key, theirs))), \
                (name, k)


def test_chunked_sweep_matches_one_block_sweep(monkeypatch, tmp_path,
                                               desk_runs):
    # A move's value does not depend on its block, so the sweep's chunks
    # change no result, however small the first one is.  A chunk without a
    # winner doubles the next, so from a first chunk of c, n moves take
    # b = ceil(log2(n / c + 1)) blocks: the final cycle, which holds no
    # winner, takes b, and each earlier stretch up to an accept 1 to b.
    first, accepting = association.SWEEP_CHUNK, set()
    for seed, (init, final) in enumerate(desk_runs):
        scn, solves = init.scenario, {first: final}
        moves = {game: n * (scn.n_sbs + (game == "csd")) + n * (n - 1) // 2
                 for game, n in (("hrd", scn.n_hrd), ("csd", scn.n_csd))}
        # Desk neighbourhoods fit in the first chunk: a cycle is one block.
        assert max(moves.values()) < first
        for chunk in (1, 7, 64) if seed < 4 else ():
            monkeypatch.setattr(association, "SWEEP_CHUNK", chunk)
            solves[chunk] = run_amnd(scn, init.demand)
        for chunk, state in solves.items():
            for game, phase, _, accepts, blocks, *_ in state.phases:
                if phase == "stabilize":
                    b = (-(-moves[game] // chunk)).bit_length()
                    assert accepts + b <= blocks <= (accepts + 1) * b, \
                        (seed, chunk, game, accepts, blocks)
                    accepting |= {game} if accepts else set()
            assert _solve_fingerprint(state, tmp_path / "chunk.csv") == \
                _solve_fingerprint(final, tmp_path / "whole.csv"), seed
    assert accepting == {"hrd", "csd"}


def test_stabilization_sweep_matches_scalar_reference(monkeypatch, tmp_path,
                                                      desk_runs):
    cases = [(init.scenario, init.demand, {}) for init, _ in desk_runs]
    for seed in (3, 100, 101):
        scn = generate_scenario(SystemParams(seed=seed),
                                Counts(n_hrd=20, n_csd=20))
        cases.append((scn, demand_for(scn, n_files=100, requests_per_hrd=2),
                      {}))
    # Few devices among 15 or 2 SBSs.
    for seed in range(6):
        params = (SystemParams(seed=seed) if seed < 4 else
                  SystemParams(seed=seed, m_sbs=2, n_mbs=1))
        scn = generate_scenario(params, Counts(n_hrd=3, n_csd=2))
        demand = demand_for(scn, seed=seed, n_files=6, storage=15.6e6)
        for kw in ({}, {"patience": 1}, {"patience": 3}):
            cases.append((scn, demand, kw))
    # Sweeps from partitions that the random phase left unsettled.
    for scn, demand, _ in cases[:3]:
        for kw in ({"t2": 1}, {"patience": 1}, {"patience": 0}):
            cases.append((scn, demand, kw))

    # Each game is played by the library and, on a clone of the initial
    # state, by its random phase, the one-row reference sweep and its
    # allocation step.  The clone's generators restart from the seed,
    # where the library's are too: no game's is drawn before it plays.
    sweeps, swept = [], set()
    for n, (scn, demand, kw) in enumerate(cases):
        monkeypatch.setattr(association, "game_budget", _budget(**kw))
        budget = association.game_budget(scn.n_hrd, scn.n_csd)
        block = abcg_init(scn, demand)
        reference = block.clone()
        for game in ("csd", "hrd"):
            run_coalition_game(block, game)
            sums = game_sums(reference, game)
            association._random_phase(reference, sums, *budget)
            sweeps.append(_scalar_stabilize(reference, game, sums))
            reallocate(reference, game)
            assert _solve_fingerprint(block, tmp_path / "block.csv") == \
                _solve_fingerprint(reference, tmp_path / "ref.csv"), \
                (n, kw, game)
        # The kinds of the moves that the block sweep applies.
        swept |= {move[2] for row, _, moves in _phase_moves(block)
                  if row[1] == "stabilize" for move in moves}
    # One sweep accepts several moves, and the block sweep both kinds.
    assert max(sweeps) >= 2
    assert swept == {"transfer", "swap"}


@pytest.mark.parametrize("hit", [100, ATTEMPTS - 1, ATTEMPTS, None])
def test_window_without_a_move_reads_on_or_gives_up(hit):
    # One device among 8 coalitions: an attempt draws a move only where its
    # pair holds coalition 0.  ``propose_move`` reads on, attempt by
    # attempt, to the first that does, and gives up after ``ATTEMPTS``.
    lists = [[0]] + [[] for _ in range(7)]
    values = [_land(8, 56)] * (3 * (ATTEMPTS + 1))
    if hit is not None:
        values[3 * hit] = _land(0, 56)      # the pair (0, 1)
    stream = iter(values)
    state = SimpleNamespace(hrd_members=lists)
    if hit is None or hit >= ATTEMPTS:
        with pytest.raises(RuntimeError, match="could not sample"):
            propose_move(state, "hrd", stream.__next__)
        return
    prop = propose_move(state, "hrd", stream.__next__)
    assert len(values) - len(list(stream)) == 3 * (hit + 1)
    assert (prop.kind, prop.c_from, prop.c_to, prop.md_from) == \
        ("transfer", 0, 1, 0)


@pytest.mark.parametrize("held", [0, 1], ids=["doubles-0", "doubles-1"])
def test_read_ahead_follows_next_uint32(held):
    # ``held`` uint32 draws first, so that the generator may hold half of
    # a 64-bit output, which a double does not use.
    def next_uint32(rng):
        iface = rng.bit_generator.ctypes
        return iface.next_uint32(iface.state)

    def fresh():
        rng = np.random.default_rng(np.random.SeedSequence([5, 12]))
        for _ in range(held):
            next_uint32(rng)
        return rng

    peek = fresh()
    stream_values = [peek.random() for _ in range(400)]
    # (values to read ahead, values to consume), then one scalar draw.
    for plan in ([(0, 0)], [(1, 1)], [(4, 2)], [(7, 3)], [(9, 5), (3, 3)],
                 [(300, 64), (10, 0), (200, 37)], [(5, 5), (6, 4), (20, 9)]):
        ours, twin = fresh(), fresh()
        stream, taken = ReadAhead(ours), 0
        for ahead, used in plan:
            assert stream.window(ahead).tolist() == \
                stream_values[taken:taken + ahead]
            stream.skip(used)
            taken += used
        for _ in range(taken):
            twin.random()
        assert stream.window(1).item() == twin.random()
        stream.skip(1)
        stream.release()
        assert ours.bit_generator.state == twin.bit_generator.state, plan
        assert np.array_equal(ours.integers(10**6, size=5),
                              twin.integers(10**6, size=5))
    # No reference cycle keeps a released reader's buffer alive.
    gc.disable()
    try:
        ref = weakref.ref(stream)
        del stream
        assert ref() is None
    finally:
        gc.enable()
