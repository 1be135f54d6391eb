import functools
import gc
import hashlib
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from mecsim import _kernels, association
from mecsim._kernels import FEAS_TOL, IDLE_FRAC, hrd_closed_form, \
    member_pairs
from mecsim.allocation import coalition_value, oracle_solve_p3
from mecsim.association import (IMPROVE_MARGIN, MASK32, MoveProposal,
                                _Draws, _evaluate, _lemire, _neighbourhood,
                                _tentative_members, abcg_init,
                                audit_stability, bounded_draws,
                                evaluate_and_apply,
                                propose_move, reallocate, run_amnd,
                                run_coalition_game, write_move_log)
from mecsim.content import Catalog, DemandProfile
from mecsim.delays import Allocation, audit_constraints
from mecsim.radio import build_rate_table
from mecsim.scenario import (Counts, ReadAhead, SystemParams, doubles,
                             generate_scenario, uint32s)
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


def test_bounded_draws_match_generator_integers():
    # The random phase's moves rest on these draws being numpy's own; this
    # fails if numpy ever changes how Generator.integers draws.
    ours, twin = np.random.default_rng(2024), np.random.default_rng(2024)
    draw = bounded_draws(ours)
    # Rejection is frequent near 2**31: about half of all draws at 2**31+1.
    bounds = list(range(1, 71)) + [2**31 + 1, 3 * 2**30]
    for _ in range(40):
        for n in bounds:
            assert draw(n) == int(twin.integers(n)), n
    before = ours.bit_generator.state
    assert draw(1) == 0
    assert ours.bit_generator.state == before
    assert np.array_equal(ours.integers(10**6, size=4),
                          twin.integers(10**6, size=4))
    for n in (0, 2**32):
        with pytest.raises(ValueError, match="outside"):
            draw(n)


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
            state.check()
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
    # output is the initializer followed by one reallocation
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


def _moves(state, game):
    """The moves of ``_neighbourhood``'s arrays, one at a time.  The
    association is read at each yield, so a consumer that applies a move
    sees the next moves drawn from the updated partition."""
    assoc = (state.partition.hrd_sbs if game == "hrd"
             else state.partition.csd_sbs)
    n_coal = len(state.hrd_members if game == "hrd" else state.csd_members)
    for swap, i, j, target in zip(*(a.tolist() for a in
                                    _neighbourhood(assoc.size, n_coal))):
        a = int(assoc[i])
        b = int(assoc[j]) if swap else target
        if a != b:
            yield MoveProposal(game, "swap" if swap else "transfer",
                               c_from=a, c_to=b, md_from=i,
                               md_to=j if swap else None)


def _check_moves_against_scratch(state, games=("hrd", "csd")):
    """Every move of ``games``, valued from the running sums, against the
    from-scratch valuation of its two tentative coalitions.  Returns the
    number of infeasible moves per game."""
    infeasible = {"hrd": 0, "csd": 0}
    for game in games:
        cache = state.v_hrd if game == "hrd" else state.v_csd
        for prop in _moves(state, game):
            src, dst = _tentative_members(
                state.hrd_members if game == "hrd" else state.csd_members,
                prop.c_from, prop.c_to, prop.md_from, prop.md_to)
            v_src, ok_src = coalition_value(state.costs, game, prop.c_from, src)
            v_dst, ok_dst = coalition_value(state.costs, game, prop.c_to, dst)
            dv = (v_src + v_dst) - (cache[prop.c_from] + cache[prop.c_to])
            _evaluate(state, prop)
            assert prop.feasible == (ok_src and ok_dst), prop
            assert abs(prop.dv - dv) <= 1e-12 * max(1.0, abs(v_src) + abs(v_dst)), \
                (prop, dv)
            infeasible[game] += not prop.feasible
    return infeasible


def test_running_sums_value_every_move_like_the_closed_form(desk_runs):
    for init, final in desk_runs:
        _check_moves_against_scratch(init)
        _check_moves_against_scratch(final)


def _count_floor_valuations(monkeypatch):
    """Record ``(coalition, size)`` of every ``_kernels.hrd_value`` call the
    game makes (its flagged sides), and require each result to be feasible
    and to equal the numerical optimum of ``oracle_solve_p3``."""
    calls = []
    inner = association.hrd_value

    def counted(costs, c, members):
        calls.append((c, len(members)))
        value, ok = inner(costs, c, members)
        sol = oracle_solve_p3(costs, c, members, "hrd")
        assert ok and sol["feasible"]
        assert value == pytest.approx(sol["objective"], rel=1e-9), \
            (c, members)
        return value, ok

    monkeypatch.setattr(association, "hrd_value", counted)
    return calls


def test_running_sums_fall_back_where_floors_bind(monkeypatch):
    # A rate ordering binds at SBS 3, so moves touching SBS 3 must be
    # valued over their members' pairs; every HRD move is feasible.
    state = bound_final_state()
    sums, c = state.sums["hrd"], np.array([3])
    none = np.array([sums.none])
    _, _, floor = sums.after(c, none, none, sums.size[c])
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
        beta, eta, value = hrd_closed_form(d, miss)
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
        block, _ = association._neighbourhood_block(
            state, state.sums["hrd"],
            _neighbourhood(state.partition.hrd_sbs.size, state.n_sbs), 0)
        contenders, rejects = block.screen(len(block))
        assert sorted(contenders + rejects) == \
            np.flatnonzero(block.floor).tolist(), n
        for q in rejects:
            dv, feasible = block.value(q)
            assert not feasible or dv >= -IMPROVE_MARGIN, (n, q, dv)
            feasible_out += feasible
        screened_out += len(rejects)
    assert screened_out > 1000 and feasible_out > 0


def _game_counts(monkeypatch):
    """A solve's proposals by how they are handled: ``valued`` (settled
    block rows and ``_evaluate`` calls), ``evaluated`` (``_evaluate``
    calls), ``skipped`` (counted in skipped tails) and ``drawn``
    (``propose_move`` calls outside skipped tails)."""
    counts = dict.fromkeys(("valued", "evaluated", "skipped", "drawn"), 0)
    in_tail = []
    inner_evaluate, inner_propose, inner_settle, inner_tail = (
        association._evaluate, association.propose_move,
        association._settle, association._skip_tail)

    def evaluate(state, prop):
        counts["valued"] += 1
        counts["evaluated"] += 1
        return inner_evaluate(state, prop)

    def propose(state, game, rng):
        counts["drawn"] += not in_tail
        return inner_propose(state, game, rng)

    def settle(state, block, first):
        counts["valued"] += first + (first < len(block))
        return inner_settle(state, block, first)

    def skip_tail(state, game, stream, draws, count):
        counts["skipped"] += count
        in_tail.append(game)
        try:
            return inner_tail(state, game, stream, draws, count)
        finally:
            in_tail.pop()

    monkeypatch.setattr(association, "_evaluate", evaluate)
    monkeypatch.setattr(association, "propose_move", propose)
    monkeypatch.setattr(association, "_settle", settle)
    monkeypatch.setattr(association, "_skip_tail", skip_tail)
    return counts


def test_game_values_each_accepted_block_move_once(monkeypatch, desk_runs):
    # A block applies its accept with its own valuation, so ``_evaluate``
    # runs only for the random phase's scalar-path proposals; the skipped
    # tail draws without valuing.  Every other proposal is valued once: as
    # a settled block row or by ``_evaluate``.
    counts = _game_counts(monkeypatch)
    accepted = proposals = 0
    for init, _ in desk_runs:
        final = run_amnd(init.scenario, init.demand, init_state=init)
        accepted += final.accepted_moves
        proposals += final.proposals - init.proposals
    # Few devices among 15 SBSs: the scalar path draws long runs of empty
    # pairs, in the skipped tail unless a move log turns the skip off.
    for seed in range(4):
        scn = generate_scenario(SystemParams(seed=seed),
                                Counts(n_hrd=3, n_csd=2))
        demand = demand_for(scn, seed=seed, n_files=6, storage=15.6e6)
        for log_moves in (False, True):
            final = run_amnd(scn, demand, log_moves=log_moves)
            accepted += final.accepted_moves
            proposals += final.proposals
    assert counts["drawn"] and accepted > counts["drawn"]
    assert counts["evaluated"] == counts["drawn"]
    assert 0 < counts["skipped"] < proposals
    assert counts["valued"] == proposals - counts["skipped"]


def test_skipped_tail_ends_where_a_logged_run_ends(monkeypatch, tmp_path):
    # A logged run values every proposal; an unlogged one skips the stable
    # tail.  Both must end in the same state, generators included.
    scn = generate_scenario(SystemParams(seed=0), Counts(n_hrd=20, n_csd=20))
    demand = demand_for(scn, seed=0)
    ends = []
    for log_moves in (False, True):
        with monkeypatch.context() as hooks:
            counts = _game_counts(hooks)
            state = run_amnd(scn, demand, log_moves=log_moves)
        fingerprint = _solve_fingerprint(state, tmp_path / "moves.csv")
        ends.append((fingerprint[:12], counts, state.proposals))
    (unlogged, counts, made), (logged, logged_counts, logged_made) = ends
    assert unlogged == logged
    assert counts["skipped"] > 0 and counts["valued"] < made
    assert counts["valued"] + counts["skipped"] == made
    assert (logged_counts["valued"], logged_counts["skipped"]) == \
        (logged_made, 0)


def _support(lists):
    """Every move ``propose_move`` can draw for coalitions of members
    ``lists``, found by walking all its draw outcomes: a swap as the set of
    its two devices, a transfer as its device and target."""
    class Exhausted(Exception):
        pass

    moves, scripts = set(), [()]
    while scripts:
        script = scripts.pop()
        values = iter(script)

        def draw(n):
            if n == 1:
                return 0
            value = next(values, None)
            if value is None:
                raise Exhausted(n)
            return value

        try:
            prop = propose_move(SimpleNamespace(hrd_members=lists), "hrd",
                                draw)
        except Exhausted as more:
            # A proposal takes at most four draws; longer scripts only
            # draw an empty pair again.
            if len(script) < 4:
                scripts += [script + (v,) for v in range(more.args[0])]
            continue
        moves.add(("swap", frozenset((prop.md_from, prop.md_to)))
                  if prop.kind == "swap" else
                  ("transfer", prop.md_from, prop.c_to))
    return moves


@pytest.mark.parametrize("sizes", [
    [0, 3, 0, 1, 0, 0, 2, 5], [0, 0, 0, 2], [1, 1, 1], [3, 0, 0],
    [0, 3], [1, 2], [2, 2],           # two coalitions
])
def test_drawable_count_matches_propose_move_support(sizes):
    lists = [[10 * c + k for k in range(size)] for c, size in enumerate(sizes)]
    assert association._drawable(np.array(sizes, dtype=np.int64)) == \
        len(_support(lists))


def test_drawable_block_holds_propose_move_support(desk_runs):
    for init, final in desk_runs[:5]:
        for state in (init, final):
            for game in ("hrd", "csd"):
                sums = state.sums[game]
                lists = state.hrd_members if game == "hrd" \
                    else state.csd_members
                block, _ = association._neighbourhood_block(
                    state, sums, _neighbourhood(sums.none, sums.size.size),
                    0, drawable=True)
                rows = {("swap", frozenset((p.md_from, p.md_to)))
                        if p.kind == "swap" else
                        ("transfer", p.md_from, p.c_to)
                        for p in map(block.proposal, range(len(block)))}
                assert len(block) == len(rows) == \
                    association._drawable(sums.size)
                assert rows == _support(lists), game


def test_swap_is_valued_alike_from_either_side(desk_runs, multi_request_run,
                                               bound_runs):
    # The skipped tail rests on this: a drawn swap is valued as the
    # neighbourhood's swap of the same two devices, whichever side it is
    # drawn from.
    states = [state for run in desk_runs + bound_runs for state in run]
    states += list(multi_request_run)
    states.append(bound_final_state())
    floor_bound = 0
    for state in states:
        for game in ("hrd", "csd"):
            sums = state.sums[game]
            block, _ = association._neighbourhood_block(
                state, sums, _neighbourhood(sums.none, sums.size.size), 0)
            at = np.flatnonzero(block.swap)
            a, b, i, j = (x[at] for x in (block.a, block.b, block.i,
                                          block.j))
            swap = np.ones(at.size, dtype=bool)
            ahead = association._Block(state, sums, swap, a, b, i, j)
            back = association._Block(state, sums, swap, b, a, j, i)
            assert ahead.dv.tobytes() == back.dv.tobytes()
            assert ahead.feasible.tolist() == back.feasible.tolist()
            assert ahead.floor.tolist() == back.floor.tolist()
            for q in np.flatnonzero(ahead.floor).tolist():
                assert ahead.value(q) == back.value(q), (game, q)
                floor_bound += 1
    assert floor_bound > 100


def test_running_sums_track_storage_load():
    # 250 kB of spare storage per SBS holds two 100 kB task inputs.
    scn = generate_scenario(SystemParams(seed=1), Counts(n_hrd=20, n_csd=40))
    state = abcg_init(scn, demand_for(scn, storage=25.25e6))
    assert _check_moves_against_scratch(state)["csd"] > 0


def test_clone_keeps_its_own_running_sums():
    scn, demand, state = desk_state(seed=5)
    twin = state.clone()

    def arrays(state):
        return [getattr(state.sums[game], name).copy()
                for game in ("hrd", "csd")
                for name in ("size", "members", "sums", "ratio")]

    sums = arrays(twin)
    run_coalition_game(state, "csd", t2=300)
    run_coalition_game(state, "hrd", t2=300)
    assert state.accepted_moves > 0
    assert all(np.array_equal(x, y) for x, y in zip(arrays(twin), sums))
    assert not all(np.array_equal(x, y) for x, y in zip(arrays(state), sums))
    twin.check()
    state.check()
    state.sums["hrd"].sums[0, 0] += 1.0
    with pytest.raises(AssertionError, match="running sums"):
        state.check()
    twin.check()


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
    scratch.allocation = Allocation.idle(final.costs.pair_k.size,
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
    final.check()
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
            state.check()


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
    _, _, value = hrd_closed_form(
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
        sums, ratio, value, _ = summary(costs, c, members)
        ref_sums, ref_ratio, ref_value = _numpy_sums(costs, game, c, members)
        assert np.array(sums).tobytes() == np.array(ref_sums,
                                                    dtype=float).tobytes()
        assert np.float64(ratio).tobytes() == np.float64(ref_ratio).tobytes()
        assert np.float64(value).tobytes() == np.float64(ref_value).tobytes()
        assert value == coalition_value(costs, game, c, members)[0]


def test_check_passes_after_evaluate_and_apply():
    scn, demand, state = desk_state(seed=5)
    rng = np.random.default_rng(3)
    accepted = 0
    for _ in range(300):
        prop = propose_move(state, "csd", rng)
        if evaluate_and_apply(state, prop):
            accepted += 1
            assert state.stale["csd"] == set()
            state.check()
    assert accepted >= 2
    # ``_apply`` alone defers the install.
    twin = state.clone()
    block, _ = association._neighbourhood_block(
        twin, twin.sums["hrd"],
        _neighbourhood(twin.partition.hrd_sbs.size, twin.n_sbs), 0)
    q = block.first_accept()
    assert q < len(block)
    prop = block.proposal(q)
    prop.dv, prop.feasible = block.value(q)
    assert association._apply(twin, prop)
    assert twin.stale["hrd"] == {prop.c_from, prop.c_to}
    with pytest.raises(AssertionError, match="await their install"):
        twin.check()


def test_game_installs_each_changed_coalition_once(monkeypatch, desk_runs):
    # Every accept defers its install to the end of the game, a block's and
    # the random phase's scalar fallback's alike; the game then installs
    # each coalition it changed once.
    events, games, scalar = [], [], []
    inner_game, inner_apply, inner_eval, inner_write = (
        association.run_coalition_game, association._apply,
        association._evaluate, association._write_coalition)

    def game(state, game, *args, **kwargs):
        games.append(game)
        try:
            return inner_game(state, game, *args, **kwargs)
        finally:
            games.pop()
            events.append(("end", game))

    def apply(state, prop):
        # Inside a game only the scalar fallback values a proposal by
        # ``_evaluate`` before applying it.
        accepted, is_scalar = inner_apply(state, prop), bool(scalar)
        scalar.clear()
        if accepted:
            events.append(("accept", prop.game, is_scalar,
                           (prop.c_from, prop.c_to)))
        return accepted

    def evaluate(state, prop):
        scalar.append(prop)
        return inner_eval(state, prop)

    def write(state, game, c, members):
        if games:
            events.append(("install", game, c))
        return inner_write(state, game, c, members)

    for name, hook in (("run_coalition_game", game), ("_apply", apply),
                       ("_evaluate", evaluate),
                       ("_write_coalition", write)):
        monkeypatch.setattr(association, name, hook)
    for init, _ in desk_runs:
        run_amnd(init.scenario, init.demand, init_state=init)
    # One or three devices among 15 SBSs: the fallback draws these games'
    # first proposals, and accepts some of them.
    for n_hrd, n_csd, seed in ((3, 2, 16), (1, 1, 2)):
        scn = generate_scenario(SystemParams(seed=seed),
                                Counts(n_hrd=n_hrd, n_csd=n_csd))
        init = abcg_init(scn, demand_for(scn, seed=seed, n_files=6,
                                         storage=15.6e6))
        association.run_coalition_game(init, "hrd", t2=3)
    accepts = installs = deferred = 0
    changed, at_end = set(), []
    for event in events:
        if event[0] == "accept":
            accepts += 1
            changed.update((event[1], c) for c in event[3])
        elif event[0] == "install":
            installs += 1
            at_end.append(event[1:])
        else:
            assert at_end == sorted(key for key in changed
                                    if key[0] == event[1])
            deferred += len(at_end)
            changed, at_end = set(), []
    assert installs == deferred
    assert any(e[0] == "accept" and e[2] for e in events)
    assert accepts > 0 and installs < 2 * accepts


def _state_bytes(state):
    alloc = state.allocation
    return [state.v_hrd.tobytes(), state.v_csd.tobytes(),
            repr(state.objective)] + [getattr(alloc, name).tobytes()
                                      for name in ("alpha", "gamma", "beta",
                                                   "eta")]


def _assert_reallocate_idempotent(state):
    """Reallocate a copy of ``state`` twice: the second pass changes no
    byte of the caches, the objective or the fractions."""
    state = state.clone()
    reallocate(state)
    once = _state_bytes(state)
    reallocate(state)
    assert _state_bytes(state) == once


def test_reallocate_is_idempotent(desk_runs, multi_request_run):
    # Installing a coalition that already holds its closed form writes the
    # same bits, after each game (where the HRD game changes coalitions the
    # CSD game's reallocation installed) and after ``run_amnd``.
    inits = [init for init, _ in desk_runs[:10]] + [multi_request_run[0]]
    scn = generate_scenario(SystemParams(seed=1), Counts(n_hrd=20, n_csd=40))
    inits.append(abcg_init(scn, demand_for(scn)))
    for init in inits:
        state = init.clone()
        for game in ("csd", "hrd"):
            run_coalition_game(state, game, t2=2000)
            _assert_reallocate_idempotent(state)
            reallocate(state)
        final = run_amnd(init.scenario, init.demand, init_state=init)
        _assert_reallocate_idempotent(final)
        for game, cache in (("hrd", final.v_hrd), ("csd", final.v_csd)):
            lists = final.hrd_members if game == "hrd" else final.csd_members
            for c, members in enumerate(lists):
                assert cache[c] == coalition_value(final.costs, game, c,
                                                   members)[0], (game, c)


# Recorded with the exact coupled HRD allocation: seed, repr(F_AMND),
# proposals, accepted moves, hrd_sbs, csd_sbs of the desk solves.
GOLDEN_DESK = (
    (0, "707.950473685913", 7064, 15,
     [0, 9, 13, 4, 6, 1, 1, 5, 10, 2, 8, 12, 2, 7, 14, 3, 9, 11, 4, 7],
     [1, 5, 10, 15, 7, 14, 3, 15, 15, 15, 8, 12, 2, 15, 15, 15, 15, 15, 4, 9]),
    (1, "1015.9427647500497", 8899, 31,
     [0, 6, 12, 3, 4, 13, 0, 5, 10, 3, 7, 12, 1, 8, 11, 2, 9, 14, 2, 8],
     [15, 15, 14, 0, 5, 11, 2, 15, 15, 3, 15, 15, 15, 8, 10, 4, 7, 15, 8, 9]),
    (2, "667.306721328047", 6387, 22,
     [4, 7, 13, 2, 6, 10, 3, 5, 11, 1, 8, 0, 4, 9, 12, 1, 5, 14, 2, 10],
     [15, 15, 11, 3, 5, 0, 15, 6, 10, 4, 15, 15, 2, 9, 14, 15, 15, 10, 15, 15]),
    (3, "849.1402324030585", 8574, 29,
     [0, 14, 5, 2, 8, 12, 1, 7, 10, 4, 9, 11, 4, 6, 10, 3, 7, 14, 0, 13],
     [15, 7, 13, 14, 6, 15, 15, 5, 11, 4, 15, 15, 1, 15, 12, 3, 15, 10, 2, 9]),
    (4, "650.0493893487898", 6907, 22,
     [4, 9, 12, 2, 6, 11, 0, 13, 10, 4, 7, 13, 3, 14, 10, 3, 8, 2, 1, 5],
     [2, 15, 13, 15, 5, 15, 4, 9, 15, 1, 15, 10, 0, 14, 15, 15, 6, 12, 3, 7]),
)


# The ``multi_request_run`` solve, in the same layout.
GOLDEN_MULTI_REQUEST = (
    3, "3715.4075671066057", 8378, 30,
    [0, 14, 5, 2, 8, 14, 1, 4, 10, 4, 9, 12, 3, 6, 10, 2, 7, 11, 0, 13],
    [15, 7, 13, 14, 6, 15, 15, 5, 11, 4, 15, 15, 1, 15, 12, 3, 15, 10, 2, 9])


# Each game generator's final (PCG64 state, has_uint32, uinteger), CSD
# then HRD, of the desk solves above ("multi" is ``multi_request_run``),
# and the SHA-256 of the ``write_move_log`` file of seed 0 solved with a
# move log.
GOLDEN_RNG = {
    0: ((75383566380014319041787061976167178904, 0, 3479969076),
        (18388660851679587867047905402971316175, 0, 3527960614)),
    1: ((212313877295116405040932564440147200802, 1, 513581162),
        (297132518108490216651312590601996489278, 0, 2605281452)),
    2: ((260590508217856256875050754802735862115, 0, 263991310),
        (158510539194232494727706257853363450342, 1, 3540578751)),
    3: ((157300841962195696493955064341231784391, 0, 2065352598),
        (9172946884496230668826920078369019207, 0, 2380263126)),
    4: ((310792501618525053574602670082774970017, 1, 1950371885),
        (81076790611014968376995089476602900612, 1, 3093165788)),
    "multi": ((157300841962195696493955064341231784391, 0, 2065352598),
              (109001640345172662294630510931399093249, 0, 2030946328)),
}
GOLDEN_MOVE_LOG_SEED0 = \
    "e1f89d122fb170355c21b29fd402cb1b8224cf29d57c9fa4962ba625bc632bff"


# The SHA-256 of the bytes of the final ``alpha``, ``gamma``, ``beta`` and
# ``eta`` of the desk solves above ("multi" is ``multi_request_run``).
GOLDEN_FRACTIONS = {
    0: (
        "79eaf1904c6dfe69ec9fee6b6e8a3715e85c967f6620f30df8d46d9e6e8cd490",
        "79eaf1904c6dfe69ec9fee6b6e8a3715e85c967f6620f30df8d46d9e6e8cd490",
        "f4e540bdb668be8f504b521599fbdb82bf4c7970e6ef99cb3c83787b70ee4bb1",
        "17c7a1dd4e05623cdcb7011c330534f27714e27d723794665df8ae66db1c33f3",
    ),
    1: (
        "2ad16d7cc56148f93429dbbfc294a1c3795a7a23aef82cbae3a3cf79ee1e5204",
        "7863b49ff85764cf8734cdf28c3d2f054874d4801d33b7d41f9f43de2a8ab76f",
        "2fe62d4aa52000b54e95fa577f9e1e7d77f399f61567e2413251f3574d2acb81",
        "0df3f1f5f171cfbb4b346b124f58ab70268331c52289b0f52b89b99af2c30fdd",
    ),
    2: (
        "b886f8b258f326ac453a06d0b71c0024526073084a873c0a5080efe2847906c4",
        "0c71a57c7325be688ed56f89a8529e01953d2cfb07e3cd6b6f1b087d8ab59395",
        "1d221464cbb600bc751e0d816c18874ab229a396c63530fb1d213c3246836aa4",
        "99f4434999022a68cc3ee76bf1a5b05aefe62f55fb4e99d6d4a53d6d8009cbab",
    ),
    3: (
        "30795028a3abea507343efa5f2ef196dd293a958d4b4aa134d1c6b9593faedea",
        "30795028a3abea507343efa5f2ef196dd293a958d4b4aa134d1c6b9593faedea",
        "45484ce171dd6777ed35f1975048edfca3d49dfc52c28c1a3afa6d0656ac2fe4",
        "19aba857479808f4237fb64e37f8ee90c88f84a9525ec7326e955fb9de8bc41a",
    ),
    4: (
        "eb81cbec24ae5d50ce0c94fffa4614d19ef72a8916d6ee8cd0dffe0702e8a239",
        "eb81cbec24ae5d50ce0c94fffa4614d19ef72a8916d6ee8cd0dffe0702e8a239",
        "8081480d39469d67c9bc1a3e5955593927a1d2e0bb3bada40b9761b6afa6b2be",
        "9381cf431bd9d064afc8f10d43bc3d146b3e2e29798c2a5f2eec38d9a7a955b1",
    ),
    "multi": (
        "30795028a3abea507343efa5f2ef196dd293a958d4b4aa134d1c6b9593faedea",
        "30795028a3abea507343efa5f2ef196dd293a958d4b4aa134d1c6b9593faedea",
        "903784367e5047b0f55013a96cc570e479c90f7a8dd11c382e8268c7553a0d18",
        "e28c4e21bbf086e8d757b30d330a4eafa24e1f5b36459ac70ca6ff35bd37421f",
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
    # The fixtures solve without a move log, as ``mecsim sweep`` does; the
    # logging branch of the random phase is pinned by a second seed-0 solve.
    init = desk_runs[0][0]
    logged = run_amnd(init.scenario, init.demand, log_moves=True)
    runs.append((GOLDEN_DESK[0], logged))
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
    assert _rng_states(logged) == GOLDEN_RNG[0]
    assert _fraction_digests(logged) == GOLDEN_FRACTIONS[0]
    path = tmp_path / "moves.csv"
    write_move_log(logged, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        GOLDEN_MOVE_LOG_SEED0


def test_desk_solves_are_nash_stable(desk_runs):
    for seed, (_, final) in enumerate(desk_runs):
        assert audit_stability(final) == [], seed


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
            src, dst = _tentative_members(lists, prop.c_from, prop.c_to,
                                          prop.md_from, prop.md_to)
            v_src, ok_src = coalition_value(state.costs, game, prop.c_from,
                                            src)
            v_dst, ok_dst = coalition_value(state.costs, game, prop.c_to, dst)
            prop.dv = (v_src + v_dst) - (cache[prop.c_from] + cache[prop.c_to])
            if ok_src and ok_dst and prop.dv < -IMPROVE_MARGIN:
                found.append(prop)
    return found


def _move_key(prop):
    return prop.game, prop.kind, prop.c_from, prop.c_to, prop.md_from, \
        prop.md_to


def test_audit_matches_scratch_reference(monkeypatch, desk_runs,
                                         multi_request_run, bound_runs):
    states = [init for init, _ in desk_runs + bound_runs[:3]]
    states += [run_amnd(init.scenario, init.demand, t2=50, stabilize=False,
                        init_state=init) for init, _ in desk_runs[:10]]
    states.append(bound_final_state())
    states.append(multi_request_run[0])
    fallbacks = _count_floor_valuations(monkeypatch)
    found = 0
    for n, state in enumerate(states):
        moves, reference = audit_stability(state), _scratch_audit(state)
        assert [_move_key(p) for p in moves] == \
            [_move_key(p) for p in reference], n
        for got, ref in zip(moves, reference):
            assert got.feasible is True
            assert abs(got.dv - ref.dv) <= 1e-12 * abs(ref.dv), (n, got, ref)
        found += len(moves)
    assert found
    assert 3 in [c for c, _ in fallbacks]


def test_audit_ignores_the_state_running_sums(desk_runs):
    state = desk_runs[1][0].clone()

    def snapshot():
        alloc = state.allocation
        return ([state.v_hrd.tobytes(), state.v_csd.tobytes(),
                 repr(state.objective), alloc.alpha.tobytes(),
                 alloc.gamma.tobytes(), alloc.beta.tobytes(),
                 alloc.eta.tobytes(), state.partition.hrd_sbs.tobytes(),
                 state.partition.csd_sbs.tobytes(), state.hrd_members,
                 state.csd_members, state.rng_hrd.bit_generator.state,
                 state.rng_csd.bit_generator.state]
                + [getattr(state.sums[game], name).tobytes()
                   for game in ("hrd", "csd")
                   for name in ("size", "members", "sums", "ratio")])

    before = snapshot()
    moves = audit_stability(state)
    assert moves
    assert snapshot() == before
    for game in ("hrd", "csd"):
        c = state.sums[game].size.argmax()
        state.sums[game].sums[c] *= 0.5
    with pytest.raises(AssertionError, match="running sums"):
        state.check()
    assert audit_stability(state) == moves


def _scalar_random_phase(state, game, t2, patience):
    """The random phase as one loop of ``propose_move`` and
    ``evaluate_and_apply``, one proposal at a time: the reference that the
    block version must equal to the last bit."""
    draw = bounded_draws(state.rng_hrd if game == "hrd" else state.rng_csd)
    rejections = 0
    for _ in range(t2):
        if rejections >= patience:
            break
        prop = propose_move(state, game, draw)
        if evaluate_and_apply(state, prop):
            rejections = 0
        else:
            rejections += 1


def _scalar_stabilize(state, game, sweeps):
    """The stabilization sweep as one loop of ``_moves`` and
    ``evaluate_and_apply``, one proposal at a time: the reference that the
    block version must equal to the last bit.  Appends each sweep's count
    of accepted moves to ``sweeps``."""
    improved = True
    while improved:
        applied = 0
        for prop in _moves(state, game):
            applied += evaluate_and_apply(state, prop)
        sweeps.append(applied)
        improved = applied > 0


def _solve_fingerprint(state, path):
    alloc = state.allocation
    fingerprint = [
        repr(state.objective), [repr(v) for v in state.trace],
        state.proposals, state.accepted_moves,
        state.partition.hrd_sbs.tobytes(), state.partition.csd_sbs.tobytes(),
        alloc.alpha.tobytes(), alloc.gamma.tobytes(), alloc.beta.tobytes(),
        alloc.eta.tobytes(), state.rng_csd.bit_generator.state,
        state.rng_hrd.bit_generator.state]
    if state.move_log is not None:
        write_move_log(state, path)
        fingerprint.append(path.read_bytes())
    return fingerprint


@pytest.mark.parametrize("log_moves", [False, True])
def test_random_phase_matches_scalar_reference(log_moves, monkeypatch,
                                               tmp_path):
    scalar_proposals = []
    inner = association.propose_move

    def counted(state, game, rng):
        scalar_proposals.append(game)
        return inner(state, game, rng)

    monkeypatch.setattr(association, "propose_move", counted)
    # Kinds of the moves that the block sweep applies.
    swept, sweeping = set(), []
    inner_sweep, inner_apply = (association.stabilize_partition,
                                association._apply)

    def sweep(state, game):
        sweeping.append(game)
        try:
            return inner_sweep(state, game)
        finally:
            sweeping.pop()

    def apply(state, prop):
        accepted = inner_apply(state, prop)
        if sweeping and accepted:
            swept.add(prop.kind)
        return accepted

    monkeypatch.setattr(association, "stabilize_partition", sweep)
    monkeypatch.setattr(association, "_apply", apply)

    def solve(scn, demand, kw, second_round):
        init = abcg_init(scn, demand, log_moves=log_moves)
        state = run_amnd(scn, demand, init_state=init, **kw)
        if second_round:
            # The game generators now start with a held high half.
            held.append(state.rng_hrd.bit_generator.state["has_uint32"])
            run_coalition_game(state, "csd", t2=300, patience=100)
            run_coalition_game(state, "hrd", t2=300, patience=100)
        return state

    cases = []
    for seed in range(20):
        scn = generate_scenario(SystemParams(seed=seed),
                                Counts(n_hrd=20, n_csd=20))
        cases.append((scn, demand_for(scn, seed=seed), {}, False))
    for seed in (3, 100, 101):
        scn = generate_scenario(SystemParams(seed=seed),
                                Counts(n_hrd=20, n_csd=20))
        demand = demand_for(scn, n_files=100, requests_per_hrd=2)
        cases.append((scn, demand, {}, seed != 3))
    # Few devices among 15 or 2 SBSs: most coalition pairs are drawn again.
    for seed in range(6):
        params = (SystemParams(seed=seed) if seed < 4 else
                  SystemParams(seed=seed, m_sbs=2, n_mbs=1))
        scn = generate_scenario(params, Counts(n_hrd=3, n_csd=2))
        demand = demand_for(scn, seed=seed, n_files=6, storage=15.6e6)
        for kw in ({}, {"patience": 1}, {"patience": 3}):
            cases.append((scn, demand, kw, seed % 2 == 0))
    for scn, demand, _, _ in cases[:3]:
        for kw in ({"t2": 1}, {"patience": 1}, {"patience": 0},
                   {"t2": 77, "stabilize": False}):
            cases.append((scn, demand, kw, True))

    held, sweeps = [], []
    for n, (scn, demand, kw, second_round) in enumerate(cases):
        block = solve(scn, demand, kw, second_round)
        assert (block.move_log is not None) == log_moves
        block = _solve_fingerprint(block, tmp_path / f"block{n}.csv")
        with monkeypatch.context() as scalar:
            scalar.setattr(association, "_random_phase", _scalar_random_phase)
            scalar.setattr(association, "stabilize_partition",
                           functools.partial(_scalar_stabilize,
                                             sweeps=sweeps))
            reference = solve(scn, demand, kw, second_round)
        path = tmp_path / f"ref{n}.csv"
        assert block == _solve_fingerprint(reference, path), (n, kw)
    # The cases reach the scalar path and a start on a held half; one
    # sweep accepts several moves, and the block sweep both kinds.
    assert scalar_proposals and 1 in held
    assert max(sweeps) >= 2
    assert swept == {"transfer", "swap"}


def _decode_scalar(window, lists, start):
    """``propose_move`` from position ``start`` of ``window``, drawing with
    ``bounded_draws``' algorithm.  Returns the proposal, the values it
    consumed, the position of its last pair draw, and where a draw entered
    Lemire's rejection branch: ``None``, ``"pair"`` or ``"member"``."""
    pos, calls, branches = start, [], []

    def next_uint32():
        nonlocal pos
        pos += 1
        return int(window[pos - 1])

    lemire = _lemire(next_uint32)

    def draw(n):
        calls.append(pos)
        if n > 1 and int(window[pos]) * n & MASK32 < n:
            branches.append(len(calls) - 1)
        return lemire(n)

    prop = propose_move(SimpleNamespace(hrd_members=lists), "hrd", draw)
    # The last pair draw precedes one member draw per side that moves one.
    pair = len(calls) - (4 if prop.kind == "swap" else 3)
    branch = None
    if branches:
        branch = "member" if branches[-1] > pair + 1 else "pair"
    return prop, pos - start, calls[pair], branch


@pytest.mark.parametrize("sizes", [
    [0, 3, 0, 1, 0, 0, 2, 5],        # redraws, bound-1 members, swaps
    [0, 0, 0, 0, 0, 0, 0, 2],        # long runs of redrawn empty pairs
    [0, 3], [1, 2],                   # two coalitions: the second draw is free
])
def test_derive_matches_scalar_draws(sizes):
    rng = np.random.default_rng(len(sizes) + sum(sizes))
    window = rng.integers(0, 1 << 32, 1500)
    # Values whose low product falls below a bound n: j * 2**32 / n rounded
    # up, for every bound in play.  Some are rejected, some are not.
    bounds = {len(sizes), len(sizes) - 1} | set(sizes)
    special = [0] + [-(-j * (1 << 32) // n) for n in bounds if n > 1
                     for j in range(1, n)]
    window[::11] = [special[k % len(special)]
                    for k in range(window[::11].size)]
    lists = [[10 * c + k for k in range(size)] for c, size in enumerate(sizes)]
    none = 99
    draws = _Draws(np.array(sizes, dtype=np.int64), none)
    span, limit = window.size - 3, 3
    seen = {"pair_rejection": 0, "member_rejection": 0, "redraw": 0,
            "bound_1": 0, "swap": 0, "transfer": 0, "chained": 0}
    for start in range(span):
        # Up to ``limit`` proposals decoded from ``start``, against the same
        # proposals drawn one after another by ``propose_move``.
        decoded = draws.decode(window[start:], limit)
        ends = decoded[0].tolist()
        assert len(ends) <= limit
        pos = start
        for q in range(limit):
            try:
                prop, used, pair, branch = _decode_scalar(window, lists, pos)
            except IndexError:   # its draws run past the window
                break
            if pair >= span:     # ... or may
                break
            if q == len(ends):
                # The chain stops at a draw in Lemire's rejection branch.
                assert branch is not None, (start, q)
                seen[branch + "_rejection"] += 1
                break
            assert branch is None, (start, q)
            assert start + ends[q] == pos + used, (start, q)
            swap, a, b, k_from, k_to = (int(x[q]) for x in decoded[1:])
            derived = ("swap" if swap else "transfer", a, b,
                       lists[a][k_from], lists[b][k_to] if swap else k_to)
            assert derived == (prop.kind, prop.c_from, prop.c_to,
                               prop.md_from,
                               prop.md_to if swap else none), (start, q)
            seen["redraw"] += pair > pos
            seen[prop.kind] += 1
            seen["chained"] += q > 0
            seen["bound_1"] += (sizes[prop.c_from] == 1
                                or swap and sizes[prop.c_to] == 1)
            pos += used
    assert seen["pair_rejection"] > 0 and seen["member_rejection"] > 0, seen
    assert seen["chained"] > 0, seen
    assert (seen["redraw"] > 0) == (sizes.count(0) > 1), seen
    assert (seen["transfer"] > 0) == (0 in sizes), seen
    assert (seen["swap"] > 0) == (seen["bound_1"] > 0) == (1 in sizes), seen


@pytest.mark.parametrize("batch, held", [(uint32s, 0), (uint32s, 1),
                                         (doubles, 0), (doubles, 1)],
                         ids=["0", "1", "doubles-0", "doubles-1"])
def test_read_ahead_follows_next_uint32(batch, held):
    def next_uint32(rng):
        iface = rng.bit_generator.ctypes
        return iface.next_uint32(iface.state)

    def single(rng):
        return next_uint32(rng) if batch is uint32s else rng.random()

    def fresh():
        rng = np.random.default_rng(np.random.SeedSequence([5, 12]))
        for _ in range(held):
            next_uint32(rng)
        return rng

    peek = fresh()
    stream_values = [single(peek) for _ in range(400)]
    # (values to read ahead, values to consume), then one scalar draw.
    for plan in ([(0, 0)], [(1, 1)], [(4, 2)], [(7, 3)], [(9, 5), (3, 3)],
                 [(300, 64), (10, 0), (200, 37)], [(5, 5), (6, 4), (20, 9)]):
        ours, twin = fresh(), fresh()
        stream, taken = ReadAhead(ours, batch), 0
        for ahead, used in plan:
            assert stream.window(ahead).tolist() == \
                stream_values[taken:taken + ahead]
            stream.skip(used)
            taken += used
        for _ in range(taken):
            single(twin)
        if batch is uint32s:
            assert _lemire(stream.next)(1000) == bounded_draws(twin)(1000)
        else:
            assert stream.next() == twin.random()
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
