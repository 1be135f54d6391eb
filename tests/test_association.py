import collections
import dataclasses
import functools
import gc
import hashlib
import math
import os
import subprocess
import sys
import weakref
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import mecsim
from mecsim import _kernels, association
from mecsim.allocation import oracle_solve_p3
from mecsim._kernels import BYTES_TOL, FEAS_TOL, IDLE_FRAC, hrd_closed_form
from mecsim.association import (IMPROVE_MARGIN, MARGIN_REL, GameState,
                                _draw_weights, _neighbourhood,
                                _tentative_members,
                                abcg_init, audit_stability, game_budget,
                                reallocate, run_amnd, run_coalition_game,
                                write_move_log)
from mecsim.delays import audit_constraints
from mecsim.experiments import ExperimentConfig
from mecsim.scenario import SystemParams
from conftest import game_sums, hand_demand, idle_allocation, \
    rate_scenario, whole_block
from fingerprint import WORKLOADS, demand_for, digest, fields, instance, \
    line, solve, total
from reference import (MoveProposal, _evaluate, check_state,
                       check_sums, evaluate_and_apply, member_pairs,
                       propose_move, solve_p3)


def coalition_value(costs, game, c, members):
    """The closed-form value of ``members`` as coalition ``c`` of ``game``
    ("hrd" or "csd"), +inf where it is infeasible."""
    return getattr(_kernels, f"{game}_value")(costs, c, members)


def single_sbs_setup(cache_bit, local_cps=1.4e9, n_hrd=1, n_csd=1):
    scn = rate_scenario(SystemParams(m_sbs=1, n_mbs=1),
                        r_dl=np.full((1, n_hrd), 4.0),
                        r_ul=np.full((1, n_csd), 4.0), r_bh=[9.0])
    return scn, hand_demand(1, n_hrd, n_csd,
                            cache=np.full((1, 2), cache_bit, np.int8),
                            local_cps=np.full(n_csd, local_cps))


def test_init_single_cached_file_gets_full_band():
    state = abcg_init(*single_sbs_setup(cache_bit=1))
    assert state.partition.hrd_sbs.tolist() == [0]
    assert state.allocation.beta.tolist() == [1.0]
    assert state.allocation.eta.tolist() == [IDLE_FRAC]
    assert state.report().hrd_backhaul_s == 0.0


def test_init_two_devices_share_the_band_equally():
    state = abcg_init(*single_sbs_setup(cache_bit=1, n_hrd=2))
    assert state.allocation.beta == pytest.approx([0.5, 0.5])


def test_init_offload_decision_follows_the_comparison():
    # A strong local CPU makes offloading slower, a weak one makes it win.
    for local_cps, sbs in ((1e12, 1), (1e6, 0)):
        state = abcg_init(*single_sbs_setup(cache_bit=1, local_cps=local_cps))
        assert state.partition.csd_sbs.tolist() == [sbs]


def test_init_respects_storage_for_offloads():
    scn, demand = single_sbs_setup(cache_bit=1, local_cps=1e6, n_csd=3)
    tight = dataclasses.replace(demand, storage_bytes=np.array([
        demand.catalog.file_size_bytes * 2 + 2.5e5]))
    state = abcg_init(scn, tight)
    # room for two 1e5-byte inputs after the cached files; the third stays local
    assert state.partition.csd_sbs.tolist() == [0, 0, 1]
    assert audit_constraints(scn, tight, state.partition, state.allocation,
                             state.table) == []


def test_init_filter_prefers_sustainable_backhaul():
    # SBS 0 has the strongest access link but a backhaul that cannot keep up
    # at this band split; SBS 1 passes the filter and wins.
    scn = rate_scenario(SystemParams(a=0.8, m_sbs=2, n_mbs=1),
                        r_dl=[[12.0], [4.0]], r_ul=[[4.0], [4.0]],
                        r_bh=[2.0, 17.0])
    state = abcg_init(scn, demand_for(scn, n_files=4, storage=0.0,
                                      policy="popular_first", seed=1))
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
    scn, demand = instance(seed, 12, 12)
    return scn, demand, abcg_init(scn, demand)


def test_proposals_are_reproducible():
    _, _, state = desk_state()
    seq1, seq2 = ([propose_move(state, "hrd", np.random.default_rng(42))
                   for _ in range(25)] for _ in range(2))
    assert seq1 == seq2


def two_sbs_state(r_dl, r_ul):
    scn = rate_scenario(SystemParams(m_sbs=2, n_mbs=1), r_dl=r_dl, r_ul=r_ul,
                        r_bh=[9.0, 9.0])
    return abcg_init(scn, demand_for(scn, n_files=4, storage=2e9,
                                     policy="popular_first"))


def test_empty_coalition_receives_a_transfer():
    state = two_sbs_state([[4.0], [3.0]], [[4.0], [3.0]])
    # The device sits at SBS 0; SBS 1 is empty, so every proposal transfers.
    assert state.hrd_members == [[0], []]
    rng = np.random.default_rng(0)
    for _ in range(10):
        prop = propose_move(state, "hrd", rng)
        assert (prop.kind, prop.md_from, prop.c_to) == ("transfer", 0, 1)
    # Where no coalition holds a member, no move can be drawn.
    with pytest.raises(ValueError, match="member"):
        propose_move(state, "hrd", rng, [[], []])


def test_nonempty_pair_swaps():
    state = two_sbs_state([[9.0, 3.0], [3.0, 9.0]], [[4.0, 4.0], [4.0, 4.0]])
    assert state.hrd_members == [[0], [1]]
    prop = propose_move(state, "hrd", np.random.default_rng(1))
    assert prop.kind == "swap" and {prop.md_from, prop.md_to} == {0, 1}


def test_rejected_move_leaves_state_intact():
    scn, demand, state = desk_state()
    rng, sums = np.random.default_rng(7), game_sums(state, "hrd")
    rejected = 0
    for _ in range(50):
        # A rejection is counted, and changes nothing else.
        before = fields(state, omit=("proposals",))
        if not evaluate_and_apply(state, sums,
                                  propose_move(state, "hrd", rng)):
            rejected += 1
            assert fields(state, omit=("proposals",)) == before
    assert rejected and state.accepted_moves


def test_infeasible_target_is_rejected():
    scn = rate_scenario(SystemParams(m_sbs=2, n_mbs=1), r_dl=[[4.0], [3.0]],
                        r_ul=[[9.0, 9.0], [2.0, 2.0]], r_bh=[9.0, 9.0])
    # Local is hopeless, so both offload; SBS 1 has no spare room.
    demand = hand_demand(2, 1, 2, task_input_bytes=np.full(2, 4e4),
                         local_cps=np.full(2, 1e6),
                         storage_bytes=np.array([10.1e6, 10e6]))
    state = abcg_init(scn, demand)
    assert state.csd_members[0] == [0, 1]
    prop = MoveProposal("csd", "transfer", c_from=0, c_to=1, md_from=0)
    assert not evaluate_and_apply(state, game_sums(state, "csd"), prop)
    assert prop.dv == math.inf


def _budget(t2=None, patience=None):
    """A stand-in for ``association.game_budget`` that sets ``t2`` or
    ``patience`` in place of the instance's own."""
    def budget(n_hrd, n_csd):
        own = game_budget(n_hrd, n_csd)
        return (own[0] if t2 is None else t2,
                own[1] if patience is None else patience)
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
    for scn, demand in (instance(0), instance(1, 3, 2, n_files=6,
                                              storage=15.6e6)):
        asked.clear()
        state = run_amnd(scn, demand)
        assert asked == [(scn.n_hrd, scn.n_csd)] * 2, scn.n_hrd
        assert len(_random_phase_ends(
            state, *game_budget(scn.n_hrd, scn.n_csd))) == 2, scn.n_hrd


def test_empty_deployment_solves_to_zero():
    # No device: no game holds a member to move, so no random phase runs,
    # and every stage leaves F at 0.
    state = run_amnd(*instance(0, 0, 0))
    assert state.objective == 0.0 and state.trace == [0.0] * 3
    assert state.proposals == 0 and audit_stability(state) == []
    check_state(state)


def test_a_gain_just_above_the_margin_is_accepted():
    # Two SBSs alike but for SBS 1's edge server, faster by a relative
    # 1e-8: moving the CSD there gains about 1.7e-10 s, far below any
    # rounding of F but above ``IMPROVE_MARGIN``, so the game takes it.
    scn = rate_scenario(SystemParams(m_sbs=2, n_mbs=1), r_dl=[[4.0], [4.0]],
                        r_ul=[[4.0], [4.0]], r_bh=[9.0, 9.0])
    final = run_amnd(scn, hand_demand(2, 1, 1, edge_cps=np.array(
        [6e10, 6e10 * (1.0 + 1e-8)])))
    assert final.partition.csd_sbs.tolist() == [1]
    assert [row[1] for row in final.move_log] == ["csd"]
    assert -1e-9 < final.move_log[0][3] < -IMPROVE_MARGIN


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


def test_second_round_accepts_no_move():
    # The two games share no constraint, each ends stabilized, and its
    # allocation step only lowers cached values: another round is a no-op.
    state = run_amnd(*instance(21, 10, 10))
    assert len(state.trace) == 3
    # All but the proposals, the phase rows and the generators, which the
    # random phases count, log and draw.
    left_out = ("proposals", "phases", "rng_csd", "rng_hrd")
    before = fields(state, omit=left_out)
    run_coalition_game(state, "csd")
    run_coalition_game(state, "hrd")
    assert fields(state, omit=left_out) == before


def test_trace_does_not_rise_from_roundoff():
    # Desk seed 542: summing the objective move by move drifted below the
    # recomputed sum, so the final reallocation raised F by 1.1e-12.
    state = run_amnd(*instance(542))
    assert np.diff(state.trace).max() <= 1e-12


@pytest.fixture(scope="module")
def bound_runs():
    """``solve`` on the default workload at a = 0.9, seeds 0-9, where
    many devices have rho above 1 and their rate orderings bind on many
    moves."""
    return [solve(*instance(seed, 20, 40, a=0.9)) for seed in range(10)]


def bound_final_state():
    """Seed 4, default workload: AMND ends with HRDs 12 and 15 at SBS 3,
    where device 15's rate ordering binds (rho = 1.33)."""
    state = run_amnd(*instance(4, 20, 40))
    assert state.hrd_members[3] == [12, 15]
    return state


@pytest.fixture(scope="module")
def desk_runs():
    """``solve`` on the criterion-2 desk, seeds 0-19."""
    return [solve(*instance(seed)) for seed in range(20)]


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


def _scratch_value(state, lists, prop):
    """``(v_src, v_dst, dv)`` of ``prop`` at a state whose coalitions of
    ``prop.game`` hold the members ``lists``, valued from scratch: one
    ``coalition_value`` per tentative coalition, +inf where it is
    infeasible, and then so is ``dv``."""
    ends, cache = (prop.c_from, prop.c_to), getattr(state, f"v_{prop.game}")
    v_src, v_dst = (coalition_value(state.costs, prop.game, c, members)
                    for c, members in zip(ends, _tentative_members(
                        lists, *ends, prop.md_from, prop.md_to)))
    return v_src, v_dst, (v_src + v_dst) - (cache[ends[0]] + cache[ends[1]])


def _check_moves_against_scratch(state, games=("hrd", "csd")):
    """Every move of ``games``, valued from the running sums as one block
    (``whole_block``, whose rows are ``_moves``' in order; a flagged row
    valued exactly), against the from-scratch valuation of its two
    tentative coalitions.  Returns the number of infeasible moves per
    game."""
    infeasible = {"hrd": 0, "csd": 0}
    for game in games:
        block, moves = whole_block(state, game), list(_moves(state, game))
        lists = getattr(state, f"{game}_members")
        assert len(moves) == len(block)
        for q, prop in enumerate(moves):
            assert (block.a.item(q), block.b.item(q)) == (prop.c_from,
                                                          prop.c_to)
            v_src, v_dst, dv = _scratch_value(state, lists, prop)
            got = block.value(q)
            assert (got == math.inf) == (math.inf in (v_src, v_dst)), prop
            assert got == dv or abs(got - dv) <= \
                1e-12 * max(1.0, abs(v_src) + abs(v_dst)), (prop, got, dv)
            infeasible[game] += got == math.inf
    return infeasible


def test_running_sums_value_every_move_like_the_closed_form(desk_runs):
    for state in [state for run in desk_runs for state in run]:
        _check_moves_against_scratch(state)


def _count_floor_valuations(monkeypatch):
    """Record ``(coalition, size)`` of every ``_kernels.hrd_value`` call the
    game makes (its flagged sides), and require each result to be feasible
    and to equal the numerical optimum of ``solve_p3``."""
    calls, inner = [], association.hrd_value

    def counted(costs, c, members):
        calls.append((c, len(members)))
        value, sol = inner(costs, c, members), solve_p3(costs, c, members,
                                                        "hrd")
        assert math.isfinite(value) and sol["feasible"]
        assert value == pytest.approx(sol["objective"], rel=1e-9), members
        return value

    monkeypatch.setattr(association, "hrd_value", counted)
    return calls


def test_running_sums_fall_back_where_floors_bind(monkeypatch):
    # A rate ordering binds at SBS 3, so moves touching SBS 3 must be
    # valued over their members' pairs; every HRD move is feasible.
    state = bound_final_state()
    sums, c = game_sums(state, "hrd"), np.array([3])
    none = np.array([sums.none])
    assert sums.after(c, none, none, sums.size[c])[1].tolist() == [True]
    fallbacks = _count_floor_valuations(monkeypatch)
    _check_moves_against_scratch(state, games=("csd",))
    assert fallbacks == []
    assert _check_moves_against_scratch(state, games=("hrd",))["hrd"] == 0
    assert 3 in [c for c, _ in fallbacks]


@pytest.fixture(scope="module")
def multi_request_run():
    """``solve`` on the desk with two requests per HRD and 100 files, so
    a device holds several missed pairs under one rho."""
    return solve(*instance(3, **WORKLOADS["multi"]))


def test_running_sums_value_multi_request_moves(monkeypatch,
                                                multi_request_run):
    # The same workload at a = 0.9, where rate orderings bind on many moves.
    bound = abcg_init(*instance(3, a=0.9, **WORKLOADS["multi"]))
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


@pytest.fixture(scope="module")
def rate_bound_states(desk_runs, multi_request_run, bound_runs):
    """Both states of ``desk_runs``, ``bound_runs`` and ``multi_request_run``,
    and ``bound_final_state()``."""
    return [state for run in desk_runs + bound_runs + [multi_request_run]
            for state in run] + [bound_final_state()]


def test_screen_skips_only_moves_that_cannot_be_accepted(rate_bound_states):
    screened_out = feasible_out = 0
    for n, state in enumerate(rate_bound_states):
        block = whole_block(state, "hrd")
        contenders = block.screen()
        flagged = np.flatnonzero(block.floor).tolist()
        assert set(contenders) <= set(flagged), n
        rejects = sorted(set(flagged) - set(contenders))
        for q in rejects:
            dv = block.value(q)
            assert dv >= block.cut[q], (n, q, dv)
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
    assoc = getattr(state.partition, f"{game}_sbs")
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
        finals.append(run_amnd(*instance(seed, 3, 2, n_files=6,
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
                                "_evaluate"))
    assert 0 < tally["accepts"] < sum(f.accepted_moves for f in finals)
    # Most proposals of a phase are rejections that are counted, not drawn.
    assert tally["proposals"] > 10 * tally["blocks"]


def test_skipped_tail_ends_where_a_logged_run_ends(monkeypatch, desk_runs):
    # The random phase counts its rejections, the tail that ends it
    # included, without drawing them, and logs only its accepts.  Read
    # against the move log, each phase ends when the wait after its last
    # accept reaches the budget left, ``min(t2 - done, patience)``; and a
    # solve from a clone of the initial state ends where a fresh solve
    # ends, generators and log included.
    cases = [(init.scenario, init.demand, {}) for init, _ in desk_runs[:5]]
    cases += [(*instance(seed, a=0.9, n_files=100, requests_per_hrd=2), {})
              for seed in (3, 4)]
    cases.append((*instance(1, 3, 2, n_files=6, storage=15.6e6), {}))
    for scn, demand, _ in cases[:2]:
        cases += [(scn, demand, {"t2": 40}), (scn, demand, {"patience": 3})]
    ends = set()
    for n, (scn, demand, kw) in enumerate(cases):
        monkeypatch.setattr(association, "game_budget", _budget(**kw))
        fresh = run_amnd(scn, demand)
        cloned = run_amnd(scn, demand, init_state=abcg_init(scn, demand))
        assert fields(fresh) == fields(cloned), n
        assert fresh.phases == cloned.phases, n
        ends.update(_random_phase_ends(
            fresh, *association.game_budget(scn.n_hrd, scn.n_csd)))
    # Phases end on the game budget and on the patience alike.
    assert ends == {False, True}


def _support(lists):
    """Every move ``propose_move`` can draw for coalitions of members
    ``lists``, with its probability, found by feeding it scripted draws
    through a stub whose ``integers`` returns them: each ordered coalition
    pair, then each member of the side that leaves (the first, unless it is
    empty) and each member of the other side.  A swap is keyed by the set
    of its two devices, a transfer by its device and target."""
    def scripted(script):
        draws = iter(script)

        def integers(bound):
            value = next(draws)
            assert value < bound, (script, bound)
            return value
        return SimpleNamespace(integers=integers, rest=draws)

    n_coal, sizes = len(lists), [len(c) for c in lists]
    weights = {}
    for pair in range(n_coal * (n_coal - 1)):
        m, n = divmod(pair, n_coal - 1)
        n += n >= m
        a, b = (m, n) if lists[m] else (n, m)
        # A transfer draws no member of its empty side.
        scripts = [[pair, i, j][:2 + bool(sizes[b])] for i in range(sizes[a])
                   for j in range(max(sizes[b], 1))]
        for script in scripts or [[pair]]:
            rng = scripted(script)
            try:
                prop = propose_move(None, "hrd", rng, lists)
            except StopIteration:
                # No member in the pair: another pair is drawn.
                assert not scripts, pair
                continue
            assert next(rng.rest, None) is None
            key = (("swap", frozenset((prop.md_from, prop.md_to)))
                   if prop.kind == "swap" else
                   ("transfer", prop.md_from, prop.c_to))
            weights[key] = weights.get(key, 0) + Fraction(1, len(scripts))
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
                rows = [("swap", frozenset((i, j))) if swap else
                        ("transfer", i, to)
                        for swap, i, j, to in zip(
                            block.swap.tolist(), block.i.tolist(),
                            block.j.tolist(), block.b.tolist())]
                support = _support(getattr(state, f"{game}_members"))
                assert len(set(rows)) == len(rows) == len(support)
                weights = _draw_weights(block.sums.size, block.a,
                                        block.b).tolist()
                assert weights == [float(support[key]) for key in rows], game
    # ``_neighbourhood`` is built once per shape and shared, so read-only.
    hood = _neighbourhood(20, 15)
    assert hood is _neighbourhood(20, 15)
    assert not any(x.flags.writeable for x in hood)


def test_swap_is_valued_alike_from_either_side(rate_bound_states):
    # The random phase rests on this: it values each drawable swap once,
    # from one side, whichever side ``propose_move`` would draw it from.
    floor_bound = 0
    for state in rate_bound_states:
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
            floors = [x if x is None else x.tolist()
                      for x in (ahead.floor, back.floor)]
            assert floors[0] == floors[1]
            for q in np.flatnonzero(floors[0] or []).tolist():
                assert ahead.value(q) == back.value(q), (game, q)
                floor_bound += 1
    assert floor_bound > 100


def test_running_sums_track_storage_load():
    # 250 kB of spare storage per SBS holds two 100 kB task inputs.
    state = abcg_init(*instance(1, 20, 40, storage=25.25e6))
    assert _check_moves_against_scratch(state)["csd"] > 0


def test_an_overrun_side_makes_its_move_worth_inf():
    # Extended value: a CSD side whose stored bytes overrun its room is
    # worth +inf, so its move's ``dv`` is +inf, whatever the other side
    # gains, and no block counts it as improving; the arithmetic raises no
    # invalid-value warning.
    overrun = gaining_swaps = 0
    for seed in range(1, 6):
        scn, demand = instance(seed, storage=25.25e6)
        # 250 kB of spare storage per SBS holds a 100 kB and a 150 kB task
        # input, but not two 150 kB ones, so swaps can overrun too; unequal
        # local speeds let the local side of a swap gain.
        state = abcg_init(scn, dataclasses.replace(
            demand, task_input_bytes=np.resize([100e3, 150e3], demand.n_csd),
            local_cps=demand.local_cps * np.linspace(0.5, 1.5, demand.n_csd)))
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
        # 250 kB of spare storage per SBS holds two 100 kB task inputs.
        for storage in (28e6, 25.25e6):
            states += solve(*instance(seed, 20, 40, storage=storage))
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
    built, inner = [], association.CoalitionSums

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
    for game in ("hrd", "csd"):
        for c, members in enumerate(getattr(final, f"{game}_members")):
            value = association._write_coalition(scratch, game, c, members)
            assert value == getattr(final, f"v_{game}")[c], (game, c)
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
    cases = [instance(seed) for seed in range(10)]
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
             for c, members in enumerate(getattr(state, f"{game}_members"))]
    # Eight members or more: numpy sums pairwise, and so does ``_sum``.
    costs = multi_request_run[0].costs
    for size in (8, 9, 13, 20):
        for c in (0, 7, costs.n_sbs):
            cases.append((costs, "csd", c, list(range(size))))
            if c < costs.n_sbs:
                cases.append((costs, "hrd", c, list(range(size))))
    assert max(len(members) for *_, members in cases) >= 8
    for costs, game, c, members in cases:
        sums, ratio, value = getattr(_kernels, f"{game}_summary")(costs, c,
                                                                 members)
        ref_sums, ref_ratio, ref_value = _numpy_sums(costs, game, c, members)
        assert np.array(sums).tobytes() == np.array(ref_sums,
                                                    dtype=float).tobytes()
        assert np.float64(ratio).tobytes() == np.float64(ref_ratio).tobytes()
        assert np.float64(value).tobytes() == np.float64(ref_value).tobytes()
        assert value == coalition_value(costs, game, c, members)


def test_accepted_move_changes_objective_by_its_gain():
    _, _, state = desk_state(seed=5)
    rng, sums = np.random.default_rng(3), game_sums(state, "csd")
    for _ in range(300):
        prop = propose_move(state, "csd", rng)
        before = state.objective
        if evaluate_and_apply(state, sums, prop):
            # The cached-value delta is applied exactly, and the full delay
            # model agrees with the caches.
            assert state.objective < before - 1e-12
            check_state(state)
            break
        # A rejection leaves F as it was.
        assert state.objective == before
    else:
        pytest.fail("no accepted move in 300 proposals")


def test_check_passes_after_evaluate_and_apply():
    _, _, state = desk_state(seed=5)
    rng, sums = np.random.default_rng(3), game_sums(state, "csd")
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
    q = block.improving().nonzero()[0].item(0)
    a, b = block.a.item(q), block.b.item(q)
    assert block.value(q) < block.cut[q]
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
    events, inner = [], association._write_coalition

    def write(state, game, c, members):
        events.append((game, c, len(state.move_log)))
        return inner(state, game, c, members)

    monkeypatch.setattr(association, "_write_coalition", write)
    inits = [init for init, _ in desk_runs]
    # One or three devices among 15 SBSs: most coalitions are empty.
    for n_hrd, n_csd, seed in ((3, 2, 16), (1, 1, 2)):
        inits.append(abcg_init(*instance(seed, n_hrd, n_csd, n_files=6,
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
            _assert_closed_forms(state, (game,))
            check_state(state)


def _assert_closed_forms(state, games):
    """Every coalition of ``games``, the local one included, caches its
    closed-form value to the last bit."""
    for game in games:
        lists, cache = getattr(state, f"{game}_members"), getattr(
            state, f"v_{game}")
        assert len(lists) == cache.size == state.n_sbs + (game == "csd")
        for c, members in enumerate(lists):
            assert cache[c] == coalition_value(state.costs, game, c,
                                               members), (game, c)


def _assert_reallocate_idempotent(state, games):
    """Run the allocation step of ``games``, each of which ``state`` has
    played, on a copy of ``state``: it changes no byte of the caches, the
    objective or the fractions."""
    twin = state.clone()
    for game in games:
        reallocate(twin, game)
    assert fields(twin) == fields(state.clone())


def test_reallocate_is_idempotent(desk_runs, multi_request_run):
    # Installing a coalition that already holds its closed form writes the
    # same bits, after each game (which ended with that install) and after
    # ``run_amnd``.
    inits = [init for init, _ in desk_runs[:10]] + [multi_request_run[0]]
    inits.append(abcg_init(*instance(1, 20, 40)))
    for init in inits:
        state = init.clone()
        for played in (("csd",), ("csd", "hrd")):
            run_coalition_game(state, played[-1])
            _assert_reallocate_idempotent(state, played)
        final = run_amnd(init.scenario, init.demand, init_state=init)
        _assert_reallocate_idempotent(final, ("csd", "hrd"))
        _assert_closed_forms(final, ("hrd", "csd"))


# Per recorded solve, keyed by the fingerprint tool's workload and seed
# (desk seeds 0-4, ``multi_request_run`` and seed 5 of the large
# workload): the line that ``fingerprint.py`` prints for it (seed,
# repr(F_ABCG), repr(F_AMND), proposals, accepted moves and one SHA-256
# over both states and the audit), then the ``fingerprint.digest`` of the
# ABCG and of the AMND state.
RECORDED_SOLVES = {
    ("desk", 0): (
        "0 864.1019445703862 667.0660852850223 6515 16 "
        "3ebc7b5f4ccafffb1996eaf2bc4b959d1d18d62fc228afadf06060bf5ab81406",
        "88b82660259b65b850217ffa2ada0c007df89954bf673eb1d37f2bae1f930b16",
        "1fa3c55b5a7a7de29c53bcf3cb43bdb7c4849697a5525760a27405783a731450"),
    ("desk", 1): (
        "1 1293.3563584342448 1012.3090133361644 9111 35 "
        "2c32a5382b5cfa26cd7202c959a3bb867d93273b9bdd2c73b9647fdf123c21d2",
        "e60dee9a1d9cd61ecd4699997284acefc7da406df9211354471fda0720b59b00",
        "0c81482d2cf4d62e95ca35d6f247d0e92c6e19cde9b1f1a56a2e17d66a9b39eb"),
    ("desk", 2): (
        "2 997.7322962569457 669.5148483279049 7859 26 "
        "55938068d0e637909a05e3769a1b35a5fa5fac20433c220ed4389af5e804b147",
        "d2140d794988b614bdca811786bf3b00bb341164254b8c9b6ea0c81180af4ed9",
        "5fea3a6f242ec941c38583372fdf630541f444fd5bfd98f9984b4822d96ef2a6"),
    ("desk", 3): (
        "3 1508.4201884232373 789.1552756671138 6866 29 "
        "b7039b3a3c9221a2949f60f95373a343a7559c8e5f265ed4f38e16cc8d6e5ec6",
        "5a7b6e31fcc455be3b8a5b2aeae0a34f1d72e7f2a067bc6879524b2a17c46afa",
        "4eb51603e5d93c4d0dfe0c1d6a29b55769d1838460792c4236fb4f5a310cb682"),
    ("desk", 4): (
        "4 1030.7962637891806 649.8047888708849 7801 28 "
        "e05dc8302bed3144c5af766966c96f0cf8c1a039bdc8827d586d21489c924cdb",
        "133f30588c0ece4d7671cb9af5f4fb3bc9f908d0985855d2f096fd6d5c0dec5b",
        "2e9747907f5007847d8d4b628d2c1d728462926bfe7415f1ea17bcc4d227e53a"),
    ("multi", 3): (
        "3 6769.774108692245 3896.178885992313 7697 41 "
        "d7cff87c32aba3d11cc796f2774ed7695305bae85858665f62902ac9c3925275",
        "3540d3bbb8d7edcd254a7ef24c2859ec225080efb2f0a5791c6dc195f50341c1",
        "fcb6bae0ad81c95525da1a16c340617f28adb034fe1c9c5fa897054e7ac21d08"),
    ("large", 5): (
        "5 43204.94127513912 32898.64828719374 94686 186 "
        "893d2de40493d1fb7e39c4222accf7fb9f27ac97f157dfd756c1473bf95c737b",
        "a7d9711878b73ee3d26ec682873e079ce3d41c172637f83bb1f63ee996a18f23",
        "0a12878b0acc0af37e8ff4aa63d05be6e85a3b669bdfcfc9f5235ee427ceef63"),
}
# The SHA-256 of the ``write_move_log`` file of desk seed 0.  Its HRD rows'
# objective column counts every CSD coalition's closed form, which the CSD
# game's allocation step installs before the HRD game starts.
MOVE_LOG_SEED0 = \
    "76466bc7c7aafab22479c85d378c86afaed13869c2f7899ffc0e7484908fe399"


def _matches_recorded(workload, seed, init, final):
    line_, _, final_digest = RECORDED_SOLVES[workload, seed]
    assert (line(seed, init, final), digest(final)) == \
        (line_, final_digest), (workload, seed)


def test_desk_solves_match_recorded_outputs(desk_runs, multi_request_run,
                                            tmp_path):
    for seed in range(5):
        _matches_recorded("desk", seed, *desk_runs[seed])
    _matches_recorded("multi", 3, *multi_request_run)
    path = tmp_path / "moves.csv"
    write_move_log(desk_runs[0][1], path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == MOVE_LOG_SEED0


def test_large_solve_matches_recorded_outputs():
    # Its neighbourhoods span several sweep chunks, which no desk solve's do.
    _matches_recorded("large", 5, *solve(*instance(5, **WORKLOADS["large"])))


def test_abcg_states_match_recorded_outputs(desk_runs, multi_request_run):
    states = {("desk", seed): desk_runs[seed][0] for seed in range(5)}
    states["multi", 3] = multi_request_run[0]
    states["large", 5] = abcg_init(*instance(5, **WORKLOADS["large"]))
    for key, state in states.items():
        assert digest(state) == RECORDED_SOLVES[key][1], key


def test_fingerprint_tool_prints_the_solves_lines(desk_runs):
    # The command line prints, for the mecsim it is given, the lines that
    # the solves of this process make, and refuses a workload it lacks.
    tool = [sys.executable, Path(__file__).with_name("tools") /
            "fingerprint.py", "--seeds", "0-1", "--workload"]
    env = dict(os.environ, PYTHONPATH=str(Path(mecsim.__file__).parents[1]))
    out = subprocess.run(tool + ["desk"], env=env, capture_output=True,
                         text=True, check=True).stdout
    lines = [line(seed, *desk_runs[seed]) for seed in (0, 1)]
    assert out.splitlines() == lines + [total(lines)]
    assert subprocess.run(tool + ["huge"], env=env,
                          capture_output=True).returncode != 0


def test_abcg_values_are_the_delay_models(desk_runs, multi_request_run):
    # The initializer caches each coalition's delay as the delay model
    # gives it, to the last bit, also where rate orderings cap shares
    # (a = 0.9) and where a device falls back.
    states = [init for init, _ in desk_runs] + [
        multi_request_run[0], abcg_init(*instance(5, **WORKLOADS["large"])),
        abcg_init(*instance(3, a=0.9, **WORKLOADS["multi"]))]
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
        index = [row[0] for row in log] + [final.proposals + 1]
        assert 1 <= index[0] and all(a < b for a, b in zip(index, index[1:]))
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
    """The stability audit with every move of both games valued from
    scratch (``_scratch_value``): the reference that ``audit_stability``
    must match."""
    found = []
    for game in ("hrd", "csd"):
        lists = getattr(state, f"{game}_members")
        cache = getattr(state, f"v_{game}")
        for prop in _moves(state, game):
            dv = _scratch_value(state, lists, prop)[2]
            held = cache[prop.c_from] + cache[prop.c_to]
            if dv < -max(IMPROVE_MARGIN, MARGIN_REL * held):
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
    states += [bound_final_state(), multi_request_run[0]]
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
    before = fields(state)
    assert audit_stability(state)
    assert fields(state) == before


def _scalar_random_phase(state, sums, t2, patience):
    """The random phase of the game of the running sums ``sums`` as one
    loop of ``propose_move`` and ``evaluate_and_apply``, one proposal at a
    time, on the game's own generator: the reference that the
    rejection-free phase must equal in law.  It reads the member lists
    again only after an accept."""
    game = sums.game
    rng, lists = getattr(state, f"rng_{game}"), getattr(state,
                                                         f"{game}_members")
    rejections = 0
    for _ in range(t2):
        if rejections >= patience:
            break
        if evaluate_and_apply(state, sums,
                              propose_move(state, game, rng, lists)):
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


def _played(state, game, phase, runs, side):
    """``runs`` clones of ``state``, each after the random phase ``phase``
    of ``game``, called with the clone and running sums built from it, on a
    generator seeded by its run and ``side``."""
    for run in range(runs):
        twin = state.clone()
        twin.rng_hrd = twin.rng_csd = np.random.default_rng([run, side])
        phase(twin, game_sums(twin, game))
        yield twin


def _first_accepts(state, game, runs):
    """The first accept of ``runs`` whole random phases of ``game`` from the
    ABCG state ``state`` (``_played``, on a budget that no wait reaches),
    read from the move log: the rejections before it and the move, keyed
    by its kind and ``dv``, which does not depend on the block that values
    it, to the last bit."""
    phase = functools.partial(association._random_phase, t2=10 ** 6,
                              patience=10 ** 6)
    return [(twin.move_log[0][0] - 1, twin.move_log[0][2:4])
            for twin in _played(state, game, phase, runs, 0)]


def _scalar_first_accepts(state, game, runs):
    """``_first_accepts`` of the one-at-a-time loop: per run, on the
    generator ``_played`` gives it, moves are drawn (``propose_move``) and
    valued (``_evaluate``) until one wins.  No move is applied, so every
    run values from one set of running sums on ``state`` itself, for at
    most 10**6 proposals."""
    sums, lists = game_sums(state, game), association._member_lists(state,
                                                                    game)
    out = []
    for run in range(runs):
        rng = np.random.default_rng([run, 0])
        for wait in range(10 ** 6):
            prop = propose_move(state, game, rng, lists)
            block = _evaluate(state, sums, prop)
            if prop.dv < block.cut[0]:
                out.append((wait, (prop.kind, prop.dv)))
                break
        else:
            pytest.fail(f"run {run}: no accept in 10**6 proposals")
    return out


def _same_law(a, b, least=10):
    """Pearson's chi-square test that two samples of categories come from
    one law, at significance 1e-4; categories with fewer than ``least``
    samples in the two together share one cell."""
    from scipy.stats import chi2_contingency
    pooled = collections.Counter(a + b)
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
        states.append((abcg_init(*instance(
            seed, n_hrd, 4, m_sbs=m_sbs, n_mbs=1, a=0.9, n_files=20,
            requests_per_hrd=2)), "hrd"))
    # Eight of the ten CSDs compute locally: the winners' weights differ
    # from the drawable moves' mean by a factor of about 2.
    states.append((abcg_init(*instance(8, 10, 10, m_sbs=4, n_mbs=1,
                                       n_files=20, storage=15.6e6)), "csd"))
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
        ours = _first_accepts(state, game, runs)
        theirs = _scalar_first_accepts(state, game, runs)
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
    return abcg_init(scn, hand_demand(3, 5, 1, hrd_weight=np.array(
        [1.0, 10.0, 100.0, 3.0, 30.0])))


def _whole_phases(state, game, phase, t2, patience, runs, side):
    """Per run of ``_played`` with the random phase ``phase`` on the budget
    ``(t2, patience)``: the end partition of the game, its number of
    accepts, its number of proposals and the number of proposals after its
    last accept."""
    out = []
    for twin in _played(state, game, functools.partial(
            phase, t2=t2, patience=patience), runs, side):
        assoc = getattr(twin.partition, f"{game}_sbs")
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
    hrd = abcg_init(*instance(2, 6, 4, m_sbs=3, n_mbs=1, a=0.9, n_files=20,
                              requests_per_hrd=2))
    csd = abcg_init(*instance(3, 4, 8, m_sbs=4, n_mbs=1, n_files=20,
                              storage=15.6e6))
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


def test_chunked_sweep_matches_one_block_sweep(monkeypatch, desk_runs):
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
            assert fields(state) == fields(final), seed
    assert accepting == {"hrd", "csd"}


def test_stabilization_sweep_matches_scalar_reference(monkeypatch,
                                                      desk_runs):
    cases = [(init.scenario, init.demand, {}) for init, _ in desk_runs]
    cases += [(*instance(seed, n_files=100, requests_per_hrd=2), {})
              for seed in (3, 100, 101)]
    # Few devices among 15 or 2 SBSs.
    for seed in range(6):
        scn, demand = instance(seed, 3, 2, n_files=6, storage=15.6e6,
                               **({} if seed < 4 else {"m_sbs": 2,
                                                       "n_mbs": 1}))
        cases += [(scn, demand, kw)
                  for kw in ({}, {"patience": 1}, {"patience": 3})]
    # Sweeps from partitions that the random phase left unsettled.
    cases += [(scn, demand, kw) for scn, demand, _ in cases[:3]
              for kw in ({"t2": 1}, {"patience": 1}, {"patience": 0})]

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
            # The one-row reference sweep logs no phase row.
            assert fields(block, omit=("phases",)) == \
                fields(reference, omit=("phases",)), (n, kw, game)
        # The kinds of the moves that the block sweep applies.
        swept |= {move[2] for row, _, moves in _phase_moves(block)
                  if row[1] == "stabilize" for move in moves}
    # One sweep accepts several moves, and the block sweep both kinds.
    assert max(sweeps) >= 2
    assert swept == {"transfer", "swap"}
