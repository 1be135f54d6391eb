import numpy as np
import pytest

from mecsim import _kernels
from mecsim._kernels import FEAS_TOL, IDLE_FRAC, member_pairs
from mecsim.allocation import (allocate_csd, allocate_hrd, build_costs,
                               coalition_utility, equal_share_hrd,
                               oracle_simplex_min, oracle_solve_p3)
from mecsim.radio import build_rate_table
from mecsim.scenario import Counts, SystemParams, generate_scenario
from conftest import demand_for, rate_scenario


def test_equal_costs_split_evenly():
    alpha, gamma = allocate_csd([3.0, 3.0], [5.0, 5.0])
    assert alpha == pytest.approx([0.5, 0.5])
    assert gamma == pytest.approx([0.5, 0.5])


def test_sqrt_weighting_against_grid_search():
    alpha, _ = allocate_csd([1.0, 4.0], [1.0, 1.0])
    assert alpha == pytest.approx([1 / 3, 2 / 3], rel=1e-12)
    # brute 1-D search over the budget split
    grid = np.linspace(1e-4, 1 - 1e-4, 200001)
    vals = 1.0 / grid + 4.0 / (1.0 - grid)
    best = grid[np.argmin(vals)]
    assert alpha[0] == pytest.approx(best, abs=1e-4)


def test_singleton_gets_the_whole_block():
    alpha, gamma = allocate_csd([7.0], [2.0])
    assert alpha[0] == 1.0
    assert gamma[0] == 1.0


def test_all_cached_coalition_needs_no_backhaul():
    beta, eta, feasible = allocate_hrd([1.0, 2.0, 3.0], [9.0, 9.0, 9.0],
                                       cached=[True, True, True],
                                       eta_floor=[0.2, 0.2, 0.2])
    assert feasible
    assert np.all(eta == IDLE_FRAC)
    assert beta.sum() == pytest.approx(1.0, abs=1e-12)


def test_symmetric_backhaul_with_slack_floor():
    beta, eta, feasible = allocate_hrd([1.0, 1.0], [4.0, 4.0],
                                       cached=[False, False],
                                       eta_floor=[0.1, 0.1])
    assert feasible
    assert eta == pytest.approx([0.5, 0.5])


def test_binding_floor_overruns_the_budget():
    # shares would be [1/11, 10/11]; raising the first to 0.4 breaks C5
    beta, eta, feasible = allocate_hrd([1.0, 1.0], [1.0, 100.0],
                                       cached=[False, False],
                                       eta_floor=[0.4, 1e-6])
    assert eta[0] == pytest.approx(0.4)
    assert eta[1] == pytest.approx(10 / 11)
    assert eta.sum() > 1 + FEAS_TOL
    assert not feasible
    # the box-constrained optimum remains feasible and spends the budget
    f, obj = oracle_simplex_min([1.0, 100.0], [0.4, 1e-6], 1.0)
    assert f == pytest.approx([0.4, 0.6], rel=1e-9)
    assert obj == pytest.approx(1 / 0.4 + 100 / 0.6, rel=1e-9)


def test_floor_above_one_is_infeasible():
    _, _, feasible = allocate_hrd([1.0], [1.0], cached=[False],
                                  eta_floor=[1.2])
    assert not feasible


def test_fraction_scale_invariance():
    rng = np.random.default_rng(4)
    dl = rng.uniform(0.1, 5.0, 6)
    bh = rng.uniform(0.1, 5.0, 6)
    cached = rng.random(6) < 0.4
    floors = np.full(6, 1e-6)
    b1, e1, _ = allocate_hrd(dl, bh, cached, floors)
    b2, e2, _ = allocate_hrd(10.0 * dl, 10.0 * bh, cached, floors)
    assert b1 == pytest.approx(b2, rel=1e-12)
    assert e1 == pytest.approx(e2, rel=1e-12)


def test_active_fractions_fill_the_budget_exactly():
    rng = np.random.default_rng(8)
    for _ in range(25):
        m = int(rng.integers(2, 9))
        alpha, gamma = allocate_csd(rng.uniform(0.01, 10, m),
                                    rng.uniform(0.01, 10, m))
        assert abs(alpha.sum() - 1.0) <= 1e-12
        assert abs(gamma.sum() - 1.0) <= 1e-12


def test_floors_hold_pointwise_after_clamping():
    rng = np.random.default_rng(12)
    for _ in range(25):
        m = int(rng.integers(1, 8))
        floors = rng.uniform(0.0, 0.3, m)
        _, eta, feasible = allocate_hrd(rng.uniform(0.1, 4, m),
                                        rng.uniform(0.1, 4, m),
                                        cached=np.zeros(m, dtype=bool),
                                        eta_floor=floors)
        assert np.all(eta >= floors - 1e-15)


def test_closed_form_matches_oracle_when_unclamped():
    rng = np.random.default_rng(21)
    worst = 0.0
    for _ in range(40):
        m = int(rng.integers(2, 11))
        costs = 10.0 ** rng.uniform(-2, 2, m)
        fracs, obj = oracle_simplex_min(costs, IDLE_FRAC, 1.0, tol=1e-12)
        s = np.sqrt(costs)
        closed = s / s.sum()
        closed_obj = float((costs / closed).sum())
        worst = max(worst, np.abs(fracs / closed - 1.0).max(),
                    abs(obj / closed_obj - 1.0))
    assert worst <= 1e-8


def test_oracle_singleton_is_exact():
    f, obj = oracle_simplex_min([3.7], IDLE_FRAC, 1.0)
    assert f[0] == 1.0
    assert obj == pytest.approx(3.7)


def test_oracle_accepts_marginally_binding_floor():
    # floor exceeds the share by 1e-12: the naive clamp stays budget-feasible
    costs = np.array([1.0, 1.0])
    floor = np.array([0.5 + 1e-12, 1e-8])
    beta, eta, feasible = allocate_hrd(costs, costs,
                                       cached=np.zeros(2, dtype=bool),
                                       eta_floor=floor)
    assert feasible
    closed_obj = float((costs / eta).sum())
    _, oracle_obj = oracle_simplex_min(costs, floor, 1.0)
    assert oracle_obj <= closed_obj + 1e-9 * max(1.0, closed_obj)


def test_oracle_rejects_impossible_floors():
    with pytest.raises(ValueError, match="infeasible box"):
        oracle_simplex_min([1.0, 1.0], [0.7, 0.7], 1.0)


def unclamped_setup(seed=3):
    """Synthetic network whose backhaul floors are tiny (no clamping)."""
    rng = np.random.default_rng(seed)
    params = SystemParams(a=0.2, m_sbs=3, n_mbs=1, seed=seed)
    scn = rate_scenario(params,
                        r_dl=rng.uniform(2, 6, (3, 6)),
                        r_ul=rng.uniform(2, 6, (3, 6)),
                        r_bh=rng.uniform(18, 24, 3))
    demand = demand_for(scn, n_files=8, file_size=5e6, storage=20.5e6,
                        policy="sampled", seed=seed, requests_per_hrd=2)
    table = build_rate_table(scn)
    return scn, demand, build_costs(scn, demand, table)


def test_coalition_utility_trivial_cases():
    scn, demand, costs = unclamped_setup()
    empty = coalition_utility(scn, demand, [], "hrd", costs=costs, n=0)
    assert empty.value == 0.0 and empty.feasible
    solo = coalition_utility(scn, demand, [2], "local", costs=costs)
    expected = demand.csd_weight[2] * demand.task_cycles[2] / demand.local_cps[2]
    assert solo.value == pytest.approx(expected, rel=1e-12)
    assert solo.feasible


def test_coalition_utility_matches_oracle():
    scn, demand, costs = unclamped_setup()
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(costs.n_sbs))
        members = rng.choice(costs.n_hrd, size=3, replace=False)
        ev = coalition_utility(scn, demand, members, "hrd", costs=costs, n=n)
        sol = oracle_solve_p3(costs, n, members, "hrd")
        assert ev.feasible and sol["feasible"]
        assert ev.value == pytest.approx(sol["objective"], rel=1e-6)
        members = rng.choice(costs.n_csd, size=3, replace=False)
        ev = coalition_utility(scn, demand, members, "csd", costs=costs, n=n)
        sol = oracle_solve_p3(costs, n, members, "csd")
        assert ev.value == pytest.approx(sol["objective"], rel=1e-6)


def test_storage_limit_marks_csd_coalition_infeasible():
    scn, demand, costs = unclamped_setup()
    big = costs.spare_bytes[0] + 1.0
    costs_tight = costs.__class__(**{**costs.__dict__,
                                     "task_bytes": np.full(costs.n_csd, big)})
    ev = coalition_utility(scn, demand, [0], "csd", costs=costs_tight, n=0)
    assert not ev.feasible
    ev = coalition_utility(scn, demand, [0], "local", costs=costs_tight)
    assert ev.feasible


def test_equal_share_respects_rate_ordering():
    scn, demand, costs = unclamped_setup(seed=9)
    for n in range(costs.n_sbs):
        members = list(range(min(4, costs.n_hrd)))
        idx, beta, eta, value = equal_share_hrd(costs, n, members)
        miss = ~costs.cached[n, idx]
        ks = np.repeat(np.asarray(sorted(members)),
                       costs.pair_cnt[sorted(members)])
        floors = costs.eta_min[n, ks[miss]]
        assert np.all(beta[miss] * floors <= eta[miss] * (1 + 1e-12))
        assert beta.sum() <= 1 + 1e-12
        if miss.any():
            assert eta[miss].sum() == pytest.approx(1.0)
        assert value > 0


def test_equal_share_value_never_beats_closed_form_when_unclamped():
    scn, demand, costs = unclamped_setup(seed=5)
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = int(rng.integers(costs.n_sbs))
        members = rng.choice(costs.n_hrd, size=int(rng.integers(1, 5)),
                             replace=False)
        ev = coalition_utility(scn, demand, members, "hrd", costs=costs, n=n)
        if not ev.feasible:
            continue
        _, _, _, es_value = equal_share_hrd(costs, n, members)
        assert ev.value <= es_value + 1e-9 * es_value


def _check_hrd_write_path(costs, n, members):
    """The game's HRD write path against the public closed form on raw
    costs: fractions, value and feasibility agree exactly.  Returns the
    feasibility."""
    members = np.asarray(members, dtype=np.int64)
    idx, ks = member_pairs(costs, members)
    beta_row = np.full(costs.n_hrd * costs.n_files, IDLE_FRAC)
    eta_row = beta_row.copy()
    value, ok = _kernels.hrd_alloc(costs, n, members, beta_row, eta_row)
    beta, eta, feasible = allocate_hrd(costs.dl_cost[n, idx],
                                       costs.bh_cost[n, idx],
                                       costs.cached[n, idx],
                                       costs.eta_min[n, ks])
    want_beta = np.full_like(beta_row, IDLE_FRAC)
    want_eta = want_beta.copy()
    want_beta[costs.pair_flat[idx]] = beta
    want_eta[costs.pair_flat[idx]] = eta
    assert np.array_equal(beta_row, want_beta)
    assert np.array_equal(eta_row, want_eta)
    assert ok == feasible
    assert (value, ok) == _kernels.hrd_value(costs, n, members)
    return feasible


def _check_csd_write_path(costs, n, members):
    members = np.asarray(members, dtype=np.int64)
    alpha_row = np.full(costs.n_csd, IDLE_FRAC)
    gamma_row = alpha_row.copy()
    value, ok = _kernels.csd_alloc(costs, n, members, alpha_row, gamma_row)
    alpha, gamma = allocate_csd(costs.ul_cost[n, members],
                                costs.ed_cost[n, members])
    want_alpha = np.full_like(alpha_row, IDLE_FRAC)
    want_gamma = want_alpha.copy()
    want_alpha[members] = alpha
    want_gamma[members] = gamma
    assert np.array_equal(alpha_row, want_alpha)
    assert np.array_equal(gamma_row, want_gamma)
    assert (value, ok) == _kernels.csd_value(costs, n, members)


def test_write_path_matches_public_closed_form_exactly():
    scenario = generate_scenario(SystemParams(seed=1),
                                 Counts(n_hrd=20, n_csd=40))
    default_costs = build_costs(scenario, demand_for(scenario))
    # Binding backhaul floors make these two clamped-infeasible.
    for n, members, floors in ((12, [11, 14], [0.513, 0.333]),
                               (13, [2, 5], [0.390, 0.676])):
        assert default_costs.eta_min[n, members] == pytest.approx(floors,
                                                                  abs=1e-3)
        assert not _check_hrd_write_path(default_costs, n, members)
    rng = np.random.default_rng(17)
    for costs in (unclamped_setup()[2], default_costs):
        for _ in range(30):
            n = int(rng.integers(costs.n_sbs))
            size = int(rng.integers(1, 5))
            _check_hrd_write_path(
                costs, n, rng.choice(costs.n_hrd, size=size, replace=False))
            _check_csd_write_path(
                costs, n, rng.choice(costs.n_csd, size=size, replace=False))
