import dataclasses
import math

import numpy as np
import pytest

from mecsim import _kernels
from mecsim._kernels import FEAS_TOL, IDLE_FRAC
from mecsim.allocation import (CoalitionCosts, build_costs, dual_bound,
                               equal_split, oracle_solve_p3)
from mecsim.association import abcg_init, run_amnd
from mecsim.delays import Partition, objective
from mecsim.radio import build_rate_table
from mecsim.scenario import Counts, SystemParams, generate_scenario
from conftest import allocate_csd, allocate_hrd, demand_for, rate_scenario
from reference import member_pairs, oracle_hrd_min, oracle_simplex_min, \
    solve_p3


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
    beta, eta = allocate_hrd([1.0, 2.0, 3.0], [9.0, 9.0, 9.0],
                             cached=[True, True, True], rho=[2.0, 2.0, 2.0])
    assert np.all(eta == IDLE_FRAC)
    assert beta.sum() == pytest.approx(1.0, abs=1e-12)


def test_symmetric_backhaul_with_slack_floor():
    beta, eta = allocate_hrd([1.0, 1.0], [4.0, 4.0], cached=[False, False],
                             rho=[0.1, 0.1])
    assert eta == pytest.approx([0.5, 0.5])


def test_binding_ordering_matches_the_oracle():
    # Square-root shares (all 1/2) break the first pair's ordering
    # eta >= 2 * beta.  At the optimum the first pair binds, the second
    # does not, and both budgets are full.
    beta, eta = allocate_hrd([1.0, 1.0], [1.0, 1.0], cached=[False, False],
                             rho=[2.0, 0.25])
    ob, oe, ov = oracle_hrd_min([1.0, 1.0], [1.0, 1.0], [False, False],
                                [2.0, 0.25])
    assert eta[0] == pytest.approx(2.0 * beta[0], rel=1e-12)
    assert eta[1] > 0.25 * beta[1]
    assert beta.sum() == pytest.approx(1.0, abs=1e-12)
    assert eta.sum() == pytest.approx(1.0, abs=1e-12)
    assert beta == pytest.approx(ob, rel=1e-9)
    assert eta == pytest.approx(oe, rel=1e-9)
    assert float((1.0 / beta).sum() + (1.0 / eta).sum()) == \
        pytest.approx(ov, rel=1e-11)


def _random_hrd_coalition(rng):
    """Raw costs of one HRD coalition of 1 to 5 pairs, about a quarter of
    them cached, with rho from 0.05 to 3.2: some orderings bind, some rho
    exceed 1, and some coalitions are all missed with the downlink budget
    slack."""
    m = int(rng.integers(1, 6))
    return (10.0 ** rng.uniform(-1, 1, m), 10.0 ** rng.uniform(-1, 1, m),
            rng.random(m) < 0.25, 10.0 ** rng.uniform(-1.3, 0.5, m))


def _slsqp_hrd(dl, bh, cached, rho):
    """(upper, own) for the coupled HRD problem solved by scipy's SLSQP:
    the objective at its point scaled and shrunk onto the feasible set, an
    upper bound on the optimum, and its own objective, which may lie below
    the optimum by its constraint violation."""
    from scipy.optimize import minimize
    miss = np.flatnonzero(~cached)
    p, m = dl.size, miss.size
    jac = np.zeros((2 + m, p + m))
    jac[0, :p] = jac[1, p:] = -1.0
    jac[2 + np.arange(m), p + np.arange(m)] = 1.0
    jac[2 + np.arange(m), miss] = -rho[miss]
    ones = np.array([1.0, 1.0] + [0.0] * m)

    def value(z):
        return float((dl / z[:p]).sum() + (bh[miss] / z[p:]).sum())

    def grad(z):
        return np.concatenate((-dl / z[:p] ** 2, -bh[miss] / z[p:] ** 2))

    start = np.concatenate((np.full(p, 0.5 / p / max(1.0, rho.max())),
                            np.full(m, 0.5 / max(m, 1))))
    res = minimize(value, start, jac=grad, method="SLSQP",
                   bounds=[(1e-9, 1.0)] * (p + m),
                   constraints=[{"type": "ineq", "fun": lambda z: ones + jac @ z,
                                 "jac": lambda z: jac}],
                   options={"ftol": 1e-14, "maxiter": 500})
    beta = res.x[:p] / max(1.0, res.x[:p].sum())
    eta = res.x[p:] / max(1.0, res.x[p:].sum())
    beta[miss] = np.minimum(beta[miss], eta / rho[miss])
    return value(np.concatenate((beta, eta))), res.fun


def _assert_feasible(beta, eta, cached, rho):
    miss = ~cached
    assert np.all(beta > 0.0) and np.all(eta[miss] > 0.0)
    assert beta.sum() <= 1.0 + FEAS_TOL
    assert eta[miss].sum() <= 1.0 + FEAS_TOL
    assert np.all(eta[miss] >= rho[miss] * beta[miss] * (1.0 - FEAS_TOL))


def test_closed_form_matches_slsqp():
    rng = np.random.default_rng(31)
    seen = dict.fromkeys(("hit", "unbound", "bound", "rho_above_1",
                          "slack_downlink"), 0)
    for _ in range(500):
        dl, bh, cached, rho = _random_hrd_coalition(rng)
        beta, eta = allocate_hrd(dl, bh, cached, rho)
        _assert_feasible(beta, eta, cached, rho)
        miss = ~cached
        value = float((dl / beta).sum() + (bh[miss] / eta[miss]).sum())
        upper, own = _slsqp_hrd(dl, bh, cached, rho)
        assert own * (1.0 - 1e-9) <= value <= upper * (1.0 + 1e-12)
        bound = eta[miss] <= rho[miss] * beta[miss] * (1.0 + 1e-9)
        seen["hit"] += bool(cached.any())
        seen["unbound"] += bool((~bound).any())
        seen["bound"] += bool(bound.any())
        seen["rho_above_1"] += bool((rho[miss] > 1.0).any())
        seen["slack_downlink"] += bool(miss.all() and beta.sum() < 1 - 1e-9)
    assert min(seen.values()) >= 20, seen


def test_coupled_oracle_matches_slsqp():
    rng = np.random.default_rng(32)
    for _ in range(60):
        dl, bh, cached, rho = (x[:3] for x in _random_hrd_coalition(rng))
        beta, eta, value = oracle_hrd_min(dl, bh, cached, rho)
        _assert_feasible(beta, eta, cached, rho)
        assert np.all(eta[cached] == IDLE_FRAC)
        upper, own = _slsqp_hrd(dl, bh, cached, rho)
        assert own * (1.0 - 1e-9) <= value <= upper * (1.0 + 1e-9)


def test_box_oracle_spends_the_budget_at_a_binding_floor():
    f, obj = oracle_simplex_min([1.0, 100.0], [0.4, 1e-6], 1.0)
    assert f == pytest.approx([0.4, 0.6], rel=1e-9)
    assert obj == pytest.approx(1 / 0.4 + 100 / 0.6, rel=1e-9)


def test_ordering_above_one_leaves_downlink_slack():
    # A lone missed pair with rho > 1 takes the whole backhaul and only
    # 1 / rho of the downlink.
    beta, eta = allocate_hrd([1.0], [1.0], cached=[False], rho=[1.25])
    assert eta[0] == 1.0
    assert beta[0] == pytest.approx(0.8, rel=1e-15)


def test_fraction_scale_invariance():
    rng = np.random.default_rng(4)
    dl = rng.uniform(0.1, 5.0, 6)
    bh = rng.uniform(0.1, 5.0, 6)
    cached = rng.random(6) < 0.4
    floors = np.full(6, 1e-6)
    b1, e1 = allocate_hrd(dl, bh, cached, floors)
    b2, e2 = allocate_hrd(10.0 * dl, 10.0 * bh, cached, floors)
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


def test_orderings_and_budgets_hold_pointwise():
    rng = np.random.default_rng(12)
    for _ in range(25):
        m = int(rng.integers(1, 8))
        rho = rng.uniform(0.0, 3.0, m)
        beta, eta = allocate_hrd(rng.uniform(0.1, 4, m),
                                 rng.uniform(0.1, 4, m),
                                 cached=np.zeros(m, dtype=bool), rho=rho)
        assert np.all(eta >= rho * beta * (1.0 - 1e-15))
        assert beta.sum() <= 1.0 + 1e-15 and eta.sum() <= 1.0 + 1e-15


def test_closed_form_matches_oracle_when_unclamped():
    rng = np.random.default_rng(21)
    worst = 0.0
    for _ in range(40):
        m = int(rng.integers(2, 11))
        costs = 10.0 ** rng.uniform(-2, 2, m)
        fracs, obj = oracle_simplex_min(costs, IDLE_FRAC, 1.0)
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
    # The square-root shares (all 1/2) miss the first ordering by 1e-12.
    costs = np.array([1.0, 1.0])
    rho = np.array([1.0 + 1e-12, 1e-8])
    beta, eta = allocate_hrd(costs, costs, cached=np.zeros(2, dtype=bool),
                             rho=rho)
    assert eta[0] >= rho[0] * beta[0]
    closed_obj = float((costs / beta).sum() + (costs / eta).sum())
    _, _, oracle_obj = oracle_hrd_min(costs, costs, [False, False], rho)
    assert closed_obj >= 8.0
    assert closed_obj == pytest.approx(oracle_obj, rel=1e-11)


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
    return scn, demand, build_costs(demand, table)


def test_coalition_value_trivial_cases():
    scn, demand, costs = unclamped_setup()
    assert _kernels.hrd_value(costs, 0, []) == 0.0
    # CSD coalition n_sbs is the virtual coalition of local devices.
    value = _kernels.csd_value(costs, costs.n_sbs, [2])
    expected = demand.csd_weight[2] * demand.task_cycles[2] / demand.local_cps[2]
    assert value == pytest.approx(expected, rel=1e-12)
    assert math.isfinite(value)


def test_coalition_value_matches_oracle():
    scn, demand, costs = unclamped_setup()
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(costs.n_sbs))
        members = sorted(rng.choice(costs.n_hrd, size=3, replace=False))
        value = _kernels.hrd_value(costs, n, members)
        sol = solve_p3(costs, n, members, "hrd")
        assert math.isfinite(value) and sol["feasible"]
        assert value == pytest.approx(sol["objective"], rel=1e-6)
        members = sorted(rng.choice(costs.n_csd, size=3, replace=False))
        value = _kernels.csd_value(costs, n, members)
        sol = solve_p3(costs, n, members, "csd")
        assert value == pytest.approx(sol["objective"], rel=1e-6)


def test_storage_limit_marks_csd_coalition_infeasible():
    scn, demand, costs = unclamped_setup()
    big = costs.spare_bytes[0] + 1.0
    costs_tight = dataclasses.replace(costs,
                                      task_bytes=np.full(costs.n_csd, big))
    assert _kernels.csd_value(costs_tight, 0, [0]) == math.inf
    assert math.isfinite(_kernels.csd_value(costs_tight, costs.n_sbs, [0]))


def _equal_split_at(scn, demand, costs, n, members):
    """``equal_split`` with the HRDs ``members`` at SBS ``n``, every other
    HRD at another SBS and every CSD local: the members' pair indices,
    their ``beta`` and ``eta``, and the coalition's weighted delay, read
    from ``objective``."""
    hrd_sbs = np.full(costs.n_hrd, (n + 1) % costs.n_sbs)
    hrd_sbs[members] = n
    part = Partition(hrd_sbs=hrd_sbs, n_sbs=costs.n_sbs,
                     csd_sbs=np.full(costs.n_csd, costs.n_sbs))
    alloc = equal_split(costs, part)
    rep = objective(demand, part, alloc, build_rate_table(scn))
    idx = np.flatnonzero(np.isin(costs.pair_k, members))
    value = float((demand.hrd_weight[rep.pair_k[idx]]
                   * rep.t_hr_pair[idx]).sum())
    return idx, alloc.beta[idx], alloc.eta[idx], value


def test_equal_share_respects_rate_ordering():
    scn, demand, costs = unclamped_setup(seed=9)
    for n in range(costs.n_sbs):
        members = list(range(min(4, costs.n_hrd)))
        idx, beta, eta, value = _equal_split_at(scn, demand, costs, n,
                                                members)
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
    # Equal share is a feasible point of the problem the closed form solves
    # exactly, also where rate orderings bind (a = 0.9).
    scenario = generate_scenario(SystemParams(seed=2, a=0.9),
                                 Counts(n_hrd=20, n_csd=40))
    demand = demand_for(scenario)
    rng = np.random.default_rng(2)
    for scn, demand, costs in (unclamped_setup(seed=5),
                               (scenario, demand,
                                build_costs(demand,
                                            build_rate_table(scenario)))):
        for _ in range(40):
            n = int(rng.integers(costs.n_sbs))
            members = sorted(rng.choice(costs.n_hrd,
                                        size=int(rng.integers(1, 5)),
                                        replace=False))
            value = _kernels.hrd_value(costs, n, members)
            *_, es_value = _equal_split_at(scn, demand, costs, n, members)
            assert math.isfinite(value)
            assert value <= es_value + 1e-9 * es_value


def _check_hrd_write_path(costs, n, members):
    """The game's HRD write path against the closed form on raw costs
    (``allocate_hrd``): fractions, value and feasibility agree exactly.
    Returns the raw form's beta."""
    members = np.asarray(members, dtype=np.int64)
    idx, ks = member_pairs(costs, members)
    # Stale fractions everywhere: the write must replace every member pair's,
    # a cache hit's eta included, and leave every other pair's alone.
    stale = np.full(costs.pair_k.size, 0.5)
    beta_out, eta_out = stale.copy(), stale.copy()
    value = _kernels.hrd_alloc(costs, n, members, beta_out, eta_out)
    beta, eta = allocate_hrd(costs.dl_cost[n, idx], costs.bh_cost[n, idx],
                             costs.cached[n, idx], costs.eta_min[n, ks])
    want_beta, want_eta = stale.copy(), stale.copy()
    want_beta[idx] = beta
    want_eta[idx] = eta
    assert np.array_equal(beta_out, want_beta)
    assert np.array_equal(eta_out, want_eta)
    assert math.isfinite(value)
    assert value == _kernels.hrd_value(costs, n, members)
    return beta


def _check_csd_write_path(costs, n, members):
    members = np.asarray(members, dtype=np.int64)
    stale = np.full(costs.n_csd, 0.5)
    alpha_out, gamma_out = stale.copy(), stale.copy()
    value = _kernels.csd_alloc(costs, n, members, alpha_out, gamma_out)
    alpha, gamma = allocate_csd(costs.ul_cost[n, members],
                                costs.ed_cost[n, members])
    want_alpha, want_gamma = stale.copy(), stale.copy()
    want_alpha[members] = alpha
    want_gamma[members] = gamma
    assert np.array_equal(alpha_out, want_alpha)
    assert np.array_equal(gamma_out, want_gamma)
    assert value == _kernels.csd_value(costs, n, members)


def test_write_path_matches_public_closed_form_exactly():
    scenario = generate_scenario(SystemParams(seed=4),
                                 Counts(n_hrd=20, n_csd=40))
    default_costs = build_costs(demand_for(scenario),
                                build_rate_table(scenario))
    # A device with rho above 1 binds its rate ordering.  At SBS 3 the
    # downlink budget stays slack; at SBS 4 both budgets bind.
    for n, members, rho, slack in ((3, [12, 15], [0.977, 1.333], True),
                                   (4, [0, 9], [0.746, 1.184], False)):
        assert default_costs.eta_min[n, members] == pytest.approx(rho,
                                                                  abs=1e-3)
        (sd, sb, _), ratio, _ = _kernels.hrd_summary(default_costs, n,
                                                      members)
        assert ratio * sb > sd
        beta = _check_hrd_write_path(default_costs, n, members)
        assert (beta.sum() < 1.0 - 1e-3) == slack
    rng = np.random.default_rng(17)
    for costs in (unclamped_setup()[2], default_costs):
        for _ in range(30):
            n = int(rng.integers(costs.n_sbs))
            size = int(rng.integers(1, 5))
            _check_hrd_write_path(
                costs, n, rng.choice(costs.n_hrd, size=size, replace=False))
            _check_csd_write_path(
                costs, n, rng.choice(costs.n_csd, size=size, replace=False))


def _one_sbs_costs(dl, bh, cached, rho, ul, ed):
    """A one-SBS ``CoalitionCosts`` from raw costs: HRD device k owns request
    pair k (downlink ``dl[k]``, backhaul ``bh[k]``, ordering ``rho[k]``),
    and CSD device k has uplink ``ul[k]`` and compute ``ed[k]``."""
    dl, bh, rho, ul, ed = (np.asarray(x, dtype=float)[None, :]
                           for x in (dl, bh, rho, ul, ed))
    miss = ~np.asarray(cached, dtype=bool)[None, :]
    m, c = dl.shape[1], ul.shape[1]
    return CoalitionCosts(
        pair_k=np.arange(m), pair_off=np.arange(m),
        pair_cnt=np.ones(m, dtype=np.int64), dl_cost=dl, bh_cost=bh,
        sqrt_dl=np.sqrt(dl), sqrt_bh=np.sqrt(bh), cached=~miss, eta_min=rho,
        dev_sqrt_dl=np.sqrt(dl), dev_sqrt_bh=np.where(miss, np.sqrt(bh), 0.0),
        dev_miss=miss.astype(np.int64),
        dev_floor_ratio=np.where(miss, rho * np.sqrt(dl / bh), 0.0),
        ul_cost=ul, ed_cost=ed, sqrt_ul=np.sqrt(ul), sqrt_ed=np.sqrt(ed),
        local_delay_w=np.ones(c), task_bytes=np.zeros(c),
        spare_bytes=np.ones(1), n_sbs=1, n_hrd=m, n_csd=c)


def _shrunk_objective(costs, members, sol, kind):
    """The objective of the reference's fractions scaled onto the budgets:
    a feasible point, so an upper bound on the optimum."""
    if kind == "csd":
        return sum(float((c / (f / max(1.0, f.sum()))).sum())
                   for c, f in ((costs.ul_cost[0, members], sol["alpha"]),
                                (costs.ed_cost[0, members], sol["gamma"])))
    miss = ~costs.cached[0, sol["pairs"]]
    scale = max(1.0, sol["beta"].sum(), sol["eta"][miss].sum())
    return scale * float((costs.dl_cost[0, sol["pairs"]] / sol["beta"]).sum()
                         + (costs.bh_cost[0, sol["pairs"]][miss]
                            / sol["eta"][miss]).sum())


def test_certificate_meets_the_bisection_optimum():
    # The bound lies below a feasible point of the independent bisection
    # and within 1e-12 of its optimum, across hits, slack and bound missed
    # pairs and lone missed pairs whose downlink budget is slack.  The
    # bisection stops at a budget residual of ORACLE_TOL, either side of
    # the budget, so its own optimum may lie below the bound by as much.
    rng = np.random.default_rng(35)
    seen = dict.fromkeys(("hit", "slack_miss", "bound_miss",
                          "slack_downlink_one_pair"), 0)
    for _ in range(300):
        dl, bh, cached, rho = _random_hrd_coalition(rng)
        m = dl.size
        costs = _one_sbs_costs(dl, bh, cached, rho, 10.0 ** rng.uniform(
            -2, 2, m), 10.0 ** rng.uniform(-2, 2, m))
        for kind in ("hrd", "csd"):
            bound = oracle_solve_p3(costs, 0, range(m), kind)["objective"]
            if kind == "hrd":
                value = _kernels.hrd_value(costs, 0, range(m))
                assert abs(bound - value) <= 1e-13 * value
            sol = solve_p3(costs, 0, range(m), kind)
            assert bound <= _shrunk_objective(costs, list(range(m)), sol,
                                              kind) * (1.0 + 1e-15)
            assert abs(bound - sol["objective"]) <= 1e-12 * bound
        beta, eta = allocate_hrd(dl, bh, cached, rho)
        miss = ~cached
        bound_pairs = miss & (eta <= rho * beta * (1.0 + 1e-9))
        seen["hit"] += bool(cached.any())
        seen["slack_miss"] += bool((miss & ~bound_pairs).any())
        seen["bound_miss"] += bool(bound_pairs.any())
        seen["slack_downlink_one_pair"] += (m == 1 and bool(miss[0])
                                            and beta.sum() < 1.0 - 1e-9)
    assert min(seen.values()) >= 5, seen


def _closed_form_multipliers(costs, n, members, kind):
    """The budget multipliers of the closed form's optimum, at which
    ``oracle_solve_p3`` evaluates its bound."""
    members = sorted(members)
    if kind == "hrd":
        return _kernels._hrd_solved(costs, n, members)[5]
    (su, se, _, _), _, _ = _kernels.csd_summary(costs, n, members)
    return su ** 2, se ** 2


def test_scaled_multipliers_only_widen_the_gap():
    # Any multipliers give a lower bound, and the closed form's own ones
    # the best nearby: scaling either or both by 2 or 0.5 never raises the bound
    # beyond rounding (a lone CSD member's bound is flat in nu up to its
    # cost, where the box f <= 1 binds), so no installed allocation falls
    # below it.
    rng = np.random.default_rng(36)
    cases = []
    for _ in range(100):
        dl, bh, cached, rho = _random_hrd_coalition(rng)
        m = dl.size
        ul, ed = 10.0 ** rng.uniform(-2, 2, (2, m))
        beta, eta = allocate_hrd(dl, bh, cached, rho)
        alpha, gamma = allocate_csd(ul, ed)
        value = {"hrd": float((dl / beta).sum()
                              + (bh / eta)[~cached].sum()),
                 "csd": float((ul / alpha).sum() + (ed / gamma).sum())}
        costs = _one_sbs_costs(dl, bh, cached, rho, ul, ed)
        cases += [(costs, 0, range(m), kind, value[kind])
                  for kind in ("hrd", "csd")]
    for seed in range(5):
        scn = generate_scenario(SystemParams(seed=seed),
                                Counts(n_hrd=20, n_csd=20))
        final = run_amnd(scn, demand_for(scn, seed=seed))
        delays = final.installed_delays(final.report())
        for n in range(final.n_sbs):
            for kind, members, delay in zip(
                    ("hrd", "csd"), (final.hrd_members[n],
                                     final.csd_members[n]), delays):
                if members:
                    cases.append((final.costs, n, members, kind, delay[n]))
    for costs, n, members, kind, value in cases:
        sol = oracle_solve_p3(costs, n, members, kind)
        lam, mu = _closed_form_multipliers(costs, n, members, kind)
        assert (value - sol["objective"]) / sol["objective"] >= -1e-15
        for f in (2.0, 0.5):
            for scaled in ((f * lam, mu), (lam, f * mu), (f * lam, f * mu)):
                bound = dual_bound(costs, n, members, kind, scaled)
                assert bound <= sol["objective"] * (1.0 + 1e-15)
                assert (value - bound) / sol["objective"] >= -1e-15


def test_certificate_flags_every_equal_share_state():
    # The initializer's equal split is not optimal, and the certificate
    # sees it at every desk seed, by a wide margin.
    for seed in range(100):
        scn = generate_scenario(SystemParams(seed=seed),
                                Counts(n_hrd=20, n_csd=20))
        state = abcg_init(scn, demand_for(scn, seed=seed))
        assert state.optimality_gaps().max() > 1e-2, seed
