"""The references that the library is checked against: the
one-proposal-at-a-time coalition game move, and the numerical optimum of a
coalition's resource problem by bisection.

``propose_move`` draws one move and ``evaluate_and_apply`` values it as a
block of one row and commits it if it wins: the stabilization sweep
(``association.stabilize_partition``) matches a loop of these to the last
bit, and the random phase (``association._random_phase``) in law
(``association._draw_weights``).  Every library call goes through the
``association`` module, so a test that patches a name there
(``association.hrd_value``) sees the reference's calls too.

The oracles (``oracle_simplex_min``, ``oracle_hrd_min``, applied to one
coalition by ``solve_p3``) share no code with the closed forms or with the
certificate (``allocation.oracle_solve_p3``), which the tests check
against them.
"""

import math
from dataclasses import dataclass

import numpy as np

from mecsim import association
from mecsim._kernels import BYTES_TOL, FEAS_TOL, IDLE_FRAC

MASK32 = 0xFFFFFFFF
CHECK_TOL = 1e-9   # relative tolerance of ``check_state`` and ``check_sums``
# Attempts ``propose_move`` makes before it gives up.
ATTEMPTS = 2048


@dataclass
class MoveProposal:
    """One candidate partition update between coalitions c_from and c_to."""

    game: str              # "hrd" or "csd"
    kind: str              # "transfer" or "swap"
    c_from: int
    c_to: int
    md_from: int           # member leaving c_from
    md_to: int | None = None   # member leaving c_to (swaps only)
    dv: float | None = None    # +inf if a tentative coalition is infeasible


def member_pairs(costs, members):
    """Request-pair indices of ``members``, device by device, and the device
    owning each pair."""
    if len(members) == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    off, cnt = costs.pair_off, costs.pair_cnt
    idx = np.concatenate([np.arange(off[m], off[m] + cnt[m]) for m in members])
    return idx, np.repeat(members, cnt[members])


def _bounded(u: int, n: int):
    """Lemire's multiply-shift of the uint32 ``u`` into [0, n), or None where
    ``u`` falls in its rejection zone, the ``2**32 % n`` lowest products,
    which would bias the result (Lemire, "Fast random integer generation
    in an interval", ACM TOMACS 2019).  A bound of 1 has no zone."""
    m = u * n
    return None if m & MASK32 < (1 << 32) % n else m >> 32


def propose_move(state, game: str, rng, lists=None) -> MoveProposal:
    """Draw one candidate move: two distinct coalitions holding a member; a
    member transfers into an empty one, otherwise one member from each side
    is swapped.

    Each attempt reads three uint32 ``(u0, u1, u2)``: ``u0`` picks the
    ordered pair ``(m, n)`` by multiply-shift with bound ``C * (C - 1)``
    over C coalitions, ``n`` skipping ``m``; ``u1`` the member leaving the
    nonempty side (``m``, unless it is empty), and ``u2`` the one leaving
    the other side, which a transfer reads but does not use.  An attempt is
    skipped when its pair holds no member, or when a draw it uses falls in
    Lemire's rejection zone (``_bounded``).  ``rng`` is a ``Generator``, or
    a callable returning the next uint32 of its stream; both draw the same
    moves.  ``lists`` are the game's member lists, read from ``state`` when
    not given; a loop of draws must read them again after an accept.
    """
    if isinstance(rng, np.random.Generator):
        def next_uint32():
            return int(rng.integers(1 << 32, dtype=np.uint32))
    else:
        next_uint32 = rng
    if lists is None:
        lists = association._member_lists(state, game)
    n_coal = len(lists)
    if n_coal < 2:
        raise ValueError("need at least two coalitions to propose a move")
    pairs = n_coal * (n_coal - 1)
    # With one nonempty coalition among C, an attempt misses it with
    # probability (C-2)/C; the bound keeps failure negligible.
    for _ in range(ATTEMPTS):
        u0, u1, u2 = next_uint32(), next_uint32(), next_uint32()
        pair = _bounded(u0, pairs)
        if pair is None:
            continue
        m, n = divmod(pair, n_coal - 1)
        if n >= m:
            n += 1
        if not lists[m]:
            m, n = n, m
        i = _bounded(u1, len(lists[m])) if lists[m] else None
        if i is None:
            continue
        if not lists[n]:
            return MoveProposal(game, "transfer", c_from=m, c_to=n,
                                md_from=lists[m][i])
        j = _bounded(u2, len(lists[n]))
        if j is not None:
            return MoveProposal(game, "swap", c_from=m, c_to=n,
                                md_from=lists[m][i], md_to=lists[n][j])
    raise RuntimeError("could not sample a nonempty coalition pair")


def check_state(state) -> None:
    """Assert the cached utilities and the objective of ``state`` match the
    delays of its installed fractions (``GameState.installed_delays``): a
    coalition whose fractions lag its cached value is a stale cache."""
    rep = state.report()
    for game, cache, ref in zip(("hrd", "csd"), (state.v_hrd, state.v_csd),
                                state.installed_delays(rep)):
        stale = np.flatnonzero(np.abs(ref - cache)
                               > CHECK_TOL * np.maximum(1.0, np.abs(ref)))
        if stale.size:
            c = int(stale[0])
            raise AssertionError(
                f"stale {game} utility cache at coalition {c}: "
                f"{cache[c]!r} vs {ref[c]!r}")
    if abs(rep.objective - state.objective) > \
            CHECK_TOL * max(1.0, rep.objective):
        raise AssertionError(
            f"objective disagrees with delay model: "
            f"{state.objective!r} vs {rep.objective!r}")


def check_sums(sums, lists) -> None:
    """Assert every row of the running sums ``sums`` (an
    ``association.CoalitionSums``) matches its member list in ``lists``."""
    for c, members in enumerate(lists):
        ref_sums, ref_ratio, _ = sums.summary(sums.costs, c, members)
        ref = np.append(ref_sums, ref_ratio)
        got = np.append(sums.sums[c], sums.ratio[c])
        if (sums.size[c] != len(members)
                or np.any(np.abs(got - ref) > CHECK_TOL
                          * np.maximum(1.0, np.abs(ref)))):
            raise AssertionError(
                f"stale {sums.game} running sums at coalition {c}: "
                f"{got!r} vs {ref!r}")


def _evaluate(state, sums, prop: MoveProposal):
    """Value a move as a block of one row from the running sums ``sums`` of
    its game, setting its ``dv`` (+inf where a side is infeasible); returns
    the block."""
    swap = np.array([prop.md_to is not None])
    rows = association._move_rows(
        swap, np.array([prop.md_from]),
        np.array([prop.md_to if swap[0] else sums.none]))
    block = association._Block(state, sums, swap, rows,
                               np.array([[prop.c_from], [prop.c_to]]))
    prop.dv = block.value(0)
    return block


def evaluate_and_apply(state, sums, prop: MoveProposal) -> bool:
    """Accept the proposal iff, valued from its game's running sums
    ``sums``, it improves by more than ``association.IMPROVE_MARGIN`` (an
    infeasible side makes ``dv`` +inf): commit it (``association._commit``,
    which refreshes ``sums``) and install both coalitions.  A rejection is
    counted and changes nothing else."""
    block = _evaluate(state, sums, prop)
    if not prop.dv < -association.IMPROVE_MARGIN:
        state.proposals += 1
        return False
    association._commit(state, block, 0)
    lists = association._member_lists(state, prop.game)
    for c in (prop.c_from, prop.c_to):
        association._write_coalition(state, prop.game, c, lists[c])
    return True


# ---------------------------------------------------------------------------
# The numerical optimum of a coalition's resource problem.
# ---------------------------------------------------------------------------

ORACLE_MAX_ITER = 240   # bisection steps of ``_multiplier``
ORACLE_TOL = 1e-12      # budget residual that the oracles accept


def _multiplier(budget, guess: float) -> float:
    """The multiplier at which ``budget``, a nonincreasing function of it
    that falls from above 1 to below 1, crosses 1: bracketed from ``guess``
    by factors of 16, then bisected on a log scale until the residual is
    within ``ORACLE_TOL``.  Raises RuntimeError if it does not converge."""
    lo = hi = guess
    while budget(lo) < 1.0 and lo > 1e-300:
        lo /= 16.0
    while budget(hi) > 1.0 and hi < 1e300:
        hi *= 16.0
    for _ in range(ORACLE_MAX_ITER):
        mid = math.sqrt(lo) * math.sqrt(hi)
        residual = budget(mid) - 1.0
        if abs(residual) <= ORACLE_TOL:
            return mid
        if residual > 0.0:
            lo = mid
        else:
            hi = mid
        if hi <= lo * (1.0 + 1e-15):
            residual = budget(hi) - 1.0
            break
    if abs(residual) > 1e-7:
        raise RuntimeError(
            f"multiplier bisection did not converge: residual {residual:.3e}")
    return hi


def oracle_simplex_min(cost, lo, hi):
    """Minimize sum(cost/f) s.t. sum(f) <= 1, lo <= f <= hi, numerically:
    every coordinate is ``clip(sqrt(cost/nu), lo, hi)`` for the multiplier
    nu that ``_multiplier`` bisects for.  Returns (fractions, objective);
    raises ValueError for an infeasible box (floors summing above 1)."""
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
    nu = _multiplier(
        lambda nu: float(np.clip(np.sqrt(cost / nu), lo, hi).sum()),
        float(np.sqrt(cost).sum()) ** 2)
    f = np.clip(np.sqrt(cost / nu), lo, hi)
    return f, float((cost / f).sum())


def oracle_hrd_min(dl_cost, bh_cost, cached, rho):
    """Minimize sum(D/beta) + sum_miss(B/eta) s.t. sum(beta) <= 1,
    sum(eta) <= 1 and eta >= rho * beta on every missed pair, numerically.

    For budget multipliers lambda and mu, a hit or a slack missed pair has
    ``beta = sqrt(D/lambda)`` (and ``eta = sqrt(B/mu)``); where ``B *
    lambda < rho**2 * D * mu`` the ordering binds, ``beta = sqrt((D +
    B/rho) / (lambda + rho * mu))`` and ``eta = rho * beta``.  Nested
    bisection (``_multiplier``) finds lambda for every trial mu, and mu;
    lambda is 0 where the downlink budget is slack even then (every pair
    missed).  Returns (beta, eta, objective); eta is IDLE_FRAC on hits.
    """
    dl = np.asarray(dl_cost, dtype=float)
    bh = np.asarray(bh_cost, dtype=float)
    miss = ~np.asarray(cached, dtype=bool)
    pairs = list(zip(dl.tolist(), np.where(miss, bh, np.nan).tolist(),
                     np.broadcast_to(rho, dl.shape).tolist()))

    def shares(lam, mu):
        beta, eta = [], []
        for d, b, r in pairs:
            if b != b:      # a hit: no backhaul share
                beta.append(math.sqrt(d / lam))
            elif b * lam >= r * r * d * mu:
                beta.append(math.sqrt(d / lam))
                eta.append(math.sqrt(b / mu))
            else:
                beta.append(math.sqrt((d + b / r) / (lam + r * mu)))
                eta.append(r * beta[-1])
        return beta, eta

    def lam_at(mu):
        if miss.all() and math.fsum(shares(0.0, mu)[0]) <= 1.0:
            return 0.0
        return _multiplier(lambda lam: math.fsum(shares(lam, mu)[0]),
                           float(np.sqrt(dl).sum()) ** 2)

    mu = 0.0
    if miss.any():
        mu = _multiplier(lambda mu: math.fsum(shares(lam_at(mu), mu)[1]),
                         float(np.sqrt(bh[miss]).sum()) ** 2)
    beta, eta_miss = (np.array(x) for x in shares(lam_at(mu), mu))
    eta = np.full(dl.shape, IDLE_FRAC)
    eta[miss] = eta_miss
    return beta, eta, float((dl / beta).sum() + (bh[miss] / eta_miss).sum())


def solve_p3(costs, n: int, members, kind: str):
    """Numerically optimal fractions for one coalition at SBS n, as a
    dict: for "hrd", pair indices, beta, eta and the objective
    (``oracle_hrd_min``), always feasible; for "csd", alpha, gamma and the
    objective, ``feasible`` False where the task inputs overrun the SBS's
    spare storage."""
    members = np.asarray(sorted(members), dtype=np.int64)
    if kind == "csd":
        alpha, v_ul = oracle_simplex_min(
            costs.ul_cost[n, members], IDLE_FRAC, 1.0)
        gamma, v_ed = oracle_simplex_min(
            costs.ed_cost[n, members], IDLE_FRAC, 1.0)
        stored = costs.task_bytes[members].sum()
        spare_ok = stored <= costs.spare_bytes[n] + BYTES_TOL
        return {"alpha": alpha, "gamma": gamma, "objective": v_ul + v_ed,
                "feasible": bool(spare_ok)}
    if kind != "hrd":
        raise ValueError(f"unknown coalition kind {kind!r}")
    idx, ks = member_pairs(costs, members)
    beta, eta, value = oracle_hrd_min(costs.dl_cost[n, idx],
                                      costs.bh_cost[n, idx],
                                      costs.cached[n, idx],
                                      costs.eta_min[n, ks])
    return {"pairs": idx, "beta": beta, "eta": eta, "objective": value,
            "feasible": True}
