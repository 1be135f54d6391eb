"""The closed-form coalition allocation: the association game's hot loop.

A CSD coalition's resource problem splits into two independent simplex
blocks (uplink and edge compute), each minimizing a sum of ``cost /
fraction`` over a unit budget.  Its optimum gives every entry the share
``sqrt(cost) / sum(sqrt(cost))`` and the block the value
``sum(sqrt(cost))**2``, which is also the block's budget multiplier;
``root_shares`` is that split.  An HRD coalition couples its downlink and
backhaul blocks through the rate ordering of its missed pairs;
``hrd_closed_form`` solves it exactly and states the budget multipliers
of its optimum.  Every HRD share, value and multiplier comes from
``hrd_closed_form``: the game's flagged moves, the running sums' refresh,
the write path of each game's allocation step and the optimality
certificate (``allocation.oracle_solve_p3``), so a valued coalition is
worth its installed allocation to the last bit, and is certified by the
multipliers that solved it.

The kernels apply the closed forms to one coalition of a
``CoalitionCosts`` in one pass over the per-SBS lists of its ``Rows``,
member by member in the order given, with every sum in numpy's order
(``_sum``).  ``hrd_summary``/``csd_summary`` return a coalition's
running-sum row, its largest device ratio and its value;
``hrd_value``/``csd_value`` return the value alone, and
``hrd_alloc``/``csd_alloc`` return it and also write the members'
fractions into the per-pair ``beta``/``eta`` and per-device
``alpha``/``gamma`` arrays of an ``Allocation``.  The HRD kernels and the
certificate share one solve per SBS and member list (``_hrd_solved``,
memoized on the ``Rows``): a solve values, refreshes, installs and audits
the same member lists many times, and a repeat costs one dictionary
lookup.  A value is one float, with +inf for an infeasible coalition (the
extended-value convention: Boyd & Vandenberghe, *Convex Optimization*,
3.1.2).  An HRD coalition is always feasible; a CSD coalition is feasible
while its task inputs fit in the SBS's spare storage, and is worth +inf
once they overrun it.  CSD coalition ``n_sbs`` is the virtual coalition of
locally computing devices: it is worth their local delays and holds idle
fractions.  HRD coalitions are described by flattened request pairs:
device ``k`` owns pairs ``pair_off[k] .. pair_off[k] + pair_cnt[k]``.
"""

import math

import numpy as np

FEAS_TOL = 1e-9        # slack on per-SBS fraction budget sums
BYTES_TOL = 1e-6       # slack on storage bookkeeping (bytes)
IDLE_FRAC = 1e-8       # placeholder fraction for entries outside the association

# The kernels run on Python lists, uncompiled; the benchmark records this as
# its kernel path.
USING_NUMBA = False

# Newton steps of ``_coupled_shares``; it converges in well under 20.
NEWTON_MAX_ITER = 100
# log(theta) stays below this, so exp() cannot overflow.
LOG_THETA_MAX = 700.0


def warmup() -> None:
    """No-op: nothing is compiled.  Kept for the benchmark's set-up probe."""


def root_shares(roots, total):
    """The square-root split of one block: each entry's share ``min(1, root
    / total)``, from the entries' root costs ``roots`` and their sum."""
    return [min(1.0, x / total) for x in roots]


def _sum(values) -> float:
    """``float(np.sum(values))`` to the last bit.  numpy adds fewer than
    eight terms left to right, so a short list needs no array."""
    if len(values) >= 8:
        return float(np.sum(values))
    total = 0.0
    for v in values:
        total += v
    return total


class Rows:
    """The matrices and vectors of a ``CoalitionCosts`` that the kernels
    read, as nested Python lists under the same names (``rows.sqrt_dl[n]
    [p]`` is ``costs.sqrt_dl[n, p]``), one ``tolist`` each, built once with
    the costs; ``span[k]`` is the range of device ``k``'s pairs,
    ``room[n]`` SBS ``n``'s spare bytes plus ``BYTES_TOL``, and
    ``hrd_solved`` the memo of ``_hrd_solved``, which lives as long as the
    costs."""

    def __init__(self, costs):
        for name in ("cached", "eta_min", "dev_floor_ratio", "sqrt_dl",
                     "sqrt_bh", "dl_cost", "bh_cost", "sqrt_ul", "sqrt_ed",
                     "task_bytes", "local_delay_w"):
            setattr(self, name, getattr(costs, name).tolist())
        self.span = [range(a, a + c) for a, c in
                     zip(costs.pair_off.tolist(), costs.pair_cnt.tolist())]
        self.room = (costs.spare_bytes + BYTES_TOL).tolist()
        self.hrd_solved = {}        # (SBS, member tuple) -> its solve


def _coupled_shares(d, miss):
    """(beta, eta, (lambda, mu)) of an HRD coalition where some ordering
    binds: the shares and multipliers at the root in ``x = log(theta)`` of
    ``log(S_eta / S_beta)``, or, if every pair is missed and the downlink
    budget is slack, those that fill the backhaul budget alone.  ``d`` and
    ``miss`` are ``hrd_closed_form``'s inputs."""
    missed = {i for i, _, _ in miss}
    s_hit = _sum([v for p, v in enumerate(d) if p not in missed])
    # Per missed pair: its position, root costs, rho, binding threshold
    # theta_p and D_p + B_p / rho_p.
    pairs = [(i, d[i], s, r, (s / (r * d[i])) ** 2, d[i] * d[i] + s * s / r)
             for i, s, r in miss]
    if s_hit == 0.0:
        # lambda = 0: every pair bound, eta_p ~ sqrt(rho_p * D_p + B_p) and
        # beta_p = eta_p / rho_p, if that leaves sum(beta) <= sum(eta).
        g = [math.sqrt(r * k) for _, _, _, r, _, k in pairs]
        h = [v / r for v, (_, _, _, r, _, _) in zip(g, pairs)]
        total = _sum(g)
        if _sum(h) <= total:
            return ([v / total for v in h], [v / total for v in g],
                    (0.0, total * total))

    def at(x):
        """(theta, c, e, log(S_eta / S_beta), its derivative in x) at x."""
        theta = math.exp(x)
        root = math.sqrt(theta)
        c, e = list(d), []
        s_c, s_e, dc, de = s_hit, 0.0, 0.0, 0.0
        for i, di, s, r, t, k in pairs:
            if theta <= t:
                ei = s / root
                s_c += di
                de -= 0.5 * ei
            else:
                w = r * theta
                ci = math.sqrt(k / (1.0 + w))
                c[i] = ci
                ei = r * ci
                g = -0.5 * ci * w / (1.0 + w)
                s_c += ci
                dc += g
                de += r * g
            e.append(ei)
            s_e += ei
        return theta, c, e, math.log(s_e / s_c), de / s_e - dc / s_c

    # Below the smallest threshold no pair binds, and the caller has found
    # that the root lies above it.
    lo, hi = min(math.log(t) for _, _, _, _, t, _ in pairs), LOG_THETA_MAX
    x = lo
    for _ in range(NEWTON_MAX_ITER):
        theta, c, e, f, slope = at(x)
        if f > 0.0:
            lo = x
        elif f < 0.0:
            hi = x
        else:
            break
        step = x - f / slope if slope < 0.0 else hi
        if not lo < step < hi:
            step = 0.5 * (lo + hi)
        if abs(step - x) <= 1e-15 * max(1.0, abs(x)):
            break
        x = step
    total = _sum(c)
    return (root_shares(c, total), root_shares(e, _sum(e)),
            (total * total, theta * total * total))


def hrd_closed_form(d, miss):
    """(beta, eta, value, (lambda, mu)) of one HRD coalition.

    ``d`` lists the root downlink costs ``sqrt(D_p)`` of every pair and
    ``miss`` the ``(position in d, root backhaul cost sqrt(B_p), rho_p)`` of
    every missed pair; ``beta`` holds one share per pair and ``eta`` one
    per missed pair, both in that order.  Sums run in numpy's order.

    The problem: minimize ``sum(D_p / beta_p) + sum_miss(B_p / eta_p)``
    subject to ``sum(beta) <= 1``, ``sum(eta) <= 1`` and the rate ordering
    ``eta_p >= rho_p * beta_p`` of every missed pair, which keeps its
    access rate from outrunning its backhaul rate (``rho_p`` is the pair's
    ``RateTable.eta_min``).  It is always feasible, since shrinking
    ``beta`` restores every ordering.  Where no ordering binds, the two
    blocks take their square-root shares and the coalition is worth
    ``sd**2 + sb**2`` (root downlink costs of all pairs, root backhaul
    costs of the missed pairs).  That happens iff
    ``max_p(rho_p * sqrt(D_p) / sqrt(B_p)) * sb <= sd``, the test that
    ``association.CoalitionSums`` makes on a move's running sums.

    Otherwise the KKT conditions (Boyd & Vandenberghe, *Convex
    Optimization*, 5.5.3) leave one unknown, the ratio ``theta = mu /
    lambda`` of the two budgets' multipliers: a missed pair binds iff
    ``theta > B_p / (rho_p**2 * D_p)``, an unbound pair takes ``beta_p ~
    sqrt(D_p)`` and ``eta_p ~ sqrt(B_p / theta)``, a bound one ``beta_p ~
    sqrt((D_p + B_p / rho_p) / (1 + rho_p * theta))`` and ``eta_p = rho_p *
    beta_p``, and both budgets bind at the root of ``S_eta(theta) =
    S_beta(theta)``, found by a safeguarded Newton iteration on
    ``log(theta)`` (``_coupled_shares``).  If every pair is missed and
    bound, the downlink budget may be slack instead (``lambda = 0``), with
    ``beta_p ~ sqrt((D_p + B_p / rho_p) / rho_p)`` scaled so that
    ``sum(eta) = 1``.

    ``lambda`` and ``mu`` are the multipliers of the downlink and backhaul
    budgets at that optimum, the ones with which the shares meet the KKT
    conditions (``allocation.oracle_solve_p3`` certifies the value with
    them): ``(sd**2, 0)`` with no missed pair, ``(sd**2, sb**2)`` where no
    ordering binds, ``(S**2, theta * S**2)`` at the coupled root, where
    ``S`` is the sum of the root's downlink terms, and ``(0, S_eta**2)``
    where the downlink budget is slack, ``S_eta`` being the sum of the
    unscaled ``eta_p``.
    """
    s_d = _sum(d)
    if not miss:
        return root_shares(d, s_d), [], s_d * s_d, (s_d * s_d, 0.0)
    b = [s for _, s, _ in miss]
    s_b = _sum(b)
    if max([r * d[i] / s for i, s, r in miss]) * s_b <= s_d:
        return (root_shares(d, s_d), root_shares(b, s_b),
                s_d * s_d + s_b * s_b, (s_d * s_d, s_b * s_b))
    beta, eta, multipliers = _coupled_shares(d, miss)
    value = (_sum([x * x / f for x, f in zip(d, beta)])
             + _sum([s * s / f for s, f in zip(b, eta)]))
    return beta, eta, value, multipliers


def _hrd_lists(costs, n, members):
    """The ``hrd_closed_form`` inputs of ``members`` at SBS ``n``."""
    rows = costs.rows
    dl, bh, hit = rows.sqrt_dl[n], rows.sqrt_bh[n], rows.cached[n]
    rho, span = rows.eta_min[n], rows.span
    d, miss = [], []
    for k in members:
        pairs = span[k]
        for p in pairs:
            if not hit[p]:
                miss.append((len(d) + p - pairs.start, bh[p], rho[k]))
        d += dl[pairs.start:pairs.stop]
    return d, miss


def _hrd_solved(costs, n, members):
    """``((sd, sb, miss), ratio, beta, eta, value, (lambda, mu))`` of the
    HRD coalition ``members`` at SBS ``n``: its running-sum row (root
    downlink costs of all pairs, root backhaul costs and count of the
    missed pairs), its largest device ratio and ``hrd_closed_form``'s
    shares, value and multipliers.

    Solved once per SBS and member list (in its order) on ``costs.rows``:
    the result depends on nothing else, and the lists it holds are never
    written to."""
    memo, key = costs.rows.hrd_solved, (n, tuple(members))
    solved = memo.get(key)
    if solved is None:
        d, miss = _hrd_lists(costs, n, members)
        ratios = costs.rows.dev_floor_ratio[n]
        solved = memo[key] = (
            (_sum(d), _sum([s for _, s, _ in miss]), float(len(miss))),
            max([ratios[k] for k in members], default=0.0),
            *hrd_closed_form(d, miss))
    return solved


def hrd_summary(costs, n, members):
    """``((sd, sb, miss), ratio, value)`` of the HRD coalition ``members``
    at SBS ``n`` (``_hrd_solved``)."""
    row, ratio, _, _, value, _ = _hrd_solved(costs, n, members)
    return row, ratio, value


def csd_summary(costs, n, members):
    """``((su, se, load, local), 0.0, value)`` of the CSD coalition
    ``members`` at SBS ``n``: its running-sum row (root uplink and compute
    costs and task bytes, or in the local coalition local delays), and its
    closed form, +inf where the stored bytes overrun the SBS's room."""
    rows = costs.rows
    if n == costs.n_sbs:
        local = _sum([rows.local_delay_w[k] for k in members])
        return (0.0, 0.0, 0.0, local), 0.0, local
    ul, ed, load = rows.sqrt_ul[n], rows.sqrt_ed[n], rows.task_bytes
    su = _sum([ul[k] for k in members])
    se = _sum([ed[k] for k in members])
    stored = _sum([load[k] for k in members])
    return ((su, se, stored, 0.0), 0.0,
            su ** 2 + se ** 2 if stored <= rows.room[n] else math.inf)


def hrd_value(costs, n, members):
    return _hrd_solved(costs, n, members)[4]


def csd_value(costs, n, members):
    return csd_summary(costs, n, members)[2]


def hrd_alloc(costs, n, members, beta, eta):
    """Writes every member pair's ``beta`` and ``eta``; a hit's is IDLE_FRAC."""
    _, _, shares_dl, shares_bh, value, _ = _hrd_solved(costs, n, members)
    rows = costs.rows
    hit, dl, bh = rows.cached[n], iter(shares_dl), iter(shares_bh)
    for k in members:
        for p in rows.span[k]:
            beta[p] = next(dl)
            eta[p] = IDLE_FRAC if hit[p] else next(bh)
    return value


def csd_alloc(costs, n, members, alpha, gamma):
    """Writes every member's ``alpha`` and ``gamma``; a local one's are
    IDLE_FRAC."""
    (s_u, s_e, _, _), _, value = csd_summary(costs, n, members)
    if n == costs.n_sbs:
        for k in members:
            alpha[k] = gamma[k] = IDLE_FRAC
        return value
    ul, ed = costs.rows.sqrt_ul[n], costs.rows.sqrt_ed[n]
    for k, a, g in zip(members, root_shares([ul[k] for k in members], s_u),
                       root_shares([ed[k] for k in members], s_e)):
        alpha[k], gamma[k] = a, g
    return value
