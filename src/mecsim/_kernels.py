"""The closed-form coalition allocation: the association game's hot loop.

One SBS's resource problem splits into independent simplex blocks, each
minimizing a sum of ``cost / fraction`` over a unit budget.  Its optimum
gives every entry the share ``sqrt(cost) / sum(sqrt(cost))`` and the block
the value ``sum(sqrt(cost))**2``.  Backhaul shares are then clamped up to a
per-device floor without renormalization, which costs the exact
``sum(cost / fraction)`` and is infeasible once the clamped shares overrun
the budget.  ``hrd_closed_form`` is the clamped HRD form, written once, in
plain Python on lists.  Every clamped backhaul share comes from it: the
game's floor-bound moves, the write path, the state reallocation and the
public ``allocate_hrd``.  ``shares`` is the same square-root split on numpy
arrays, for the public closed forms on raw cost vectors.  A move where no
floor can bind is valued from running sums instead
(``association.CoalitionSums``).

The kernels apply the closed form to one coalition of a ``CoalitionCosts``
in one pass over the per-SBS lists of its ``Rows``, member by member in the
order given, with every sum in numpy's order (``_sum``).  ``hrd_summary``/
``csd_summary`` return a coalition's running-sum row, its floor ratio, its
value and its feasibility; ``hrd_value``/``csd_value`` return ``(value,
feasible)``, and ``hrd_alloc``/``csd_alloc`` also write the members'
fractions into the per-pair ``beta``/``eta`` and per-device
``alpha``/``gamma`` arrays of an ``Allocation``.  CSD coalition ``n_sbs`` is
the virtual coalition of locally computing devices: it is worth their local
delays, always feasible, and holds idle fractions.  HRD coalitions are
described by flattened request pairs: device ``k`` owns pairs
``pair_off[k] .. pair_off[k] + pair_cnt[k]``.
"""

import numpy as np

FEAS_TOL = 1e-9        # slack on per-SBS fraction budget sums
BYTES_TOL = 1e-6       # slack on storage bookkeeping (bytes)
IDLE_FRAC = 1e-8       # placeholder fraction for entries outside the association

# The kernels are plain numpy; the benchmark records this as its kernel path.
USING_NUMBA = False


def warmup() -> None:
    """No-op: nothing is compiled.  Kept for the benchmark's set-up probe."""


def member_pairs(costs, members):
    """Request-pair indices of ``members``, device by device, and the device
    owning each pair."""
    if len(members) == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    off, cnt = costs.pair_off, costs.pair_cnt
    idx = np.concatenate([np.arange(off[m], off[m] + cnt[m]) for m in members])
    return idx, np.repeat(members, cnt[members])


def shares(s):
    """Square-root shares of one block from its entries' root costs ``s``."""
    return np.minimum(1.0, s / s.sum())


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
    the costs; ``span[k]`` is the range of device ``k``'s pairs, and
    ``room[n]`` SBS ``n``'s spare bytes plus ``BYTES_TOL``."""

    def __init__(self, costs):
        for name in ("cached", "eta_min", "dev_floor_ratio", "sqrt_dl",
                     "sqrt_bh", "dl_cost", "bh_cost", "sqrt_ul", "sqrt_ed",
                     "task_bytes", "local_delay_w"):
            setattr(self, name, getattr(costs, name).tolist())
        self.span = [range(a, a + c) for a, c in
                     zip(costs.pair_off.tolist(), costs.pair_cnt.tolist())]
        self.room = (costs.spare_bytes + BYTES_TOL).tolist()


def _clamp(sd, sb, bh):
    """(eta, value, feasible) of an HRD coalition whose root downlink and
    missed root backhaul costs sum to ``sd`` and ``sb``, with the (root
    backhaul cost, floor) of its missed pairs in ``bh``."""
    value = sd ** 2
    if not bh:
        return [], value, True
    eta = [min(1.0, max(floor, s / sb)) for s, floor in bh]
    value += _sum([s * s / e for (s, _), e in zip(bh, eta)])
    return eta, value, not (any(floor > 1.0 for _, floor in bh)
                            or _sum(eta) > 1.0 + FEAS_TOL)


def hrd_closed_form(sd, bh):
    """(eta, value, feasible) of one HRD coalition.

    ``sd`` lists the root downlink costs of every pair and ``bh`` the (root
    backhaul cost, floor) of every missed pair; ``eta`` lists the clamped
    backhaul shares of the missed pairs.  Sums run in numpy's order, so the
    result is that of the same arithmetic on arrays.
    """
    return _clamp(_sum(sd), _sum([s for s, _ in bh]), bh)


def _hrd_lists(costs, n, members):
    """The ``hrd_closed_form`` inputs of ``members`` at SBS ``n``."""
    rows = costs.rows
    dl, bh, hit = rows.sqrt_dl[n], rows.sqrt_bh[n], rows.cached[n]
    floor, span = rows.eta_min[n], rows.span
    sd, missed = [], []
    for k in members:
        pairs = span[k]
        sd += dl[pairs.start:pairs.stop]
        for p in pairs:
            if not hit[p]:
                missed.append((bh[p], floor[k]))
    return sd, missed


def hrd_summary(costs, n, members):
    """``((sd, sb, miss), ratio, value, feasible)`` of the HRD coalition
    ``members`` at SBS ``n``: its running-sum row (root downlink costs of
    all pairs, root backhaul costs and count of the missed pairs), its
    largest floor ratio and its clamped closed form."""
    sd, bh = _hrd_lists(costs, n, members)
    s_d, s_b = _sum(sd), _sum([s for s, _ in bh])
    ratios = costs.rows.dev_floor_ratio[n]
    ratio = max([ratios[k] for k in members], default=0.0)
    _, value, ok = _clamp(s_d, s_b, bh)
    return (s_d, s_b, float(len(bh))), ratio, value, ok


def csd_summary(costs, n, members):
    """``((su, se, load, local), 0.0, value, feasible)`` of the CSD
    coalition ``members`` at SBS ``n``: its running-sum row (root uplink and
    compute costs and task bytes, or in the local coalition local delays),
    and its closed form."""
    rows = costs.rows
    if n == costs.n_sbs:
        local = _sum([rows.local_delay_w[k] for k in members])
        return (0.0, 0.0, 0.0, local), 0.0, local, True
    ul, ed, load = rows.sqrt_ul[n], rows.sqrt_ed[n], rows.task_bytes
    su = _sum([ul[k] for k in members])
    se = _sum([ed[k] for k in members])
    stored = _sum([load[k] for k in members])
    return ((su, se, stored, 0.0), 0.0, su ** 2 + se ** 2,
            stored <= rows.room[n])


def hrd_value(costs, n, members):
    return hrd_closed_form(*_hrd_lists(costs, n, members))[1:]


def csd_value(costs, n, members):
    return csd_summary(costs, n, members)[2:]


def hrd_alloc(costs, n, members, beta, eta):
    """Writes every member pair's ``beta`` and ``eta``; a hit's is IDLE_FRAC."""
    sd, bh = _hrd_lists(costs, n, members)
    s_d = _sum(sd)
    eta_miss, value, ok = _clamp(s_d, _sum([s for s, _ in bh]), bh)
    rows = costs.rows
    hit, misses, shares_dl = rows.cached[n], iter(eta_miss), iter(sd)
    for k in members:
        for p in rows.span[k]:
            beta[p] = min(1.0, next(shares_dl) / s_d)
            eta[p] = IDLE_FRAC if hit[p] else next(misses)
    return value, ok


def csd_alloc(costs, n, members, alpha, gamma):
    """Writes every member's ``alpha`` and ``gamma``; a local one's are
    IDLE_FRAC."""
    (s_u, s_e, _, _), _, value, ok = csd_summary(costs, n, members)
    if n == costs.n_sbs:
        for k in members:
            alpha[k] = gamma[k] = IDLE_FRAC
        return value, ok
    ul, ed = costs.rows.sqrt_ul[n], costs.rows.sqrt_ed[n]
    for k in members:
        alpha[k] = min(1.0, ul[k] / s_u)
        gamma[k] = min(1.0, ed[k] / s_e)
    return value, ok
