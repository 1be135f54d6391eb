"""The closed-form coalition allocation: the association game's hot loop.

One SBS's resource problem splits into independent simplex blocks, each
minimizing a sum of ``cost / fraction`` over a unit budget.  Its optimum
gives every entry the share ``sqrt(cost) / sum(sqrt(cost))`` and the block
the value ``sum(sqrt(cost))**2``.  Backhaul shares are then clamped up to a
per-device floor without renormalization, which costs the exact
``sum(cost / fraction)`` and is infeasible once the clamped shares overrun
the budget.  ``shares`` and ``csd_closed_form`` are that arithmetic on
square-root cost vectors in numpy; ``hrd_closed_form`` is the clamped HRD
form, written once, in plain Python on lists.  Every clamped backhaul share
comes from it: the game's floor-bound moves, the write path, the state
reallocation and the public ``allocate_hrd``.  A move where no floor can
bind is valued from running sums instead (``association.CoalitionSums``).

The four kernels apply the closed form to one coalition of a
``CoalitionCosts``: ``hrd_value``/``csd_value`` return ``(value,
feasible)``, and ``hrd_alloc``/``csd_alloc`` also write the members'
fractions into the per-pair ``beta``/``eta`` and per-device
``alpha``/``gamma`` arrays of an ``Allocation``.  HRD coalitions are
described by flattened request pairs: device ``k`` owns pairs
``pair_off[k] .. pair_off[k] + pair_cnt[k]``.  The HRD kernels read them
as lists, one pair row per SBS, built on first use and held once per
``CoalitionCosts`` (``pair_rows``), so every state and clone that shares the
costs shares the rows.
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


def hrd_closed_form(sd, bh):
    """(eta, value, feasible) of one HRD coalition.

    ``sd`` lists the root downlink costs of every pair and ``bh`` the (root
    backhaul cost, backhaul floor) of every missed pair; ``eta`` lists the
    clamped backhaul shares of the missed pairs.  Sums run in numpy's
    order, so the result is that of the same arithmetic on arrays.
    """
    value = _sum(sd) ** 2
    if not bh:
        return [], value, True
    sb = _sum([s for s, _ in bh])
    eta = [min(1.0, max(floor, s / sb)) for s, floor in bh]
    value += _sum([s * s / e for (s, _), e in zip(bh, eta)])
    return eta, value, not (any(floor > 1.0 for _, floor in bh)
                            or _sum(eta) > 1.0 + FEAS_TOL)


def csd_closed_form(su, se):
    """Value of one CSD coalition from its root uplink and compute costs."""
    return float(su.sum()) ** 2 + float(se.sum()) ** 2


def _pair_rows(costs, n: int) -> list:
    """Per device at SBS ``n``: the root downlink costs of its pairs and the
    (root backhaul cost, floor) of its missed pairs."""
    dl, bh = costs.sqrt_dl[n].tolist(), costs.sqrt_bh[n].tolist()
    hits, floor = costs.cached[n].tolist(), costs.eta_min[n].tolist()
    starts = costs.pair_off.tolist()
    ends = (costs.pair_off + costs.pair_cnt).tolist()
    return [(dl[a:b], [(s, floor[k]) for s, hit in zip(bh[a:b], hits[a:b])
                       if not hit])
            for k, (a, b) in enumerate(zip(starts, ends))]


def _hrd_form(costs, n, members):
    """``hrd_closed_form`` of ``members`` at SBS ``n``, over the pair rows
    that ``costs`` holds for SBS ``n``.  A row is built on first use: most
    SBSs are never valued this way."""
    rows = costs.pair_rows[n]
    if rows is None:
        rows = costs.pair_rows[n] = _pair_rows(costs, n)
    sd, bh = [], []
    for k in members:
        d, b = rows[k]
        sd += d
        bh += b
    return hrd_closed_form(sd, bh)


def _fits(costs, n, members):
    return float(costs.task_bytes[members].sum()) <= \
        costs.spare_bytes[n] + BYTES_TOL


def hrd_value(costs, n, members):
    _, value, ok = _hrd_form(costs, n, members)
    return value, ok


def hrd_alloc(costs, n, members, beta, eta):
    """Writes every member pair's ``beta`` and ``eta``; a hit's is IDLE_FRAC."""
    eta_miss, value, ok = _hrd_form(costs, n, members)
    idx, _ = member_pairs(costs, members)
    beta[idx] = shares(costs.sqrt_dl[n, idx])
    eta[idx] = IDLE_FRAC
    eta[idx[~costs.cached[n, idx]]] = eta_miss
    return value, ok


def csd_value(costs, n, members):
    value = csd_closed_form(costs.sqrt_ul[n, members],
                            costs.sqrt_ed[n, members])
    return value, _fits(costs, n, members)


def csd_alloc(costs, n, members, alpha, gamma):
    su = costs.sqrt_ul[n, members]
    se = costs.sqrt_ed[n, members]
    alpha[members] = shares(su)
    gamma[members] = shares(se)
    return csd_closed_form(su, se), _fits(costs, n, members)
