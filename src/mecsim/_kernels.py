"""The closed-form coalition allocation: the association game's hot loop.

One SBS's resource problem splits into independent simplex blocks, each
minimizing a sum of ``cost / fraction`` over a unit budget.  Its optimum
gives every entry the share ``sqrt(cost) / sum(sqrt(cost))`` and the block
the value ``sum(sqrt(cost))**2``.  Backhaul shares are then clamped up to a
per-device floor without renormalization, which costs the exact
``sum(cost / fraction)`` and is infeasible once the clamped shares overrun
the budget.  ``shares``, ``hrd_closed_form`` and ``csd_closed_form`` are
that arithmetic on square-root cost vectors; every closed-form valuation
or installation of a coalition goes through them.

The four kernels apply it to one coalition of a ``CoalitionCosts``:
``hrd_value``/``csd_value`` return ``(value, feasible)``, and
``hrd_alloc``/``csd_alloc`` also write the members' fractions into the
per-pair ``beta``/``eta`` and per-device ``alpha``/``gamma`` arrays of an
``Allocation``.  HRD coalitions are described by flattened request pairs:
device ``k`` owns pairs ``pair_off[k] .. pair_off[k] + pair_cnt[k]``.
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


def hrd_closed_form(sd, sb, floor):
    """(eta, value, feasible) of one HRD coalition.

    ``sd`` holds the root downlink costs of every pair, ``sb`` the root
    backhaul costs of the missed pairs and ``floor`` their backhaul floors;
    ``eta`` is the clamped backhaul shares of the missed pairs.
    """
    value = float(sd.sum()) ** 2
    if sb.size == 0:
        return sb, value, True
    eta = np.minimum(1.0, np.maximum(floor, sb / sb.sum()))
    ok = not ((floor > 1.0).any() or eta.sum() > 1.0 + FEAS_TOL)
    return eta, value + float((sb * sb / eta).sum()), ok


def csd_closed_form(su, se):
    """Value of one CSD coalition from its root uplink and compute costs."""
    return float(su.sum()) ** 2 + float(se.sum()) ** 2


def _hrd_blocks(costs, n, members):
    idx, ks = member_pairs(costs, members)
    miss = ~costs.cached[n, idx]
    return idx, idx[miss], costs.sqrt_dl[n, idx], costs.eta_min[n, ks[miss]]


def _fits(costs, n, members):
    return float(costs.task_bytes[members].sum()) <= \
        costs.spare_bytes[n] + BYTES_TOL


def hrd_value(costs, n, members):
    idx, midx, sd, floor = _hrd_blocks(costs, n, members)
    _, value, ok = hrd_closed_form(sd, costs.sqrt_bh[n, midx], floor)
    return value, ok


def hrd_alloc(costs, n, members, beta, eta):
    """Writes every member pair's ``beta`` and ``eta``; a hit's is IDLE_FRAC."""
    idx, midx, sd, floor = _hrd_blocks(costs, n, members)
    eta_miss, value, ok = hrd_closed_form(sd, costs.sqrt_bh[n, midx], floor)
    beta[idx] = shares(sd)
    eta[idx] = IDLE_FRAC
    eta[midx] = eta_miss
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
