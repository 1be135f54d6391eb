"""Device association: best-gain initializer, coalition games, reallocation.

The optimizer state couples a partition (who is served where) with a
feasible allocation and cached per-coalition utilities (total weighted delay
of the coalition's members under the state's allocation).  Because the
objective is separable across SBSs, a candidate move re-evaluates only the
two touched coalitions; a move is accepted when both tentative coalitions
are feasible and their combined utility strictly improves.

Tentative coalitions are valued under the closed-form square-root
allocation, and accepted ones are installed by the matching ``_kernels``
write path.  A move is valued in O(1) from running sums (``CoalitionSums``):
a CSD coalition is worth ``su**2 + se**2``, the squared sums of its root
uplink and compute costs, and an HRD coalition ``sd**2 + sb**2`` (root
downlink costs of all pairs, root backhaul costs of the missed pairs) as
long as no backhaul floor binds.  A floor binds when its device's
floor/root-cost ratio times ``sb`` exceeds 1; where that may happen, the
side is valued from scratch by ``allocation.coalition_value``, which keeps
the clamped closed form's value and feasibility exactly.  The sums of the
two touched coalitions are recomputed from their member lists after every
accepted move, so they never drift, and ``audit_stability`` still values
every move from scratch, which makes it an independent check on them.

The state reallocation step adopts the closed form per coalition only when
it does not worsen the incumbent (the clamped closed form can lose to the
initializer's equal-share split when backhaul floors bind), which keeps
every objective trace nonincreasing.

AMND alternates association and allocation, but one round is all that can
change the state.  The computation-device game (uplink, compute, storage)
and the high-rate-device game (downlink, backhaul) share no constraint, so
they are two independent local searches.  Each ends with a stabilization
sweep that leaves no improving transfer or swap.  The reallocation can only
lower cached coalition values, which raises the ``dv`` of every later move,
so a second round of either game cannot accept a move.  ``run_amnd`` is
therefore one CSD game, one HRD game and one reallocation.
"""

import copy
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from ._kernels import IDLE_FRAC, member_pairs
from .allocation import (CSD, HRD, CoalitionCosts, build_costs,
                         coalition_value, equal_share_hrd)
from .content import DemandProfile
from .delays import BITS_PER_BYTE, Allocation, DelayReport, Partition, \
    objective
from .radio import RateTable, build_rate_table
from .scenario import Scenario

IMPROVE_MARGIN = 1e-12   # strict-improvement threshold, avoids cycling on ties


def default_patience(n_hrd: int, n_csd: int) -> int:
    return 50 * (n_hrd + n_csd)


def default_game_iters(n_hrd: int, n_csd: int) -> int:
    return 100 * (n_hrd + n_csd)


@dataclass
class MoveProposal:
    """One candidate partition update between coalitions c_from and c_to."""

    game: str              # "hrd" or "csd"
    kind: str              # "transfer" or "swap"
    c_from: int
    c_to: int
    md_from: int           # member leaving c_from
    md_to: int | None = None   # member leaving c_to (swaps only)
    dv: float | None = None
    feasible: bool | None = None


class CoalitionSums:
    """Running sums of every coalition's closed form, one tuple per coalition.

    An HRD coalition holds ``(sd, sb, miss, ratio)``: the sum of its pairs'
    root downlink costs, the sum of its missed pairs' root backhaul costs,
    the number of missed pairs, and the largest floor/root-backhaul ratio
    among them.  A CSD coalition holds ``(su, se, load)``: its root uplink
    and compute cost sums and its stored task bytes; the virtual local
    coalition holds ``(local,)``, its summed local delay.  ``hrd_after`` and
    ``csd_after`` value a coalition after one device leaves and/or one
    enters with scalar arithmetic.  Stored sums are only ever computed
    from member lists, by the constructor and ``refresh``.
    """

    def __init__(self, costs: CoalitionCosts, hrd_members, csd_members):
        self.costs = costs
        self.n_sbs = costs.n_sbs
        # Per-device rows as Python floats, which spares the per-proposal
        # arithmetic numpy's scalar overhead.
        self._dl = costs.dev_sqrt_dl.tolist()
        self._bh = costs.dev_sqrt_bh.tolist()
        self._miss = costs.dev_miss.tolist()
        self._ratio = costs.dev_floor_ratio.tolist()
        self._ul = costs.sqrt_ul.tolist()
        self._ed = costs.sqrt_ed.tolist()
        self._bytes = costs.task_bytes.tolist()
        self._room = (costs.spare_bytes + _kernels.BYTES_TOL).tolist()
        self._local = costs.local_delay_w.tolist()
        self.hrd = [self.recompute(HRD, c, m) for c, m in enumerate(hrd_members)]
        self.csd = [self.recompute(CSD, c, m) for c, m in enumerate(csd_members)]

    def copy(self) -> "CoalitionSums":
        other = copy.copy(self)
        other.hrd, other.csd = list(self.hrd), list(self.csd)
        return other

    def recompute(self, game: str, c: int, members) -> tuple:
        """The sums of coalition ``c`` of ``game`` from its member list."""
        costs = self.costs
        arr = np.asarray(members, dtype=np.int64)
        if game == CSD:
            if c == self.n_sbs:
                return (float(costs.local_delay_w[arr].sum()),)
            return (float(costs.sqrt_ul[c, arr].sum()),
                    float(costs.sqrt_ed[c, arr].sum()),
                    float(costs.task_bytes[arr].sum()))
        idx, _ = member_pairs(costs, arr)
        midx = idx[~costs.cached[c, idx]]
        return (float(costs.sqrt_dl[c, idx].sum()),
                float(costs.sqrt_bh[c, midx].sum()), int(midx.size),
                float(costs.dev_floor_ratio[c, arr].max(initial=0.0)))

    def refresh(self, game: str, c: int, members) -> None:
        sums = self.hrd if game == HRD else self.csd
        sums[c] = self.recompute(game, c, members)

    def check(self, hrd_members, csd_members, tol: float) -> None:
        """Assert every stored sum matches recomputation from the members."""
        for game, sums, lists in ((HRD, self.hrd, hrd_members),
                                  (CSD, self.csd, csd_members)):
            for c, members in enumerate(lists):
                ref = self.recompute(game, c, members)
                if any(abs(x - y) > tol * max(1.0, abs(y))
                       for x, y in zip(sums[c], ref)):
                    raise AssertionError(
                        f"stale {game} running sums at coalition {c}: "
                        f"{sums[c]!r} vs {ref!r}")

    def hrd_after(self, c: int, out, inn, size: int):
        """(value, feasible) of HRD coalition ``c`` once device ``out``
        leaves and ``inn`` enters (either may be None), holding ``size``
        members; None when a backhaul floor may bind."""
        if size == 0:
            return 0.0, True
        sd, sb, miss, ratio = self.hrd[c]
        if out is not None:
            sd -= self._dl[c][out]
            sb -= self._bh[c][out]
            miss -= self._miss[c][out]
        if inn is not None:
            sd += self._dl[c][inn]
            sb += self._bh[c][inn]
            miss += self._miss[c][inn]
            ratio = max(ratio, self._ratio[c][inn])
        if miss == 0:
            return sd * sd, True
        # Unclamped shares are sb_p / sb; a floor binds once it exceeds its
        # share.  After a removal the old ratio is an upper bound.
        if ratio * sb > 1.0:
            return None
        return sd * sd + sb * sb, True

    def csd_after(self, c: int, out, inn, size: int):
        """(value, feasible) of CSD coalition ``c`` once device ``out``
        leaves and ``inn`` enters (either may be None), holding ``size``
        members."""
        if size == 0:
            return 0.0, True
        if c == self.n_sbs:
            (local,) = self.csd[c]
            if out is not None:
                local -= self._local[out]
            if inn is not None:
                local += self._local[inn]
            return local, True
        su, se, load = self.csd[c]
        if out is not None:
            su -= self._ul[c][out]
            se -= self._ed[c][out]
            load -= self._bytes[out]
        if inn is not None:
            su += self._ul[c][inn]
            se += self._ed[c][inn]
            load += self._bytes[inn]
        return su * su + se * se, load <= self._room[c]


@dataclass
class GameState:
    """Mutable optimizer state; exposed snapshots satisfy the full audit."""

    scenario: Scenario
    demand: DemandProfile
    table: RateTable
    costs: CoalitionCosts
    partition: Partition
    allocation: Allocation
    hrd_members: list
    csd_members: list          # length n_sbs + 1; last entry is local
    v_hrd: np.ndarray          # (n_sbs,) cached coalition utilities
    v_csd: np.ndarray          # (n_sbs + 1,)
    objective: float
    game_seed: int
    rng_hrd: np.random.Generator
    rng_csd: np.random.Generator
    sums: CoalitionSums
    fallback_hrds: list = field(default_factory=list)
    trace: list = field(default_factory=list)
    accepted_moves: int = 0
    proposals: int = 0
    move_log: list | None = None

    @property
    def n_sbs(self) -> int:
        return self.partition.n_sbs

    def clone(self) -> "GameState":
        """Independent copy; game rngs restart from the stored seed."""
        rng_csd, rng_hrd = _game_rngs(self.game_seed)
        return GameState(
            scenario=self.scenario, demand=self.demand, table=self.table,
            costs=self.costs, partition=self.partition.copy(),
            allocation=self.allocation.copy(),
            hrd_members=[list(c) for c in self.hrd_members],
            csd_members=[list(c) for c in self.csd_members],
            v_hrd=self.v_hrd.copy(), v_csd=self.v_csd.copy(),
            objective=self.objective, game_seed=self.game_seed,
            rng_hrd=rng_hrd, rng_csd=rng_csd, sums=self.sums.copy(),
            fallback_hrds=list(self.fallback_hrds), trace=list(self.trace),
            accepted_moves=self.accepted_moves, proposals=self.proposals,
            move_log=list(self.move_log) if self.move_log is not None else None,
        )

    def report(self) -> DelayReport:
        return objective(self.scenario, self.demand, self.partition,
                         self.allocation, self.table)

    def coalition_value_from_allocation(self, game: str, c: int) -> float:
        """Recompute a coalition's utility straight from the allocation."""
        costs = self.costs
        if game == CSD and c == self.n_sbs:
            return float(costs.local_delay_w[self.csd_members[c]].sum())
        members = np.asarray(self.csd_members[c] if game == CSD
                             else self.hrd_members[c], dtype=np.int64)
        if members.size == 0:
            return 0.0
        if game == CSD:
            alpha = self.allocation.alpha[c, members]
            gamma = self.allocation.gamma[c, members]
            return float((costs.ul_cost[c, members] / alpha).sum()
                         + (costs.ed_cost[c, members] / gamma).sum())
        idx, _ = member_pairs(costs, members)
        beta = self.allocation.beta[c].reshape(-1)[costs.pair_flat[idx]]
        value = float((costs.dl_cost[c, idx] / beta).sum())
        miss = ~costs.cached[c, idx]
        if miss.any():
            eta = self.allocation.eta[c].reshape(-1)[costs.pair_flat[idx[miss]]]
            value += float((costs.bh_cost[c, idx[miss]] / eta).sum())
        return value

    def check(self, tol: float = 1e-9) -> None:
        """Assert running sums, cached utilities and the objective match
        recomputation."""
        self.sums.check(self.hrd_members, self.csd_members, tol)
        for n in range(self.n_sbs):
            for game, cache in ((HRD, self.v_hrd[n]), (CSD, self.v_csd[n])):
                ref = self.coalition_value_from_allocation(game, n)
                if abs(ref - cache) > tol * max(1.0, abs(ref)):
                    raise AssertionError(
                        f"stale {game} utility cache at SBS {n}: "
                        f"{cache!r} vs {ref!r}")
        ref = self.coalition_value_from_allocation(CSD, self.n_sbs)
        if abs(ref - self.v_csd[self.n_sbs]) > tol * max(1.0, abs(ref)):
            raise AssertionError("stale local-coalition utility cache")
        total = float(self.v_hrd.sum() + self.v_csd.sum())
        if abs(total - self.objective) > tol * max(1.0, abs(total)):
            raise AssertionError(f"stale objective: {self.objective!r} vs {total!r}")
        rep = self.report()
        if abs(rep.objective - self.objective) > tol * max(1.0, rep.objective):
            raise AssertionError(
                f"objective disagrees with delay model: "
                f"{self.objective!r} vs {rep.objective!r}")


def _game_rngs(seed: int):
    rng_csd = np.random.default_rng(np.random.SeedSequence([seed, 11]))
    rng_hrd = np.random.default_rng(np.random.SeedSequence([seed, 12]))
    return rng_csd, rng_hrd


# ---------------------------------------------------------------------------
# Initializer: strongest gain + equal shares, then the local/offload choice.
# ---------------------------------------------------------------------------

def abcg_init(scenario: Scenario, demand: DemandProfile, *,
              table: RateTable | None = None,
              costs: CoalitionCosts | None = None,
              local_rule: str = "offload_if_faster",
              seed: int | None = None,
              log_moves: bool = False) -> GameState:
    """Association by best channel gain with equal resource shares.

    High-rate devices pick the strongest-gain SBS among those whose backhaul
    can keep up with the access link at full fraction; when no SBS qualifies
    the device falls back to the overall strongest gain (single association
    is mandatory) and is listed in ``fallback_hrds``, with its access
    fraction capped so the rate ordering still holds.  Computation devices
    pick the strongest gain, then drop to local execution when offloading
    under the equal split is slower or the task input would not fit in
    storage (``local_rule="local_if_slower_and_fits"`` selects the reading
    where a storage overrun keeps the device at the edge instead).
    """
    if local_rule not in ("offload_if_faster", "local_if_slower_and_fits"):
        raise ValueError(f"unknown local_rule {local_rule!r}")
    if table is None:
        table = build_rate_table(scenario)
    if costs is None:
        costs = build_costs(scenario, demand, table)
    n_sbs = scenario.n_sbs
    if n_sbs < 1:
        raise ValueError("no SBS to associate with")
    n_hrd, n_csd = demand.n_hrd, demand.n_csd

    fallback = []
    hrd_sbs = np.zeros(n_hrd, dtype=np.int64)
    for k in range(n_hrd):
        gains = scenario.gain_sbs_hrd[:, k]
        ok = costs.eta_min[:, k] <= 1.0
        if ok.any():
            cand = np.nonzero(ok)[0]
            hrd_sbs[k] = cand[int(np.argmax(gains[cand]))]
        else:
            hrd_sbs[k] = int(np.argmax(gains))
            fallback.append(k)

    csd_sbs = np.zeros(n_csd, dtype=np.int64)
    for k in range(n_csd):
        csd_sbs[k] = int(np.argmax(scenario.gain_sbs_csd[:, k]))

    # Equal uplink/compute split over the gain-based coalitions, then each
    # device compares offloading at that split against local execution.
    size0 = np.bincount(csd_sbs, minlength=n_sbs).astype(float)
    used_bytes = np.zeros(n_sbs)
    for k in range(n_csd):
        n = int(csd_sbs[k])
        share = 1.0 / size0[n]
        in_bits = demand.task_input_bytes[k] * BITS_PER_BYTE
        t_off = (in_bits / (share * table.s_ul[n] * table.r_ul[n, k])
                 + demand.task_cycles[k] / (share * demand.edge_cps[n]))
        t_lc = demand.task_cycles[k] / demand.local_cps[k]
        fits = (used_bytes[n] + costs.task_bytes[k]
                <= costs.spare_bytes[n] + _kernels.BYTES_TOL)
        if local_rule == "offload_if_faster":
            go_local = t_off > t_lc or not fits
        else:
            go_local = t_off > t_lc and fits
        if go_local:
            csd_sbs[k] = n_sbs
        else:
            used_bytes[n] += costs.task_bytes[k]

    partition = Partition(hrd_sbs=hrd_sbs, csd_sbs=csd_sbs, n_sbs=n_sbs)
    allocation = Allocation.idle(n_sbs, n_hrd, n_csd, demand.catalog.n_files)
    hrd_members = partition.hrd_coalitions()
    csd_members = partition.csd_coalitions()

    v_hrd = np.zeros(n_sbs)
    for n in range(n_sbs):
        idx, beta, eta, value = equal_share_hrd(costs, n, hrd_members[n])
        flat = costs.pair_flat[idx]
        allocation.beta[n].reshape(-1)[flat] = beta
        allocation.eta[n].reshape(-1)[flat] = eta
        v_hrd[n] = value

    v_csd = np.zeros(n_sbs + 1)
    for n in range(n_sbs):
        members = np.asarray(csd_members[n], dtype=np.int64)
        if members.size:
            share = 1.0 / size0[n]
            allocation.alpha[n, members] = share
            allocation.gamma[n, members] = share
            v_csd[n] = float((costs.ul_cost[n, members].sum()
                              + costs.ed_cost[n, members].sum()) / share)
    v_csd[n_sbs] = float(costs.local_delay_w[csd_members[n_sbs]].sum())

    game_seed = scenario.params.seed if seed is None else seed
    rng_csd, rng_hrd = _game_rngs(game_seed)
    total = float(v_hrd.sum() + v_csd.sum())
    return GameState(
        scenario=scenario, demand=demand, table=table, costs=costs,
        partition=partition, allocation=allocation,
        hrd_members=hrd_members, csd_members=csd_members,
        v_hrd=v_hrd, v_csd=v_csd, objective=total,
        game_seed=game_seed, rng_hrd=rng_hrd, rng_csd=rng_csd,
        sums=CoalitionSums(costs, hrd_members, csd_members),
        fallback_hrds=fallback, trace=[total],
        move_log=[] if log_moves else None,
    )


# ---------------------------------------------------------------------------
# Coalition game.
# ---------------------------------------------------------------------------

def _member_lists(state: GameState, game: str):
    return state.hrd_members if game == HRD else state.csd_members


def propose_move(state: GameState, game: str,
                 rng: np.random.Generator) -> MoveProposal:
    """Draw one candidate move: two distinct coalitions; a member transfers
    into an empty one, otherwise one member from each side is swapped."""
    lists = _member_lists(state, game)
    n_coal = len(lists)
    if n_coal < 2:
        raise ValueError("need at least two coalitions to propose a move")
    # With one nonempty coalition among C, a blind pair misses it with
    # probability (C-2)/C per draw; the bound keeps failure negligible.
    for _ in range(2048):
        m = int(rng.integers(n_coal))
        n = int(rng.integers(n_coal - 1))
        if n >= m:
            n += 1
        if not lists[m] and not lists[n]:
            continue
        if not lists[m]:
            j = lists[n][int(rng.integers(len(lists[n])))]
            return MoveProposal(game, "transfer", c_from=n, c_to=m, md_from=j)
        if not lists[n]:
            i = lists[m][int(rng.integers(len(lists[m])))]
            return MoveProposal(game, "transfer", c_from=m, c_to=n, md_from=i)
        i = lists[m][int(rng.integers(len(lists[m])))]
        j = lists[n][int(rng.integers(len(lists[n])))]
        return MoveProposal(game, "swap", c_from=m, c_to=n, md_from=i, md_to=j)
    raise RuntimeError("could not sample a nonempty coalition pair")


def _tentative_members(state: GameState, prop: MoveProposal):
    lists = _member_lists(state, prop.game)
    src = [k for k in lists[prop.c_from] if k != prop.md_from]
    dst = list(lists[prop.c_to])
    if prop.kind == "transfer":
        dst.append(prop.md_from)
    else:
        src.append(prop.md_to)
        dst = [k for k in dst if k != prop.md_to]
        dst.append(prop.md_from)
    return src, dst


def _score(state: GameState, prop: MoveProposal, src, dst) -> None:
    """Set ``prop.dv`` and ``prop.feasible`` from the (value, feasible)
    pairs of the two tentative coalitions."""
    cache = state.v_hrd if prop.game == HRD else state.v_csd
    prop.dv = (src[0] + dst[0]) - (cache[prop.c_from] + cache[prop.c_to])
    prop.feasible = src[1] and dst[1]


def _evaluate(state: GameState, prop: MoveProposal) -> None:
    """Value a move from the running sums, or from scratch on the side
    where a backhaul floor may bind."""
    lists = _member_lists(state, prop.game)
    a, b, i, j = prop.c_from, prop.c_to, prop.md_from, prop.md_to
    moved = 1 if j is None else 0
    after = state.sums.hrd_after if prop.game == HRD else state.sums.csd_after
    src = after(a, i, j, len(lists[a]) - moved)
    dst = after(b, j, i, len(lists[b]) + moved)
    if src is None or dst is None:
        t_src, t_dst = _tentative_members(state, prop)
        if src is None:
            src = coalition_value(state.costs, prop.game, a, t_src)
        if dst is None:
            dst = coalition_value(state.costs, prop.game, b, t_dst)
    _score(state, prop, src, dst)


def _evaluate_exactly(state: GameState, prop: MoveProposal) -> None:
    """Value a move from scratch with ``coalition_value``."""
    src, dst = _tentative_members(state, prop)
    _score(state, prop,
           coalition_value(state.costs, prop.game, prop.c_from, src),
           coalition_value(state.costs, prop.game, prop.c_to, dst))


def _write_coalition(state: GameState, game: str, c: int, members) -> float:
    """Install the closed-form allocation of coalition c; returns its value."""
    costs = state.costs
    arr = np.asarray(members, dtype=np.int64)
    if game == CSD and c == state.n_sbs:
        return float(costs.local_delay_w[arr].sum())
    if game == HRD:
        state.allocation.beta[c].fill(IDLE_FRAC)
        state.allocation.eta[c].fill(IDLE_FRAC)
        if arr.size == 0:
            return 0.0
        value, _ = _kernels.hrd_alloc(
            costs, c, arr, state.allocation.beta[c].reshape(-1),
            state.allocation.eta[c].reshape(-1))
    else:
        state.allocation.alpha[c].fill(IDLE_FRAC)
        state.allocation.gamma[c].fill(IDLE_FRAC)
        if arr.size == 0:
            return 0.0
        value, _ = _kernels.csd_alloc(
            costs, c, arr, state.allocation.alpha[c], state.allocation.gamma[c])
    return float(value)


def evaluate_and_apply(state: GameState, prop: MoveProposal) -> bool:
    """Accept the proposal iff both tentative coalitions are feasible and
    their combined utility strictly improves; reject leaves state untouched."""
    _evaluate(state, prop)
    state.proposals += 1
    accepted = bool(prop.feasible) and prop.dv < -IMPROVE_MARGIN
    if accepted:
        src, dst = _tentative_members(state, prop)
        lists = _member_lists(state, prop.game)
        lists[prop.c_from] = sorted(src)
        lists[prop.c_to] = sorted(dst)
        assoc = (state.partition.hrd_sbs if prop.game == HRD
                 else state.partition.csd_sbs)
        assoc[prop.md_from] = prop.c_to
        if prop.md_to is not None:
            assoc[prop.md_to] = prop.c_from
        cache = state.v_hrd if prop.game == HRD else state.v_csd
        cache[prop.c_from] = _write_coalition(state, prop.game, prop.c_from, src)
        cache[prop.c_to] = _write_coalition(state, prop.game, prop.c_to, dst)
        state.sums.refresh(prop.game, prop.c_from, lists[prop.c_from])
        state.sums.refresh(prop.game, prop.c_to, lists[prop.c_to])
        state.objective = float(state.v_hrd.sum() + state.v_csd.sum())
        state.accepted_moves += 1
    if state.move_log is not None:
        state.move_log.append((state.proposals, prop.game, prop.kind,
                               accepted, prop.dv, state.objective))
    return accepted


def _neighbourhood(state: GameState, game: str):
    """Every single transfer, then every same-class swap, of one game.  The
    association is read at each yield, so a consumer that applies a move
    sees the next proposals drawn from the updated partition."""
    n_dev = (state.demand.n_hrd if game == HRD else state.demand.n_csd)
    n_coal = len(_member_lists(state, game))
    assoc = (state.partition.hrd_sbs if game == HRD
             else state.partition.csd_sbs)
    for md in range(n_dev):
        for target in range(n_coal):
            cur = int(assoc[md])
            if target != cur:
                yield MoveProposal(game, "transfer", c_from=cur,
                                   c_to=target, md_from=md)
    for i in range(n_dev):
        for j in range(i + 1, n_dev):
            ci, cj = int(assoc[i]), int(assoc[j])
            if ci != cj:
                yield MoveProposal(game, "swap", c_from=ci, c_to=cj,
                                   md_from=i, md_to=j)


def stabilize_partition(state: GameState, game: str) -> int:
    """Deterministic local search: sweep all transfers and same-class swaps,
    applying improvements, until one full sweep finds none.  Guarantees the
    exhaustive stability audit passes on exit."""
    applied = 0
    improved = True
    while improved:
        improved = False
        for prop in _neighbourhood(state, game):
            if evaluate_and_apply(state, prop):
                improved = True
                applied += 1
    return applied


def run_coalition_game(state: GameState, game: str, t2: int,
                       patience: int | None = None, *,
                       stabilize: bool = True) -> GameState:
    """Random move phase (at most t2 proposals, early stop after ``patience``
    consecutive rejections) followed by the stabilization sweep."""
    if game not in (HRD, CSD):
        raise ValueError(f"unknown game {game!r}")
    if t2 < 1:
        raise ValueError("t2 must be at least 1")
    if patience is None:
        patience = default_patience(state.demand.n_hrd, state.demand.n_csd)
    rng = state.rng_hrd if game == HRD else state.rng_csd
    lists = _member_lists(state, game)
    if len(lists) >= 2 and sum(len(c) for c in lists) >= 1:
        rejections = 0
        for _ in range(t2):
            if rejections >= patience:
                break
            prop = propose_move(state, game, rng)
            if evaluate_and_apply(state, prop):
                rejections = 0
            else:
                rejections += 1
    if stabilize:
        stabilize_partition(state, game)
    return state


def reallocate(state: GameState) -> None:
    """Refresh every coalition with its closed-form allocation, keeping the
    incumbent wherever the clamped closed form is infeasible or worse."""
    for n in range(state.n_sbs):
        for game, cache in ((CSD, state.v_csd), (HRD, state.v_hrd)):
            members = _member_lists(state, game)[n]
            value, ok = coalition_value(state.costs, game, n, members)
            if ok and value <= cache[n]:
                cache[n] = _write_coalition(state, game, n, members)
    state.objective = float(state.v_hrd.sum() + state.v_csd.sum())


def run_amnd(scenario: Scenario, demand: DemandProfile, *,
             t2: int | None = None, patience: int | None = None,
             stabilize: bool = True, table: RateTable | None = None,
             costs: CoalitionCosts | None = None, seed: int | None = None,
             local_rule: str = "offload_if_faster", log_moves: bool = False,
             init_state: GameState | None = None) -> GameState:
    """Best-gain init (or a clone of ``init_state``), then the
    computation-device game, the high-rate-device game and the guarded
    closed-form reallocation.  The returned state's trace holds the
    objective after the initializer and after each of the three stages."""
    if init_state is not None:
        state = init_state.clone()
    else:
        state = abcg_init(scenario, demand, table=table, costs=costs,
                          local_rule=local_rule, seed=seed,
                          log_moves=log_moves)
    if t2 is None:
        t2 = default_game_iters(state.demand.n_hrd, state.demand.n_csd)
    run_coalition_game(state, CSD, t2, patience, stabilize=stabilize)
    state.trace.append(state.objective)
    run_coalition_game(state, HRD, t2, patience, stabilize=stabilize)
    state.trace.append(state.objective)
    reallocate(state)
    state.trace.append(state.objective)
    return state


def audit_stability(state: GameState, margin: float = IMPROVE_MARGIN) -> list:
    """Exhaustively enumerate single transfers and same-class swaps; returns
    the feasible strictly-improving moves (empty list == Nash-stable)."""
    found = []
    for game in (HRD, CSD):
        for prop in _neighbourhood(state, game):
            _evaluate_exactly(state, prop)
            if prop.feasible and prop.dv < -margin:
                found.append(prop)
    return found


def write_move_log(state: GameState, path) -> None:
    """Dump the move log as CSV: proposal index, game, kind, accepted, dv, F."""
    if state.move_log is None:
        raise ValueError("state was created without log_moves=True")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("proposal,game,kind,accepted,dv,objective\n")
        for row in state.move_log:
            it, game, kind, acc, dv, obj = row
            fh.write(f"{it},{game},{kind},{int(acc)},{dv:.12g},{obj:.12g}\n")
