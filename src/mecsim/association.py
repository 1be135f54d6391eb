"""Device association: the best-gain initializer, the coalition games, AMND.

``abcg_init`` associates every device by best channel gain with equal
shares: the baseline, and AMND's starting point.  ``run_amnd`` runs the
computation-device game and then the high-rate-device game, once (its
docstring says why once is enough).  A game (``run_coalition_game``) is a
random phase of drawn moves (``_random_phase``, which samples each accept
under the law of the drawn moves, ``_draw_weights``), on the budget that
the instance fixes (``game_budget``), a deterministic stabilization sweep
(``stabilize_partition``, which visits the moves cyclically from the last
accept and counts each move it judges once), and then the allocation step
of its device class (``reallocate``), which installs each of its
coalitions' closed form.  A move transfers a device into another
coalition or swaps two devices of different coalitions; it is accepted
iff both tentative coalitions are feasible and their total weighted delay
falls by more than its margin (``MARGIN_REL``).  Every value is
one float, +inf for an infeasible coalition (``_kernels``), so that test
is one comparison: a move with an infeasible side has ``dv`` +inf.

The state (``GameState``) couples the partition, the only record of the
association (the member lists are read from it), with a feasible
allocation and every coalition's cached closed-form value.  The objective
is separable across SBSs, so a move touches two coalitions, which are
valued from running sums (``CoalitionSums``), many moves at a time
(``_Block``), with the moves that cannot win screened off unvalued
(``_Block.screen``).  The sums are the game's, not the state's: each game
builds its class's sums once, from the member lists, and passes them to
both phases.  One step (``_commit``) counts a block's winner, applies it to
the partition with the block's own valuation and logs it; it updates the
block's running sums and the cached values and writes no fractions.
Each phase appends one row of its work to the state (``_log_phase``).
``audit_stability`` checks Nash stability with the same valuer, on sums it
builds the same way.  ``audit_solve`` judges a solve, for ``mecsim audit``
and the tests, in one record (``SolveAudit``) that states the tolerances
(``TRACE_TOL``, ``GAP_TOL``) and counts the failures.  The tests draw,
value and commit one proposal at a time (``tests/reference.py``, a block
of one row through ``_commit``): the reference that the stabilization
sweep matches to the last bit, and the random phase in law.
"""

import functools
import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from . import _kernels
from ._kernels import IDLE_FRAC, hrd_value
from .allocation import CSD, HRD, CoalitionCosts, build_costs, \
    equal_split, oracle_solve_p3
from .content import DemandProfile
from .delays import Allocation, DelayReport, Partition, audit_constraints, \
    objective
from .radio import RateTable, build_rate_table
from .scenario import Scenario

IMPROVE_MARGIN = 1e-12   # strict-improvement threshold, avoids cycling on ties
# The audit's tolerances (``audit_solve``): the largest rise of the
# objective trace from one stage to the next, and the largest size of a
# coalition's relative gap to its dual bound (``GameState.optimality_gaps``).
TRACE_TOL = 1e-12
GAP_TOL = 1e-6
# Relative allowance of the screen (``_Block.screen``) for the rounding of
# the running sums and of the exact valuation.
SLACK = 1e-8
# A move's gain must exceed ``IMPROVE_MARGIN`` and ``MARGIN_REL`` times its
# two coalitions' old values: 2 * 74 u, the first-order rounding bound of
# its ``dv`` (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd
# ed., 2002, 3.1 and 4.2).  A root sum takes 33 additions in numpy's
# pairwise order up to 2**16 terms (``_kernels._sum``) and 2 more in
# ``CoalitionSums.after``; a value squares and adds two such sums; and
# ``dv`` adds two values less two.
MARGIN_REL = 2 * 74 * 2.0 ** -53
# Rows of the first block of a stabilization sweep (``stabilize_partition``).
SWEEP_CHUNK = 2048


def game_budget(n_hrd: int, n_csd: int) -> tuple[int, int]:
    """``(t2, patience)`` of each game's random phase on an instance of
    ``n_hrd`` + ``n_csd`` devices: at most ``t2`` proposals, stopping after
    ``patience`` consecutive rejections."""
    n = n_hrd + n_csd
    return 100 * n, 50 * n


class CoalitionSums:
    """Running sums of one game's closed form, one row per coalition, from
    which a move is valued in O(1).

    A CSD coalition is worth ``su**2 + se**2``, the squared sums of its
    members' root uplink and root compute costs, while its stored task
    bytes fit in the SBS's spare storage, and +inf once they overrun it;
    the virtual local coalition, row ``n_sbs``, is worth its members' local
    delays.  Each row holds only its own kind of terms: a device's local
    delay sits in the local row alone, at 0 in every SBS row, whose root
    costs sit at 0 in the local row, and the local row's storage room is
    +inf.  So ``after`` values every CSD side as ``su*su + se*se + local``
    where ``load <= room``, and +inf elsewhere, with no case for the local
    row: each term it adds is an exact 0.0, which changes no bit.  An HRD
    coalition is always feasible, and is worth ``sd**2 + sb**2`` (root
    downlink costs of all its pairs, root backhaul costs of its missed
    pairs) as long as no rate ordering binds, which holds iff its largest
    device ratio ``rho * sqrt(D) / sqrt(B)`` over its missed pairs, times
    ``sb``, is at most ``sd`` (``_kernels.hrd_closed_form``).  The sums
    carry each coalition's largest ratio, so ``after`` flags in O(1) a side
    where an ordering may bind (the floor flag), and leaves its exact value
    to ``_kernels.hrd_value`` (``_Block.value``).  After a removal the
    stored ratio is only an upper bound, so a flag may be spurious but is
    never missed.

    ``size`` holds each coalition's member count, and ``sums`` its
    additive sums, one column each: ``(sd, sb, miss)`` for HRD, with
    ``miss`` the number of missed pairs (a small count, exact as a float),
    and ``(su, se, load, local)`` for CSD, with ``load`` the stored task
    bytes and ``local`` the local delays, 0 outside row ``n_sbs``.
    ``terms`` holds every device's terms at every coalition, in row ``c *
    stride + k`` for device ``k`` at coalition ``c``, and ``floor_ratio``
    its ratio in the same rows; ``ratio`` holds each coalition's largest.
    Device ``none``, one past the last, has zero terms and ratio: it is a
    transfer's missing partner, so ``after`` values transfers and swaps
    alike, without masks.

    Stored sums change only through ``refresh``, which recomputes a row
    from a member list in one pass over the kernels' per-SBS lists
    (``_kernels.hrd_summary``/``csd_summary``) and returns the coalition's
    closed-form value from the same pass: the sums never drift, and the
    value is the one the write path installs for that member order.
    """

    def __init__(self, costs: CoalitionCosts, game: str, lists):
        self.costs, self.game, self.n_sbs = costs, game, costs.n_sbs
        n_coal = len(lists)
        if game == HRD:
            self.summary = _kernels.hrd_summary
            terms = (costs.dev_sqrt_dl, costs.dev_sqrt_bh, costs.dev_miss)
        else:
            self.summary = _kernels.csd_summary
            pad = np.zeros((1, costs.n_csd))
            terms = (np.vstack((costs.sqrt_ul, pad)),
                     np.vstack((costs.sqrt_ed, pad)),
                     np.broadcast_to(costs.task_bytes, (n_coal, costs.n_csd)),
                     np.vstack((np.zeros((self.n_sbs, costs.n_csd)),
                                costs.local_delay_w)))
            self.room = np.append(costs.rows.room, np.inf)
        self.none = terms[0].shape[1]
        self.stride = self.none + 1
        table = np.zeros((n_coal, self.stride, len(terms)))
        table[:, :self.none] = np.stack(terms, axis=-1)
        self.terms = table.reshape(-1, len(terms))
        if game == HRD:
            ratio = np.zeros((n_coal, self.stride))
            ratio[:, :self.none] = costs.dev_floor_ratio
            self.floor_ratio = ratio.ravel()
        self.size = np.zeros(n_coal, dtype=np.int64)
        self.sums = np.zeros((n_coal, len(terms)))
        self.ratio = np.zeros(n_coal)
        for c, members in enumerate(lists):
            self.refresh(c, members)

    def refresh(self, c: int, members):
        """Recompute row ``c`` from the member list ``members``; returns the
        coalition's closed-form value."""
        self.size[c] = len(members)
        self.sums[c], self.ratio[c], value = self.summary(self.costs, c,
                                                          members)
        return value

    def after(self, c, out, inn, size):
        """(value, floor) of coalitions ``c`` once device ``out`` leaves
        and ``inn`` enters, holding ``size`` members, elementwise; ``none``
        in either place moves nothing.  ``floor`` is the floor flag, ``ratio
        * sb > sd``; no ordering binds on a CSD side, so there it is None.
        A CSD side is valued by one expression, the local row included (the
        class docstring says why), and is +inf where its stored bytes
        overrun its room."""
        row = c * self.stride
        enter = row + inn
        x = (self.sums.take(c, axis=0) - self.terms.take(row + out, axis=0)
             + self.terms.take(enter, axis=0))
        empty = size == 0
        if self.game == HRD:
            sd, sb, miss = x.T
            # After a removal the old ratio is an upper bound.
            ratio = np.maximum(self.ratio.take(c), self.floor_ratio.take(enter))
            sd2 = sd * sd
            value = np.where(miss == 0, sd2, sd2 + sb * sb)
            # The counts are exact, so an empty side has ``miss == 0``.
            floor = (miss != 0) & (ratio * sb > sd)
            return np.where(empty, 0.0, value), floor
        su, se, load, local = x.T
        value = np.where(load <= self.room.take(c), su * su + se * se + local,
                         np.inf)
        return np.where(empty, 0.0, value), None


@dataclass
class GameState:
    """Mutable optimizer state; exposed snapshots satisfy the full audit
    (``audit_solve``).
    The member lists are read from ``partition``, ``fallback_hrds`` from
    ``costs``."""

    scenario: Scenario
    demand: DemandProfile
    table: RateTable
    costs: CoalitionCosts
    partition: Partition
    allocation: Allocation
    v_hrd: np.ndarray          # (n_sbs,) cached coalition utilities
    v_csd: np.ndarray          # (n_sbs + 1,)
    rng_hrd: np.random.Generator
    rng_csd: np.random.Generator
    trace: list = field(default_factory=list)
    proposals: int = 0
    # One row per accepted move (``_commit``); ``write_move_log`` dumps it.
    move_log: list = field(default_factory=list)
    # Each game's work, two rows per game (``_log_phase``); none at ABCG.
    phases: list = field(default_factory=list)

    @property
    def n_sbs(self) -> int:
        return self.partition.n_sbs

    @property
    def hrd_members(self) -> list:
        return self.partition.coalitions(HRD)

    @property
    def csd_members(self) -> list:
        return self.partition.coalitions(CSD)

    @property
    def fallback_hrds(self) -> list:
        return np.flatnonzero(~(self.costs.eta_min <= 1.0).any(0)).tolist()

    @property
    def accepted_moves(self) -> int:
        return len(self.move_log)

    @property
    def objective(self) -> float:
        """F, the sum of the cached coalition values."""
        return float(self.v_hrd.sum() + self.v_csd.sum())

    def clone(self) -> "GameState":
        """Independent copy; its generators restart from the scenario's
        seed."""
        rng_csd, rng_hrd = _game_rngs(self.scenario.params.seed)
        return replace(
            self, partition=self.partition.copy(),
            allocation=self.allocation.copy(), v_hrd=self.v_hrd.copy(),
            v_csd=self.v_csd.copy(), rng_hrd=rng_hrd, rng_csd=rng_csd,
            trace=list(self.trace), move_log=list(self.move_log),
            phases=list(self.phases))

    def report(self) -> DelayReport:
        return objective(self.demand, self.partition, self.allocation,
                         self.table)

    def installed_delays(self, rep: DelayReport) -> tuple:
        """``(hrd, csd)``: each coalition's weighted delay under the delay
        model ``rep`` (``report``), summed over its members' installed
        fractions; the CSD array ends with the local coalition."""
        demand, part = self.demand, self.partition
        return (np.bincount(part.hrd_sbs[rep.pair_k],
                            weights=demand.hrd_weight[rep.pair_k]
                            * rep.t_hr_pair, minlength=self.n_sbs),
                np.bincount(part.csd_sbs, weights=demand.csd_weight * rep.t_cs,
                            minlength=self.n_sbs + 1))

    def optimality_gaps(self) -> np.ndarray:
        """The relative gap of each nonempty coalition at an SBS (per SBS,
        HRD then CSD) between its installed delay (``installed_delays``)
        and a certified lower bound on its optimum
        (``allocation.oracle_solve_p3``); +inf where its members' task
        inputs overrun the SBS's spare storage.  A gap near 0 proves the
        installed allocation optimal; ``audit_solve`` holds the array and
        judges each finite gap by its size against ``GAP_TOL``."""
        delay_hrd, delay_csd = self.installed_delays(self.report())
        hrd, csd = self.hrd_members, self.csd_members
        gaps = []
        for n in range(self.n_sbs):
            for game, members, delay in ((HRD, hrd[n], delay_hrd[n]),
                                         (CSD, csd[n], delay_csd[n])):
                if members:
                    sol = oracle_solve_p3(self.costs, n, members, game)
                    bound = sol["objective"]
                    gaps.append((delay - bound) / max(1e-12, bound)
                                if sol["feasible"] else math.inf)
        return np.array(gaps)


def _game_rngs(seed: int):
    rng_csd = np.random.default_rng(np.random.SeedSequence([seed, 11]))
    rng_hrd = np.random.default_rng(np.random.SeedSequence([seed, 12]))
    return rng_csd, rng_hrd


# ---------------------------------------------------------------------------
# Initializer: strongest gain + equal shares, then the local/offload choice.
# ---------------------------------------------------------------------------

def abcg_init(scenario: Scenario, demand: DemandProfile) -> GameState:
    """Association by best channel gain with equal resource shares.

    High-rate devices pick the strongest-gain SBS among those whose backhaul
    can keep up with the access link at full fraction (``eta_min <= 1``).
    That filter is the baseline's association rule, not a feasibility rule:
    every coalition has a feasible allocation.  When no SBS passes it the
    device falls back to the overall strongest gain (single association is
    mandatory) and is listed in ``fallback_hrds``, with its access fraction
    capped so the rate ordering still holds.  Computation devices
    pick the strongest gain, then drop to local execution when offloading
    under the equal split is slower or the task input would not fit in
    storage.  The game generators are seeded from the scenario's seed.

    The gain picks (masked argmaxes, with ``np.argmax``'s first-maximum
    tie rule) and the equal split (``allocation.equal_split``) are array
    operations, and every delay, the offload and local ones the choice
    compares included, is the delay model's, from one call of
    ``delays.objective``; only the storage pass goes device by device, in
    device order, since each device's room depends on the devices before
    it.  A dropped device's shares fall to IDLE_FRAC and the others keep
    theirs, so the cached values are the delay model's to the last bit.
    """
    table = build_rate_table(scenario)
    costs = build_costs(demand, table)
    n_sbs = scenario.n_sbs
    if n_sbs < 1:
        raise ValueError("no SBS to associate with")

    # Each HRD's strongest SBS among those passing the filter, else its
    # strongest.
    gains = scenario.gain_sbs_hrd
    ok = costs.eta_min <= 1.0
    hrd_sbs = np.where(ok.any(axis=0),
                       np.argmax(np.where(ok, gains, -np.inf), axis=0),
                       np.argmax(gains, axis=0)).astype(np.int64)
    csd_sbs = np.argmax(scenario.gain_sbs_csd, axis=0).astype(np.int64)
    partition = Partition(hrd_sbs=hrd_sbs, csd_sbs=csd_sbs, n_sbs=n_sbs)
    allocation = equal_split(costs, partition)
    rep = objective(demand, partition, allocation, table)

    # Each computation device compares offloading at the equal split against
    # local execution and takes storage, in device order, only if
    # offloading is not slower; a drop writes ``partition.csd_sbs`` itself.
    room = costs.rows.room
    used_bytes = [0.0] * n_sbs
    task_bytes = costs.task_bytes.tolist()
    for k, (n, slower) in enumerate(zip(csd_sbs.tolist(),
                                        (rep.t_cs > rep.t_lc).tolist())):
        if slower or not used_bytes[n] + task_bytes[k] <= room[n]:
            csd_sbs[k] = n_sbs
        else:
            used_bytes[n] += task_bytes[k]
    local = csd_sbs == n_sbs
    allocation.alpha[local] = allocation.gamma[local] = IDLE_FRAC
    rep.t_cs[local] = rep.t_lc[local]

    rng_csd, rng_hrd = _game_rngs(scenario.params.seed)
    state = GameState(
        scenario=scenario, demand=demand, table=table, costs=costs,
        partition=partition, allocation=allocation, v_hrd=None, v_csd=None,
        rng_hrd=rng_hrd, rng_csd=rng_csd)
    state.v_hrd, state.v_csd = state.installed_delays(rep)
    state.trace.append(state.objective)
    return state


# ---------------------------------------------------------------------------
# Coalition game.
# ---------------------------------------------------------------------------

def _member_lists(state: GameState, game: str):
    return state.hrd_members if game == HRD else state.csd_members


def _association(state: GameState, game: str) -> np.ndarray:
    return state.partition.hrd_sbs if game == HRD else state.partition.csd_sbs


def _tentative_members(lists, a: int, b: int, i: int, j: int | None):
    """The member lists of coalitions ``a`` and ``b`` once device ``i``
    moves from ``a`` to ``b`` and, in a swap, ``j`` from ``b`` to ``a``."""
    src = [k for k in lists[a] if k != i]
    dst = list(lists[b])
    if j is not None:
        src.append(j)
        dst = [k for k in dst if k != j]
    dst.append(i)
    return src, dst


def _write_coalition(state: GameState, game: str, c: int, members) -> float:
    """Install the closed-form allocation of coalition c into the state's
    allocation; returns its value, the one ``CoalitionSums.refresh`` gives
    for the same member list, to the last bit.  Every member's fractions
    are written, so a device that moved carries none over from its old
    coalition."""
    alloc, costs = state.allocation, state.costs
    if game == HRD:
        return _kernels.hrd_alloc(costs, c, members, alloc.beta, alloc.eta)
    return _kernels.csd_alloc(costs, c, members, alloc.alpha, alloc.gamma)


class _Hood(NamedTuple):
    """``_neighbourhood``'s arrays."""

    swap: np.ndarray
    rows: np.ndarray
    coalitions: np.ndarray


def _move_rows(swap, i, j):
    """The rows of moves ``(swap, i, j)`` that no partition changes, stacked
    for one ``take``: the size steps ``(s, -s)`` of the coalitions that
    ``i`` leaves and enters (``s`` is -1 in a transfer, 0 in a swap), then
    the moving devices ``(i, j, i)``: ``(i, j)`` leave and ``(j, i)``
    enter."""
    step = swap - 1
    return np.stack((step, -step, i, j, i))


@functools.lru_cache(maxsize=8)
def _neighbourhood(n_dev: int, n_coal: int) -> _Hood:
    """Every single transfer, then every same-class swap, of a game with
    ``n_dev`` devices and ``n_coal`` coalitions, one entry per position:
    transfers device-major and target-minor, then swaps with ``i < j``,
    row-major.  ``swap`` flags the swaps; ``rows`` holds ``_move_rows`` of
    the moving device ``i`` and the device ``j`` swapped with it
    (``n_dev``, the running sums' ``none``, in a transfer), then one more
    row: where the coalition that ``i`` enters is found in the association
    followed by ``coalitions`` (``arange(n_coal)``), at ``j`` in a swap and
    at ``n_dev + t`` in a transfer into coalition ``t``.  Its
    last two rows thus give both ends of every move in one ``take``
    (``_neighbourhood_block``).  Built once per shape; the arrays are
    shared, so they are read-only."""
    dev, target = np.divmod(np.arange(n_dev * n_coal), n_coal)
    si, sj = np.triu_indices(n_dev, 1)
    i = np.concatenate((dev, si))
    j = np.concatenate((np.full_like(dev, n_dev), sj))
    target = np.concatenate((target, np.zeros_like(si)))
    swap = np.arange(i.size) >= dev.size
    rows = np.vstack((_move_rows(swap, i, j),
                      np.where(swap, j, n_dev + target)))
    hood = _Hood(swap, rows, np.arange(n_coal))
    for x in hood:
        x.flags.writeable = False
    return hood


class _Block:
    """Proposals of one game, valued together at the state's current
    partition.

    Entry ``q`` of the arrays ``swap`` (a swap, or else a transfer), ``a``
    and ``b`` (the coalitions that device ``i`` leaves and enters) and
    ``j`` (the device that leaves ``b`` in a swap, ``sums.none`` in a
    transfer) is one proposal.  The constructor takes ``swap``, the
    proposals' ``_move_rows`` as ``rows`` (``i`` and ``j`` are its rows 2
    and 3) and ``ends``, the rows ``(a, b)``.  The partition changes only
    on an accepted move, so the proposals up to the next accept can be
    valued as one block, from the running sums ``sums``: both sides of
    every proposal in one ``CoalitionSums.after`` call, each with the float
    operations, in their order, of a block of one, so a proposal's value
    does not depend on the block that holds it, to the last bit.  A block
    takes a fixed number of numpy calls, whatever its length: ``rows``
    holds the leaving devices ``(i, j)`` and the entering ones ``(j, i)``
    as overlapping views, and one ``take`` of the cached values gives both
    sides' old values.

    ``dv`` is +inf where a side is infeasible, so ``dv < cut`` (the
    margin, ``MARGIN_REL``) is the whole acceptance test.  An HRD block
    has ``floor``, each proposal's floor flag, and ``floors``, each
    side's, sources first; a CSD block has neither (``floor`` is None),
    since no ordering binds on a CSD side.  ``value`` reads a flagged
    proposal's two coalitions from ``assoc``, the partition's association
    of the block's game.

    ``improving`` finds every proposal that would be accepted.  A winner
    is applied with the block's own valuation (``_commit``), so no move is
    valued twice: the stabilization sweep applies the first and values the
    proposals after it again, at the new partition, in a new block; the
    random phase draws one among them all; the stability audit reports
    them all.
    """

    # The flagged proposals that ``improving`` valued exactly.
    exact = 0

    def __init__(self, state: GameState, sums: CoalitionSums, swap, rows,
                 ends):
        self.game, self.sums = sums.game, sums
        self.swap, self.ends = swap, ends
        self.a, self.b = ends
        self.i, self.j = rows[2], rows[3]
        self.assoc = _association(state, sums.game)
        self.cache = state.v_hrd if sums.game == HRD else state.v_csd
        # Sources first, then destinations.
        n, sides = swap.size, ends.reshape(-1)
        moved = rows[2:5].reshape(-1)
        value, self.floors = sums.after(
            sides, moved[:2 * n], moved[n:],
            sums.size.take(sides) + rows[:2].reshape(-1))
        self.v_src, self.v_dst = value[:n], value[n:]
        self.floor = None if self.floors is None else \
            self.floors[:n] | self.floors[n:]
        old = self.cache.take(ends)
        held = old[0] + old[1]
        self.dv = (self.v_src + self.v_dst) - held
        self.cut = np.minimum(-MARGIN_REL * held, -IMPROVE_MARGIN)

    def __len__(self) -> int:
        return self.a.size

    def value(self, q: int) -> float:
        """``dv`` of proposal ``q``, exact: a side where a rate ordering
        may bind is valued once by ``_kernels.hrd_value`` over its
        tentative members, and the new ``dv`` clears the flag."""
        if self.floor is None or not self.floor[q]:
            return self.dv.item(q)
        n, a, b = len(self), self.a.item(q), self.b.item(q)
        members = {c: (self.assoc == c).nonzero()[0].tolist()
                   for c in (a, b)}
        t_src, t_dst = _tentative_members(
            members, a, b, self.i.item(q),
            self.j.item(q) if self.swap[q] else None)
        src = (hrd_value(self.sums.costs, a, t_src) if self.floors[q]
               else self.v_src.item(q))
        dst = (hrd_value(self.sums.costs, b, t_dst) if self.floors[n + q]
               else self.v_dst.item(q))
        self.dv[q] = (src + dst) - (self.cache.item(a) + self.cache.item(b))
        self.floor[q] = False
        return self.dv.item(q)

    def screen(self):
        """The flagged proposals of an HRD block that may still be
        accepted, as an index list; the other flagged ones cannot be.

        A flagged side's exact value solves the problem whose relaxation,
        without the rate orderings, is worth ``sd**2 + sb**2`` (the
        block's value), so it is worth at least that, up to rounding.  A
        proposal whose relaxed ``dv`` stays at or above ``cut`` after
        ``SLACK`` times its two sides' values is taken off is therefore
        not improving."""
        wins = self.dv - SLACK * (self.v_src + self.v_dst) < self.cut
        return (self.floor & wins).nonzero()[0].tolist()

    def improving(self) -> np.ndarray:
        """Which proposals would be accepted (``dv < cut``), as a mask;
        every flagged proposal that ``screen`` passes is valued by
        ``value``, and no other."""
        if self.floor is None or not self.floor.any():
            return self.dv < self.cut
        contenders = self.screen()
        self.exact = len(contenders)
        for q in contenders:
            self.value(q)
        return ~self.floor & (self.dv < self.cut)


def _neighbourhood_block(state: GameState, sums: CoalitionSums, hood: _Hood,
                        start: int, stop: int | None = None, *,
                        drawable: bool = False):
    """The ``_Block`` of the positions ``start:stop`` of ``hood``
    (``_neighbourhood``) at the current partition, skipping a transfer
    into the device's own coalition and a swap within one coalition, and
    the positions it holds.  With ``drawable``, only the moves a random
    phase draws (``_draw_weights``) are kept: swaps, and transfers into
    empty coalitions.  A ``stop`` past the last move, by at most one lap,
    wraps round to the first (a cycle of the stabilization sweep): a
    position ``q`` stands for the move at ``q`` modulo the number of
    moves."""
    ext = np.concatenate((_association(state, sums.game), hood.coalitions))
    if stop is not None and stop > hood.swap.size:
        targets = hood.rows[4:].take(np.arange(start, stop), axis=1,
                                     mode="wrap")
    else:
        targets = hood.rows[4:, start:stop]
    ends = ext.take(targets)
    keep = ends[0] != ends[1]
    if drawable:
        keep &= hood.swap[start:stop] | (sums.size.take(ends[1]) == 0)
    at = keep.nonzero()[0]
    rest = at + start
    return _Block(state, sums, hood.swap.take(rest, mode="wrap"),
                  hood.rows.take(rest, axis=1, mode="wrap"),
                  ends.take(at, axis=1)), rest


def _commit(state: GameState, block: _Block, k: int) -> None:
    """Count proposal ``k`` of ``block``, a winner, and apply it with the
    block's own ``dv``, testing nothing again: write the partition, update
    the block's running sums and the cached values of its two coalitions
    from one pass over each one's members, read back from the partition in
    ascending order, and log the move.  It writes no fractions: the game's
    allocation step (``reallocate``) installs every coalition once."""
    state.proposals += 1
    game, swap = block.game, block.swap.item(k)
    a, b, i = block.a.item(k), block.b.item(k), block.i.item(k)
    j = block.j.item(k) if swap else None
    assoc = block.assoc
    assoc[i] = b
    if j is not None:
        assoc[j] = a
    for c in (a, b):
        members = (assoc == c).nonzero()[0].tolist()
        block.cache[c] = block.sums.refresh(c, members)
    state.move_log.append((state.proposals, game,
                           "swap" if swap else "transfer", block.dv.item(k),
                           state.objective))


def _log_phase(state: GameState, game: str, phase: str, start: tuple,
               blocks: int = 0, rows: int = 0, exact: int = 0) -> None:
    """Append the row of one phase of ``game`` to ``state.phases``: ``(game,
    phase, proposals, accepts, blocks, rows, exact)``.  ``start`` is
    ``(proposals, accepted_moves)`` at the phase's start, so its proposals
    and accepts are the state's own counts, taken across the phase;
    ``blocks`` and ``rows`` are the ``_Block``s it valued and their
    proposals, and ``exact`` the flagged proposals that ``_Block.improving``
    valued exactly."""
    state.phases.append((game, phase, state.proposals - start[0],
                         state.accepted_moves - start[1], blocks, rows, exact))


def stabilize_partition(state: GameState, game: str,
                        sums: CoalitionSums) -> None:
    """Deterministic local search: sweep all transfers and same-class swaps,
    applying improvements, until a whole cycle finds none.  Guarantees the
    exhaustive stability audit passes on exit.  ``sums`` are the running
    sums of the game ``game`` names (``run_coalition_game``), kept current
    by ``_commit``.

    A sweep visits the moves in ``_neighbourhood``'s order, cyclically:
    after an accept at position ``p`` it values ``p + 1`` to the last move
    and then the first to ``p``, at the new partition, and it stops after a
    whole cycle without a winner.  Between two accepts the partition is
    fixed, so a cycle is valued in ``_Block``s (``_neighbourhood_block``,
    whose positions wrap round) of ``SWEEP_CHUNK`` positions, doubling
    while a block holds no winner and back to ``SWEEP_CHUNK`` after an
    accept, so that a sweep values the contenders of a few blocks past its
    accept, not of the whole rest.  The block's proposals before its first
    winner (``_Block.improving``) count as rejections, and the winner is
    applied with the block's valuation (``_commit``).  A move's value does
    not depend on its block, so the chunks change no result.

    ``proposals`` counts each move the sweep judges once: the moves up to
    and including each accept, in the cyclic order, then the final cycle
    without a winner.  The sweep fills the second row of its game in
    ``state.phases`` (``_log_phase``, phase ``"stabilize"``).
    """
    hood = _neighbourhood(sums.none, sums.size.size)
    n = hood.swap.size
    start = state.proposals, state.accepted_moves
    blocks = rows = exact = 0
    pos, end, chunk = 0, n, SWEEP_CHUNK
    while pos < end:
        block, at = _neighbourhood_block(state, sums, hood, pos,
                                         min(pos + chunk, end))
        wins = block.improving().nonzero()[0]
        blocks, rows = blocks + 1, rows + len(block)
        exact += block.exact
        if not wins.size:
            state.proposals += len(block)
            pos, chunk = pos + chunk, 2 * chunk
            continue
        first = wins.item(0)
        state.proposals += first
        _commit(state, block, first)
        pos = at.item(first) % n + 1
        end, chunk = pos + n, SWEEP_CHUNK
    _log_phase(state, sums.game, "stabilize", start, blocks, rows, exact)


def _draw_weights(size: np.ndarray, a: np.ndarray, b: np.ndarray):
    """The law of a drawn move: the probability of drawing the move of a
    device from coalition ``a`` into coalition ``b``, elementwise, at
    coalition sizes ``size``.

    A draw takes an ordered pair of distinct coalitions, uniform among the
    ``H = C(C-1) - E(E-1)`` pairs of C coalitions (E of them empty) that
    hold a member, then a uniform member of each nonempty side: a swap of
    the two members, or, where one side is empty, a transfer of the member
    into it.  The drawable moves are thus the swaps between two
    coalitions and the transfers into an empty one.  Two ordered pairs
    pick a move's coalitions, so a swap has probability ``2 / (H |a| |b|)``
    and a transfer ``2 / (H |a|)``.  The tests draw this law one move at a
    time (``tests/reference.py``)."""
    empty = int(np.count_nonzero(size == 0))
    held = size.size * (size.size - 1) - empty * (empty - 1)
    return 2.0 / (held * size.take(a) * np.maximum(size.take(b), 1))


def _random_phase(state: GameState, sums: CoalitionSums, t2: int,
                  patience: int) -> None:
    """At most ``t2`` proposals of the game of the running sums ``sums``,
    stopping after ``patience`` consecutive rejections, each drawn by the
    law of ``_draw_weights`` and accepted iff its ``dv`` falls below its
    ``_Block``'s ``cut``: equal in law to a loop that draws and judges one
    proposal at a time (``tests/reference.py``), not bit-equal to it.  A
    game passes the budget ``game_budget`` fixes; the tests pass others.

    A rejected proposal leaves the partition as it was, so the proposals up
    to the next accept are independent draws from the same drawable moves,
    move ``k`` with probability ``q_k``.  The phase values each of them
    once per partition (``_neighbourhood_block`` with ``drawable``, then
    ``_Block.improving``; a swap, drawn from either side, is one row, as it
    is valued to the same bits from both) instead of drawing the proposals
    one by one: the number of rejections before the next accept is
    geometric, with success probability ``p``, the sum of ``q`` over the
    winning moves (1 exactly where every drawable move wins), and the
    accepted move is a winner drawn with probability in proportion to its
    ``q`` (the n-fold way: Bortz, Kalos and Lebowitz, J. Comput. Phys.
    17:10-18, 1975), so ``q`` is computed at the winners only.  A wait that
    reaches the budget left, ``min(t2 - done, patience)``, counts as that
    many rejections and ends the phase, as it always does at a partition
    without a winner.  Both draws come from the game's generator.

    The rejections are counted, never drawn; the winner is counted,
    applied and logged by ``_commit``, so the move log holds the accepted
    moves only.  The phase fills the first row of its game in
    ``state.phases`` (``_log_phase``, phase ``"random"``).
    """
    rng = state.rng_hrd if sums.game == HRD else state.rng_csd
    hood = _neighbourhood(sums.none, sums.size.size)
    start = state.proposals, state.accepted_moves
    done = blocks = rows = exact = 0
    while (budget := min(t2 - done, patience)) > 0:
        block, _ = _neighbourhood_block(state, sums, hood, 0, drawable=True)
        wins = block.improving().nonzero()[0]
        blocks, rows = blocks + 1, rows + len(block)
        exact += block.exact
        if not wins.size:
            state.proposals += budget
            break
        cum = np.cumsum(_draw_weights(sums.size,
                                      *block.ends.take(wins, axis=1)))
        p = 1.0 if wins.size == len(block) else cum[-1]
        wait = min(int(rng.geometric(p)) - 1, budget)
        state.proposals += wait
        if wait == budget:
            break
        pick = np.searchsorted(cum, rng.random() * cum[-1], side="right")
        _commit(state, block, wins.item(min(pick, wins.size - 1)))
        done += wait + 1
    _log_phase(state, sums.game, "random", start, blocks, rows, exact)


def run_coalition_game(state: GameState, game: str) -> GameState:
    """Random move phase, on the budget ``game_budget`` fixes for the
    instance, followed by the stabilization sweep, which always runs, so
    the game ends Nash-stable, and then by the allocation step of its class
    (``reallocate``), so the game leaves a fully installed state.  Both
    phases value moves from the game's running sums, built here once from
    the member lists read from the partition, and apply a move through
    ``_commit``, which counts it, refreshes the sums, appends it to the
    move log and installs nothing.  Each phase appends its row of work to
    ``state.phases``; a random phase that cannot move a device (fewer than
    two coalitions, or no member) does not run, and its row holds zeros.
    """
    if game not in (HRD, CSD):
        raise ValueError(f"unknown game {game!r}")
    sums = CoalitionSums(state.costs, game, _member_lists(state, game))
    if sums.size.size >= 2 and sums.size.any():
        _random_phase(state, sums,
                      *game_budget(state.demand.n_hrd, state.demand.n_csd))
    else:
        _log_phase(state, game, "random",
                   (state.proposals, state.accepted_moves))
    stabilize_partition(state, game, sums)
    reallocate(state, game)
    return state


def reallocate(state: GameState, game: str) -> None:
    """The allocation step of ``game``: install the closed-form allocation
    of each of its coalitions (for CSD, the local coalition ``n_sbs`` too)
    and cache its value.

    An accepted move (``_commit``) recomputes its two coalitions' running
    sums and cached values from one pass over each one's members in
    ascending order (``CoalitionSums.refresh``), but writes no fractions,
    so a coalition that many moves touch is installed once.  The install
    (``_write_coalition``) runs the matching ``_kernels`` write path over
    the same member list, so a coalition a move touched gets the
    value it caches to the last bit; one that no move touched still holds
    the initializer's equal split, and its closed form replaces it."""
    cache = state.v_hrd if game == HRD else state.v_csd
    for c, members in enumerate(_member_lists(state, game)):
        cache[c] = _write_coalition(state, game, c, members)


def run_amnd(scenario: Scenario, demand: DemandProfile, *,
             init_state: GameState | None = None) -> GameState:
    """Best-gain init (or a clone of ``init_state``), then the
    computation-device game and the high-rate-device game, each on the
    budget ``game_budget`` fixes for the instance and each ending with its
    class's allocation step.  The returned state's trace holds the
    objective after the initializer and after each game.

    AMND alternates association and allocation, but one round is all that
    can change the state.  The computation-device problem (uplink,
    compute, storage) and the high-rate-device problem (downlink,
    backhaul) share no constraint, so each class is an independent stage:
    its game is a local search that ends with a stabilization sweep
    leaving no improving transfer or swap, and its allocation step follows
    at once.  That step can only lower a coalition's value: one that a
    move touched already holds its closed form, and every other one still
    holds the initializer's equal split, a feasible point of the problem
    that the closed form solves exactly.  Lower cached values raise the
    ``dv`` of every later move of the class, and the other class's stage
    changes nothing of this one, so a second round of either game cannot
    accept a move, and each stage leaves the objective where it was or
    lower.
    """
    if init_state is not None:
        state = init_state.clone()
    else:
        state = abcg_init(scenario, demand)
    for game in (CSD, HRD):
        run_coalition_game(state, game)
        state.trace.append(state.objective)
    return state


def audit_stability(state: GameState) -> list:
    """Every single transfer and same-class swap of the HRD game, then of
    the CSD game, valued as one ``_Block`` per game from running sums built
    from the member lists, as a game builds its own (the sums and the
    moves' ends read the same partition); returns the feasible moves that
    a game would accept (``dv`` below ``cut``), in ``_neighbourhood`` order
    (empty list == Nash-stable), each as ``(game, kind, c_from, c_to,
    md_from, md_to, dv)``: the device ``md_from`` leaves coalition
    ``c_from`` for ``c_to``, and in a swap ``md_to`` (else None) leaves
    ``c_to`` for ``c_from``.  Only the flagged moves that ``_Block.screen``
    passes are valued exactly; the others cannot improve."""
    found = []
    for game in (HRD, CSD):
        sums = CoalitionSums(state.costs, game, _member_lists(state, game))
        block, _ = _neighbourhood_block(
            state, sums, _neighbourhood(sums.none, sums.size.size), 0)
        for q in np.flatnonzero(block.improving()).tolist():
            swap = block.swap.item(q)
            found.append((game, "swap" if swap else "transfer",
                          block.a.item(q), block.b.item(q), block.i.item(q),
                          block.j.item(q) if swap else None,
                          block.dv.item(q)))
    return found


@dataclass(frozen=True)
class SolveAudit:
    """One solve, judged by every rule of ``mecsim audit`` (``audit_solve``).

    ``constraints`` holds ``delays.audit_constraints``'s lines at the
    initial and at the final state, ``worst_step`` the largest step of the
    final state's objective trace (0.0 for a trace of one entry),
    ``stability`` the final state's ``audit_stability`` rows and ``gaps``
    its ``GameState.optimality_gaps``."""

    constraints: tuple[list, list]
    worst_step: float
    stability: list
    gaps: np.ndarray

    @property
    def monotone(self) -> bool:
        """No stage raised the objective by more than ``TRACE_TOL``."""
        return self.worst_step <= TRACE_TOL

    @property
    def infeasible(self) -> int:
        """The coalitions whose stored bytes overrun their room (gap +inf)."""
        return int(np.isinf(self.gaps).sum())

    @property
    def worst_gap(self) -> float:
        """The largest size of a finite gap: a bound above a feasible delay
        is as wrong as a delay above the optimum."""
        return float(np.abs(self.gaps[np.isfinite(self.gaps)]).max(initial=0.0))

    @property
    def failures(self) -> int:
        """The failure rule: one per constraint line, per improving move and
        per infeasible coalition, one for a trace that rises, and one for a
        worst gap above ``GAP_TOL``; 0 is a clean solve."""
        return (sum(map(len, self.constraints)) + (not self.monotone)
                + len(self.stability) + self.infeasible
                + (self.worst_gap > GAP_TOL))


def audit_solve(init: GameState, final: GameState) -> SolveAudit:
    """Judge a solve from its initial state ``init`` to its final state
    ``final``: the constraint audit of both, the final trace, the stability
    audit and the coalitions' optimality gaps of ``final``."""
    steps = np.diff(np.array(final.trace))
    return SolveAudit(
        constraints=tuple(audit_constraints(s.scenario, s.demand, s.partition,
                                            s.allocation, s.table)
                          for s in (init, final)),
        worst_step=float(steps.max()) if steps.size else 0.0,
        stability=audit_stability(final), gaps=final.optimality_gaps())


def write_move_log(state: GameState, path) -> None:
    """Dump the move log as CSV, one row per accepted move: the index of its
    proposal among the state's proposals, the game, the kind, its ``dv``
    and the objective after it."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("proposal,game,kind,dv,objective\n")
        for it, game, kind, dv, obj in state.move_log:
            fh.write(f"{it},{game},{kind},{dv:.12g},{obj:.12g}\n")
