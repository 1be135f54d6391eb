"""Device association: best-gain initializer, coalition games, reallocation.

The optimizer state couples a partition (who is served where) with a
feasible allocation and cached per-coalition utilities (total weighted delay
of the coalition's members under the state's allocation).  Because the
objective is separable across SBSs, a candidate move re-evaluates only the
two touched coalitions; a move is accepted when both tentative coalitions
are feasible and their combined utility strictly improves.  Every HRD
coalition is feasible; a CSD coalition is while its task inputs fit in
storage.

Tentative coalitions are valued under the closed-form allocation, and
accepted ones are installed by the matching ``_kernels`` write path, once
per game.  Every move of a game is valued in O(1) from one store of
running sums per game (``CoalitionSums``): a CSD coalition is worth
``su**2 + se**2``, the squared sums of its root uplink and compute costs,
and an HRD coalition ``sd**2 + sb**2`` (root downlink costs of all pairs,
root backhaul costs of the missed pairs) as long as no rate ordering
binds.  One binds only if the largest device ratio ``rho * sqrt(D) /
sqrt(B)`` times ``sb`` exceeds ``sd``; where that may happen, the side is
valued over its tentative members' pairs by ``_kernels.hrd_value``, the
exact closed form that the write path installs, so its value is exactly
that of the installed allocation.  Dropping the orderings relaxes the
problem, so such a side is never worth less than ``sd**2 + sb**2``, and a
move whose relaxed gain cannot clear ``IMPROVE_MARGIN`` (``_Block.screen``)
is rejected without the exact valuation.

An accepted move sorts the two touched member lists and makes one pass over
each (``CoalitionSums.refresh``), which recomputes the coalition's running
sums, so they never drift, and its cached closed-form value, both summed in
numpy's order from the per-SBS lists of ``_kernels.Rows``.  The move makes
no install: both coalitions are marked ``stale``, and
``run_coalition_game`` installs each stale coalition once, at its end, in
the member order its value was summed in, so the installed allocation is
worth the cached value to the last bit.  ``evaluate_and_apply`` installs its
two coalitions at once.

``audit_stability`` values every move with the same valuer, from running
sums it rebuilds from the member lists, so a stale row of the state's own
sums cannot hide an improving move from it.

Moves are valued in blocks (``_Block``): arrays of transfers and swaps,
valued elementwise, both sides in one ``CoalitionSums.after`` call, at the
current partition, with the float operations of a block of one in their
order, and cut at the first accept, which is applied with the block's own
valuation (``_apply``).  A transfer names the sums' zero device ``none``
as its missing partner, so ``after`` values both kinds alike, unmasked.
The partition changes only on an accepted move, so both phases of a game
are blocks between accepts.  The stabilization sweep's block is the rest of
the sweep, in ``_neighbourhood``'s order, and the audit's block is all of
it.

The random phase reads the generator's ``next_uint32`` stream ahead
(``scenario.ReadAhead`` over ``uint32s``) and decodes it as
``propose_move`` would draw, with numpy's own bounded-integer algorithm
(``_Draws``), in two passes: the pair draws at every position of a window,
from a per-pair table rebuilt only when a move changes coalition sizes,
then, once ``_chain`` has linked the starts, the member draws at those
starts only.  A draw in Lemire's rejection branch goes through
``propose_move``, and the generator ends exactly where the consumed draws
leave it.  An accepted swap changes no size, so the window's later starts
carry over to the next block, which reads their members again.  Every draw
is one of the ``drawable`` moves at the current sizes (the swaps, and the
transfers into empty coalitions), a swap is valued to the same bits from
either side, and the partition cannot change while every draw is rejected.
So once the rejections since the last accept reach the number of drawable
moves, those moves are valued as one block; if none would be accepted,
every later proposal of the phase is a rejection, and the rest of the phase
is decoded and counted without being valued (``_skip_tail``).  A move log
records every proposal's ``dv``, so a logged run values every proposal.
Proposal counts, accepted moves, move logs and generator states are
therefore those of the one-at-a-time loops, to the last bit.

The state reallocation installs the closed form of every SBS coalition.
One that a game installed already holds it, and installing it again writes
the same bits.  Every other coalition still holds the initializer's
equal-share split, which is a feasible point of the problem the closed
form solves exactly, so installing the closed form there never raises a
coalition's delay and every objective trace is nonincreasing.

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
import functools
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from ._kernels import hrd_value
from .allocation import CSD, HRD, CoalitionCosts, build_costs, \
    equal_share_hrd
from .content import DemandProfile
from .delays import BITS_PER_BYTE, Allocation, DelayReport, Partition, \
    objective
from .radio import RateTable, build_rate_table
from .scenario import ReadAhead, Scenario, uint32s

IMPROVE_MARGIN = 1e-12   # strict-improvement threshold, avoids cycling on ties
CHECK_TOL = 1e-9         # relative tolerance of ``GameState.check``
# Relative allowance of the screen (``_Block.screen``) for the rounding of
# the running sums and of the exact valuation.
SLACK = 1e-8
MASK32 = 0xFFFFFFFF
# Proposals per block of the random phase.  On desk and sweep solves a
# constant 256 ran as fast as blocks doubling from 64 to 256 while nothing
# was accepted, and faster than constant blocks of 64, 128 or 512.
BLOCK = 256


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
    """Running sums of one game's closed form, one row per coalition.

    ``size`` and ``members`` hold each coalition's member list, and
    ``sums`` its additive sums, one column each; ``terms`` holds every
    device's terms at every coalition, in row ``c * stride + k`` for device
    ``k`` at coalition ``c``.  Device ``none``, one past the last, has zero
    terms: it is a transfer's missing partner, and moves nothing.  An HRD
    coalition sums ``(sd, sb, miss)``: its pairs' root downlink costs, its
    missed pairs' root backhaul costs, and the number of missed pairs
    (small counts, exact as floats); ``ratio`` holds the largest device
    ratio ``rho * sqrt(D) / sqrt(B)`` among them, a running max, and
    ``floor_ratio`` each device's, in the rows of ``terms``.  A CSD
    coalition sums ``(su, se, load, local)``: its root uplink and compute
    costs and its stored task bytes, or, in row ``n_sbs`` (the virtual
    local coalition), its local delays.  Stored sums change only through
    ``refresh``, which recomputes a row from a member list in one pass over
    the kernels' rows (``_kernels.hrd_summary``/``csd_summary``), and
    returns the coalition's closed-form value from the same pass.
    ``after`` values coalitions after one move, elementwise, and marks the
    HRD sides where a rate ordering may bind.
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
                     np.broadcast_to(costs.local_delay_w,
                                     (n_coal, costs.n_csd)))
            self.room = np.append(costs.rows.room, 0.0)
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
        # Column ``none`` of every row always holds ``none``.
        self.members = np.full((n_coal, self.stride), self.none,
                               dtype=np.int64)
        self.sums = np.zeros((n_coal, len(terms)))
        self.ratio = np.zeros(n_coal)
        for c, members in enumerate(lists):
            self.refresh(c, members)

    def copy(self) -> "CoalitionSums":
        other = copy.copy(self)
        for name in ("size", "members", "sums", "ratio"):
            setattr(other, name, getattr(self, name).copy())
        return other

    def refresh(self, c: int, members):
        """Recompute row ``c`` from the member list ``members``; returns the
        coalition's closed-form ``(value, feasible)``."""
        self.size[c] = len(members)
        self.members[c, :len(members)] = members
        self.sums[c], self.ratio[c], value, ok = self.summary(self.costs, c,
                                                              members)
        return value, ok

    def check(self, lists) -> None:
        """Assert every stored row matches its member list."""
        for c, members in enumerate(lists):
            sums, ratio, _, _ = self.summary(self.costs, c, members)
            ref = np.append(sums, ratio)
            got = np.append(self.sums[c], self.ratio[c])
            if (self.members[c, :self.size[c]].tolist() != list(members)
                    or np.any(np.abs(got - ref)
                              > CHECK_TOL * np.maximum(1.0, np.abs(ref)))):
                raise AssertionError(
                    f"stale {self.game} running sums at coalition {c}: "
                    f"{got!r} vs {ref!r}")

    def after(self, c, out, inn, size):
        """(value, feasible, floor) of coalitions ``c`` once device ``out``
        leaves and ``inn`` enters, holding ``size`` members; ``none`` in
        either place moves nothing.  ``floor`` marks HRD sides where a rate
        ordering may bind (``ratio * sb > sd``); their value is left to
        ``_kernels.hrd_value``."""
        row = c * self.stride
        x = (self.sums.take(c, axis=0) - self.terms.take(row + out, axis=0)
             + self.terms.take(row + inn, axis=0))
        empty = size == 0
        if self.game == HRD:
            sd, sb, miss = x.T
            # After a removal the old ratio is an upper bound.
            ratio = np.maximum(self.ratio[c], self.floor_ratio[row + inn])
            value = np.where(miss == 0, sd * sd, sd * sd + sb * sb)
            floor = (miss != 0) & (ratio * sb > sd) & ~empty
            return np.where(empty, 0.0, value), np.ones_like(empty), floor
        su, se, load, local = x.T
        is_local = c == self.n_sbs
        value = np.where(is_local, local, su * su + se * se)
        feasible = is_local | (load <= self.room[c]) | empty
        return np.where(empty, 0.0, value), feasible, np.zeros_like(empty)


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
    rng_hrd: np.random.Generator
    rng_csd: np.random.Generator
    sums: dict                 # game -> CoalitionSums
    # Per game: the coalitions whose cached value and running sums are
    # ahead of their allocation, which the game installs at its end.
    stale: dict = field(default_factory=lambda: {HRD: set(), CSD: set()})
    fallback_hrds: list = field(default_factory=list)
    trace: list = field(default_factory=list)
    accepted_moves: int = 0
    proposals: int = 0
    move_log: list | None = None

    @property
    def n_sbs(self) -> int:
        return self.partition.n_sbs

    def clone(self) -> "GameState":
        """Independent copy; game rngs restart from the scenario's seed."""
        rng_csd, rng_hrd = _game_rngs(self.scenario.params.seed)
        return GameState(
            scenario=self.scenario, demand=self.demand, table=self.table,
            costs=self.costs, partition=self.partition.copy(),
            allocation=self.allocation.copy(),
            hrd_members=[list(c) for c in self.hrd_members],
            csd_members=[list(c) for c in self.csd_members],
            v_hrd=self.v_hrd.copy(), v_csd=self.v_csd.copy(),
            objective=self.objective, rng_hrd=rng_hrd, rng_csd=rng_csd,
            sums={game: sums.copy() for game, sums in self.sums.items()},
            stale={game: set(c) for game, c in self.stale.items()},
            fallback_hrds=list(self.fallback_hrds), trace=list(self.trace),
            accepted_moves=self.accepted_moves, proposals=self.proposals,
            move_log=list(self.move_log) if self.move_log is not None else None,
        )

    def report(self) -> DelayReport:
        return objective(self.scenario, self.demand, self.partition,
                         self.allocation, self.table)

    def check(self) -> None:
        """Assert running sums, cached utilities and the objective match
        recomputation; cached utilities are checked against per-coalition
        sums of the delay model's weighted per-pair and per-device delays,
        and no coalition may await its install."""
        for game, stale in self.stale.items():
            if stale:
                raise AssertionError(f"{game} coalitions {sorted(stale)} "
                                     f"await their install")
        for game, sums in self.sums.items():
            sums.check(_member_lists(self, game))
        rep = self.report()
        demand, part = self.demand, self.partition
        refs = (
            (HRD, self.v_hrd, np.bincount(
                part.hrd_sbs[rep.pair_k],
                weights=demand.hrd_weight[rep.pair_k] * rep.t_hr_pair,
                minlength=self.n_sbs)),
            (CSD, self.v_csd, np.bincount(
                part.csd_sbs, weights=demand.csd_weight * rep.t_cs,
                minlength=self.n_sbs + 1)))
        for game, cache, ref in refs:
            stale = np.flatnonzero(np.abs(ref - cache)
                                   > CHECK_TOL * np.maximum(1.0, np.abs(ref)))
            if stale.size:
                c = int(stale[0])
                raise AssertionError(
                    f"stale {game} utility cache at coalition {c}: "
                    f"{cache[c]!r} vs {ref[c]!r}")
        total = float(self.v_hrd.sum() + self.v_csd.sum())
        if abs(total - self.objective) > CHECK_TOL * max(1.0, abs(total)):
            raise AssertionError(f"stale objective: {self.objective!r} vs {total!r}")
        if abs(rep.objective - self.objective) > \
                CHECK_TOL * max(1.0, rep.objective):
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
              log_moves: bool = False) -> GameState:
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
    tie rule) and the offload and local delays are array operations; only
    the storage pass goes device by device, in device order, since each
    device's room depends on the devices before it.
    """
    if table is None:
        table = build_rate_table(scenario)
    costs = build_costs(scenario, demand, table)
    n_sbs = scenario.n_sbs
    if n_sbs < 1:
        raise ValueError("no SBS to associate with")
    n_hrd, n_csd = demand.n_hrd, demand.n_csd

    # Each HRD's strongest SBS among those passing the filter, else its
    # strongest.
    gains = scenario.gain_sbs_hrd
    ok = costs.eta_min <= 1.0
    passing = ok.any(axis=0)
    hrd_sbs = np.where(passing, np.argmax(np.where(ok, gains, -np.inf), axis=0),
                       np.argmax(gains, axis=0)).astype(np.int64)
    fallback = np.flatnonzero(~passing).tolist()
    csd_sbs = np.argmax(scenario.gain_sbs_csd, axis=0).astype(np.int64)

    # Equal uplink/compute split over the gain-based coalitions, then each
    # device compares offloading at that split against local execution and
    # takes storage, in device order, only if offloading is not slower.
    size0 = np.bincount(csd_sbs, minlength=n_sbs).astype(float)
    share_k = 1.0 / size0[csd_sbs]
    in_bits = demand.task_input_bytes * BITS_PER_BYTE
    t_off = (in_bits / (share_k * table.s_ul[csd_sbs]
                        * table.r_ul[csd_sbs, np.arange(n_csd)])
             + demand.task_cycles / (share_k * demand.edge_cps[csd_sbs]))
    t_lc = demand.task_cycles / demand.local_cps
    room = costs.rows.room
    used_bytes = [0.0] * n_sbs
    task_bytes = costs.task_bytes.tolist()
    for k, (n, slower) in enumerate(zip(csd_sbs.tolist(),
                                        (t_off > t_lc).tolist())):
        if slower or not used_bytes[n] + task_bytes[k] <= room[n]:
            csd_sbs[k] = n_sbs
        else:
            used_bytes[n] += task_bytes[k]

    partition = Partition(hrd_sbs=hrd_sbs, csd_sbs=csd_sbs, n_sbs=n_sbs)
    allocation = Allocation.idle(costs.pair_k.size, n_csd)
    hrd_members = partition.hrd_coalitions()
    csd_members = partition.csd_coalitions()

    v_hrd = np.zeros(n_sbs)
    for n in range(n_sbs):
        idx, beta, eta, value = equal_share_hrd(costs, n, hrd_members[n])
        allocation.beta[idx] = beta
        allocation.eta[idx] = eta
        v_hrd[n] = value

    v_csd = np.zeros(n_sbs + 1)
    for n in range(n_sbs):
        members = np.asarray(csd_members[n], dtype=np.int64)
        if members.size:
            share = 1.0 / size0[n]
            allocation.alpha[members] = share
            allocation.gamma[members] = share
            v_csd[n] = float((costs.ul_cost[n, members].sum()
                              + costs.ed_cost[n, members].sum()) / share)
    v_csd[n_sbs] = float(costs.local_delay_w[csd_members[n_sbs]].sum())

    rng_csd, rng_hrd = _game_rngs(scenario.params.seed)
    total = float(v_hrd.sum() + v_csd.sum())
    return GameState(
        scenario=scenario, demand=demand, table=table, costs=costs,
        partition=partition, allocation=allocation,
        hrd_members=hrd_members, csd_members=csd_members,
        v_hrd=v_hrd, v_csd=v_csd, objective=total,
        rng_hrd=rng_hrd, rng_csd=rng_csd,
        sums={HRD: CoalitionSums(costs, HRD, hrd_members),
              CSD: CoalitionSums(costs, CSD, csd_members)},
        fallback_hrds=fallback, trace=[total],
        move_log=[] if log_moves else None,
    )


# ---------------------------------------------------------------------------
# Coalition game.
# ---------------------------------------------------------------------------

def _member_lists(state: GameState, game: str):
    return state.hrd_members if game == HRD else state.csd_members


def _association(state: GameState, game: str) -> np.ndarray:
    return state.partition.hrd_sbs if game == HRD else state.partition.csd_sbs


def _lemire(next_uint32):
    """``draw(n)`` over a ``next_uint32()`` callable, as numpy draws
    ``Generator.integers(n)`` from its bit generator's ``next_uint32``:
    Lemire's multiply-shift with rejection (Lemire, "Fast random integer
    generation in an interval", ACM TOMACS 2019).  ``n == 1`` consumes
    nothing, as in numpy; ``n`` outside [1, 2**32) raises."""

    def draw(n: int) -> int:
        if n == 1:
            return 0
        if not 1 < n < 1 << 32:
            raise ValueError(f"draw bound {n} outside [1, 2**32)")
        m = next_uint32() * n
        if m & MASK32 < n:
            # Reject the 2**32 % n low products that would bias the result.
            threshold = (1 << 32) % n
            while m & MASK32 < threshold:
                m = next_uint32() * n
        return m >> 32

    return draw


def bounded_draws(rng: np.random.Generator):
    """``draw(n)``, which returns exactly ``int(rng.integers(n))``.

    ``draw`` runs numpy's own algorithm (``_lemire``) in Python on the bit
    generator's ``next_uint32``, which skips numpy's per-call overhead, and
    leaves the generator in the state numpy would, so later ``rng`` calls
    are unchanged.  Unlike ``rng.integers``, ``draw`` does not take the
    generator's lock, so the generator must not be shared between threads
    while ``draw`` is in use.
    """
    iface = rng.bit_generator.ctypes
    draw = _lemire(functools.partial(iface.next_uint32, iface.state))
    draw.generator = rng   # keeps the bit generator behind ``iface`` alive
    return draw


def propose_move(state: GameState, game: str, rng) -> MoveProposal:
    """Draw one candidate move: two distinct coalitions; a member transfers
    into an empty one, otherwise one member from each side is swapped.
    ``rng`` is a ``Generator``, or a ``draw(n)`` over its stream
    (``bounded_draws``, or ``_lemire`` on a ``ReadAhead``); all draw the
    same moves."""
    draw = bounded_draws(rng) if isinstance(rng, np.random.Generator) else rng
    lists = _member_lists(state, game)
    n_coal = len(lists)
    if n_coal < 2:
        raise ValueError("need at least two coalitions to propose a move")
    # With one nonempty coalition among C, a blind pair misses it with
    # probability (C-2)/C per draw; the bound keeps failure negligible.
    for _ in range(2048):
        m = draw(n_coal)
        n = draw(n_coal - 1)
        if n >= m:
            n += 1
        if not lists[m] and not lists[n]:
            continue
        if not lists[m]:
            j = lists[n][draw(len(lists[n]))]
            return MoveProposal(game, "transfer", c_from=n, c_to=m, md_from=j)
        if not lists[n]:
            i = lists[m][draw(len(lists[m]))]
            return MoveProposal(game, "transfer", c_from=m, c_to=n, md_from=i)
        i = lists[m][draw(len(lists[m]))]
        j = lists[n][draw(len(lists[n]))]
        return MoveProposal(game, "swap", c_from=m, c_to=n, md_from=i, md_to=j)
    raise RuntimeError("could not sample a nonempty coalition pair")


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


def _evaluate(state: GameState, prop: MoveProposal) -> None:
    """Value a move as a block of one."""
    swap, sums = prop.md_to is not None, state.sums[prop.game]
    block = _Block(state, sums, np.array([swap]),
                   np.array([prop.c_from]), np.array([prop.c_to]),
                   np.array([prop.md_from]),
                   np.array([prop.md_to if swap else sums.none]))
    prop.dv, prop.feasible = block.value(0)


def _write_coalition(state: GameState, game: str, c: int, members) -> float:
    """Install the closed-form allocation of coalition c into the state's
    allocation; returns its value.  Every member's fractions are written,
    so a device that moved carries none over from its old coalition."""
    alloc, costs = state.allocation, state.costs
    if game == HRD:
        value, _ = _kernels.hrd_alloc(costs, c, members, alloc.beta, alloc.eta)
    else:
        value, _ = _kernels.csd_alloc(costs, c, members, alloc.alpha,
                                      alloc.gamma)
    state.stale[game].discard(c)
    return value


def evaluate_and_apply(state: GameState, prop: MoveProposal) -> bool:
    """Accept the proposal iff both tentative coalitions are feasible and
    their combined utility strictly improves, and install both at once;
    reject leaves state untouched."""
    _evaluate(state, prop)
    accepted = _apply(state, prop)
    if accepted:
        lists = _member_lists(state, prop.game)
        for c in (prop.c_from, prop.c_to):
            _write_coalition(state, prop.game, c, lists[c])
    return accepted


def _apply(state: GameState, prop: MoveProposal) -> bool:
    """Count and log a valued proposal (its ``dv`` and ``feasible`` set),
    and apply it iff it is feasible and improves by more than
    ``IMPROVE_MARGIN``; returns whether it was applied.  An applied move
    updates the partition, and the running sums and cached values of its
    two coalitions, from one pass over each sorted member list, and marks
    both stale: their allocation is installed later, once per game."""
    state.proposals += 1
    accepted = bool(prop.feasible) and prop.dv < -IMPROVE_MARGIN
    if accepted:
        game, a, b = prop.game, prop.c_from, prop.c_to
        lists = _member_lists(state, game)
        src, dst = _tentative_members(lists, a, b, prop.md_from, prop.md_to)
        lists[a], lists[b] = sorted(src), sorted(dst)
        assoc = _association(state, game)
        assoc[prop.md_from] = b
        if prop.md_to is not None:
            assoc[prop.md_to] = a
        cache = state.v_hrd if game == HRD else state.v_csd
        sums = state.sums[game]
        cache[a] = sums.refresh(a, lists[a])[0]
        cache[b] = sums.refresh(b, lists[b])[0]
        state.stale[game].update((a, b))
        state.objective = float(state.v_hrd.sum() + state.v_csd.sum())
        state.accepted_moves += 1
    if state.move_log is not None:
        state.move_log.append((state.proposals, prop.game, prop.kind,
                               accepted, prop.dv, state.objective))
    return accepted


def _neighbourhood(n_dev: int, n_coal: int):
    """Every single transfer, then every same-class swap, of a game with
    ``n_dev`` devices and ``n_coal`` coalitions, as arrays ``(swap, i, j,
    target)`` with one entry per position: transfers device-major and
    target-minor, then swaps with ``i < j``, row-major.  ``i`` is the moving
    device, ``j`` the device swapped with it (``n_dev``, the running sums'
    ``none``, in a transfer) and ``target`` a transfer's target."""
    dev, target = np.divmod(np.arange(n_dev * n_coal), n_coal)
    si, sj = np.triu_indices(n_dev, 1)
    i = np.concatenate((dev, si))
    j = np.concatenate((np.full_like(dev, n_dev), sj))
    target = np.concatenate((target, np.zeros_like(si)))
    swap = np.arange(i.size) >= dev.size
    return swap, i, j, target


class _Block:
    """Proposals of one game, one per entry of the arrays ``swap`` (a swap,
    or else a transfer), ``a`` and ``b`` (the coalitions that device ``i``
    leaves and enters) and ``j`` (the device that leaves ``b`` in a swap,
    ``sums.none`` in a transfer), valued together from the running sums
    ``sums`` of the state's current partition, both sides in one
    ``CoalitionSums.after`` call, each with the float operations, in their
    order, of a block of one."""

    def __init__(self, state: GameState, sums: CoalitionSums, swap, a, b,
                 i, j):
        self.game, self.sums = sums.game, sums
        self.swap, self.a, self.b, self.i, self.j = swap, a, b, i, j
        self.lists = _member_lists(state, sums.game)
        self.cache = state.v_hrd if sums.game == HRD else state.v_csd
        # Sources first, then destinations: (i, j) leave and (j, i) enter.
        n, ends = a.size, np.concatenate((a, b))
        step = swap - 1
        value, self.ok, self.floors = sums.after(
            ends, np.concatenate((i, j)), np.concatenate((j, i)),
            sums.size[ends] + np.concatenate((step, -step)))
        self.v_src, self.v_dst = value[:n], value[n:]
        self.feasible = self.ok[:n] & self.ok[n:]
        self.floor = self.floors[:n] | self.floors[n:]
        self.dv = (self.v_src + self.v_dst) - (self.cache[a] + self.cache[b])
        self.unvalued = []

    def __len__(self) -> int:
        return self.a.size

    def proposal(self, q: int) -> MoveProposal:
        swap = bool(self.swap[q])
        return MoveProposal(self.game, "swap" if swap else "transfer",
                            c_from=self.a.item(q), c_to=self.b.item(q),
                            md_from=self.i.item(q),
                            md_to=self.j.item(q) if swap else None)

    def value(self, q: int):
        """(dv, feasible) of proposal ``q``; a side where a rate ordering
        may bind is valued by ``_kernels.hrd_value`` over its tentative
        members."""
        n, a, b = len(self), self.a.item(q), self.b.item(q)
        src = self.v_src.item(q), bool(self.ok[q])
        dst = self.v_dst.item(q), bool(self.ok[n + q])
        if self.floor[q]:
            t_src, t_dst = _tentative_members(
                self.lists, a, b, self.i.item(q),
                self.j.item(q) if self.swap[q] else None)
            if self.floors[q]:
                src = hrd_value(self.sums.costs, a, t_src)
            if self.floors[n + q]:
                dst = hrd_value(self.sums.costs, b, t_dst)
        return ((src[0] + dst[0]) - (self.cache.item(a) + self.cache.item(b)),
                src[1] and dst[1])

    def screen(self, stop: int):
        """The flagged proposals before ``stop``, split into those that
        may still be accepted and those that cannot, as two index lists.

        A flagged side's exact value solves the problem whose relaxation,
        without the rate orderings, is worth ``sd**2 + sb**2`` (the
        block's value), so it is worth at least that, up to rounding.  A
        proposal whose relaxed ``dv`` stays at or above ``-IMPROVE_MARGIN``
        after ``SLACK`` times its two sides' values is taken off is
        therefore not improving."""
        floor = self.floor[:stop]
        bound = self.dv[:stop] - SLACK * (self.v_src[:stop]
                                          + self.v_dst[:stop])
        wins = bound < -IMPROVE_MARGIN
        return (np.flatnonzero(floor & wins).tolist(),
                np.flatnonzero(floor & ~wins).tolist())

    def first_accept(self) -> int:
        """Index of the first proposal ``evaluate_and_apply`` would accept,
        or the block's length.  A flagged proposal before it that ``screen``
        passes is valued by ``value``, in order and only up to the first
        accept, and its exact ``dv`` and feasibility replace the block's;
        one that ``screen`` rejects is not valued, and is listed in
        ``unvalued``."""
        hits = np.flatnonzero(self.feasible & ~self.floor
                              & (self.dv < -IMPROVE_MARGIN))
        first = int(hits[0]) if hits.size else len(self)
        if not self.floor[:first].any():
            return first
        contenders, self.unvalued = self.screen(first)
        for q in contenders:
            self.dv[q], self.feasible[q] = self.value(q)
            if self.feasible[q] and self.dv[q] < -IMPROVE_MARGIN:
                return q
        return first


def _neighbourhood_block(state: GameState, sums: CoalitionSums, hood,
                        pos: int, *, drawable: bool = False):
    """The ``_Block`` of the positions of ``hood`` (``_neighbourhood``'s
    arrays) from ``pos`` on at the current partition, skipping a transfer
    into the device's own coalition and a swap within one coalition, and
    the positions it holds.  With ``drawable``, only the moves that
    ``propose_move`` can draw are kept: swaps, and transfers into empty
    coalitions."""
    swap, i, j, target = hood
    assoc = _association(state, sums.game)
    a = assoc[i[pos:]]
    # A transfer's ``j`` lies past ``assoc``; ``where`` drops what it reads.
    b = np.where(swap[pos:], assoc.take(j[pos:], mode="clip"), target[pos:])
    keep = a != b
    if drawable:
        keep &= swap[pos:] | (sums.size[b] == 0)
    at = np.flatnonzero(keep)
    rest = at + pos
    return _Block(state, sums, swap[rest], a[at], b[at], i[rest],
                  j[rest]), rest


def _settle(state: GameState, block: _Block, first: int) -> bool:
    """Count and log the block's proposals before ``first`` as the
    rejections ``evaluate_and_apply`` would count and log, then apply
    proposal ``first`` with the block's own ``dv`` and feasibility
    (``_apply``), if the block holds one; returns whether a move was
    applied.  The log holds each rejection's exact ``dv``, so a flagged
    rejection that ``first_accept`` left unvalued is valued here, and only
    when it is logged."""
    if state.move_log is None:
        state.proposals += first
    else:
        for q in block.unvalued:
            if q < first:
                block.dv[q] = block.value(q)[0]
        kinds = np.where(block.swap[:first], "swap", "transfer").tolist()
        for kind, dv in zip(kinds, block.dv[:first].tolist()):
            state.proposals += 1
            state.move_log.append((state.proposals, block.game, kind, False,
                                   dv, state.objective))
    if first == len(block):
        return False
    prop = block.proposal(first)
    prop.dv, prop.feasible = block.dv.item(first), bool(block.feasible[first])
    accepted = _apply(state, prop)
    assert accepted, prop
    return True


def stabilize_partition(state: GameState, game: str) -> int:
    """Deterministic local search: sweep all transfers and same-class swaps,
    applying improvements, until one full sweep finds none.  Guarantees the
    exhaustive stability audit passes on exit.

    A sweep visits the moves in ``_neighbourhood``'s order.  Between two
    accepts the partition is fixed, so the rest of the sweep is one
    ``_Block`` (``_neighbourhood_block``); its first accept is applied with
    the block's valuation (``_settle``), and the sweep resumes at the next
    position.
    """
    sums = state.sums[game]
    hood = _neighbourhood(_association(state, game).size,
                          len(_member_lists(state, game)))
    applied = 0
    improved = True
    while improved:
        improved = False
        pos = 0
        while pos < hood[0].size:
            block, at = _neighbourhood_block(state, sums, hood, pos)
            first = block.first_accept()
            if not _settle(state, block, first):
                break
            improved = True
            applied += 1
            pos = at[first] + 1
    return applied


def _drawable(size: np.ndarray) -> int:
    """The number of distinct moves ``propose_move`` can draw at coalition
    sizes ``size``: a swap of any two devices in different coalitions, and
    a transfer of any device into any empty coalition."""
    n_dev = int(size.sum())
    return ((n_dev * n_dev - int(size @ size)) // 2
            + n_dev * int(np.count_nonzero(size == 0)))


class _Draws:
    """``propose_move``'s draws, decoded from windows of a game generator's
    uint32 stream at the coalition sizes ``size`` (the running sums' own
    array, which a move updates in place).

    The two pair draws give a pair index ``m * (n_coal - 1) + n``, before
    ``n`` skips ``m``.  ``decode`` runs two passes.  The first decodes every
    position of a window into a step code: the number of values a proposal
    drawn from there consumes, negated where both coalitions of its pair
    are empty (``propose_move`` draws the pair again), and 0 where a pair
    draw falls in Lemire's rejection branch, which is left to
    ``propose_move``.  ``_chain`` links the codes into start positions, and
    the second pass decodes the member draws at those starts only.  A
    pair's code depends only on its coalitions' size classes (empty, one
    member, more), and its kind and member-draw bounds only on their sizes,
    so both passes read them from per-pair tables, which ``resize``
    rebuilds, with ``drawable``, when a move changes sizes.
    """

    def __init__(self, size: np.ndarray, none: int):
        self.size, self.none, self.n_coal = size, none, size.size
        n_coal = size.size
        # A bound of 1 draws 0 and consumes nothing.
        self.pair_step = 2 if n_coal > 2 else 1
        self.m, n = np.divmod(np.arange(n_coal * (n_coal - 1)), n_coal - 1)
        self.n = n + (n >= self.m)
        self.resize()

    def resize(self) -> None:
        m, n = self.m, self.n
        size_m, size_n = self.size[m], self.size[n]
        from_m = size_m > 0
        swap = from_m & (size_n > 0)
        a, b = np.where(from_m, m, n), np.where(from_m, n, m)
        size_a = self.size[a]
        # Per pair: the coalitions, the kind, and the bounds of the member
        # draws (0 where none is drawn).
        self.pairs = np.stack((a, b, swap, size_a, np.where(swap, size_n, 0)))
        self.steps = np.where(from_m | (size_n > 0),
                              self.pair_step + (size_a > 1)
                              + (swap & (size_n > 1)), -self.pair_step)
        self.drawable = _drawable(self.size)

    def decode(self, window: np.ndarray, limit: int):
        """Up to ``limit`` (at least 1) proposals drawn one after another
        from the start of ``window``, as arrays ``(ends, swap, a, b, k_from,
        k_to)``: the window offset after each proposal, whether it is a
        swap, the coalitions its moving device leaves and enters, and the
        indices of the moving members in the member rows of ``a`` and ``b``
        (``none`` in a transfer).  They stop before a proposal with a draw
        in Lemire's rejection branch, and before one whose draws could run
        past the window."""
        bound, step = self.n_coal, self.pair_step
        span = window.size - 3
        # A uint32 times a bound below 2**31 is exact in int64.
        prod = window[:span] * bound
        reject = prod & MASK32 < bound
        pair = (prod >> 32) * (bound - 1)
        if bound > 2:
            prod = window[1:span + 1] * (bound - 1)
            reject |= prod & MASK32 < bound - 1
            pair += prod >> 32
        code = self.steps[pair]
        code[reject] = 0
        at = np.array(_chain(code.tolist(), limit), dtype=np.int64)
        ends = at + code[at]
        a, b, swap, size_a, size_b = self.pairs.take(pair[at], axis=1)
        swap = swap.astype(bool)
        # Below a bound of 2 a member draw is 0 and consumes nothing; the
        # product of a uint32 and 1 or 0 shifts to 0 as well.
        take_a = size_a > 1
        at += step
        prod = window[at] * size_a
        k_from = prod >> 32
        reject = take_a & (prod & MASK32 < size_a)
        prod = window[at + take_a] * size_b
        k_to = np.where(swap, prod >> 32, self.none)
        reject |= (size_b > 1) & (prod & MASK32 < size_b)
        cut = np.flatnonzero(reject)
        cut = int(cut[0]) if cut.size else ends.size
        return (ends[:cut], swap[:cut], a[:cut], b[:cut], k_from[:cut],
                k_to[:cut])


def _chain(code: list, limit: int) -> list:
    """Start positions of up to ``limit`` (at least 1) proposals drawn one
    after another from position 0, skipping redrawn empty pairs; stops
    before a position in Lemire's rejection branch and at the end of the
    window."""
    starts, p, end, count = [], 0, len(code), 0
    while p < end:
        step = code[p]
        if step == 0:
            break
        if step > 0:
            starts.append(p)
            count += 1
            if count == limit:
                break
            p += step
        else:
            p -= step
    return starts


def _skip_tail(state: GameState, game: str, stream: ReadAhead,
               draws: _Draws, count: int) -> None:
    """Count ``count`` proposals that are all rejected, and consume their
    draws from ``stream`` without valuing them: decoded by ``draws``, or
    drawn by ``propose_move`` where a draw falls in Lemire's rejection
    branch."""
    state.proposals += count
    while count > 0:
        ends = draws.decode(stream.window(4 * count + 3), count)[0]
        if ends.size:
            stream.skip(int(ends[-1]))
            count -= ends.size
        else:
            propose_move(state, game, _lemire(stream.next))
            count -= 1


def _random_phase(state: GameState, game: str, t2: int, patience: int) -> None:
    """At most ``t2`` proposals, stopping after ``patience`` consecutive
    rejections: each proposal is the one ``propose_move`` draws, judged as
    ``evaluate_and_apply`` judges it, to the last bit.

    Between two accepts the partition is fixed, so a block decodes its
    proposals from a window of the generator's stream (read ahead by a
    ``ReadAhead``, decoded by ``_Draws``) and values them together
    (``_Block``).  The block is cut at its first accept, which is applied
    with the block's valuation (``_settle``); each rejected proposal counts
    and logs as it would in ``evaluate_and_apply``.  An accepted swap
    changes no coalition's size, so the window's later proposals are still
    drawn as decoded and carry over to the next block, their members read
    again.  A proposal with a draw in Lemire's rejection branch, or whose
    redraws run past the window, goes through ``propose_move`` on the same
    stream.  A block holds at most ``BLOCK`` proposals, which bounds its
    window.

    Once the rejections since the last accept reach ``drawable``, the
    drawable moves are valued as one block; if none would be accepted, the
    rest of the phase is rejections (see the module docstring), which
    ``_skip_tail`` counts and draws without valuing.  A run with a move log
    values every proposal, as the log holds each one's ``dv``.
    """
    stream = ReadAhead(state.rng_hrd if game == HRD else state.rng_csd,
                       uint32s)
    sums = state.sums[game]
    draws = _Draws(sums.size, sums.none)
    hood, carry = None, None
    done = rejections = 0
    checked = state.move_log is not None
    while done < t2 and rejections < patience:
        if not checked and rejections >= draws.drawable:
            checked = True
            if hood is None:
                hood = _neighbourhood(sums.none, sums.size.size)
            block, _ = _neighbourhood_block(state, sums, hood, 0,
                                            drawable=True)
            if block.first_accept() == len(block):
                _skip_tail(state, game, stream, draws,
                           min(t2 - done, patience - rejections))
                break
        if carry is None:
            limit = min(BLOCK, t2 - done, patience - rejections)
            carry = draws.decode(stream.window(4 * limit + 3), limit)
        ends, swap, a, b, k_from, k_to = carry
        carry = None
        if ends.size:
            block = _Block(state, sums, swap, a, b, sums.members[a, k_from],
                           sums.members[b, k_to])
            rejected = block.first_accept()
            last = min(rejected, ends.size - 1)
            stream.skip(int(ends[last]))
            accepted = _settle(state, block, rejected)
            resized = accepted and not swap[last]
            if accepted and not resized and last + 1 < ends.size:
                # A swap keeps every size: the window's later proposals are
                # drawn as decoded, and the next block reads their members.
                carry = tuple(x[last + 1:] for x in (ends - ends[last], swap,
                                                     a, b, k_from, k_to))
        else:
            prop = propose_move(state, game, _lemire(stream.next))
            _evaluate(state, prop)
            accepted = _apply(state, prop)
            rejected = int(not accepted)
            resized = accepted and prop.md_to is None
        done += rejected + accepted
        if accepted:
            rejections, checked = 0, state.move_log is not None
            if resized:
                draws.resize()
        else:
            rejections += rejected
    stream.release()


def run_coalition_game(state: GameState, game: str, t2: int,
                       patience: int | None = None, *,
                       stabilize: bool = True) -> GameState:
    """Random move phase (at most t2 proposals, early stop after ``patience``
    consecutive rejections) followed by the stabilization sweep; then each
    coalition they changed is installed, once."""
    if game not in (HRD, CSD):
        raise ValueError(f"unknown game {game!r}")
    if t2 < 1:
        raise ValueError("t2 must be at least 1")
    if patience is None:
        patience = default_patience(state.demand.n_hrd, state.demand.n_csd)
    lists = _member_lists(state, game)
    if len(lists) >= 2 and sum(len(c) for c in lists) >= 1:
        _random_phase(state, game, t2, patience)
    if stabilize:
        stabilize_partition(state, game)
    for c in sorted(state.stale[game]):
        _write_coalition(state, game, c, lists[c])
    return state


def reallocate(state: GameState) -> None:
    """Install the closed-form allocation of every SBS coalition of both
    games, and cache its value."""
    for n in range(state.n_sbs):
        for game, cache in ((CSD, state.v_csd), (HRD, state.v_hrd)):
            cache[n] = _write_coalition(state, game, n,
                                        _member_lists(state, game)[n])
    state.objective = float(state.v_hrd.sum() + state.v_csd.sum())


def run_amnd(scenario: Scenario, demand: DemandProfile, *,
             t2: int | None = None, patience: int | None = None,
             stabilize: bool = True, log_moves: bool = False,
             init_state: GameState | None = None) -> GameState:
    """Best-gain init (or a clone of ``init_state``), then the
    computation-device game, the high-rate-device game and the closed-form
    reallocation.  The returned state's trace holds the
    objective after the initializer and after each of the three stages."""
    if init_state is not None:
        state = init_state.clone()
    else:
        state = abcg_init(scenario, demand, log_moves=log_moves)
    if t2 is None:
        t2 = default_game_iters(state.demand.n_hrd, state.demand.n_csd)
    run_coalition_game(state, CSD, t2, patience, stabilize=stabilize)
    state.trace.append(state.objective)
    run_coalition_game(state, HRD, t2, patience, stabilize=stabilize)
    state.trace.append(state.objective)
    reallocate(state)
    state.trace.append(state.objective)
    return state


def audit_stability(state: GameState) -> list:
    """Every single transfer and same-class swap of the HRD game, then of the
    CSD game, valued as one ``_Block`` per game from running sums rebuilt
    from the member lists, never from ``state.sums``; returns the feasible
    moves that improve by more than ``IMPROVE_MARGIN``, in ``_neighbourhood``
    order (empty list == Nash-stable).  Only the flagged moves that
    ``_Block.screen`` passes are valued exactly; the others cannot
    improve."""
    found = []
    for game in (HRD, CSD):
        lists = _member_lists(state, game)
        block, _ = _neighbourhood_block(
            state, CoalitionSums(state.costs, game, lists),
            _neighbourhood(_association(state, game).size, len(lists)), 0)
        feasible = block.feasible & ~block.floor
        for q in block.screen(len(block))[0]:
            block.dv[q], feasible[q] = block.value(q)
        for q in np.flatnonzero(feasible
                                & (block.dv < -IMPROVE_MARGIN)).tolist():
            prop = block.proposal(q)
            prop.dv, prop.feasible = block.dv.item(q), True
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
