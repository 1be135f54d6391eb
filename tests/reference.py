"""The one-proposal-at-a-time coalition game move, the reference that the
library's games are checked against.

``propose_move`` draws one move from a game's stream, ``evaluate_and_apply``
values it as a block of one row and commits it if it wins.  The
stabilization sweep (``association.stabilize_partition``) matches a loop of
these to the last bit; the random phase (``association._random_phase``)
matches a loop of these in law, and ``association._draw_weights`` states
that law.

Every library call goes through the ``association`` module, so a test that
patches ``association._commit`` (the step that counts, applies and logs an
accepted move) or ``association._write_coalition`` sees the reference's
calls too.
"""

import numpy as np

from mecsim import association
from mecsim.association import MoveProposal

MASK32 = 0xFFFFFFFF
# Attempts ``propose_move`` makes before it gives up.
ATTEMPTS = 2048


def _bounded(u: int, n: int):
    """Lemire's multiply-shift of the uint32 ``u`` into [0, n), or None where
    ``u`` falls in its rejection zone, the ``2**32 % n`` lowest products,
    which would bias the result (Lemire, "Fast random integer generation
    in an interval", ACM TOMACS 2019).  A bound of 1 has no zone."""
    m = u * n
    return None if m & MASK32 < (1 << 32) % n else m >> 32


def propose_move(state, game: str, rng) -> MoveProposal:
    """Draw one candidate move: two distinct coalitions holding a member; a
    member transfers into an empty one, otherwise one member from each side
    is swapped.

    Each attempt reads three values ``(u0, u1, u2)`` of the stream.
    ``u0`` picks the ordered pair ``(m, n)`` by multiply-shift with bound
    ``C * (C - 1)`` over C coalitions, ``n`` skipping ``m``; ``u1`` picks
    the member leaving the nonempty side (``m``, unless it is empty), and
    ``u2`` the member leaving the other side, which a transfer reads but
    does not use.  An attempt is skipped when its pair holds no member, or
    when a draw it uses falls in Lemire's rejection zone (``_bounded``), so
    the pair is uniform among the pairs holding a member, and the members
    are uniform.  ``rng`` is a ``Generator``, or a callable returning the
    next uint32 of its stream (``next_uint32``); both draw the same moves,
    as numpy draws each full-range uint32 with one ``next_uint32`` call.

    The fixed slot fixes which stream values an attempt reads, not the law
    of the drawn moves (``association._draw_weights``).
    """
    if isinstance(rng, np.random.Generator):
        def next_uint32():
            return int(rng.integers(1 << 32, dtype=np.uint32))
    else:
        next_uint32 = rng
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


def _evaluate(state, prop: MoveProposal):
    """Value a move as a block of one row, setting its ``dv`` (+inf where a
    side is infeasible); returns the block."""
    swap, sums = np.array([prop.md_to is not None]), state.sums[prop.game]
    rows = association._move_rows(
        swap, np.array([prop.md_from]),
        np.array([prop.md_to if swap[0] else sums.none]))
    block = association._Block(state, sums, swap, rows,
                               np.array([[prop.c_from], [prop.c_to]]))
    prop.dv = block.value(0)
    return block


def evaluate_and_apply(state, prop: MoveProposal) -> bool:
    """Accept the proposal iff both tentative coalitions are feasible and
    their combined utility improves by more than
    ``association.IMPROVE_MARGIN`` (an infeasible side makes ``dv`` +inf),
    commit it (``association._commit``) and install both coalitions at
    once; a rejection is counted and leaves the state otherwise untouched."""
    block = _evaluate(state, prop)
    if not prop.dv < -association.IMPROVE_MARGIN:
        state.proposals += 1
        return False
    association._commit(state, block, 0)
    lists = association._member_lists(state, prop.game)
    for c in (prop.c_from, prop.c_to):
        association._write_coalition(state, prop.game, c, lists[c])
    return True
