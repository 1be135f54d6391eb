"""The mutant catalogue: named faults of the library, each an exact text
substitution in one ``src/mecsim`` file, and a runner that shows which
tests catch each one (mutation analysis: DeMillo, Lipton & Sayward, "Hints
on test data selection", IEEE Computer 11(4), 1978; Jia & Harman, "An
analysis and survey of the development of mutation testing", IEEE TSE
37(5), 2011).

    python tests/tools/mutants.py [--against REV]

For the tree as it is on disk when the run starts (its tracked and
unignored files), the runner runs the Tier-1 command once unmutated and
once per mutant, each time in a fresh temporary copy with the mutant
applied, as many copies at once as the machine has cores, and prints the
ids of the tests that fail on the mutant and not on the unmutated copy.
A run that outlasts ``TIMEOUT_S`` counts as caught, under the id
``timeout``.  The anchor gate below is deselected: an applied mutant has
removed its own search text.  With
``--against REV`` it does the same for the tree of the git revision
``REV`` (``git archive``) and prints both columns, with the tests that
catch a mutant in one tree only.  It exits 1 when a mutant escapes every
test of this tree.  Stopped by SIGTERM or SIGINT, it kills every running
Tier-1 run with the processes it started, starts no other, removes its
temporary copies and exits 128 plus the signal's number.

pytest does not collect this file; ``tests/test_readme.py`` checks that
each mutant's search text occurs exactly once in its file
(``ANCHOR_GATE``), so a change that moves the code must move the catalogue
with it.
"""

import argparse
import os
import re
import shutil
import signal
import subprocess
import sys
import tarfile
import tempfile
import threading
from concurrent.futures import ThreadPoolExecutor
from io import BytesIO
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[2]
ANCHOR_GATE = "tests/test_readme.py::test_each_mutant_text_occurs_once"
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider", "-rfE", "--deselect", ANCHOR_GATE]
# Tier-1 runs in under a minute unmutated; a mutant that makes a loop run
# forever is stopped here.
TIMEOUT_S = 600
# The running Tier-1 runs, and whether the runner is stopping (``_stop``);
# the lock orders a start against a stop.
_RUNNING = set()
_STOPPING = threading.Event()
_LOCK = threading.Lock()


class Mutant(NamedTuple):
    path: str    # the file, under ``src/mecsim``
    old: str     # text that occurs exactly once in it
    new: str     # its replacement
    fault: str   # what the mutant breaks


MUTANTS = {
    "swapped-csd": Mutant(
        "_kernels.py",
        "        alpha[k], gamma[k] = a, g\n    return value\n",
        "        alpha[k], gamma[k] = a, g\n"
        "    if len(members) > 1:\n"
        "        i, j = members[:2]\n"
        "        alpha[i], alpha[j] = alpha[j], alpha[i]\n"
        "        gamma[i], gamma[j] = gamma[j], gamma[i]\n"
        "    return value\n",
        "the first two members of a CSD coalition swap their shares"),
    "swapped-hrd": Mutant(
        "_kernels.py",
        "            eta[p] = IDLE_FRAC if hit[p] else next(bh)\n"
        "    return value\n",
        "            eta[p] = IDLE_FRAC if hit[p] else next(bh)\n"
        "    if len(members) > 1:\n"
        "        i, j = (costs.pair_off[k] for k in members[:2])\n"
        "        beta[i], beta[j] = beta[j], beta[i]\n"
        "    return value\n",
        "the first pairs of two HRD members swap their downlink shares"),
    "bound-above-delay": Mutant(
        "allocation.py",
        "    return math.fsum(terms) - multipliers[0] - multipliers[1]",
        "    return 10.0 * (math.fsum(terms) - multipliers[0] - multipliers[1])",
        "the dual bound lies ten times too high"),
    "remaining-moves": Mutant(
        "association.py",
        "    stabilize_partition(state, game, sums)\n", "",
        "no stabilization sweep: the random phase leaves improving moves"),
    "chunk-stops-doubling": Mutant(
        "association.py",
        "pos, chunk = pos + chunk, 2 * chunk",
        "pos, chunk = pos + chunk, chunk",
        "a sweep block without a winner no longer doubles the next"),
    "uniform-winner": Mutant(
        "association.py",
        'pick = np.searchsorted(cum, rng.random() * cum[-1], side="right")',
        "pick = int(rng.random() * wins.size)",
        "the random phase draws its winner uniformly, not by its weight"),
    "phantom-tail": Mutant(
        "association.py",
        '    _log_phase(state, sums.game, "stabilize", start, blocks, rows, '
        'exact)\n',
        "    state.proposals += (2 * n - end) % max(n, 1)\n"
        '    _log_phase(state, sums.game, "stabilize", start, blocks, rows, '
        'exact)\n',
        "the sweep counts the moves of its final cycle before the wrap "
        "twice"),
    "audit-skips-swaps": Mutant(
        "association.py",
        "        for q in np.flatnonzero(block.improving()).tolist():",
        "        for q in np.flatnonzero(block.improving() & ~block.swap"
        ").tolist():",
        "the stability audit reports no improving swap"),
    "patience-zero-ignored": Mutant(
        "association.py",
        "while (budget := min(t2 - done, patience)) > 0:",
        "while (budget := min(t2 - done, patience or t2)) > 0:",
        "a patience of 0 does not end the random phase"),
    "budget-swapped": Mutant(
        "association.py",
        "*game_budget(state.demand.n_hrd, state.demand.n_csd))",
        "*game_budget(state.demand.n_hrd, state.demand.n_csd)[::-1])",
        "a game passes its budget as (patience, t2)"),
    "sweep-chunk-256": Mutant(
        "association.py", "SWEEP_CHUNK = 2048", "SWEEP_CHUNK = 256",
        "a desk sweep cycle no longer fits in one block"),
    "patience-not-budget-left": Mutant(
        "association.py",
        "            state.proposals += budget\n",
        "            state.proposals += patience\n",
        "a partition without a winner counts the patience, not the budget "
        "left"),
    "commit-installs": Mutant(
        "association.py",
        "        block.cache[c] = block.sums.refresh(c, members)\n",
        "        block.cache[c] = block.sums.refresh(c, members)\n"
        "        _write_coalition(state, game, c, members)\n",
        "every accept installs its two coalitions"),
    "improve-margin-1e-9": Mutant(
        "association.py", "IMPROVE_MARGIN = 1e-12", "IMPROVE_MARGIN = 1e-9",
        "a move must gain 1e-9 to be accepted"),
    "sweep-skips-swaps": Mutant(
        "association.py",
        "        wins = block.improving().nonzero()[0]\n"
        "        blocks, rows = blocks + 1, rows + len(block)\n"
        "        exact += block.exact\n"
        "        if not wins.size:\n"
        "            state.proposals += len(block)\n",
        "        wins = (block.improving() & ~block.swap).nonzero()[0]\n"
        "        blocks, rows = blocks + 1, rows + len(block)\n"
        "        exact += block.exact\n"
        "        if not wins.size:\n"
        "            state.proposals += len(block)\n",
        "the stabilization sweep accepts no swap"),
    "ordering-test-loose": Mutant(
        "_kernels.py",
        "if max([r * d[i] / s for i, s, r in miss]) * s_b <= s_d:",
        "if max([r * d[i] / s for i, s, r in miss]) * s_b <= 2.0 * s_d:",
        "the closed form keeps square-root shares where an ordering binds"),
    "slack-downlink-never": Mutant(
        "_kernels.py", "if _sum(h) <= total:", "if _sum(h) <= 0.0 * total:",
        "an all-missed coalition never leaves its downlink budget slack"),
    "newton-3-steps": Mutant(
        "_kernels.py", "NEWTON_MAX_ITER = 100", "NEWTON_MAX_ITER = 3",
        "the coupled root stops after three Newton steps"),
    "bound-share-halved-price": Mutant(
        "_kernels.py", "ci = math.sqrt(k / (1.0 + w))",
        "ci = math.sqrt(k / (1.0 + 0.5 * w))",
        "a bound pair's downlink share takes half its backhaul price"),
    "margin-absolute": Mutant(
        "association.py", "-MARGIN_REL * held", "-0.0 * held",
        "a move is judged against the absolute margin alone, so rounding "
        "passes for a gain"),
    "placement-reuses-rejected-pair": Mutant(
        "scenario.py",
        "u = np.concatenate((u[:2 * bad], u[2 * bad + 2:], rng.random(2)))",
        "rng.random(2)",
        "a collocated node is laid out again on its own rejected pair"),
    "demand-round-overdraws": Mutant(
        "content.py", "rng.random(size - len(found))",
        "rng.random(size - len(found) + bool(found))",
        "a later round of a distinct pick draws one double too many"),
}


def _tree_files(root: Path):
    """The tracked and unignored files of the working tree at ``root``."""
    out = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=root, capture_output=True, check=True).stdout
    return [name for name in out.decode().split("\0")
            if name and (root / name).is_file()]


def _copy_tree(rev, dest: Path) -> None:
    """The working tree (``rev`` None) or the tree of ``rev``, at ``dest``."""
    if rev is None:
        for name in _tree_files(ROOT):
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, dest / name)
        return
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def apply(mutant: Mutant, root: Path) -> None:
    """Apply ``mutant`` to the tree at ``root``; its search text must occur
    there exactly once."""
    path = root / "src" / "mecsim" / mutant.path
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        raise ValueError(f"{mutant.path}: the search text occurs "
                         f"{text.count(mutant.old)} times")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


def failing_tests(tree: Path, mutant):
    """The ids of the tests that fail in a fresh copy of the tree at
    ``tree`` with ``mutant`` (or none) applied, or None where the mutant's
    search text is not found once there or the runner stops.  A run that
    outlasts ``TIMEOUT_S`` fails the single id ``timeout``."""
    if _STOPPING.is_set():
        return None
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        root = Path(tmp) / "tree"
        shutil.copytree(tree, root)
        if mutant is not None:
            try:
                apply(mutant, root)
            except ValueError:
                return None
        out = _tier1(root)
    if out is None:
        return None if _STOPPING.is_set() else ["timeout"]
    return sorted({m.group(2) for m in re.finditer(
        r"^(FAILED|ERROR) (\S+)", out, re.M)})


def _tier1(root: Path):
    """The output of the Tier-1 command at ``root``, or None where it
    outlasts ``TIMEOUT_S`` or the runner stops.  The run leads its own
    process group, which is killed then, with every process it started."""
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    with _LOCK:
        if _STOPPING.is_set():
            return None
        proc = subprocess.Popen(
            [sys.executable, *TIER1], cwd=root, env=env, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            start_new_session=True)
        _RUNNING.add(proc)
    try:
        out = proc.communicate(timeout=TIMEOUT_S)[0]
    except subprocess.TimeoutExpired:
        _kill(proc)
        proc.communicate()
        out = None
    with _LOCK:
        _RUNNING.discard(proc)
    return None if _STOPPING.is_set() else out


def _kill(proc) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _stop(signum, frame):
    """SIGTERM or SIGINT: kill the running Tier-1 runs and start no
    other; the ``SystemExit`` unwinds the runner, which removes its
    copies."""
    with _LOCK:
        _STOPPING.set()
        for proc in _RUNNING:
            _kill(proc)
    raise SystemExit(128 + signum)


def catalogue_run(rev):
    """``{name: failing ids}`` for every mutant in the tree of ``rev``, less
    the ids that fail there unmutated (under the key None)."""
    keys = [None, *MUTANTS]
    with tempfile.TemporaryDirectory(prefix="mutants-") as tree, \
            ThreadPoolExecutor(os.cpu_count()) as pool:
        _copy_tree(rev, Path(tree))
        runs = dict(zip(keys, pool.map(
            lambda k: failing_tests(Path(tree), k and MUTANTS[k]), keys)))
    clean = set(runs[None])
    return {k: ids if k is None or ids is None
            else sorted(set(ids) - clean) for k, ids in runs.items()}


def _count(ids):
    return "n/a" if ids is None else str(len(ids))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="REV",
                        help="also run the catalogue on this revision's tree")
    args = parser.parse_args(argv)
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, _stop)
    trees = {"here": catalogue_run(None)}
    if args.against:
        trees[args.against] = catalogue_run(args.against)
    for tree, runs in trees.items():
        if runs[None]:
            print(f"failing unmutated at {tree}: {' '.join(runs[None])}")
    # Columns: the other revision first, then this tree; below each mutant,
    # its catching tests, marked + (here only) or - (there only).
    print(f"{'mutant':26}" + "".join(f"{tree:>13}"
                                     for tree in reversed(trees)))
    here = trees["here"]
    there = trees.get(args.against, here)
    for name in MUTANTS:
        print(f"{name:26}" + "".join(f"{_count(runs[name]):>13}"
                                     for runs in reversed(trees.values())))
        ours, theirs = set(here[name] or ()), set(there[name] or ())
        for test in sorted(ours | theirs):
            mark = " " if test in ours & theirs else "+" if test in ours \
                else "-"
            print(f"    {mark} {test}")
    escaped = [name for name in MUTANTS if not here[name]]
    if escaped:
        print(f"escaped: {' '.join(escaped)}")
    return 1 if escaped else 0


if __name__ == "__main__":
    sys.exit(main())
