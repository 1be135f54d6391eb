"""The README's pointers into the code, and the module-qualified and
private ones of the package's docstrings and of the test reference,
resolve: a renamed or deleted name fails here instead of leaving a stale
pointer.  Every module of the package, the tests and the benchmark reads
each name it imports, and every function of the package reads each of its
parameters: no linter is installed, so these tests are the gate.  The
names of the package that the tests patch, and its private names that
they read, are listed with a reason each.  The third-party modules that
the package imports are its declared dependencies, and those of the
tests and the benchmark are covered by them and the ``test`` extra."""

import ast
import dataclasses
import importlib
import pkgutil
import re
import sys
from pathlib import Path

import pytest

import mecsim
from mecsim import association, experiments
from mecsim.scenario import Counts, SystemParams, generate_scenario
from conftest import demand_for

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
REFERENCE = ROOT / "tests" / "reference.py"
MODULES = {m.name for m in pkgutil.iter_modules(mecsim.__path__)}


def _dotted_names(text):
    """Every backticked dotted name outside fenced blocks whose first part
    is ``mecsim`` or one of its modules."""
    text = re.sub(r"(?ms)^```.*?^```", "", text)
    names = re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`", text)
    return sorted({n for n in names
                   if n.split(".")[0] in MODULES | {"mecsim"}})


def _resolve(name):
    parts = name.split(".")
    obj = mecsim
    for part in parts[parts[0] == "mecsim":]:
        if obj is mecsim and part in MODULES:
            obj = importlib.import_module(f"mecsim.{part}")
        elif hasattr(obj, part):
            obj = getattr(obj, part)
        elif dataclasses.is_dataclass(obj) and part in {
                f.name for f in dataclasses.fields(obj)}:
            return
        else:
            raise AttributeError(f"{name}: no {part!r} in {obj!r}")


def test_readme_names_resolve():
    names = _dotted_names(README.read_text(encoding="utf-8"))
    assert len(names) >= 20, names
    for name in names:
        _resolve(name)


def _docstrings(path):
    """Every docstring of the module at ``path``: its own, its classes'
    and its functions'."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            doc = ast.get_docstring(node, clean=False)
            if doc:
                yield doc


def _resolve_private(module, name):
    """Resolve the private name ``name`` (``_name``, ``_Name.attr``) in
    ``module``, or in the ``mecsim`` module that its first part names."""
    first, *rest = name.split(".")
    obj = (importlib.import_module(f"mecsim.{first}") if first in MODULES
           else getattr(module, first))
    for part in rest:
        obj = getattr(obj, part)


def test_docstring_names_resolve():
    paths = sorted(Path(mecsim.__file__).resolve().parent.glob("*.py"))
    names = {name for path in paths + [REFERENCE]
             for doc in _docstrings(path) for name in _dotted_names(doc)}
    assert len(names) >= 20, names
    for name in sorted(names):
        _resolve(name)
    # Each double-backticked private name resolves in its own module.
    private = 0
    for path in paths + [REFERENCE]:
        for doc in _docstrings(path):
            for name in re.findall(r"``(_[A-Za-z]\w*(?:\.[A-Za-z_]\w*)*)``",
                                   doc):
                module = importlib.import_module(
                    "reference" if path == REFERENCE else "mecsim"
                    if path.stem == "__init__" else f"mecsim.{path.stem}")
                try:
                    _resolve_private(module, name)
                except AttributeError as err:
                    raise AssertionError(f"{path.name}: ``{name}``") from err
                private += 1
    assert private >= 40, private


def _unread_imports(path):
    """The names that the module at ``path`` imports and never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(imported - read)


def test_every_import_is_read():
    package = Path(mecsim.__file__).resolve().parent
    paths = [path for folder in (package, ROOT / "tests", ROOT / "perfbench")
             for path in sorted(folder.glob("*.py"))]
    assert len(paths) >= 25, paths
    # The package's ``__init__`` imports only to re-export.
    unread = {f"{path.parent.name}/{path.name}": names for path in paths
              if path != package / "__init__.py"
              and (names := _unread_imports(path))}
    assert unread == {}


def _third_party_imports(folder):
    """The top-level modules that the modules in ``folder`` import, other
    than the standard library, ``mecsim`` and the folder's own modules."""
    local = {path.stem for path in folder.glob("*.py")} | {"mecsim"}
    found = set()
    for path in folder.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                found |= {a.name.split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add(node.module.split(".")[0])
    return found - local - set(sys.stdlib_module_names)


def _requirement_names(requirements):
    """The distribution names of PEP 508 requirement strings."""
    return {re.match(r"[A-Za-z0-9_.-]+", r).group().lower().replace("-", "_")
            for r in requirements}


def test_imports_are_the_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")      # Python 3.11 on
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    runtime = _requirement_names(project["dependencies"])
    test = _requirement_names(project["optional-dependencies"]["test"])
    package = Path(mecsim.__file__).resolve().parent
    assert _third_party_imports(package) == runtime == {"numpy"}
    for folder in (ROOT / "tests", ROOT / "perfbench"):
        assert _third_party_imports(folder) <= runtime | test, folder.name


# Parameters that a function keeps without reading them, with the reason.
UNREAD_PARAMETERS = {
    # perfbench's tracer names the phase by the positional ``args[1]``.
    ("association.stabilize_partition", "game"),
    # perfbench's ``run_audits`` passes the state's scenario first; the
    # audit reads the rate table it is given.
    ("delays.audit_constraints", "scenario"),
}


def _unread_parameters(path):
    """``(function, parameter)`` for each parameter that a function of the
    module at ``path`` never reads, the function named by its qualified
    name after the module's; ``self`` and ``cls`` are not counted."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                params = [a.arg for a in (args.posonlyargs + args.args
                                          + args.kwonlyargs
                                          + [args.vararg, args.kwarg]) if a]
                read = {n.id for n in ast.walk(child)
                        if isinstance(n, ast.Name)
                        and isinstance(n.ctx, ast.Load)}
                found.extend((prefix + child.name, p) for p in params
                             if p not in read and p not in ("self", "cls"))
                visit(child, f"{prefix}{child.name}.")

    visit(ast.parse(path.read_text(encoding="utf-8")), f"{path.stem}.")
    return found


def test_every_parameter_is_read():
    package = Path(mecsim.__file__).resolve().parent
    unread = {item for path in sorted(package.glob("*.py"))
              for item in _unread_parameters(path)}
    assert unread == UNREAD_PARAMETERS


# The package's names that the tests patch (``setattr`` on a module), each
# with the reason that neither ``GameState.phases``, the move log, a public
# call, the goldens nor the one-row reference of ``tests/reference.py`` can
# stand in for the patch.
PATCHED_NAMES = {
    "association.game_budget":
        "plays a game on other budgets, to end phases on t2 or patience, "
        "and records the budget each game asks for",
    "association.stabilize_partition":
        "the remaining-moves mutant of the audit, which leaves the random "
        "phase's partition unsettled",
    "association.hrd_value":
        "checks each exact valuation against the numerical optimum; the "
        "record counts them, but not their coalitions or values",
    "association.CoalitionSums":
        "counts the running sums each game builds, which is no phase's work",
    "association._write_coalition":
        "reads each install with the moves logged before it; installs are "
        "the allocation step's, not a phase's",
    "association.SWEEP_CHUNK":
        "shrinks the sweep's first chunk, which must change no result",
    "_kernels._hrd_lists": "pairs each closed-form solve with its members",
    "_kernels.hrd_closed_form":
        "counts the closed-form solves, which the memo makes once per "
        "coalition and member list; no record counts them",
    **dict.fromkeys(("_kernels.csd_alloc", "_kernels.hrd_alloc"),
                    "the swapped-shares mutant of the audit"),
    "allocation.dual_bound": "the bound-above-the-delay mutant of the audit",
    **dict.fromkeys(("experiments.abcg_init", "experiments.run_amnd",
                     "cli.abcg_init", "cli.run_amnd"),
                    "counts the solves that a command makes"),
    "scenario.rng_streams":
        "records the placement draws for the one-node-at-a-time reference",
    "scenario._COLLOCATION_EPS_M":
        "widens the collocation distance, so that placements collide",
}
# The tests and fixtures that patch names from a table, not a literal
# module and name, with the names that their tables hold.
PATCH_TABLES = {
    "solves": {"experiments.abcg_init", "experiments.run_amnd",
               "cli.abcg_init", "cli.run_amnd"},
    "_mutate": {"_kernels.csd_alloc", "_kernels.hrd_alloc",
                "allocation.dual_bound", "association.stabilize_partition"},
}


def _mecsim_modules(tree):
    """``{alias: module}`` of ``mecsim`` and of the modules that ``tree``
    imports from it."""
    return {a.asname or a.name: a.name for node in ast.walk(tree)
            for a in getattr(node, "names", ())
            if (isinstance(node, ast.ImportFrom) and node.module == "mecsim")
            or (isinstance(node, ast.Import) and a.name == "mecsim")}


def _patched_names(path):
    """``{"module.name": [test, ...]}``: what the test module at ``path``
    patches, by the test or fixture that patches it.  A ``setattr`` call
    whose first two arguments are a ``mecsim`` module and a string is read
    as written; any other one stands for the names that ``PATCH_TABLES``
    lists for its function (none, if it lists none)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules = _mecsim_modules(tree)
    found = {}

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                visit(child, child.name)
                continue
            callee = getattr(child, "func", None)
            if getattr(callee, "attr", getattr(callee, "id", None)) \
                    == "setattr":
                target, name = (child.args + [None, None])[:2]
                if isinstance(target, ast.Name) and target.id in modules \
                        and isinstance(name, ast.Constant) \
                        and isinstance(name.value, str):
                    names = {f"{modules[target.id]}.{name.value}"}
                else:
                    names = PATCH_TABLES.get(func, {f"? {func}"})
                for patched in names:
                    found.setdefault(patched, []).append(func)
            visit(child, func)

    visit(tree, None)
    return found


def _stray(scan, listed):
    """The names that ``scan`` finds in the test modules, with where it
    finds them, that ``listed`` does not hold, and those it holds that no
    module has: empty where the two agree.  Every listed name resolves."""
    found = {}
    for path in sorted((ROOT / "tests").glob("*.py")):
        for name, where in scan(path).items():
            found.setdefault(name, []).extend(where)
    for name in listed:
        _resolve(name)
    return {name: found.get(name, "listed, not found")
            for name in set(found) ^ set(listed)}


def test_patched_names_are_listed():
    assert _stray(_patched_names, PATCHED_NAMES) == {}
    # The audit mutants' table is read where it is kept.
    from test_experiments import AUDIT_MUTANTS
    assert {f"{module.__name__.split('.')[-1]}.{name}" for (module, name, _),
            *_ in AUDIT_MUTANTS.values()} == PATCH_TABLES["_mutate"]


# The private names of the package that the tests import or read: every
# name of ``_kernels`` and each ``_``-prefixed name of another module, with
# the reason that no public name serves the test.
PRIVATE_READS = {
    **dict.fromkeys(
        ("_kernels.BYTES_TOL", "_kernels.FEAS_TOL", "_kernels.IDLE_FRAC",
         "_kernels.csd_value", "_kernels.hrd_value", "_kernels.csd_summary",
         "_kernels.hrd_summary", "_kernels.hrd_closed_form",
         "_kernels._hrd_lists", "_kernels._hrd_solved", "_kernels.csd_alloc",
         "_kernels.hrd_alloc", "_kernels._sum", "_kernels.root_shares"),
        "the closed forms, write paths, memo, summation and tolerances that "
        "the library values and installs a coalition by: the tests check "
        "them against the numerical optimum and round their references by "
        "them"),
    **dict.fromkeys(
        ("association._Block", "association._move_rows",
         "association._commit", "association._member_lists",
         "association._write_coalition"),
        "the one-row reference (``tests/reference.py``) values a move as a "
        "block of one, commits it and installs its two coalitions"),
    **dict.fromkeys(
        ("association._neighbourhood", "association._neighbourhood_block",
         "association._association", "association._tentative_members"),
        "every move of a game in the sweep's order, which the scalar sweep "
        "walks, the checks value as one block and then from scratch"),
    "association._draw_weights":
        "the law of a drawn move, checked against ``propose_move``'s draws",
    "association._random_phase":
        "plays random phases from chosen partitions, on chosen budgets and "
        "generators, and before the reference sweep",
    "cli._scenario_from_args":
        "the instance that ``mecsim audit`` solves, audited in the library",
    **dict.fromkeys(
        ("scenario._drop_nodes", "scenario._MAX_PLACEMENT_RETRIES",
         "scenario._COLLOCATION_EPS_M"),
        "the placement and its limits, which the one-node-at-a-time "
        "reference checks"),
}


def _private_reads(path):
    """``{"module.name": [file]}``: the private names of the package that
    the test module at ``path`` imports from a ``mecsim`` module or reads
    as an attribute of one."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules, names = _mecsim_modules(tree), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and \
                node.module.startswith("mecsim."):
            names |= {f"{node.module[7:]}.{a.name}" for a in node.names}
        elif isinstance(node, ast.Attribute):
            owner = ast.unparse(node.value)
            owner = modules.get(owner) or owner.partition("mecsim.")[2]
            if owner in MODULES:
                names.add(f"{owner}.{node.attr}")
    return {name: [path.name] for name in names
            if name.startswith("_") or "._" in name}


def test_private_reads_are_listed():
    assert _stray(_private_reads, PRIVATE_READS) == {}


def _block_after(text, label):
    """The first fenced block after ``label``, without its fences."""
    found = re.search(re.escape(label) + r".*?^```\n(.*?)^```", text,
                      re.S | re.M)
    assert found, label
    return found.group(1)


def test_readme_sweep_columns_are_the_csv_columns():
    block = _block_after(README.read_text(encoding="utf-8"),
                         "**Sweep CSV.**")
    assert tuple(c.strip() for c in block.split(",")) == \
        experiments.CSV_COLUMNS


def test_readme_move_log_header_is_the_written_one(tmp_path):
    block = _block_after(README.read_text(encoding="utf-8"), "**Move log.**")
    scn = generate_scenario(SystemParams(seed=0), Counts(n_hrd=3, n_csd=2))
    path = tmp_path / "moves.csv"
    association.write_move_log(
        association.run_amnd(scn, demand_for(scn, seed=0)), path)
    assert block == path.read_text(encoding="utf-8").splitlines(True)[0]
