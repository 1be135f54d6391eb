"""The README's pointers into the code, and the module-qualified and
private ones of the package's docstrings and of the test reference,
resolve: a renamed or deleted name fails here instead of leaving a stale
pointer.  Every module of the package, the tests and the benchmark reads
each name it imports, and every function of the package reads each of its
parameters: no linter is installed, so these tests are the gate.  The
names of the package that the tests patch, and its private names that
they read, are listed with a reason each.  The third-party modules that
the package imports are its declared dependencies, and those of the
tests and the benchmark are covered by them and the ``test`` extra.  One
AST walk of each module (``_Scan``) feeds all of these gates.  Each
mutant of the catalogue (``tests/tools/mutants.py``) finds its text."""

import ast
import dataclasses
import functools
import importlib
import pkgutil
import re
import sys
from pathlib import Path

import pytest

import mecsim
from mecsim import association, experiments
from mecsim.scenario import Counts, SystemParams, generate_scenario
from fingerprint import demand_for
from mutants import MUTANTS
from test_experiments import AUDIT_MUTANTS

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(mecsim.__file__).resolve().parent
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


def test_docstring_names_resolve():
    paths = sorted(PACKAGE.glob("*.py")) + [REFERENCE]
    names = {name for path in paths for doc in _scan(path).docs
             for name in _dotted_names(doc)}
    assert len(names) >= 20, names
    for name in sorted(names):
        _resolve(name)
    # Each double-backticked private name (``_name``, ``_Name.attr``)
    # resolves in its own module, or in the ``mecsim`` module its first
    # part names.
    private = 0
    for path in paths:
        for doc in _scan(path).docs:
            for name in re.findall(r"``(_[A-Za-z]\w*(?:\.[A-Za-z_]\w*)*)``",
                                   doc):
                parts = name.split(".")
                obj = importlib.import_module(
                    f"mecsim.{parts.pop(0)}" if parts[0] in MODULES
                    else "reference" if path == REFERENCE else "mecsim"
                    if path.stem == "__init__" else f"mecsim.{path.stem}")
                for part in parts:
                    assert hasattr(obj, part), f"{path.name}: ``{name}``"
                    obj = getattr(obj, part)
                private += 1
    assert private >= 40, private


def _spelled(module, node):
    """The names of ``mecsim.<module>`` that ``node``, a str constant or an
    f-string, can spell: its own name, or every name of the module that
    the f-string's pattern matches; none for any other node."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return {node.value}
    if not isinstance(node, ast.JoinedStr) or module not in MODULES:
        return set()
    pattern = "".join(re.escape(v.value) if isinstance(v, ast.Constant)
                      else r"\w+" for v in node.values)
    return {name for name in dir(importlib.import_module(f"mecsim.{module}"))
            if re.fullmatch(pattern, name)}


class _Scan(ast.NodeVisitor):
    """One walk over the module at ``path``: the names its imports bind
    (``imported``), the names it loads (``read``), the top-level modules
    of its absolute imports (``top``), and each ``(function, parameter)``
    that a function never reads (``unread``; the function by its qualified
    name after the module's, ``self`` and ``cls`` not counted).  Of the
    ``mecsim`` modules it imports (aliases resolved): each ``module.name``
    that a ``setattr`` patches, by the innermost functions that patch it
    (``patched``), and each private name (any of ``_kernels``, a
    ``_``-prefixed one elsewhere) that it imports or reads, as an attribute
    or by ``getattr`` (``private``).  A str constant or f-string names what
    ``_spelled`` gives; any other ``setattr`` stands for the names that
    ``PATCH_TABLES`` lists for its function (none, if it lists none).
    ``docs`` holds the docstrings of the module, its classes and functions."""

    def __init__(self, path):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        self.file, self.scope = path.name, [path.stem]
        self.modules = {a.asname or a.name: a.name for node in ast.walk(tree)
                        for a in getattr(node, "names", ())
                        if isinstance(node, ast.ImportFrom)
                        and node.module == "mecsim"
                        or isinstance(node, ast.Import) and a.name == "mecsim"}
        self.imported, self.read, self.top = set(), set(), set()
        self.unread, self.patched, self.private = [], {}, {}
        self.docs = [doc for node in ast.walk(tree) if isinstance(node, (
            ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and (doc := ast.get_docstring(node, clean=False))]
        self.visit(tree)

    def visit_Import(self, node):
        self.imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        self.top |= {a.name.split(".")[0] for a in node.names}

    def visit_ImportFrom(self, node):
        if node.module != "__future__":
            self.imported |= {a.asname or a.name for a in node.names}
        if node.level == 0:
            self.top.add(node.module.split(".")[0])
            if node.module.startswith("mecsim."):
                self._private(node.module[7:], {a.name for a in node.names})

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load):
            self.read.add(node.id)

    def visit_FunctionDef(self, node):
        args = node.args
        read = {n.id for n in ast.walk(node)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        self.unread += [(".".join(self.scope + [node.name]), a.arg) for a in
                        args.posonlyargs + args.args + args.kwonlyargs
                        + [args.vararg, args.kwarg]
                        if a and a.arg not in read | {"self", "cls"}]
        self._enter(node)

    visit_AsyncFunctionDef = visit_FunctionDef

    def _enter(self, node):
        """Visit the body of ``node`` in its own scope."""
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = _enter

    def visit_Attribute(self, node):
        owner = ast.unparse(node.value)
        self._private(self.modules.get(owner) or owner.partition("mecsim.")[2],
                      {node.attr})
        self.generic_visit(node)

    def visit_Call(self, node):
        call = getattr(node.func, "attr", getattr(node.func, "id", None))
        if call in ("getattr", "setattr"):
            target, name = (node.args + [None, None])[:2]
            module = self.modules.get(getattr(target, "id", None))
            names = module and _spelled(module, name)
            if call == "getattr" and names:
                self._private(module, names)
            elif call == "setattr":
                func = self.scope[-1]
                for patched in ({f"{module}.{n}" for n in names} if names
                                else PATCH_TABLES.get(func, {f"? {func}"})):
                    self.patched.setdefault(patched, []).append(func)
        self.generic_visit(node)

    def _private(self, module, names):
        if module in MODULES:
            for name in names:
                if module.startswith("_") or name.startswith("_"):
                    self.private[f"{module}.{name}"] = [self.file]


_scan = functools.cache(_Scan)
TESTS = sorted((ROOT / "tests").glob("*.py")) + sorted(
    (ROOT / "tests" / "tools").glob("*.py"))


def test_every_import_is_read():
    paths = [path for folder in (PACKAGE, ROOT / "perfbench")
             for path in sorted(folder.glob("*.py"))] + TESTS
    assert len(paths) >= 25, paths
    # The package's ``__init__`` imports only to re-export.
    unread = {f"{path.parent.name}/{path.name}": names for path in paths
              if path != PACKAGE / "__init__.py"
              and (names := sorted(_scan(path).imported - _scan(path).read))}
    assert unread == {}


def _third_party_imports(paths):
    """The top-level modules that the modules ``paths`` import, other than
    the standard library, ``mecsim`` and their own modules."""
    local = {path.stem for path in paths} | {"mecsim"}
    return set().union(*(_scan(path).top for path in paths)) - local \
        - set(sys.stdlib_module_names)


def test_imports_are_the_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")      # Python 3.11 on
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    runtime, test = ({re.match(r"[A-Za-z0-9_.-]+", r).group().lower()
                      .replace("-", "_") for r in requirements}
                     for requirements in (project["dependencies"], project[
                         "optional-dependencies"]["test"]))
    assert _third_party_imports(list(PACKAGE.glob("*.py"))) == runtime \
        == {"numpy"}
    for paths in (TESTS, list((ROOT / "perfbench").glob("*.py"))):
        assert _third_party_imports(paths) <= runtime | test, paths[0].parent


# Parameters that a function keeps without reading them, with the reason.
UNREAD_PARAMETERS = {
    # perfbench's tracer names the phase by the positional ``args[1]``.
    ("association.stabilize_partition", "game"),
    # perfbench's ``run_audits`` passes the state's scenario first; the
    # audit reads the rate table it is given.
    ("delays.audit_constraints", "scenario"),
}


def test_every_parameter_is_read():
    unread = {item for path in sorted(PACKAGE.glob("*.py"))
              for item in _scan(path).unread}
    assert unread == UNREAD_PARAMETERS


# The package's names that the tests patch (``setattr`` on a module), each
# with the reason that neither ``GameState.phases``, the move log, a public
# call, the goldens nor the one-row reference of ``tests/reference.py`` can
# stand in for the patch.
PATCHED_NAMES = {
    "association.game_budget": "plays games on other budgets, and records "
        "the budget each game asks for",
    "association.stabilize_partition": "the remaining-moves audit mutant",
    "association.hrd_value": "checks each exact valuation against the "
        "numerical optimum, which no record holds",
    "association.CoalitionSums": "counts the running sums each game builds",
    "association._write_coalition": "reads each install with the moves "
        "logged before it",
    "association.SWEEP_CHUNK": "a smaller first sweep chunk, which must "
        "change no result",
    "_kernels._hrd_lists": "pairs each closed-form solve with its members",
    "_kernels.hrd_closed_form": "counts the closed-form solves, which no "
        "record counts",
    **dict.fromkeys(("_kernels.csd_alloc", "_kernels.hrd_alloc"),
                    "the swapped-shares audit mutants"),
    "allocation.dual_bound": "the bound-above-the-delay audit mutant",
    **dict.fromkeys(("experiments.abcg_init", "experiments.run_amnd",
                     "cli.abcg_init", "cli.run_amnd"),
                    "counts the solves that a command makes"),
    "scenario.rng_streams": "records the placement draws for the reference",
    "scenario._COLLOCATION_EPS_M": "widens the collocation distance",
}
# The tests and fixtures that patch names from a table, not a literal
# module and name, with the names that their tables hold.
PATCH_TABLES = {
    "solves": {"experiments.abcg_init", "experiments.run_amnd",
               "cli.abcg_init", "cli.run_amnd"},
    "_mutate": {f"{module.__name__.split('.')[-1]}.{name}"
                for (module, name, _), *_ in AUDIT_MUTANTS.values()},
}
# The private names of the package that the tests import or read, with the
# reason that no public name serves the test.
PRIVATE_READS = {
    **dict.fromkeys(
        ("_kernels.BYTES_TOL", "_kernels.FEAS_TOL", "_kernels.IDLE_FRAC",
         "_kernels.csd_value", "_kernels.hrd_value", "_kernels.csd_summary",
         "_kernels.hrd_summary", "_kernels.hrd_closed_form",
         "_kernels._hrd_lists", "_kernels._hrd_solved", "_kernels.csd_alloc",
         "_kernels.hrd_alloc", "_kernels._sum", "_kernels.root_shares"),
        "the closed forms, write paths, memo, summation and tolerances, "
        "checked against the numerical optimum and used by the references"),
    **dict.fromkeys(
        ("association._Block", "association._move_rows",
         "association._commit", "association._member_lists",
         "association._write_coalition"),
        "the one-row reference values, commits and installs a move"),
    **dict.fromkeys(
        ("association._neighbourhood", "association._neighbourhood_block",
         "association._association", "association._tentative_members"),
        "every move of a game in the sweep's order, for the references"),
    "association._draw_weights": "the law of a drawn move",
    "association._random_phase": "random phases from chosen partitions, "
        "budgets and generators",
    "cli._scenario_from_args": "the instance that ``mecsim audit`` solves",
    **dict.fromkeys(
        ("scenario._drop_nodes", "scenario._MAX_PLACEMENT_RETRIES",
         "scenario._COLLOCATION_EPS_M"),
        "the placement and its limits, for the one-node-at-a-time reference"),
}


def _stray(kind, listed):
    """The names of kind ``kind`` (``_Scan.patched`` or ``.private``) that
    the test modules hold, with where they hold them, that ``listed`` does
    not hold, and those it holds that no module has: empty where the two
    agree.  Every listed name resolves."""
    found = {}
    for path in TESTS:
        for name, where in getattr(_scan(path), kind).items():
            found.setdefault(name, []).extend(where)
    for name in listed:
        _resolve(name)
    return {name: found.get(name, "listed, not found")
            for name in set(found) ^ set(listed)}


def test_patched_names_are_listed():
    assert _stray("patched", PATCHED_NAMES) == {}


def test_private_reads_are_listed():
    assert _stray("private", PRIVATE_READS) == {}


def test_each_mutant_text_occurs_once():
    # Code that moves takes the catalogue's search texts with it.
    assert len(MUTANTS) >= 19
    for name, mutant in MUTANTS.items():
        text = (PACKAGE / mutant.path).read_text(encoding="utf-8")
        assert text.count(mutant.old) == 1, name


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
