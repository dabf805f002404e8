"""Every module of the package uses each name it imports, every private
module-level name it defines is read somewhere in the package, every public
one has a caller outside the tests, and so has every keyword default; no
module builds a grid with linspace; every refusal of a count or of a
GRID_BUDGET overrun is check_count's or check_budget's; every report check
takes a named tolerance, and every tolerance keeps its value."""

import ast
import importlib
from pathlib import Path

import pytest
from test_readme import BLOCKS as README_BLOCKS

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ewlsim"
# __init__ imports to re-export, so its names are used by the package's callers
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names that the module's import statements bind and no expression reads."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_unused_imports_are_found():
    source = "import os\nimport numpy as np\nfrom math import pi, tau\nnp.sqrt(pi)\n"
    assert unused_imports(source) == ["os", "tau"]


@pytest.mark.parametrize("module", MODULES)
def test_module_has_no_unused_imports(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def _called(node: ast.Call) -> str | None:
    """The name a call calls, bare or as an attribute."""
    return getattr(node.func, "id", getattr(node.func, "attr", None))


def linspace_calls(source: str) -> list[int]:
    """The lines of the module's linspace calls, by name or as an attribute."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and _called(node) == "linspace"]


def test_linspace_calls_are_found():
    source = ("import numpy as np\nx = np.linspace(0.0, 1.0, 5)\n"
              "y = closed_grid(0.0, 1.0, 5)\nz = linspace(0.0, 1.0, 5)\n")
    assert linspace_calls(source) == [2, 4]


def test_every_grid_is_a_closed_grid():
    # one grid rule for the package: optimize.closed_grid, whose last point is
    # hi itself, where np.linspace's middle points differ from it by ulps
    assert [(path.name, line) for path in sorted(PACKAGE.glob("*.py"))
            for line in linspace_calls(path.read_text())] == []


# the texts of a refusal of a count or of a GRID_BUDGET overrun
SIZE_REFUSALS = (" must be >= ", " must be an integer", "(GRID_BUDGET)")


def size_refusals(source: str) -> list[int]:
    """The lines that hold a text of SIZE_REFUSALS outside the module's
    check_count and check_budget."""
    rules = {line for node in ast.parse(source).body
             if isinstance(node, ast.FunctionDef) and node.name in ("check_count", "check_budget")
             for line in range(node.lineno, node.end_lineno + 1)}
    return [line for line, text in enumerate(source.splitlines(), 1)
            if line not in rules and any(refusal in text for refusal in SIZE_REFUSALS)]


def test_size_refusals_are_found():
    source = ("def check_count(value, what, low=1):\n"
              "    raise ValueError(f'{what} must be an integer, got {value}')\n"
              "def check_budget(count, what):\n"
              "    raise ValueError(f'{what}, over the budget (GRID_BUDGET)')\n"
              "def f(n):\n    if n < 1:\n        raise ValueError(f'n must be >= 1, got {n}')\n"
              "x = 'm must be an integer'  # over GRID_BUDGET\n"
              "y = f'{k:,} rows, over the budget of {GRID_BUDGET:,} (GRID_BUDGET)'\n")
    assert size_refusals(source) == [7, 8, 9]


def test_every_size_refusal_is_check_count_or_check_budget():
    # one rule per refusal: each count a caller picks goes through
    # optimize.check_count, and each GRID_BUDGET overrun through check_budget
    assert [(path.name, line) for path in sorted(PACKAGE.glob("*.py"))
            for line in size_refusals(path.read_text())] == []


def check_tolerances(source: str) -> list[tuple[int, bool]]:
    """(line, named) for each of the module's make_check calls: whether its
    tolerance, the sixth argument or tol=, is a name, an attribute or a
    search_slack call, not a literal or an expression."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and _called(node) == "make_check":
            tol = (node.args[5] if len(node.args) > 5
                   else next((k.value for k in node.keywords if k.arg == "tol"), None))
            found.append((node.lineno, isinstance(tol, (ast.Name, ast.Attribute))
                          or isinstance(tol, ast.Call) and _called(tol) == "search_slack"))
    return found


def test_unnamed_tolerances_are_found():
    source = ("make_check('a', {}, 0.0, d, d, 1e-9)\n"
              "analysis.make_check('b', {}, 0.0, d, d, SIM_TOL, note='n')\n"
              "make_check('c', {}, 0.0, d, d, tol=-1e-6)\n"
              "make_check('d', {}, 0.0, d, d, analysis.search_slack(x, 0.0))\n"
              "make_check('e', {}, 0.0, d, d, 2 * SIM_TOL)\n"
              "make_check('f', {}, 0.0, d, d, tol)\n")
    assert check_tolerances(source) == [(1, False), (2, True), (3, False), (4, True),
                                        (5, False), (6, True)]


def test_every_check_takes_a_named_tolerance():
    # a row passes iff its deviation is at most its tolerance, so a tolerance
    # is a named constant (pinned below) or the search's own slack
    calls = [(path.name, line, named) for path in sorted(PACKAGE.glob("*.py"))
             for line, named in check_tolerances(path.read_text())]
    assert calls and [call for call in calls if not call[2]] == []


TOLERANCES = {
    "qstate.NORM_TOL": 1e-12,
    "qstate.UNITARY_TOL": 1e-12,
    "decision.PROB_TOL": 1e-12,
    "analysis.AMP_TOL": 1e-12,
    "analysis.SIM_TOL": 1e-9,
    "analysis.EXACT_TOL": 0.0,
    "analysis.STRICT_TOL": -5e-324,  # the largest float below 0
    "cli.OPTIMUM_TOL": 1e-6,
    "cli.CLOSED_FORM_TOL": 1e-12,
}


@pytest.mark.parametrize("name", sorted(TOLERANCES))
def test_every_tolerance_keeps_its_value(name):
    module, _, constant = name.partition(".")
    value = getattr(importlib.import_module(f"ewlsim.{module}"), constant)
    assert type(value) is float and value == TOLERANCES[name]


def definitions(source: str, methods: bool) -> list[str]:
    """The names that the module's top-level functions, classes and assignments
    define, and its classes' methods when ``methods`` is set."""
    return bound_names(ast.parse(source).body, methods)


def bound_names(body: list[ast.stmt], methods: bool) -> list[str]:
    """The names that the functions, classes and assignments of a block of
    statements define, and its classes' methods when ``methods`` is set."""
    defined = []
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.append(node.name)
        if isinstance(node, ast.ClassDef):
            defined += [f.name for f in node.body if methods and isinstance(f, ast.FunctionDef)]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return defined


def private_definitions(source: str) -> list[str]:
    """The private names (one leading underscore) that the module's top-level
    functions, classes and assignments define, and its classes' methods."""
    return [name for name in definitions(source, methods=True)
            if name.startswith("_") and not name.startswith("__")]


def names_read(source: str) -> set[str]:
    """The names the module reads: as a name, as an attribute or as an import."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def test_dead_private_names_are_found():
    source = ("_USED = 1\n_DEAD, x = 2, 3\ndef _helper(): return _USED\n"
              "class _Gone:\n    def _make(self): pass\n    def __init__(self): self._used()\n"
              "    def _used(self): pass\n")
    assert [name for name in private_definitions(source)
            if name not in names_read(source)] == ["_DEAD", "_helper", "_Gone", "_make"]


def test_every_private_name_is_read_in_the_package():
    sources = [path.read_text() for path in sorted(PACKAGE.glob("*.py"))]
    read = set().union(*map(names_read, sources))
    assert [name for source in sources for name in private_definitions(source)
            if name not in read] == []


ROOT = PACKAGE.parent.parent


def public_definitions(source: str) -> list[str]:
    """The public names that the module's top-level functions, classes and
    assignments define."""
    return [name for name in definitions(source, methods=False) if not name.startswith("_")]


def traced_names(source: str) -> set[str]:
    """The attribute names of the (module, attribute, span) entries of TARGETS."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return {attr for _, attr, _ in ast.literal_eval(node.value)}
    raise AssertionError("no TARGETS assignment")


def test_public_definitions_are_found():
    source = "X = 1\n_Y = 2\nclass A:\n    def b(self): pass\ndef c(): pass\ndef _d(): pass\n"
    assert public_definitions(source) == ["X", "A", "c"]
    assert traced_names("TARGETS = (('m', 'f', 'span'), ('m', 'g', 'span'))\n") == {"f", "g"}


# the callers outside the tests: the package modules (__init__'s imports only
# re-export, so it is no caller), the README examples, the acceptance suite and
# the benchmark's workloads
CALLERS = ([PACKAGE.joinpath(module).read_text() for module in MODULES] + README_BLOCKS
           + [(ROOT / "tests" / "test_acceptance.py").read_text(),
              (ROOT / "perfbench" / "workloads.py").read_text()])


def test_every_public_name_has_a_caller():
    # a name counts as read when a caller or the benchmark's traced TARGETS reads it
    sources = [path.read_text() for path in sorted(PACKAGE.glob("*.py"))]
    read = set().union(*map(names_read, CALLERS),
                       traced_names((ROOT / "perfbench" / "tracing.py").read_text()))
    assert [name for source in sources for name in public_definitions(source)
            if name not in read] == []


def public_members(source: str) -> list[str]:
    """The public fields, methods and properties that the module's public
    top-level classes define, as Class.member."""
    return [f"{node.name}.{name}" for node in ast.parse(source).body
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_")
            for name in bound_names(node.body, methods=False)
            if not name.startswith("_")]


def members_read(source: str) -> set[str]:
    """The member names the module reads: as ``.name``, or as ``getattr(x, "name")``."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "getattr" and len(node.args) >= 2
              and isinstance(node.args[1], ast.Constant)):
            read.add(node.args[1].value)
    return read


def test_public_members_are_found():
    source = ("class A:\n    x: int\n    _y: int\n    def f(self): return self.x\n"
              "    @property\n    def g(self): pass\n    def _h(self): pass\n"
              "class _B:\n    z: int\n")
    assert public_members(source) == ["A.x", "A.f", "A.g"]
    assert members_read("a.x = 1\nb.y\ngetattr(c, 'z', None)\ngetattr(d, name)\n") == {"y", "z"}


def test_every_public_member_has_a_caller():
    # a member counts as read when a package module, a README example, the
    # acceptance suite, the dense-matrix oracles or the benchmark reads it by name
    readers = ([PACKAGE.joinpath(module).read_text() for module in MODULES] + README_BLOCKS
               + [(ROOT / "tests" / name).read_text() for name in ("test_acceptance.py", "oracles.py")]
               + [path.read_text() for path in sorted((ROOT / "perfbench").glob("*.py"))
                  if path.name != "test_perfbench.py"])
    read = set().union(*map(members_read, readers))
    assert [member for module in MODULES for member in public_members((PACKAGE / module).read_text())
            if member.partition(".")[2] not in read] == []


def defaulted_parameters(source: str) -> dict[str, list[tuple[str, int | None, str]]]:
    """The parameters with a default of the module's public top-level functions:
    function -> [(parameter, position or None if keyword-only, ast.dump of the default)]."""
    found = {}
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            args = node.args
            positional = args.posonlyargs + args.args
            defaults = [None] * (len(positional) - len(args.defaults)) + args.defaults
            params = [(arg.arg, i if i < len(positional) else None, ast.dump(default))
                      for i, (arg, default) in enumerate(zip(positional + args.kwonlyargs,
                                                             defaults + args.kw_defaults))
                      if default is not None]
            if params:
                found[node.name] = params
    return found


def _sets_parameter(call: ast.Call, param: str, position: int | None, default: str) -> bool:
    """Whether the call may pass ``param`` a value other than its literal default:
    by keyword, by position, or through *args or **kwargs."""
    for keyword in call.keywords:
        if keyword.arg is None or (keyword.arg == param and ast.dump(keyword.value) != default):
            return True
    if position is None:
        return False
    for i, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            return True
        if i == position:
            return ast.dump(arg) != default
    return False


def unset_defaults(sources: list[str], callers: list[str]) -> list[str]:
    """The function.parameter defaults of ``sources`` that no call in ``callers``
    (by the function's name, or an attribute of that name) sets to another value."""
    defaults = {}
    for source in sources:
        defaults.update(defaulted_parameters(source))
    given = set()
    for node in (n for caller in callers for n in ast.walk(ast.parse(caller))):
        if isinstance(node, ast.Call):
            name = _called(node)
            given.update(f"{name}.{param}" for param, position, default in defaults.get(name, ())
                         if _sets_parameter(node, param, position, default))
    return [f"{name}.{param}" for name, params in defaults.items() for param, _, _ in params
            if f"{name}.{param}" not in given]


def test_unset_defaults_are_found():
    source = "def f(a, b=1, *, c=None, d=2): pass\ndef _g(x=1): pass\ndef h(y): pass\n"
    assert list(defaulted_parameters(source)) == ["f"]
    assert unset_defaults([source], ["f(0, 1, c=None)\nf(0, 2)\n"]) == ["f.c", "f.d"]
    assert unset_defaults([source], ["m.f(0, d=3)\nf(b=1)\n"]) == ["f.b", "f.c"]
    assert unset_defaults([source], ["f(*args)\n"]) == ["f.c", "f.d"]
    assert unset_defaults([source], ["f(0, **opts)\n"]) == []


def test_every_defaulted_keyword_is_set_by_a_caller():
    # a default that every caller leaves alone, or passes as written, is a
    # constant: it goes, and the function uses its value directly
    sources = [path.read_text() for path in sorted(PACKAGE.glob("*.py"))]
    assert unset_defaults(sources, CALLERS) == []
