"""No module imports a name it never uses (a stand-in for a linter's F401),
and the package keeps no private function or class that nothing calls.

Every .py file under src/scatmap, tests and scripts is parsed; a name bound
by an import must be read somewhere in the same file.  Package __init__
files are exempt: their imports are the package's re-exports.  A module-level
function or class of src/scatmap whose name starts with one underscore must
be named (read, imported or taken as an attribute) somewhere in src/scatmap:
the tests alone do not keep it alive.  No module of src/scatmap but cli.py
reads the process environment (os.environ, os.getenv): sizes such as the
crossing kernel's blocks are constants, not hidden knobs.  model.py,
crests.py, roots.py and highways.py import no NumPy, not even inside a
function: their closed forms, root searches and lanes stay scalar, the array
code that evaluates them lives in scattering.py, and the commands built on
them start without NumPy.  errors.py keeps a class
only for a distinction some caller makes: no except clause of src/scatmap
names two or more of its classes, and each is raised (called) somewhere in
src/scatmap outside errors.py.  Every keyword parameter with a default, of a
public module-level function of src/scatmap, is given a value by some call
in src/scatmap, tests or scripts (by keyword, by position, or through * or
**): a value nobody sets is a constant of the function, not a parameter.
"""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src/scatmap").glob("*.py"))
ERRORS = ROOT / "src/scatmap/errors.py"
FILES = sorted(path for folder in ("src/scatmap", "tests", "scripts")
               for path in (ROOT / folder).glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(bound.items(), key=lambda kv: kv[1])
            if name not in used]


def unreferenced_private(sources: dict[str, str]) -> list[str]:
    """Module-level _private functions and classes that no source names."""
    defined: dict[str, str] = {}
    named: set[str] = set()
    for where, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__")):
                defined[node.name] = f"{where}:{node.lineno}"
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    return sorted(f"{where}: {name}" for name, where in defined.items() if name not in named)


def env_reads(source: str) -> list[str]:
    """Where a source names os.environ, os.getenv or their bytes forms."""
    names = {"environ", "environb", "getenv", "getenvb"}
    found = []
    for node in ast.walk(ast.parse(source)):
        name = (node.attr if isinstance(node, ast.Attribute)
                else node.id if isinstance(node, ast.Name)
                else node.name if isinstance(node, ast.alias) else None)
        if name in names:
            found.append((node.lineno, name))
    return [f"line {line}: {name}" for line, name in sorted(found)]


def numpy_imports(source: str) -> list[str]:
    """The NumPy modules a source imports, in order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            found.append(node.module)
    return [name for name in found if name.split(".")[0] == "numpy"]


def test_scanner_sees_an_unused_import():
    assert unused_imports("import os\nimport math as m\nfrom a import b, c\nc()\n") == [
        "line 1: os", "line 2: m", "line 3: b"]
    assert unused_imports("import os.path\nos.path.join('a')\n") == []


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_scanner_sees_an_unreferenced_private_name():
    sources = {
        "a.py": "def _dead():\n    pass\n\nclass _Gone:\n    pass\n\n"
                "def _called():\n    pass\n\ndef _imported():\n    pass\n\n"
                "def __dunder__():\n    pass\n\ndef public():\n    _called()\n",
        "b.py": "import a\nfrom a import _imported\n\n"
                "def _used_as_attribute():\n    pass\n\na._used_as_attribute\n",
    }
    assert unreferenced_private(sources) == ["a.py:1: _dead", "a.py:4: _Gone"]


def test_no_unreferenced_private_name():
    sources = {str(path.relative_to(ROOT)): path.read_text(encoding="utf-8") for path in PACKAGE}
    assert unreferenced_private(sources) == []


def test_scanner_sees_an_environment_read():
    assert env_reads("import os\nos.environ['A']\nos.getenv('B')\n"
                     "from os import environ as e, getenv\nenv = 1\n") == [
        "line 2: environ", "line 3: getenv", "line 4: environ", "line 4: getenv"]


@pytest.mark.parametrize("path", [p for p in PACKAGE if p.name != "cli.py"],
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_no_environment_read(path):
    assert env_reads(path.read_text(encoding="utf-8")) == []


def test_scanner_sees_a_numpy_import():
    source = "import math\nimport numpy as np\nfrom numpy.linalg import norm\nfrom . import model\n"
    assert numpy_imports(source) == ["numpy", "numpy.linalg"]


@pytest.mark.parametrize("name", ["model.py", "crests.py", "roots.py", "highways.py"])
def test_scalar_modules_import_no_numpy(name):
    assert numpy_imports((ROOT / "src/scatmap" / name).read_text(encoding="utf-8")) == []


def _called_name(node) -> str | None:
    """The name a node refers to: x for x and for m.x."""
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def error_classes(source: str) -> set[str]:
    return {node.name for node in ast.parse(source).body if isinstance(node, ast.ClassDef)}


def multi_error_handlers(source: str, classes: set[str]) -> list[str]:
    """The except clauses of a source that name two or more of the classes."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ExceptHandler) and isinstance(node.type, ast.Tuple):
            names = [n for n in map(_called_name, node.type.elts) if n in classes]
            if len(names) >= 2:
                found.append(f"line {node.lineno}: {', '.join(names)}")
    return found


def uninstantiated(classes: set[str], sources: list[str]) -> list[str]:
    """The classes that no source calls."""
    called = {_called_name(node.func) for source in sources
              for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Call)}
    return sorted(classes - called)


def test_scanner_sees_a_multi_error_handler():
    source = ("try:\n    f()\nexcept (A, ValueError):\n    pass\n"
              "try:\n    f()\nexcept (A, errors.B):\n    pass\n"
              "try:\n    f()\nexcept A:\n    pass\n")
    assert multi_error_handlers(source, {"A", "B"}) == ["line 7: A, B"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_handler_names_two_error_classes(path):
    classes = error_classes(ERRORS.read_text(encoding="utf-8"))
    assert multi_error_handlers(path.read_text(encoding="utf-8"), classes) == []


def test_scanner_sees_an_uninstantiated_class():
    sources = ["raise A('x')\nkind = errors.B\n", "err = m.C()\nisinstance(err, B)\n"]
    assert uninstantiated({"A", "B", "C"}, sources) == ["B"]


def test_every_error_class_is_raised():
    classes = error_classes(ERRORS.read_text(encoding="utf-8"))
    sources = [path.read_text(encoding="utf-8") for path in PACKAGE if path != ERRORS]
    assert uninstantiated(classes, sources) == []


def unset_defaults(package: dict[str, str], sources: list[str]) -> list[str]:
    """The defaulted parameters of the package's public module-level
    functions that no call in the sources gives a value; calls are matched
    by the called name (f or m.f)."""
    params: dict[tuple[str, str], tuple[str, int | None]] = {}
    for where, source in package.items():
        for node in ast.parse(source).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                args = node.args
                positional = args.posonlyargs + args.args
                first = len(positional) - len(args.defaults)
                for index, arg in enumerate(positional[first:], first):
                    params[node.name, arg.arg] = (f"{where}:{node.lineno}", index)
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        params[node.name, arg.arg] = (f"{where}:{node.lineno}", None)
    given: set[tuple[str, str]] = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Call):
                continue
            name = _called_name(node.func)
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            keywords = {k.arg for k in node.keywords}   # None for **
            for (function, param), (_, index) in params.items():
                if function == name and (
                        param in keywords or None in keywords
                        or (index is not None and (starred or index < len(node.args)))):
                    given.add((function, param))
    return sorted(f"{where}: {function}({param})"
                  for (function, param), (where, _) in params.items()
                  if (function, param) not in given)


def test_scanner_sees_an_unset_default():
    package = {"m.py": "def f(a, b=1, c=2, *, d=3, e=4):\n    pass\n\n"
                       "def g(x=0):\n    pass\n\ndef h(y=0):\n    pass\n\n"
                       "def _private(z=0):\n    pass\n"}
    sources = ["f(0, 1)\nm.f(0, e=5)\ng(*args)\nh(**options)\n"]
    assert unset_defaults(package, sources) == ["m.py:1: f(c)", "m.py:1: f(d)"]


def test_every_default_is_set_by_a_caller():
    package = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE}
    sources = [path.read_text(encoding="utf-8") for path in FILES]
    assert unset_defaults(package, sources) == []
