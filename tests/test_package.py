import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import collusion_audit

MODULES = sorted(m.name for m in pkgutil.iter_modules(collusion_audit.__path__))
PACKAGE_DIR = Path(collusion_audit.__file__).parent
TESTS_DIR = Path(__file__).parent
TEST_MODULES = sorted(p.stem for p in TESTS_DIR.glob("*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_every_export_exists(name):
    # the span tracer of the benchmark reads every __all__ name with getattr
    module = importlib.import_module(f"collusion_audit.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def unused_imports(source: str) -> list:
    """(line, name) for every name an import binds that the module never
    reads; ``from __future__`` imports bind nothing."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [(line, name) for line, name in bound if name not in read]


def test_unused_import_check_sees_one():
    source = "import os\nfrom a.b import c, d as e\nimport x.y\nos.sep, e, x\n"
    assert unused_imports(source) == [(2, "c")]


@pytest.mark.parametrize("name", MODULES)
def test_no_unused_imports(name):
    # MODULES leaves out __init__.py, which imports nothing
    assert unused_imports((PACKAGE_DIR / f"{name}.py").read_text()) == []


@pytest.mark.parametrize("name", TEST_MODULES)
def test_no_unused_imports_in_tests(name):
    assert unused_imports((TESTS_DIR / f"{name}.py").read_text()) == []


def unread_private_names(source: str) -> list:
    """(line, name) for every module-level ``_name`` (a def, a class, an
    assignment or an import) that the module never reads; dunders such
    as ``__all__`` are exempt."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound += [(n.lineno, n.id) for t in targets for n in ast.walk(t)
                      if isinstance(n, ast.Name)]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [(line, name) for line, name in bound
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__"))
            and name not in read]


def test_private_name_check_sees_one():
    source = ("import os as _os\n_A, B = 1, 2\n_C: int = 3\n__all__ = []\n"
              "def _f():\n    return _A\nclass _K:\n    pass\n_K()\n")
    assert unread_private_names(source) == [(1, "_os"), (3, "_C"), (5, "_f")]


@pytest.mark.parametrize("name", MODULES)
def test_private_names_are_read(name):
    # a private helper nothing reads is dead code the module still carries
    assert unread_private_names((PACKAGE_DIR / f"{name}.py").read_text()) == []


def unread_parameters(source: str) -> list:
    """(line, name) for every parameter of a def or lambda that its body
    never reads; ``self``, ``cls`` and names starting with ``_`` (kept only
    to fit a call signature) are exempt."""
    unread = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unread += [(p.lineno, p.arg) for p in params
                   if p.arg not in ("self", "cls") and not p.arg.startswith("_")
                   and p.arg not in read]
    return unread


def test_unread_parameter_check_sees_them():
    source = ("def f(a, b, *args, c=1, _d=2, **kw):\n    return a + c + kw['x']\n"
              "class K:\n    def m(self, e):\n        return 0\n"
              "    @classmethod\n    def n(cls, g=lambda h: 0):\n        return g\n"
              "def outer(i):\n    def inner():\n        return i\n    return inner\n")
    assert unread_parameters(source) == [(1, "b"), (1, "args"), (4, "e"), (7, "h")]


@pytest.mark.parametrize("name", MODULES)
def test_parameters_are_read(name):
    # a parameter the body never reads is a knob that selects nothing
    assert unread_parameters((PACKAGE_DIR / f"{name}.py").read_text()) == []


def fresh_python(code: str) -> str:
    """Standard output of ``code`` run in a new interpreter on this package."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_DIR.parent))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True).stdout


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats costs about 35 MB and 0.9 s to import; nothing in src/ needs it
    code = "import sys, collusion_audit.cli; print('scipy.stats' in sys.modules)"
    assert fresh_python(code).strip() == "False"


def test_cli_import_leaves_the_verifier_half_unloaded():
    # the package binds no submodule, and the simulator experiments run
    # without audit, ledger or cryptography; only the audit runners import audit
    code = ("import sys, collusion_audit\n"
            "print(sorted(m for m in sys.modules if m.startswith('collusion_audit.')))\n"
            "import collusion_audit.cli\n"
            "verifier = {'collusion_audit.audit', 'collusion_audit.ledger', 'cryptography'}\n"
            "print(sorted(verifier & set(sys.modules)))\n")
    assert fresh_python(code).splitlines() == ["[]", "[]"]


def truncating_writes(source: str, exempt: str | None = None) -> list:
    """Lines of every ``open(...)`` or ``x.open(...)`` call whose mode may
    contain "w" (a mode that is not a string literal may), and of every
    ``write_text``/``write_bytes`` call, outside the function ``exempt``."""
    tree = ast.parse(source)
    skip = {id(n) for f in ast.walk(tree)
            if isinstance(f, ast.FunctionDef) and f.name == exempt for n in ast.walk(f)}
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or id(node) in skip:
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name in ("write_text", "write_bytes"):
            lines.append(node.lineno)
        elif name == "open":
            # open(path, mode) and io.open(path, mode); Path(...).open(mode)
            path_first = isinstance(func, ast.Name) or getattr(func.value, "id", None) == "io"
            modes = node.args[1:] if path_first else node.args[:1]
            modes += [k.value for k in node.keywords if k.arg == "mode"]
            if any(not (isinstance(m, ast.Constant) and isinstance(m.value, str))
                   or "w" in m.value for m in modes):
                lines.append(node.lineno)
    return lines


def test_truncating_write_check_sees_them():
    source = ("open(p)\nopen(p, 'w')\nopen(p, mode='wb')\nopen(p, m)\nio.open(p, 'r')\n"
              "Path(p).open('w')\np.write_text('x')\nopen(p, 'rb', newline=None)\n"
              "def create_file(p, m):\n    return open(p, m)\n")
    assert truncating_writes(source) == [2, 3, 4, 6, 7, 10]
    assert truncating_writes(source, exempt="create_file") == [2, 3, 4, 6, 7]


@pytest.mark.parametrize("name", sorted(p.stem for p in PACKAGE_DIR.glob("*.py")))
def test_files_are_written_only_as_new_files(name):
    # truncating a just-written file waits on the file system (35-68 ms on
    # ext4); encoding.create_file unlinks it and creates a new one instead
    exempt = "create_file" if name == "encoding" else None
    assert truncating_writes((PACKAGE_DIR / f"{name}.py").read_text(), exempt) == []
