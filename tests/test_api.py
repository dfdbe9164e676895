"""The public API surface: every exported name resolves, on numpy alone."""

import ast
import dataclasses
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import fleetmaint

SRC = Path(__file__).resolve().parents[1] / "src"

SUBMODULES = sorted(
    f"fleetmaint.{info.name}"
    for info in pkgutil.iter_modules(fleetmaint.__path__)
    if info.name != "__main__"
)


@pytest.mark.parametrize("module_name", ["fleetmaint", *SUBMODULES])
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    assert module.__all__, f"{module_name} exports nothing"
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ names missing attributes: {missing}"
    assert len(set(module.__all__)) == len(module.__all__)


def _unused_imports(path: Path) -> list[str]:
    """Module-level imports of ``path`` that no name in it reads and
    ``__all__`` does not export."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported: dict[str, int] = {}
    exported: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [
        f"{path.name}:{line} {name}"
        for name, line in imported.items()
        if name not in read and name not in exported
    ]


def test_no_unused_module_imports():
    unused = [
        entry
        for path in sorted((SRC / "fleetmaint").glob("*.py"))
        for entry in _unused_imports(path)
    ]
    assert not unused, f"imported but never used: {unused}"


def _defined_private_names(tree: ast.Module) -> dict[str, int]:
    """Module-level functions, classes and assigned names with a leading
    underscore, dunders excepted."""
    defined: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                defined[name] = node.lineno
    return defined


def _read_names(tree: ast.Module) -> set[str]:
    """Every name ``tree`` reads: plain names, attributes and imported names."""
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def test_no_unread_private_module_names():
    trees = {
        path.name: ast.parse(path.read_text(), filename=str(path))
        for path in sorted((SRC / "fleetmaint").glob("*.py"))
    }
    read = set().union(*map(_read_names, trees.values()))
    unread = [
        f"{name}:{line} {private}"
        for name, tree in trees.items()
        for private, line in _defined_private_names(tree).items()
        if private not in read
    ]
    assert not unread, f"private module-level names no module reads: {unread}"


# A cross-reference of a docstring or comment: its role and its target.
_REFERENCE = re.compile(r":(func|class|data|attr|meth):`~?([\w.]+)`")


def _has(owner, name: str) -> bool:
    """Whether ``name`` is an attribute, property or dataclass field of ``owner``."""
    if hasattr(owner, name):
        return True
    fields = dataclasses.fields(owner) if dataclasses.is_dataclass(owner) else ()
    return name in {f.name for f in fields}


def _resolves(module, target: str) -> bool:
    """Whether ``target`` names something from ``module``: a module-level
    name, a ``fleetmaint.*`` path, or an attribute of either."""
    parts = target.split(".")
    owner = module
    if parts[0] == "fleetmaint":
        # the longest importable prefix is the module; the rest are attributes
        for cut in range(len(parts), 0, -1):
            try:
                owner = importlib.import_module(".".join(parts[:cut]))
            except ImportError:
                continue
            parts = parts[cut:]
            break
    for part in parts:
        if not _has(owner, part):
            return False
        owner = getattr(owner, part, None)  # a field without a default has no class attribute
    return True


def test_docstring_references_resolve():
    # An undotted :attr: or :meth: names a member of the class it is
    # written in, often an instance attribute, and is not checked.
    dangling = []
    for name in ["fleetmaint", *SUBMODULES]:
        module = importlib.import_module(name)
        text = Path(module.__file__).read_text()
        for ref in _REFERENCE.finditer(text):
            role, target = ref.groups()
            if (role in ("attr", "meth") and "." not in target) or _resolves(module, target):
                continue
            dangling.append(f"{name}:{text.count(chr(10), 0, ref.start()) + 1} {ref.group(0)}")
    assert not dangling, f"references to names that do not exist: {dangling}"


def test_cli_import_leaves_scipy_unloaded():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    code = (
        "import sys, fleetmaint.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "[]"
    # nor does a default-profile study load numpy.ma, which some numpy
    # calls import lazily, at a cost in memory
    code = (
        "import sys; from fleetmaint.cli import compute_study; "
        "from fleetmaint.config import parse_config; compute_study(parse_config({})); "
        "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'ma']))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "[]"
