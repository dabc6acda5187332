"""Dead-code check over src/mflqg: every import is used, every private
module-level function or class is referenced somewhere in the package, and
every public name is read by some module other than __init__."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "mflqg"
MODULES = sorted(SRC.glob("*.py"))


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _exported(tree) -> set:
    """The string entries of a module-level __all__."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return {elt.value for elt in node.value.elts
                    if isinstance(elt, ast.Constant)}
    return set()


def _loaded(tree) -> set:
    """Every name the module reads, and every attribute it looks up; an
    assignment is no read."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def _imported(tree) -> dict:
    """Name bound -> line, for every import except __future__ ones."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = _parse(path)
    used = _loaded(tree) | _exported(tree)
    unused = {name: line for name, line in _imported(tree).items()
              if name not in used}
    assert not unused, f"{path.name}: unused imports {unused}"


def test_every_private_definition_is_referenced():
    trees = {path.name: _parse(path) for path in MODULES}
    referenced = set()
    for tree in trees.values():
        referenced |= _loaded(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                referenced |= {alias.name for alias in node.names}
    dead = [f"{name}:{node.lineno} {node.name}"
            for name, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")
            and node.name not in referenced]
    assert not dead, f"private definitions nothing in src/ references: {dead}"


# Public names read only outside src/: the benchmark harness records
# _kernels.BACKEND with every result.
READ_OUTSIDE_SRC = {"_kernels.BACKEND"}


def test_every_public_name_is_read_in_src():
    # __init__ only re-exports, so a name in a module's __all__ that no
    # module reads is an API the tests alone keep alive.
    trees = {path.stem: _parse(path) for path in MODULES}
    read = set().union(*(_loaded(tree) for stem, tree in trees.items()
                         if stem != "__init__"))
    unread = {f"{stem}.{name}" for stem, tree in trees.items()
              if stem != "__init__" for name in _exported(tree) - read}
    assert unread == READ_OUTSIDE_SRC, \
        f"public names nothing in src/ reads: {sorted(unread - READ_OUTSIDE_SRC)}"
