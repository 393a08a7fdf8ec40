"""The package's export list and its modules' imports."""

import ast
from collections import Counter
from pathlib import Path

import hompoly


def test_every_export_resolves_once():
    assert [name for name, n in Counter(hompoly.__all__).items() if n > 1] == []
    assert [name for name in hompoly.__all__ if not hasattr(hompoly, name)] == []


# Imports kept though the module never names them, each with its reason.
UNUSED_IMPORTS_ALLOWED = {
    # perfbench's self-test reads hompoly.polytope.mat_rank; it goes once
    # the benchmark reads another binding (ROADMAP item B)
    ("polytope", "mat_rank"),
}


def _unused_imports(source):
    """Names a module imports and never reads.

    A name counts as read where it is loaded, listed in ``__all__`` or
    named in a quoted annotation.
    """
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(ast.literal_eval(node.value))
        elif isinstance(node, (ast.arg, ast.FunctionDef, ast.AnnAssign)):
            note = node.returns if isinstance(node, ast.FunctionDef) else node.annotation
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                quoted = ast.walk(ast.parse(note.value))
                read.update(n.id for n in quoted if isinstance(n, ast.Name))
    return {name: line for name, line in imported.items() if name not in read}


def test_no_module_imports_a_name_it_never_uses():
    unused = {
        (path.stem, name): f"{path.name}:{line} {name}"
        for path in sorted(Path(hompoly.__file__).parent.glob("*.py"))
        for name, line in _unused_imports(path.read_text()).items()
    }
    assert [where for key, where in unused.items() if key not in UNUSED_IMPORTS_ALLOWED] == []
    # an allowance outlives its reason once the import is used or gone
    assert UNUSED_IMPORTS_ALLOWED <= unused.keys()


def test_the_unused_import_check_sees_a_leftover():
    source = (
        "from itertools import product\n"
        "import os.path\n"
        "from .polytope import Polytope, Face\n"
        "__all__ = ['Face']\n"
        "def f(p: 'Polytope') -> None:\n"
        "    return None\n"
    )
    assert _unused_imports(source) == {"product": 1, "os": 2}
