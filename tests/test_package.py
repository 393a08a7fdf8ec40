"""The package's export list and its modules' imports."""

import ast
import re
from collections import Counter
from pathlib import Path

import hompoly


def test_every_export_resolves_once():
    assert [name for name, n in Counter(hompoly.__all__).items() if n > 1] == []
    assert [name for name in hompoly.__all__ if not hasattr(hompoly, name)] == []


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
    unused = [
        f"{path.name}:{line} {name}"
        for path in sorted(Path(hompoly.__file__).parent.glob("*.py"))
        for name, line in _unused_imports(path.read_text()).items()
    ]
    assert unused == []


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


def _unread_private_names(sources):
    """Module-level private names that no module in ``sources`` reads.

    ``sources`` maps module stems to their text.  A function, class or
    constant whose name starts with ``_`` (dunders aside) counts as read
    where any module loads it as a name, imports it, or names it as an
    attribute.
    """
    defined, read = {}, set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.endswith("__"):
                    defined[module, name] = node.lineno
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return {key: line for key, line in defined.items() if key[1] not in read}


def test_every_private_name_is_read():
    sources = {
        path.stem: path.read_text()
        for path in sorted(Path(hompoly.__file__).parent.glob("*.py"))
    }
    assert [
        f"{module}.py:{line} {name}"
        for (module, name), line in _unread_private_names(sources).items()
    ] == []


def test_the_private_name_check_sees_a_leftover():
    sources = {
        "a": (
            "_LIMIT = 3\n"
            "_STALE: int = 4\n"
            "class _Row:\n"
            "    pass\n"
            "def _helper():\n"
            "    return _LIMIT\n"
            "def __getattr__(name):\n"
            "    return name\n"
        ),
        "b": "from .a import _Row\n",
    }
    assert _unread_private_names(sources) == {("a", "_STALE"): 2, ("a", "_helper"): 5}


def _invariant_names(source):
    """The property names of the ``InvariantViolation(...)`` calls in ``source``.

    A name that is not a string literal is given as its source text, so
    it cannot match a listed name.
    """
    return {
        node.args[0].value
        if isinstance(node.args[0], ast.Constant)
        else ast.unparse(node.args[0])
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and "InvariantViolation"
        in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    }


def test_every_invariant_is_raised_in_checks_and_listed_in_the_readme():
    raised = {
        path.name: _invariant_names(path.read_text())
        for path in sorted(Path(hompoly.__file__).parent.glob("*.py"))
    }
    assert [name for name, names in raised.items() if names] == ["checks.py"]
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    bullet = readme[readme.index("* `hompoly.checks`"):]
    listed = re.findall(r"`([a-z][a-z0-9]*(?:-[a-z0-9]+)+)`", bullet[:bullet.index("\n* ")])
    assert len(listed) == len(set(listed)) == 12
    assert raised["checks.py"] == set(listed)


def test_the_invariant_check_sees_every_raise():
    source = (
        "raise InvariantViolation('a-b', 'x')\n"
        "error = InvariantViolation(name, 'y')\n"
        "raise errors.InvariantViolation('c-d', 'z')\n"
    )
    assert _invariant_names(source) == {"a-b", "name", "c-d"}
