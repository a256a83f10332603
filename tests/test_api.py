"""The package's exported names and its modules' imports."""

import ast
import re
import types
from pathlib import Path

import oodshift

README = Path(__file__).resolve().parents[1] / "README.md"


def test_all_is_explicit_and_covers_readme_entry_points():
    assert isinstance(oodshift.__all__, list)
    assert len(set(oodshift.__all__)) == len(oodshift.__all__)
    for name in oodshift.__all__:
        assert not isinstance(getattr(oodshift, name), types.ModuleType), name
    table = README.read_text().split("Key entry points:", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in table.splitlines() if line.startswith("| `")]
    named = {name for row in rows for name in re.findall(r"`([A-Za-z_]\w*)[`(]", row)}
    assert len(rows) >= 8 and named
    assert named <= set(oodshift.__all__), named - set(oodshift.__all__)


def test_no_unused_imports():
    # every name an import binds, at module level or in a function body, is
    # read somewhere in that module or function; __init__.py imports only to
    # re-export
    src = Path(oodshift.__file__).parent
    unused = []
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        functions = [node for node in ast.walk(tree)
                     if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for scope in [tree, *functions]:
            imported = {
                (alias.asname or alias.name).split(".")[0]
                for node in (tree.body if scope is tree else ast.walk(scope))
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names
            }
            read = {node.id for node in ast.walk(scope) if isinstance(node, ast.Name)}
            where = f"{path.name}:{getattr(scope, 'name', '<module>')}"
            unused += [f"{where}: {name}" for name in sorted(imported - read)]
    assert not unused, unused


def test_one_run_executor():
    # estimator._map is the one way to execute runs: no other module imports
    # ThreadPoolExecutor, or reaches it as an attribute
    src = Path(oodshift.__file__).parent
    users = []
    for path in sorted(src.glob("*.py")):
        nodes = list(ast.walk(ast.parse(path.read_text())))
        names = {
            alias.name.rsplit(".", 1)[-1]
            for node in nodes if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        }
        names |= {node.attr for node in nodes if isinstance(node, ast.Attribute)}
        if "ThreadPoolExecutor" in names:
            users.append(path.name)
    assert users == ["estimator.py"], users


def _references(tree, names):
    """(innermost enclosing def or lambda, or None at module level, name) for
    each use of one of names, as a bare name or an attribute."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.Name, ast.Attribute)):
            name = node.id if isinstance(node, ast.Name) else node.attr
            if name in names:
                found.append((scope, name))
        inner = node if isinstance(node, (ast.FunctionDef, ast.Lambda)) else scope
        for child in ast.iter_child_nodes(node):
            visit(child, inner)

    visit(tree, None)
    return found


def test_run_executor_never_nests():
    # a _map called from inside a task would wait for the lock its caller
    # holds: only the three entry points call _map, in their own bodies, and
    # only the cli commands call the entry points
    entry = {"estimate_pipeline", "sweep", "compare_table"}
    src = Path(oodshift.__file__).parent
    bad, map_callers = [], set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        top = {node for node in tree.body if isinstance(node, ast.FunctionDef)}
        bad += [
            f"{path.name}: imports {alias.name} as {alias.asname}"
            for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            for alias in node.names if alias.name in entry | {"_map"} and alias.asname
        ]
        for scope, name in _references(tree, entry | {"_map"}):
            where = getattr(scope, "name", "<lambda>" if scope else "<module>")
            if name == "_map" and scope in top and scope.name in entry:
                map_callers.add(scope.name)
            elif name in entry and path.name == "cli.py" and scope in top \
                    and scope.name.startswith("cmd_"):
                continue
            else:
                bad.append(f"{path.name}: {where} uses {name}")
    assert not bad, bad
    assert map_callers == entry
