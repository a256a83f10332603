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
    # every name a module imports at module level is read somewhere in it;
    # __init__.py imports only to re-export
    src = Path(oodshift.__file__).parent
    unused = []
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        }
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}: {name}" for name in sorted(imported - read)]
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
