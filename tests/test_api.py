"""The package's exported names."""

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
