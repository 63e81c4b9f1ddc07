"""Checks on the library's source text."""

import ast
from pathlib import Path

import chloc


def test_no_starred_gcd_or_lcm():
    """gcd and lcm over many values go through ``rings._content`` or
    ``rings.common_den``: a starred call builds its argument tuple by
    resizing it, which grows the heap (see ``common_den``)."""
    found = []
    for path in sorted(Path(chloc.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name in ("gcd", "lcm") and any(isinstance(a, ast.Starred) for a in node.args):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
