"""Every module-level function and class of the package has a reader.

A name counts as read when it occurs as a word outside its own definition:
elsewhere in its module, in another module of the package, in the benchmark
under `perfbench/`, or in the CI workflow.  A name that only its own unit
tests call is upkeep that no verdict, CLI verb or benchmark op reads.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _unread_names():
    modules = {p: p.read_text() for p in sorted((ROOT / "src" / "deglab").glob("*.py"))}
    outside = [p.read_text() for p in sorted((ROOT / "perfbench").rglob("*.py"))]
    outside.append((ROOT / ".github" / "workflows" / "tier1.yml").read_text())
    unread = []
    for path, text in modules.items():
        lines = text.splitlines(keepends=True)
        others = [t for p, t in modules.items() if p != path]
        for node in ast.parse(text).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            start = min([node.lineno] + [d.lineno for d in node.decorator_list]) - 1
            rest = "".join(lines[:start] + lines[node.end_lineno :])
            word = re.compile(rf"\b{re.escape(node.name)}\b")
            if not any(word.search(t) for t in [rest, *others, *outside]):
                unread.append(f"{path.stem}.{node.name}")
    return unread


def test_every_top_level_name_is_read_outside_its_definition():
    assert _unread_names() == []
