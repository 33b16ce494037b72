"""Every module-level function and class of the package, and every method of
such a class, has a reader.

A name counts as read when it occurs as a word outside its own definition:
elsewhere in its module, in another module of the package, in the benchmark
under `perfbench/`, or in the CI workflow.  A name that only its own unit
tests call is upkeep that no verdict, CLI verb or benchmark op reads.
Dunder methods are exempt: the language calls them.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _definitions(tree):
    """(dotted name, node) of each top-level def and class, and of each
    non-dunder method of a top-level class."""
    for node in tree.body:
        if not isinstance(node, (*_FUNCS, ast.ClassDef)):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if not isinstance(item, _FUNCS):
                    continue
                if not (item.name.startswith("__") and item.name.endswith("__")):
                    yield f"{node.name}.{item.name}", item


def _unread_names():
    modules = {p: p.read_text() for p in sorted((ROOT / "src" / "deglab").glob("*.py"))}
    outside = [p.read_text() for p in sorted((ROOT / "perfbench").rglob("*.py"))]
    outside.append((ROOT / ".github" / "workflows" / "tier1.yml").read_text())
    unread = []
    for path, text in modules.items():
        lines = text.splitlines(keepends=True)
        others = [t for p, t in modules.items() if p != path]
        for qualname, node in _definitions(ast.parse(text)):
            start = min([node.lineno] + [d.lineno for d in node.decorator_list]) - 1
            rest = "".join(lines[:start] + lines[node.end_lineno :])
            word = re.compile(rf"\b{re.escape(node.name)}\b")
            if not any(word.search(t) for t in [rest, *others, *outside]):
                unread.append(f"{path.stem}.{qualname}")
    return unread


def test_every_top_level_name_is_read_outside_its_definition():
    assert [name for name in _unread_names() if name.count(".") == 1] == []


def test_every_method_is_read_outside_its_definition():
    assert [name for name in _unread_names() if name.count(".") == 2] == []
