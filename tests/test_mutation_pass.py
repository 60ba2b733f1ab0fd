"""The site keys of tests/mutation_pass.py, which fix its seeded draw."""

import ast
from pathlib import Path

from mutation_pass import site_keys

STORE = Path(__file__).resolve().parents[1] / "src" / "qflsim" / "store.py"


def _keys_by_scope(source: str) -> dict[str, list[str]]:
    keys: dict[str, list[str]] = {}
    for _line, _what, key in site_keys(source):
        keys.setdefault(key.split("|", 1)[0], []).append(key)
    return keys


def _functions(tree):
    """(qualified name, node) of every function in ``tree``."""
    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                name = f"{scope}.{child.name}" if scope else child.name
                if isinstance(child, ast.FunctionDef):
                    yield name, child
                yield from walk(child, name)
    yield from walk(tree, "")


def test_deleting_a_statement_keeps_every_other_functions_keys():
    # Each function of store.py with more than one statement loses its
    # last one in turn; the keys of every other function and of the
    # module's own code stay as they were, and the edited function's
    # keys are still ranked within it.
    source = STORE.read_text(encoding="utf-8")
    before = _keys_by_scope(source)
    lines = source.splitlines(keepends=True)
    edited = 0
    for name, node in _functions(ast.parse(source)):
        last = node.body[-1]
        if len(node.body) < 2 or isinstance(last, (ast.FunctionDef, ast.ClassDef)):
            continue
        cut = "".join(lines[:last.lineno - 1] + lines[last.end_lineno:])
        after = _keys_by_scope(cut)
        inside = {s for s in before if s == name or s.startswith(name + ".")}
        assert {s: k for s, k in after.items() if s not in inside} == \
            {s: k for s, k in before.items() if s not in inside}, name
        for scope in inside & after.keys():
            ranks = [int(key.rsplit("|", 1)[1]) for key in after[scope]]
            assert min(ranks, default=1) == 1, scope
        edited += 1
    assert edited > 10
