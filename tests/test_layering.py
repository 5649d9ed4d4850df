"""The harness only aggregates and reports.  The enumeration owns the
genus-tree nodes, the embedding-dimension filter and the cut into work
units, so a change to the walk (pruning it, cutting it differently)
stays inside verify/enumeration.py."""

import ast
from pathlib import Path

HARNESS = Path(__file__).resolve().parent.parent / "src" / "numsgps" / "verify" / "harness.py"


def _int_index(node: ast.Subscript) -> bool:
    try:
        return isinstance(ast.literal_eval(node.slice), int)
    except ValueError:
        return False


def test_harness_imports_no_walk_internals_and_indexes_no_node():
    tree = ast.parse(HARNESS.read_text())
    private = [
        alias.name
        for stmt in ast.walk(tree)
        if isinstance(stmt, ast.ImportFrom) and (stmt.module or "").endswith("enumeration")
        for alias in stmt.names
        if alias.name.startswith("_")
    ]
    private += [
        expr.attr
        for expr in ast.walk(tree)
        if isinstance(expr, ast.Attribute)
        and isinstance(expr.value, ast.Name)
        and expr.value.id == "enumeration"
        and expr.attr.startswith("_")
    ]
    assert private == []
    # a node is a tuple read by position; the harness reads no tuple so
    indexed = [
        ast.unparse(expr)
        for expr in ast.walk(tree)
        if isinstance(expr, ast.Subscript) and _int_index(expr)
    ]
    assert indexed == []
