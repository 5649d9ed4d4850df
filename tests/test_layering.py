"""The harness only aggregates and reports.  The enumeration owns the
genus-tree nodes, the embedding-dimension filter and the cut into work
units, so a change to the walk (pruning it, cutting it differently)
stays inside verify/enumeration.py.  No module of the package reads the
environment, so every result is a function of its arguments."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "numsgps"
HARNESS = PACKAGE / "verify" / "harness.py"
ENVIRONMENT_READS = frozenset({"environ", "environb", "getenv", "getenvb"})


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


def test_no_module_reads_the_environment():
    reads = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                names = [alias.name for alias in node.names]
            else:
                continue
            reads += [
                f"{path.relative_to(PACKAGE)}:{node.lineno} {name}"
                for name in names
                if name in ENVIRONMENT_READS
            ]
    assert reads == []
