"""The harness only aggregates and reports.  The enumeration owns the
genus-tree nodes, the embedding-dimension filter and the split of its
stream into parts (every W-th semigroup from index k), so a change to
the walk (pruning it, splitting it differently) stays inside
verify/enumeration.py.  No module of the package reads the
environment, so every result is a function of its arguments.  In the
CLI, handlers only build payloads: main alone writes records, reads
--pretty and maps errors to exit codes, and the record kinds live in the
parser table.  A rule of the single-semigroup layers is written once:
one function takes the product of independent choice counts.  Every
error kind has a raiser: a SemigroupError subclass that no code raises
would be a documented `error` value no input can produce.  One function,
gorenstein.capped_product, reads the listing cap and refuses a listing
above it, for NG-vectors and matrices alike.  One function,
gorenstein.companion_finder, looks a value up among the generators: the
companion rule (an entry g off F at position h has the companion ell < h
with n_ell = g - F + n_h) is written there only, as a plain function of
(gens, F, h, g) that every caller calls per entry; its whole-semigroup
set test, companions_complete, sits beside it.  The construct layer owns
its inputs: only construct.py reads an ideal's least elements, and only
construct._certified refuses a family's formula generators that are not
a minimal system.  The integer rule of every
public argument has one owner, core.require_int, and the walk's
embedding-dimension filter one, require_embdim: one function raises
each refusal.  One function, harness._report,
builds the per-semigroup record that check_semigroup returns, a
check_all sink receives and `sgp verify` emits; likewise
gorenstein._ng_record builds the NG-vector record and rf.classify_pf the
PF split's, which `sgp ng-vectors` and `sgp classify-pf` emit as built.  Every public name has a
reader in the package or is listed in README.md's "Public API" section:
a route that only cross-checks another lives in tests/oracles.py."""

import ast
import re
from pathlib import Path

import pytest

import numsgps
import numsgps.verify

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "numsgps"
README = PACKAGE.parent.parent / "README.md"
EXPORT_TABLES = frozenset({PACKAGE / "__init__.py", PACKAGE / "verify" / "__init__.py"})
HARNESS = PACKAGE / "verify" / "harness.py"
CLI = PACKAGE / "cli.py"
RECORD_KINDS = frozenset({"info", "ngvectors", "rf", "classify", "verify", "construct"})
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


def _with_owner(tree: ast.Module):
    """(name of the enclosing top-level definition or None, node) for
    every node of a module."""
    for stmt in tree.body:
        owner = getattr(stmt, "name", None)
        for node in ast.walk(stmt):
            yield owner, node


def test_only_main_writes_records_and_the_parser_table_names_kinds():
    tree = ast.parse(CLI.read_text())
    record_owners, kind_owners, kinds, pretty_flags = set(), set(), set(), 0
    for owner, node in _with_owner(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id in (
            "_emit", "_error_payload", "_USAGE_ERRORS"
        ):
            record_owners.add(owner)
        elif isinstance(node, ast.Attribute) and node.attr == "pretty":
            record_owners.add(owner)
        elif isinstance(node, ast.Constant) and node.value in RECORD_KINDS:
            kind_owners.add(owner)
            kinds.add(node.value)
        elif (
            isinstance(node, ast.Call)
            and getattr(node.func, "attr", None) == "add_argument"
            and node.args
            and getattr(node.args[0], "value", None) == "--pretty"
        ):
            pretty_flags += 1
    assert record_owners == {"main"}
    assert kind_owners == {"build_parser"}
    assert kinds == RECORD_KINDS
    assert pretty_flags == 1


def _generator_tuple(expr: ast.expr) -> bool:
    """gens, X.generators, or a slice of either."""
    if isinstance(expr, ast.Subscript):
        expr = expr.value
    return (
        isinstance(expr, ast.Name) and expr.id == "gens"
        or isinstance(expr, ast.Attribute) and expr.attr == "generators"
    )


def _looks_up_a_generator(node: ast.AST) -> bool:
    """A search for a value among the generators: a bisect call, an index
    call or an `in` test on them, or a dict from each generator to its
    position ({n: i for i, n in enumerate(...)})."""
    if isinstance(node, ast.Call):
        func = node.func
        return ast.unparse(func).rpartition(".")[2].startswith("bisect") or (
            isinstance(func, ast.Attribute) and func.attr == "index" and _generator_tuple(func.value)
        )
    if isinstance(node, ast.Compare):
        return any(
            isinstance(op, (ast.In, ast.NotIn)) and _generator_tuple(right)
            for op, right in zip(node.ops, node.comparators)
        )
    if isinstance(node, ast.DictComp):
        loop = node.generators[0]
        return (
            isinstance(loop.iter, ast.Call)
            and ast.unparse(loop.iter.func) == "enumerate"
            and isinstance(loop.target, ast.Tuple)
            and [ast.unparse(e) for e in loop.target.elts]
            == [ast.unparse(node.value), ast.unparse(node.key)]
        )
    return False


def test_each_single_semigroup_rule_has_one_owner():
    products, cap_raisers, cap_readers = set(), set(), set()
    generator_lookups, not_pf_raisers, mismatch_raisers = set(), set(), set()
    for path in sorted(PACKAGE.rglob("*.py")):
        for owner, node in _with_owner(ast.parse(path.read_text())):
            where = f"{path.relative_to(PACKAGE)}:{owner}"
            if _looks_up_a_generator(node):
                generator_lookups.add(where)
            if isinstance(node, ast.Call) and ast.unparse(node.func) in ("math.prod", "prod"):
                products.add(where)
            elif isinstance(node, ast.Raise):
                raised = ast.unparse(node)
                if "EnumerationCapError" in raised:
                    cap_raisers.add(where)
                if "NotPseudoFrobeniusError" in raised:
                    not_pf_raisers.add(where)
                if "MismatchedPairError" in raised:
                    mismatch_raisers.add(where)
            elif (
                isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                and node.id == "MATRIX_CAP"
                or isinstance(node, ast.Attribute) and node.attr == "MATRIX_CAP"
                or isinstance(node, ast.ImportFrom)
                and any(alias.name == "MATRIX_CAP" for alias in node.names)
            ):
                cap_readers.add(where)
    assert products == {"gorenstein.py:count_choices"}
    assert cap_raisers == {"gorenstein.py:capped_product"}
    assert cap_readers == {"gorenstein.py:capped_product"}
    assert generator_lookups == {"gorenstein.py:companion_finder"}
    assert not_pf_raisers == {"rf.py:_require_pseudo_frobenius"}
    assert mismatch_raisers == {"rf.py:_require_ng_vector"}


def test_every_error_kind_has_a_raiser():
    # the subclasses of SemigroupError defined in errors.py, against the
    # names every raise statement in src/ raises (X or X(...))
    kinds = {"SemigroupError"}
    for stmt in ast.parse((PACKAGE / "errors.py").read_text()).body:
        if isinstance(stmt, ast.ClassDef) and any(
            isinstance(base, ast.Name) and base.id in kinds for base in stmt.bases
        ):
            kinds.add(stmt.name)
    kinds.remove("SemigroupError")
    raised = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(ast.unparse(exc).rpartition(".")[2])
    assert kinds == {name for name in numsgps.__all__ if name.endswith("Error")} - {"SemigroupError"}
    assert sorted(kinds - raised) == []


def test_only_construct_reads_an_ideals_least_elements():
    # the ideal format (least element per residue class) has one owner
    readers = {
        path.relative_to(PACKAGE).as_posix()
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr == "least"
    }
    assert readers == {"construct.py"}


def test_one_function_refuses_formula_generators():
    raisers = {
        f"{path.relative_to(PACKAGE)}:{owner}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for owner, node in _with_owner(ast.parse(path.read_text()))
        if isinstance(node, ast.Raise)
        and "FamilyPropertyError" in ast.unparse(node)
        and "minimal system" in ast.unparse(node)
    }
    assert raisers == {"construct.py:_certified"}


def _raisers_saying(text: str) -> set[str]:
    """Where a raise statement in src/ contains text."""
    return {
        f"{path.relative_to(PACKAGE)}:{owner}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for owner, node in _with_owner(ast.parse(path.read_text()))
        if isinstance(node, ast.Raise) and text in ast.unparse(node)
    }


def test_one_function_refuses_a_walk_bound():
    # the embedding-dimension filter; the genus bound obeys require_int
    assert _raisers_saying("embdim") == {"verify/enumeration.py:require_embdim"}


def test_one_function_refuses_an_argument_that_is_not_an_integer():
    assert _raisers_saying("must be an integer") == {"core.py:require_int"}


def _record_key_writers(key: str) -> set[str]:
    """Where a record key is written in src/: as a dict key, a string or
    a keyword argument."""
    return {
        f"{path.relative_to(PACKAGE)}:{owner}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for owner, node in _with_owner(ast.parse(path.read_text()))
        if isinstance(node, ast.Constant) and node.value == key
        or isinstance(node, ast.keyword) and node.arg == key
    }


def test_one_function_builds_the_report_record():
    assert _record_key_writers("vector_count") == {"verify/harness.py:_report"}


@pytest.mark.parametrize("key, builder", [
    ("ell", "gorenstein.py:_ng_record"),
    ("witnesses", "rf.py:classify_pf"),
])
def test_one_function_builds_each_single_semigroup_record(key, builder):
    # the NG-vector record and the PF split's are the library's, and
    # `sgp` emits them unchanged
    assert _record_key_writers(key) == {builder}


def _kept_for_library_use() -> set[str]:
    """The names listed in README.md's "Public API" section."""
    section = README.read_text().split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"^- `(\w+)`", section, re.MULTILINE))


def test_every_public_name_has_a_reader_in_src():
    # public: the two export tables and every public top-level def or
    # class; a reader is a loaded name, or an attribute of an imported
    # name (rf.max_gap_table), outside the export tables and outside the
    # definition of the name itself
    public = {*numsgps.__all__, *numsgps.verify.__all__}
    read = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        }
        public.update(
            stmt.name
            for stmt in tree.body
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not stmt.name.startswith("_")
        )
        if path in EXPORT_TABLES:
            continue
        for owner, node in _with_owner(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in imported
            ):
                name = node.attr
            else:
                continue
            if name != owner:
                read.add(name)
    kept = _kept_for_library_use()
    assert sorted(public - read - kept) == []
    # the list names public names that need it, and nothing else
    assert sorted(kept - public) == []
    assert sorted(kept & read) == []
