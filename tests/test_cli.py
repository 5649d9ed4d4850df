"""Command-line interface: golden records, exit codes, determinism."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from numsgps import gorenstein
from numsgps.cli import main
from numsgps.verify import CLAIM_NAMES, HarnessConfig, check_all, check_semigroup
from numsgps.verify.claims import CLAIM_FUNCTIONS, FAIL, ClaimResult

GOLDEN = Path(__file__).parent / "golden" / "cli_cases.jsonl"
SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out.splitlines()


def golden_cases():
    with open(GOLDEN) as fh:
        return [json.loads(line) for line in fh]


@pytest.mark.parametrize(
    "case", golden_cases(), ids=lambda c: " ".join(c["argv"])
)
def test_golden_outputs(case, capsys):
    code, lines = run_cli(case["argv"], capsys)
    assert code == case["exit"]
    assert lines == case["stdout"]


def test_records_are_wrapped_json(capsys):
    _, lines = run_cli(["info", "13,45,72,79,99"], capsys)
    rec = json.loads(lines[0])
    assert set(rec) == {"schema_version", "kind", "payload"}
    assert rec["kind"] == "info"
    assert rec["payload"]["pf"] == [59, 185, 212, 244]
    assert rec["payload"]["nearly_gorenstein"] is True
    assert rec["payload"]["almost_symmetric"] is False


def test_gcd_error_payload_and_exit(capsys):
    code, lines = run_cli(["info", "4,6"], capsys)
    assert code == 2
    rec = json.loads(lines[0])
    assert rec["payload"]["error"] == "GcdNotOne"


def test_malformed_generators_exit_two(capsys):
    _assert_one_invalid_argument_record(["info", "4,x"], capsys, kind="info")


@pytest.mark.parametrize(
    "argv",
    [
        ["info", "-3,5"],
        ["info", "3,x"],
        ["info", "3,x", "--pretty"],
        ["ng-vectors", "-3,5"],
        ["rf", "3,x", "4"],
        ["classify-pf", "-3,5"],
        ["verify", "--gens", "-3,5"],
        ["construct", "duplication", "--gens", "3,x", "--b", "1"],
        ["construct", "tower", "--gens", "-3,5", "--depth", "1"],
        ["rf", "3,5"],
        ["verify", "--genus-max", "2", "--workers", "x"],
        ["construct"],
        # arguments the subcommand does not take
        ["info", "3,5", "--bogus"],
        ["info", "3,5", "--bogus", "--pretty"],
        ["ng-vectors", "3,5", "7"],
        ["verify", "--genus-max", "3", "extra"],
        ["rf", "3,5", "7", "--minus", "7,7"],
    ],
    ids=" ".join,
)
def test_argparse_rejections_are_records(argv, capsys):
    # -3,5 without "--" reads as an option, so the list is missing
    kind = {"ng-vectors": "ngvectors", "classify-pf": "classify"}.get(argv[0], argv[0])
    if "--pretty" in argv:
        code, lines = run_cli(argv, capsys)
        assert code == 2
        assert lines[:2] == [f"[{kind}]", 'error: "InvalidArgument"']
        assert len(lines) == 3
    else:
        _assert_one_invalid_argument_record(argv, capsys, kind=kind)


def test_sgp_without_a_subcommand_keeps_the_usage_message(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid choice" in captured.err
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: sgp")


def test_non_ng_vectors_exit_one(capsys):
    code, lines = run_cli(["ng-vectors", "7,9,11,17"], capsys)
    assert code == 1
    rec = json.loads(lines[0])
    assert rec["payload"]["error"] == "NotNearlyGorenstein"


def test_rf_count_never_capped(capsys, monkeypatch):
    monkeypatch.setattr(gorenstein, "MATRIX_CAP", 1)
    code, lines = run_cli(["rf", "5,6,7,8,9", "4", "--count"], capsys)
    assert code == 0
    assert json.loads(lines[0])["payload"]["count"] == 4


def test_rf_stream_honors_cap(capsys, monkeypatch):
    monkeypatch.setattr(gorenstein, "MATRIX_CAP", 3)
    code, lines = run_cli(["rf", "5,6,7,8,9", "4"], capsys)
    assert code == 1
    payload = json.loads(lines[0])["payload"]
    assert payload["error"] == "EnumerationCap"
    assert payload["count"] == 4
    assert payload["cap"] == 3


def test_rf_stream_indices(capsys, monkeypatch):
    # the cap is a constant: the former SGP_MATRIX_CAP setting is not read
    monkeypatch.setenv("SGP_MATRIX_CAP", "3")
    code, lines = run_cli(["rf", "5,6,7,8,9", "4"], capsys)
    assert code == 0
    assert [json.loads(l)["payload"]["index"] for l in lines] == [0, 1, 2, 3]
    for line in lines:
        rows = json.loads(line)["payload"]["rows"]
        for i, row in enumerate(rows):
            assert row[i] == -1
            assert sum(c * n for c, n in zip(row, (5, 6, 7, 8, 9))) == 4


def test_bad_ng_index_exit_two(capsys):
    code, _ = run_cli(["classify-pf", "13,45,72,79,99", "--ng-index", "5"], capsys)
    assert code == 2


# runs one sgp command under a 200 MB address-space limit and prints the
# seconds main took to stderr
_TIMED_CHILD = """
import resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (200 * 2**20, 200 * 2**20))
from numsgps.cli import main
start = time.perf_counter()
code = main(sys.argv[1:])
print(time.perf_counter() - start, file=sys.stderr)
sys.exit(code)
"""


@pytest.mark.parametrize(
    "argv, vector",
    [
        pytest.param(argv, vector, id=" ".join(argv))
        for argv, vector in (
            (["classify-pf"], [11] * 12),
            (["classify-pf", "--ng-index", "439084799"], [11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 1]),
            (["rf", "1", "--kind", "minus", "--count"], [11] * 12),
            (["rf", "3", "--kind", "minus", "--ng-index", "123456789", "--count"],
             [11, 11, 10, 9, 8, 7, 8, 11, 5, 7, 11, 6]),
        )
    ],
)
def test_selecting_an_ng_vector_lists_none(argv, vector):
    # <12, ..., 23> has 439,084,800 NG-vectors; selecting one by index
    # decodes it instead of listing them all
    gens = ",".join(map(str, range(12, 24)))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", _TIMED_CHILD, argv[0], gens, *argv[1:]],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert float(proc.stderr) < 1.0
    assert json.loads(proc.stdout)["payload"]["vector"] == vector


def test_ng_vectors_over_the_cap_is_refused_before_listing():
    # <12, ..., 23> has 439,084,800 NG-vectors: the count comes from the
    # candidate-set sizes, and no vector is built
    gens = ",".join(map(str, range(12, 24)))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", _TIMED_CHILD, "ng-vectors", gens],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert float(proc.stderr) < 1.0
    record = json.loads(proc.stdout)
    assert record["kind"] == "ngvectors"
    assert record["payload"] == {
        "error": "EnumerationCap",
        "message": f"enumeration would produce 439084800 NG-vectors, cap is {gorenstein.MATRIX_CAP}",
        "count": 439084800,
        "cap": gorenstein.MATRIX_CAP,
    }


@pytest.mark.parametrize(
    "gens", ["6,600000005,600000007", "6,2100000005,2100000007", "20,2147483639,2147483641"]
)
def test_verify_of_a_huge_frobenius_number_builds_no_reachability_mask(gens):
    # <2k, a, a + 2> with a = -1 mod 2k has F about k * a (up to 2.1e10
    # here); every unpinned f of NGV_PROPS is settled by a multiple of one
    # later generator, so no F-bit mask is built
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", _TIMED_CHILD, "verify", "--gens", gens],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert float(proc.stderr) < 1.0
    payload = json.loads(proc.stdout)["payload"]
    assert payload["nearly_gorenstein"]
    assert [c["status"] for c in payload["claims"] if c["claim"] == "NGV_PROPS"] == ["pass"]
    assert all(c["status"] != "fail" for c in payload["claims"])


def test_ng_vectors_cap_is_inclusive(capsys, monkeypatch):
    # the worked example has exactly two NG-vectors
    monkeypatch.setattr(gorenstein, "MATRIX_CAP", 2)
    code, lines = run_cli(["ng-vectors", "13,45,72,79,99"], capsys)
    assert code == 0 and json.loads(lines[0])["payload"]["count"] == 2
    monkeypatch.setattr(gorenstein, "MATRIX_CAP", 1)
    code, lines = run_cli(["ng-vectors", "13,45,72,79,99"], capsys)
    payload = json.loads(lines[0])["payload"]
    assert code == 1 and (payload["count"], payload["cap"]) == (2, 1)


def test_pretty_mode(capsys):
    code, lines = run_cli(["info", "13,45,72,79,99", "--pretty"], capsys)
    assert code == 0
    assert lines[0] == "[info]"
    assert any(line.startswith("frobenius: 244") for line in lines)


def test_verify_genus_zero(capsys):
    code, lines = run_cli(["verify", "--genus-max", "0"], capsys)
    assert code == 0
    payload = json.loads(lines[-1])["payload"]
    assert payload["semigroups"] == 1
    assert payload["total_failures"] == 0
    for counts in payload["claims"].values():
        assert counts == {"pass": 0, "fail": 0, "inapplicable": 1}


def test_verify_single_semigroup(capsys):
    code, lines = run_cli(["verify", "--gens", "13,45,72,79,99"], capsys)
    assert code == 0
    payload = json.loads(lines[0])["payload"]
    assert payload["generators"] == [13, 45, 72, 79, 99]
    assert "seconds" not in payload
    status = {c["claim"]: c["status"] for c in payload["claims"]}
    assert status["THM_MAIN"] == "pass"


@pytest.mark.parametrize(
    "gens", [(13, 45, 72, 79, 99), (1,), (23, 25, 26, 27, 37, 40, 43, 55)], ids=str
)
def test_verify_gens_emits_the_harness_record(gens, capsys):
    # the payload is the record check_semigroup builds, as it is
    record = check_semigroup(gens)
    code, lines = run_cli(["verify", "--gens", ",".join(map(str, gens))], capsys)
    assert code == 0
    assert [json.loads(line)["payload"] for line in lines] == [record]
    assert json.loads(json.dumps(record)) == record


@pytest.mark.parametrize("flag", [",", ""])
def test_verify_an_empty_claims_list_checks_no_claim(flag, capsys):
    # only an absent --claims means every claim, as in the library
    code, lines = run_cli(["verify", "--gens", "3,5", "--claims", flag], capsys)
    assert code == 0
    assert [json.loads(line)["payload"] for line in lines] == [
        check_semigroup((3, 5), claims=())
    ]
    code, lines = run_cli(["verify", "--genus-max", "2", "--claims", flag], capsys)
    assert code == 0
    assert json.loads(lines[0])["payload"]["claims_checked"] == []


def test_verify_reports_are_the_harness_records(capsys):
    records = []
    summary = check_all(HarnessConfig(genus_max=4), sink=records.append)
    code, lines = run_cli(["verify", "--genus-max", "4", "--reports"], capsys)
    assert code == 0
    assert [json.loads(line)["payload"] for line in lines] == [*records, summary]
    assert len(records) == summary["semigroups"] == 15
    assert json.loads(json.dumps(records)) == records


def test_verify_gens_exit_code_follows_the_record_statuses(capsys, monkeypatch):
    def failing(ctx):
        return ClaimResult(FAIL, {"generators": list(ctx.S.generators)})

    monkeypatch.setitem(CLAIM_FUNCTIONS, "HERZOG3", failing)
    code, lines = run_cli(["verify", "--gens", "3,5,7"], capsys)
    assert code == 1
    claims = json.loads(lines[0])["payload"]["claims"]
    assert [c["claim"] for c in claims if c["status"] == FAIL] == ["HERZOG3"]


def _assert_one_invalid_argument_record(argv, capsys, kind="verify"):
    code, lines = run_cli(argv, capsys)
    assert code == 2
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["kind"] == kind
    assert record["payload"]["error"] == "InvalidArgument"


def test_verify_requires_a_target(capsys):
    _assert_one_invalid_argument_record(["verify"], capsys)


def test_verify_reports_needs_single_worker(capsys):
    _assert_one_invalid_argument_record(
        ["verify", "--genus-max", "8", "--workers", "2", "--reports"], capsys
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["--genus-max", "-1"],
        ["--genus-max", "8", "--workers", "0"],
        # an embedding dimension below 1 would check no semigroup
        ["--genus-max", "3", "--embdim", "0"],
        ["--genus-max", "3", "--embdim", "-2"],
        ["--genus-max", "3", "--embdim", "3,0"],
        # the range flags do not apply to one semigroup
        ["--gens", "3,5", "--genus-max", "4"],
        ["--gens", "3,5", "--workers", "2", "--reports"],
        ["--gens", "3,5", "--embdim", "9"],
        ["--gens", "3,5", "--workers", "2"],
        ["--gens", "3,5", "--reports"],
    ],
    ids=" ".join,
)
def test_verify_config_errors_are_records(argv, capsys):
    _assert_one_invalid_argument_record(["verify", *argv], capsys)


def test_verify_reports_stream(capsys):
    code, lines = run_cli(["verify", "--genus-max", "2", "--reports"], capsys)
    assert code == 0
    assert len(lines) == 5
    kinds = [json.loads(l)["payload"].get("kind") for l in lines]
    assert kinds[-1] == "verify-summary"
    first = json.loads(lines[0])["payload"]
    assert first["generators"] == [1]
    assert "seconds" not in first


def test_verify_workers_byte_identical(capsys):
    base = run_cli(["verify", "--genus-max", "12", "--workers", "1"], capsys)
    split = run_cli(["verify", "--genus-max", "12", "--workers", "8"], capsys)
    assert base[0] == split[0] == 0
    assert base[1] == split[1]
    payload = json.loads(base[1][-1])["payload"]
    assert payload["semigroups"] == 1413


def test_construct_round_trip(capsys):
    _, lines = run_cli(["construct", "dim6", "--T", "2", "--k", "3", "--d", "4"], capsys)
    built = json.loads(lines[0])["payload"]
    _, lines = run_cli(["info", ",".join(map(str, built["generators"]))], capsys)
    info = json.loads(lines[0])["payload"]
    for key in ("generators", "frobenius", "genus", "type", "pf"):
        assert info[key] == built[key]
    assert info["almost_symmetric"] == built["almost_symmetric"]
    assert info["nearly_gorenstein"] == built["nearly_gorenstein"]


def test_construct_duplication_with_explicit_ideal(capsys):
    code, lines = run_cli(
        ["construct", "duplication", "--gens", "5,7,9", "--b", "7",
         "--ideal", "7,10"],
        capsys,
    )
    assert code == 0
    payload = json.loads(lines[0])["payload"]
    assert payload["params"]["ideal"] == [7, 10]
    # even members halve into the base, odd members land in 2E + b
    gens = payload["generators"]
    assert all(g % 2 == 0 or (g - 7) % 2 == 0 for g in gens)


def test_construct_tower_levels(capsys):
    code, lines = run_cli(
        ["construct", "tower", "--gens", "3,4,5", "--depth", "2"], capsys
    )
    assert code == 0
    levels = json.loads(lines[0])["payload"]["levels"]
    assert [lv["embedding_dimension"] for lv in levels] == [3, 6, 12]
    assert [lv["type"] for lv in levels] == [2, 5, 11]
    assert [lv["excess"] for lv in levels] == [-4, -7, -13]


def test_construct_tower_past_the_multiplicity_limit_is_a_usage_error(capsys):
    # refused before level 1: <3, 5> would reach multiplicity 3 * 2^40
    code, lines = run_cli(
        ["construct", "tower", "--gens", "3,5", "--depth", "40"], capsys
    )
    assert code == 2
    assert json.loads(lines[0])["payload"]["error"] == "GeneratorTooLarge"


def test_info_near_the_generator_limit(capsys):
    code, lines = run_cli(["info", "3,2147483647"], capsys)
    assert code == 0
    payload = json.loads(lines[0])["payload"]
    assert payload["frobenius"] == 4294967291
    assert payload["genus"] == 2147483646
    assert payload["pf"] == [4294967291]
    code, lines = run_cli(["info", "3,2147483648"], capsys)
    assert code == 2
    assert json.loads(lines[0])["payload"]["error"] == "GeneratorTooLarge"


def test_info_refuses_a_multiplicity_above_the_limit(capsys):
    # refused before the Apery list is allocated, not by running out of memory
    for gens in ("2147483646,2147483647", f"{2**20 + 1},{2**20 + 2}"):
        code, lines = run_cli(["info", gens], capsys)
        assert code == 2
        assert json.loads(lines[0])["payload"]["error"] == "GeneratorTooLarge"
    code, lines = run_cli(["info", f"{2**20},{2**20 + 1}"], capsys)
    assert code == 0
    assert json.loads(lines[0])["payload"]["multiplicity"] == 2**20


def test_info_reads_no_frobenius_sized_window(capsys):
    for a, b in ((3, 1000003), (7, 123456), (1009, 2**31 - 1)):
        code, lines = run_cli(["info", f"{a},{b}"], capsys)
        assert code == 0
        payload = json.loads(lines[0])["payload"]
        F = a * b - a - b
        assert payload["frobenius"] == F
        assert payload["genus"] == (a - 1) * (b - 1) // 2
        assert payload["pf"] == [F]
        assert payload["type"] == 1
        assert payload["symmetric"] is True
        assert payload["almost_symmetric"] is True
        assert payload["nearly_gorenstein"] is True
    # <5, 5 + d, 5 + 2d> with gcd(5, d) = 1 has Frobenius number 4d + 5
    d = 10**6 + 1
    code, lines = run_cli(["info", f"5,{5 + d},{5 + 2 * d}"], capsys)
    assert code == 0
    payload = json.loads(lines[0])["payload"]
    assert payload["frobenius"] == 4 * d + 5
    assert payload["pf"][-1] == payload["frobenius"]
    assert payload["type"] == len(payload["pf"])
    assert payload["symmetric"] == (payload["type"] == 1)


def test_verify_reads_no_frobenius_sized_window(capsys):
    # every claim, TRACE_EQ included, decides a two-generated semigroup
    # with F near 2**32 or 2**41 from its Apery set
    for gens in ("3,2147483647", "1009,2147483647"):
        code, lines = run_cli(["verify", "--gens", gens], capsys)
        assert code == 0
        payload = json.loads(lines[0])["payload"]
        status = {c["claim"]: c["status"] for c in payload["claims"]}
        assert "fail" not in status.values()
        assert status["TRACE_EQ"] == status["AS_IMPLIES_NG"] == "pass"


def test_construct_reads_no_frobenius_sized_window(capsys):
    # the duplication identity is checked on Apery sets: a base with F
    # near 4 * 10**6 answers at once, and one near 2**32 is refused when
    # its doubled generator passes the limit, before any window is built
    code, lines = run_cli(
        ["construct", "duplication", "--gens", "3,2000003", "--b", "3"], capsys
    )
    assert code == 0
    payload = json.loads(lines[0])["payload"]
    assert payload["generators"] == [6, 9, 4000006, 4000009]
    assert payload["frobenius"] == 8000009
    assert payload["pf"] == [3, 8000006, 8000009]
    for argv in (
        ["construct", "duplication", "--gens", "3,2147483647", "--b", "3"],
        ["construct", "tower", "--gens", "3,2147483647", "--depth", "1"],
    ):
        code, lines = run_cli(argv, capsys)
        assert code == 2
        assert json.loads(lines[0])["payload"]["error"] == "GeneratorTooLarge"


_GENERATORS = st.lists(st.integers(-2, 60), max_size=6).map(
    lambda values: ",".join(map(str, values))
)


@st.composite
def cli_argv(draw):
    """Bounded argv for every subcommand: generator lists in -2..60, and
    parameters from just below their valid range to a size that answers
    in milliseconds."""

    def number(lo, hi):
        return str(draw(st.integers(lo, hi)))

    gens = draw(_GENERATORS)
    command = draw(st.sampled_from(
        ("info", "ng-vectors", "rf", "classify-pf", "verify",
         "backelin", "dim6", "duplication", "tower")
    ))
    if command in ("info", "ng-vectors"):
        return [command, gens]
    if command == "rf":
        kind = draw(st.sampled_from(("plus", "minus")))
        count = draw(st.sampled_from(([], ["--count"])))
        return ["rf", gens, number(-3, 300), "--kind", kind,
                "--ng-index", number(-1, 3), *count]
    if command == "classify-pf":
        return [command, gens, "--ng-index", number(-1, 3)]
    if command == "verify":
        claims = draw(st.lists(st.sampled_from((*CLAIM_NAMES, "NO_SUCH")), max_size=3))
        extra = ["--claims", ",".join(claims)] if claims else []
        # --gens rejects the range flags, so it gets them on a third of its draws
        if draw(st.booleans()):
            target = ["--gens", gens]
            if draw(st.integers(0, 2)):
                return ["verify", *target, *extra]
        else:
            target = ["--genus-max", number(-1, 5)]
        if draw(st.booleans()):
            extra += ["--embdim", draw(_GENERATORS)]
        extra += draw(st.sampled_from(([], ["--reports"])))
        return ["verify", *target, "--workers", number(-1, 1), *extra]
    if command == "backelin":
        return ["construct", "backelin", "--T", number(-1, 6)]
    if command == "dim6":
        return ["construct", "dim6", "--T", number(-1, 6),
                "--d", number(-1, 40), "--k", number(-1, 40)]
    if command == "duplication":
        ideal = draw(st.sampled_from(([], ["--ideal", draw(_GENERATORS)])))
        return ["construct", "duplication", "--gens", gens,
                "--b", number(-3, 61), *ideal]
    return ["construct", "tower", "--gens", gens, "--depth", number(-1, 2)]


# monkeypatch sets the same matrix cap for every example
@settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=500,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(argv=cli_argv())
def test_every_argv_exits_with_a_code_and_records(argv, monkeypatch):
    monkeypatch.setattr(gorenstein, "MATRIX_CAP", 200)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2), argv
    for line in out.getvalue().splitlines():
        assert set(json.loads(line)) == {"schema_version", "kind", "payload"}, argv
