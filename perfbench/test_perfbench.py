"""Fast self-tests of the benchmark's own logic: the percentile rule,
failure counting, the digest gates, query generation, span accounting,
the pace correction and the agreement of BENCHMARK.json with the code.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src"), str(HERE.parent / "tests")]

import measure  # noqa: E402
import pace  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Outcome  # noqa: E402


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert measure.percentile(values, 50) == 50
    assert measure.percentile(values, 95) == 95
    assert measure.percentile(values[::-1], 95) == 95
    assert measure.percentile([7.0], 95) == 7.0


def test_tail_percentile_keeps_ten_samples_beyond():
    assert measure.beyond(240, 95) == 12
    assert measure.tail_percentile(240) == 95
    assert measure.tail_percentile(199) == 90
    assert measure.tail_percentile(1000) == 99
    assert measure.tail_percentile(5) is None


def test_run_counts_each_check_once():
    r = run.Run()
    r.check([], "a")
    r.check(["wrong", "also wrong"], "b")
    r.check([], "c")
    assert (r.attempted, r.failed) == (3, 1)
    assert r.problems == ["b: wrong", "b: also wrong"]


KINDS = frozenset({"NotNearlyGorenstein", "EnumerationCap"})


def _record(payload, kind="info"):
    return json.dumps({"schema_version": "1", "kind": kind, "payload": payload}) + "\n"


def test_query_outcomes_that_count_as_success():
    ok = Outcome(0, _record({"count": 2}, "rf"))
    assert workloads.query_problems(["rf", "3,5", "7", "--count"], ok, KINDS) == []
    structured = Outcome(1, _record({"error": "NotNearlyGorenstein", "message": "m"}))
    assert workloads.query_problems(["ng-vectors", "7,9,11,17"], structured, KINDS) == []


def test_query_outcomes_that_count_as_failures():
    argv = ["ng-vectors", "7,9,11,17"]
    failing = [
        Outcome(None, "", "RuntimeError: boom"),
        Outcome(2, _record({"error": "GcdNotOne", "message": "m"})),
        Outcome(1, _record({"error": "Unknown", "message": "m"})),
        Outcome(1, _record({"vectors": []})),
        Outcome(0, "not json\n"),
        Outcome(0, ""),
    ]
    for outcome in failing:
        assert workloads.query_problems(argv, outcome, KINDS), outcome


def test_info_answers_are_checked_against_the_oracle():
    argv = ["info", "3,5"]
    right = Outcome(0, _record({"frobenius": 7, "genus": 4, "pf": [7]}))
    wrong = Outcome(0, _record({"frobenius": 7, "genus": 5, "pf": [7]}))
    assert workloads.query_problems(argv, right, KINDS, workloads.sieve_oracle) == []
    assert workloads.query_problems(argv, wrong, KINDS, workloads.sieve_oracle)


def _summary(seed=0):
    return {
        "seed": seed,
        "by_genus": {str(g): n for g, n in enumerate(workloads.CENSUS_BY_GENUS)},
        "claims": {"HERZOG3": {"pass": 10, "fail": 0, "inapplicable": 3}},
        "total_failures": 0,
    }


def test_summary_digest_ignores_only_the_seed():
    assert measure.summary_digest(_summary(0)) == measure.summary_digest(_summary(9))
    changed = _summary()
    changed["claims"]["HERZOG3"]["pass"] = 11
    assert measure.summary_digest(changed) != measure.summary_digest(_summary())


def test_census_gate():
    reference = measure.summary_digest(_summary())
    assert workloads.census_problems(_summary(5), reference) == []
    miscounted = _summary()
    miscounted["by_genus"]["16"] = 4805
    failing = _summary()
    failing["total_failures"] = 1
    tampered = _summary()
    tampered["claims"]["HERZOG3"]["fail"] = 1
    for summary in (miscounted, failing, tampered):
        assert workloads.census_problems(summary, reference), summary


def test_queries_are_seeded_and_keep_the_mix():
    first = workloads.make_queries(3)
    assert first == workloads.make_queries(3)
    assert first != workloads.make_queries(4)
    assert len(first) == workloads.QUERY_COUNT
    large = [q for q in first if q[0] == "info" and q[1].count(",") == 1]
    assert len(large) == workloads.LARGE_INFO
    for q in large:
        a, b = map(int, q[1].split(","))
        assert math.gcd(a, b) == 1
        assert 0.99 * 2e4 <= a * b - a - b <= 1.01 * 2e5
    small = [q for q in first if q[0] != "construct" and q not in large]
    for q in small:
        gens = [int(x) for x in (q[2] if q[0] == "verify" else q[1]).split(",")]
        assert 3 <= len(gens) <= 6 and gens[0] <= 40
        assert math.gcd(*gens) == 1 and workloads._is_minimal(gens)


def test_frobenius_matches_the_oracle():
    for gens in ([3, 5], [6, 9, 20], [13, 45, 72, 79, 99]):
        assert workloads._frobenius(gens) == workloads.sieve_oracle(tuple(gens))[0]


def test_self_time_subtracts_direct_children():
    tracer = tracing.Tracer()
    inner = tracer.span("inner", lambda: sum(range(20000)))

    def outer_body():
        inner()
        inner()
        return sum(range(20000))

    tracer.span("outer", outer_body)()
    assert tracer.call_count("inner") == 2 and tracer.call_count("outer") == 1
    total = tracer.total_time("outer")
    assert math.isclose(tracer.self_time("outer") + tracer.self_time("inner"), total)
    assert math.isclose(tracer.child_total("outer", "inner"), tracer.total_time("inner"))
    assert list(tracer.parent) == [-1, 0, 0]


def test_wrappers_are_installed_and_removed():
    import numsgps.cli  # noqa: F401  (imports every layer)
    import numsgps.rf
    import numsgps.verify.claims as claims
    from numsgps.core import NumericalSemigroup

    original = numsgps.rf.classify_pf
    tracer = tracing.Tracer()
    with tracing.installed(tracer) as absent:
        assert absent == []
        assert claims.classify_pf is not original
        results, _ctx = claims.run_claims(NumericalSemigroup((13, 45, 72, 79, 99)))
    assert claims.classify_pf is original and numsgps.rf.classify_pf is original
    assert all(r.status != "fail" for r in results.values())
    assert tracer.call_count("verify.claims.run_claims") == 1
    assert tracer.call_count("rf.classify_pf") > 0
    assert tracer.routes["literal"] + tracer.routes["factored"] == 1
    metrics = tracing.layer_metrics(tracer, {n: 0 for n in (
        "verify.harness.parent_cpu_s", "verify.harness.worker_cpu_s",
        "verify.harness.worker_utilization", "verify.enumeration.walk_s",
        "verify.enumeration.build_s", "verify.enumeration.nodes", "trace_overhead",
    )})
    assert list(metrics) == [name for name, _u, _b in tracing.PER_LAYER]


def test_reference_seconds_divides_out_the_pace_and_skips_sampling():
    pacer = pace.Pacer()
    # a 0.1 s sample at every whole second; pace 2 before t = 5, then 0.5
    for t in range(11):
        pacer.add(t, t + 0.1, 2.0 if t < 5 else 0.5)
    assert math.isclose(pacer.reference_seconds(0.2, 0.8), 0.6 * 2.0)
    # the sample at t = 1 lies inside and is not counted
    assert math.isclose(pacer.reference_seconds(1.0, 2.0), 0.9 * 2.0)
    assert math.isclose(pacer.reference_seconds(5.5, 5.9), 0.4 * 0.5)
    # a long interval takes the mean pace of every sample it spans
    assert math.isclose(pacer.reference_seconds(0.5, 10.5), 9.0 * (5 * 2.0 + 6 * 0.5) / 11)


def test_pacer_samples_while_active_and_restores_the_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    with pace.Pacer(0.01) as pacer:
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(pacer.paces) >= 5 and all(p > 0 for p in pacer.paces)
    assert pacer.starts == sorted(pacer.starts)


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        tracing.PER_LAYER
    )
