"""Benchmark of the numsgps package: end-to-end metrics per workload, or
per-layer metrics from a traced run.

    python3 perfbench/run.py --workload census-serial --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 1

Workloads (see NOTES.md for why each was chosen):
  census-serial    check_all(genus_max=16, workers=1): the verification job
  census-parallel  the same job with 2 workers through the fork pool
                   (not in BENCHMARK.json: too unsteady on a shared host)
  queries          240 seeded `sgp` invocations through cli.main, one client

Each run sets the package up several times (median reported), repeats
its unit (one job, or one sweep of the queries) while the next unit
still fits in --seconds, then checks every output.  Timings are given at
the reference pace of pace.py: the host's speed is sampled in-process
while they run and divided out (the raw timings are printed beside).
The last line of stdout is one JSON object: correct, attempted, failed
and the metrics (end-to-end with --trace 0, per-layer with --trace 1).
A record of the run, and the spans of a traced run, go to
perfbench/results/.
"""

from __future__ import annotations

import argparse
import functools
import json
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from measure import (
    MIN_BEYOND,
    beyond,
    environment,
    loadavg_1m,
    nproc,
    output_digest,
    peak_rss_mb,
    percentile,
    tail_percentile,
)
from pace import Pacer
from tracing import PER_LAYER, Tracer, installed, layer_metrics
from workloads import (
    CENSUS_GENUS,
    census_config,
    census_problems,
    error_kinds,
    make_queries,
    query_problems,
    run_census,
    run_sweep,
    sieve_oracle,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKLOADS = ("census-serial", "census-parallel", "queries")
# (name, unit) of every end-to-end metric; all but peak_rss_mb are
# timings at the reference pace
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
SETUP_SAMPLES = 7
SETUP_PACE_INTERVAL_S = 0.005
PARALLEL_WORKERS = 2
MAX_PROBLEMS_SHOWN = 10


def _workers(workload: str) -> int:
    return min(PARALLEL_WORKERS, nproc()) if workload == "census-parallel" else 1


def setup(workload: str, seed: int):
    """Import the package and build the workload's inputs."""
    import numsgps.cli  # noqa: F401  (imports every layer)

    if workload == "queries":
        return make_queries(seed)
    return census_config(seed, _workers(workload))


def timed_setup(workload: str, seed: int):
    """(inputs, raw seconds, seconds at the reference pace) of setup()."""
    with Pacer(SETUP_PACE_INTERVAL_S) as pacer:
        start = time.perf_counter()
        inputs = setup(workload, seed)
        end = time.perf_counter()
    return inputs, end - start, pacer.reference_seconds(start, end)


def _setup_samples(workload: str, seed: int, first: tuple[float, float]) -> list[tuple]:
    """`first` plus SETUP_SAMPLES - 1 fresh interpreters doing the same,
    each a (raw, reference-pace) pair of seconds."""
    samples = [first]
    for _ in range(SETUP_SAMPLES - 1):
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-only"],
            capture_output=True, text=True, timeout=120, check=True,
        )
        raw, paced = map(float, child.stdout.split()[-2:])
        samples.append((raw, paced))
    return samples


def _repeat(unit, seconds: float) -> list:
    """Run `unit` at least once, and again while another still fits in
    `seconds` of measured time at the median pace so far."""
    units = [unit()]
    while sum(u.wall_s for u in units) + median([u.wall_s for u in units]) <= seconds:
        units.append(unit())
    return units


class Run:
    """Measured values and check results of one workload run."""

    def __init__(self) -> None:
        self.e2e: dict[str, float] = {}
        self.raw: dict[str, float] = {}  # the timings of e2e before pacing
        self.notes: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.unit_walls: list[tuple[float, float]] = []  # (raw, paced) seconds
        self.per_layer: dict[str, float] | None = None
        self.absent: list[str] = []

    def timings(self, walls: list[tuple], latencies: list[tuple], scale: float) -> None:
        """wall_s and the latency percentiles from (raw, paced) pairs;
        `scale` converts latencies from seconds."""
        self.raw["wall_s"] = median(raw for raw, _ in walls)
        self.e2e["wall_s"] = median(paced for _, paced in walls)
        for p in (50, 95):
            key = f"latency_p{p}_ms"
            self.raw[key] = percentile([raw for raw, _ in latencies], p) * scale
            self.e2e[key] = percentile([paced for _, paced in latencies], p) * scale

    def check(self, problems: list[str], label: str) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)


def _enumeration_timings() -> dict[str, float]:
    from numsgps.verify import count_by_genus, semigroups_up_to

    start = time.perf_counter()
    counts = count_by_genus(CENSUS_GENUS)
    walk = time.perf_counter() - start
    start = time.perf_counter()
    for _ in semigroups_up_to(CENSUS_GENUS):
        pass
    build = time.perf_counter() - start - walk
    return {
        "verify.enumeration.walk_s": walk,
        "verify.enumeration.build_s": build,
        "verify.enumeration.nodes": sum(counts),
    }


def census(workload: str, cfg, seed: int, seconds: float, trace: bool, reference: dict,
           pacer: Pacer) -> Run:
    harness = sys.modules["numsgps.verify.harness"]
    run = Run()
    units = _repeat(lambda: run_census(harness, cfg), seconds)
    run.e2e["peak_rss_mb"] = peak_rss_mb()
    walls = [(u.wall_s, pacer.reference_seconds(u.start, u.end)) for u in units]
    run.unit_walls = walls
    run.timings(walls, walls, 1e3)
    run.notes["wall_s"] = f"median of {len(walls)} check_all jobs"
    run.notes["latency_p50_ms"] = f"per job, n={len(walls)}"
    run.notes["latency_p95_ms"] = f"per job, n={len(walls)}; the slowest job below 200 jobs"
    for k, u in enumerate(units):
        run.check(census_problems(u.summary, reference["census_genus16_sha256"]), f"job {k}")
    if not trace:
        return run

    measured = {
        "verify.harness.parent_cpu_s": median([u.parent_cpu_s for u in units]),
        "verify.harness.worker_cpu_s": median([u.worker_cpu_s for u in units]),
        "verify.harness.worker_utilization": median(
            [u.worker_cpu_s / (cfg.workers * u.wall_s) for u in units]
        ),
        **_enumeration_timings(),
    }
    tracer = Tracer()
    with installed(tracer, per_semigroup_requests=True) as absent:
        traced = run_census(harness, cfg)
    run.absent = absent
    run.check(census_problems(traced.summary, reference["census_genus16_sha256"]), "traced job")
    traced_s = pacer.reference_seconds(traced.start, traced.end)
    measured["trace_overhead"] = traced_s / run.e2e["wall_s"] - 1
    run.per_layer = layer_metrics(tracer, measured)
    tracer.write(RESULTS / f"{workload}.spans.tsv.gz")
    return run


def queries(workload: str, argvs: list, seed: int, seconds: float, trace: bool, reference: dict,
            pacer: Pacer) -> Run:
    cli = sys.modules["numsgps.cli"]
    run = Run()
    units = _repeat(lambda: run_sweep(cli, argvs), seconds)
    run.e2e["peak_rss_mb"] = peak_rss_mb()
    walls = [(u.wall_s, pacer.reference_seconds(u.start, u.end)) for u in units]
    run.unit_walls = walls
    # one latency per query: the median of its repeats
    per_query = zip(*(u.query_spans for u in units))
    latencies = [
        (median(t1 - t0 for t0, t1 in spans),
         median(pacer.reference_seconds(t0, t1) for t0, t1 in spans))
        for spans in per_query
    ]
    n = len(latencies)
    run.timings(walls, latencies, 1e3)
    run.notes["wall_s"] = f"median of {len(units)} sweeps of {n} queries"
    run.notes["latency_p50_ms"] = f"n={n} queries, each the median of {len(units)} sweeps"
    run.notes["latency_p95_ms"] = (
        f"n={n}, {beyond(n, 95)} beyond; "
        f"highest percentile with >={MIN_BEYOND} beyond: p{tail_percentile(n)}"
    )

    kinds = error_kinds()
    oracle = functools.cache(sieve_oracle)
    expected = reference["queries_digests"] if seed == reference["queries_seed"] else None

    def check_sweep(sweep, label: str) -> None:
        for i, (argv, outcome) in enumerate(zip(argvs, sweep.outcomes)):
            problems = query_problems(argv, outcome, kinds, oracle)
            if expected is not None and output_digest(outcome.code, outcome.stdout) != expected[i]:
                problems.append("output differs from the stored reference")
            run.check(problems, f"{label} query {i} {' '.join(argv)}")

    for k, sweep in enumerate(units):
        check_sweep(sweep, f"sweep {k}")
    if not trace:
        return run

    tracer = Tracer()

    def start_query(index: int) -> None:
        tracer.current_request = index

    with installed(tracer) as absent:
        traced = run_sweep(cli, argvs, on_query=start_query)
    run.absent = absent
    check_sweep(traced, "traced sweep")
    traced_s = pacer.reference_seconds(traced.start, traced.end)
    measured = {
        "verify.harness.parent_cpu_s": 0.0,
        "verify.harness.worker_cpu_s": 0.0,
        "verify.harness.worker_utilization": 0.0,
        "verify.enumeration.walk_s": 0.0,
        "verify.enumeration.build_s": 0.0,
        "verify.enumeration.nodes": 0,
        "trace_overhead": traced_s / run.e2e["wall_s"] - 1,
    }
    run.per_layer = layer_metrics(tracer, measured)
    tracer.write(RESULTS / f"{workload}.spans.tsv.gz")
    return run


def run_workload(args) -> int:
    load_before = loadavg_1m()
    if not (ROOT / "src" / "numsgps").is_dir():
        sys.exit(f"perfbench: no numsgps sources under {ROOT / 'src'}")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    inputs, *first_setup = timed_setup(args.workload, args.seed)
    if args.setup_only:
        print(" ".join(map(repr, first_setup)))
        return 0
    setup_s = _setup_samples(args.workload, args.seed, tuple(first_setup))
    reference = json.loads((HERE / "reference.json").read_text())
    body = queries if args.workload == "queries" else census
    with Pacer() as pacer:
        run = body(args.workload, inputs, args.seed, args.seconds, bool(args.trace),
                   reference, pacer)
    run.raw["setup_s"] = median(raw for raw, _ in setup_s)
    run.e2e["setup_s"] = median(paced for _, paced in setup_s)
    run.notes["setup_s"] = f"median of {len(setup_s)} imports plus input generation"
    run.notes["peak_rss_mb"] = "max of self and children ru_maxrss"

    env = environment(ROOT)
    env.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds,
        workers=_workers(args.workload),
        loadavg_1m_before=load_before, loadavg_1m_after=loadavg_1m(),
        median_pace=pacer.median_pace(),
    )
    print(f"env {json.dumps(env)}")
    for name, unit in END_TO_END:
        raw = f"; raw {run.raw[name]:.6g}" if name in run.raw else ""
        print(f"  {name:<16} {run.e2e[name]:>12.6g} {unit:<3} {run.notes[name]}{raw}")
    rate = run.failed / run.attempted
    print(f"  {'error_rate':<16} {rate:>12.6g}     {run.failed} failed of {run.attempted} attempted")
    for problem in run.problems[:MAX_PROBLEMS_SHOWN]:
        print(f"  FAILED {problem}")
    if run.absent:
        print(f"  absent trace targets (reported as 0): {', '.join(run.absent)}")

    if run.per_layer is None:
        metrics = {name: {"value": run.e2e[name], "unit": unit} for name, unit in END_TO_END}
    else:
        metrics = {name: {"value": run.per_layer[name], "unit": unit} for name, unit, _ in PER_LAYER}
        for name, unit, _ in PER_LAYER:
            print(f"  {name:<48} {run.per_layer[name]:>12.6g} {unit}")
    RESULTS.mkdir(exist_ok=True)
    record = {"env": env, "end_to_end": run.e2e, "raw_timings": run.raw,
              "unit_walls_s": run.unit_walls,
              "per_layer": run.per_layer, "absent": run.absent, "problems": run.problems,
              "attempted": run.attempted, "failed": run.failed}
    name = f"{args.workload}{'.traced' if args.trace else ''}.run.json"
    (RESULTS / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own interpreter, so peak RSS stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900, check=True,
        )
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
