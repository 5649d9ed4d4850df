"""The benchmark's tracer (perfbench/tracing.py) wraps package functions
by name; a rename in src/ would silently zero a per-layer metric."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

# targets whose functions were deleted or moved out of src/; the tracer's
# table still names them, and the benchmark repair drops them
KNOWN_ABSENT = frozenset({
    "gorenstein.pf_shift_mask",
    "gorenstein.ng_candidates",
    "rf.check_coppie",
    "core.member_table",
    "core.member_mask",
    "core.gaps",
    "verify.claims.ctx.vectors",
    "verify.claims.fact",
})


def test_tracer_finds_every_target_but_the_known_absent():
    # the tracer wraps only loaded modules, and the package loads its
    # layers on demand, so load every layer it names
    import numsgps.cli  # noqa: F401
    import numsgps.construct  # noqa: F401
    import numsgps.gorenstein as gorenstein
    import numsgps.verify  # noqa: F401

    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    original = gorenstein.is_almost_symmetric
    with tracing.installed(tracing.Tracer()) as absent:
        assert gorenstein.is_almost_symmetric is not original
    assert gorenstein.is_almost_symmetric is original
    assert set(absent) <= KNOWN_ABSENT, sorted(set(absent) - KNOWN_ABSENT)
