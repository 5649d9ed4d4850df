"""Exhaustive claim verification over genus-bounded semigroup ranges.

check_all returns a summary dict, and check_semigroup (like each record
a check_all sink receives) a per-semigroup record dict; both are the
JSON payloads `sgp verify` emits."""

from .claims import (
    ASSERTED_CLAIMS,
    CLAIM_NAMES,
    ClaimContext,
    ClaimResult,
    run_claims,
)
from .enumeration import count_by_genus, semigroups_up_to
from .harness import (
    HarnessConfig,
    check_all,
    check_semigroup,
)

__all__ = [
    "CLAIM_NAMES",
    "ASSERTED_CLAIMS",
    "ClaimContext",
    "ClaimResult",
    "run_claims",
    "semigroups_up_to",
    "count_by_genus",
    "HarnessConfig",
    "check_all",
    "check_semigroup",
]
