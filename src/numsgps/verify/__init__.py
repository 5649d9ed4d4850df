"""Exhaustive claim verification over genus-bounded semigroup ranges."""

from .claims import (
    ASSERTED_CLAIMS,
    CLAIM_NAMES,
    ClaimContext,
    ClaimResult,
    run_claims,
)
from .enumeration import count_by_genus, semigroups_up_to
from .harness import (
    CheckReport,
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
    "CheckReport",
    "check_all",
    "check_semigroup",
]
