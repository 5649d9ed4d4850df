"""Numerical semigroups, nearly Gorenstein vectors, and RF matrices.

The package computes invariants of numerical semigroups (Apery sets,
pseudo-Frobenius numbers, type), decides the symmetric, almost symmetric
and nearly Gorenstein properties, enumerates NG-vectors, builds additive
and subtractive row-factorization matrices, classifies pseudo-Frobenius
numbers by their row shapes, verifies a battery of structural claims
over all semigroups up to a genus bound, and constructs the families
(Backelin-type, six-generated progressions, numerical duplications) that
realize the extremal behaviour.
"""

from .construct import (
    DuplicationSpec,
    backelin,
    duplication_tower,
    family_dim6,
    ideal_from_generators,
    numerical_duplication,
    smallest_odd_generator,
)
from .core import NumericalSemigroup
from .errors import (
    EmbeddingDimensionError,
    EmptyGeneratorsError,
    EnumerationCapError,
    FamilyPreconditionError,
    FamilyPropertyError,
    GcdNotOneError,
    GeneratorTooLargeError,
    InvalidArgumentError,
    MismatchedPairError,
    NotAMemberError,
    NotAlmostSymmetricError,
    NotAnIdealError,
    NotNearlyGorensteinError,
    NotOddError,
    NotPseudoFrobeniusError,
    ParameterTooSmallError,
    SemigroupError,
    VectorEntryError,
)
from .gorenstein import (
    NGVector,
    RelativeIdeal,
    canonical_ideal,
    is_almost_symmetric,
    is_nearly_gorenstein,
    is_ng_vector,
    is_symmetric,
    nearly_gorenstein_via_trace,
    ng_candidates,
    ng_vectors,
)
from .rf import (
    MaxGapTable,
    MuBound,
    PFClassification,
    Witness,
    classify_pf,
    max_gap_table,
    rf_minus_iter,
    rf_plus_iter,
)

__all__ = [
    "NumericalSemigroup",
    "NGVector",
    "RelativeIdeal",
    "canonical_ideal",
    "is_symmetric",
    "is_almost_symmetric",
    "is_nearly_gorenstein",
    "nearly_gorenstein_via_trace",
    "ng_candidates",
    "ng_vectors",
    "is_ng_vector",
    "rf_plus_iter",
    "rf_minus_iter",
    "classify_pf",
    "PFClassification",
    "Witness",
    "MaxGapTable",
    "max_gap_table",
    "MuBound",
    "DuplicationSpec",
    "numerical_duplication",
    "smallest_odd_generator",
    "duplication_tower",
    "backelin",
    "family_dim6",
    "ideal_from_generators",
    "SemigroupError",
    "EmptyGeneratorsError",
    "GcdNotOneError",
    "GeneratorTooLargeError",
    "InvalidArgumentError",
    "NotAMemberError",
    "NotPseudoFrobeniusError",
    "NotNearlyGorensteinError",
    "VectorEntryError",
    "MismatchedPairError",
    "EmbeddingDimensionError",
    "EnumerationCapError",
    "NotOddError",
    "NotAnIdealError",
    "ParameterTooSmallError",
    "FamilyPreconditionError",
    "FamilyPropertyError",
    "NotAlmostSymmetricError",
]

__version__ = "0.1.0"
