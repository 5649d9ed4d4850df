"""Numerical semigroups, nearly Gorenstein vectors, and RF matrices.

The package computes invariants of numerical semigroups (Apery sets,
pseudo-Frobenius numbers, type), decides the symmetric, almost symmetric
and nearly Gorenstein properties, enumerates NG-vectors, builds additive
and subtractive row-factorization matrices, classifies pseudo-Frobenius
numbers by their row shapes, verifies a battery of structural claims
over all semigroups up to a genus bound, and constructs the families
(Backelin-type, six-generated progressions, numerical duplications) that
realize the extremal behaviour.

`import numsgps` loads no layer.  Each public name is looked up in its
home module (the _HOME table) on first access (PEP 562), so
`from numsgps import backelin` loads `construct` and what it imports,
and a caller that never names a construction never pays for it.
"""

from importlib import import_module

# public name -> the module that defines it
_HOME = {
    name: module
    for module, names in (
        ("core", "NumericalSemigroup"),
        ("gorenstein", "NGVector RelativeIdeal canonical_ideal is_symmetric "
                       "is_almost_symmetric is_nearly_gorenstein nearly_gorenstein_via_trace "
                       "ng_candidates ng_vectors is_ng_vector"),
        ("rf", "rf_plus_iter rf_minus_iter classify_pf PFClassification Witness "
               "MaxGapTable max_gap_table MuBound"),
        ("construct", "DuplicationSpec numerical_duplication smallest_odd_generator "
                      "duplication_tower backelin family_dim6 ideal_from_generators"),
        ("errors", "SemigroupError EmptyGeneratorsError GcdNotOneError "
                   "GeneratorTooLargeError InvalidArgumentError NotAMemberError "
                   "NotPseudoFrobeniusError NotNearlyGorensteinError VectorEntryError "
                   "MismatchedPairError EmbeddingDimensionError EnumerationCapError "
                   "NotOddError NotAnIdealError ParameterTooSmallError "
                   "FamilyPreconditionError FamilyPropertyError NotAlmostSymmetricError"),
    )
    for name in names.split()
}

__all__ = list(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    try:
        home = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{home}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
