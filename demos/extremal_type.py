"""A six-generated almost symmetric semigroup with type above twice the
embedding dimension, and the matrix progression that makes it work.

The five interior pseudo-Frobenius numbers 3521 + 134 lam share one
additive matrix each, all with the same zero pattern; duplication then
pushes the type excess even higher.

Run: python3 demos/extremal_type.py
"""

from numsgps import (
    NumericalSemigroup,
    duplication_tower,
    is_almost_symmetric,
    rf_plus_iter,
)

GENS = (455, 497, 574, 589, 631, 708)


def main():
    S = NumericalSemigroup(GENS)
    nu = S.embedding_dimension
    print(f"S = <{', '.join(map(str, GENS))}>")
    print(f"  Frobenius {S.frobenius}, genus {S.genus}, type {S.type}")
    print(f"  almost symmetric: {is_almost_symmetric(S)}")
    print(f"  type {S.type} > 2 * embedding dimension = {2 * nu}")
    print()

    print("pseudo-Frobenius numbers:")
    print(f"  {list(S.pseudo_frobenius())}")
    print()

    patterns = set()
    for lam in range(1, 6):
        f = 3521 + 134 * lam
        matrices = list(rf_plus_iter(S, f))
        assert len(matrices) == 1
        M = matrices[0]
        zeros = frozenset(
            (i, j) for i, row in enumerate(M) for j, c in enumerate(row)
            if i != j and c == 0
        )
        patterns.add(zeros)
        print(f"unique additive matrix for {f} (lam = {lam}):")
        width = max(len(str(c)) for row in M for c in row)
        for row in M:
            print("    " + "  ".join(f"{c:>{width}d}" for c in row))
    print()
    print(f"distinct zero patterns across the five matrices: {len(patterns)}")
    print()

    chain = duplication_tower(S, 1)
    S1 = chain[1]
    print("one maximal-ideal duplication later:")
    print(f"  embedding dimension {S1.embedding_dimension}, type {S1.type}")
    print(f"  type - 2 * embedding dimension = "
          f"{S1.type - 2 * S1.embedding_dimension} (was "
          f"{S.type - 2 * nu})")


if __name__ == "__main__":
    main()
