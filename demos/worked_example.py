"""Walkthrough of one five-generated nearly Gorenstein semigroup.

Shows the route from generators to invariants, NG-vectors, both kinds of
row-factorization matrices, and the split of the pseudo-Frobenius
numbers that the matrices certify.

Run: python3 demos/worked_example.py
"""

from numsgps import (
    NumericalSemigroup,
    classify_pf,
    is_almost_symmetric,
    is_nearly_gorenstein,
    max_gap_table,
    ng_vectors,
    rf_minus_iter,
    rf_plus_iter,
)

GENS = (13, 45, 72, 79, 99)


def show_matrix(M):
    width = max(len(str(c)) for row in M for c in row)
    for row in M:
        print("    " + "  ".join(f"{c:>{width}d}" for c in row))


def main():
    S = NumericalSemigroup(GENS)
    print(f"S = <{', '.join(map(str, GENS))}>")
    print(f"  multiplicity {S.multiplicity}, embedding dimension "
          f"{S.embedding_dimension}, Frobenius {S.frobenius}, genus {S.genus}")
    print(f"  pseudo-Frobenius numbers: {list(S.pseudo_frobenius())} "
          f"(type {S.type})")
    print(f"  nearly Gorenstein: {is_nearly_gorenstein(S)}, "
          f"almost symmetric: {is_almost_symmetric(S)}")
    print()

    vectors = ng_vectors(S)
    print(f"{len(vectors)} NG-vectors:")
    for v in vectors:
        print(f"  {v['entries']}  (h = {v['h']}, ell = {v['ell']})")
    print()

    vec = vectors[1]["entries"]
    print(f"working with the vector {vec}")
    print("its entries cover the pseudo-Frobenius numbers 185, 212, 244;")
    print("the remaining one, 59, gets a matrix certificate on both sides.")
    print()

    f = 59
    for M in rf_plus_iter(S, f):
        print(f"additive matrix for {f} (each row dotted with the "
              f"generators gives {f}):")
        show_matrix(M)
    print()
    for M in rf_minus_iter(S, vec, f):
        print(f"subtractive matrix for {f} (row i gives entry_i - {f}):")
        show_matrix(M)
    print()

    cls = classify_pf(S, vec)
    print(f"classification outside the vector: pf1 = {cls['pf1']}, "
          f"pf2 = {cls['pf2']}")
    for w in cls["witnesses"]:
        f, i, j, lam = w["f"], w["i"], w["j"], w["lam"]
        if w["side"] == "plus":
            print(f"  {f} + n_{i} = {lam} * n_{j}")
        else:
            print(f"  n_{i} + entry_{i} - {f} = {lam} * n_{j}")
    print()

    gap = max_gap_table(S)[(5, 4)]
    print("59 is also the extremal gap between the last two generators:")
    print(f"  2 * {GENS[3]} - {GENS[4]} = {2 * GENS[3] - GENS[4]} "
          f"(table entry (5, 4): lam = {(gap + GENS[4]) // GENS[3]}, "
          f"gap = {gap})")


if __name__ == "__main__":
    main()
