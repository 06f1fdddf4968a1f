"""The textbook determinant, invariants and adjugate, kept as oracles.

`RingMatrix` reads all three off one characteristic polynomial
(Berkowitz's recursion).  These are the formulas it replaced: the
permutation expansion, the sum of principal minors over index subsets
and the cofactor adjugate.  They use only +, - and * of the entries,
so they hold over any commutative ring, even forms included, but they
cost n! products: the tests run them at ranks up to 6.

`gauss_jordan` is the textbook reduced row echelon form over Fractions,
the oracle of the fraction-free `LinearSpan` kernel.
"""

import itertools
from fractions import Fraction


def perm_sign(perm) -> int:
    """(-1)^(number of even-length cycles)."""
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def perm_det(rows):
    """Sum over permutations of the signed products."""
    n = len(rows)
    acc = None
    for perm in itertools.permutations(range(n)):
        term = rows[0][perm[0]]
        for i in range(1, n):
            term = term * rows[i][perm[i]]
        if perm_sign(perm) < 0:
            term = -term
        acc = term if acc is None else acc + term
    return acc


def minor_sums(rows) -> list:
    """[e_1, .., e_n]: e_k is the sum of the principal k x k minors."""
    n = len(rows)
    out = []
    for k in range(1, n + 1):
        acc = None
        for subset in itertools.combinations(range(n), k):
            d = perm_det([[rows[i][j] for j in subset] for i in subset])
            acc = d if acc is None else acc + d
        out.append(acc)
    return out


def cofactor_adjugate(rows, one) -> list:
    """adj(A)[i][j] = (-1)^(i+j) det(A without row j and column i)."""
    n = len(rows)
    if n == 1:
        return [[one]]
    adj = []
    for i in range(n):
        row = []
        for j in range(n):
            c = perm_det([[rows[a][b] for b in range(n) if b != i]
                          for a in range(n) if a != j])
            row.append(-c if (i + j) % 2 else c)
        adj.append(row)
    return adj


def gauss_jordan(rows, n):
    """Reduced row echelon form by plain Fraction Gauss-Jordan.

    Returns {pivot column: dense row}, each row 1 at its pivot and 0 at
    every other pivot column.
    """
    M = [[Fraction(x) for x in row] for row in rows]
    out, r = {}, 0
    for col in range(n):
        k = next((i for i in range(r, len(M)) if M[i][col]), None)
        if k is None:
            continue
        M[r], M[k] = M[k], M[r]
        M[r] = [x / M[r][col] for x in M[r]]
        for i in range(len(M)):
            if i != r and M[i][col]:
                M[i] = [x - M[i][col] * y for x, y in zip(M[i], M[r])]
        out[col] = M[r]
        r += 1
    return {col: M[i] for i, col in enumerate(out)}
