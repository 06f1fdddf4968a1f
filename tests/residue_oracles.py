"""The colength rule and the curve residue the residue engine replaced.

`artinian_length` stops at the first truncation whose quotient
dimension repeats, which Nakayama's lemma certifies, and
`scenarios.residue_at` runs the one-variable residue engine.  These are
the rules they replaced, kept as oracles: a colength accepted after
three equal dimensions in a row and every coordinate power found in the
truncated ideal, and a curve residue read off the inverted Laurent
series of the denominator's unit part.
"""

import math
from fractions import Fraction

from adelweil.errors import CapError
from adelweil.exactalg import ONE, MultiPoly, TruncatedSeries, macaulay_span


def three_equal_colength(generators, cap: int = 16) -> int:
    """Colength once three consecutive truncations agree and each f_i^s
    (s < T) lies in the truncated ideal."""
    gens = list(generators)
    n = len(gens[0].vars)
    if any(g.constant_term() for g in gens):
        return 0
    history = []
    for T in range(2, cap + 1):
        span = macaulay_span(gens, T)
        dim = math.comb(n + T - 1, n) - span.rank
        history.append(dim)
        powers_in = all(
            any(span.contains({tuple(s * (j == i) for j in range(n)): ONE})
                for s in range(1, T))
            for i in range(n))
        if (len(history) >= 3 and history[-1] == history[-2] == history[-3]
                and powers_in):
            return dim
    raise CapError(f"no three equal dimensions below truncation {cap}")


def laurent_residue_at(g, z: Fraction) -> Fraction:
    """Coefficient of (f - z)^-1 in the Laurent expansion of g at z."""
    vars = g.num.vars
    shift = MultiPoly.var(vars, vars[0]) + MultiPoly.const(vars, z)
    moved = g.subs({vars[0]: shift})
    den = moved.den
    k = min(e[0] for e in den.coeffs)
    if k == 0:
        return Fraction(0)
    unit = MultiPoly(vars, {(e[0] - k,): c for e, c in den.coeffs.items()})
    num = TruncatedSeries.from_poly(moved.num.truncate(k), k)
    series = num * TruncatedSeries.from_poly(unit.truncate(k), k).invert()
    return series.coeffs.get((k - 1,), Fraction(0))
