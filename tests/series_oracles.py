"""Series checks of the residue engine, which reads polynomials only.

The engine certifies the truncation it reads, so no file, script or
benchmark hands it a series, and it refuses one.  Two checks of its
answers still expand in series, and they live here as oracles:
- `coordinate_change_check`, the transformation law of Grothendieck
  residues (Hartshorne, Residues and Duality, LNM 20, 1966): the local
  invariant is unchanged by a change of coordinates, whose transformed
  components are series solved for below CHANGE_PRECISION;
- `simple_zero_invariant`, the closed form at a reduced zero.

`series_residue` runs the engine on series entries cut to polynomials.
The cut is honest only where the engine reads: the denominators below
the truncation T that certified their colength and below twice the
Loewy length s of their local algebra, the numerator below s.  Any
series known to less than its window raises ValueError.
"""

from fractions import Fraction

from adelweil.dgforms import InvariantPolynomial, invariant_eval
from adelweil.errors import ParseError
from adelweil.exactalg import (
    ZERO, MultiPoly, RingMatrix, TruncatedSeries, _colength_and_span,
    _monomials_below, _unit_exp,
)
from adelweil.residues import (
    GeneralizedFraction, LocalZeroData, local_invariant, residue_general,
)

from matrix_oracles import inverse

# series precision of the transformed components and lift in
# coordinate_change_check: the residue engine reads a denominator below
# twice the Loewy length s of its local algebra, so 8 serves every zero
# with s <= 4 (the zeros the law is checked on have s <= 2), and a
# longer one raises ValueError
CHANGE_PRECISION = 8


def _cut(x):
    return x.to_poly() if isinstance(x, TruncatedSeries) else x


def _check_windows(denominators, numerators, polys: tuple) -> None:
    """Raise unless each series among the denominators is known below
    T and 2s, and each among the numerator's parts below s, for T and
    s read off `polys`, the denominators cut to polynomials, as the
    engine reads them."""
    _, T, span = _colength_and_span(polys)
    basis = [m for m in _monomials_below(len(polys[0].vars), T)
             if m not in span.pivots]
    s = 1 + sum(basis[-1])
    for xs, window in ((denominators, T), (denominators, 2 * s),
                       (numerators, s)):
        for x in xs:
            if isinstance(x, TruncatedSeries) and x.prec < window:
                raise ValueError(f"series precision {x.prec} below "
                                 f"required window {window}")


def series_residue(vars, numerator, denominators) -> Fraction:
    """`residue_general` on entries that may be series, each cut to a
    polynomial; ValueError if the engine would read past a precision."""
    gf = GeneralizedFraction(vars, _cut(numerator),
                             [_cut(d) for d in denominators])
    _check_windows(denominators, [numerator], gf.denominators)
    return residue_general(gf)


def simple_zero_invariant(P: InvariantPolynomial,
                          zd: LocalZeroData) -> Fraction:
    """Closed form at a reduced zero: P of the restricted lift over the
    determinant of the linearization -(da_i/df_j)^T at the point.

    The zero is reduced (colength 1) exactly when a(0) = 0 and that
    determinant is nonzero: then the a_i span m/m^2, so by Nakayama
    they generate the maximal ideal m.
    """
    n = zd.n
    if P.degree != n:
        raise ParseError(
            f"invariant of degree {P.degree} against dimension {n}")
    if any(x.constant_term() for x in zd.a):
        raise ParseError("the field does not vanish at the point")
    det = RingMatrix([[-zd.a[j].coeffs.get(_unit_exp(n, i), ZERO)
                       for j in range(n)] for i in range(n)]).det()
    if not det:
        raise ParseError("zero is not reduced")
    lam = RingMatrix([[_const_term(x) for x in row]
                      for row in zd.lift.rows])
    return invariant_eval(P, lam, Fraction(1)) / det


def _const_term(x) -> Fraction:
    if isinstance(x, MultiPoly):
        return x.constant_term()
    return Fraction(x)


def coordinate_change_check(P: InvariantPolynomial, zd: LocalZeroData,
                            change: dict) -> bool:
    """Recompute the local invariant after a coordinate substitution.

    `change` maps each coordinate name to its expression in the new
    coordinates (same names); the linear part must be invertible and
    the origin must be fixed.  Components transform by solving
    a_i o phi = sum_j (d phi_i / d g_j) b_j for b, as series known below
    total degree CHANGE_PRECISION, and reach the engine cut to
    polynomials once the windows it reads are checked.
    """
    n = zd.n
    vars = zd.vars
    images = {}
    for v in vars:
        img = change.get(v, MultiPoly.var(vars, v))
        if img.constant_term():
            raise ParseError(f"substitution moves the origin ({v})")
        images[v] = img
    linear = RingMatrix([[images[vars[i]].coeffs.get(_unit_exp(n, j), ZERO)
                          for j in range(n)] for i in range(n)])
    if not linear.det():
        raise ParseError("linear part of the substitution drops rank")

    def series(x) -> TruncatedSeries:
        return TruncatedSeries.from_poly(x, CHANGE_PRECISION)

    composed = {v: series(images[v]) for v in vars}
    a_new_rhs = [series(ai).compose(composed) for ai in zd.a]
    jac = RingMatrix([[series(images[vars[i]].diff(vars[j]))
                       for j in range(n)] for i in range(n)])
    jac_inv = inverse(jac)
    b = [sum((jac_inv.rows[j][i] * a_new_rhs[i] for i in range(n)),
             TruncatedSeries.const(vars, 0, CHANGE_PRECISION))
         for j in range(n)]
    lift_new = [[series(x).compose(composed) for x in row]
                for row in zd.lift.rows]
    zd_new = LocalZeroData(vars, zd.rank, [x.to_poly() for x in b],
                           RingMatrix([[x.to_poly() for x in row]
                                       for row in lift_new]))
    before = local_invariant(P, zd)
    _check_windows(b, [x for row in lift_new for x in row], zd_new.a)
    return before == local_invariant(P, zd_new)
