"""Local residues of generalized fractions and zero-locus invariants.

The residue symbol [g df_1^..^df_n / a_1, .., a_n] at the origin is
computed exactly over the rationals, on one path for every denominator
sequence of finite colength, curves included.  The colength search
stops at the first truncation whose quotient dimension repeats, which
Nakayama's lemma certifies; its last Macaulay span gives a monomial
basis of the local algebra Q = k[[f]]/(a) and normal forms in it.  The
Bezoutian of a, read in Q (x) Q, is dual to the residue pairing
(Scheja-Storch 1975; Becker-Cardinal-Roy-Szafraniec 1996), so one
sparse elimination gives the residue functional.  Each answer carries
its certificate: the Bezoutian matrix is invertible and the Jacobian
determinant has residue l = the colength, the local degree identity.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (
    DegreeError,
    DimensionMismatch,
    IdentityFailed,
    NotInvertibleChange,
    NotSimple,
    ParseError,
)
from .exactalg import (
    ONE,
    ZERO,
    LinearSpan,
    MultiPoly,
    RingMatrix,
    TruncatedSeries,
    macaulay_span,
    _colength_and_span,
    _monomials_below,
    _unit_exp,
    _window,
)
from .dgforms import InvariantPolynomial, invariant_eval


def _require_series_like(x, vars):
    if isinstance(x, (MultiPoly, TruncatedSeries)):
        if x.vars != vars:
            raise DimensionMismatch(
                f"entry over variables {x.vars}, expected {vars}")
        return x
    return MultiPoly.const(vars, x)


class GeneralizedFraction:
    """Numerator coefficient of the top form over an ordered denominator list.

    Swapping two denominator entries flips the sign, so instances keep
    the order they were given; normalization happens in the residue
    routines.  Denominator entries must vanish at the origin.
    """

    def __init__(self, vars, numerator, denominators):
        self.vars = tuple(vars)
        n = len(self.vars)
        self.numerator = _require_series_like(numerator, self.vars)
        self.denominators = tuple(
            _require_series_like(d, self.vars) for d in denominators)
        if len(self.denominators) != n:
            raise ParseError(
                f"{len(self.denominators)} denominators for {n} variables")
        for d in self.denominators:
            if d.is_zero() or d.constant_term():
                raise ParseError(
                    "denominator entries must vanish at the origin "
                    "and not identically")

    def render(self) -> str:
        wedge = "^".join(f"d {v}" for v in self.vars)
        dens = ", ".join(d.render() for d in self.denominators)
        return f"[ {self.numerator.render()} {wedge} / {dens} ]"


def _divided_difference(p: MultiPoly, j: int, xy: tuple) -> MultiPoly:
    """(p(y_<j, x_>=j) - p(y_<=j, x_>j)) / (x_j - y_j) over the variables xy.

    On a term x^e it is y_<j^e * x_>j^e * sum_t x_j^t y_j^(e_j - 1 - t);
    distinct (e, t) give distinct monomials.
    """
    n = len(p.vars)
    return MultiPoly(xy, {
        (0,) * j + (t,) + e[j + 1:] + e[:j] + (e[j] - 1 - t,)
        + (0,) * (n - j - 1): c
        for e, c in p.coeffs.items() for t in range(e[j])})


def _local_residue(gf: GeneralizedFraction, l: int, T: int,
                   span) -> tuple[Fraction, Fraction]:
    """(Res[g dx / a], Res[J dx / a]) read off the local algebra
    Q = k[x]/((a) + m^T), for J the Jacobian determinant of a.

    `span` is the Macaulay span of a at T, and m^(T-1) lies in (a), so
    its non-pivot monomials are a basis of Q and `LinearSpan.reduce`
    gives normal forms.  Every normal form of a monomial of degree d
    lives in degree >= d, so m^s vanishes in Q for s = 1 + the largest
    basis degree; only terms of g below s and of a below 2s are read.
    The Bezoutian Delta(x, y) of a, mapped to Q (x) Q as sum B_ab e_a(x)
    e_b(y), is dual to the residue pairing (Scheja-Storch), so the
    residue functional lambda, by basis index, solves B^T lambda = e_1
    at the monomial 1.  It is read off one elimination: the sparse rows
    of B^T, the row of the monomial 1 carrying -1 at column dim Q,
    reduce to [I | -lambda].  Certified: B is invertible and
    Res[J dx / a] = l (the local degree identity), or IdentityFailed.
    """
    vars, n = gf.vars, len(gf.vars)
    basis = [m for m in _monomials_below(n, T) if m not in span.pivots]
    index = {m: k for k, m in enumerate(basis)}
    s = 1 + sum(basis[-1])

    def coords(coeffs: dict) -> dict:
        """Normal form on the basis, by basis index."""
        residual = span.reduce({e: c for e, c in coeffs.items()
                                if sum(e) < s})
        return {index[m]: c for m, c in residual.items()}

    a = [_window(ai, 2 * s) for ai in gf.denominators]
    xy = vars + tuple(f"{v}'" for v in vars)
    delta = RingMatrix([[_divided_difference(ai, j, xy) for j in range(n)]
                        for ai in a]).det()
    forms: dict = {}
    rows = [{} for _ in basis]          # row q of B^T: {p: B_pq}
    for exp, c in delta.coeffs.items():
        for half in (exp[:n], exp[n:]):
            if half not in forms:
                forms[half] = coords({half: ONE})
        ys = forms[exp[n:]]
        for p, u in forms[exp[:n]].items():
            for q, v in ys.items():
                rows[q][p] = rows[q].get(p, ZERO) + c * u * v
    dim = len(basis)
    rows[index[(0,) * n]][dim] = -ONE
    elimination = LinearSpan()
    elimination.extend(rows)
    reduced = elimination.reduced_rows()
    if list(reduced) != list(range(dim)):
        raise IdentityFailed(
            "the Bezoutian of the denominators is singular on their "
            "local algebra")
    functional = [-row.get(dim, ZERO) for row in reduced.values()]

    def residue(g) -> Fraction:
        return sum((functional[k] * c
                    for k, c in coords(_window(g, s).coeffs).items()), ZERO)

    degree = residue(RingMatrix([[ai.diff(v) for v in vars]
                                 for ai in a]).det())
    if degree != l:
        raise IdentityFailed(
            f"the Jacobian has residue {degree}, not the colength {l}")
    return residue(gf.numerator), degree


def _residue_and_length(gf: GeneralizedFraction, precision: int | None,
                        stability: bool) -> tuple[Fraction, Fraction, int]:
    """(residue, Jacobian residue, colength) off the span certifying l."""
    l, T, span = _colength_and_span(gf.denominators)
    if (precision or 0) > T:
        T, span = precision, macaulay_span(gf.denominators, precision)
    value, degree = _local_residue(gf, l, T, span)
    if stability:
        again, _ = _local_residue(gf, l, T + 1,
                                  macaulay_span(gf.denominators, T + 1))
        if again != value:
            raise IdentityFailed(
                f"residue changed between truncations {T} and {T + 1}: "
                f"{value} vs {again}")
    return value, degree, l


def residue_general(gf: GeneralizedFraction, precision: int | None = None,
                    stability: bool = False) -> Fraction:
    """Residue for an arbitrary finite-colength denominator sequence.

    `precision` raises the working truncation above the one that
    certified the colength; `stability` recomputes at the next
    truncation and insists the two answers agree.
    """
    return _residue_and_length(gf, precision, stability)[0]


# -- zero-locus invariants ---------------------------------------------------


class LocalZeroData:
    """An isolated zero of a vector field with a lifted endomorphism.

    `a` are the components of v = sum a_i d/df_i at the origin of the
    chart; `lift` is the r x r action matrix on the bundle, over the
    same coordinate ring.
    """

    def __init__(self, vars, rank: int, a, lift: RingMatrix):
        self.vars = tuple(vars)
        self.rank = rank
        self.a = tuple(_require_series_like(x, self.vars) for x in a)
        self.lift = lift
        if len(self.a) != len(self.vars):
            raise DimensionMismatch(
                f"{len(self.a)} components for {len(self.vars)} coordinates")
        if self.lift.shape != (self.rank, self.rank):
            raise DimensionMismatch(
                f"lift shape {self.lift.shape}, rank {self.rank}")

    @property
    def n(self) -> int:
        return len(self.vars)


def _ring_one(zd: LocalZeroData):
    precs = [x.prec for row in zd.lift.rows for x in row
             if isinstance(x, TruncatedSeries)]
    if precs:
        return TruncatedSeries.const(zd.vars, 1, min(precs))
    return MultiPoly.const(zd.vars, 1)


def local_invariant(P: InvariantPolynomial, zd: LocalZeroData,
                    stability: bool = False) -> Fraction:
    """Signed residue of P applied to the lift, against the components.

    The global sign is (-1)^n; with it, the weighted one-dimensional
    model with a = f^2 and lift -f comes out to 1, and second Chern
    numbers of surfaces come out positive.
    """
    n = zd.n
    if P.degree != n:
        raise DegreeError(
            f"invariant of degree {P.degree} against dimension {n}")
    numerator = invariant_eval(P, zd.lift, _ring_one(zd))
    gf = GeneralizedFraction(zd.vars, numerator, zd.a)
    value = residue_general(gf, stability=stability)
    return Fraction(-1) ** n * value


def simple_zero_invariant(P: InvariantPolynomial,
                          zd: LocalZeroData) -> Fraction:
    """Closed form at a reduced zero: P of the restricted lift over the
    determinant of the linearization -(da_i/df_j)^T at the point.

    The zero is reduced (colength 1) exactly when a(0) = 0 and that
    determinant is nonzero: then the a_i span m/m^2, so by Nakayama
    they generate the maximal ideal m.  The linear terms are read with
    `coefficient`, so a series known only below degree 2 raises
    PrecisionExhausted.
    """
    n = zd.n
    if P.degree != n:
        raise DegreeError(
            f"invariant of degree {P.degree} against dimension {n}")
    if any(x.coefficient((0,) * n) for x in zd.a):
        raise NotSimple("the field does not vanish at the point")
    det = RingMatrix([[-zd.a[j].coefficient(_unit_exp(n, i))
                       for j in range(n)] for i in range(n)]).det()
    if not det:
        raise NotSimple("zero is not reduced")
    lam = RingMatrix([[Fraction(_const_term(x)) for x in row]
                      for row in zd.lift.rows])
    value = invariant_eval(P, lam, Fraction(1))
    return value / det


def _const_term(x) -> Fraction:
    if isinstance(x, (MultiPoly, TruncatedSeries)):
        return x.constant_term()
    return Fraction(x)


def gauss_bonnet_local(a):
    """Residue of the Jacobian fraction next to the colength.

    Returns (residue, length) over the variables of a[0]; the two agree
    for every finite-colength sequence, the local degree identity.  The
    residue is the one the residue engine's certificate reads.
    """
    a = list(a)
    if not a:
        raise DimensionMismatch("empty generator list")
    gf = GeneralizedFraction(a[0].vars, 0, a)
    _, degree, l = _residue_and_length(gf, None, False)
    return degree, l


# series precision of the transformed components and lift in
# coordinate_change_check: the residue engine reads a series denominator
# below twice the Loewy length s of its local algebra, so 8 serves every
# zero with s <= 4 (the zeros the law is checked on have s <= 2), and a
# longer one raises PrecisionExhausted
CHANGE_PRECISION = 8


def coordinate_change_check(P: InvariantPolynomial, zd: LocalZeroData,
                            change: dict) -> bool:
    """Recompute the local invariant after a coordinate substitution.

    `change` maps each coordinate name to its expression in the new
    coordinates (same names); the linear part must be invertible and
    the origin must be fixed.  Components transform by solving
    a_i o phi = sum_j (d phi_i / d g_j) b_j for b, as series known below
    total degree CHANGE_PRECISION.
    """
    n = zd.n
    vars = zd.vars
    images = {}
    for v in vars:
        img = change.get(v)
        if img is None:
            img = MultiPoly.var(vars, v)
        if isinstance(img, TruncatedSeries):
            img = img.to_poly()
        if img.constant_term():
            raise NotInvertibleChange(f"substitution moves the origin ({v})")
        images[v] = img
    linear = RingMatrix([[images[vars[i]].coefficient(_unit_exp(n, j))
                          for j in range(n)] for i in range(n)])
    if not linear.det():
        raise NotInvertibleChange("linear part of the substitution drops rank")

    def series(x) -> TruncatedSeries:
        return TruncatedSeries.from_poly(_window(x, CHANGE_PRECISION),
                                         CHANGE_PRECISION)

    composed = {v: series(images[v]) for v in vars}
    a_new_rhs = [series(ai).compose(composed) for ai in zd.a]
    jac = RingMatrix([[series(images[vars[i]].diff(vars[j]))
                       for j in range(n)] for i in range(n)])
    jac_inv = jac.inv()
    b = [sum((jac_inv.rows[j][i] * a_new_rhs[i] for i in range(n)),
             TruncatedSeries.const(vars, 0, CHANGE_PRECISION))
         for j in range(n)]
    lift_new = RingMatrix([[series(x).compose(composed) for x in row]
                           for row in zd.lift.rows])
    zd_new = LocalZeroData(vars, zd.rank, tuple(b), lift_new)
    return (local_invariant(P, zd) == local_invariant(P, zd_new))
