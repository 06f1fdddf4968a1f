"""Local residues of generalized fractions and zero-locus invariants.

The residue symbol [g df_1^..^df_n / a_1, .., a_n] at the origin is
computed exactly over the rationals.  Monomial denominators reduce to
coefficient extraction; the general case goes through the
transformation law: find N and a matrix M with f_i^N = sum_j M_ij a_j,
then the residue equals the one with numerator g det(M) and
denominators f_i^N.  Truncation orders are chosen so the answer is
certified, not approximate: once the colength l is known, membership
checked modulo m^T with T = n(N-1) + l + 2 pins every coefficient the
residue reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DegreeError,
    DimensionMismatch,
    IdentityFailed,
    MembershipNotFound,
    NotInvertibleChange,
    NotSimple,
    ParseError,
)
from .exactalg import (
    ONE,
    MultiPoly,
    QMatrix,
    RingMatrix,
    TruncatedSeries,
    artinian_length,
    macaulay_span,
    _perm_sign,
    _unit_exp,
    _window,
)
from .dgforms import InvariantPolynomial, invariant_eval

DEFAULT_CAP = 12


def _require_series_like(x, vars):
    if isinstance(x, (MultiPoly, TruncatedSeries)):
        if x.vars != vars:
            raise DimensionMismatch(
                f"entry over variables {x.vars}, expected {vars}")
        return x
    return MultiPoly.const(vars, x)


@dataclass
class GeneralizedFraction:
    """Numerator coefficient of the top form over an ordered denominator list.

    Swapping two denominator entries flips the sign, so instances keep
    the order they were given; normalization happens in the residue
    routines.  Denominator entries must vanish at the origin.
    """

    vars: tuple[str, ...]
    numerator: object
    denominators: tuple

    def __post_init__(self):
        self.vars = tuple(self.vars)
        n = len(self.vars)
        self.numerator = _require_series_like(self.numerator, self.vars)
        self.denominators = tuple(
            _require_series_like(d, self.vars) for d in self.denominators)
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


def _unit_monomial_split(d):
    """Write d = unit * monomial if the least monomial divides d.

    Returns (monomial exponent, unit as MultiPoly) or None.
    """
    if isinstance(d, TruncatedSeries):
        poly = MultiPoly(d.vars, dict(d.coeffs))
    else:
        poly = d
    base, _ = poly.leading()
    for exp in poly.coeffs:
        base = tuple(min(a, b) for a, b in zip(base, exp))
    if not any(base):
        return None
    shifted = {}
    for exp, c in poly.coeffs.items():
        s = tuple(a - b for a, b in zip(exp, base))
        if any(x < 0 for x in s):
            return None
        shifted[s] = c
    unit = MultiPoly(poly.vars, shifted)
    if not unit.constant_term():
        return None
    return base, unit


def _transformed_residue(gf: GeneralizedFraction, N: int, l: int,
                         precision: int | None,
                         spans: dict) -> Fraction | None:
    """One attempt of the transformation law at exponent N.

    All n coordinate powers f_i^N are solved against one tracked
    Macaulay span per truncation T; `spans` keeps them by T, so
    exponents that share T share one elimination.
    """
    n = len(gf.vars)
    T = n * (N - 1) + l + 2
    if precision is not None:
        T = max(T, precision)
    if T not in spans:
        spans[T] = macaulay_span(gf.denominators, T, track=True)
    rows = []
    for i in range(n):
        sol = spans[T].solve({_unit_exp(n, i, N): ONE})
        if sol is None:
            return None
        multipliers = [{} for _ in range(n)]
        for (j, mu), value in sol.items():
            multipliers[j][mu] = value
        rows.append([MultiPoly(gf.vars, m) for m in multipliers])
    window = n * (N - 1) + 1
    det = RingMatrix(rows).det().truncate(window)
    numerator = (_window(gf.numerator, window) * det).truncate(window)
    return numerator.coeffs.get((N - 1,) * n, Fraction(0))


def residue_general(gf: GeneralizedFraction, cap: int = DEFAULT_CAP,
                    precision: int | None = None,
                    stability: bool = False) -> Fraction:
    """Residue for an arbitrary finite-colength denominator sequence.

    `cap` bounds the exponent search; `precision` raises the working
    truncation beyond the certified default; `stability` recomputes at
    the next exponent and insists the two answers agree.
    """
    n = len(gf.vars)
    splits = [_unit_monomial_split(d) for d in gf.denominators]
    if all(s is not None for s in splits):
        slots = []
        for exp, _ in splits:
            active = [k for k, e in enumerate(exp) if e]
            slots.append(active[0] if len(active) == 1 else None)
        if None not in slots and sorted(slots) == list(range(n)):
            ks = [splits[i][0][slots[i]] for i in range(n)]
            window = sum(k - 1 for k in ks) + 1
            num = TruncatedSeries.from_poly(_window(gf.numerator, window),
                                            window)
            for _, unit in splits:
                num = num * TruncatedSeries.from_poly(
                    unit.truncate(window), window).invert()
            target = [0] * n
            for i in range(n):
                target[slots[i]] = ks[i] - 1
            perm = tuple(slots)
            return _perm_sign(perm) * num.coeffs.get(tuple(target),
                                                     Fraction(0))
    l = artinian_length(list(gf.denominators), cap=max(16, 2 * cap))
    if l == 0:
        return Fraction(0)
    spans: dict = {}
    first = None
    for N in range(1, min(cap, l) + 1):
        value = _transformed_residue(gf, N, l, precision, spans)
        if value is not None:
            first = (N, value)
            break
    if first is None:
        raise MembershipNotFound(
            f"no exponent N <= {min(cap, l)} with all coordinate powers "
            "in the denominator ideal")
    N, value = first
    if stability:
        again = _transformed_residue(gf, N + 1, l, precision, spans)
        if again is None or again != value:
            raise IdentityFailed(
                f"residue changed between exponents {N} and {N + 1}: "
                f"{value} vs {again}")
    return value


# -- zero-locus invariants ---------------------------------------------------


@dataclass
class LocalZeroData:
    """An isolated zero of a vector field with a lifted endomorphism.

    `a` are the components of v = sum a_i d/df_i at the origin of the
    chart; `lift` is the r x r action matrix on the bundle, over the
    same coordinate ring.
    """

    vars: tuple[str, ...]
    rank: int
    a: tuple
    lift: RingMatrix

    def __post_init__(self):
        self.vars = tuple(self.vars)
        self.a = tuple(_require_series_like(x, self.vars) for x in self.a)
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
                    cap: int = DEFAULT_CAP,
                    precision: int | None = None,
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
    value = residue_general(gf, cap=cap, precision=precision,
                            stability=stability)
    return Fraction(-1) ** n * value


def simple_zero_invariant(P: InvariantPolynomial,
                          zd: LocalZeroData) -> Fraction:
    """Closed form at a reduced zero: P of the restricted lift over the
    determinant of the linearization -(da_i/df_j)^T at the point.
    """
    n = zd.n
    if P.degree != n:
        raise DegreeError(
            f"invariant of degree {P.degree} against dimension {n}")
    if artinian_length(list(zd.a)) != 1:
        raise NotSimple("zero is not reduced")
    # artinian_length has read every a_j to degree 3, so these exist
    jac = [[-zd.a[j].coeffs.get(_unit_exp(n, i), Fraction(0))
            for j in range(n)] for i in range(n)]
    det = QMatrix(jac).det()
    if not det:
        raise NotSimple("degenerate linearization at a reduced zero")
    lam = RingMatrix([[Fraction(_const_term(x)) for x in row]
                      for row in zd.lift.rows])
    value = invariant_eval(P, lam, Fraction(1))
    return value / det


def _const_term(x) -> Fraction:
    if isinstance(x, (MultiPoly, TruncatedSeries)):
        return x.constant_term()
    return Fraction(x)


def gauss_bonnet_local(a, vars=None, cap: int = DEFAULT_CAP,
                       stability: bool = False):
    """Residue of the Jacobian fraction next to the colength.

    Returns (residue, length); the two agree for every finite-colength
    sequence, which is the local degree identity.
    """
    a = list(a)
    if vars is None:
        vars = a[0].vars
    jac = RingMatrix([[ai.diff(v) for v in vars] for ai in a])
    gf = GeneralizedFraction(vars, jac.det(), a)
    residue = residue_general(gf, cap=cap, stability=stability)
    length = artinian_length(a, cap=max(16, 2 * cap))
    return residue, length


def coordinate_change_check(P: InvariantPolynomial, zd: LocalZeroData,
                            change: dict, precision: int = 8) -> bool:
    """Recompute the local invariant after a coordinate substitution.

    `change` maps each coordinate name to its expression in the new
    coordinates (same names); the linear part must be invertible and
    the origin must be fixed.  Components transform by solving
    a_i o phi = sum_j (d phi_i / d g_j) b_j for b.
    """
    n = zd.n
    vars = zd.vars
    images = {}
    for v in vars:
        img = change.get(v)
        if img is None:
            img = MultiPoly.var(vars, v)
        if isinstance(img, TruncatedSeries):
            img = MultiPoly(img.vars, dict(img.coeffs))
        if img.constant_term():
            raise NotInvertibleChange(f"substitution moves the origin ({v})")
        images[v] = img
    linear = QMatrix([[images[vars[i]].coeffs.get(_unit_exp(n, j),
                                                  Fraction(0))
                       for j in range(n)] for i in range(n)])
    if linear.rank() != n:
        raise NotInvertibleChange("linear part of the substitution drops rank")

    def series(x) -> TruncatedSeries:
        return TruncatedSeries.from_poly(_window(x, precision), precision)

    composed = {v: series(images[v]) for v in vars}
    a_new_rhs = [series(ai).compose(composed) for ai in zd.a]
    jac = RingMatrix([[series(images[vars[i]].diff(vars[j]))
                       for j in range(n)] for i in range(n)])
    jac_inv = jac.inv()
    b = [sum((jac_inv.rows[j][i] * a_new_rhs[i] for i in range(n)),
             TruncatedSeries.const(vars, 0, precision))
         for j in range(n)]
    lift_new = RingMatrix([[series(x).compose(composed) for x in row]
                           for row in zd.lift.rows])
    zd_new = LocalZeroData(vars, zd.rank, tuple(b), lift_new)
    return (local_invariant(P, zd) == local_invariant(P, zd_new))
