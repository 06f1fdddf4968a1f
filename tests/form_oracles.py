"""Routes the form engine replaced, kept as oracles.

`ratfunc_fiber_integral` is the fibre integral built by RatFunc
arithmetic: each base monomial is a product of ring variables, and the
numerator is summed and divided one RatFunc operation at a time.
`simplicial.fiber_integrate` builds each numerator as one polynomial.

`polarized_transgression` is the Chern-Simons transgression by
polarization.  `dgforms.transgression` evaluates P on the curvature of
the homotopy connection s theta and integrates over s; with
R_s = s d(theta) - s^2 theta^2 the polarization route reads

    TP(theta) = m * integral over [0, 1] of P~(theta, R_s, .., R_s) ds,

where P~ is the full polarization of the degree-m invariant P.  Each
argument is split into odd monomials times scalar coefficient matrices,
P~ is the scalar `polarize` of the coefficient matrices times the
product of the monomials in argument order, and the s-integral of the
j-th binomial term is the weight m C(m-1, j) / (m + j).

`polarize` is the full polarization of an invariant polynomial by
inclusion-exclusion, over any commutative ring.
"""

import itertools
import math
from fractions import Fraction

from adelweil.dgforms import DGContext, DiffForm, _merge_odd, invariant_eval
from adelweil.errors import DegreeError
from adelweil.exactalg import RingMatrix
from adelweil.simplicial import _drop_simplex_vars, dirichlet_integral


def ratfunc_fiber_integral(form) -> DiffForm:
    """The fibre integral of `form` over its simplex, in RatFunc steps."""
    ctx = form.ctx
    l = len(ctx.simplex_vars)
    base = DGContext((), ctx.base_vars, ctx.inert_vars)
    acc = base.zero_form()
    for mono, c in form.terms.items():
        if mono[:l] != tuple(range(l)):
            continue
        den = base.ring_poly(_drop_simplex_vars(ctx, base, c.den))
        num_acc = base.ring_const(0)
        for exp, v in c.num.coeffs.items():
            mono_poly = base.ring_const(v * dirichlet_integral(l, exp[:l]))
            for name, k in zip(base.even_vars, exp[l:]):
                if k:
                    mono_poly = mono_poly * base.ring_var(name) ** k
            num_acc = num_acc + mono_poly
        rest = tuple(i - l for i in mono[l:])
        acc = acc + DiffForm(base, {rest: num_acc / den})
    return acc


def polarize(P, Ms: list, one=None):
    """Full polarization of P by inclusion-exclusion.

    `one` is the ring's unit, as in `invariant_eval`.

    P~(M_1..M_m) = (1/m!) sum over nonempty S of (-1)^(m-|S|) P(sum_S M_i);
    it is symmetric, multilinear, and restores P on the diagonal.
    """
    m = P.degree
    if len(Ms) != m:
        raise DegreeError(f"polarization of degree {m} needs {m} arguments")
    acc = None
    for picks in itertools.product((0, 1), repeat=m):
        size = sum(picks)
        if not size:
            continue
        total = None
        for flag, M in zip(picks, Ms):
            if flag:
                total = M if total is None else total + M
        value = invariant_eval(P, total, one)
        if (m - size) % 2:
            value = -value
        acc = value if acc is None else acc + value
    return acc * Fraction(1, math.factorial(m))


def odd_decomposition(M) -> dict:
    """{odd monomial: ring matrix of its coefficients} of a form matrix."""
    m, n = M.shape
    zero = M.ctx.ring_const(0)
    monos = {mono for row in M.rows for x in row for mono in x.terms}
    return {mono: RingMatrix([[M.rows[i][j].terms.get(mono, zero)
                               for j in range(n)] for i in range(m)])
            for mono in sorted(monos, key=lambda mo: (len(mo), mo))}


def polarize_mixed(P, args) -> DiffForm:
    """P~ on form matrices, with at most one odd-degree argument."""
    ctx = args[0].ctx
    one = ctx.ring_const(1)
    decomps = [odd_decomposition(A) for A in args]
    acc = ctx.zero_form()
    for combo in itertools.product(*decomps):
        mono, sign = (), 1
        for piece in combo:
            mono, s = _merge_odd(mono, piece)
            if mono is None:
                break
            sign *= s
        if mono is None:
            continue
        coeff = polarize(P, [d[mu] for d, mu in zip(decomps, combo)], one)
        acc = acc + DiffForm(ctx, {mono: coeff if sign > 0 else -coeff})
    return acc


def polarized_transgression(P, theta) -> DiffForm:
    """m * sum over j of the weighted P~(theta, d theta.., -theta^2..)."""
    m = P.degree
    A = theta.d()
    B = -(theta @ theta)
    acc = theta.ctx.zero_form()
    for j in range(m):
        # slots: theta, then (m-1-j) copies of s A, then j copies of s^2 B
        weight = Fraction(m * math.comb(m - 1, j), m + j)
        value = polarize_mixed(P, [theta] + [A] * (m - 1 - j) + [B] * j)
        acc = acc + value * weight
    return acc
