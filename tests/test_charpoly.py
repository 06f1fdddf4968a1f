"""det, the invariants and inv all read one characteristic polynomial.

`RingMatrix.charpoly` is Berkowitz's division-free recursion.  These
tests hold it to the formulas it replaced, kept in `matrix_oracles`:
the permutation expansion, the principal-minor subset sums and the
cofactor adjugate, over Fractions, polynomials and even forms.  Over
rational functions and truncated series, where the oracles are slow,
they check M inv(M) = 1 instead.
"""

from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adelweil.dgforms import FormMatrix, chain_context
from adelweil.errors import NotAUnit, ParseError
from adelweil.exactalg import MultiPoly, RatFunc, RingMatrix, TruncatedSeries

from matrix_oracles import cofactor_adjugate, minor_sums, perm_det
from strategies import fractions, polys

V2 = ("f1", "f2")


def square(entries, n: int):
    """n x n lists of lists of `entries`."""
    return st.lists(st.lists(entries, min_size=n, max_size=n),
                    min_size=n, max_size=n)


# each rank is its own case: drawn sizes would mostly be the smallest
RANKS = pytest.mark.parametrize("n", range(1, 7))


# about a third of the entries zero, as in triangular and block inputs
SCALARS = st.one_of(st.just(Q(0)), fractions(max_num=4, max_den=3))
POLYS = st.one_of(st.just(MultiPoly.zero(V2)),
                  polys(V2, max_degree=1, max_terms=2))


def _identity(n, one, zero):
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


@RANKS
@settings(max_examples=8)
@given(data=st.data())
def test_det_invariants_and_inverse_match_the_oracles_over_fractions(n, data):
    A = data.draw(square(SCALARS, n))
    M = RingMatrix(A)
    det = perm_det(A)
    assert M.det() == det
    sums = minor_sums(A)
    assert [M.invariants(k) for k in range(1, n + 1)] == \
        [sums[:k] for k in range(1, n + 1)]
    if det:
        adj = cofactor_adjugate(A, Q(1))
        assert M.inv().rows == [[x / det for x in row] for row in adj]
    else:
        with pytest.raises(ZeroDivisionError):
            M.inv()


@RANKS
@settings(max_examples=4)
@given(data=st.data())
def test_det_invariants_and_adjugate_match_the_oracles_over_polynomials(
        n, data):
    A = data.draw(square(POLYS, n))
    M = RingMatrix(A)
    det = perm_det(A)
    assert M.det() == det
    sums = minor_sums(A)
    assert [M.invariants(k) for k in range(1, n + 1)] == \
        [sums[:k] for k in range(1, n + 1)]
    # the adjugate is inv * det, read over the fraction field
    if not det.is_zero():
        inv = M.map(RatFunc).inv()
        adj = cofactor_adjugate(A, MultiPoly.const(V2, 1))
        assert [[x * RatFunc(det) for x in row] for row in inv.rows] == \
            [[RatFunc(x) for x in row] for row in adj]


@RANKS
@settings(max_examples=3)
@given(data=st.data())
def test_inverse_over_rational_functions(n, data):
    A = data.draw(square(polys(("f",), max_degree=2, max_terms=2), n))
    M = RingMatrix(A).map(RatFunc)
    one, zero = RatFunc.from_const(("f",), 1), RatFunc.from_const(("f",), 0)
    if M.det().is_zero():
        with pytest.raises((NotAUnit, ZeroDivisionError)):
            M.inv()
    else:
        assert (M @ M.inv()).rows == _identity(n, one, zero)


@pytest.mark.parametrize("n", range(1, 5))
@settings(max_examples=5)
@given(data=st.data())
def test_inverse_over_truncated_series(n, data):
    # a unit matrix of series: an invertible constant part plus higher
    # terms, as in the Jacobians of `coordinate_change_check`
    C = data.draw(square(SCALARS, n))
    H = data.draw(square(polys(V2, max_degree=3, max_terms=3, min_degree=1),
                         n))
    if not perm_det(C):
        C = _identity(n, Q(1), Q(0))
    prec = 5
    M = RingMatrix([[TruncatedSeries.from_poly(H[i][j] + C[i][j], prec)
                     for j in range(n)] for i in range(n)])
    one = TruncatedSeries.const(V2, 1, prec)
    zero = TruncatedSeries.const(V2, 0, prec)
    assert (M @ M.inv()).rows == _identity(n, one, zero)
    assert (M.inv() @ M).rows == _identity(n, one, zero)


def test_singular_series_matrix_has_no_inverse():
    f1, f2 = [MultiPoly.var(V2, v) for v in V2]
    M = RingMatrix([[TruncatedSeries.from_poly(p, 4) for p in row]
                    for row in [[f1, f2], [f2, f1 + 1]]])
    with pytest.raises(NotAUnit):
        M.inv()


CTX = chain_context(2, V2)


def _even_form(c, poly, pair):
    """(c + poly) times one of the 2-forms d x ^ d y (None: a function)."""
    out = CTX.form_scalar(CTX.ring_poly(poly + c))
    if pair is not None:
        out = out * CTX.d_by_name(pair[0]) * CTX.d_by_name(pair[1])
    return out


PAIRS = st.sampled_from([None, None, ("t1", "f1"), ("t2", "f2"),
                         ("t1", "t2"), ("f1", "f2"), ("t2", "f1")])
EVEN_FORMS = st.lists(
    st.tuples(st.integers(min_value=-3, max_value=3).filter(bool),
              polys(CTX.even_vars, max_degree=1, max_terms=1), PAIRS),
    min_size=1, max_size=2).map(lambda terms: sum(
        (_even_form(*term) for term in terms), CTX.zero_form()))


@pytest.mark.parametrize("n", range(1, 5))
@settings(max_examples=3)
@given(data=st.data())
def test_form_invariants_match_the_oracles(n, data):
    A = data.draw(square(EVEN_FORMS, n))
    M = FormMatrix(CTX, A)
    assert M.invariants() == minor_sums(A)
    assert M.invariants(1) == [sum((A[i][i] for i in range(n)),
                                   CTX.zero_form())]
    assert [M.invariant(k) for k in range(len(A) + 1)] == \
        [CTX.one_form(), *minor_sums(A)]
    assert M.det() == perm_det(A)


@pytest.mark.parametrize("n", range(1, 5))
@settings(max_examples=3)
@given(data=st.data())
def test_form_matrix_invariants_match_ring_matrix_ones(n, data):
    A = data.draw(square(polys(V2, max_degree=1, max_terms=2), n))
    ring = RingMatrix([[CTX.ring_poly(x) for x in row] for row in A])
    forms = FormMatrix.from_ring(CTX, ring)
    assert forms.invariants() == [CTX.form_scalar(e)
                                  for e in ring.invariants()]
    assert forms.det() == CTX.form_scalar(ring.det())


@pytest.mark.parametrize("rows", [[], [[Q(1), Q(2)]]], ids=["empty", "wide"])
def test_charpoly_needs_a_nonempty_square(rows):
    with pytest.raises(ParseError, match=r"p_\d of det\(t - A\) for a"):
        RingMatrix(rows).charpoly()


@pytest.mark.parametrize("upto", [0, 3])
def test_charpoly_upto_lies_between_1_and_n(upto):
    with pytest.raises(ParseError, match=rf"p_{upto} of det\(t - A\)"):
        RingMatrix([[Q(1), Q(2)], [Q(3), Q(4)]]).charpoly(upto)
