import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adelweil import exactalg
from adelweil.dgforms import FormMatrix, polynomial_context
from adelweil.errors import CapError, NotAUnit, ParseError
from adelweil.exactalg import (
    MACAULAY_MONOMIAL_CAP, LinearSpan, MultiPoly, QMatrix, RatFunc,
    RingMatrix, TruncatedSeries, _integral, artinian_length, format_rational,
    grlex_key, macaulay_span, parse_rational,
)

from matrix_oracles import gauss_jordan, perm_det
from residue_oracles import three_equal_colength
from ring_oracles import (
    evaluate_loop, subs_loop, truncated_compose, truncated_power,
    truncated_product, truncated_sum,
)
from strategies import fractions, polys
from test_acceptance import SEED, _random_component

V1 = ("f",)
V2 = ("f1", "f2")
f = MultiPoly.var(V1, "f")
f1, f2 = [MultiPoly.var(V2, v) for v in V2]


def test_rational_round_trip():
    for text in ("0", "7", "-3", "5/9", "-12/7"):
        assert format_rational(parse_rational(text)) == text
    with pytest.raises(ParseError):
        parse_rational("1.5")
    with pytest.raises(ParseError):
        parse_rational("1/0")
    with pytest.raises(ParseError):
        parse_rational(7)


def test_grlex_orders_by_total_degree_first():
    ordered = sorted([(0, 2), (1, 0), (2, 0), (0, 0), (1, 1)], key=grlex_key)
    assert ordered == [(0, 0), (1, 0), (0, 2), (2, 0), (1, 1)] or \
        ordered[0] == (0, 0) and sum(ordered[-1]) == 2
    assert grlex_key((1, 0)) < grlex_key((0, 2))
    assert grlex_key((2, 0)) < grlex_key((1, 1))


@given(polys(V2), polys(V2), polys(V2))
def test_poly_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)
    assert a - a == MultiPoly.zero(V2)


V3 = ("f1", "f2", "f3")


@settings(max_examples=60)
@given(polys(V3, max_degree=3, max_terms=6),
       st.integers(min_value=0, max_value=12))
def test_poly_power_matches_repeated_multiplication(p, n):
    expect = MultiPoly.const(V3, 1)
    for _ in range(n):
        expect = expect * p
    assert p ** n == expect


@given(polys(V2), polys(V2))
def test_poly_diff_is_a_derivation(a, b):
    assert (a * b).diff("f1") == a.diff("f1") * b + a * b.diff("f1")


@given(polys(V2, max_degree=2))
def test_poly_subs_evaluates_consistently(p):
    shifted = p.subs({"f1": f1 + MultiPoly.const(V2, 1)})
    assert shifted.evaluate({"f1": Q(0), "f2": Q(2)}) == \
        p.evaluate({"f1": Q(1), "f2": Q(2)})


@given(polys(V2, max_degree=3, max_terms=4), polys(V3, max_degree=2),
       polys(V3, max_degree=2), fractions())
def test_poly_subs_matches_the_substitution_loop(p, u, v, c):
    assert p.subs({"f1": u, "f2": v}) == subs_loop(p, {"f1": u, "f2": v}, V3)
    # an unmapped variable keeps its name, a scalar image is a constant
    shift = f1 + MultiPoly.const(V2, 1)
    assert p.subs({"f1": shift}) == subs_loop(p, {"f1": shift, "f2": f2}, V2)
    assert p.subs({"f2": c}) == \
        subs_loop(p, {"f1": f1, "f2": MultiPoly.const(V2, c)}, V2)


@given(polys(V2, max_degree=3, max_terms=4), fractions(), fractions())
def test_poly_evaluate_matches_the_substitution_loop(p, x, y):
    point = {"f1": x, "f2": y}
    assert p.evaluate(point) == evaluate_loop(p, point)
    # only the variables that occur need a value
    assert p.subs({"f2": 0}).evaluate({"f1": x}) == \
        evaluate_loop(p, {"f1": x, "f2": 0})


def test_poly_render_uses_explicit_stars():
    p = f1 * f1 * Q(3, 2) - f2 + MultiPoly.const(V2, 1)
    assert p.render() == "1 - f2 + 3/2*f1^2"


@given(polys(V1, max_degree=3).filter(lambda p: p.constant_term() != 0))
def test_series_inverse_multiplies_to_one(u):
    s = TruncatedSeries.from_poly(u, 6)
    prod = s * s.invert()
    assert prod == TruncatedSeries.const(V1, 1, 6)


def test_series_inverse_needs_a_unit():
    s = TruncatedSeries.from_poly(f, 5)
    with pytest.raises(NotAUnit):
        s.invert()


def test_series_precision_is_tracked():
    s = TruncatedSeries.from_poly(f, 3)
    with pytest.raises(ValueError, match="degree 3 needs precision > 3"):
        s.coefficient((3,))
    assert s.coefficient((1,)) == 1


def test_series_compose_shifts_coefficients():
    s = TruncatedSeries.from_poly(f + f ** 2, 5)
    t = TruncatedSeries.from_poly(f * 2, 5)
    out = s.compose({"f": t})
    assert out.coefficient((1,)) == 2
    assert out.coefficient((2,)) == 4


PRECS = st.integers(min_value=0, max_value=6)
SERIES_PARTS = polys(V2, max_degree=5, max_terms=5)


@given(SERIES_PARTS, SERIES_PARTS, PRECS, PRECS,
       st.integers(min_value=0, max_value=4))
def test_series_arithmetic_matches_the_truncated_loops(p, q, m, n, k):
    a = TruncatedSeries.from_poly(p, m)
    b = TruncatedSeries.from_poly(q, n)
    prec = min(m, n)
    for got, want, want_prec in (
            (a + b, truncated_sum(a.coeffs, b.coeffs, prec), prec),
            (a - b, truncated_sum(a.coeffs, b.coeffs, prec, -1), prec),
            (a * b, truncated_product(a.coeffs, b.coeffs, prec), prec),
            (a ** k, truncated_power(a.coeffs, k, 2, m), m),
            # a polynomial or a scalar operand is exact: a keeps its prec
            (a + q, truncated_sum(a.coeffs, q.coeffs, m), m),
            (q - a, truncated_sum(q.coeffs, a.coeffs, m, -1), m),
            (q * a, truncated_product(q.coeffs, a.coeffs, m), m),
            (a * Q(3, 2), truncated_product(
                a.coeffs, {(0, 0): Q(3, 2)}, m), m)):
        assert type(got) is TruncatedSeries
        assert (got.prec, got.coeffs) == (want_prec, want)
    with pytest.raises(ValueError, match="needs precision > "):
        (a * b).coefficient((prec, 0))


@given(SERIES_PARTS, SERIES_PARTS, st.integers(min_value=0, max_value=11))
def test_bounded_product_is_the_truncated_product(p, q, bound):
    assert p.mul(q, bound) == (p * q).truncate(bound)
    assert p.mul(q, bound).coeffs == truncated_product(p.coeffs, q.coeffs,
                                                       bound)


def test_dense_series_power_matches_the_truncated_power():
    # (1 + f1 + 2 f2)^7 has 36 terms; its untruncated 7th power 1,275
    a = TruncatedSeries.from_poly((1 + f1 + 2 * f2) ** 7, 8)
    assert (a ** 7).coeffs == truncated_power(a.coeffs, 7, 2, 8)
    assert (a * a).coeffs == truncated_product(a.coeffs, a.coeffs, 8)
    with pytest.raises(ValueError):
        a ** -1


@given(polys(V2, max_degree=5, max_terms=4),
       polys(V2, max_degree=3, max_terms=3, min_degree=1),
       polys(V2, max_degree=3, max_terms=3, min_degree=1), PRECS, PRECS)
def test_series_compose_matches_the_truncated_loop(p, u, v, m, n):
    s = TruncatedSeries.from_poly(p, m)
    images = {"f1": TruncatedSeries.from_poly(u, n), "f2": v}
    got = s.compose(images)
    prec = min(m, n)
    want = truncated_compose(s.coeffs, V2, {"f1": u.coeffs, "f2": v.coeffs},
                             2, prec)
    assert (got.prec, got.coeffs) == (prec, want)
    # an unmapped variable is its own image
    assert s.compose({"f1": v}).coeffs == truncated_compose(
        s.coeffs, V2, {"f1": v.coeffs, "f2": f2.coeffs}, 2, m)


def test_series_compose_needs_images_without_constant_term():
    s = TruncatedSeries.from_poly(f1 + f2 ** 2, 4)
    for img in (f2 + 1, TruncatedSeries.from_poly(f2 - Q(1, 2), 4)):
        with pytest.raises(NotAUnit, match="constant term"):
            s.compose({"f1": img})


def test_series_stays_apart_from_polynomials():
    # a series is no MultiPoly, and a polynomial operand does not turn
    # it into one: the sum keeps the series' precision
    s = TruncatedSeries.from_poly(f1, 2)
    assert not isinstance(s, MultiPoly)
    for total in ((f1 + f1 ** 3) + s, s + (f1 + f1 ** 3)):
        assert type(total) is TruncatedSeries and total.prec == 2
        assert total == 2 * f1
    assert s == f1 + f2 ** 2
    with pytest.raises(ParseError, match="variable mismatch"):
        s + MultiPoly.var(V3, "f3")


def test_ratfunc_is_not_hashable():
    # equal values with different numerator and denominator pairs: no
    # hash can agree with ==, so none is offered
    a = RatFunc(f1 ** 2 + f1 * f2, f1 * f2 + f2 ** 2)
    b = RatFunc(f1, f2)
    assert a == b and (a.num, a.den) != (b.num, b.den)
    for x in (a, b):
        with pytest.raises(TypeError):
            hash(x)


@given(polys(V1, max_degree=2), polys(V1, max_degree=2).filter(
    lambda p: not p.is_zero()))
def test_ratfunc_normalization_cancels_common_factors(num, den):
    scaled = RatFunc(num * den, den * den)
    assert scaled == RatFunc(num, den)


def test_ratfunc_diff_quotient_rule():
    g = RatFunc(f, f + MultiPoly.const(V1, 1))
    expect = RatFunc(MultiPoly.const(V1, 1),
                     (f + MultiPoly.const(V1, 1)) ** 2)
    assert g.diff("f") == expect


def test_ratfunc_render_parenthesizes_compound_numerators():
    g = RatFunc(f + MultiPoly.const(V1, 1), f)
    assert g.render() == "(1 + f)/f"


@given(st.lists(st.lists(fractions(3, 2), min_size=2, max_size=2),
                min_size=2, max_size=2),
       st.lists(st.lists(fractions(3, 2), min_size=2, max_size=2),
                min_size=2, max_size=2))
def test_ring_matrix_det_is_multiplicative(a_rows, b_rows):
    A, B = RingMatrix(a_rows), RingMatrix(b_rows)
    assert (A @ B).det() == A.det() * B.det()


def test_qmatrix_solve_detects_inconsistency():
    A = QMatrix([[Q(1), Q(1)], [Q(2), Q(2)]])
    assert A.solve([Q(1), Q(3)]) is None
    assert A.solve([Q(1), Q(2)]) is not None


def _inverse(rows) -> list:
    """A^-1, read off the reduced rows of [A | I] in one `LinearSpan`."""
    n = len(rows)
    span = LinearSpan()
    span.extend({**{j: x for j, x in enumerate(row) if x}, n + i: 1}
                for i, row in enumerate(rows))
    red = span.reduced_rows()
    assert list(red) == list(range(n))
    return [[row.get(n + j, Q(0)) for j in range(n)] for row in red.values()]


def test_linear_span_inverse():
    A = [[Q(2), Q(1)], [Q(1), Q(1)]]
    inv = _inverse(A)
    oracle = gauss_jordan([row + [Q(i == j) for j in range(2)]
                           for i, row in enumerate(A)], 4)
    assert inv == [row[2:] for row in oracle.values()]
    prod = [[sum(A[i][k] * inv[k][j] for k in range(2))
             for j in range(2)] for i in range(2)]
    assert prod == [[Q(1), Q(0)], [Q(0), Q(1)]]


def _rank(A: QMatrix) -> int:
    return len(A.rref()[1])


def _kernel(A: QMatrix) -> list:
    """A basis of the kernel of A, one vector per free column, read off
    the `LinearSpan` of its rows."""
    n = len(A.rows[0])
    span = LinearSpan()
    span.extend({j: x for j, x in enumerate(row) if x} for row in A.rows)
    return [[vec.get(j, 0) for j in range(n)]
            for _, vec in span.kernel(range(n))]


def test_kernel_vectors_are_killed():
    A = QMatrix([[Q(1), Q(2), Q(3)], [Q(2), Q(4), Q(6)]])
    assert _rank(A) == 1
    for vec in _kernel(A):
        assert all(sum(row[j] * vec[j] for j in range(3)) == 0
                   for row in A.rows)


def test_qmatrix_results_stay_fractions():
    # the kernel hands out ints where an entry is integral; QMatrix
    # answers and reduced rows are Fractions all the same, integral or not
    A = QMatrix([[1, 2, 3], [2, 4, 6], [0, 2, 1]])
    assert _kernel(A) == [[-2, Q(-1, 2), 1]]
    red, pivots = A.rref()
    assert pivots == [0, 1]
    assert red.rows == [[1, 0, 2], [0, 1, Q(1, 2)], [0, 0, 0]]
    solution = QMatrix([[2, 0], [0, 4]]).solve([2, 4])
    assert solution == [1, 1]
    inverse = _inverse([[2, 0], [0, 1]])
    assert inverse == [row[2:] for row in gauss_jordan(
        [[2, 0, 1, 0], [0, 1, 0, 1]], 4).values()] == [[Q(1, 2), 0], [0, 1]]
    for rows in (red.rows, [solution], inverse):
        assert all(type(x) is Q for row in rows for x in row)


def test_qmatrix_solve_round_trip():
    A = QMatrix([[Q(1), Q(2)], [Q(0), Q(1)]])
    assert A.solve([Q(5), Q(2)]) == [Q(1), Q(2)]


def _mat_vec(rows, x):
    return [sum(a * b for a, b in zip(row, x)) for row in rows]


@given(st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.tuples(
        st.lists(st.lists(st.integers(min_value=-3, max_value=3),
                          min_size=n, max_size=n), min_size=1, max_size=4),
        st.lists(st.integers(min_value=-3, max_value=3),
                 min_size=n, max_size=n))))
def test_elimination_kernel_against_independent_oracles(case):
    raw, x0 = case
    A = QMatrix(raw)
    m, n = len(raw), len(raw[0])
    rank = _rank(A)
    null = _kernel(A)
    for vec in null:
        assert _mat_vec(A.rows, vec) == [0] * m
    assert rank + len(null) == n
    At = QMatrix([[A.rows[i][j] for i in range(m)] for j in range(n)])
    assert _rank(At) == rank
    if m == n:
        assert (perm_det(raw) != 0) == (rank == n)
    b = _mat_vec(A.rows, x0)
    x = A.solve(b)
    assert x is not None and _mat_vec(A.rows, x) == b


def test_ring_matrix_inverse_over_rational_functions():
    g = RingMatrix([[RatFunc(f), RatFunc.from_const(V1, 1)],
                    [RatFunc.from_const(V1, 0), RatFunc(f)]])
    prod = g @ g.inv()
    assert prod.rows[0][0] == RatFunc.from_const(V1, 1)
    assert prod.rows[0][1].is_zero()
    assert prod.rows[1][1] == RatFunc.from_const(V1, 1)


def test_ring_matrix_det_on_triangular_blocks():
    m = RingMatrix([[f1, f2], [MultiPoly.zero(V2), f1]])
    assert m.det() == f1 * f1
    with pytest.raises(ParseError, match="for a 1x2 matrix A"):
        RingMatrix([[f1, f2]]).det()


@given(st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.lists(st.lists(st.integers(min_value=-4, max_value=4),
                                min_size=n, max_size=n),
                       min_size=n, max_size=n)))
def test_permutation_det_against_elimination_kernel(A):
    n = len(A)
    M = RingMatrix(A)
    det = perm_det(A)
    assert M.det() == det
    assert (det != 0) == (_rank(QMatrix(A)) == n)
    # det(1 + tau A) = 1 + e_1 tau + .. + e_n tau^n
    for tau in range(n + 1):
        shifted = [[int(i == j) + tau * A[i][j] for j in range(n)]
                   for i in range(n)]
        char = 1 + sum(tau ** k * e for k, e in enumerate(M.invariants(), 1))
        assert char == perm_det(shifted)
    ctx = polynomial_context(("f",))
    assert FormMatrix.from_ring(ctx, A).det() == ctx.form_scalar(det)


@given(st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.tuples(
        st.lists(st.lists(st.integers(min_value=-3, max_value=3),
                          min_size=n, max_size=n),
                 min_size=n, max_size=n + 2),
        st.randoms(use_true_random=False))))
def test_insertion_order_leaves_the_echelon_form_unchanged(case):
    A, rnd = case
    n = len(A[0])
    perm = list(range(len(A)))
    rnd.shuffle(perm)
    rows = [{j: Q(x) for j, x in enumerate(row) if x} for row in A]
    spans = []
    for order in (range(len(A)), perm):
        span = LinearSpan()
        for k in order:
            span.add(rows[k])
        spans.append(span)
    spans.append(LinearSpan())
    spans[-1].extend(rows[k] for k in perm)
    first = spans[0]
    for span in spans[1:]:
        assert set(span.pivots) == set(first.pivots)
        assert span.reduced_rows() == first.reduced_rows()
        assert span.kernel(range(n)) == first.kernel(range(n))
    # n of the rows have full rank exactly when their det is nonzero
    square = [A[k] for k in perm[:n]]
    span = LinearSpan()
    span.extend(rows[k] for k in perm[:n])
    assert (span.rank == n) == (RingMatrix(square).det() != 0)


def _sparse(row):
    return {j: x for j, x in enumerate(row) if x}


# non-integer rationals with denominators up to 9, some with large
# numerators, about half the entries zero
_entries = st.one_of(
    st.just(Q(0)), fractions(max_num=7, max_den=9),
    st.builds(Q, st.integers(min_value=-10 ** 12, max_value=10 ** 12),
              st.integers(min_value=1, max_value=9)))


@settings(max_examples=40)
@given(st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.tuples(
        st.lists(st.lists(_entries, min_size=n, max_size=n), max_size=n + 2),
        st.lists(_entries, min_size=n, max_size=n),
        st.lists(_entries, min_size=n + 2, max_size=n + 2))))
def test_integer_rows_match_fraction_gauss_jordan(case):
    A, b, coeffs = case
    n = len(b)
    ref = gauss_jordan(A, n)
    span = LinearSpan()
    for row in A:
        span.add(_sparse(row))
    assert set(span.pivots) == set(ref)
    assert span.reduced_rows() == {p: _sparse(row) for p, row in ref.items()}
    assert span.rank == len(ref)
    # kernel: one vector per free column, each killed by every row
    kernel = span.kernel(range(n))
    assert [lab for lab, _ in kernel] == [j for j in range(n) if j not in ref]
    for _, vec in kernel:
        for row in A:
            assert sum((row[j] * x for j, x in vec.items()), Q(0)) == 0
        # an integral entry comes out as an int, any other as a Fraction
        for x in vec.values():
            assert type(x) is (int if x.denominator == 1 else Q)
    # reduce: the residual is b minus its pivot entries times the rref
    expect = list(b)
    for p, row in ref.items():
        expect = [x - b[p] * y for x, y in zip(expect, row)]
    assert span.reduce(_sparse(b)) == _sparse(expect)
    # a combination of the rows lies in the span
    target = [sum((c * row[j] for c, row in zip(coeffs, A)), Q(0))
              for j in range(n)]
    assert span.contains(_sparse(target))


# ints and rationals up to 60 in size, about half the entries zero: pivots
# other than 1 and -1, and rows with content above 1, are common
_wide = st.one_of(st.just(0), st.integers(min_value=-60, max_value=60),
                  fractions(max_num=60, max_den=12))


def _typed(vec):
    return {c: (x, type(x)) for c, x in vec.items()}


@settings(max_examples=60)
@given(st.integers(min_value=1, max_value=12).flatmap(
    lambda n: st.tuples(
        st.lists(st.lists(_wide, min_size=n, max_size=n), max_size=8),
        st.lists(_wide, min_size=n, max_size=n),
        st.lists(st.integers(min_value=-3, max_value=3),
                 min_size=8, max_size=8),
        st.permutations(range(n)))))
def test_linear_span_matches_gauss_jordan_in_any_label_order(case):
    A, b, coeffs, perm = case
    n = len(b)
    rows, vec = [_sparse(row) for row in A], _sparse(b)
    passed = [list(r.items()) for r in rows + [vec]]
    for key in (None, perm.__getitem__):
        # the oracle eliminates the columns in label order, cols[j] first
        cols = sorted(range(n), key=key)
        ref = {cols[j]: {cols[k]: x for k, x in enumerate(row) if x}
               for j, row in gauss_jordan([[r[c] for c in cols] for r in A],
                                          n).items()}
        span = LinearSpan(key=key)
        for row in rows:
            span.add(row)
        assert span.rank == len(ref) and set(span.pivots) == set(ref)
        assert span.reduced_rows() == ref
        # kernel: 1 at its free label, minus the rref column at each
        # pivot; an int where that is integral, else a Fraction
        expect = []
        for f in cols:
            if f not in ref:
                at = {p: -row[f] for p, row in ref.items() if f in row}
                expect.append((f, _typed({f: 1, **{
                    p: x.numerator if x.denominator == 1 else x
                    for p, x in at.items()}})))
        assert [(f, _typed(v)) for f, v in span.kernel(cols)] == expect
        # reduce: b minus its pivot entries times the rref
        residual = {c: Q(x) for c, x in vec.items()}
        for p, row in ref.items():
            for c, x in row.items():
                residual[c] = residual.get(c, 0) - vec.get(p, 0) * x
        residual = {c: x for c, x in residual.items() if x}
        assert span.reduce(vec) == residual
        assert span.contains(vec) == (not residual)
        target = {}
        for c, row in zip(coeffs, rows):
            for j, x in row.items():
                target[j] = target.get(j, 0) + c * x
        assert span.contains(target)
        # no call writes to the dicts it was passed
        assert [list(r.items()) for r in rows + [vec]] == passed


def test_linear_span_contains_its_combinations():
    span = LinearSpan()
    span.add({0: Q(1), 1: Q(1)})
    span.add({1: Q(1)})
    assert span.contains({0: Q(2), 1: Q(3)})
    assert span.contains({0: Q(5), 1: Q(5)})
    assert not span.contains({2: Q(1)})


_ints = st.integers(min_value=-10 ** 12, max_value=10 ** 12)


@settings(max_examples=60)
@given(st.one_of(
    st.dictionaries(st.integers(min_value=0, max_value=9),
                    st.one_of(st.just(0), _ints), max_size=6),
    st.dictionaries(st.integers(min_value=0, max_value=9),
                    st.one_of(st.just(0), _ints, _entries), max_size=6)))
def test_integral_int_branch_matches_the_fraction_branch(vec):
    # an all-int vector skips the denominators; it must split the same
    got = _integral(vec)
    ref = _integral({c: Q(x) for c, x in vec.items()})
    assert got == ref
    for row, num, den in (got, ref):
        assert all(type(x) is int for x in row.values())
        assert type(num) is int and type(den) is int
        assert {c: Q(num * x, den) for c, x in row.items()} == \
            {c: x for c, x in vec.items() if x}


def test_artinian_length_anchors():
    assert artinian_length((f,)) == 1
    assert artinian_length((f ** 2,)) == 2
    assert artinian_length((f1, f2)) == 1
    assert artinian_length((f1 ** 2, f2 ** 3)) == 6
    assert artinian_length((f1 ** 2 - f2 ** 3, f2 ** 2)) == 4
    # the default cap is the residue engine's: colength 20 repeats at 21
    assert artinian_length((f ** 20,)) == 20


@settings(max_examples=15)
@given(*[polys(V2, max_degree=3, max_terms=3, min_degree=m)
         for m in (1, 1, 0, 0)], st.integers(min_value=2, max_value=7))
def test_macaulay_span_contains_memberships(a, b, p, q, T):
    target = (p * a + q * b).truncate(T)
    assert macaulay_span((a, b), T).contains(target.coeffs)


def test_macaulay_span_refuses_past_the_monomial_cap():
    # 99 is the largest truncation admitted in two variables
    assert macaulay_span((f1, f2), 99).rank == 99 * 100 // 2 - 1
    with pytest.raises(CapError, match="truncation 100 has 5050 "):
        macaulay_span((f1, f2), 100)
    assert MACAULAY_MONOMIAL_CAP < 5050


def test_artinian_length_rejects_positive_dimension(monkeypatch):
    monkeypatch.setattr(exactalg, "LENGTH_CAP", 8)
    with pytest.raises(CapError, match="below truncation 8 "):
        artinian_length((f1,))


@st.composite
def regular_sequences(draw):
    """(generators, colength): a_i = l_i^k_i + terms of higher degree.

    The l_i are independent linear forms, so the initial forms l_i^k_i
    are a regular sequence and the colength is the product of the k_i.
    """
    n = draw(st.integers(min_value=2, max_value=3))
    vars = V2 if n == 2 else ("f1", "f2", "f3")
    xs = [MultiPoly.var(vars, v) for v in vars]
    gens, length = [], 1
    for i in range(n):
        k = draw(st.integers(min_value=1, max_value=3 if n == 2 else 2))
        lin = xs[i]
        for j in range(i + 1, n):
            lin = lin + xs[j] * draw(fractions(max_num=2, max_den=2))
        tail = draw(polys(vars, max_degree=k + 2, max_terms=2,
                          min_degree=k + 1))
        gens.append(lin ** k + tail)
        length *= k
    return gens, length


@settings(max_examples=30)
@given(regular_sequences())
def test_nakayama_colength_agrees_with_the_three_equal_rule(drawn):
    gens, length = drawn
    assert artinian_length(gens) == length
    assert three_equal_colength(gens, cap=24) == length


def test_nakayama_colength_agrees_on_the_acceptance_battery():
    # the pairs `test_acceptance_4_residue_equals_colength` draws
    rng = random.Random(SEED)
    accepted = 0
    while accepted < 25:
        a = [_random_component(rng, V2, 2 if accepted % 2 else 1)
             for _ in range(2)]
        if any(p.is_zero() for p in a):
            continue
        try:
            length = artinian_length(a)
        except CapError as exc:
            # no repeat up to 24: the old rule needs two more truncations
            assert "did not stabilise below truncation 24 " in str(exc)
            with pytest.raises(CapError, match="below truncation 26$"):
                three_equal_colength(a, cap=26)
            continue
        assert three_equal_colength(a, cap=26) == length, \
            [p.render() for p in a]
        accepted += 1


def test_a_repeat_at_the_cap_is_certified(monkeypatch):
    # (f1^23, f2) repeats at T = 24 = LENGTH_CAP; the old rule needed
    # T = 25
    gens = (f1 ** 23, f2)
    assert exactalg.LENGTH_CAP == 24
    assert artinian_length(gens) == 23
    with pytest.raises(CapError, match="below truncation 24$"):
        three_equal_colength(gens, cap=24)
    monkeypatch.setattr(exactalg, "LENGTH_CAP", 23)
    with pytest.raises(CapError, match="stabilise below truncation 23 "):
        artinian_length(gens)
