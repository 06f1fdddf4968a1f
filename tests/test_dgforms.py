from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adelweil import simplicial
from adelweil.adelic import Chain, block_frames, mixed_connection
from adelweil.cli import resolve_input
from adelweil.dgforms import (
    DGContext, DiffForm, FormMatrix, InvariantPolynomial, chain_context,
    invariant_eval, matrix_curvature, polynomial_context, transgression,
)
from adelweil.errors import ParseError
from adelweil.exactalg import RingMatrix
from adelweil.parsing import load_json, scenario_from_json
from adelweil.simplicial import fiber_integrate

from form_oracles import (
    polarize, polarized_transgression, ratfunc_fiber_integral,
)
from strategies import fractions, polys

CTX = chain_context(1, ("f",))
EVEN = CTX.even_vars


def _term(ctx, poly, use_dt, use_df):
    out = ctx.form_scalar(ctx.ring_poly(poly))
    if use_dt:
        out = out * ctx.dt(1)
    if use_df:
        out = out * ctx.df("f")
    return out


def forms(max_terms: int = 3):
    term = st.tuples(polys(EVEN, max_degree=2, max_terms=3),
                     st.booleans(), st.booleans())

    def build(terms):
        total = CTX.zero_form()
        for poly, use_dt, use_df in terms:
            total = total + _term(CTX, poly, use_dt, use_df)
        return total

    return st.lists(term, max_size=max_terms).map(build)


def homogeneous_forms():
    return st.tuples(polys(EVEN, max_degree=2, max_terms=3),
                     st.booleans(), st.booleans()).map(
        lambda t: _term(CTX, *t))


# four odd generators dt1, dt2, df, dg: for P of degree m >= 2 both
# sides of d TP = P(R) are forms of degree 2m <= 4 that need not vanish
CTX4 = chain_context(2, ("f", "g"))


def theta_matrices(size: int = 2, ctx=CTX):
    """Matrices of 1-forms: every entry is sum_g p_g g over the odd
    generators g of ctx, each p_g a polynomial of up to two terms."""
    odd = [ctx.dt(i) for i in range(1, len(ctx.simplex_vars) + 1)] + \
        [ctx.df(name) for name in ctx.base_vars]
    coefficient = polys(ctx.even_vars, max_degree=2, max_terms=2)

    def one_form(ps):
        total = ctx.zero_form()
        for p, g in zip(ps, odd):
            total = total + ctx.form_scalar(ctx.ring_poly(p)) * g
        return total

    entry = st.tuples(*[coefficient] * len(odd)).map(one_form)
    return st.lists(st.lists(entry, min_size=size, max_size=size),
                    min_size=size, max_size=size).map(
        lambda rows: FormMatrix(ctx, rows))


def test_simplex_coordinates_sum_to_one():
    ctx = chain_context(2, ("f",))
    total = ctx.t(0) + ctx.t(1) + ctx.t(2)
    assert total == ctx.one_form()
    assert (ctx.dt(0) + ctx.dt(1) + ctx.dt(2)).is_zero()


def test_context_rejects_reused_names():
    with pytest.raises(ParseError, match="variables used twice"):
        DGContext(("t1",), ("t1", "f"))


def test_odd_generators_square_to_zero():
    assert (CTX.df("f") * CTX.df("f")).is_zero()
    assert (CTX.dt(1) * CTX.dt(1)).is_zero()
    assert CTX.dt(1) * CTX.df("f") == -(CTX.df("f") * CTX.dt(1))


@given(forms())
def test_d_squared_is_zero(w):
    assert w.d().d().is_zero()


@given(forms())
def test_d_splits_into_simplex_and_base(w):
    assert w.d() == w.d_simplex() + w.d_base()
    assert w.d_simplex().d_simplex().is_zero()
    assert w.d_base().d_base().is_zero()
    mixed = w.d_simplex().d_base() + w.d_base().d_simplex()
    assert mixed.is_zero()


@given(homogeneous_forms(), homogeneous_forms())
def test_d_is_a_graded_derivation(a, b):
    sign = -1 if a.degree() % 2 else 1
    assert (a * b).d() == a.d() * b + sign * (a * b.d())


@given(forms())
def test_bidegree_components_reassemble(w):
    total = CTX.zero_form()
    for p in range(2):
        for q in range(2):
            total = total + w.bidegree_component(p, q)
    assert total == w


@given(homogeneous_forms(), homogeneous_forms(), polys(EVEN, max_degree=1))
def test_contraction_is_an_odd_derivation(a, b, comp):
    v = {"f": CTX.ring_poly(comp)}
    sign = -1 if a.degree() % 2 else 1
    assert (a * b).contract(v) == \
        a.contract(v) * b + sign * (a * CTX.form_scalar(1) * b.contract(v))
    assert a.contract(v).contract(v).is_zero()
    assert CTX.dt(1).contract(v).is_zero()


@given(forms(), forms())
def test_substitution_is_a_dga_homomorphism(a, b):
    image = CTX.ring_var("f") + CTX.ring_var("f") ** 2
    phi_even = {"f": image}
    phi_odd = {CTX.odd_index("f"):
               CTX.form_scalar(image.diff("f")) * CTX.df("f")}

    def phi(w):
        return w.substitute(CTX, phi_even, phi_odd)

    assert phi(a * b) == phi(a) * phi(b)
    assert phi(a.d()) == phi(a).d()


def test_inert_coefficients_expand_the_form():
    ctx = chain_context(1, ("f",), ("s",))
    s = ctx.form_scalar(ctx.ring_var("s"))
    w = ctx.df("f") + s * ctx.dt(1) + s * s * ctx.form_scalar(3)
    assert w.inert_coefficient("s", 0) == ctx.df("f")
    assert w.inert_coefficient("s", 1) == ctx.dt(1)
    assert w.inert_coefficient("s", 2) == ctx.form_scalar(3)


def test_invariant_polynomial_degree_bookkeeping():
    P = InvariantPolynomial(2, {(2, 0): Q(1), (0, 1): Q(-2)})
    assert P.degree == 2
    assert P.render() == "-2*c2 + c1^2"
    with pytest.raises(ParseError, match="mixed weighted degrees"):
        InvariantPolynomial(2, {(1, 0): Q(1), (0, 1): Q(1)})


def test_invariant_eval_matches_trace_and_det():
    rows = [[CTX.form_scalar(CTX.ring_var("f")), CTX.form_scalar(1)],
            [CTX.form_scalar(2), CTX.form_scalar(CTX.ring_var("t1"))]]
    M = FormMatrix(CTX, rows)
    tr = invariant_eval(InvariantPolynomial.elementary(2, 1), M)
    det = invariant_eval(InvariantPolynomial.elementary(2, 2), M)
    fv = CTX.form_scalar(CTX.ring_var("f"))
    tv = CTX.form_scalar(CTX.ring_var("t1"))
    assert tr == fv + tv
    assert det == fv * tv - CTX.form_scalar(2)


@given(st.integers(min_value=1, max_value=2),
       st.lists(st.lists(polys(EVEN, max_degree=1, max_terms=2),
                         min_size=2, max_size=2), min_size=2, max_size=2))
def test_ring_and_form_invariant_eval_agree(i, rows):
    P = InvariantPolynomial.elementary(2, i)
    ring_rows = [[CTX.ring_poly(p) for p in row] for row in rows]
    via_ring = invariant_eval(P, RingMatrix(ring_rows), CTX.ring_const(1))
    M = FormMatrix.from_ring(CTX, RingMatrix(ring_rows))
    assert CTX.form_scalar(via_ring) == invariant_eval(P, M)


@settings(max_examples=15)
@given(theta_matrices())
def test_chern_forms_are_closed(theta):
    R = matrix_curvature(theta)
    for i in (1, 2):
        P = InvariantPolynomial.elementary(2, i)
        assert invariant_eval(P, R).d().is_zero(), (i, theta.render())


@settings(max_examples=15)
@given(theta_matrices(3))
def test_chern_forms_are_closed_rank_three(theta):
    R = matrix_curvature(theta)
    P = InvariantPolynomial.elementary(3, 3)
    assert invariant_eval(P, R).d().is_zero()


@pytest.mark.parametrize("where", [(0, 0), (0, 1)], ids=["diagonal", "off"])
def test_even_entry_guard(where):
    rows = [[CTX.form_scalar(CTX.ring_var("f")), CTX.form_scalar(1)],
            [CTX.form_scalar(2), CTX.form_scalar(CTX.ring_var("t1"))]]
    rows[where[0]][where[1]] = CTX.df("f")
    M = FormMatrix(CTX, rows)
    P11 = InvariantPolynomial.power_of_trace(2, 2)
    odd = "needs even-degree entries"
    with pytest.raises(ParseError, match=odd):
        M.det()
    for k in (1, 2):
        with pytest.raises(ParseError, match=odd):
            M.invariant(k)
    for P in (P11, InvariantPolynomial.elementary(2, 2)):
        with pytest.raises(ParseError, match=odd):
            invariant_eval(P, M)
        with pytest.raises(ParseError, match=odd):
            polarize(P, [M, FormMatrix.from_ring(CTX, [[1, 0], [0, 1]])])
    assert M.invariant(0) == CTX.one_form()


def _even_matrix(rows):
    return FormMatrix(CTX, [[CTX.form_scalar(CTX.ring_poly(p)) for p in row]
                            for row in rows])


@settings(max_examples=15)
@given(st.lists(st.lists(polys(EVEN, max_degree=1, max_terms=2),
                         min_size=2, max_size=2), min_size=2, max_size=2),
       st.lists(st.lists(polys(EVEN, max_degree=1, max_terms=2),
                         min_size=2, max_size=2), min_size=2, max_size=2))
def test_polarization_is_symmetric_and_diagonal_restores(rows_a, rows_b):
    P = InvariantPolynomial.elementary(2, 2)
    A, B = _even_matrix(rows_a), _even_matrix(rows_b)
    assert polarize(P, [A, B]) == polarize(P, [B, A])
    assert polarize(P, [A, A]) == invariant_eval(P, A)


@settings(max_examples=10)
@given(theta_matrices(ctx=CTX4))
def test_transgression_bounds_the_chern_form(theta):
    R = matrix_curvature(theta)
    for terms in ({(1, 0): Q(1)}, {(0, 1): Q(1)}, {(2, 0): Q(1)}):
        P = InvariantPolynomial(2, terms)
        TP = transgression(P, theta)
        assert TP.d() == invariant_eval(P, R), P.render()


def test_transgression_on_longer_chains():
    for l in (2, 3):
        ctx = chain_context(l, ("f",))
        fv = ctx.ring_var("f")
        theta = FormMatrix(ctx, [[
            ctx.form_scalar(ctx.t_coeff(1)) * ctx.df("f")
            + ctx.form_scalar(fv) * ctx.dt(1)]])
        P = InvariantPolynomial.power_of_trace(1, 2)
        assert transgression(P, theta).d() == \
            invariant_eval(P, matrix_curvature(theta))


@settings(max_examples=10)
@given(theta_matrices(ctx=CTX4))
def test_transgression_matches_the_polarization_oracle(theta):
    for terms in ({(1, 0): Q(1)}, {(0, 1): Q(1)}, {(2, 0): Q(1)},
                  {(1, 1): Q(2), (3, 0): Q(-1, 3)}):
        P = InvariantPolynomial(2, terms)
        assert transgression(P, theta) == polarized_transgression(P, theta)


@settings(max_examples=10)
@given(theta_matrices(ctx=CTX4))
def test_fiber_integral_matches_the_ratfunc_route(theta):
    # every cylinder form a transgression integrates, through both routes
    seen = []

    def recording(form):
        seen.append(form)
        return fiber_integrate(form)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simplicial, "fiber_integrate", recording)
        for terms in ({(1, 0): Q(1)}, {(0, 1): Q(1)}, {(2, 0): Q(1)}):
            transgression(InvariantPolynomial(2, terms), theta)
    assert len(seen) == 3
    for form in seen:
        # the same normal form, as the printed reports need
        new, old = fiber_integrate(form), ratfunc_fiber_integral(form)
        assert new == old and new.render() == old.render()


def _chain_theta(ctx, rank):
    """A rank-r connection on a chain with every differential in use."""
    fv = ctx.ring_var("f")
    l = len(ctx.simplex_vars)
    rows = []
    for i in range(rank):
        row = []
        for j in range(rank):
            k, k2 = (i + j) % l + 1, (i + j + 1) % l + 1
            tk = ctx.t_coeff(k)
            row.append(ctx.form_scalar(tk * tk + i - j) * ctx.df("f")
                       + ctx.form_scalar(fv * (i + 1) + j) * ctx.dt(k)
                       + ctx.form_scalar(fv * ctx.t_coeff(k2)) * ctx.dt(k2))
        rows.append(row)
    return FormMatrix(ctx, rows)


@pytest.mark.parametrize("l, r, degrees", [
    (1, 1, (1, 2)), (2, 1, (1, 2)), (3, 1, (1, 2)), (2, 2, (1, 2)),
    (3, 2, (2,)),
])
def test_transgression_matches_the_oracle_on_chains(l, r, degrees):
    theta = _chain_theta(chain_context(l, ("f",)), r)
    for m in degrees:
        P = InvariantPolynomial.power_of_trace(r, m)
        assert transgression(P, theta) == polarized_transgression(P, theta)
    if r > 1:
        # P_r, whose degree m equals the rank r
        P = InvariantPolynomial.elementary(r, r)
        TP = transgression(P, theta)
        assert TP == polarized_transgression(P, theta)
        assert TP.d() == invariant_eval(P, matrix_curvature(theta))


def test_transgression_matches_the_oracle_on_mixed_connections():
    # rational connection matrices (denominators in f) from shipped charts,
    # and the block frames of the shipped Whitney extension
    connections = []
    for name, labels in (("p1-o2.json", ("x0", "p0")),
                         ("p1-tangent.json", ("x0", "p0", "inf"))):
        chart = scenario_from_json(load_json(resolve_input(name))).chart
        connections.append(mixed_connection(chart, Chain(labels)))
    sub, quot, mixing, chain = scenario_from_json(
        load_json(resolve_input("p1-whitney.json"))).whitney
    connections.append(mixed_connection(block_frames(sub, quot, mixing),
                                        chain))
    assert any(not x.terms[mono].den.is_constant()
               for conn in connections for row in conn.theta.rows
               for x in row for mono in x.terms)
    for conn in connections:
        r = conn.rank
        for P in (InvariantPolynomial.elementary(r, 1),
                  InvariantPolynomial.elementary(r, r),
                  InvariantPolynomial.power_of_trace(r, 2)):
            TP = transgression(P, conn.theta)
            assert TP == polarized_transgression(P, conn.theta), P.render()


def test_transgression_beside_a_base_variable_named_s():
    ctx = DGContext(("t1",), ("s", "f"))
    sv, fv = ctx.ring_var("s"), ctx.ring_var("f")
    theta = FormMatrix(ctx, [
        [ctx.form_scalar(sv) * ctx.df("f") + ctx.form_scalar(fv) * ctx.dt(1),
         ctx.df("s")],
        [ctx.form_scalar(sv * fv) * ctx.dt(1),
         ctx.form_scalar(ctx.t_coeff(1)) * ctx.df("s")]])
    for P in (InvariantPolynomial.power_of_trace(2, 2),
              InvariantPolynomial.elementary(2, 2)):
        TP = transgression(P, theta)
        assert TP.ctx == ctx and not TP.is_zero()
        assert TP == polarized_transgression(P, theta)
        assert TP.d() == invariant_eval(P, matrix_curvature(theta))


def test_transgression_substitutes_nothing(monkeypatch):
    # the cylinder's curvature is re-keyed from theta's own forms
    def refuse(*args, **kwargs):
        raise AssertionError("DiffForm.substitute called")

    monkeypatch.setattr(DiffForm, "substitute", refuse)
    theta = _chain_theta(chain_context(2, ("f",)), 2)
    P = InvariantPolynomial.power_of_trace(2, 2)
    assert transgression(P, theta) == polarized_transgression(P, theta)
    with pytest.raises(AssertionError):
        theta[0, 0].substitute(theta.ctx)

