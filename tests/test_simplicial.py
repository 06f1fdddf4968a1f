import math
import re
from fractions import Fraction as Q
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adelweil import dgforms
from adelweil.dgforms import chain_context
from adelweil.errors import DimensionMismatch, ParseError
from adelweil.simplicial import (
    DeltaMorphism, FiniteSimplicialSet, aw_product,
    boundary_simplex_sset, dirichlet_integral, disjoint_points,
    fiber_integrate, integrate_over_simplex, pullback_along,
    standard_simplex_sset,
)

from derham_oracles import (
    coboundary, compose, degeneracy, face, identity_morphism, rho,
    vertex_value,
)
from ring_oracles import ratfunc_image
from strategies import fractions, polys


def monotone_maps(source: int, target: int):
    return st.lists(st.integers(min_value=0, max_value=target),
                    min_size=source + 1, max_size=source + 1).map(
        lambda vs: DeltaMorphism(source, target, tuple(sorted(vs))))


def test_coface_identities():
    # skipping i then j equals skipping j then i+1 when i >= j
    for n in (1, 2, 3):
        for j in range(n + 1):
            for i in range(j, n + 1):
                left = compose(face(n + 1, i + 1), face(n, j))
                right = compose(face(n + 1, j), face(n, i))
                assert left == right, (n, i, j)


def test_codegeneracy_absorbs_coface():
    for n in (1, 2):
        for i in range(n + 1):
            assert compose(degeneracy(n, i), face(n + 1, i)) == \
                identity_morphism(n)
            assert compose(degeneracy(n, i), face(n + 1, i + 1)) == \
                identity_morphism(n)


def test_incompatible_morphisms_refuse_to_compose():
    with pytest.raises(ValueError, match="do not compose"):
        compose(face(2, 0), face(3, 1))


@settings(max_examples=20)
@given(monotone_maps(1, 2), monotone_maps(2, 2),
       polys(("t1", "t2"), max_degree=2, max_terms=3))
def test_pullback_is_contravariantly_functorial(tau, sigma, p):
    ctx = chain_context(2, ())
    form = ctx.form_scalar(ctx.ring_poly(p)) * ctx.dt(1) + \
        ctx.form_scalar(ctx.ring_poly(p)) * ctx.dt(2)
    both = pullback_along(compose(sigma, tau), form)
    stepwise = pullback_along(tau, pullback_along(sigma, form))
    assert both == stepwise


@settings(max_examples=20)
@given(st.integers(min_value=0, max_value=3).flatmap(
           lambda m: monotone_maps(m, 2)),
       polys(("t1", "t2"), max_degree=2, max_terms=3),
       polys(("t1", "t2"), max_degree=2, max_terms=2))
def test_pullback_matches_the_ratfunc_loop(sigma, p, q):
    # substitute's coefficients, pushed through the RatFunc loop that
    # the one substitution loop replaced; 1 + q^2 has no rational zero
    ctx = chain_context(2, ())
    c = ctx.ring_poly(p) / ctx.ring_poly(1 + q * q)
    form = ctx.form_scalar(c) * ctx.dt(1) + ctx.form_scalar(c * c) + \
        ctx.form_scalar(ctx.ring_poly(q)) * ctx.dt(1) * ctx.dt(2)
    with mock.patch.object(dgforms, "poly_substitute",
                           lambda poly, images, one:
                           ratfunc_image(poly, images, one.vars)):
        expect = pullback_along(sigma, form)
    assert pullback_along(sigma, form) == expect


@settings(max_examples=20)
@given(monotone_maps(2, 2), polys(("t1", "t2"), max_degree=2, max_terms=3),
       polys(("t1", "t2"), max_degree=2, max_terms=3))
def test_pullback_is_a_dga_map(sigma, p, q):
    ctx = chain_context(2, ())
    a = ctx.form_scalar(ctx.ring_poly(p)) * ctx.dt(1)
    b = ctx.form_scalar(ctx.ring_poly(q)) + ctx.dt(2)
    assert pullback_along(sigma, a * b) == \
        pullback_along(sigma, a) * pullback_along(sigma, b)
    assert pullback_along(sigma, a.d()) == pullback_along(sigma, a).d()


def test_vertex_values_of_affine_coordinates():
    ctx = chain_context(2, ())
    for i in range(3):
        for j in range(3):
            v = vertex_value(ctx.t(j), i)
            expect = 1 if i == j else 0
            assert v == v.ctx.form_scalar(expect)


def test_dirichlet_integral_formula():
    for l in range(5):
        assert dirichlet_integral(l, (0,) * l) == Q(1, math.factorial(l))
    assert dirichlet_integral(2, (1, 0)) == Q(1, 6)
    assert dirichlet_integral(2, (1, 1)) == Q(1, 24)


def test_simplex_volume_normalization():
    for l in range(5):
        ctx = chain_context(l, ())
        form = ctx.one_form()
        for i in range(1, l + 1):
            form = form * ctx.dt(i)
        assert integrate_over_simplex(form) == Q(1, math.factorial(l))


def test_alternative_orientation_normalization():
    for r in range(5):
        ctx = chain_context(r, ())
        form = ctx.one_form()
        for i in range(r):
            form = form * ctx.dt(i)
        assert integrate_over_simplex(form) == \
            Q((-1) ** r, math.factorial(r))


def test_integration_drops_lower_degrees_and_rejects_base():
    ctx = chain_context(2, ())
    assert integrate_over_simplex(ctx.dt(1)) == 0
    cctx = chain_context(1, ("f",))
    with pytest.raises(DimensionMismatch):
        integrate_over_simplex(cctx.df("f"))
    # base variables in the top coefficient, or in its denominator
    f = cctx.ring_var("f")
    for coeff in (f, f * f - f, 1 / (f + 1), 1 / (cctx.t_coeff(1) + 1)):
        with pytest.raises(DimensionMismatch):
            integrate_over_simplex(cctx.form_scalar(coeff) * cctx.dt(1))
    # a base variable below the top degree is dropped with its term
    assert integrate_over_simplex(cctx.form_scalar(f) + cctx.dt(1)) == 1


def test_integration_is_the_fiber_integral_over_a_point():
    ctx = chain_context(2, ())
    form = (ctx.t(1) * ctx.t(1) * 3 + ctx.t(2) + 1) * ctx.dt(1) * ctx.dt(2)
    # 3/12 + 1/6 + 1/2
    assert integrate_over_simplex(form) == Q(11, 12)
    assert fiber_integrate(form).terms[()].num.constant_term() == Q(11, 12)


def test_fiber_integration_keeps_base_directions():
    ctx = chain_context(1, ("f",))
    base = fiber_integrate(ctx.dt(1) * ctx.df("f"))
    assert base == base.ctx.df("f")
    swapped = fiber_integrate(ctx.df("f") * ctx.dt(1))
    assert swapped == -base.ctx.df("f")
    # t-degree below the fiber dimension integrates to zero
    assert fiber_integrate(ctx.df("f")).is_zero()


@given(polys(("t1", "f"), max_degree=2, max_terms=3),
       polys(("t1", "f"), max_degree=2, max_terms=3))
def test_fiber_integration_is_linear(p, q):
    ctx = chain_context(1, ("f",))
    a = ctx.form_scalar(ctx.ring_poly(p)) * ctx.dt(1) * ctx.df("f")
    b = ctx.form_scalar(ctx.ring_poly(q)) * ctx.dt(1) * ctx.df("f")
    assert fiber_integrate(a + b) == fiber_integrate(a) + fiber_integrate(b)


def test_standard_simplex_census():
    S = standard_simplex_sset(2)
    assert sorted(S.simplices_of(0)) == ["0", "1", "2"]
    assert sorted(S.simplices_of(1)) == ["01", "02", "12"]
    assert S.simplices_of(2) == ["012"]
    assert S.face("012", 1) == "02"
    B = boundary_simplex_sset(2)
    assert B.simplices_of(2) == []


def test_simplicial_set_json_round_trip():
    for S in (standard_simplex_sset(2), boundary_simplex_sset(2),
              disjoint_points(2)):
        assert FiniteSimplicialSet.from_json(S.to_json()) == S


@pytest.mark.parametrize("corrupt, message", [
    (lambda d: d["vertices"].update({"3": [3]}), "unknown simplices"),
    (lambda d: d["vertices"].pop("012"), "no vertices for simplices"),
    (lambda d: d["vertices"].update({"01": [0]}), "are not 2 increasing"),
    (lambda d: d["vertices"].update({"0": [-1]}), "are not 1 increasing"),
    (lambda d: d["vertices"].update({"012": [0, 2, 1]}),
     "are not 3 increasing"),
    (lambda d: d["vertices"].update({"01": [0, 2], "02": [0, 1]}),
     "face 0 of '01' is '1' with vertices [1], not [2]"),
], ids=["unknown", "missing", "length", "negative", "order", "swapped"])
def test_vertex_tuples_must_match_the_face_maps(corrupt, message):
    data = standard_simplex_sset(2).to_json()
    corrupt(data)
    with pytest.raises(ParseError, match=re.escape(message)):
        FiniteSimplicialSet.from_json(data)


def test_cached_simplicial_sets_are_read_only():
    S = standard_simplex_sset(2)
    with pytest.raises(TypeError):
        S.simplices["3"] = 0
    with pytest.raises(TypeError):
        S.faces["012"] = ("01", "02", "12")
    with pytest.raises(TypeError):
        S.vertices["0"] = (1,)
    assert S.faces["012"] == ("12", "02", "01")
    assert FiniteSimplicialSet.from_json(S.to_json()) == S
    assert "3" not in standard_simplex_sset(2).simplices


@given(st.dictionaries(st.sampled_from(["01", "02", "12"]), fractions(),
                       max_size=3))
def test_coboundary_squares_to_zero(vals):
    S = standard_simplex_sset(2)
    assert coboundary(S, 2, coboundary(S, 1, vals)) == {}


def _cochain_sum(a: dict, b: dict) -> dict:
    out = {sid: a.get(sid, 0) + b.get(sid, 0) for sid in a.keys() | b.keys()}
    return {sid: v for sid, v in out.items() if v}


@given(st.dictionaries(st.sampled_from(["0", "1", "2"]), fractions(),
                       max_size=3),
       st.dictionaries(st.sampled_from(["01", "02", "12"]), fractions(),
                       max_size=3))
def test_product_satisfies_the_leibniz_rule(a, b):
    # d(a b) = (d a) b + a (d b) for a of degree 0
    S = standard_simplex_sset(2)
    lhs = coboundary(S, 1, aw_product(S, 0, a, 1, b))
    rhs = _cochain_sum(aw_product(S, 1, coboundary(S, 0, a), 1, b),
                       aw_product(S, 0, a, 2, coboundary(S, 1, b)))
    assert lhs == rhs


@given(st.dictionaries(st.sampled_from(["01", "02", "12", "13", "23"]),
                       fractions(), max_size=5),
       st.dictionaries(st.sampled_from(["0", "1", "2", "3"]), fractions(),
                       max_size=4))
def test_product_satisfies_the_signed_leibniz_rule(a, b):
    # d(a b) = (d a) b - a (d b) for a of degree 1, on the 3-simplex
    S = standard_simplex_sset(3)
    lhs = coboundary(S, 1, aw_product(S, 1, a, 0, b))
    minus_db = {sid: -v for sid, v in coboundary(S, 0, b).items()}
    rhs = _cochain_sum(aw_product(S, 2, coboundary(S, 1, a), 0, b),
                       aw_product(S, 1, a, 1, minus_db))
    assert lhs == rhs


def test_cochain_product_is_associative():
    S = standard_simplex_sset(2)
    a = {"0": Q(2), "1": Q(3), "2": Q(5)}
    b = {"01": Q(1), "12": Q(7)}
    c = {"02": Q(1), "12": Q(2)}
    ab_c = aw_product(S, 1, aw_product(S, 0, a, 1, b), 1, c)
    assert ab_c == aw_product(S, 0, a, 2, aw_product(S, 1, b, 1, c))
    # not a vacuous identity: a b c is the product on the 2-simplex
    assert ab_c == {"012": Q(2) * 1 * 2}


def test_integration_cochain_is_a_chain_map():
    ctx = chain_context(2, ())
    w = ctx.t(1) * ctx.dt(2)
    S = standard_simplex_sset(2)
    assert rho(w.d()) == coboundary(S, 1, rho(w)) != {}
    assert rho(ctx.one_form()) == {"0": 1, "1": 1, "2": 1}
