from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adelweil import adelic
from adelweil.adelic import (
    Chain, ChartModel, block_frames, chain_algebra, chern_form_component,
    chern_series, contraction_with_field, covertex_lift, localization_check,
    mixed_connection, projector, whitney_check,
)
from adelweil.dgforms import InvariantPolynomial, polynomial_context
from adelweil.errors import CheckFailed, ParseError
from adelweil.exactalg import MultiPoly, RatFunc, RingMatrix

F = ("f",)
fpoly = MultiPoly.var(F, "f")
f = RatFunc(fpoly)
one = RatFunc.from_const(F, 1)
zero = RatFunc.from_const(F, 0)


def rm(rows):
    return RingMatrix(rows)


def chart(frames, points=None, a=None, lift=None, rank=1):
    pts = points or {lab: None for lab in frames}
    return ChartModel(F, rank, frames=frames, points=pts, a=a, lift=lift)


def test_chain_requires_distinct_labels():
    with pytest.raises(ParseError, match="repeated labels in chain"):
        Chain(("x", "x"))
    assert Chain(("x", "y")).length == 1


def test_single_point_connection_is_flat():
    conn = mixed_connection(chart({"x": rm([[one]])}), Chain(("x",)))
    assert conn.theta.is_zero()
    assert conn.curvature().is_zero()


def test_missing_frame_is_reported():
    with pytest.raises(ParseError, match="no frame for point 'y'"):
        mixed_connection(chart({"x": rm([[one]])}), Chain(("x", "y")))


def test_zero_frame_is_rejected():
    with pytest.raises(ParseError, match="frame at 'x' is not invertible"):
        mixed_connection(chart({"x": rm([[zero]])}), Chain(("x",)))


def test_covertex_lift_interpolates_along_the_simplex():
    model = chart({"x": rm([[one]]), "y": rm([[one]])})
    ctx = chain_algebra(model, Chain(("x", "y")))
    lifted = covertex_lift({"x": Q(2), "y": Q(5)}, Chain(("x", "y")), ctx)
    expect = ctx.t(0) * ctx.form_scalar(2) + ctx.t(1) * ctx.form_scalar(5)
    assert lifted == expect


def test_two_point_chain_reproduces_the_logarithmic_form():
    model = chart({"x0": rm([[f]]), "z": rm([[one]])})
    conn = mixed_connection(model, Chain(("x0", "z")))
    ctx = conn.ctx
    fc = ctx.ring_var("f")
    assert conn.theta[0, 0] == \
        -(ctx.t(0) * ctx.form_scalar(fc.invert()) * ctx.df("f"))
    R11 = conn.curvature_11()
    assert R11[0, 0] == ctx.dt(1) * ctx.form_scalar(fc.invert()) * ctx.df("f")
    c1 = chern_form_component(1, conn)
    base = polynomial_context(F)
    assert c1 == base.form_scalar(base.ring_var("f").invert()) * base.df("f")
    assert c1.render() == "1/f d f"


def test_equal_frames_give_zero_curvature():
    g = rm([[f + one, f], [f, one]])
    model = ChartModel(F, 2, frames={"a": g, "b": g, "c": g},
                       points={"a": None, "b": None, "c": None})
    conn = mixed_connection(model, Chain(("a", "b", "c")))
    assert conn.curvature().is_zero()


def test_both_curvature_routes_agree_on_mixed_frames():
    ga = rm([[one, f], [zero, one]])
    gb = rm([[f + one, zero], [f, one]])
    model = ChartModel(F, 2, frames={"a": ga, "b": gb},
                       points={"a": None, "b": None})
    conn = mixed_connection(model, Chain(("a", "b")))
    assert not conn.curvature_11().is_zero()


UNIT_POOL = (one, f + one, f * f + one, f * 2 + one)
FRAME_POOL = UNIT_POOL + (f, f * f)
MIX_POOL = (zero, one, f, f * f, f + one)


@settings(max_examples=20)
@given(st.lists(st.sampled_from(FRAME_POOL), min_size=3, max_size=3),
       st.lists(st.sampled_from(FRAME_POOL), min_size=3, max_size=3),
       st.lists(st.sampled_from(MIX_POOL), min_size=3, max_size=3))
def test_total_chern_series_factors_through_extensions(subs, quots, mixes):
    labels = ("a", "b", "c")
    sub = chart({lab: rm([[g]]) for lab, g in zip(labels, subs)})
    quot = chart({lab: rm([[g]]) for lab, g in zip(labels, quots)})
    mixing = {lab: rm([[m]]) for lab, m in zip(labels, mixes)}
    rep = whitney_check(sub, quot, mixing, Chain(labels))
    assert rep["ok"], rep["first_failure"]


def test_extension_frames_are_upper_triangular():
    sub = chart({"a": rm([[f]])})
    quot = chart({"a": rm([[one]])})
    total = block_frames(sub, quot, {"a": rm([[f * f]])})
    g = total.frame("a")
    assert g[0, 0] == f and g[0, 1] == f * f
    assert g[1, 0].is_zero() and g[1, 1] == one
    assert total.rank == 2


def test_chern_series_starts_with_one():
    model = chart({"x0": rm([[f]]), "z": rm([[one]])})
    conn = mixed_connection(model, Chain(("x0", "z")))
    series = chern_series(conn)
    assert series[0] == conn.ctx.one_form()
    assert len(series) == 2


def test_projector_pairs_to_one_with_the_field():
    model = chart({"x0": rm([[one]]), "q": rm([[one]])},
                  points={"x0": None, "q": {"f": Q(1)}},
                  a=[fpoly * fpoly], lift=rm([[-fpoly]]))
    for lab in ("x0", "q"):
        pi = projector(model, lab)
        paired = contraction_with_field(pi, model)
        assert paired == paired.ctx.one_form()


def _weighted_model():
    return chart({"x0": rm([[one]]), "inf": rm([[f.invert()]])},
                 a=[fpoly * fpoly], lift=rm([[-fpoly]]))


def test_localization_identities_on_the_weighted_chart():
    assert localization_check(_weighted_model(), Chain(("x0", "inf")))


def test_corrupted_projector_is_detected(monkeypatch):
    two = polynomial_context(F).form_scalar(Q(2))
    monkeypatch.setattr(adelic, "projector",
                        lambda model, lab: two * projector(model, lab))
    with pytest.raises(CheckFailed, match="is not zero: "):
        localization_check(_weighted_model(), Chain(("x0", "inf")))


@settings(max_examples=15)
@given(st.sampled_from(FRAME_POOL), st.sampled_from(FRAME_POOL),
       st.sampled_from((Q(1), Q(2), Q(-1))),
       st.sampled_from((Q(0), Q(-1), Q(2))))
def test_localization_holds_on_random_curve_chains(g0, g1, slope, lam):
    model = chart({"x0": rm([[g0]]), "x1": rm([[g1]])},
                  a=[fpoly * slope],
                  lift=rm([[MultiPoly.const(F, lam)]]))
    assert localization_check(model, Chain(("x0", "x1")))


@settings(max_examples=10)
@given(st.sampled_from(FRAME_POOL), st.sampled_from(FRAME_POOL),
       st.sampled_from(FRAME_POOL))
def test_localization_holds_on_longer_chains(g0, g1, g2):
    model = chart({"x0": rm([[g0]]), "x1": rm([[g1]]), "x2": rm([[g2]])},
                  a=[fpoly * fpoly], lift=rm([[-fpoly]]))
    assert localization_check(model, Chain(("x0", "x1", "x2")))


def _plane_model():
    V = ("y1", "y2")
    y1, y2 = (RatFunc.var(V, n) for n in V)
    vone = RatFunc.from_const(V, 1)
    vzero = RatFunc.from_const(V, 0)
    return ChartModel(
        V, 2,
        frames={
            "p": rm([[vone, vzero], [vzero, vone]]),
            "q": rm([[vone, y1], [vzero, vone]]),
            "r": rm([[vone, vzero], [y2, vone]]),
        },
        points={"p": None, "q": {"y1": Q(0), "y2": Q(1)}, "r": None},
        a=[y1, y2 * 2],
        lift=rm([[-vone, vzero], [vzero, RatFunc.from_const(V, -2)]]),
    )


def test_localization_in_two_variables_with_varying_projector():
    assert localization_check(_plane_model(), Chain(("p", "q", "r")))


def test_zero_projector_in_two_variables_is_detected(monkeypatch):
    zero = polynomial_context(("y1", "y2")).zero_form()
    monkeypatch.setattr(
        adelic, "projector",
        lambda model, lab: zero if lab == "q" else projector(model, lab))
    with pytest.raises(CheckFailed, match="is not zero: "):
        localization_check(_plane_model(), Chain(("p", "q", "r")))
