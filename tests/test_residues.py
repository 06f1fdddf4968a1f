import itertools
import json
from fractions import Fraction as Q
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from adelweil import exactalg, residues, scenarios
from adelweil.cli import FRACTION_FILES, SCENARIO_FILES, main, resolve_input
from adelweil.dgforms import InvariantPolynomial
from adelweil.errors import CapError, CheckFailed, ParseError
from adelweil.exactalg import MultiPoly, RingMatrix, TruncatedSeries
from adelweil.parsing import fraction_from_json, scenario_from_json
from adelweil.residues import (
    GeneralizedFraction, LocalZeroData, gauss_bonnet_local, local_invariant,
    residue_general,
)
from adelweil.scenarios import bott_sum, curve_adelic_integral

from series_oracles import (
    coordinate_change_check, series_residue, simple_zero_invariant,
)
from strategies import fractions, polys

V1 = ("f",)
V2 = ("f1", "f2")
f = MultiPoly.var(V1, "f")
f1, f2 = [MultiPoly.var(V2, v) for v in V2]
one2 = MultiPoly.const(V2, 1)
P1 = InvariantPolynomial.elementary(1, 1)
P2 = InvariantPolynomial.elementary(2, 2)


def test_fraction_construction_guards():
    with pytest.raises(ParseError):
        GeneralizedFraction(V1, f, (MultiPoly.const(V1, 1) + f,))
    with pytest.raises(ParseError):
        GeneralizedFraction(V1, f, (MultiPoly.zero(V1),))
    with pytest.raises(ParseError):
        GeneralizedFraction(V2, one2, (f1,))


def test_monomial_residue_reads_one_coefficient():
    gf = GeneralizedFraction(V2, f1 * 3 + f1 * f2 ** 2 * 5,
                             (f1 ** 2, f2 ** 3))
    assert residue_general(gf) == 5
    assert residue_general(GeneralizedFraction(V2, one2, (f1, f2))) == 1
    assert residue_general(GeneralizedFraction(V1, -f, (f ** 2,))) == -1


def test_permuted_slots_flip_the_sign():
    assert residue_general(GeneralizedFraction(V2, one2, (f2, f1))) == -1
    assert residue_general(GeneralizedFraction(V2, one2, (f1, f2))) == 1


def test_unit_factors_are_divided_out():
    u_times_f = (MultiPoly.const(V1, 1) + f) * f
    assert residue_general(GeneralizedFraction(
        V1, MultiPoly.const(V1, 1), (u_times_f,))) == 1
    # 1/((1+f) f^2): expand (1+f)^-1 = 1 - f + .., coefficient of f is -1
    u_times_f2 = (MultiPoly.const(V1, 1) + f) * f ** 2
    assert residue_general(GeneralizedFraction(
        V1, MultiPoly.const(V1, 1), (u_times_f2,))) == -1


def test_general_path_agrees_with_known_lengths():
    assert residue_general(GeneralizedFraction(V2, one2, (f1, f1 + f2)),
                           stability=True) == 1
    assert gauss_bonnet_local((f,)) == (1, 1)
    assert gauss_bonnet_local((f1 ** 2, f2 ** 3)) == (6, 6)
    assert gauss_bonnet_local((f1 ** 2 - f2 ** 3, f2 ** 2)) == (4, 4)
    # colength 13: f1^13 is the least power of f1 in the ideal
    assert residue_general(GeneralizedFraction(
        V2, f1 ** 12, (f1 ** 13 + f2, f2))) == 1


def test_gauss_bonnet_reads_the_certificates_jacobian(monkeypatch):
    # one Jacobian determinant per truncation read: n^2 derivatives of
    # the components, and no second determinant for the returned residue
    taken = []
    real = MultiPoly.diff
    monkeypatch.setattr(MultiPoly, "diff",
                        lambda p, name: taken.append(name) or real(p, name))
    a = (f1 ** 2 - f2 ** 3, f2 ** 2)
    assert gauss_bonnet_local(a) == (4, 4) and len(taken) == 4
    # the recompute at T + 1 reads one more determinant
    taken.clear()
    assert residue_general(GeneralizedFraction(V2, 0, a),
                           stability=True) == 0
    assert len(taken) == 8


def test_gauss_bonnet_needs_a_component():
    for count in (gauss_bonnet_local, exactalg.artinian_length):
        with pytest.raises(ParseError, match="empty generator list"):
            count([])


def _shipped_values() -> list:
    """The residue engine's answers on the shipped data, with the
    verdicts that check them."""
    out = []
    for name in FRACTION_FILES:
        data = json.loads(Path(resolve_input(name)).read_text())
        gf = fraction_from_json(data)
        values = [residue_general(gf), residue_general(gf, precision=8),
                  residue_general(gf, stability=True)]
        out.append((values, values == [Q(data["expected"])] * 3))
    for name in SCENARIO_FILES:
        scn = scenario_from_json(
            json.loads(Path(resolve_input(name)).read_text()))
        res = bott_sum(scn)
        out.append((res["rows"], res["total"], res["matches"]))
        if scn.curve is not None:
            value = curve_adelic_integral(scn)
            out.append((value, value == scn.expected))
    out.append(gauss_bonnet_local((f1 ** 2 - f2 ** 3, f2 ** 2)))
    return out


def test_no_residue_path_runs_a_dense_elimination(monkeypatch):
    expected = _shipped_values()
    assert all(row[-1] is not False for row in expected[:-1])

    def refuse(*args):
        raise AssertionError("a dense QMatrix elimination ran")

    monkeypatch.setattr(exactalg.QMatrix, "rref", refuse)
    monkeypatch.setattr(exactalg.QMatrix, "solve", refuse)
    assert _shipped_values() == expected


def test_certificate_rejects_a_wrong_colength(monkeypatch):
    # the local degree identity: the Jacobian's residue is the colength
    # the search hands over (l, T, span); only l is wrong here
    real = residues._colength_and_span
    monkeypatch.setattr(residues, "_colength_and_span",
                        lambda gens: (5,) + real(gens)[1:])
    gf = GeneralizedFraction(V2, one2, (f1 ** 2 - f2 ** 3, f2 ** 2))
    with pytest.raises(CheckFailed, match="residue 4, not the colength 5"):
        residue_general(gf)


@pytest.mark.parametrize("name", [
    "fraction-cusp", "fraction-plane", "fraction-weighted-model"])
def test_each_truncation_builds_one_span(monkeypatch, name):
    # the residue engine reads its local algebra off the colength
    # search's spans; no call builds the span at one truncation twice
    built = []
    real = exactalg.macaulay_span

    def counting(gens, T):
        built.append(T)
        return real(gens, T)

    monkeypatch.setattr(exactalg, "macaulay_span", counting)
    monkeypatch.setattr(residues, "macaulay_span", counting)
    gf = fraction_from_json(
        json.loads(Path(resolve_input(name + ".json")).read_text()))
    for kwargs in ({}, {"stability": True}, {"precision": 8},
                   {"precision": 8, "stability": True}):
        built.clear()
        residue_general(gf, **kwargs)
        assert built and len(built) == len(set(built)), (kwargs, built)


def test_verify_all_builds_few_spans(monkeypatch, capsys):
    # one span per colength search step: 25 for the Bott and residue
    # checks, and one for each curve residue (a simple pole, T = 2)
    built = []
    real_span, real_at = exactalg.macaulay_span, scenarios.residue_at

    def counting(gens, T):
        built.append(T)
        return real_span(gens, T)

    curve = []

    def counting_at(g, z):
        before = len(built)
        value = real_at(g, z)
        curve.append(len(built) - before)
        return value

    monkeypatch.setattr(exactalg, "macaulay_span", counting)
    monkeypatch.setattr(residues, "macaulay_span", counting)
    monkeypatch.setattr(scenarios, "residue_at", counting_at)
    assert main(["verify-all"]) == 0
    capsys.readouterr()
    assert len(built) - sum(curve) <= 25
    assert curve == [1, 1, 1]


def test_a_colength_that_repeats_at_the_cap_has_a_residue():
    # the first repeat of (f1^23, f2) is at T = 24 = LENGTH_CAP
    assert exactalg.LENGTH_CAP == 24
    gf = GeneralizedFraction(V2, f1 ** 22, (f1 ** 23, f2))
    assert residue_general(gf) == 1
    with pytest.raises(CapError, match="below truncation 24"):
        gauss_bonnet_local((f1 ** 24, f2))


def test_a_series_denominator_is_read_below_twice_the_loewy_length():
    # (f1^4, f2^4) has Loewy length s = 7: the engine reads the
    # denominators below 2s = 14, and the colength search stops at 8
    a = tuple(TruncatedSeries.from_poly(x ** 4, 15) for x in (f1, f2))
    assert series_residue(V2, f1 ** 3 * f2 ** 3, a) == 1
    short = tuple(TruncatedSeries.from_poly(x ** 4, 13) for x in (f1, f2))
    with pytest.raises(ValueError, match="window 14"):
        series_residue(V2, f1 ** 3 * f2 ** 3, short)


def test_series_numerator_precision_is_honest():
    num = TruncatedSeries.from_poly(f, 2)
    with pytest.raises(ValueError, match="below required window 3$"):
        series_residue(V1, num, (f ** 3,))
    wide = TruncatedSeries.from_poly(f, 9)
    assert series_residue(V1, wide, (f ** 3,)) == 0


@pytest.mark.parametrize("c", [Q(1), Q(-2), Q(5, 3)])
def test_series_denominator_precision_is_honest(c):
    # Res[f df / (f^3 + c f^4)] = -c reads the f^4 term, which a series
    # cut at degree 4 does not know
    short = (TruncatedSeries.from_poly(f ** 3 + f ** 4 * c, 4),)
    with pytest.raises(ValueError, match="below required window"):
        series_residue(V1, f, short)
    known = (TruncatedSeries.from_poly(f ** 3 + f ** 4 * c, 8),)
    assert series_residue(V1, f, known) == -c
    assert residue_general(GeneralizedFraction(
        V1, f, (f ** 3 + f ** 4 * c,))) == -c


def _inversions(perm) -> int:
    return sum(1 for i, j in itertools.combinations(range(len(perm)), 2)
               if perm[i] > perm[j])


@settings(max_examples=20)
@given(st.integers(min_value=1, max_value=3).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(min_value=1, max_value=3), min_size=n,
                 max_size=n),
        st.permutations(range(n)),
        polys(tuple(f"f{i}" for i in range(1, n + 1)), max_degree=5,
              max_terms=6))))
def test_monomial_denominators_read_one_signed_coefficient(case):
    # [g df / f_p(1)^k_p(1), .., f_p(n)^k_p(n)] is sign(p) times the
    # coefficient of f^(k - 1) in g
    ks, perm, g = case
    xs = [MultiPoly.var(g.vars, v) for v in g.vars]
    dens = tuple(xs[i] ** ks[i] for i in perm)
    expect = (-1) ** _inversions(perm) * \
        g.coeffs.get(tuple(k - 1 for k in ks), Q(0))
    assert residue_general(GeneralizedFraction(g.vars, g, dens)) == expect


@settings(max_examples=12)
@given(polys(V2, max_degree=3, max_terms=3, min_degree=2),
       polys(V2, max_degree=3, max_terms=3, min_degree=2),
       st.integers(min_value=1, max_value=2),
       st.integers(min_value=1, max_value=3),
       st.lists(polys(V2, max_degree=1, max_terms=2), min_size=4,
                max_size=4),
       polys(V2, max_degree=3, max_terms=4))
def test_transformation_law(p1, p2, k1, k2, m, g):
    # b = M a lies in the ideal of a, and Res[g / a] = Res[g det M / b]
    a = (f1 ** k1 + p1, f2 ** k2 + p2)
    M = RingMatrix([m[0:2], m[2:4]])
    b = tuple(row[0] * a[0] + row[1] * a[1] for row in M.rows)
    # the law is stated for denominators with nonzero entries
    assume(not any(x.is_zero() for x in a + b))
    try:
        lhs = residue_general(GeneralizedFraction(V2, g, a))
        rhs = residue_general(GeneralizedFraction(V2, g * M.det(), b))
    except CapError as exc:
        # a positive-dimensional ideal has no residue
        assert str(exc).startswith("colength did not stabilise"), exc
        assume(False)
    assert lhs == rhs


def test_zero_denominator_entry_is_refused():
    # f2^2 + p2 with p2 = -f2^2 is the zero polynomial
    a = (f1, f2 ** 2 - f2 ** 2)
    with pytest.raises(ParseError, match="not identically"):
        GeneralizedFraction(V2, one2, a)


DENOMS = (f1 + f2 ** 2, f2 ** 3)


@settings(max_examples=15)
@given(polys(V2, max_degree=3, max_terms=3),
       polys(V2, max_degree=3, max_terms=3), fractions(), fractions())
def test_residue_is_linear_in_the_numerator(g, h, alpha, beta):
    combo = g * alpha + h * beta
    lhs = residue_general(GeneralizedFraction(V2, combo, DENOMS))
    rhs = alpha * residue_general(GeneralizedFraction(V2, g, DENOMS)) + \
        beta * residue_general(GeneralizedFraction(V2, h, DENOMS))
    assert lhs == rhs


UNITS = (one2, one2 + f1, one2 + f1 * f2, MultiPoly.const(V2, 2) + f2)


@settings(max_examples=15)
@given(st.sampled_from(UNITS), polys(V2, max_degree=2, max_terms=3))
def test_unit_rescaling_of_a_denominator(u, g):
    plain = residue_general(GeneralizedFraction(V2, g, DENOMS))
    scaled = residue_general(GeneralizedFraction(
        V2, g * u, (DENOMS[0] * u, DENOMS[1])))
    assert scaled == plain


def test_weighted_model_invariant():
    zd = LocalZeroData(V1, 1, (f ** 2,), RingMatrix([[-f]]))
    assert local_invariant(P1, zd) == 1


def test_chart_pair_of_reduced_zeros():
    zd0 = LocalZeroData(V1, 1, (f,),
                        RingMatrix([[MultiPoly.const(V1, -1)]]))
    zdi = LocalZeroData(V1, 1, (f,),
                        RingMatrix([[MultiPoly.const(V1, 0)]]))
    assert local_invariant(P1, zd0) == 1
    assert local_invariant(P1, zdi) == 0
    assert simple_zero_invariant(P1, zd0) == 1
    assert simple_zero_invariant(P1, zdi) == 0


def test_closed_form_matches_residue_with_scaling():
    zdc = LocalZeroData(V1, 1, (f * 3,),
                        RingMatrix([[MultiPoly.const(V1, 5)]]))
    assert simple_zero_invariant(P1, zdc) == Q(-5, 3)
    assert local_invariant(P1, zdc) == Q(-5, 3)


def test_closed_form_matches_residue_in_two_variables():
    lift = RingMatrix([[MultiPoly.const(V2, 7), MultiPoly.const(V2, 0)],
                       [MultiPoly.const(V2, 0), MultiPoly.const(V2, 11)]])
    zd = LocalZeroData(V2, 2, (f1 * 2, f2 * 3), lift)
    assert simple_zero_invariant(P2, zd) == local_invariant(P2, zd) == \
        Q(77, 6)


def test_closed_form_refuses_degenerate_zeros():
    zd = LocalZeroData(V1, 1, (f ** 2,), RingMatrix([[-f]]))
    with pytest.raises(ParseError, match="zero is not reduced"):
        simple_zero_invariant(P1, zd)


def test_closed_form_refuses_a_point_where_the_field_is_nonzero():
    zd = LocalZeroData(V1, 1, (f + 1,), RingMatrix([[-f]]))
    with pytest.raises(ParseError, match="does not vanish"):
        simple_zero_invariant(P1, zd)


def test_closed_form_refuses_a_zero_of_colength_two():
    # (f1, f2^2) has colength 2: its linearization drops rank
    lift = RingMatrix([[one2, 0 * one2], [0 * one2, one2]])
    zd = LocalZeroData(V2, 2, (f1, f2 ** 2), lift)
    with pytest.raises(ParseError, match="not reduced"):
        simple_zero_invariant(P2, zd)
    assert gauss_bonnet_local(list(zd.a)) == (2, 2)


def test_the_engine_refuses_a_series_entry():
    # the engine certifies the truncation it reads: a series reaches it
    # only through series_oracles, cut to a polynomial
    s = TruncatedSeries.from_poly(f, 2)
    lift = RingMatrix([[MultiPoly.const(V1, -1)]])
    for build in (lambda: GeneralizedFraction(V1, s, (f ** 3,)),
                  lambda: GeneralizedFraction(V1, f, (s,)),
                  lambda: LocalZeroData(V1, 1, (s,), lift)):
        with pytest.raises(ParseError, match="cannot interpret "
                           r"TruncatedSeries\('f \+ O\(deg 2\)'\)"):
            build()


def test_invariant_degree_must_match_dimension():
    zd = LocalZeroData(V1, 1, (f,), RingMatrix([[MultiPoly.const(V1, 1)]]))
    with pytest.raises(ParseError, match="degree 2 against dimension 1"):
        local_invariant(InvariantPolynomial.power_of_trace(1, 2), zd)


@settings(max_examples=15)
@given(polys(V1, max_degree=2, max_terms=2))
def test_lift_changes_inside_the_ideal_are_invisible(p):
    zd = LocalZeroData(V1, 1, (f ** 2,),
                       RingMatrix([[-f + f ** 2 * p]]))
    assert local_invariant(P1, zd) == 1


def test_stability_recomputation_agrees():
    zd = LocalZeroData(V2, 2, (f1 ** 2 - f2 ** 3, f2 ** 2),
                       RingMatrix([[f1, MultiPoly.zero(V2)],
                                   [MultiPoly.zero(V2), f2]]))
    assert local_invariant(P2, zd, stability=True) == \
        local_invariant(P2, zd)


def test_coordinate_change_on_the_weighted_model():
    zd = LocalZeroData(V1, 1, (f ** 2,), RingMatrix([[-f]]))
    assert coordinate_change_check(P1, zd, {"f": f + f ** 2})


@pytest.mark.parametrize("change", [
    {"f1": f1 + f2, "f2": f1 * 2 + f2 * 2 + f1 * f2},
    {"f1": f1 ** 2},
], ids=["proportional-rows", "no-linear-term"])
def test_coordinate_change_refuses_a_singular_linear_part(change):
    zd = LocalZeroData(V2, 2, (f1, f2), RingMatrix([[f1, f2], [f2, f1]]))
    with pytest.raises(ParseError, match="drops rank"):
        coordinate_change_check(P2, zd, change)


# (2, 0, 0, 1) has determinant 2: with determinant +-1 only, the
# Jacobian in place of its inverse would pass, so it runs every time
LINEAR_PARTS = ((1, 0, 0, 1), (1, 1, 0, 1), (2, 1, 1, 1), (0, 1, -1, 0),
                (2, 0, 0, 1))


@settings(max_examples=8)
@example((2, 0, 0, 1), f1 * f2, f2 ** 2)
@given(st.sampled_from(LINEAR_PARTS),
       polys(V2, max_degree=2, max_terms=2, min_degree=2),
       polys(V2, max_degree=2, max_terms=2, min_degree=2))
def test_coordinate_change_invariance(linear, tail1, tail2):
    a, b, c, d = linear
    change = {"f1": f1 * a + f2 * b + tail1, "f2": f1 * c + f2 * d + tail2}
    lift = RingMatrix([[MultiPoly.const(V2, 7), MultiPoly.const(V2, 1)],
                       [MultiPoly.const(V2, 0), MultiPoly.const(V2, 11)]])
    zd = LocalZeroData(V2, 2, (f1 * 2 + f2 ** 2, f2 * 3), lift)
    assert coordinate_change_check(P2, zd, change)
