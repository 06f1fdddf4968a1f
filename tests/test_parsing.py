import json
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings

from adelweil.adelic import Chain, localization_check, whitney_check
from adelweil.errors import CapError, ParseError
from adelweil.parsing import (
    MAX_EXPRESSION_DEGREE, chart_from_json, fraction_from_json,
    parse_invariant_text, parse_polynomial, scenario_from_json,
    sset_from_json,
)
from adelweil.residues import residue_general
from adelweil.scenarios import (
    bott_sum, curve_adelic_integral, projective_space_scenario,
    scenario_to_json, whitney_scenario,
)
from adelweil.simplicial import boundary_simplex_sset
from adelweil.sullivan import verify_de_rham

from strategies import polys

V2 = ("f1", "f2")


@settings(max_examples=30)
@given(polys(V2, max_degree=4, max_terms=5))
def test_parser_inverts_the_renderer(p):
    assert parse_polynomial(p.render(), V2) == p


def test_parser_grammar_corners():
    p = parse_polynomial("-(f1 + 2*f2)^2 - 3/2", V2)
    q = parse_polynomial(p.render(), V2)
    assert p == q
    assert parse_polynomial("0", V2).is_zero()


@pytest.mark.parametrize("bad", [
    "2f", "f$", "(f1", "f1 +", "f1^-2", "f3", "", "f1 f2", "3 3", "f1^(2)",
])
def test_parser_rejects_malformed_input(bad):
    with pytest.raises(ParseError):
        parse_polynomial(bad, V2)


def test_degree_cap_bounds_powers_and_products():
    cap = MAX_EXPRESSION_DEGREE
    assert parse_polynomial(f"f1^{cap}", V2).total_degree() == cap
    assert parse_polynomial(f"f1^{cap - 1}*f2", V2).total_degree() == cap
    assert parse_polynomial(f"7^{cap + 1}", V2) == 7 ** (cap + 1)
    for text in (f"f1^{cap + 1}", f"(f1*f2)^{cap // 2 + 1}",
                 f"f1^{cap}*f2", f"f1*" * cap + "f2"):
        with pytest.raises(CapError, match="past the cap of"):
            parse_polynomial(text, V2)


@pytest.mark.parametrize("bad", [3, None, ["f1"]])
def test_parser_rejects_non_string_expressions(bad):
    with pytest.raises(ParseError):
        parse_polynomial(bad, V2)


def test_invariant_text_round_trip():
    P = parse_invariant_text("c1^2 - 2*c2", 2)
    assert P.degree == 2
    assert P.terms[(2, 0)] == 1 and P.terms[(0, 1)] == -2
    assert parse_invariant_text("c1^2", 1).render() == "c1^2"
    with pytest.raises(ParseError, match="mixed weighted degrees"):
        parse_invariant_text("c1 + c2^2", 2)
    with pytest.raises(ParseError):
        parse_invariant_text("c3", 2)


def test_fraction_files_compute():
    gf = fraction_from_json({"vars": ["f1", "f2"], "numerator": "1",
                             "denominators": ["f1", "f2"]})
    assert residue_general(gf) == 1
    gf = fraction_from_json({"vars": ["f"], "numerator": "-f",
                             "denominators": ["f^2"]})
    assert residue_general(gf) == -1


@pytest.mark.parametrize("bad", [
    {"vars": ["f"], "numerator": "1"},
    {"vars": ["f"], "numerator": "1", "denominators": ["f", "f"]},
    {"vars": ["f"], "numerator": "1", "denominators": ["1 + f"]},
    {"vars": "f", "numerator": "1", "denominators": ["f"]},
    {"vars": ["f"], "numerator": 3, "denominators": ["f"]},
    {"vars": ["f"], "numerator": "1", "denominators": None},
])
def test_fraction_schema_guards(bad):
    with pytest.raises(ParseError):
        fraction_from_json(bad)


def test_scenario_round_trip_preserves_results():
    for scn in (projective_space_scenario(1, (Q(-1), Q(0)), 2),
                projective_space_scenario(2, (Q(-1), Q(0), Q(1)), "tangent"),
                projective_space_scenario(1, (Q(-1), Q(0)), 1,
                                          degenerate_variant=True)):
        back = scenario_from_json(json.loads(json.dumps(
            scenario_to_json(scn))))
        assert (back.name, back.n, back.r) == (scn.name, scn.n, scn.r)
        a, b = bott_sum(back), bott_sum(scn)
        assert a["total"] == b["total"] and a["matches"]
        if scn.curve is not None:
            assert curve_adelic_integral(back) == curve_adelic_integral(scn)
        if scn.chart is not None:
            assert localization_check(back.chart, Chain(("q1", "inf")))


def test_whitney_round_trip_preserves_results():
    back = scenario_from_json(json.loads(json.dumps(
        scenario_to_json(whitney_scenario()))))
    sub, quot, mixing, chain = back.whitney
    assert whitney_check(sub, quot, mixing, chain)["ok"]


def test_chart_section_parses_alone():
    cj = scenario_to_json(projective_space_scenario(1, (Q(0), Q(1)), 1))
    chart = chart_from_json(json.loads(json.dumps(cj["chart"])))
    assert chart.rank == 1
    assert set(chart.frames) == {"x0", "p0", "q1", "inf"}
    assert chart.points["p0"] == {"f": Q(0)}


def test_simplicial_set_parses_and_verifies():
    S = boundary_simplex_sset(2)
    back = sset_from_json(json.loads(json.dumps(S.to_json())))
    assert verify_de_rham(back, weight_cap=6)["ok"]


CHART = {"vars": ["f"], "rank": 1, "frames": {"x0": [["1"]]},
         "points": {"x0": {"f": "0"}}}
ZERO = {"coords": ["f"], "a": ["f"], "lambda": [["1"]]}


def _scenario(**fields):
    return dict({"name": "x", "n": 1, "r": 1, "zeros": []}, **fields)


def test_scenario_schema_guards():
    with pytest.raises(ParseError):
        scenario_from_json({"name": "x", "n": 1, "r": 1})
    with pytest.raises(ParseError):
        scenario_from_json([1, 2, 3])


@pytest.mark.parametrize("bad", [
    _scenario(zeros=[dict(ZERO, label=["p0"])]),
    _scenario(zeros=[dict(ZERO, a=5)]),
    _scenario(chart=dict(CHART, rank=[1])),
    _scenario(chart=dict(CHART, frames={"x0": 5})),
    _scenario(chart=dict(CHART, points={"x0": {"f": 0}})),
    _scenario(chart=dict(CHART, a=5)),
    _scenario(whitney={"sub": CHART, "quot": CHART, "mixing": {},
                       "chain": 5}),
    _scenario(chart=dict(CHART, frames={"x0": [["1", "0"]]})),
    _scenario(whitney={"sub": CHART, "quot": CHART,
                       "mixing": {"x0": [["1"], ["0"]]}, "chain": ["x0"]}),
    _scenario(whitney={"sub": CHART, "quot": CHART, "mixing": {},
                       "chain": ["x0", 1]}),
], ids=["label", "zero-a", "rank", "frame-rows", "point-value", "chart-a",
        "chain", "frame-shape", "mixing-shape", "chain-labels"])
def test_scenario_values_of_the_wrong_type(bad):
    assert scenario_from_json(_scenario(zeros=[ZERO], chart=CHART))
    with pytest.raises(ParseError):
        scenario_from_json(bad)


def test_simplicial_schema_guard():
    with pytest.raises(ParseError):
        sset_from_json({"name": "x", "simplices": {"0": 0}, "vertices": "v"})
