import itertools
import math
import time
from fractions import Fraction as Q

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adelweil.adelic import Chain, localization_check, whitney_check
from adelweil.dgforms import InvariantPolynomial
from adelweil.errors import ParseError
from adelweil.exactalg import MultiPoly, RatFunc, RingMatrix
from adelweil.residues import LocalZeroData, local_invariant
from adelweil.scenarios import (
    bott_sum, canonical_invariant, curve_adelic_integral, curve_chain_rows,
    projective_space_scenario, rational_roots, residue_at, scenario_to_json,
    whitney_scenario,
)

from residue_oracles import laurent_residue_at
from strategies import fractions, polys

W1 = (Q(-1), Q(0))
W2 = (Q(-1), Q(0), Q(1))
V = ("f",)
f = MultiPoly.var(V, "f")


def test_degenerate_weighted_model_data():
    scn = projective_space_scenario(1, W1, 1, degenerate_variant=True)
    rep = bott_sum(scn)
    assert rep["total"] == 1 and rep["matches"] is True
    zd = scn.zeros["p0"]
    assert [x.render() for x in zd.a] == ["f^2"]
    assert zd.lift.rows[0][0].render() == "-f"


def test_reduced_zero_pair_data():
    scn = projective_space_scenario(1, W1, 1)
    rep = bott_sum(scn)
    assert sorted(r["value"] for r in rep["rows"]) == [0, 1]
    assert rep["total"] == 1
    assert scn.zeros["p0"].lift.rows[0][0].render() == "-1"


def test_fixed_point_sums_match_chern_numbers():
    for d in (1, 2, 3):
        rep = bott_sum(projective_space_scenario(1, W1, d))
        assert rep["total"] == d and rep["matches"] is True
    assert bott_sum(projective_space_scenario(1, W1, "tangent"))["total"] == 2
    for d in (1, 2):
        rep = bott_sum(projective_space_scenario(2, W2, d))
        assert rep["total"] == d * d and rep["matches"] is True
    rep = bott_sum(projective_space_scenario(2, W2, "tangent"))
    assert rep["total"] == 3 and rep["matches"] is True


@settings(max_examples=10)
@given(st.lists(st.integers(min_value=-6, max_value=6), min_size=2,
                max_size=2, unique=True))
def test_totals_do_not_depend_on_the_weights(ws):
    weights = tuple(Q(w) for w in ws)
    assert bott_sum(projective_space_scenario(1, weights, 3))["total"] == 3


def _monomials_of_weight(n: int):
    """Exponents a of c1^a1 .. cn^an with sum i*ai = n."""
    return [a for a in itertools.product(*(range(n // i + 1)
                                           for i in range(1, n + 1)))
            if sum(i * k for i, k in enumerate(a, 1)) == n]


@settings(max_examples=8, deadline=None)
@given(st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.lists(st.integers(min_value=-6, max_value=6),
                       min_size=n + 1, max_size=n + 1, unique=True)))
def test_chern_numbers_of_projective_space(ws):
    # c(TP^n) = (1 + h)^(n+1) and c1(O(d)) = d h, with h^n = 1
    n = len(ws) - 1
    weights = tuple(Q(w) for w in ws)
    tangent = projective_space_scenario(n, weights, "tangent")
    for a in _monomials_of_weight(n):
        expect = math.prod(math.comb(n + 1, i) ** k
                           for i, k in enumerate(a, 1))
        P = InvariantPolynomial(n, {a: 1})
        assert bott_sum(tangent, P)["total"] == expect, a
    for d in (1, 2, 3):
        line = projective_space_scenario(n, weights, d)
        P = InvariantPolynomial(1, {(n,): 1})
        assert bott_sum(line, P)["total"] == d ** n


def _jordan_zeros(blocks, change):
    """Zeros on P^n of the field induced by x' = A x, A = S J S^-1.

    J has one Jordan block per (eigenvalue, size) in `blocks`, and S is
    `change`.  A block's eigenvector S e_s is an isolated zero whose
    colength is the block size.  In the chart x_j = 1 through it, with
    y the other coordinates, the field is a_i = (Ax)_i - x_i (Ax)_j and
    the tangent lift is minus the transposed Jacobian of a.
    """
    size = sum(k for _, k in blocks)
    n = size - 1
    J = [[Q(0)] * size for _ in range(size)]
    starts, s = [], 0
    for lam, k in blocks:
        starts.append(s)
        for i in range(s, s + k):
            J[i][i] = Q(lam)
            if i + 1 < s + k:
                J[i][i + 1] = Q(1)
        s += k
    S = RingMatrix(change).map(Q)
    A = (S @ RingMatrix(J) @ S.inv()).rows
    vars = tuple(f"y{i}" for i in range(1, n + 1))
    ys = [MultiPoly.var(vars, v) for v in vars]
    zeros = []
    for s in starts:
        v = [row[s] for row in change]
        j = next(i for i, c in enumerate(v) if c)
        others = [i for i in range(size) if i != j]
        x = [MultiPoly.const(vars, Q(c, v[j])) for c in v]
        for y, i in zip(ys, others):
            x[i] = x[i] + y
        Ax = [sum((x[m] * A[i][m] for m in range(size)),
                  MultiPoly.zero(vars)) for i in range(size)]
        a = [Ax[i] - x[i] * Ax[j] for i in others]
        lift = RingMatrix([[-a[m].diff(vars[k]) for m in range(n)]
                           for k in range(n)])
        zeros.append(LocalZeroData(vars, n, tuple(a), lift))
    return zeros


def _jordan_totals(blocks, change):
    zeros = _jordan_zeros(blocks, change)
    n = zeros[0].n
    return [sum(local_invariant(InvariantPolynomial(n, {a: 1}), zd)
                for zd in zeros) for a in _monomials_of_weight(n)]


DENSE_CHANGE = [[1, 2, 0], [-1, 1, 1], [2, 0, 1]]
IDENTITY_4 = [[int(i == j) for j in range(4)] for i in range(4)]
SHEAR = [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
DENSE_CHANGE_4 = [[1, 2, 0, 1], [-1, 1, 1, 0], [2, 0, 1, 1], [0, 1, -1, 1]]


@pytest.mark.parametrize("blocks", [((2, 2), (-1, 1)), ((3, 3),)],
                         ids=["blocks-2-1", "block-3"])
def test_degenerate_zeros_on_the_projective_plane(blocks):
    # c1^2 = 9 and c2 = 3, now at zeros of colength 2 + 1 or 3
    assert _jordan_totals(blocks, DENSE_CHANGE) == [3, 9]


@pytest.mark.parametrize("change", [IDENTITY_4, SHEAR, DENSE_CHANGE_4],
                         ids=["standard-chart", "shear", "dense"])
def test_one_four_block_zero_on_projective_three_space(change):
    # c(TP^3) = (1 + h)^4: c3 = 4, c1 c2 = 24 and c1^3 = 64, all at the
    # one zero of colength 4
    started = time.perf_counter()
    assert _jordan_totals(((2, 4),), change) == [4, 24, 64]
    assert time.perf_counter() - started < 1.0


@settings(max_examples=6, deadline=None)
@given(st.sampled_from([(2, 1), (3,)]),
       st.lists(st.integers(min_value=-3, max_value=3), min_size=2,
                max_size=2, unique=True),
       st.lists(st.integers(min_value=-2, max_value=2), min_size=9,
                max_size=9).filter(
           lambda e: RingMatrix([e[0:3], e[3:6], e[6:9]]).det() != 0))
def test_degenerate_zeros_in_any_coordinates(sizes, eigenvalues, entries):
    blocks = tuple(zip(eigenvalues, sizes))
    change = [entries[0:3], entries[3:6], entries[6:9]]
    assert _jordan_totals(blocks, change) == [3, 9]


def test_weight_scaling_leaves_the_sum_fixed():
    base = bott_sum(projective_space_scenario(2, W2, "tangent"))["total"]
    scaled = bott_sum(projective_space_scenario(
        2, tuple(3 * w for w in W2), "tangent"))["total"]
    assert base == scaled == 3


def test_scenario_guards():
    with pytest.raises(ParseError, match="are not pairwise distinct"):
        projective_space_scenario(1, (Q(1), Q(1)), 1)
    with pytest.raises(ParseError, match="degree 2 against dimension 1"):
        bott_sum(projective_space_scenario(1, W1, 1),
                 InvariantPolynomial.power_of_trace(1, 2))
    with pytest.raises(ParseError):
        projective_space_scenario(1, W1, "mystery")


def test_canonical_invariant_choice():
    assert canonical_invariant(
        projective_space_scenario(1, W1, 1)).render() == "c1"
    assert canonical_invariant(
        projective_space_scenario(2, W2, 1)).render() == "c1^2"
    assert canonical_invariant(
        projective_space_scenario(2, W2, "tangent")).render() == "c2"


def test_rational_root_extraction():
    roots, leftover = rational_roots((f - MultiPoly.const(V, 2)) ** 3)
    assert roots == [(Q(2), 3)] and leftover == 0
    roots, leftover = rational_roots(f * f + MultiPoly.const(V, 1))
    assert roots == [] and leftover == 2


def test_rational_roots_of_a_large_prime_constant_term():
    start = time.perf_counter()
    roots = rational_roots(f - MultiPoly.const(V, 999999937))
    assert roots == ([(Q(999999937), 1)], 0)
    assert time.perf_counter() - start < 2.0


@given(st.lists(st.builds(Q, st.integers(min_value=-6, max_value=6),
                          st.integers(min_value=1, max_value=4)),
                min_size=1, max_size=4),
       st.integers(min_value=0, max_value=2))
def test_rational_roots_recover_a_product_of_linear_factors(picks, repeat):
    roots = picks + picks[:repeat]
    p = MultiPoly.const(V, 1)
    for r in roots:
        p = p * (f - MultiPoly.const(V, r))
    expected = sorted((r, roots.count(r)) for r in set(roots))
    assert rational_roots(p) == (expected, 0)
    assert rational_roots(p * (f * f + MultiPoly.const(V, 1))) == (expected, 2)


def test_classical_residues_at_points():
    g = RatFunc(MultiPoly.const(V, 1), f * f - MultiPoly.const(V, 1))
    assert residue_at(g, Q(1)) == Q(1, 2)
    assert residue_at(g, Q(-1)) == Q(-1, 2)
    assert residue_at(g, Q(5)) == 0


@settings(max_examples=40)
@given(polys(V, max_degree=4, max_terms=3), polys(V, max_degree=2,
       max_terms=3), fractions(), st.integers(min_value=0, max_value=4))
@example(f + 2, f * f, Q(1, 2), 0)
@example(f ** 3 + 1, f - 3, Q(-2), 3)
def test_residue_at_agrees_with_the_laurent_series(p, r, z, order):
    # g = p / ((f - z)^order r) with r(z) = 1: no pole at order 0, else
    # a pole of that order at z unless p vanishes there
    const = MultiPoly.const(V, 1)
    r = r + const * (1 - r.evaluate({"f": z}))
    g = RatFunc(p, (f - const * z) ** order * r)
    assert residue_at(g, z) == laurent_residue_at(g, z)


def test_curve_totals_equal_the_degree():
    assert curve_adelic_integral(projective_space_scenario(1, W1, 0)) == 0
    assert curve_adelic_integral(projective_space_scenario(1, W1, 1)) == 1
    assert curve_adelic_integral(projective_space_scenario(1, W1, 3)) == 3


def test_curve_total_is_section_independent():
    scn = projective_space_scenario(1, W1, 3)
    scn.curve["section"] = (f - MultiPoly.const(V, 2)) ** 3
    assert [r["residue"] for r in curve_chain_rows(scn)] == [3]
    scn.curve["section"] = f * f - f
    rows = curve_chain_rows(scn)
    assert [r["residue"] for r in rows] == [1, 1, 1]
    assert rows[-1]["chain"][-1] == "inf"
    assert curve_adelic_integral(scn) == 3


def test_a_pole_at_infinity_is_read_in_the_flipped_chart():
    # the section f of O(3) vanishes to order 2 at infinity
    scn = projective_space_scenario(1, W1, 3)
    scn.curve["section"] = f
    rows = curve_chain_rows(scn)
    assert [(r["chain"], r["residue"]) for r in rows] == \
        [(("x0", "z0"), 1), (("x0", "inf"), 2)]
    assert curve_adelic_integral(scn) == 3


def test_irrational_sections_are_refused():
    scn = projective_space_scenario(1, W1, 2)
    scn.curve["section"] = f * f - MultiPoly.const(V, 2)
    with pytest.raises(ParseError):
        curve_chain_rows(scn)


def test_localization_on_the_shipped_charts():
    for bundle in (1, 3, "tangent"):
        scn = projective_space_scenario(1, W1, bundle)
        assert localization_check(scn.chart, Chain(("q1", "inf")))
        assert localization_check(scn.chart, Chain(("x0", "q1")))
    scn = projective_space_scenario(1, W1, 1, degenerate_variant=True)
    assert localization_check(scn.chart, Chain(("q1", "inf")))


def test_whitney_scenario_verifies():
    scn = whitney_scenario()
    sub, quot, mixing, chain = scn.whitney
    assert whitney_check(sub, quot, mixing, chain)["ok"]


def test_serialization_carries_all_sections():
    js = scenario_to_json(projective_space_scenario(1, W1, 1))
    assert js["zeros"][0]["a"] == ["f"] and js["expected"] == "1"
    assert "chart" in js and "curve" in js
    assert "whitney" in scenario_to_json(whitney_scenario())
