"""Acceptance battery: one test per headline guarantee, all exact.

Every value is a Fraction compared with ==, no tolerances anywhere.
Each test carries a wall-clock budget and prints a single summary line,
so `pytest -v tests/test_acceptance.py` reads as a checklist.
"""

import math
import random
import time
from fractions import Fraction as Q

from adelweil.adelic import (
    Chain, ChartModel, localization_check, whitney_check,
)
from adelweil.dgforms import (
    FormMatrix, InvariantPolynomial, chain_context, invariant_eval,
    matrix_curvature, transgression,
)
from adelweil.errors import CapError
from adelweil.exactalg import MultiPoly, RingMatrix
from adelweil.residues import (
    LocalZeroData, gauss_bonnet_local, local_invariant,
)
from adelweil.scenarios import bott_sum, projective_space_scenario
from adelweil.simplicial import (
    boundary_simplex_sset, disjoint_points, integrate_over_simplex,
    standard_simplex_sset,
)
from adelweil.sullivan import verify_de_rham

from form_oracles import polarize
from series_oracles import coordinate_change_check, simple_zero_invariant

P1 = InvariantPolynomial.elementary(1, 1)
SEED = 20260823


def stamp(tag: str, started: float, bound: float) -> None:
    elapsed = time.perf_counter() - started
    line = f"acceptance {tag}: PASS ({elapsed:.2f}s, budget {bound:.0f}s)"
    print(line)
    assert elapsed < bound, line


def test_acceptance_1_weighted_double_zero():
    started = time.perf_counter()
    f = MultiPoly.var(("f",), "f")
    zd = LocalZeroData(("f",), 1, (f * f,), RingMatrix([[-f]]))
    assert local_invariant(P1, zd) == 1
    stamp("1 weighted double zero", started, 1.0)


def test_acceptance_2_simple_zeros_on_the_line_bundle():
    started = time.perf_counter()
    scn = projective_space_scenario(1, (Q(-1), Q(0)), 1)
    values = {}
    for label, zd in scn.zeros.items():
        simple = simple_zero_invariant(P1, zd)
        assert simple == local_invariant(P1, zd), label
        values[label] = simple
    assert sorted(values.values()) == [Q(0), Q(1)]
    stamp("2 simple zeros", started, 1.0)


def test_acceptance_3_fixed_point_sums():
    started = time.perf_counter()
    w2 = (Q(-1), Q(0))
    w3 = (Q(-1), Q(0), Q(1))
    cases = [(projective_space_scenario(1, w2, d), Q(d)) for d in (1, 2, 3)]
    cases.append((projective_space_scenario(1, w2, "tangent"), Q(2)))
    cases.extend((projective_space_scenario(2, w3, d), Q(d) ** 2)
                 for d in (1, 2))
    cases.append((projective_space_scenario(2, w3, "tangent"), Q(3)))
    for scn, expect in cases:
        res = bott_sum(scn)
        assert res["total"] == expect, scn.name
        assert res["matches"], scn.name
    stamp("3 fixed point sums", started, 30.0)


def _random_component(rng: random.Random, vars, min_degree: int):
    n = len(vars)
    coeffs = {}
    for total in range(min_degree, 4):
        for i in range(total + 1):
            c = rng.randint(-2, 2)
            if c:
                exp = [0] * n
                exp[0], exp[-1] = i, total - i
                coeffs[tuple(exp)] = Q(c)
    return MultiPoly(vars, coeffs)


def test_acceptance_4_residue_equals_colength():
    started = time.perf_counter()
    vars = ("f1", "f2")
    f1, f2 = (MultiPoly.var(vars, v) for v in vars)
    f = MultiPoly.var(("f",), "f")
    shipped = [[f * f], [f1, f2], [f1 ** 2 - f2 ** 3, f2 ** 2]]
    for seq in shipped:
        residue, length = gauss_bonnet_local(seq)
        assert residue == length, [p.render() for p in seq]

    rng = random.Random(SEED)
    accepted = 0
    lengths = set()
    attempts = 0
    while accepted < 25:
        attempts += 1
        assert attempts < 500, "rejection loop is not terminating"
        # alternate generic pairs with linear-free ones so the battery
        # sees colengths well above 1
        min_degree = 2 if accepted % 2 else 1
        a = [_random_component(rng, vars, min_degree) for _ in range(2)]
        if any(p.is_zero() for p in a):
            continue
        try:
            residue, length = gauss_bonnet_local(a)
        except CapError:
            continue
        assert residue == length, [p.render() for p in a]
        accepted += 1
        lengths.add(length)
    assert max(lengths) > 1
    stamp("4 residue equals colength", started, 60.0)


def test_acceptance_5_simplicial_de_rham():
    started = time.perf_counter()
    spaces = [standard_simplex_sset(n) for n in range(4)]
    spaces.append(boundary_simplex_sset(2))
    spaces.append(disjoint_points(2))
    pairs = 0
    for space in spaces:
        res = verify_de_rham(space)
        assert res["ranks_match"], space.name
        assert res["induced_iso"], space.name
        assert res["multiplicativity_ok"], space.name
        assert res["ok"], space.name
        pairs += res["multiplicativity_pairs"]
    assert pairs > 0
    stamp("5 simplicial de Rham", started, 60.0)


def test_acceptance_6_simplex_normalization():
    started = time.perf_counter()
    for l in range(5):
        ctx = chain_context(l, ())
        form = ctx.one_form()
        for i in range(1, l + 1):
            form = form * ctx.dt(i)
        assert integrate_over_simplex(form) == Q(1, math.factorial(l)), l
    for r in range(5):
        ctx = chain_context(r, ())
        form = ctx.one_form()
        for i in range(r):
            form = form * ctx.dt(i)
        assert integrate_over_simplex(form) == \
            Q((-1) ** r, math.factorial(r)), r
    stamp("6 simplex normalization", started, 60.0)


def _rand_poly(rng: random.Random, vars, max_degree: int = 2,
               terms: int = 3) -> MultiPoly:
    coeffs: dict = {}
    for _ in range(terms):
        exp = [0] * len(vars)
        for _ in range(rng.randint(0, max_degree)):
            exp[rng.randrange(len(vars))] += 1
        key = tuple(exp)
        coeffs[key] = coeffs.get(key, Q(0)) + rng.randint(-2, 2)
    return MultiPoly(vars, {e: c for e, c in coeffs.items() if c})


def _rand_one_form(rng, ctx):
    p = ctx.form_scalar(ctx.ring_poly(_rand_poly(rng, ctx.even_vars)))
    q = ctx.form_scalar(ctx.ring_poly(_rand_poly(rng, ctx.even_vars)))
    return p * ctx.dt(1) + q * ctx.df("f")


def _rand_theta(rng, ctx, size):
    return FormMatrix(ctx, [[_rand_one_form(rng, ctx) for _ in range(size)]
                            for _ in range(size)])


def test_acceptance_7_property_battery():
    started = time.perf_counter()
    rng = random.Random(SEED)
    ctx = chain_context(1, ("f",))

    # squares of the differential vanish on arbitrary mixed forms
    for _ in range(10):
        form = _rand_one_form(rng, ctx)
        form = form + ctx.form_scalar(ctx.ring_poly(
            _rand_poly(rng, ctx.even_vars)))
        assert form.d().d().is_zero()

    # invariant polynomials of the curvature are closed, ranks up to 3
    for size in (1, 2, 3):
        theta = _rand_theta(rng, ctx, size)
        R = matrix_curvature(theta)
        for i in range(1, size + 1):
            P = InvariantPolynomial.elementary(size, i)
            assert invariant_eval(P, R).d().is_zero(), (size, i)

    # polarization is symmetric and restores P on the diagonal
    P22 = InvariantPolynomial.elementary(2, 2)
    for _ in range(5):
        A, B = (FormMatrix(ctx, [[ctx.form_scalar(ctx.ring_poly(
            _rand_poly(rng, ctx.even_vars, max_degree=1)))
            for _ in range(2)] for _ in range(2)]) for _ in range(2))
        assert polarize(P22, [A, B]) == polarize(P22, [B, A])
        assert polarize(P22, [A, A]) == invariant_eval(P22, A)

    # total Chern series of an extension is the product of the pieces
    F = ("f",)
    fr = MultiPoly.var(F, "f")
    unit = MultiPoly.const(F, 1)
    pool = (unit, fr, fr + unit, fr * fr + unit)
    mix_pool = (MultiPoly.zero(F), unit, fr)
    labels = ("a", "b", "c")
    for _ in range(5):
        sub = ChartModel(F, 1, frames={lab: RingMatrix([[rng.choice(pool)]])
                                       for lab in labels},
                         points={lab: None for lab in labels})
        quot = ChartModel(F, 1, frames={lab: RingMatrix([[rng.choice(pool)]])
                                        for lab in labels},
                          points={lab: None for lab in labels})
        mixing = {lab: RingMatrix([[rng.choice(mix_pool)]]) for lab in labels}
        rep = whitney_check(sub, quot, mixing, Chain(labels))
        assert rep["ok"], rep["first_failure"]

    # the transgression form bounds P of the curvature, m <= 3, r <= 2
    for size in (1, 2):
        theta = _rand_theta(rng, ctx, size)
        R = matrix_curvature(theta)
        for m in (1, 2, 3):
            P = InvariantPolynomial.power_of_trace(size, m)
            assert transgression(P, theta).d() == invariant_eval(P, R)
    ctx2 = chain_context(2, ("f",))
    theta2 = FormMatrix(ctx2, [[
        ctx2.form_scalar(ctx2.t_coeff(1)) * ctx2.df("f")
        + ctx2.form_scalar(ctx2.ring_var("f")) * ctx2.dt(2)]])
    P2 = InvariantPolynomial.power_of_trace(1, 2)
    assert transgression(P2, theta2).d() == \
        invariant_eval(P2, matrix_curvature(theta2))

    # localization identities on curve chains of the shipped charts
    for scn in (projective_space_scenario(1, (Q(-1), Q(0)), 1),
                projective_space_scenario(1, (Q(-1), Q(0)), 2),
                projective_space_scenario(1, (Q(-1), Q(0)), "tangent"),
                projective_space_scenario(1, (Q(-1), Q(0)), 1,
                                          degenerate_variant=True)):
        for chain in (("q1", "inf"), ("x0", "q1")):
            assert localization_check(scn.chart, Chain(chain)), \
                (scn.name, chain)

    # local invariants survive coordinate changes, truncated at degree 8
    f = MultiPoly.var(("f",), "f")
    zd = LocalZeroData(("f",), 1, (f * f,), RingMatrix([[-f]]))
    for change in (f + f * f, f * 2, f - f * f * f):
        assert coordinate_change_check(P1, zd, {"f": change})
    vars2 = ("f1", "f2")
    f1, f2 = (MultiPoly.var(vars2, v) for v in vars2)
    zd2 = LocalZeroData(vars2, 1, (f1, f2 * f2),
                        RingMatrix([[MultiPoly.const(vars2, 3)]]))
    P2t = InvariantPolynomial.power_of_trace(1, 2)
    change2 = {"f1": f1 + f2 * f2, "f2": f2 + f1 * f1}
    assert coordinate_change_check(P2t, zd2, change2)

    stamp("7 property battery", started, 120.0)
