"""Verification scenarios: projective spaces with torus fields.

A scenario bundles the per-zero local data (components of the vector
field and the lifted action in each fixed-point chart) with optional
chain-level frame data on one chart, an expected total, and a
provenance note.  The drivers here sum local invariants over the zeros
and, on curves, sum classical residues of the computed first Chern
component over chains.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import ParseError
from .exactalg import (
    MultiPoly,
    RatFunc,
    RingMatrix,
    ONE,
    format_rational,
    rat,
    _divmod_dense,
    _to_dense,
    _trim,
    _unit_exp,
)
from .dgforms import InvariantPolynomial
from .adelic import Chain, ChartModel, chern_form_component, mixed_connection
from .residues import (
    GeneralizedFraction, LocalZeroData, local_invariant, residue_general,
)


class Scenario:
    """Named verification instance over one projective space or curve."""

    def __init__(self, name: str, n: int, r: int, zeros: dict | None = None,
                 expected: Fraction | None = None,
                 expected_poly: str | None = None, provenance: str = "",
                 chart: ChartModel | None = None, curve: dict | None = None,
                 whitney: tuple | None = None):
        self.name = name
        self.n = n
        self.r = r
        self.zeros = {} if zeros is None else zeros
        self.expected = expected
        self.expected_poly = expected_poly
        self.provenance = provenance
        self.chart = chart
        self.curve = curve
        self.whitney = whitney


def canonical_invariant(scn: Scenario) -> InvariantPolynomial:
    """Top elementary invariant if the rank allows, else a trace power."""
    return InvariantPolynomial.top_degree(scn.r, scn.n)


def projective_space_scenario(n: int, weights, bundle,
                              degenerate_variant: bool = False) -> Scenario:
    """Fixed-point data of a weighted torus field on projective n-space.

    `weights` are n+1 pairwise distinct rationals; `bundle` is an
    integer d for the degree-d line bundle, or the string "tangent".
    In the chart at fixed point j the field reads
    sum_i (w_i - w_j) y_i d/dy_i, the line-bundle action on the chart
    frame is the constant d*w_j, and the tangent action is minus the
    transposed Jacobian.  The degenerate variant (curves only) replaces
    the field by one with a single double zero.
    """
    weights = tuple(rat(w) for w in weights)
    if len(weights) != n + 1:
        raise ParseError(
            f"{len(weights)} weights for dimension {n}")
    if len(set(weights)) != n + 1:
        raise ParseError(f"weights {weights} are not pairwise distinct")
    tangent = bundle == "tangent"
    if not tangent:
        if not isinstance(bundle, int):
            raise ParseError(f"unknown bundle {bundle!r}")
        d = bundle
    r = n if tangent else 1
    vars = ("f",) if n == 1 else tuple(f"y{i}" for i in range(1, n + 1))

    def lin(values) -> tuple:
        return tuple(MultiPoly(vars, {_unit_exp(len(vars), k): c})
                     for k, c in enumerate(values))

    zeros: dict[str, LocalZeroData] = {}
    if degenerate_variant:
        if n != 1:
            raise ParseError("degenerate variant exists on curves only")
        f = MultiPoly.var(vars, "f")
        slope = Fraction(2) if tangent else Fraction(d)
        zeros["p0"] = LocalZeroData(vars, r, (f * f,),
                                    RingMatrix([[f * (-slope)]]))
    else:
        for j in range(n + 1):
            others = [i for i in range(n + 1) if i != j]
            slopes = [weights[i] - weights[j] for i in others]
            a = lin(slopes)
            if tangent:
                lift = RingMatrix(
                    [[MultiPoly.const(vars, -slopes[k] if k == m else 0)
                      for m in range(n)] for k in range(n)])
            else:
                lift = RingMatrix([[MultiPoly.const(vars, d * weights[j])]])
            zeros[f"p{j}"] = LocalZeroData(vars, r, a, lift)

    if tangent:
        name = "p%d-tangent" % n
        expected = Fraction(n + 1)
        provenance = ("Euler characteristic of projective %d-space" % n)
    else:
        name = "p%d-o%d" % (n, d)
        expected = Fraction(d) ** n
        provenance = ("degree of the line bundle" if n == 1 else
                      "classical self-intersection number d^%d" % n)
    if degenerate_variant:
        name += "-degenerate"
        provenance += ", computed at a single doubled zero"

    chart = curve = None
    if n == 1:
        chart = _curve_chart(weights, bundle, degenerate_variant)
        if not tangent and not degenerate_variant and d >= 0:
            f = MultiPoly.var(("f",), "f")
            curve = {"degree": d, "section": f ** d if d else
                     MultiPoly.const(("f",), 1)}
    poly = InvariantPolynomial.top_degree(r, n).render()
    return Scenario(name=name, n=n, r=r, zeros=zeros, expected=expected,
                    expected_poly=poly, provenance=provenance, chart=chart,
                    curve=curve)


def _curve_chart(weights, bundle, degenerate_variant) -> ChartModel:
    """Chart at the first fixed point with section-based frames.

    The generic point carries the frame of a section vanishing only at
    the fixed point; the zero itself and one auxiliary closed point use
    the reference frame; infinity uses the frame of the other chart.
    """
    vars = ("f",)
    f = MultiPoly.var(vars, "f")
    one = MultiPoly.const(vars, 1)
    tangent = bundle == "tangent"
    d = 2 if tangent else bundle
    section = f if tangent else f ** d if d else one
    trans = -(f ** 2) if tangent else f ** d if d else one
    if degenerate_variant:
        a = (f * f,)
        lift = RingMatrix([[f * (-Fraction(d))]])
    else:
        slope = weights[1] - weights[0]
        a = (f * slope,)
        lift = RingMatrix([[MultiPoly.const(
            vars, -slope if tangent else d * weights[0])]])
    frames = {"x0": RingMatrix([[section]]), "p0": RingMatrix([[one]]),
              "q1": RingMatrix([[one]]), "inf": RingMatrix([[trans]])}
    points = {"x0": None, "p0": {"f": Fraction(0)},
              "q1": {"f": Fraction(1)}, "inf": None}
    return ChartModel(vars, 1, frames, points, list(a), lift)


def whitney_scenario() -> Scenario:
    """Rank-2 extension frames on a three-point chain over a curve chart."""
    vars = ("f",)
    f = MultiPoly.var(vars, "f")
    one = MultiPoly.const(vars, 1)
    zero = MultiPoly.zero(vars)
    sub = ChartModel(vars, 1, {
        "x0": RingMatrix([[f]]),
        "p0": RingMatrix([[one]]),
        "inf": RingMatrix([[f + one]]),
    }, {"x0": None, "p0": {"f": Fraction(0)}, "inf": None})
    quot = ChartModel(vars, 1, {
        "x0": RingMatrix([[one]]),
        "p0": RingMatrix([[f * f + one]]),
        "inf": RingMatrix([[one]]),
    }, dict(sub.points))
    mixing = {"x0": RingMatrix([[f * f]]), "p0": RingMatrix([[zero]]),
              "inf": RingMatrix([[f]])}
    chain = Chain(("x0", "p0", "inf"))
    return Scenario(name="p1-whitney", n=1, r=2,
                    provenance="block-frame product identity data",
                    whitney=(sub, quot, mixing, chain))


# -- Bott sums ---------------------------------------------------------------


def bott_sum(scn: Scenario, P: InvariantPolynomial | None = None,
             stability: bool = False) -> dict:
    """Sum of local invariants over the zeros, with a per-zero table.

    Compares against the scenario's expected value when the invariant
    polynomial is the one the expectation refers to.
    """
    if P is None:
        P = canonical_invariant(scn)
    if P.degree != scn.n:
        raise ParseError(
            f"invariant degree {P.degree} against dimension {scn.n}")
    rows = []
    total = Fraction(0)
    for label in sorted(scn.zeros):
        value = local_invariant(P, scn.zeros[label], stability=stability)
        rows.append({"zero": label, "value": value})
        total += value
    applies = scn.expected is not None and (
        scn.expected_poly is None or P.render() == scn.expected_poly)
    return {
        "scenario": scn.name,
        "poly": P.render(),
        "rows": rows,
        "total": total,
        "expected": scn.expected if applies else None,
        "matches": (total == scn.expected) if applies else None,
    }


# -- curve-level adelic integral ---------------------------------------------


def rational_roots(p: MultiPoly) -> tuple[list[tuple[Fraction, int]], int]:
    """All rational roots with multiplicity, plus the leftover degree."""
    coeffs = _trim(_to_dense(p, 0))
    roots: dict[Fraction, int] = {}
    while len(coeffs) > 1:
        for z in _root_candidates(coeffs):
            deflated, value = _divmod_dense(coeffs, [-z, ONE])
            if not value:
                break
        else:
            break
        coeffs = deflated
        roots[z] = roots.get(z, 0) + 1
    return sorted(roots.items()), max(len(coeffs) - 1, 0)


def _root_candidates(coeffs: list[Fraction]):
    """Rational root test: +-p/q with p | constant and q | leading term."""
    if not coeffs[0]:
        yield Fraction(0)
        return
    scale = math.lcm(*(c.denominator for c in coeffs))
    nums = _divisors(int(coeffs[0] * scale))
    for q in _divisors(int(coeffs[-1] * scale)):
        for pnum in nums:
            yield Fraction(pnum, q)
            yield Fraction(-pnum, q)


def _divisors(n: int) -> list[int]:
    """Positive divisors of |n| (n != 0) in increasing order."""
    n = abs(n)
    small = [k for k in range(1, math.isqrt(n) + 1) if n % k == 0]
    return small + [n // k for k in reversed(small) if k * k != n]


def residue_at(g: RatFunc, z: Fraction) -> Fraction:
    """Classical residue of the 1-form g df at the point f = z."""
    vars = g.num.vars
    if len(vars) != 1:
        raise ParseError("pointwise residues live on curves")
    shift = MultiPoly.var(vars, vars[0]) + MultiPoly.const(vars, z)
    moved = g.subs({vars[0]: shift})
    if moved.den.constant_term():
        return Fraction(0)
    return residue_general(
        GeneralizedFraction(vars, moved.num, (moved.den,)))


def _component_form(section: MultiPoly, varname: str,
                    zero_label: str) -> tuple[RatFunc, str]:
    """First Chern component of the two-point chain with a section frame."""
    vars = (varname,)
    model = ChartModel(vars, 1, {
        "x0": RingMatrix([[section]]),
        zero_label: RingMatrix([[MultiPoly.const(vars, 1)]]),
    }, {"x0": None, zero_label: None})
    conn = mixed_connection(model, Chain(("x0", zero_label)))
    comp = chern_form_component(1, conn)
    coeff = comp.coefficient((0,))
    return coeff, comp.render()


def curve_chain_rows(scn: Scenario) -> list[dict]:
    """Per-chain residues of the first Chern component on a curve."""
    if scn.curve is None:
        raise ParseError(f"scenario {scn.name} carries no curve data")
    d = scn.curve["degree"]
    section = scn.curve["section"]
    if not isinstance(section, MultiPoly):
        raise ParseError("curve section must be a polynomial in f")
    deg = max((e[0] for e in section.coeffs), default=0)
    if deg > d:
        raise ParseError(
            f"section degree {deg} exceeds the bundle degree {d}")
    roots, leftover = rational_roots(section)
    if leftover:
        raise ParseError(
            "section has zeros outside the rationals; chains cannot "
            "be enumerated")
    rows = []
    for idx, (z, _) in enumerate(roots):
        label = f"z{idx}"
        coeff, rendered = _component_form(section, "f", label)
        rows.append({
            "chain": ("x0", label),
            "point": z,
            "component": rendered,
            "residue": residue_at(coeff, z),
        })
    if deg < d:
        dense = _to_dense(section, 0)
        flipped = MultiPoly(("u",), {
            (d - k,): c for k, c in enumerate(dense) if c})
        coeff, rendered = _component_form(flipped, "u", "inf")
        rows.append({
            "chain": ("x0", "inf"),
            "point": "infinity",
            "component": rendered,
            "residue": residue_at(coeff, Fraction(0)),
        })
    return rows


def curve_adelic_integral(scn: Scenario) -> Fraction:
    """Sum of the chain residues; the degree of the bundle."""
    return sum((row["residue"] for row in curve_chain_rows(scn)),
               Fraction(0))


# -- serialization -----------------------------------------------------------


def _matrix_json(m: RingMatrix) -> list[list[str]]:
    return [[x.render() for x in row] for row in m.rows]


def _chart_json(chart: ChartModel) -> dict:
    out = {
        "vars": list(chart.base_vars),
        "rank": chart.rank,
        "frames": {lab: _matrix_json(g) for lab, g in
                   sorted(chart.frames.items())},
        "points": {lab: (None if pt is None else
                         {v: format_rational(c) for v, c in sorted(pt.items())})
                   for lab, pt in sorted(chart.points.items())},
    }
    if chart.a is not None:
        out["a"] = [x.render() for x in chart.a]
    if chart.lift is not None:
        out["lift"] = _matrix_json(chart.lift)
    return out


def scenario_to_json(scn: Scenario) -> dict:
    out = {
        "name": scn.name,
        "n": scn.n,
        "r": scn.r,
        "zeros": [
            {
                "label": label,
                "coords": list(zd.vars),
                "a": [x.render() for x in zd.a],
                "lambda": _matrix_json(zd.lift),
            }
            for label, zd in sorted(scn.zeros.items())
        ],
        "provenance": scn.provenance,
    }
    if scn.expected is not None:
        out["expected"] = format_rational(scn.expected)
    if scn.expected_poly is not None:
        out["expected_poly"] = scn.expected_poly
    if scn.chart is not None:
        out["chart"] = _chart_json(scn.chart)
    if scn.curve is not None:
        out["curve"] = {"degree": scn.curve["degree"],
                        "section": scn.curve["section"].render()}
    if scn.whitney is not None:
        sub, quot, mixing, chain = scn.whitney
        out["whitney"] = {
            "sub": _chart_json(sub),
            "quot": _chart_json(quot),
            "mixing": {lab: _matrix_json(m) for lab, m in
                       sorted(mixing.items())},
            "chain": list(chain.labels),
        }
    return out
