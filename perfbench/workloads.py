"""Seeded input generators for the four workloads.

Standard library only: the harness process never imports adelweil, so
the generated inputs are plain JSON and the timed child receives
nothing but them.  Every item carries its oracle (the value an exact
identity must produce) and the size counters that drive its cost.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("cli", "derham", "residue", "forms")

DATA = Path(__file__).resolve().parent.parent / "src" / "adelweil" / "data"

# -- cli ---------------------------------------------------------------------

# the seven invocations that have golden reports under tests/golden
GOLDEN = {
    ("residue", "fraction-cusp.json"): "residue-cusp.txt",
    ("residue", "fraction-weighted-model.json", "--json"):
        "residue-weighted.json",
    ("bott", "p2-tangent.json"): "bott-p2-tangent.txt",
    ("chern", "p1-o1.json", "--chain", "x0,p0"): "chern-p1-o1.txt",
    ("chern", "p1-whitney.json"): "chern-whitney.txt",
    ("derham", "boundary-delta2.json"): "derham-boundary.txt",
    ("verify-all",): "verify-all.txt",
}

SCENARIOS = ("p1-o1-degenerate", "p1-o1", "p1-o2", "p1-o3", "p1-tangent",
             "p2-o1", "p2-o2", "p2-tangent")
P1_CHARTS = SCENARIOS[:5]
FRACTIONS = ("fraction-cusp", "fraction-plane", "fraction-weighted-model")
# delta3 is left out: verify-all already carries its work
DERHAM_FILES = ("delta0", "delta1", "delta2", "boundary-delta2",
                "two-points")


def cli_items(rng: random.Random) -> list:
    argvs = [["verify-all"]]
    argvs += [["residue", f + ".json"] for f in FRACTIONS]
    argvs.append(["residue", "fraction-weighted-model.json", "--json"])
    argvs += [["bott", s + ".json"] for s in SCENARIOS]
    argvs += [["chern", c + ".json", "--chain", "x0,p0"] for c in P1_CHARTS]
    argvs.append(["chern", "p1-whitney.json"])
    argvs += [["derham", s + ".json"] for s in DERHAM_FILES]
    rng.shuffle(argvs)
    return [{"kind": "cli", "argv": a, "golden": GOLDEN.get(tuple(a))}
            for a in argvs]


# -- derham ------------------------------------------------------------------


def _subsets_sset(name: str, n: int, top: bool) -> dict:
    """Vertex-subset simplicial set in the package's JSON layout."""
    simplices, faces, vertices = {}, {}, {}
    for size in range(1, (n + 2 if top else n + 1)):
        for vs in itertools.combinations(range(n + 1), size):
            sid = "".join(map(str, vs))
            simplices[sid] = size - 1
            vertices[sid] = list(vs)
            if size > 1:
                faces[sid] = ["".join(map(str, vs[:i] + vs[i + 1:]))
                              for i in range(size)]
    return {"name": name, "simplices": simplices, "faces": faces,
            "vertices": vertices}


def derham_items(rng: random.Random) -> list:
    # (space, weight cap or None for the default, cohomology ranks)
    spaces = [(_subsets_sset(f"simplex-{n}", n, True), None,
               [1] + [0] * (n + 1)) for n in range(3)]
    spaces.append((_subsets_sset("boundary-2", 2, False), None, [1, 1, 0]))
    spaces.append(({"name": "points-2", "simplices": {"p0": 0, "p1": 0},
                    "faces": {}}, None, [2, 0]))
    spaces.append((_subsets_sset("boundary-3", 3, False), 4, [1, 0, 1, 0]))
    rng.shuffle(spaces)
    items = []
    for space, cap, ranks in spaces:
        per_dim: dict = {}
        for d in space["simplices"].values():
            per_dim[d] = per_dim.get(d, 0) + 1
        items.append({"kind": "derham", "space": space, "weight_cap": cap,
                      "ranks": ranks,
                      "sizes": {"simplices": [per_dim[d]
                                              for d in sorted(per_dim)],
                                "weight_cap": cap}})
    return items


# -- residue -----------------------------------------------------------------

VARS2 = ("f1", "f2")

# colength quotas, with (m1, m2) the orders of f1, f2: colengths 1-2
# fill ranks 1-87 of 100 and set the median, the twelve colength-4
# pairs fill ranks 88-99 and set p90, one colength-6 pair is the tail
RESIDUE_QUOTAS = (((1, 1), 40), ((1, 2), 22), ((2, 1), 22), ((2, 2), 12),
                  ((2, 3), 1))


# nonzero coefficients: every draw of one class has the same monomial
# support, so its cost moves with the values only, not with the seed
NONZERO = (-2, -1, 1, 2)


def _random_component(rng: random.Random, order: int) -> dict:
    """Acceptance-style draw: every bivariate term x^i y^(t-i) of total
    degree order..3, integer coefficients in -2..2 except 0."""
    return {(i, total - i): rng.choice(NONZERO)
            for total in range(order, 4) for i in range(total + 1)}


def _binary_resultant(a: list, b: list) -> Fraction:
    """Resultant of two binary forms given as coefficient lists; zero
    exactly when the forms share a linear factor."""
    m, n = len(a) - 1, len(b) - 1
    size = m + n
    rows = [[0] * k + a[::-1] + [0] * (size - m - 1 - k) for k in range(n)]
    rows += [[0] * k + b[::-1] + [0] * (size - n - 1 - k) for k in range(m)]
    mat = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for c in range(size):
        p = next((r for r in range(c, size) if mat[r][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            mat[c], mat[p] = mat[p], mat[c]
            det = -det
        det *= mat[c][c]
        for r in range(c + 1, size):
            f = mat[r][c] / mat[c][c]
            if f:
                for k in range(c, size):
                    mat[r][k] -= f * mat[c][k]
    return det


def _leading_form(coeffs: dict, order: int) -> list:
    return [coeffs.get((i, order - i), 0) for i in range(order + 1)]


def poly_text(coeffs: dict, names) -> str:
    """Render {exponent tuple: int} in the package's expression syntax."""
    parts = []
    for exp in sorted(coeffs, key=lambda e: (-sum(e), e)):
        c = coeffs[exp]
        factors = [f"{v}^{k}" if k > 1 else v
                   for v, k in zip(names, exp) if k]
        mag = abs(c)
        body = "*".join(([str(mag)] if mag != 1 or not factors else [])
                        + factors)
        parts.append(("- " if c < 0 else "+ ") + body)
    text = " ".join(parts) if parts else "+ 0"
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def residue_items(rng: random.Random) -> list:
    """Regular pairs whose colength is known before timing.

    Orders m1, m2 with tangent cones sharing no line give colength
    exactly m1*m2, so each draw is classified by our own arithmetic
    and the oracle residue == colength == m1*m2 is independent of the
    program."""
    items = []
    for (m1, m2), count in RESIDUE_QUOTAS:
        for _ in range(count):
            while True:
                a, b = _random_component(rng, m1), _random_component(rng, m2)
                la, lb = _leading_form(a, m1), _leading_form(b, m2)
                if any(la) and any(lb) and _binary_resultant(la, lb):
                    break
            items.append({"kind": "gauss_bonnet",
                          "polys": [poly_text(a, VARS2), poly_text(b, VARS2)],
                          "vars": list(VARS2), "colength": m1 * m2,
                          "sizes": {"colength": m1 * m2,
                                    "monomials": [len(a), len(b)]}})
    for name in FRACTIONS:
        data = json.loads((DATA / f"{name}.json").read_text())
        items.append({"kind": "fraction", "file": name + ".json",
                      "fraction": data,
                      "sizes": {"denominators": len(data["denominators"])}})
    rng.shuffle(items)
    return items


# -- forms -------------------------------------------------------------------


def _linear(rng: random.Random) -> list:
    """Frame or mixing entry a + b*f, coefficients low degree first; one
    shape for every entry keeps each class's cost in a narrow band."""
    return [rng.choice(NONZERO), rng.choice(NONZERO)]


def _upoly_text(cs: list) -> str:
    return poly_text({(k,): c for k, c in enumerate(cs) if c}, ("f",))


def _upoly_mul(a: list, b: list) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _frame(rng: random.Random, rank: int) -> list:
    while True:
        rows = [[_linear(rng) for _ in range(rank)] for _ in range(rank)]
        if rank == 1:
            return rows
        ad = _upoly_mul(rows[0][0], rows[1][1])
        bc = _upoly_mul(rows[0][1], rows[1][0])
        if any(x - y for x, y in itertools.zip_longest(ad, bc, fillvalue=0)):
            return rows


def _chart_json(rng: random.Random, rank: int, labels) -> dict:
    return {"vars": ["f"], "rank": rank,
            "frames": {lab: [[_upoly_text(e) for e in row]
                             for row in _frame(rng, rank)]
                       for lab in labels},
            "points": {lab: None for lab in labels}}


def _whitney_item(rng: random.Random, r1: int, r2: int, length: int) -> dict:
    """A random extension of two fixed factors: the seed draws the mixing
    block; the factor frames depend on the class only, because their
    values, not the mixing, move the cost of a class by up to 2x."""
    labels = [f"x{i}" for i in range(length + 1)]
    factors = random.Random(f"whitney-factors:{r1}:{r2}:{length}")
    sub, quot = (_chart_json(factors, r, labels) for r in (r1, r2))
    mixing = {lab: [[_upoly_text(_linear(rng)) for _ in range(r2)]
                    for _ in range(r1)] for lab in labels}
    scenario = {"name": f"ext-{r1}-{r2}-{length}", "n": 1, "r": r1 + r2,
                "zeros": [],
                "whitney": {"sub": sub, "quot": quot, "mixing": mixing,
                            "chain": labels}}
    return {"kind": "whitney", "scenario": scenario,
            "sizes": {"ranks": [r1, r2], "chain_length": length}}


def _transgression_item(rng: random.Random, length: int, rank: int,
                        m: int) -> dict:

    def coeff(support) -> str:
        # fixed monomials (as exponents of t_k and f), random coefficients
        return " + ".join(f"({rng.choice(NONZERO)})*{m}" for m in support)

    def entry():
        k = rng.randint(1, length)
        return {"dt": k, "dt_coeff": coeff(("1", "f", f"t{k}*f")),
                "df_coeff": coeff(("1", f"t{k}", f"t{k}^2"))}

    theta = [[entry() for _ in range(rank)] for _ in range(rank)]
    return {"kind": "transgression", "length": length, "rank": rank, "m": m,
            "theta": theta,
            "sizes": {"rank": rank, "chain_length": length, "m": m}}


def forms_items(rng: random.Random) -> list:
    items = []
    for (r1, r2), length in itertools.product(
            ((1, 1), (1, 2), (2, 1), (2, 2)), (2, 3, 4, 5)):
        items.append(_whitney_item(rng, r1, r2, length))
    for length, rank, m in itertools.product((1, 2), (1, 2, 3), (1, 2, 3, 4)):
        for _ in range(2 if length == 1 else 1):
            items.append(_transgression_item(rng, length, rank, m))
    valid = list(itertools.permutations(("inf", "q1", "x0"), 2))
    for name in P1_CHARTS:
        chart = json.loads((DATA / f"{name}.json").read_text())["chart"]
        for chain in valid:
            items.append({"kind": "localize", "file": name + ".json",
                          "chart": chart, "chain": list(chain),
                          "sizes": {"rank": chart["rank"],
                                    "chain_length": 1}})
    for n, bundle in itertools.product((1, 2, 3, 4),
                                       ("tangent", 1, 2, 3, 4)):
        weights = rng.sample(range(-6, 7), n + 1)
        expect = n + 1 if bundle == "tangent" else bundle ** n
        items.append({"kind": "bott", "n": n, "weights": weights,
                      "bundle": bundle, "expect": expect,
                      "sizes": {"rank": n if bundle == "tangent" else 1,
                                "fixed_points": n + 1}})
    rng.shuffle(items)
    return items


GENERATORS = {"cli": cli_items, "derham": derham_items,
              "residue": residue_items, "forms": forms_items}


def generate(workload: str, seed: int) -> list:
    """Items of one workload; the same seed gives the same items."""
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"))
