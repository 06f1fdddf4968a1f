import itertools
import json
import math
import sys
from fractions import Fraction as Q
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adelweil import simplicial, sullivan
from adelweil.cli import SSET_FILES, resolve_input
from adelweil.dgforms import chain_context
from adelweil.errors import (
    CapInsufficient, CheckFailed, DimensionMismatch, NotAComplex,
)
from adelweil.exactalg import LinearSpan, QMatrix
from adelweil.parsing import sset_from_json
from adelweil.simplicial import (
    FiniteSimplicialSet, boundary_simplex_sset, disjoint_points,
    pullback_along, standard_simplex_sset,
)
from adelweil.sullivan import (
    CochainComplexView, SullivanComplex, _face_image,
    _hits_as_family_cocycle, _label_integral, _monomial_d,
    _product_integral, _simplex_labels, _simplex_weight_block, _weight,
    _wedge_sign, _whitney_family, _whitney_form, cochain_complex,
    sparse_nullspace, sullivan_view, verify_de_rham,
)

import derham_oracles
from derham_oracles import _form_of, element, face, sullivan_basis
from strategies import fractions

# spaces with more than one maximal simplex, so with compatibility
# equations
GENERAL = {"boundary-2": boundary_simplex_sset(2),
           "points-2": disjoint_points(2),
           "boundary-3": boundary_simplex_sset(3)}


@settings(max_examples=20)
@given(st.lists(
    st.lists(st.tuples(st.integers(min_value=0, max_value=4),
                       st.integers(min_value=-3, max_value=3)),
             max_size=4),
    max_size=4))
def test_sparse_nullspace_matches_dense_rank(raw_rows):
    order = {i: i for i in range(5)}
    rows = [{lab: Q(v) for lab, v in row if v} for row in raw_rows]
    rows = [r for r in rows if r]
    basis = sparse_nullspace(rows, order)
    dense = QMatrix([[Q(dict(row).get(j, 0)) for j in range(5)]
                     for row in [list(r.items()) for r in rows]]
                    or [[Q(0)] * 5])
    assert len(basis) == 5 - len(dense.rref()[1])
    for _, vec in basis:
        for row in rows:
            total = sum(c * vec.get(lab, Q(0)) for lab, c in row.items())
            assert total == 0


def test_constant_family_basis_on_the_interval():
    S = standard_simplex_sset(1)
    weight0 = sullivan_basis(S, 0, 0)
    assert len(weight0) == 1
    u = weight0[0]
    assert u.is_compatible() and u.d().is_zero()


def test_families_are_compatible_and_d_squares_to_zero():
    S = boundary_simplex_sset(2)
    for q in (0, 1):
        for w in range(3):
            for u in sullivan_basis(S, q, w):
                assert u.is_compatible()
                assert u.d().d().is_zero()


def test_integration_commutes_with_the_differential():
    S = boundary_simplex_sset(2)
    for q in (0, 1):
        for w in range(1, 4):
            for u in sullivan_basis(S, q, w):
                assert u.d().integrate() == \
                    derham_oracles.coboundary(S, q, u.integrate())


def test_cochain_cohomology_of_the_circle_model():
    ranks = cochain_complex(boundary_simplex_sset(2)).ranks()
    assert ranks == [1, 1, 0]


def test_d_squared_check_rejects_a_non_complex():
    # d1 d0 = [[1]] on a one-dimensional chain of spaces
    d0, d1 = [{0: 1}], [{0: 1}]
    with pytest.raises(NotAComplex):
        CochainComplexView([[0], [1], [2]], [d0, d1])
    # column 1 of d0 lies past the single degree-0 label
    with pytest.raises(DimensionMismatch):
        CochainComplexView([[0], [1], [2]], [[{1: 1}], [{}]])
    C = cochain_complex(boundary_simplex_sset(2))
    assert CochainComplexView(C.labels, C.mats).ranks() == [1, 1, 0]


def test_cochain_cohomology_of_two_points():
    ranks = cochain_complex(disjoint_points(2)).ranks()
    assert ranks == [2, 0]


def test_comparison_on_small_spaces():
    for S in (standard_simplex_sset(1), disjoint_points(2),
              boundary_simplex_sset(2)):
        res = verify_de_rham(S)
        assert res["ok"], res
        assert res["sullivan_ranks"] == res["cochain_ranks"]


def test_multiplicativity_defects_are_solved_coboundaries():
    res = verify_de_rham(boundary_simplex_sset(2))
    assert res["multiplicativity_ok"]
    assert res["multiplicativity_pairs"] > 0


@pytest.mark.parametrize("name", [*GENERAL, "simplex-3"])
def test_per_weight_ranks_match_separate_builds(name):
    # verify_de_rham reads every lower cap off one complex at the cap
    S, cap = GENERAL.get(name) or standard_simplex_sset(3), 2
    res = verify_de_rham(S, cap)
    for w in range(cap + 1):
        assert res["per_weight"][w] == \
            sullivan_view(SullivanComplex(S, w)).ranks()
        for q in range(S.dimension + 1):
            basis = sullivan_basis(S, q, w)
            assert basis == sullivan_basis(S, q, w + 2)[:len(basis)]


@pytest.mark.parametrize("name", [*GENERAL, "simplex-2"])
def test_d_matrix_columns_are_the_differentials(name):
    S = GENERAL.get(name) or standard_simplex_sset(2)
    cx = SullivanComplex(S, 3)
    for q in range(S.dimension + 1):
        mat = cx.d_matrix(q)
        for k in range(cx.dim(q)):
            column = [row.get(k, 0) for row in mat]
            assert element(cx, q + 1, column) == element(cx, q, k).d()


def test_cached_label_values_are_read_only():
    lab = ((1, 0), (1,))
    for value in (_face_image(2, 0, lab), _monomial_d(lab),
                  _simplex_weight_block(2, 1, 2)):
        assert value
        with pytest.raises(TypeError):
            value[0] = value[0]
        with pytest.raises(TypeError):
            value[0][0] = value[0][0]


def _coords(form) -> dict:
    out = {}
    for mono, c in form.terms.items():
        assert c.den.is_constant()
        out.update({(exp, mono): v / c.den.constant_term()
                    for exp, v in c.num.coeffs.items()})
    return out


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_face_images_match_the_form_pullback(m):
    # pullback_along is a ring map, so the image of t^a dt_I is the
    # product of the pulled-back generators; whole monomials up to
    # weight 3 also go through pullback_along directly
    ctx = chain_context(m, ())
    zero = (0,) * m

    def unit(j):
        return tuple(int(k == j) for k in range(m))

    for i in range(m + 1):
        sigma = face(m, i)
        t = [pullback_along(sigma, _form_of(ctx, [((unit(j), ()), 1)]))
             for j in range(m)]
        dt = [pullback_along(sigma, _form_of(ctx, [((zero, (j,)), 1)]))
              for j in range(m)]
        images = {}
        for q in range(m + 1):
            for lab in _simplex_labels(m, q, 6):
                exp, mono = lab
                if any(exp):
                    j = next(k for k, a in enumerate(exp) if a)
                    lower = exp[:j] + (exp[j] - 1,) + exp[j + 1:]
                    image = images[(lower, mono)] * t[j]
                elif mono:
                    image = dt[mono[0]] * images[(zero, mono[1:])]
                else:
                    image = pullback_along(sigma, _form_of(ctx, [(lab, 1)]))
                images[lab] = image
                if _weight(lab) <= 3:
                    direct = pullback_along(sigma, _form_of(ctx, [(lab, 1)]))
                    assert direct == image
                closed = dict(_face_image(m, i, lab))
                assert all(type(v) is int for v in closed.values())
                assert closed == _coords(image), (m, i, lab)


def _spanned(name: str, tops) -> FiniteSimplicialSet:
    """The simplices spanned by the vertex tuples `tops` and their faces."""
    simplices, faces, vertices = {}, {}, {}
    for top in tops:
        for size in range(1, len(top) + 1):
            for vs in itertools.combinations(top, size):
                sid = "".join(map(str, vs))
                simplices[sid], vertices[sid] = size - 1, vs
                if size > 1:
                    faces[sid] = ["".join(map(str, vs[:k] + vs[k + 1:]))
                                  for k in range(size)]
    return FiniteSimplicialSet(name, simplices, faces, vertices)


def _torus_7() -> FiniteSimplicialSet:
    """The Moebius-Csaszar torus: triangles {i, i+1, i+3}, {i, i+2, i+3}."""
    return _spanned("torus-7", {tuple(sorted({i, (i + s) % 7, (i + 3) % 7}))
                                for i in range(7) for s in (1, 2)})


def test_comparison_on_the_seven_vertex_torus():
    S = _torus_7()
    assert [len(S.simplices_of(q)) for q in range(3)] == [7, 21, 14]
    res = verify_de_rham(S, 2)
    assert res["sullivan_ranks"] == res["cochain_ranks"] == [1, 2, 1, 0]
    assert res["multiplicativity_pairs"] == 11
    assert res["ok"], res


# spaces with glued face maps: an edge whose two faces are one vertex,
# two edges on the same two vertices, two triangles that share a vertex
# only, and (nothing glued) an edge beside an isolated point
GLUED = {
    "one-vertex-loop": (FiniteSimplicialSet(
        "one-vertex-loop", {"v": 0, "e": 1}, {"e": ["v", "v"]}), [1, 1, 0]),
    "two-gon": (FiniteSimplicialSet(
        "two-gon", {"a": 0, "b": 0, "e": 1, "f": 1},
        {"e": ["b", "a"], "f": ["b", "a"]}), [1, 1, 0]),
    "triangles-at-a-vertex": (_spanned("triangles-at-a-vertex",
                                       [(0, 1, 2), (0, 3, 4)]),
                              [1, 0, 0, 0]),
    "edge-and-point": (_spanned("edge-and-point", [(0, 1), (2,)]),
                       [2, 0, 0]),
}


@pytest.mark.parametrize("cap", [None, 1])
@pytest.mark.parametrize("name", GLUED)
def test_faces_reached_by_several_paths(name, cap):
    S, ranks = GLUED[name]
    res = verify_de_rham(S, cap)
    assert res["ok"], res
    assert res["sullivan_ranks"] == res["cochain_ranks"] == ranks
    # the basis families agree along every face, by pullback of forms
    cx = SullivanComplex(S, res["weight_cap"])
    for q in range(S.dimension + 1):
        assert all(element(cx, q, k).is_compatible()
                   for k in range(cx.dim(q)))


def test_cup_pairing_on_the_seven_vertex_torus():
    # H^1 x H^1 -> H^2 = Q is nondegenerate on the torus; the classes
    # are read as verify_de_rham reads them, off the cap-2 complex
    cx = SullivanComplex(_torus_7(), 2)
    S, reps = cx.sset, sullivan_view(cx).representatives(1)
    u = [element(cx, 1, vec) for vec in reps]
    assert len(u) == 2
    C = cochain_complex(S)
    order = {sid: i for i, sid in enumerate(C.labels[2])}
    image = C.image_span(2)
    assert len(order) - image.rank == 1

    def pairing(a, b):
        # the residual against the coboundaries is the class in H^2
        cup = (a * b).integrate()
        residual = image.reduce(
            {order[sid]: v for sid, v in cup.items()})
        assert len(residual) <= 1
        return sum(residual.values(), Q(0))

    P = [[pairing(a, b) for b in u] for a in u]
    assert P[0][1] == -P[1][0]
    assert P[0][0] * P[1][1] - P[0][1] * P[1][0] != 0


def _delta2_edited(edit) -> FiniteSimplicialSet:
    data = json.loads(Path(resolve_input("delta2.json")).read_text())
    edit(data)
    return sset_from_json(data)


def _delta2_renumbered() -> FiniteSimplicialSet:
    # vertex numbers are labels: 3, 5, 8 in place of 0, 1, 2
    new = {0: 3, 1: 5, 2: 8}
    return _delta2_edited(lambda d: d.update(vertices={
        sid: [new[v] for v in vs] for sid, vs in d["vertices"].items()}))


def _delta2_without_vertices() -> FiniteSimplicialSet:
    return _delta2_edited(lambda d: d.pop("vertices"))


@pytest.mark.parametrize("space", [_delta2_renumbered,
                                   _delta2_without_vertices])
def test_standard_simplex_basis_ignores_the_vertex_numbers(space):
    # the face maps read positions off the faces, not the vertex numbers
    S, ref = space(), standard_simplex_sset(2)
    for q in range(3):
        basis = sullivan_basis(S, q, 3)
        assert basis and basis == sullivan_basis(ref, q, 3)
        assert all(u.is_compatible() for u in basis)


def _shipped_spaces() -> dict:
    spaces = {}
    for name in SSET_FILES:
        S = sset_from_json(json.loads(Path(resolve_input(name)).read_text()))
        spaces[S.name] = S
    return spaces


def _chain(D: int) -> FiniteSimplicialSet:
    # one simplex per dimension: every face of s_m is s_(m-1)
    return FiniteSimplicialSet(
        f"chain-{D}", {f"s{m}": m for m in range(D + 1)},
        {f"s{m}": [f"s{m - 1}"] * (m + 1) for m in range(1, D + 1)})


def _space(name: str) -> FiniteSimplicialSet:
    if name == "torus-7":
        return _torus_7()
    if name.startswith("chain-"):
        return _chain(int(name[6:]))
    if name == "simplex-2-renumbered":
        return _delta2_renumbered()
    if name in ("boundary-3", "boundary-4"):
        return boundary_simplex_sset(int(name[-1]))
    return _shipped_spaces()[name]


@pytest.mark.parametrize("name", [*_shipped_spaces(), "boundary-3",
                                  "boundary-4", "chain-6"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_cochain_coboundary_matches_the_face_walking_oracle(name, data):
    # the one coboundary of the package, cochain_complex's mats, applied
    # to a random rational cochain, against the alternating face sum
    S = _space(name)
    C = cochain_complex(S)
    q = data.draw(st.integers(min_value=0, max_value=S.dimension))
    vec = data.draw(st.dictionaries(
        st.integers(min_value=0, max_value=len(C.labels[q]) - 1),
        fractions()))
    delta = {}
    for r, row in enumerate(C.mats[q]):
        v = sum(x * vec.get(j, 0) for j, x in row.items())
        if v:
            delta[C.labels[q + 1][r]] = v
    values = {C.labels[q][i]: v for i, v in vec.items()}
    assert delta == derham_oracles.coboundary(S, q, values)


@pytest.mark.parametrize("name", [*_shipped_spaces(), "torus-7"])
def test_family_coordinates_and_coboundaries_are_integers(name):
    # face images, the signs of d and the compatibility kernel are all
    # integral on these spaces, so coordinates and coboundaries are ints
    S = _space(name)
    cx = SullivanComplex(S, S.dimension + 6)   # two past the default cap
    for q in range(S.dimension + 2):
        assert all(type(x) is int for vec in cx._vectors[q]
                   for x in vec.values())
    for q in range(S.dimension + 1):
        assert all(type(x) is int for row in cx.d_matrix(q)
                   for x in row.values())


# verify_de_rham results recorded from the Fraction implementation of
# the family complex, and the CapInsufficient messages of the Whitney
# verdict
DERHAM_RESULTS = json.loads(
    (Path(__file__).parent / "data" / "derham-results.json").read_text())


@pytest.mark.parametrize("name", [
    "simplex-0", "simplex-1", "simplex-2", "simplex-3", "boundary-2",
    "boundary-3", "points-2", "torus-7"])
def test_de_rham_results_are_unchanged(name):
    S = _space(name)
    for cap in (None, 0, 2, 7):
        try:
            got = verify_de_rham(S, cap)
        except CapInsufficient as exc:
            got = {"error": "CapInsufficient", "msg": str(exc)}
        assert got == DERHAM_RESULTS[f"{name}/{cap}"], cap


def _image_span_representatives(view, q):
    """Reference reading of the cohomology representatives.

    The cocycles are found by a separate elimination, and each is kept
    when it enlarges the span of the coboundaries and the cocycles kept
    before it.
    """
    rows = LinearSpan()
    rows.extend(view.mats[q] if q < len(view.mats) else [])
    image = view.image_span(q)
    return [vec for _, vec in rows.kernel(range(len(view.labels[q])))
            if image.add(vec)]


def _coboundaries(view, q) -> list:
    """The nonzero columns of mats[q-1]."""
    columns: dict = {}
    for i, row in enumerate(view.mats[q - 1] if q else []):
        for j, x in row.items():
            columns.setdefault(j, {})[i] = x
    return list(columns.values())


def _is_cohomology_basis(view, q, reps):
    """reps are cocycles whose classes are a basis: h^q of them,
    independent of the coboundaries and of each other."""
    rows = view.mats[q] if q < len(view.mats) else []
    for vec in reps:
        if any(sum(row.get(j, 0) * x for j, x in vec.items())
               for row in rows):
            return False
    span = LinearSpan()
    span.extend(_coboundaries(view, q))
    coboundary_rank = span.rank
    span.extend(reps)
    h = view.ranks()[q]
    return len(reps) == h and span.rank == coboundary_rank + h


@pytest.mark.parametrize("name", [
    "simplex-0", "simplex-1", "simplex-2", "simplex-3", "boundary-2",
    "boundary-3", "points-2", "torus-7"])
def test_representatives_match_the_image_span_reading(name):
    S = _space(name)
    corrupted = 0
    for cap in (None, 2, 7):
        view = sullivan_view(SullivanComplex(
            S, S.dimension + 4 if cap is None else cap))
        for q in range(S.dimension + 2):
            reps = view.representatives(q)
            ref = _image_span_representatives(view, q)
            assert len(reps) == len(ref), (cap, q)
            assert _is_cohomology_basis(view, q, ref), (cap, q)
            assert _is_cohomology_basis(view, q, reps), (cap, q)
            # a coboundary in place of a representative is no basis
            coboundaries = _coboundaries(view, q)
            if reps and coboundaries:
                assert not _is_cohomology_basis(
                    view, q, [coboundaries[0]] + reps[1:]), (cap, q)
                corrupted += 1
    # the spaces with a class in positive degree reach the negative case
    assert bool(corrupted) == (name in ("boundary-2", "boundary-3",
                                        "torus-7"))


def test_one_elimination_per_coboundary(monkeypatch):
    # every LinearSpan row reduction behind one comparison on the
    # boundary of the 3-simplex; a coboundary eliminated twice shows here
    count = 0
    reduce = LinearSpan._reduce

    def counting(self, vec):
        nonlocal count
        count += 1
        return reduce(self, vec)

    monkeypatch.setattr(LinearSpan, "_reduce", counting)
    assert verify_de_rham(boundary_simplex_sset(3), 4)["ok"]
    assert count <= 283, count


@pytest.mark.parametrize("name, cap", [
    ("boundary-3", 4), ("simplex-2", None), ("torus-7", 2),
    ("boundary-2", 0)])
def test_one_complex_per_comparison(monkeypatch, name, cap):
    # one SullivanComplex, built at the weight cap itself; none when a
    # class lies in a degree above the cap (boundary-2 at cap 0)
    S, builds, labels = _space(name), [], []
    init, solve = SullivanComplex.__init__, sullivan.sparse_nullspace

    def counting_init(self, sset, weight_cap):
        builds.append(weight_cap)
        init(self, sset, weight_cap)

    def counting_solve(rows, order):
        labels.append(len(order))
        return solve(rows, order)

    monkeypatch.setattr(SullivanComplex, "__init__", counting_init)
    monkeypatch.setattr(sullivan, "sparse_nullspace", counting_solve)
    try:
        verify_de_rham(S, cap)
    except CapInsufficient:
        assert cap == 0
        assert builds == labels == []
        return
    assert builds == [S.dimension + 4 if cap is None else cap]
    # the unknowns are C(m, q) C(cap - q + m, m) labels per maximal
    # m-simplex and degree q: the four triangles of the boundary, and the
    # one triangle of the standard simplex, which goes through the solve
    if name == "boundary-3":
        assert sum(labels) == 164
    if name == "simplex-2":
        assert labels[:3] == [28, 42, 15] and sum(labels) == 85


def _whitney_by_forms(m, I):
    """omega_I from the context's t_i and dt_i, as {label: c}."""
    ctx = chain_context(m, ())
    q = len(I) - 1
    omega = ctx.zero_form()
    for k, v in enumerate(I):
        term = ctx.t(v)
        for j in I[:k] + I[k + 1:]:
            term = term * ctx.dt(j)
        omega = omega + term * ((-1) ** k * math.factorial(q))
    return _coords(omega)


@pytest.mark.parametrize("m", [0, 1, 2, 3, 4])
def test_whitney_forms_match_the_form_route(m):
    for q in range(m + 1):
        for I in itertools.combinations(range(m + 1), q + 1):
            labels = dict(_whitney_form(m, I))
            assert labels == _whitney_by_forms(m, I), (m, I)
            # d omega_I = (q + 1)! dt_I is of weight q + 1 unless I is
            # every vertex, and d keeps weight
            assert max(map(_weight, labels)) == q + (q < m)


def _d_labels(labels: dict) -> dict:
    out: dict = {}
    for lab, c in labels.items():
        for tl, v in _monomial_d(lab):
            out[tl] = out.get(tl, 0) + c * v
    return {tl: v for tl, v in out.items() if v}


@pytest.mark.parametrize("name", [
    "simplex-0", "simplex-1", "simplex-2", "simplex-3", "boundary-2",
    "boundary-3", "boundary-4", "points-2", "torus-7"])
def test_whitney_map_is_a_chain_map_inverting_integration(name):
    # E(z) is compatible, d E(z) = E(delta z), and its integral is z, on
    # every basis cochain; on cocycles it is a family cocycle hitting z
    S = _space(name)
    C = cochain_complex(S)
    for q in range(S.dimension + 1):
        for sid in S.simplices_of(q):
            z = {sid: 1}
            E = _whitney_family(S, q, z)
            dz = derham_oracles.coboundary(S, q, z)
            dE = _whitney_family(S, q + 1, dz)
            for tau, m in S.simplices.items():
                on = E.get(tau, {})
                assert _d_labels(on) == dE.get(tau, {}), (q, sid, tau)
                for i in range(m + 1 if m else 0):
                    assert sullivan._restrict(m, i, on) == \
                        E.get(S.face(tau, i), {})
            for tau in S.simplices_of(q):
                assert _label_integral(E.get(tau, {})) == (tau == sid)
        for vec in C.representatives(q):
            z = {C.labels[q][i]: c for i, c in vec.items()}
            E = _whitney_family(S, q, z)
            assert _hits_as_family_cocycle(S, q, E, z)
            # a cocycle's Whitney form has weight q
            assert max(_weight(lab) for on in E.values() for lab in on) == q


@pytest.mark.parametrize("name, cap, q", [
    ("boundary-2", 0, 1), ("boundary-3", 1, 2), ("boundary-4", 2, 3),
    ("torus-7", 1, 2), ("chain-7", 2, 7)])
def test_a_class_above_the_cap_is_refused_before_any_family_solve(
        monkeypatch, name, cap, q):
    # a degree-q family has weight at least q: with a class in a degree
    # above the cap, the refusal needs no family complex.  Its message
    # names the Whitney form's weight, as the verdict after a solve does
    # (tests/data/derham-results.json keeps those messages)
    S = _space(name)
    C = cochain_complex(S)
    z = C.representatives(q)[0]
    family = _whitney_family(S, q, {C.labels[q][i]: c for i, c in z.items()})
    assert max(_weight(lab) for on in family.values() for lab in on) == q
    message = (f"a degree-{q} cochain class is hit by no family of weight "
               f"at most {cap}; its Whitney form, which hits it, has "
               f"weight {q}")

    def no_solve(self, sset, weight_cap):
        raise AssertionError("a family complex was built")

    monkeypatch.setattr(SullivanComplex, "__init__", no_solve)
    with pytest.raises(CapInsufficient) as refused:
        verify_de_rham(S, cap)
    assert str(refused.value) == message


def _flipped_whitney(m, I):
    return tuple((lab, -c) for lab, c in _whitney_form(m, I))


def _whitney_over_q_plus_1_factorial(m, I):
    return tuple((lab, c * len(I)) for lab, c in _whitney_form(m, I))


def _whitney_without_t0(m, I):
    # t_0 read as 0 rather than 1 - sum t_j: its constant term dropped
    return tuple((lab, c) for lab, c in _whitney_form(m, I)
                 if any(lab[0]) or 0 not in I)


@pytest.mark.parametrize("name", ["boundary-2", "torus-7"])
@pytest.mark.parametrize("wrong", [_flipped_whitney,
                                   _whitney_over_q_plus_1_factorial,
                                   _whitney_without_t0])
def test_a_wrong_whitney_form_hits_nothing(monkeypatch, name, wrong):
    S = _space(name)
    C = cochain_complex(S)
    monkeypatch.setattr(sullivan, "_whitney_form", wrong)
    misses = 0
    for q in range(S.dimension + 1):
        for vec in C.representatives(q):
            z = {C.labels[q][i]: c for i, c in vec.items()}
            misses += not _hits_as_family_cocycle(
                S, q, _whitney_family(S, q, z), z)
    assert misses


@pytest.mark.parametrize("name", ["boundary-2", "torus-7"])
def test_a_failed_comparison_within_the_cap_is_no_cap_error(
        monkeypatch, name):
    # families that integrate to nothing hit no class: at a cap that
    # holds every Whitney form the comparison fails (exit 2), below it
    # the cap is too low (exit 5), and a broken Whitney form is a failed
    # check (exit 2)
    S = _space(name)
    monkeypatch.setattr(SullivanComplex, "simplex_labels",
                        lambda self, q, vec: {})
    res = verify_de_rham(S, S.dimension + 1)
    assert not res["induced_iso"] and not res["ok"]
    assert res["sullivan_ranks"] == res["cochain_ranks"]
    with pytest.raises(CapInsufficient, match="degree-1 .* weight 1$"):
        verify_de_rham(S, 0)
    monkeypatch.setattr(sullivan, "_whitney_form", _flipped_whitney)
    with pytest.raises(CheckFailed, match="degree-0"):
        verify_de_rham(S, S.dimension + 1)


def _label_and_form_integrals(S, cap):
    """(label integral, DiffForm integral) on every simplex, for the basis
    families of every degree and every pair of them whose degrees add up
    to at most the dimension."""
    cx = SullivanComplex(S, cap)
    L = S.dimension
    families = [[(cx.simplex_labels(q, k), element(cx, q, k))
                 for k in range(cx.dim(q))] for q in range(L + 1)]
    for q in range(L + 1):
        for on, u in families[q]:
            form = u.integrate()
            for sid in S.simplices_of(q):
                yield _label_integral(on.get(sid, {})), form.get(sid, 0)
    for p, q in itertools.product(range(L + 1), repeat=2):
        if p + q > L:
            continue
        for (on_u, u), (on_v, v) in itertools.product(families[p],
                                                      families[q]):
            form = (u * v).integrate()
            for sid in S.simplices_of(p + q):
                yield _product_integral(p + q, on_u.get(sid, {}),
                                        on_v.get(sid, {})), form.get(sid, 0)


# the cap keeps the DiffForm products of every pair within seconds
LABEL_ORACLE_CAPS = {"simplex-0": 3, "simplex-1": 3, "simplex-2": 3,
                     "simplex-3": 2, "boundary-2": 3, "boundary-3": 2,
                     "points-2": 3, "torus-7": 2, "simplex-2-renumbered": 3}


@pytest.mark.parametrize("name", LABEL_ORACLE_CAPS)
def test_label_integrals_match_the_form_integrals(name):
    pairs = list(_label_and_form_integrals(_space(name),
                                           LABEL_ORACLE_CAPS[name]))
    assert pairs
    assert all(label == form for label, form in pairs)


def _unsigned(mono):
    return 1


def _flipped(mono):
    return -_wedge_sign(mono)


def _no_exponent_factorials(l, exponents):
    return Q(1, math.factorial(l + sum(exponents)))


def _shifted_factorial(l, exponents):
    return Q(math.prod(map(math.factorial, exponents)),
             math.factorial(l + sum(exponents) + 1))


@pytest.mark.parametrize("name, attr, wrong", [
    ("boundary-2", "_wedge_sign", _flipped),
    ("torus-7", "_wedge_sign", _flipped),
    ("torus-7", "_wedge_sign", _unsigned),
    ("boundary-2", "dirichlet_integral", _no_exponent_factorials),
    ("boundary-2", "dirichlet_integral", _shifted_factorial),
    ("torus-7", "dirichlet_integral", _no_exponent_factorials),
    ("torus-7", "dirichlet_integral", _shifted_factorial),
])
def test_label_oracle_catches_a_wrong_sign_or_factorial(
        monkeypatch, name, attr, wrong):
    monkeypatch.setattr(sullivan, attr, wrong)
    assert any(label != form for label, form in _label_and_form_integrals(
        _space(name), LABEL_ORACLE_CAPS[name]))


@pytest.mark.parametrize("space, cap", [(standard_simplex_sset(2), None),
                                        (boundary_simplex_sset(3), 4)])
def test_comparison_builds_no_forms(monkeypatch, space, cap):
    # integration and products run on labels: no pullback of a form, no
    # form integral and no family of forms behind verify_de_rham
    calls = []
    loaded = [m for name, m in sys.modules.items()
              if name == "adelweil" or name.startswith("adelweil.")]
    for owner, attr in ((simplicial, "pullback_along"),
                        (simplicial, "integrate_over_simplex"),
                        (derham_oracles, "element")):
        original = getattr(owner, attr)

        def counting(*args, _attr=attr, _original=original, **kwargs):
            calls.append(_attr)
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counting)
        # and every name an importer bound to the same function
        for module in loaded:
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counting)
    assert verify_de_rham(space, cap)["ok"]
    assert calls == []
    # the counting wrappers do see the form route
    derham_oracles.element(SullivanComplex(space, 1), 0, 0).integrate()
    assert calls


def test_module_caches_stay_within_their_bounds():
    # comparisons at many distinct caps, low ones included so that
    # Whitney forms are built, and more point sets than their cache holds
    for cap in range(13):
        for S in (boundary_simplex_sset(2), standard_simplex_sset(cap % 4),
                  disjoint_points(cap + 1)):
            try:
                verify_de_rham(S, cap)
            except CapInsufficient:
                assert cap < S.dimension
    for cap in range(9):
        try:
            verify_de_rham(boundary_simplex_sset(3), cap)
        except CapInsufficient:
            assert cap < 2
    for k in range(40):
        disjoint_points(k)
    for cache in (_simplex_weight_block, _face_image, _monomial_d,
                  _whitney_form, standard_simplex_sset,
                  boundary_simplex_sset, disjoint_points):
        info = cache.cache_info()
        assert info.maxsize is not None
        assert info.currsize <= info.maxsize
