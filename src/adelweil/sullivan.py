"""Compatible families of simplex forms and the de Rham comparison.

A family assigns a polynomial form to every nondegenerate simplex of a
finite simplicial set so that face pullbacks match.  These families are
a graded-commutative algebra; integrating each form over its simplex
lands in normalized cochains, and the induced map on cohomology is an
isomorphism.  This module computes bases of such families by exact
linear algebra, the cohomology of both sides, the induced map, and the
multiplicativity defect (which must be a coboundary, found by solving).

Polynomial degree plus form degree ("weight") is not preserved by
vertex evaluations, so the family spaces are filtered, not graded, by
weight: sullivan_basis(S, q, w) is the space of families all of whose
terms have weight at most w.  On a single standard simplex the weight
does split the complex, which gives a fast path.

Face pullbacks and d never raise weight (d keeps it).  The compatibility
solve lists the labels of each degree by weight first, so the families
of weight <= w are exactly the leading free labels, the cap-w complex is
the leading block of every higher-cap one, and d is block upper
triangular.  verify_de_rham therefore builds one complex, at cap + 2,
and reads every lower cap off its leading blocks.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import (
    CapExceeded,
    CapInsufficient,
    ContextMismatch,
    DegreeError,
    DimensionMismatch,
    NotAComplex,
)
from .exactalg import LinearSpan, MultiPoly, ONE, QMatrix, ZERO
from .dgforms import DiffForm, simplex_context
from .simplicial import (
    Cochain,
    DeltaMorphism,
    FiniteSimplicialSet,
    aw_product,
    face,
    integrate_over_simplex,
    pullback_along,
    standard_simplex_sset,
)

HARD_DEGREE_CAP = 12
HARD_WEIGHT_CAP = 24


# -- per-simplex monomial coordinates ----------------------------------------
#
# A monomial label (exp, mono) stands for t^exp dt_mono on the simplex of
# dimension len(exp).  The per-label caches below hand out tuples of
# (label, coefficient) pairs, so no caller can change a cached value.


def _exponents_of_degree(nvars: int, degree: int):
    if nvars == 0:
        if degree == 0:
            yield ()
        return
    for head in range(degree + 1):
        for tail in _exponents_of_degree(nvars - 1, degree - head):
            yield (head,) + tail


def _weight(lab) -> int:
    exp, mono = lab
    return sum(exp) + len(mono)


@lru_cache(maxsize=None)
def _simplex_weight_block(m: int, q: int, w: int) -> tuple:
    """Monomial labels on the m-simplex of degree q and weight exactly w."""
    if q > m or w < q:
        return ()
    return tuple((exp, mono)
                 for mono in itertools.combinations(range(m), q)
                 for exp in _exponents_of_degree(m, w - q))


def _simplex_labels(m: int, q: int, cap: int) -> tuple:
    """Monomial labels on the m-simplex, degree q, weight-ascending to cap."""
    return tuple(lab for w in range(q, cap + 1)
                 for lab in _simplex_weight_block(m, q, w))


def _form_of(ctx, pairs) -> DiffForm:
    """The form sum of c t^exp dt_mono over ((exp, mono), c) pairs."""
    terms: dict = {}
    for (exp, mono), c in pairs:
        terms.setdefault(mono, {})[exp] = c
    return DiffForm(ctx, {mono: ctx.ring_poly(MultiPoly(ctx.even_vars, cs))
                          for mono, cs in terms.items()})


@lru_cache(maxsize=None)
def _face_image(m: int, i: int, lab) -> tuple:
    """Pullback of t^a dt_I along face(m, i), as (label, coeff) pairs.

    face(m, i) skips vertex i; the face has coordinates s_1..s_(m-1).
    - i >= 1: t_i, dt_i go to 0 and t_j, dt_j to s_(j-1) for j > i.  A
      label with t_i or dt_i has no image; any other drops position
      i - 1, shifts the dt indices above it down by one, coefficient 1.
    - i = 0: t_1 goes to s_0 = 1 - sum_k s_k, expanded by the multinomial
      theorem, and t_j to s_(j-1); dt_1 goes to -sum_k ds_k, each ds_k
      wedged past the ds of I below it (the sign `_monomial_d` takes).
    """
    exp, mono = lab
    if i:
        k = i - 1
        if exp[k] or k in mono:
            return ()
        return (((exp[:k] + exp[k + 1:], tuple(j - (j > k) for j in mono)),
                 ONE),)
    rest = tuple(j - 1 for j in mono if j)
    dts = [(rest, 1)]
    if mono[:1] == (0,):
        dts = [(rest[:pos] + (k,) + rest[pos:], 1 if pos % 2 else -1)
               for k in range(m - 1) if k not in rest
               for pos in [bisect.bisect(rest, k)]]
    a = exp[0]
    out = []
    for deg in range(a + 1):
        for b in _exponents_of_degree(m - 1, deg):
            c = (-1) ** deg * math.factorial(a) // math.prod(
                map(math.factorial, b + (a - deg,)))
            image = tuple(x + y for x, y in zip(exp[1:], b))
            out += [((image, dm), Fraction(sign * c)) for dm, sign in dts]
    return tuple(out)


@lru_cache(maxsize=None)
def _monomial_d(lab) -> tuple:
    """d(t^a dt_I) = sum_j a_j t^(a - e_j) dt_j dt_I, as (label, coeff) pairs.

    Moving dt_j past the generators of I below j gives the sign.
    """
    exp, mono = lab
    out = []
    for j, a in enumerate(exp):
        if a and j not in mono:
            below = bisect.bisect(mono, j)
            dexp = exp[:j] + (a - 1,) + exp[j + 1:]
            dmono = mono[:below] + (j,) + mono[below:]
            out.append(((dexp, dmono), Fraction(-a if below % 2 else a)))
    return tuple(out)


# -- sparse kernel solver ----------------------------------------------------


def sparse_nullspace(rows: list, order: dict) -> list:
    """Basis of the solution space of sparse homogeneous equations.

    Rows are dicts {label: coefficient}; `order` maps labels to a total
    order position.  Returns one (free label, solution vector) pair per
    free label, in label order; the vector is 1 at its own free label
    and 0 at every other free label.
    """
    span = LinearSpan(key=order.__getitem__)
    span.extend(rows)
    return span.kernel(sorted(order, key=order.__getitem__))


# -- compatible families -----------------------------------------------------


class SullivanElement:
    """A form on every nondegenerate simplex, compatible along faces."""

    __slots__ = ("sset", "degree", "forms")

    def __init__(self, sset: FiniteSimplicialSet, degree: int, forms: dict):
        self.sset = sset
        self.degree = degree
        self.forms = {}
        for sid, form in forms.items():
            if sid not in sset.simplices:
                raise DimensionMismatch(f"unknown simplex {sid!r}")
            if not form.is_zero():
                if form.degree() != degree:
                    raise DegreeError(
                        f"form on {sid!r} has degree {form.degree()}, "
                        f"family has degree {degree}")
                self.forms[sid] = form

    def form_on(self, sid: str) -> DiffForm:
        form = self.forms.get(sid)
        if form is None:
            return simplex_context(self.sset.dim_of(sid)).zero_form()
        return form

    def is_zero(self) -> bool:
        return not self.forms

    def is_compatible(self) -> bool:
        for sid, dim in self.sset.simplices.items():
            for i in range(dim + 1):
                if dim == 0:
                    break
                pulled = pullback_along(face(dim, i), self.form_on(sid))
                if pulled != self.form_on(self.sset.face(sid, i)):
                    return False
        return True

    def __add__(self, other: "SullivanElement") -> "SullivanElement":
        if self.sset != other.sset:
            raise ContextMismatch("families on different simplicial sets")
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.degree != other.degree:
            raise DegreeError("family degrees differ")
        forms = dict(self.forms)
        for sid, form in other.forms.items():
            forms[sid] = forms[sid] + form if sid in forms else form
        return SullivanElement(self.sset, self.degree, forms)

    def __neg__(self):
        return SullivanElement(self.sset, self.degree,
                               {s: -f for s, f in self.forms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "SullivanElement":
        return SullivanElement(self.sset, self.degree,
                               {s: f * c for s, f in self.forms.items()})

    def __mul__(self, other: "SullivanElement") -> "SullivanElement":
        if self.sset != other.sset:
            raise ContextMismatch("families on different simplicial sets")
        forms = {}
        for sid in self.forms:
            if sid in other.forms:
                forms[sid] = self.forms[sid] * other.forms[sid]
        return SullivanElement(self.sset, self.degree + other.degree, forms)

    def d(self) -> "SullivanElement":
        return SullivanElement(self.sset, self.degree + 1,
                               {s: f.d() for s, f in self.forms.items()})

    def integrate(self) -> Cochain:
        vals = {}
        for sid in self.sset.simplices_of(self.degree):
            vals[sid] = integrate_over_simplex(self.form_on(sid), self.degree)
        return Cochain(self.sset, self.degree, vals)

    def __eq__(self, other):
        if not isinstance(other, SullivanElement):
            return NotImplemented
        return (self.sset == other.sset and self.degree == other.degree
                and (self - other).is_zero())


def integrate_map(u: SullivanElement) -> Cochain:
    """Simplex-by-simplex integration; a chain map into cochains."""
    return u.integrate()


# -- bases and complexes -----------------------------------------------------


def _is_standard_simplex(sset: FiniteSimplicialSet):
    n = sset.dimension
    if n > 9 or len(sset.simplices) != 2 ** (n + 1) - 1:
        return None
    if sset == standard_simplex_sset(n):
        return n
    return None


def _family_from_vector(sset, q, vec) -> SullivanElement:
    per_sid: dict = {}
    for (sid, lab), c in vec.items():
        per_sid.setdefault(sid, []).append((lab, c))
    return SullivanElement(sset, q, {
        sid: _form_of(simplex_context(sset.dim_of(sid)), pairs)
        for sid, pairs in per_sid.items()})


def _family_from_top(sset, n, q, top_form) -> SullivanElement:
    top_id = sset.simplices_of(n)[0]
    forms = {top_id: top_form}
    for sid, dim in sset.simplices.items():
        if sid == top_id or dim < q:
            continue
        sigma = DeltaMorphism(dim, n, sset.vertex_tuple(sid))
        forms[sid] = pullback_along(sigma, top_form)
    return SullivanElement(sset, q, forms)


class SullivanComplex:
    """Exact coordinates for the family complex of one simplicial set.

    Degrees run 0..dimension; coordinates are the free labels of the
    compatibility solve (or top-simplex monomials on a standard
    simplex, where restriction to the top cell is an isomorphism).
    """

    def __init__(self, sset: FiniteSimplicialSet, weight_cap: int):
        if weight_cap > HARD_WEIGHT_CAP:
            raise CapExceeded(
                f"weight cap {weight_cap} above hard cap {HARD_WEIGHT_CAP}")
        self.sset = sset
        self.cap = weight_cap
        self.L = sset.dimension
        self.standard_n = _is_standard_simplex(sset)
        self._coords: dict = {}
        self._vectors: dict = {}
        for q in range(self.L + 2):
            self._solve_degree(q)

    def _solve_degree(self, q: int):
        sset, cap = self.sset, self.cap
        if self.standard_n is not None:
            n = self.standard_n
            top = sset.simplices_of(n)[0]
            labels = [(top, lab) for lab in _simplex_labels(n, q, cap)]
            self._coords[q] = labels
            self._vectors[q] = [{lab: ONE} for lab in labels]
            return
        # weight first: the weight <= w families are the leading free labels
        sids = sorted(sset.simplices)
        labels = [(sid, lab) for w in range(q, cap + 1) for sid in sids
                  for lab in _simplex_weight_block(sset.dim_of(sid), q, w)]
        order = {lab: k for k, lab in enumerate(labels)}
        rows = []
        for sid in sids:
            dim = sset.dim_of(sid)
            if dim == 0 or dim - 1 < q:
                continue
            for i in range(dim + 1):
                fsid = sset.face(sid, i)
                # one equation per target label: face value = pullback
                pulled: dict = {}
                for sl in _simplex_labels(dim, q, cap):
                    for tl, v in _face_image(dim, i, sl):
                        pulled.setdefault(tl, {})[(sid, sl)] = -v
                for tl, row in pulled.items():
                    row[(fsid, tl)] = ONE
                    rows.append(row)
        basis = sparse_nullspace(rows, order)
        self._coords[q] = [flab for flab, _ in basis]
        self._vectors[q] = [vec for _, vec in basis]

    def dim(self, q: int) -> int:
        return len(self._vectors.get(q, ()))

    def leading_dims(self, w: int) -> list:
        """Per degree, the number of basis families of weight <= w.

        Those families are the first ones of each degree.
        """
        return [sum(1 for _, lab in self._coords[q] if _weight(lab) <= w)
                for q in range(self.L + 2)]

    def element(self, q: int, vec_or_index) -> SullivanElement:
        if isinstance(vec_or_index, int):
            vec = self._vectors[q][vec_or_index]
        else:
            # coordinate list over the degree-q basis
            vec = {}
            for c, bvec in zip(vec_or_index, self._vectors[q]):
                if not c:
                    continue
                for lab, v in bvec.items():
                    s = vec.get(lab, ZERO) + c * v
                    if s:
                        vec[lab] = s
                    else:
                        vec.pop(lab, None)
        if self.standard_n is not None:
            n = self.standard_n
            top_form = _form_of(simplex_context(n),
                                ((lab, c) for (_, lab), c in vec.items()))
            return _family_from_top(self.sset, n, q, top_form)
        return _family_from_vector(self.sset, q, vec)

    def d_matrix(self, q: int) -> QMatrix:
        """d from degree q to q + 1 in the family bases.

        d acts label by label on the stored vectors.  A family of degree
        q + 1 is the sum of its values at the free labels times the basis
        families, so column k is d of family k read at those labels.
        """
        index = {lab: r for r, lab in enumerate(self._coords[q + 1])}
        rows = [[ZERO] * self.dim(q) for _ in index]
        for k, vec in enumerate(self._vectors[q]):
            for (sid, lab), c in vec.items():
                for tl, v in _monomial_d(lab):
                    r = index.get((sid, tl))
                    if r is not None:
                        rows[r][k] += c * v
        return QMatrix(rows)


def sullivan_basis(S: FiniteSimplicialSet, q: int, w: int) -> list:
    """Basis of the compatible families of degree q and weight <= w."""
    if q > S.dimension + HARD_DEGREE_CAP:
        raise CapExceeded(f"degree {q} is past the hard cap")
    if q > S.dimension:
        return []
    cx = SullivanComplex(S, w)
    return [cx.element(q, k) for k in range(cx.dim(q))]


# -- cochain complexes and cohomology ----------------------------------------


@dataclass
class CochainComplexView:
    """Bases and coboundary matrices of a finite rational complex."""

    labels: list
    mats: list          # mats[q]: C^q -> C^(q+1)

    def __post_init__(self):
        # matrices with zero rows degrade to shape (0, 0); skip those
        for q in range(len(self.mats) - 1):
            a, b = self.mats[q], self.mats[q + 1]
            if a.shape[0] == 0 or b.shape[0] == 0:
                continue
            if a.shape[0] != b.shape[1]:
                raise DimensionMismatch("coboundary shapes do not chain")
            # every row of b a, summed over the nonzero entries only
            a_rows = [{j: x for j, x in enumerate(row) if x}
                      for row in a.rows]
            for b_row in b.rows:
                out: dict = {}
                for i, v in enumerate(b_row):
                    if v:
                        for j, x in a_rows[i].items():
                            out[j] = out.get(j, ZERO) + v * x
                if any(out.values()):
                    raise NotAComplex(
                        f"coboundary squared nonzero in degree {q}")

    def ranks(self) -> list:
        """Cohomology ranks per degree."""
        out = []
        prev_rank = 0
        for q, labels in enumerate(self.labels):
            n = len(labels)
            r = self.mats[q].rank() if q < len(self.mats) else 0
            out.append(n - r - prev_rank)
            prev_rank = r
        return out

    def leading(self, dims: list) -> "CochainComplexView":
        """The first dims[q] labels of each degree with their coboundaries.

        A subcomplex only when d maps each leading block into the next.
        """
        labels = [list(lab[:k]) for lab, k in zip(self.labels, dims)]
        mats = [QMatrix([row[:dims[q]] for row in mat.rows[:dims[q + 1]]])
                for q, mat in enumerate(self.mats)]
        return CochainComplexView(labels, mats)

    def image_span(self, q: int) -> LinearSpan:
        """Span of the degree-q coboundaries, the columns of mats[q-1]."""
        span = LinearSpan()
        if q > 0:
            prev = self.mats[q - 1]
            span.extend({i: row[j] for i, row in enumerate(prev.rows)
                         if row[j]} for j in range(prev.shape[1]))
        return span

    def representatives(self, q: int) -> list:
        """Cocycle coordinate vectors spanning degree-q cohomology."""
        n = len(self.labels[q])
        if q < len(self.mats) and self.mats[q].shape[1] == n and n:
            kernel = self.mats[q].nullspace()
        else:
            # zero or absent coboundary: everything is a cocycle
            kernel = [[ONE if i == j else ZERO for i in range(n)]
                      for j in range(n)]
        span = self.image_span(q)
        reps = []
        for vec in kernel:
            if span.add({i: v for i, v in enumerate(vec) if v}):
                reps.append(vec)
        return reps


def cochain_complex(S: FiniteSimplicialSet) -> CochainComplexView:
    """Normalized cochains of a finite simplicial set, in coordinates."""
    L = S.dimension
    labels = [S.simplices_of(q) for q in range(L + 2)]
    mats = []
    for q in range(L + 1):
        col = {sid: j for j, sid in enumerate(labels[q])}
        rows = [[ZERO] * len(labels[q]) for _ in labels[q + 1]]
        for row, tid in zip(rows, labels[q + 1]):
            for i in range(q + 2):
                row[col[S.face(tid, i)]] += (-1) ** i
        mats.append(QMatrix(rows))
    return CochainComplexView(labels, mats)


def cohomology(C: CochainComplexView) -> list:
    """Cohomology ranks of a validated complex."""
    return C.ranks()


def sullivan_view(cx: SullivanComplex) -> CochainComplexView:
    labels = [cx._coords.get(q, []) for q in range(cx.L + 2)]
    mats = [cx.d_matrix(q) for q in range(cx.L + 1)]
    return CochainComplexView(labels, mats)


# -- standard-simplex weight-graded fast path --------------------------------


@lru_cache(maxsize=None)
def _simplex_block_view(n: int, w: int) -> CochainComplexView:
    labels = [_simplex_weight_block(n, q, w) for q in range(n + 2)]
    mats = []
    for q in range(n + 1):
        index = {lab: i for i, lab in enumerate(labels[q + 1])}
        rows = [[ZERO] * len(labels[q]) for _ in index]
        for k, lab in enumerate(labels[q]):
            for tl, v in _monomial_d(lab):
                rows[index[tl]][k] = v
        mats.append(QMatrix(rows))
    return CochainComplexView(labels, mats)


def _standard_representatives(sset, n: int, cap: int, q: int) -> list:
    reps = []
    for w in range(cap + 1):
        view = _simplex_block_view(n, w)
        for vec in view.representatives(q):
            form = _form_of(simplex_context(n), zip(view.labels[q], vec))
            reps.append(_family_from_top(sset, n, q, form))
    return reps


# -- the comparison report ---------------------------------------------------


def _weight_ranks(cx: SullivanComplex, view: CochainComplexView) -> list:
    """Family cohomology ranks at every weight cap w <= cx.cap.

    The cap-w complex is the leading block of each degree, and d keeps
    it there (checked entry by entry), so the rank of its coboundary is
    the rank of the first columns of the full one.  That is the number
    of pivot columns before the block: a column is a pivot of the row
    echelon form exactly when it is independent of the columns before it.
    """
    pivots = []
    for q, mat in enumerate(view.mats):
        col_w = [_weight(lab) for _, lab in view.labels[q]]
        row_w = [_weight(lab) for _, lab in view.labels[q + 1]]
        vecs = [{j: x for j, x in enumerate(row) if x} for row in mat.rows]
        for i, vec in enumerate(vecs):
            if any(col_w[j] < row_w[i] for j in vec):
                raise NotAComplex(f"coboundary raises weight in degree {q}")
        span = LinearSpan()
        span.extend(vecs)
        pivots.append(list(span.pivots))
    out = []
    for w in range(cx.cap + 1):
        dims = cx.leading_dims(w)
        r = [sum(1 for p in piv if p < dims[q])
             for q, piv in enumerate(pivots)] + [0]
        out.append([dims[q] - r[q] - (r[q - 1] if q else 0)
                    for q in range(len(dims))])
    return out


def verify_de_rham(S: FiniteSimplicialSet, weight_cap: int | None = None) -> dict:
    """Full comparison between families and cochains on one space.

    Computes per-weight and total family cohomology ranks, cochain
    cohomology ranks, checks the integration map induces an isomorphism
    on the computed range, and solves for the coboundary that absorbs
    each sampled multiplicativity defect.  Raises CapInsufficient when
    raising the weight cap by 2 changes any rank, and CapExceeded up
    front for a cap below 0 or one whose cap + 2 passes the hard cap.

    One family complex at cap + 2 serves every lower cap through its
    leading blocks; a standard simplex sums its weight-graded blocks.
    """
    L = S.dimension
    cap = (L + 4) if weight_cap is None else weight_cap
    if cap < 0 or cap + 2 > HARD_WEIGHT_CAP:
        raise CapExceeded(
            f"weight cap {cap} outside 0..{HARD_WEIGHT_CAP - 2}: the "
            f"stability check needs cap + 2 <= {HARD_WEIGHT_CAP}")

    n = _is_standard_simplex(S)
    if n is not None:
        by_weight = list(itertools.accumulate(
            (_simplex_block_view(n, w).ranks() for w in range(cap + 3)),
            lambda total, r: [a + b for a, b in zip(total, r)]))
    else:
        cx = SullivanComplex(S, cap + 2)
        view = sullivan_view(cx)    # d∘d checked on every block at once
        by_weight = _weight_ranks(cx, view)
    per_weight = by_weight[:cap + 1]
    sull_ranks = per_weight[-1]
    stable_ranks = by_weight[cap + 2]
    if stable_ranks != sull_ranks:
        raise CapInsufficient(
            f"ranks moved from {sull_ranks} to {stable_ranks} "
            f"when the weight cap rose from {cap} to {cap + 2}")

    cview = cochain_complex(S)
    coch_ranks = cview.ranks()
    ranks_match = sull_ranks == coch_ranks

    # induced map on cohomology: inject family classes into cochain classes
    if n is not None:
        reps = [_standard_representatives(S, n, cap, q) for q in range(L + 2)]
    else:
        sub = view.leading(cx.leading_dims(cap))
        reps = [[cx.element(q, list(vec)) for vec in sub.representatives(q)]
                for q in range(L + 2)]
    induced_ok = True
    induced_details = []
    for q in range(L + 2):
        span = cview.image_span(q)
        order = {sid: i for i, sid in enumerate(cview.labels[q])}
        injected = 0
        for rep in reps[q]:
            coch = integrate_map(rep)
            vec = {order[sid]: v for sid, v in coch.values.items()}
            if coch.coboundary().is_zero() and span.add(vec):
                injected += 1
            else:
                induced_ok = False
        if injected != coch_ranks[q]:
            induced_ok = False
        induced_details.append({"degree": q, "classes": len(reps[q]),
                                "injected": injected,
                                "target_rank": coch_ranks[q]})

    # multiplicativity: the integration map fails to be a ring map only
    # by a coboundary, found explicitly
    pairs = 0
    mult_ok = True
    flat_reps = [(q, rep) for q in range(L + 2) for rep in reps[q]]
    for (p, u), (q, v) in itertools.product(flat_reps, repeat=2):
        if p + q > L:
            continue
        pairs += 1
        defect = integrate_map(u * v) - aw_product(integrate_map(u),
                                                  integrate_map(v))
        if p + q == 0:
            mult_ok &= defect.is_zero()
            continue
        target = [defect(sid) for sid in cview.labels[p + q]]
        mult_ok &= cview.mats[p + q - 1].solve(target) is not None

    ok = ranks_match and induced_ok and mult_ok
    return {
        "space": S.name,
        "weight_cap": cap,
        "per_weight": per_weight,
        "sullivan_ranks": sull_ranks,
        "cochain_ranks": coch_ranks,
        "ranks_match": ranks_match,
        "induced_map": induced_details,
        "induced_iso": induced_ok,
        "multiplicativity_pairs": pairs,
        "multiplicativity_ok": mult_ok,
        "ok": ok,
    }
