"""Compatible families of simplex forms and the de Rham comparison.

A family assigns a polynomial form to every nondegenerate simplex of a
finite simplicial set so that face pullbacks match.  These families are
a graded-commutative algebra; integrating each form over its simplex
lands in normalized cochains, and the induced map on cohomology is an
isomorphism.  This module computes bases of such families by exact
linear algebra, the cohomology of both sides, the induced map, and the
multiplicativity defect (which must lie in the span of the coboundaries).

A family is fixed by its forms on the maximal simplices, the simplices
that are no face of another; every other form is a restriction of
those, so the compatibility solve has its unknowns there alone.  Each
simplex has a reference: a maximal simplex and its vertex positions
there.  Along every face map, the restricted reference must equal the
face's own, one equation per target label (none when both are one face
of one maximal simplex).  So the equations grow with the face maps, not
with the 2^(m+1) vertex subsets of an m-simplex, and a standard simplex
has none: its coordinates are the top-cell monomials.

Polynomial degree plus form degree ("weight") is not preserved by
vertex evaluations, so the family spaces are filtered, not graded, by
weight: a family has weight at most w when all of its terms do.

Face pullbacks and d never raise weight (d keeps it).  The compatibility
solve lists the labels of each degree by weight first, so the families
of weight <= w are exactly the leading free labels, the cap-w complex is
the leading block of every higher-cap one, and d is block upper
triangular.  verify_de_rham therefore builds one complex, at the cap,
and reads every lower cap's ranks off its leading blocks.  Coboundaries
are sparse: one {column: coefficient} row per label of the next degree.

Each coboundary is eliminated once, to a row echelon form whose pivots
are least columns, and everything is read off that one echelon:
- the rank of the cap-w block is the number of pivots before it, since
  a column is a pivot exactly when it is independent of the columns
  before it and d keeps the leading block (the weight check);
- the cocycles are the kernel of the echelon, with one basis vector per
  free label;
- the previous coboundary's rows at those free labels span all its
  rows, so only they are eliminated, and the ones that enlarge its
  echelon fix a coboundary by its values there;
- the cohomology representatives are the basis cocycles at the other
  free labels.
The representatives are exact because d∘d = 0, checked on the whole
view, makes every coboundary a cocycle, and a cocycle's values at the
free labels are its coordinates on the basis cocycles.

The complex at the cap certifies the comparison on its own.  When the
family and cochain ranks agree and the integrals of the
representatives are independent cochain classes, integration is an
injective map between spaces of equal finite dimension, so an
isomorphism.  When not, Whitney's elementary forms (Whitney, Geometric
Integration Theory, 1957; Dupont, Topology 15, 1976) tell a low cap
from a failed comparison.  On the m-simplex, the face I = (i_0 < .. <
i_q) has

    omega_I = q! sum_k (-1)^k t_(i_k) dt_(I minus i_k),

and a q-cochain z has E(z) = sum over faces I of z(face I) omega_I on
every simplex: a compatible family of weight at most q + 1 with
d E = E delta and integral z.  (On a cocycle the weight is q: the
weight q + 1 part of E(z) is q! times the Euler contraction of
sum_I z(I) dt_I = d E(z) / (q + 1)! = 0.)  So a cochain class that no
family of the cap hits either has a Whitney form of weight above the
cap (CapError), or E(z) is a family cocycle of the cap that hits
it, and the comparison has failed.

Coefficients stay Python ints from the label caches to the d∘d check:
face images are signed multinomials, d has the signed exponents, the
compatibility rows are differences of face images, and `LinearSpan.kernel`
returns an int wherever the reduced entry is integral (every entry, on
the shipped spaces and the 7-vertex torus).  The columns are ints too:
`sparse_nullspace` numbers the labels of a degree once, in solve order,
and eliminates in the natural order of those numbers; a degree with no
equations (a standard simplex, the top degree) builds no span.
Coordinates and coboundaries add up from 0, so a Fraction appears only
where a kernel entry is not integral; equality stays exact either way.
Forms, cochains and reports are Fractions.

The comparison integrates and multiplies families on these labels too,
without building forms.  A family's labels on the maximal simplices are
restricted face by face through `_face_image` to every other simplex,
so positions are read off the faces, never off the vertex numbers.
t^a dt_1..dt_q integrates over the q-simplex to prod(a_i!) / (|a| +
q)!, the Dirichlet integral.  The product of t^a dt_I and t^b dt_J on
a simplex of dimension |I| + |J| is top-degree only when J is the
complement of I, and then it is the wedge sign (-1 to the number of
pairs j < i, i in I, j in J) times t^(a+b) dt_1..dt_(|I|+|J|).
Integrals, products and multiplicativity defects are normalized
cochains kept as {sid: value} dicts (`simplicial.aw_product` multiplies
them), each read once as an index vector of `cochain_complex`, whose
`mats` are the one coboundary.  The independent oracles of these
labels and of that coboundary, the form route (a `DiffForm` on every
simplex, pulled back and integrated form by form) and a face-walking
coboundary, live in tests/derham_oracles.py.
"""

from __future__ import annotations

import bisect
import itertools
import math
from functools import cached_property, lru_cache

from .errors import CapError, CheckFailed, ParseError
from .exactalg import LinearSpan
from .simplicial import FiniteSimplicialSet, aw_product, dirichlet_integral

HARD_WEIGHT_CAP = 24

# hard cap on the labels of every simplex at the weight cap, whatever the
# space: in process on 2 vCPUs, the boundary of the 4-simplex takes
# 0.21-0.25 s at the default cap 7 (4,160 labels), 0.71-0.99 s at cap 9
# (7,800) and 1.05-1.71 s at cap 10 (10,230, the largest admitted; cap 11
# has 13,120), and the dimension-22 chain 4.5-5.3 s at cap 2 (cap 3 has
# 93,633); the 3-simplex has 1,121 at its default cap 7 and the
# 5-simplex 77,505 at 9
MAX_FAMILY_LABELS = 12_000


# -- per-simplex monomial coordinates ----------------------------------------
#
# A monomial label (exp, mono) stands for t^exp dt_mono on the simplex of
# dimension len(exp).  The per-label caches below hand out tuples of
# (label, int coefficient) pairs, so no caller can change a cached value.


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


# The label caches are bounded so that a long-lived process stays
# bounded.  Each bound is a power of two above the entries left by a
# derham pass, by verify-all and by verify_de_rham on the boundary of
# the 4-simplex at cap 10 (the largest admitted sphere), run in one
# process: 91 weight blocks, 6,314 face images and 1,658 derivatives.
# The dimension-22 chain at cap 2 makes 143,972 face images, but reads
# each soon after it is made: at 8,192 it misses 22 more times.
# Whitney forms are built for one cochain, of a class no family hits,
# one per dimension and face it meets: 4 on the boundary of the
# 4-simplex at cap 0, at most C(11, 5) = 462 on a set of dimension 9.
@lru_cache(maxsize=256)
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


@lru_cache(maxsize=8192)
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
                 1),)
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
            out += [((image, dm), sign * c) for dm, sign in dts]
    return tuple(out)


@lru_cache(maxsize=2048)
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
            out.append(((dexp, dmono), -a if below % 2 else a))
    return tuple(out)


def _restrict(m: int, i: int, labels: dict) -> dict:
    """Pullback of the form {label: c} on the m-simplex along face(m, i)."""
    out: dict = {}
    for lab, c in labels.items():
        for tl, v in _face_image(m, i, lab):
            out[tl] = out.get(tl, 0) + c * v
    return {tl: v for tl, v in out.items() if v}


def _wedge_sign(mono) -> int:
    """The sign of dt_I dt_J = +-dt_0..dt_(m-1) over the label positions
    0..m-1, J the complement of I.

    It is -1 to the number of pairs j < i with i in I and j in J; below
    the k-th entry i of I lie i positions, k of them in I.
    """
    return -1 if sum(i - k for k, i in enumerate(mono)) % 2 else 1


def _label_integral(labels: dict):
    """Integral of a top-degree form {label: c} over its simplex.

    t^a dt_1..dt_q integrates to prod(a_i!) / (|a| + q)! over the
    q-simplex (`dirichlet_integral`).
    """
    return sum(c * dirichlet_integral(len(exp), exp)
               for (exp, _), c in labels.items())


def _product_integral(m: int, u: dict, v: dict):
    """Integral over the m-simplex of the product of two forms {label: c}
    whose degrees add up to m.

    t^a dt_I times t^b dt_J is zero unless J is the complement of I, and
    then it is sign(I, J) t^(a+b) dt_0..dt_(m-1).
    """
    by_mono: dict = {}
    for (b, mono), d in v.items():
        by_mono.setdefault(mono, []).append((b, d))
    total = 0
    for (a, mono), c in u.items():
        rest = tuple(k for k in range(m) if k not in mono)
        for b, d in by_mono.get(rest, ()):
            total += _wedge_sign(mono) * c * d * dirichlet_integral(
                m, tuple(x + y for x, y in zip(a, b)))
    return total


@lru_cache(maxsize=512)
def _whitney_form(m: int, face_vertices: tuple) -> tuple:
    """Whitney's form omega_I of the face I of the m-simplex, as (label,
    coeff) pairs.

    omega_I = q! sum_k (-1)^k t_(i_k) dt_(I minus i_k) for I = (i_0 < ..
    < i_q).  Vertex j >= 1 is label position j - 1, t_0 = 1 - sum_j t_j
    and dt_0 = -sum_j dt_j; each product of dt's is sorted with the sign
    of its permutation.
    """
    q = len(face_vertices) - 1
    zero = (0,) * m

    def t(v):
        if v:
            return [(zero[:v - 1] + (1,) + zero[v:], 1)]
        return [(zero, 1)] + [(zero[:p] + (1,) + zero[p + 1:], -1)
                              for p in range(m)]

    def dt(v):
        return [(v - 1, 1)] if v else [(p, -1) for p in range(m)]

    out: dict = {}
    for k, v in enumerate(face_vertices):
        rest = face_vertices[:k] + face_vertices[k + 1:]
        for picks in itertools.product(*map(dt, rest)):
            positions = [p for p, _ in picks]
            if len(set(positions)) < q:
                continue
            swaps = sum(a > b for a, b in itertools.combinations(positions, 2))
            coeff = (-1) ** (k + swaps) * math.factorial(q) * math.prod(
                x for _, x in picks)
            mono = tuple(sorted(positions))
            for exp, a in t(v):
                out[(exp, mono)] = out.get((exp, mono), 0) + a * coeff
    return tuple((lab, c) for lab, c in out.items() if c)


def _whitney_family(S: FiniteSimplicialSet, q: int, z: dict) -> dict:
    """{sid: {label: c}}: E(z) = sum over the faces I of z(face I) omega_I
    on every simplex, for a q-cochain z = {sid: value}.

    Normalized cochains vanish on degenerate faces, and a regular set
    has none, so every face I is a stored simplex.
    """
    out = {}
    for sid, m in S.simplices.items():
        labels: dict = {}
        for I in itertools.combinations(range(m + 1), q + 1):
            c = z.get(S.subface(sid, I), 0)
            if not c:
                continue
            for lab, v in _whitney_form(m, I):
                labels[lab] = labels.get(lab, 0) + c * v
        labels = {lab: v for lab, v in labels.items() if v}
        if labels:
            out[sid] = labels
    return out


def _hits_as_family_cocycle(S: FiniteSimplicialSet, q: int, family: dict,
                            z: dict) -> bool:
    """Whether {sid: {label: c}} is compatible along every face, closed
    on every simplex, and integrates to the q-cochain z = {sid: value}."""
    for sid, m in S.simplices.items():
        on = family.get(sid, {})
        if any(_restrict(m, i, on) != family.get(S.face(sid, i), {})
               for i in range(m + 1 if m else 0)):
            return False
        d: dict = {}
        for lab, c in on.items():
            for tl, v in _monomial_d(lab):
                d[tl] = d.get(tl, 0) + c * v
        if any(d.values()):
            return False
    return all(_label_integral(family.get(sid, {})) == z.get(sid, 0)
               for sid in S.simplices_of(q))


# -- sparse kernel solver ----------------------------------------------------


def sparse_nullspace(rows: list, order: dict) -> list:
    """Basis of the solution space of sparse homogeneous equations.

    Rows are dicts {label: coefficient}; `order` maps labels to a total
    order position.  Returns one (free label, solution vector) pair per
    free label, in label order; the vector is 1 at its own free label
    and 0 at every other free label.

    The labels are numbered once in that order and eliminated as int
    columns, in their natural order; with no equations every label is
    free, and no span is built.
    """
    labels = sorted(order, key=order.__getitem__)
    if not rows:
        return [(lab, {lab: 1}) for lab in labels]
    column = {lab: k for k, lab in enumerate(labels)}
    span = LinearSpan()
    span.extend({column[lab]: c for lab, c in row.items()} for row in rows)
    return [(labels[f], {labels[k]: x for k, x in vec.items()})
            for f, vec in span.kernel(range(len(labels)))]


# -- compatible families -----------------------------------------------------


def _check_label_budget(sset: FiniteSimplicialSet, cap: int) -> None:
    """Refuse a family complex with more than MAX_FAMILY_LABELS labels at
    the cap: C(m, q) dt-monomials times C(cap - q + m, m) t-monomials of
    weight <= cap on each m-simplex, summed over the degrees q."""
    count = sum(math.comb(m, q) * math.comb(cap - q + m, m)
                for m in map(sset.dim_of, sset.simplices)
                for q in range(min(m, cap) + 1))
    if count > MAX_FAMILY_LABELS:
        raise CapError(
            f"the family complex at weight {cap} has "
            f"{count} labels, past the cap of {MAX_FAMILY_LABELS}")


class SullivanComplex:
    """Exact coordinates for the family complex of one simplicial set.

    Degrees run 0..dimension; coordinates are the free labels of the
    compatibility solve, whose unknowns are the labels on the maximal
    simplices.
    """

    def __init__(self, sset: FiniteSimplicialSet, weight_cap: int):
        if weight_cap > HARD_WEIGHT_CAP:
            raise CapError(
                f"weight cap {weight_cap} above hard cap {HARD_WEIGHT_CAP}")
        _check_label_budget(sset, weight_cap)
        self.sset = sset
        self.cap = weight_cap
        self.L = sset.dimension
        faces = {fsid for fs in sset.faces.values() for fsid in fs}
        self._maximal = sorted(set(sset.simplices) - faces)
        # each simplex is read as the face of one maximal simplex on some
        # of its vertex positions, the first found breadth first.  `_tree`
        # holds the face maps that found a simplex, `_glued` the others,
        # but for those that find the same face of the same maximal
        # simplex again (the face maps' identities make those agree)
        queue = list(self._maximal)
        ref = {top: (top, tuple(range(sset.dim_of(top) + 1)))
               for top in queue}
        self._tree, self._glued = [], []
        for sid in queue:
            top, keep = ref[sid]
            for i, fsid in enumerate(sset.faces.get(sid, ())):
                if fsid not in ref:
                    ref[fsid] = (top, keep[:i] + keep[i + 1:])
                    self._tree.append((sid, i, fsid))
                    queue.append(fsid)
                elif ref[fsid] != (top, keep[:i] + keep[i + 1:]):
                    self._glued.append((sid, i, fsid))
        self._coords: dict = {}
        self._vectors: dict = {}
        for q in range(self.L + 2):
            self._solve_degree(q)
        # coordinates are weight-ascending, so these lists are sorted
        self._weights = [[_weight(lab) for _, lab in self._coords[q]]
                         for q in range(self.L + 2)]

    def _solve_degree(self, q: int):
        sset, cap = self.sset, self.cap
        # weight first: the weight <= w families are the leading free labels
        labels = [(sid, lab) for w in range(q, cap + 1)
                  for sid in self._maximal
                  for lab in _simplex_weight_block(sset.dim_of(sid), q, w)]
        order = {lab: k for k, lab in enumerate(labels)}
        # with no unknowns there is nothing to equate
        glued = [(sid, i, fsid) for sid, i, fsid in self._glued
                 if sset.dim_of(sid) > q] if labels else []
        columns = self._columns(q) if glued else {}
        # one equation per target label and glued face map: the simplex's
        # forms restricted to the face equal the face's own
        rows = []
        for sid, i, fsid in glued:
            row_of: dict = {}
            for key, form in columns[fsid].items():
                for tl, c in form.items():
                    row_of.setdefault(tl, {})[key] = c
            for key, form in columns[sid].items():
                for tl, c in _restrict(sset.dim_of(sid), i, form).items():
                    row = row_of.setdefault(tl, {})
                    row[key] = row.get(key, 0) - c
            rows += [row for row in ({key: c for key, c in r.items() if c}
                                     for r in row_of.values()) if row]
        basis = sparse_nullspace(rows, order)
        self._coords[q] = [flab for flab, _ in basis]
        self._vectors[q] = [vec for _, vec in basis]

    def _columns(self, q: int) -> dict:
        """{sid: {unknown: form}}: each degree-q unknown, a label on a
        maximal simplex, restricted to every simplex of dimension >= q
        along the face maps that found the simplex."""
        sset = self.sset
        columns = {top: {(top, lab): {lab: 1} for lab in
                         _simplex_labels(sset.dim_of(top), q, self.cap)}
                   for top in self._maximal}
        for sid, i, fsid in self._tree:
            if sset.dim_of(fsid) >= q:
                columns[fsid] = {key: _restrict(sset.dim_of(sid), i, form)
                                 for key, form in columns[sid].items()}
        return columns

    def dim(self, q: int) -> int:
        return len(self._vectors.get(q, ()))

    def leading_dims(self, w: int) -> list:
        """Per degree, the number of basis families of weight <= w.

        Those families are the first ones of each degree.
        """
        return [bisect.bisect(ws, w) for ws in self._weights]

    def _label_vector(self, q: int, vec_or_index) -> dict:
        """The {(sid, label): c} vector of a degree-q family, given by its
        index in the basis or by coordinates over it (a list or
        {index: c})."""
        if isinstance(vec_or_index, int):
            return self._vectors[q][vec_or_index]
        coords = vec_or_index.items() if isinstance(vec_or_index, dict) \
            else enumerate(vec_or_index)
        vec = {}
        for k, c in coords:
            if not c:
                continue
            for lab, v in self._vectors[q][k].items():
                s = vec.get(lab, 0) + c * v
                if s:
                    vec[lab] = s
                else:
                    vec.pop(lab, None)
        return vec

    def simplex_labels(self, q: int, vec_or_index) -> dict:
        """{sid: {label: c}}: a degree-q family (as `_label_vector` reads
        it) on each simplex of dimension >= q, in monomial labels.

        The labels on the maximal simplices are restricted face by face
        through `_face_image`, along the face maps that found each
        simplex: face i of a simplex drops its position i.
        """
        on: dict = {}
        for (sid, lab), c in self._label_vector(q, vec_or_index).items():
            on.setdefault(sid, {})[lab] = c
        for sid, i, fsid in self._tree:
            if sid in on and self.sset.dim_of(fsid) >= q:
                on[fsid] = _restrict(self.sset.dim_of(sid), i, on[sid])
        return on

    def d_matrix(self, q: int) -> list:
        """d from degree q to q + 1 in the family bases, as sparse rows.

        d acts label by label on the stored vectors.  A family of degree
        q + 1 is the sum of its values at the free labels times the basis
        families, so column k is d of family k read at those labels; row
        r is the {column: coefficient} dict of free label r.
        """
        index = {lab: r for r, lab in enumerate(self._coords[q + 1])}
        rows = [{} for _ in index]
        for k, vec in enumerate(self._vectors[q]):
            for (sid, lab), c in vec.items():
                for tl, v in _monomial_d(lab):
                    r = index.get((sid, tl))
                    if r is not None:
                        rows[r][k] = rows[r].get(k, 0) + c * v
        return [{k: v for k, v in row.items() if v} for row in rows]


# -- cochain complexes and cohomology ----------------------------------------


class CochainComplexView:
    """Bases and sparse coboundaries of a finite rational complex.

    mats[q] is d from degree q to q + 1: one {column: coefficient} row
    per label of degree q + 1, columns indexing the degree-q labels.
    """

    def __init__(self, labels: list, mats: list):
        self.labels = labels
        self.mats = mats
        self.__post_init__()

    def __post_init__(self):
        """Check the shapes and d∘d = 0."""
        for q, mat in enumerate(self.mats):
            if q + 1 >= len(self.labels) or \
                    len(mat) != len(self.labels[q + 1]) or \
                    any(j >= len(self.labels[q]) for row in mat for j in row):
                raise ParseError("coboundary shapes do not chain")
        for q in range(len(self.mats) - 1):
            a = self.mats[q]
            # every row of b a, summed over the nonzero entries only
            for b_row in self.mats[q + 1]:
                out: dict = {}
                for i, v in b_row.items():
                    for j, x in a[i].items():
                        out[j] = out.get(j, 0) + v * x
                if any(out.values()):
                    raise CheckFailed(
                        f"coboundary squared nonzero in degree {q}")

    @cached_property
    def echelons(self) -> list:
        """(echelon, rows) for each coboundary, built on first use, top
        degree first.

        The rows of mats[q] at the free labels of the echelon above
        span all of its rows: each coboundary is a cocycle (d∘d = 0),
        and a cocycle is fixed by its values at those labels.  So only
        they are eliminated, fewest nonzeros first, and `rows` keeps the
        labels whose row enlarged the span.  A coboundary's values at
        them fix it, since those rows span the rest.  `ranks` and
        `representatives` read every leading block off these.
        """
        out = [None] * len(self.mats)
        free = range(len(self.labels[len(self.mats)]))
        for q in reversed(range(len(self.mats))):
            mat, span, rows = self.mats[q], LinearSpan(), set()
            for i in sorted(free, key=lambda i: len(mat[i])):
                if span.add(mat[i]):
                    rows.add(i)
            out[q] = (span, rows)
            free = [j for j in range(len(self.labels[q]))
                    if j not in span.pivots]
        return out

    def ranks(self, dims: list | None = None) -> list:
        """Cohomology ranks per degree of the leading blocks `dims`.

        dims[q] counts the leading labels of degree q (all of them by
        default).  When d maps each leading block into the next, the
        rank of the block of mats[q] is the rank of its first dims[q]
        columns: the number of pivots before dims[q], since a column is
        a pivot of the row echelon form exactly when it is independent
        of the columns before it.
        """
        dims = dims or [len(labels) for labels in self.labels]
        r = [sum(1 for p in span.pivots if p < dims[q])
             for q, (span, _) in enumerate(self.echelons)] + [0]
        return [dims[q] - r[q] - (r[q - 1] if q else 0)
                for q in range(len(dims))]

    def image_span(self, q: int) -> LinearSpan:
        """Span of the degree-q coboundaries, the columns of mats[q-1]."""
        columns: dict = {}
        if q > 0:
            for i, row in enumerate(self.mats[q - 1]):
                for j, x in row.items():
                    columns.setdefault(j, {})[i] = x
        span = LinearSpan()
        span.extend(columns.values())
        return span

    def representatives(self, q: int) -> list:
        """Cocycles {index: c} whose classes span degree-q cohomology.

        The cocycles are the kernel of the echelon of mats[q], with one
        basis vector per free label.  The rows of mats[q-1] that built
        its echelon sit at free labels, and a coboundary's values there
        fix it, so no nonzero coboundary lies in the span of the kernel
        vectors at the other free labels: those complete the
        coboundaries to a basis of the cocycles.
        """
        echelon = self.echelons[q][0] if q < len(self.mats) else LinearSpan()
        rows = self.echelons[q - 1][1] if q > 0 else set()
        return [vec for f, vec in echelon.kernel(range(len(self.labels[q])))
                if f not in rows]


def cochain_complex(S: FiniteSimplicialSet) -> CochainComplexView:
    """Normalized cochains of a finite simplicial set, in coordinates."""
    L = S.dimension
    labels = [S.simplices_of(q) for q in range(L + 2)]
    mats = []
    for q in range(L + 1):
        col = {sid: j for j, sid in enumerate(labels[q])}
        rows = []
        for tid in labels[q + 1]:
            row: dict = {}
            for i in range(q + 2):
                j = col[S.face(tid, i)]
                row[j] = row.get(j, 0) + (-1) ** i
            rows.append({j: x for j, x in row.items() if x})
        mats.append(rows)
    return CochainComplexView(labels, mats)


def sullivan_view(cx: SullivanComplex) -> CochainComplexView:
    labels = [cx._coords.get(q, []) for q in range(cx.L + 2)]
    mats = [cx.d_matrix(q) for q in range(cx.L + 1)]
    return CochainComplexView(labels, mats)


# -- the comparison report ---------------------------------------------------


def _weight_ranks(cx: SullivanComplex, view: CochainComplexView) -> list:
    """Family cohomology ranks at every weight cap w <= cx.cap.

    The cap-w complex is the leading block of each degree, and d keeps
    it there (checked entry by entry), so its ranks are read off the
    echelons of the full coboundaries (`CochainComplexView.ranks`).
    """
    for q, mat in enumerate(view.mats):
        col_w, row_w = cx._weights[q], cx._weights[q + 1]
        for i, row in enumerate(mat):
            if any(col_w[j] < row_w[i] for j in row):
                raise CheckFailed(f"coboundary raises weight in degree {q}")
    return [view.ranks(cx.leading_dims(w)) for w in range(cx.cap + 1)]


def _whitney_verdict(S: FiniteSimplicialSet, cap: int,
                     cview: CochainComplexView, q: int, z: dict) -> None:
    """Tell a low cap from a failed comparison, by Whitney forms.

    z = {index: c} is a degree-q cocycle of `cview` whose class no
    family of the cap hits.  Its Whitney form E(z) hits it.  When E(z)
    has weight above the cap, CapError names the degree and that
    weight.  Within the cap, E(z) is checked to be a family cocycle
    integrating to z, which leaves the comparison failed; a Whitney
    form that fails that check raises CheckFailed.
    """
    values = {cview.labels[q][i]: c for i, c in z.items()}
    family = _whitney_family(S, q, values)
    weight = max(_weight(lab) for on in family.values() for lab in on)
    if weight > cap:
        raise CapError(
            f"a degree-{q} cochain class is hit by no family of "
            f"weight at most {cap}; its Whitney form, which hits "
            f"it, has weight {weight}")
    if not _hits_as_family_cocycle(S, q, family, values):
        raise CheckFailed(
            f"the Whitney form of a degree-{q} cochain class is "
            f"not a family cocycle integrating to it")


def verify_de_rham(S: FiniteSimplicialSet, weight_cap: int | None = None) -> dict:
    """Full comparison between families and cochains on one space.

    Computes per-weight and total family cohomology ranks, cochain
    cohomology ranks, checks the integration map induces an isomorphism
    on the computed range, and checks that each sampled multiplicativity
    defect lies in the span of the coboundaries.  Raises CapError up
    front for a cap outside 0..HARD_WEIGHT_CAP or a family complex past
    MAX_FAMILY_LABELS, and CapError when a cochain class is hit
    by no family of the cap and its Whitney form lies above it
    (`_whitney_verdict`).  A class of degree above the cap is refused so
    before the family complex is built: a degree-q family has weight at
    least q.

    One family complex at the cap serves every lower cap through its
    leading blocks, and one echelon of each of its coboundaries serves
    the ranks at every cap and the representatives.  Equal ranks and
    representatives whose integrals are independent classes certify
    the isomorphism.  The representatives are integrated and multiplied
    on their monomial labels (`simplex_labels`, `_label_integral`,
    `_product_integral`).
    """
    L = S.dimension
    cap = (L + 4) if weight_cap is None else weight_cap
    if not 0 <= cap <= HARD_WEIGHT_CAP:
        raise CapError(f"weight cap {cap} outside 0..{HARD_WEIGHT_CAP}")

    _check_label_budget(S, cap)
    cview = cochain_complex(S)
    coch_ranks = cview.ranks()
    # a degree-q family has weight at least q, so no family of the cap
    # hits a class of degree above it: the first such class is refused
    # before any family solve
    for q in range(cap + 1, L + 1):
        for z in cview.representatives(q)[:1]:
            _whitney_verdict(S, cap, cview, q, z)

    cx = SullivanComplex(S, cap)
    view = sullivan_view(cx)    # d∘d checked on every block at once
    per_weight = _weight_ranks(cx, view)
    sull_ranks = per_weight[-1]
    ranks_match = sull_ranks == coch_ranks

    # cochains are {sid: value} dicts, each read as an index vector once.
    # The induced map on cohomology injects family classes into cochain
    # classes: closed under cview's coboundary, a cocycle's class is its
    # residual against the coboundaries
    reps = []
    for q, sids in enumerate(cview.labels):
        reps.append([])
        for vec in view.representatives(q):
            on = cx.simplex_labels(q, vec)
            reps[q].append((on, {sid: _label_integral(on[sid])
                                 for sid in sids if sid in on}))
    images = [cview.image_span(q) for q in range(L + 2)]
    induced_ok = True
    induced_details = []
    hit = []
    for q, sids in enumerate(cview.labels):
        classes = LinearSpan()
        injected = 0
        for _, integral in reps[q]:
            vec = {i: integral[sid] for i, sid in enumerate(sids)
                   if integral.get(sid)}
            closed = not any(sum(x * vec.get(j, 0) for j, x in row.items())
                             for row in cview.mats[q])
            if closed and classes.add(images[q].reduce(vec)):
                injected += 1
            else:
                induced_ok = False
        if injected != coch_ranks[q]:
            induced_ok = False
        hit.append(classes)
        induced_details.append({"degree": q, "classes": len(reps[q]),
                                "injected": injected,
                                "target_rank": coch_ranks[q]})
    if not (ranks_match and induced_ok):
        for q, classes in enumerate(hit):
            for z in cview.representatives(q):
                if classes.add(images[q].reduce(z)):
                    _whitney_verdict(S, cap, cview, q, z)

    # multiplicativity: the integration map fails to be a ring map only
    # by a coboundary
    pairs = 0
    mult_ok = True
    flat_reps = [(q, rep) for q in range(L + 2) for rep in reps[q]]
    for (p, (u, iu)), (q, (v, iv)) in itertools.product(flat_reps, repeat=2):
        if p + q > L:
            continue
        pairs += 1
        aw = aw_product(S, p, iu, q, iv)
        defect = {}
        for i, sid in enumerate(cview.labels[p + q]):
            cup = _product_integral(p + q, u[sid], v[sid]) \
                if sid in u and sid in v else 0
            if cup != aw.get(sid, 0):
                defect[i] = cup - aw.get(sid, 0)
        mult_ok &= images[p + q].contains(defect)

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
