"""Polynomial forms on simplices, exact integration, simplicial sets.

A `DeltaMorphism` is a monotone map of vertex sets; pulling a form back
along one is variable substitution.  Integration over a simplex is the
Dirichlet integral, done exactly in rationals.  Of the cochain side
only the front/back-face product lives here, on plain {sid: value}
dicts; the coboundary is `sullivan.cochain_complex`, in coordinates.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

from .errors import CapError, ParseError
from .dgforms import DGContext, DiffForm
from .exactalg import MultiPoly, RatFunc, parse_integer


# -- the simplex category ----------------------------------------------------


class DeltaMorphism:
    """Monotone nondecreasing map [source] -> [target] of vertex sets."""

    def __init__(self, source: int, target: int, values):
        self.source = source
        self.target = target
        self.values = tuple(values)
        if len(self.values) != self.source + 1:
            raise ParseError(
                f"map on [{self.source}] needs {self.source + 1} values")
        if any(not 0 <= v <= self.target for v in self.values):
            raise ParseError(
                f"values {self.values} escape [{self.target}]")
        if any(a > b for a, b in zip(self.values, self.values[1:])):
            raise ParseError(f"values {self.values} not monotone")

    def __eq__(self, other):
        if not isinstance(other, DeltaMorphism):
            return NotImplemented
        return (self.source, self.target, self.values) == \
            (other.source, other.target, other.values)

    def __hash__(self):
        return hash((self.source, self.target, self.values))

    def __call__(self, i: int) -> int:
        return self.values[i]

    def preimage(self, j: int) -> tuple[int, ...]:
        return tuple(i for i, v in enumerate(self.values) if v == j)


# -- forms on simplices ------------------------------------------------------


def pullback_along(sigma: DeltaMorphism, form: DiffForm) -> DiffForm:
    """Pull a form back along a simplex-category morphism.

    The simplex factor of the context must have dimension target(sigma);
    base and inert variables ride along unchanged.  Coordinates map by
    t_j goes to the sum of t_i over the preimage of j, with the usual
    t_0 elimination on both sides.
    """
    src = form.ctx
    n = len(src.simplex_vars)
    if n != sigma.target:
        raise ParseError(
            f"form lives on a {n}-simplex, morphism lands in [{sigma.target}]")
    m = sigma.source
    tgt = DGContext(tuple(f"t{i}" for i in range(1, m + 1)),
                    src.base_vars, src.inert_vars)
    even_images: dict = {}
    odd_images: dict = {}
    for j in range(1, n + 1):
        pre = sigma.preimage(j)
        even = tgt.ring_const(0)
        odd = tgt.zero_form()
        for i in pre:
            even = even + tgt.t_coeff(i)
            odd = odd + tgt.dt(i)
        even_images[src.simplex_vars[j - 1]] = even
        odd_images[j - 1] = odd
    return form.substitute(tgt, even_images, odd_images)


def dirichlet_integral(l: int, exponents) -> Fraction:
    """Exact integral of a monomial over the l-simplex.

    Integrates t_1^a_1 .. t_l^a_l against dt_1..dt_l; the value is
    prod(a_i!) / (l + sum a)!.
    """
    num = 1
    for a in exponents:
        num *= math.factorial(a)
    return Fraction(num, math.factorial(l + sum(exponents)))


def integrate_over_simplex(form: DiffForm) -> Fraction:
    """Integrate the top simplex-degree part of a form, exactly.

    This is `fiber_integrate` over a point.  Terms of simplex odd-degree
    below the simplex dimension integrate to zero by convention; terms
    carrying base differentials, and a top coefficient that is no
    polynomial in the simplex variables alone, are rejected (use
    fiber_integrate for those).
    """
    l = len(form.ctx.simplex_vars)
    if any(i >= l for mono in form.terms for i in mono):
        raise ParseError(
            "base differentials present; use fiber_integrate")
    top = form.terms.get(tuple(range(l)))
    if top is not None and (not top.den.is_constant()
                            or any(any(exp[l:]) for exp in top.num.coeffs)):
        raise ParseError(
            "coefficient involves base variables or a denominator; "
            "use fiber_integrate")
    value = fiber_integrate(form).terms.get(())
    if value is None:
        return Fraction(0)
    return value.num.constant_term() / value.den.constant_term()


def fiber_integrate(form: DiffForm) -> DiffForm:
    """Integrate out the simplex factor, leaving a base-context form.

    Picks the terms with the full dt_1..dt_l factor, Dirichlet-integrates
    their t-dependence, and reindexes the remaining base differentials.
    Each numerator is built as one polynomial keyed by the base part of
    its exponents and divided once by the denominator.  Simplex
    variables may not occur in denominators.
    """
    ctx = form.ctx
    l = len(ctx.simplex_vars)
    base = DGContext((), ctx.base_vars, ctx.inert_vars)
    top = tuple(range(l))
    terms = {}
    for mono, c in form.terms.items():
        if mono[:l] != top:
            continue
        num: dict = {}
        for exp, v in c.num.coeffs.items():
            tail = exp[l:]
            num[tail] = num.get(tail, 0) + v * dirichlet_integral(l, exp[:l])
        terms[tuple(i - l for i in mono[l:])] = RatFunc(
            MultiPoly(base.even_vars, num),
            _drop_simplex_vars(ctx, base, c.den))
    return DiffForm(base, terms)


def _drop_simplex_vars(src: DGContext, base: DGContext, poly):
    l = len(src.simplex_vars)
    coeffs = {}
    for exp, v in poly.coeffs.items():
        if any(exp[:l]):
            raise ParseError("simplex variable in a denominator")
        coeffs[exp[l:]] = v
    return MultiPoly(base.even_vars, coeffs)


# -- finite simplicial sets --------------------------------------------------


# hard cap on the dimension of a simplex of a finite simplicial set: the
# simplicial identities cost O(m^2) face lookups per m-simplex, and the
# family solve grows with m as well.  In process on 2 vCPUs, a chain of
# one simplex per dimension loads in 3 ms at dimension 32 and 5.4 s at
# 400, and `derham --weight-cap 1` on it takes 0.26 s at dimension 22,
# 0.85 s at 32, 3.3 s at 48 and 41 s at 100
MAX_DIMENSION = 32


class FiniteSimplicialSet:
    """Nondegenerate simplices with face maps, dimensions bounded.

    Only regular sets are supported: each face of a nondegenerate
    simplex must itself be nondegenerate, so the face maps are total on
    the stored simplices.  `vertices` optionally records vertex tuples
    for subsets of a standard simplex, which the comparison map uses.
    `simplices`, `faces` and `vertices` are read-only mappings with
    tuple values, so the cached sets below can be shared safely.
    """

    def __init__(self, name: str, simplices: dict, faces: dict,
                 vertices: dict | None = None):
        self.name = name
        self.simplices = MappingProxyType(dict(simplices))  # id -> dimension
        self.faces = MappingProxyType(
            {k: tuple(v) for k, v in faces.items()})
        self.vertices = MappingProxyType(
            {k: tuple(v) for k, v in vertices.items()}) if vertices else None
        self._validate()

    def _validate(self):
        for sid, dim in self.simplices.items():
            if not isinstance(dim, int) or dim < 0:
                raise ParseError(f"bad dimension for simplex {sid!r}")
            if dim > MAX_DIMENSION:
                raise CapError(f"simplex {sid!r} has dimension {dim}, "
                               f"past the cap of {MAX_DIMENSION}")
            if dim == 0:
                if sid in self.faces:
                    raise ParseError(f"vertex {sid!r} lists faces")
                continue
            fs = self.faces.get(sid)
            if fs is None or len(fs) != dim + 1:
                raise ParseError(
                    f"simplex {sid!r} of dimension {dim} needs {dim + 1} faces")
            for fid in fs:
                fdim = self.simplices.get(fid)
                if fdim is None:
                    raise ParseError(f"unknown face {fid!r} of {sid!r}")
                if fdim != dim - 1:
                    raise ParseError(
                        f"face {fid!r} of {sid!r} has dimension {fdim}")
        # d_i d_j = d_{j-1} d_i for i < j
        for sid, dim in self.simplices.items():
            if dim < 2:
                continue
            for j in range(1, dim + 1):
                for i in range(j):
                    left = self.face(self.face(sid, j), i)
                    right = self.face(self.face(sid, i), j - 1)
                    if left != right:
                        raise ParseError(
                            f"simplicial identity fails at {sid!r} "
                            f"(i={i}, j={j})")
        if self.vertices is not None:
            self._validate_vertices()

    def _validate_vertices(self):
        """Each simplex spans dim + 1 increasing vertices, and face i
        spans the same vertices with entry i dropped."""
        if self.vertices.keys() != self.simplices.keys():
            extra = sorted(self.vertices.keys() - self.simplices.keys())
            missing = sorted(self.simplices.keys() - self.vertices.keys())
            raise ParseError(f"vertices of unknown simplices {extra}"
                             if extra else
                             f"no vertices for simplices {missing}")
        for sid, dim in self.simplices.items():
            vs = self.vertices[sid]
            if len(vs) != dim + 1 or vs[0] < 0 or \
                    any(a >= b for a, b in zip(vs, vs[1:])):
                raise ParseError(f"vertices {list(vs)} of {sid!r} are not "
                                 f"{dim + 1} increasing vertex numbers")
            for i, fid in enumerate(self.faces.get(sid, ())):
                if self.vertices[fid] != vs[:i] + vs[i + 1:]:
                    raise ParseError(
                        f"face {i} of {sid!r} is {fid!r} with vertices "
                        f"{list(self.vertices[fid])}, not "
                        f"{list(vs[:i] + vs[i + 1:])}")

    @property
    def dimension(self) -> int:
        return max(self.simplices.values(), default=0)

    def simplices_of(self, q: int) -> list[str]:
        return sorted(s for s, d in self.simplices.items() if d == q)

    def dim_of(self, sid: str) -> int:
        return self.simplices[sid]

    def face(self, sid: str, i: int) -> str:
        return self.faces[sid][i]

    def subface(self, sid: str, keep) -> str:
        """Face spanned by the given vertex positions (sorted)."""
        dim = self.simplices[sid]
        drop = sorted(set(range(dim + 1)) - set(keep), reverse=True)
        for i in drop:
            sid = self.face(sid, i)
        return sid

    def front_face(self, sid: str, p: int) -> str:
        return self.subface(sid, range(p + 1))

    def back_face(self, sid: str, q: int) -> str:
        dim = self.simplices[sid]
        return self.subface(sid, range(dim - q, dim + 1))

    def __eq__(self, other):
        return (isinstance(other, FiniteSimplicialSet)
                and self.simplices == other.simplices
                and self.faces == other.faces)

    # -- serialization -------------------------------------------------

    def to_json(self) -> dict:
        data = {"name": self.name,
                "simplices": dict(self.simplices),
                "faces": {k: list(v) for k, v in self.faces.items()}}
        if self.vertices is not None:
            data["vertices"] = {k: list(v) for k, v in self.vertices.items()}
        return data

    @classmethod
    def from_json(cls, data) -> "FiniteSimplicialSet":
        if not isinstance(data, dict):
            raise ParseError("simplicial set description must be an object")
        try:
            name = data.get("name", "unnamed")
            simplices = {str(k): parse_integer(v, f"dimension of {k!r}")
                         for k, v in data["simplices"].items()}
            faces = {str(k): [str(x) for x in v]
                     for k, v in data.get("faces", {}).items()}
            vertices = data.get("vertices")
            if vertices is not None:
                vertices = {
                    str(k): tuple(parse_integer(x, f"vertex of {k!r}")
                                  for x in v)
                    for k, v in vertices.items()}
        except (AttributeError, KeyError, TypeError) as exc:
            raise ParseError(f"bad simplicial set description: {exc}") from None
        return cls(name, simplices, faces, vertices)


def _subset_id(vs) -> str:
    return "".join(str(v) for v in vs)


def _subsets_sset(name: str, n: int, top: bool) -> FiniteSimplicialSet:
    import itertools
    simplices, faces, vertices = {}, {}, {}
    max_size = n + 1 if top else n
    for size in range(1, max_size + 1):
        for vs in itertools.combinations(range(n + 1), size):
            sid = _subset_id(vs)
            simplices[sid] = size - 1
            vertices[sid] = vs
            if size > 1:
                faces[sid] = [_subset_id(vs[:i] + vs[i + 1:])
                              for i in range(size)]
    return FiniteSimplicialSet(name, simplices, faces, vertices)


# bounded like every module-level cache; with n <= 9, every simplex and
# every boundary the constructors admit fit
@lru_cache(maxsize=16)
def standard_simplex_sset(n: int) -> FiniteSimplicialSet:
    """The standard n-simplex: nonempty vertex subsets of {0..n}."""
    if n > 9:
        raise ParseError("vertex-digit simplex ids stop at dimension 9")
    return _subsets_sset(f"simplex-{n}", n, top=True)


@lru_cache(maxsize=16)
def boundary_simplex_sset(n: int) -> FiniteSimplicialSet:
    """The boundary of the n-simplex (all proper faces)."""
    if n > 9:
        raise ParseError("vertex-digit simplex ids stop at dimension 9")
    if n < 1:
        raise ParseError("the 0-simplex has empty boundary")
    return _subsets_sset(f"boundary-{n}", n, top=False)


@lru_cache(maxsize=16)
def disjoint_points(k: int) -> FiniteSimplicialSet:
    return FiniteSimplicialSet(f"points-{k}",
                               {f"p{i}": 0 for i in range(k)}, {})


# -- normalized cochains -----------------------------------------------------


def aw_product(S: FiniteSimplicialSet, p: int, a: dict, q: int,
               b: dict) -> dict:
    """Front/back-face product of a p-cochain a and a q-cochain b, each
    {sid: value} on the nondegenerate simplices (associative, not
    commutative).

    On a (p+q)-simplex the value is a on the first p+1 vertices times
    b on the last q+1.  Normalized cochains vanish on degenerate
    simplices, which are never stored.
    """
    out = {}
    for sid in S.simplices_of(p + q):
        v = a.get(S.front_face(sid, p), 0) * b.get(S.back_face(sid, q), 0)
        if v:
            out[sid] = v
    return out
