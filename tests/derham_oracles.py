"""The form route of the de Rham comparison, kept as oracles.

`sullivan.verify_de_rham` integrates and multiplies families on their
integer monomial labels and builds no form.  This is the route it
replaced: a family is a `DiffForm` on every simplex (`SullivanElement`),
compatibility is a pullback of forms along the coface maps, and
integration is `integrate_over_simplex` of each form.  The tests compare
the label route against it.

The morphisms of the simplex category are built here too, as
`DeltaMorphism` values: cofaces, codegeneracies, vertex inclusions and
composites, with `vertex_value` and `rho`, which sends a form on the
standard simplex to the cochain of its face integrals.

Cochains are {sid: value} dicts without zero values.  `coboundary`
walks the faces of each simplex; it is the independent oracle of the
coboundary matrices of `sullivan.cochain_complex`.
"""

from adelweil.dgforms import DiffForm, chain_context
from adelweil.errors import (
    CapExceeded, ContextMismatch, DegreeError, DimensionMismatch,
)
from adelweil.exactalg import MultiPoly
from adelweil.simplicial import (
    DeltaMorphism, FiniteSimplicialSet, integrate_over_simplex,
    pullback_along, standard_simplex_sset,
)
from adelweil.sullivan import SullivanComplex

HARD_DEGREE_CAP = 12


# -- the simplex category ----------------------------------------------------


def identity_morphism(n: int) -> DeltaMorphism:
    return DeltaMorphism(n, n, tuple(range(n + 1)))


def face(n: int, i: int) -> DeltaMorphism:
    """Coface [n-1] -> [n] skipping vertex i."""
    if not 0 <= i <= n:
        raise DimensionMismatch(f"face index {i} outside [0, {n}]")
    return DeltaMorphism(n - 1, n,
                         tuple(v for v in range(n + 1) if v != i))


def degeneracy(n: int, i: int) -> DeltaMorphism:
    """Codegeneracy [n+1] -> [n] repeating vertex i."""
    if not 0 <= i <= n:
        raise DimensionMismatch(f"degeneracy index {i} outside [0, {n}]")
    return DeltaMorphism(n + 1, n,
                         tuple(min(v, n) if v <= i else v - 1
                               for v in range(n + 2)))


def vertex_inclusion(n: int, i: int) -> DeltaMorphism:
    return DeltaMorphism(0, n, (i,))


def compose(sigma: DeltaMorphism, tau: DeltaMorphism) -> DeltaMorphism:
    """The composite sigma after tau."""
    if tau.target != sigma.source:
        raise ValueError(
            f"[{tau.source}]->[{tau.target}] then "
            f"[{sigma.source}]->[{sigma.target}] do not compose")
    return DeltaMorphism(tau.source, sigma.target,
                         tuple(sigma(v) for v in tau.values))


def vertex_value(form: DiffForm, i: int) -> DiffForm:
    """Evaluate at vertex i of the simplex factor (a base-level form)."""
    n = len(form.ctx.simplex_vars)
    return pullback_along(vertex_inclusion(n, i), form)


def coboundary(S: FiniteSimplicialSet, q: int, values: dict) -> dict:
    """The coboundary of the q-cochain {sid: value}: on each
    (q+1)-simplex, the alternating sum of the values on its faces."""
    out = {}
    for sid in S.simplices_of(q + 1):
        total = sum((-1) ** i * values.get(S.face(sid, i), 0)
                    for i in range(q + 2))
        if total:
            out[sid] = total
    return out


def rho(form: DiffForm, n: int | None = None) -> dict:
    """Integrate a form over every face of the standard simplex.

    Sends a degree-q form on the n-simplex to the q-cochain whose value
    on a face is the integral of the pullback; this is a chain map.
    """
    if n is None:
        n = len(form.ctx.simplex_vars)
    q = form.degree()
    sset = standard_simplex_sset(n)
    vals = {}
    for sid in sset.simplices_of(q):
        sigma = DeltaMorphism(q, n, sset.vertices[sid])
        vals[sid] = integrate_over_simplex(pullback_along(sigma, form))
    return {sid: v for sid, v in vals.items() if v}


# -- families of forms -------------------------------------------------------


def _form_of(ctx, pairs) -> DiffForm:
    """The form sum of c t^exp dt_mono over ((exp, mono), c) pairs."""
    terms: dict = {}
    for (exp, mono), c in pairs:
        terms.setdefault(mono, {})[exp] = c
    return DiffForm(ctx, {mono: ctx.ring_poly(MultiPoly(ctx.even_vars, cs))
                          for mono, cs in terms.items()})


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
            return chain_context(self.sset.dim_of(sid), ()).zero_form()
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

    def integrate(self) -> dict:
        """The q-cochain {sid: value} of the forms' integrals."""
        vals = {}
        for sid in self.sset.simplices_of(self.degree):
            vals[sid] = integrate_over_simplex(self.form_on(sid))
        return {sid: v for sid, v in vals.items() if v}

    def __eq__(self, other):
        if not isinstance(other, SullivanElement):
            return NotImplemented
        return (self.sset == other.sset and self.degree == other.degree
                and (self - other).is_zero())


def element(cx: SullivanComplex, q: int, vec_or_index) -> SullivanElement:
    """The degree-q family of `cx` given by its basis index or coordinates
    (as in `SullivanComplex.simplex_labels`), as forms."""
    return SullivanElement(cx.sset, q, {
        sid: _form_of(chain_context(cx.sset.dim_of(sid), ()), labels.items())
        for sid, labels in cx.simplex_labels(q, vec_or_index).items()})


def sullivan_basis(S: FiniteSimplicialSet, q: int, w: int) -> list:
    """Basis of the compatible families of degree q and weight <= w."""
    if q > S.dimension + HARD_DEGREE_CAP:
        raise CapExceeded(f"degree {q} is past the hard cap")
    if q > S.dimension:
        return []
    cx = SullivanComplex(S, w)
    return [element(cx, q, k) for k in range(cx.dim(q))]
