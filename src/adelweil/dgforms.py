"""Graded-commutative differential forms with exact coefficients.

A `DGContext` fixes three groups of even variables: simplex coordinates
t_1..t_l (the affine coordinates of a simplex, with t_0 = 1 - sum t_i
eliminated), base coordinates (functions on a chart), and inert
parameters (formal even variables killed by d, used for deformation
parameters).  Each simplex or base variable x contributes one odd
generator "d x"; simplex odds order before base odds, which is exactly
what makes the total differential split as

    d = d_simplex + d',

where the base piece d' = d - d_simplex acts as (-1)^q d_chart on a
term of simplex odd-degree q.  The Koszul sign rule is implemented
once, in `_merge_odd`, which the wedge product and d use; curvature
and every characteristic form are built from those two.

`FormMatrix` is the ring-matrix algebra of `exactalg.RingMatrix` over
even-commuting forms plus the form operations: d, bidegree parts,
contraction and trace.  Its determinant, invariants and adjugate all
read one characteristic polynomial, and the even-entry guard sits on
that one primitive.

`InvariantPolynomial` is a polynomial in the elementary invariants
P_1 = trace .. P_r = det, the coefficients of the characteristic
polynomial det(1 + tau M); `invariant_eval` evaluates it on a matrix
over any commutative ring, forms included.  `transgression`
is `invariant_eval` on the curvature of the homotopy connection s theta
followed by the fibre integral over s.
"""

from __future__ import annotations

from .errors import ParseError
from .exactalg import (
    MultiPoly,
    RatFunc,
    RingMatrix,
    ONE,
    format_rational,
    poly_substitute,
    rat,
)


class DGContext:
    """Variable bookkeeping for one algebra of forms."""

    def __init__(self, simplex_vars: tuple[str, ...],
                 base_vars: tuple[str, ...], inert_vars: tuple[str, ...] = ()):
        overlap = (set(simplex_vars) & set(base_vars)
                   | set(simplex_vars) & set(inert_vars)
                   | set(base_vars) & set(inert_vars))
        if overlap:
            raise ParseError(f"variables used twice: {sorted(overlap)}")
        self.simplex_vars = simplex_vars
        self.base_vars = base_vars
        self.inert_vars = inert_vars
        self.even_vars = simplex_vars + base_vars + inert_vars
        self.odd_names = tuple(f"d {v}" for v in simplex_vars + base_vars)

    def __eq__(self, other):
        if not isinstance(other, DGContext):
            return NotImplemented
        return (self.simplex_vars, self.base_vars, self.inert_vars) == \
            (other.simplex_vars, other.base_vars, other.inert_vars)

    def __hash__(self):
        return hash((self.simplex_vars, self.base_vars, self.inert_vars))

    # odd generators 0..S-1 are simplex, S..S+B-1 are base
    @property
    def simplex_odd_count(self) -> int:
        return len(self.simplex_vars)

    def odd_index(self, name: str) -> int:
        """Odd generator index for a simplex or base variable name."""
        diffables = self.simplex_vars + self.base_vars
        if name not in diffables:
            raise ParseError(f"no differential for variable {name!r}")
        return diffables.index(name)

    def diff_var(self, index: int) -> str:
        return (self.simplex_vars + self.base_vars)[index]

    # -- ring-level helpers --------------------------------------------------

    def ring_const(self, value) -> RatFunc:
        return RatFunc.from_const(self.even_vars, value)

    def ring_var(self, name) -> RatFunc:
        return RatFunc.var(self.even_vars, name)

    def ring_poly(self, poly: MultiPoly) -> RatFunc:
        if poly.vars != self.even_vars:
            poly = poly.extend_vars(self.even_vars)
        return RatFunc(poly)

    def t_coeff(self, i: int) -> RatFunc:
        """Affine coordinate t_i of the simplex, with t_0 eliminated."""
        l = len(self.simplex_vars)
        if not 0 <= i <= l:
            raise ParseError(f"t_{i} outside simplex of dimension {l}")
        if i == 0:
            acc = self.ring_const(1)
            for name in self.simplex_vars:
                acc = acc - self.ring_var(name)
            return acc
        return self.ring_var(self.simplex_vars[i - 1])

    # -- form-level helpers --------------------------------------------------

    def zero_form(self) -> "DiffForm":
        return DiffForm(self, {})

    def one_form(self) -> "DiffForm":
        return DiffForm(self, {(): self.ring_const(1)})

    def form_scalar(self, value) -> "DiffForm":
        if isinstance(value, DiffForm):
            return value
        if isinstance(value, MultiPoly):
            value = self.ring_poly(value)
        if not isinstance(value, RatFunc):
            value = self.ring_const(value)
        if value.is_zero():
            return self.zero_form()
        return DiffForm(self, {(): value})

    def t(self, i: int) -> "DiffForm":
        return self.form_scalar(self.t_coeff(i))

    def dt(self, i: int) -> "DiffForm":
        """Differential dt_i; dt_0 expands to -sum of the others."""
        l = len(self.simplex_vars)
        if not 0 <= i <= l:
            raise ParseError(f"dt_{i} outside simplex of dimension {l}")
        if i == 0:
            acc = self.zero_form()
            for j in range(1, l + 1):
                acc = acc - self.dt(j)
            return acc
        return DiffForm(self, {(i - 1,): self.ring_const(1)})

    def df(self, name: str) -> "DiffForm":
        if name not in self.base_vars:
            raise ParseError(f"{name!r} is not a base variable")
        idx = self.simplex_odd_count + self.base_vars.index(name)
        return DiffForm(self, {(idx,): self.ring_const(1)})

    def d_by_name(self, name: str) -> "DiffForm":
        return DiffForm(self, {(self.odd_index(name),): self.ring_const(1)})


def polynomial_context(base_vars) -> DGContext:
    """Context with base variables only (no simplex factor)."""
    return DGContext((), tuple(base_vars))


def chain_context(l: int, base_vars, inert_vars=()) -> DGContext:
    """Simplex factor of a length-l chain times a base chart."""
    return DGContext(tuple(f"t{i}" for i in range(1, l + 1)),
                     tuple(base_vars), tuple(inert_vars))


def _merge_odd(a: tuple[int, ...], b: tuple[int, ...]):
    """Concatenate sorted odd monomials; None on a repeated generator.

    Returns (merged tuple, Koszul sign).
    """
    if not a:
        return b, 1
    if not b:
        return a, 1
    merged = []
    sign = 1
    i = j = 0
    while i < len(a) and j < len(b):
        if a[i] == b[j]:
            return None, 0
        if a[i] < b[j]:
            merged.append(a[i])
            i += 1
        else:
            # b[j] jumps over the remaining entries of a
            if (len(a) - i) % 2:
                sign = -sign
            merged.append(b[j])
            j += 1
    merged.extend(a[i:])
    merged.extend(b[j:])
    return tuple(merged), sign


def _insert_odd(idx: int, mono: tuple[int, ...]):
    """Wedge a single generator on the left of a sorted monomial."""
    return _merge_odd((idx,), mono)


class DiffForm:
    """Element of the free graded-commutative algebra of a context.

    Stored as {sorted odd index tuple: RatFunc coefficient}; the term
    degree is the number of odd factors.
    """

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: DGContext, terms: dict):
        self.ctx = ctx
        clean = {}
        for mono, c in terms.items():
            if not c.is_zero():
                clean[tuple(mono)] = c
        self.terms = clean

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Degree of a homogeneous form (0 for the zero form)."""
        degs = {len(m) for m in self.terms}
        if not degs:
            return 0
        if len(degs) > 1:
            raise ParseError(f"form of mixed degrees {sorted(degs)}")
        return degs.pop()

    def is_even(self) -> bool:
        return all(len(m) % 2 == 0 for m in self.terms)

    def bidegree_component(self, p: int, q: int) -> "DiffForm":
        """Terms with p base differentials and q simplex differentials."""
        s = self.ctx.simplex_odd_count
        out = {}
        for mono, c in self.terms.items():
            qq = sum(1 for i in mono if i < s)
            if qq == q and len(mono) - qq == p:
                out[mono] = c
        return DiffForm(self.ctx, out)

    def coefficient(self, mono: tuple[int, ...]) -> RatFunc:
        return self.terms.get(tuple(mono), self.ctx.ring_const(0))

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other: "DiffForm"):
        if self.ctx != other.ctx:
            raise ParseError("forms from different contexts")

    def _coerce(self, other) -> "DiffForm":
        if isinstance(other, DiffForm):
            return other
        return self.ctx.form_scalar(other)

    def __add__(self, other):
        other = self._coerce(other)
        self._check(other)
        terms = dict(self.terms)
        for mono, c in other.terms.items():
            s = terms.get(mono)
            s = c if s is None else s + c
            if s.is_zero():
                terms.pop(mono, None)
            else:
                terms[mono] = s
        return DiffForm(self.ctx, terms)

    __radd__ = __add__

    def __neg__(self):
        return DiffForm(self.ctx, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        self._check(other)
        terms: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono, sign = _merge_odd(m1, m2)
                if mono is None:
                    continue
                c = c1 * c2
                if sign < 0:
                    c = -c
                s = terms.get(mono)
                s = c if s is None else s + c
                if s.is_zero():
                    terms.pop(mono, None)
                else:
                    terms[mono] = s
        return DiffForm(self.ctx, terms)

    def __rmul__(self, other):
        # scalars commute past everything
        return self * other

    def __pow__(self, n: int):
        result = self.ctx.one_form()
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other):
        if not isinstance(other, DiffForm):
            try:
                other = self._coerce(other)
            except Exception:
                return NotImplemented
        return self.ctx == other.ctx and (self - other).is_zero()

    # -- calculus ------------------------------------------------------------

    def _derive(self, var_names) -> "DiffForm":
        terms: dict = {}
        for mono, c in self.terms.items():
            for name in var_names:
                dc = c.diff(name)
                if dc.is_zero():
                    continue
                new, sign = _insert_odd(self.ctx.odd_index(name), mono)
                if new is None:
                    continue
                add = dc if sign > 0 else -dc
                s = terms.get(new)
                s = add if s is None else s + add
                if s.is_zero():
                    terms.pop(new, None)
                else:
                    terms[new] = s
        return DiffForm(self.ctx, terms)

    def d(self) -> "DiffForm":
        """Total differential (inert variables are constants)."""
        return self._derive(self.ctx.simplex_vars + self.ctx.base_vars)

    def d_simplex(self) -> "DiffForm":
        """The simplex-direction piece of d."""
        return self._derive(self.ctx.simplex_vars)

    def contract(self, components: dict) -> "DiffForm":
        """Interior product against sum v_i d/df_i (odd derivation).

        `components` maps base variable names to ring elements; simplex
        differentials contract to zero.
        """
        comp = {}
        for name, v in components.items():
            idx = self.ctx.odd_index(name)
            if idx < self.ctx.simplex_odd_count:
                raise ParseError(
                    "vector fields live in the base directions only")
            if isinstance(v, MultiPoly):
                v = self.ctx.ring_poly(v)
            elif not isinstance(v, RatFunc):
                v = self.ctx.ring_const(v)
            comp[idx] = v
        terms: dict = {}
        for mono, c in self.terms.items():
            for pos, idx in enumerate(mono):
                v = comp.get(idx)
                if v is None:
                    continue
                coeff = c * v
                if pos % 2:
                    coeff = -coeff
                new = mono[:pos] + mono[pos + 1:]
                s = terms.get(new)
                s = coeff if s is None else s + coeff
                if s.is_zero():
                    terms.pop(new, None)
                else:
                    terms[new] = s
        return DiffForm(self.ctx, terms)

    def substitute(self, target: DGContext, even_images: dict | None = None,
                   odd_images: dict | None = None) -> "DiffForm":
        """DGA homomorphism into another context.

        `even_images` maps source variable names to ring elements of the
        target; `odd_images` maps source odd indices to target forms.
        Unmapped variables go to the same-named generator of the target.
        """
        full_even: dict[str, RatFunc] = {}
        for name in self.ctx.even_vars:
            img = (even_images or {}).get(name)
            if img is None:
                if name not in target.even_vars:
                    raise ParseError(
                        f"no image given for variable {name!r}")
                full_even[name] = target.ring_var(name)
            elif isinstance(img, MultiPoly):
                full_even[name] = target.ring_poly(img)
            elif isinstance(img, RatFunc):
                full_even[name] = img
            else:
                full_even[name] = target.ring_const(img)
        odd_images = dict(odd_images or {})
        one = target.ring_const(1)
        acc = target.zero_form()
        for mono, c in sorted(self.terms.items(),
                              key=lambda kv: (len(kv[0]), kv[0])):
            num = poly_substitute(c.num, full_even, one)
            den = poly_substitute(c.den, full_even, one)
            img = target.form_scalar(num / den)
            for idx in mono:
                oi = odd_images.get(idx)
                if oi is None:
                    name = self.ctx.diff_var(idx)
                    if name not in target.simplex_vars + target.base_vars:
                        raise ParseError(
                            f"no image given for the differential of {name!r}")
                    oi = target.d_by_name(name)
                img = img * oi
            acc = acc + img
        return acc

    def inert_coefficient(self, name: str, power: int) -> "DiffForm":
        """Coefficient of an inert variable power, as a form without it."""
        idx = self.ctx.even_vars.index(name)
        out: dict = {}
        for mono, c in self.terms.items():
            if not c.den.degree_in(name) <= 0:
                raise ParseError(
                    f"denominator depends on inert variable {name}")
            num = {}
            for exp, v in c.num.coeffs.items():
                if exp[idx] == power:
                    e = list(exp)
                    e[idx] = 0
                    num[tuple(e)] = v
            if num:
                out[mono] = RatFunc(MultiPoly(c.num.vars, num), c.den)
        return DiffForm(self.ctx, out)

    # -- rendering -----------------------------------------------------------

    def render(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for mono in sorted(self.terms, key=lambda m: (len(m), m)):
            c = self.terms[mono]
            odd = "^".join(self.ctx.odd_names[i] for i in mono)
            c_str = c.render()
            negative = c_str.startswith("-")
            body = c_str[1:] if negative else c_str
            if odd:
                if body == "1":
                    body = odd
                else:
                    if " " in body and not (body.startswith("(")
                                            and body.endswith(")")):
                        body = f"({body})"
                    body = f"{body} {odd}"
            if not pieces:
                pieces.append(f"-{body}" if negative else body)
            else:
                pieces.append(f"- {body}" if negative else f"+ {body}")
        return " ".join(pieces)

    def __repr__(self):
        return f"DiffForm({self.render()!r})"


class FormMatrix(RingMatrix):
    """Matrix with DiffForm entries over one context.

    The matrix algebra (+, -, @, the characteristic polynomial and all
    that reads it: det, invariants, adjugate) is `RingMatrix`'s: even
    forms commute, so the commutative-ring code holds for them.
    `charpoly` adds the even-entry guard.
    """

    __slots__ = ("ctx",)

    def __init__(self, ctx: DGContext, rows):
        self.ctx = ctx
        rows = [[ctx.form_scalar(x) for x in row] for row in rows]
        if any(x.ctx != ctx for row in rows for x in row):
            raise ParseError("matrix entry from another context")
        super().__init__(rows)

    def _new(self, rows) -> "FormMatrix":
        return FormMatrix(self.ctx, rows)

    @classmethod
    def zero(cls, ctx: DGContext, r: int) -> "FormMatrix":
        z = ctx.zero_form()
        return cls(ctx, [[z for _ in range(r)] for _ in range(r)])

    @classmethod
    def from_ring(cls, ctx: DGContext, rows) -> "FormMatrix":
        """Matrix of scalars (ring elements, polynomials, rationals)."""
        if isinstance(rows, RingMatrix):
            rows = rows.rows
        return cls(ctx, rows)

    def scale(self, c) -> "FormMatrix":
        """Multiply every entry by the form c from the left."""
        c = self.ctx.form_scalar(c)
        return self.map(lambda x: c * x)

    def d(self) -> "FormMatrix":
        return self.map(lambda x: x.d())

    def d_simplex(self) -> "FormMatrix":
        return self.map(lambda x: x.d_simplex())

    def bidegree_component(self, p: int, q: int) -> "FormMatrix":
        return self.map(lambda x: x.bidegree_component(p, q))

    def contract(self, components: dict) -> "FormMatrix":
        return self.map(lambda x: x.contract(components))

    def is_zero(self) -> bool:
        return all(x.is_zero() for row in self.rows for x in row)

    def __eq__(self, other):
        if not isinstance(other, FormMatrix):
            return NotImplemented
        return self.shape == other.shape and (self - other).is_zero()

    def charpoly(self, upto: int | None = None) -> list:
        """`RingMatrix.charpoly`, for even-degree entries only."""
        if not all(x.is_even() for row in self.rows for x in row):
            raise ParseError(
                "the characteristic polynomial needs even-degree entries")
        return super().charpoly(upto)

    def invariant(self, k: int) -> DiffForm:
        """k-th elementary invariant: sum of principal k x k minors.

        The 0-th invariant is the one form.
        """
        if k == 0:
            return self.ctx.one_form()
        if not 1 <= k <= len(self.rows):
            raise ParseError(f"invariant {k} of a rank-"
                             f"{len(self.rows)} matrix")
        return self.invariants(k)[k - 1]


class InvariantPolynomial:
    """Polynomial in the elementary invariants P_1..P_r of a rank.

    Monomials are exponent tuples (e_1..e_r) meaning P_1^e_1 ... P_r^e_r;
    all monomials must share the weighted degree sum i * e_i, which is
    the form degree the polynomial produces out of a curvature matrix
    (in units of 2) and the number of slots of its polarization.
    """

    __slots__ = ("r", "terms", "degree")

    def __init__(self, r: int, terms: dict):
        self.r = r
        clean = {}
        degrees = set()
        for exp, c in terms.items():
            exp = tuple(exp)
            if len(exp) != r:
                raise ParseError(f"monomial {exp} for rank {r}")
            c = rat(c)
            if c:
                clean[exp] = c
                degrees.add(sum((i + 1) * e for i, e in enumerate(exp)))
        if len(degrees) > 1:
            raise ParseError(
                f"mixed weighted degrees {sorted(degrees)} in one invariant")
        self.terms = clean
        self.degree = degrees.pop() if degrees else 0

    @classmethod
    def elementary(cls, r: int, i: int) -> "InvariantPolynomial":
        """P_i for rank r (P_1 = trace, P_r = determinant)."""
        if not 1 <= i <= r:
            raise ParseError(f"P_{i} undefined for rank {r}")
        exp = [0] * r
        exp[i - 1] = 1
        return cls(r, {tuple(exp): ONE})

    @classmethod
    def power_of_trace(cls, r: int, n: int) -> "InvariantPolynomial":
        exp = [0] * r
        exp[0] = n
        return cls(r, {tuple(exp): ONE})

    @classmethod
    def top_degree(cls, r: int, n: int) -> "InvariantPolynomial":
        """The default degree-n invariant of rank r, whose form fills an
        n-dimensional base: P_n if the rank allows, else P_1^n."""
        if n <= r:
            return cls.elementary(r, n)
        return cls.power_of_trace(r, n)

    def render(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for exp in sorted(self.terms):
            c = self.terms[exp]
            mono = "*".join(
                f"c{i + 1}" if e == 1 else f"c{i + 1}^{e}"
                for i, e in enumerate(exp) if e)
            if not mono:
                body = format_rational(abs(c))
            elif abs(c) == 1:
                body = mono
            else:
                body = f"{format_rational(abs(c))}*{mono}"
            if not pieces:
                pieces.append(body if c > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(pieces)

    def __repr__(self):
        return f"InvariantPolynomial({self.render()!r})"


def invariant_eval(P: InvariantPolynomial, M: RingMatrix, one=None):
    """Evaluate an invariant polynomial on a matrix over a commutative ring.

    P_i becomes the sum of the principal i x i minors of M; all of
    them, up to the highest P_i that P uses, come from one
    `M.invariants`.  `one` is the unit of the entries' ring; a
    FormMatrix, whose entries must be even, defaults to the one form of
    its context.

    Example: P_1^2 on M is (trace M)^2; P_2 on a 2x2 matrix is det M.
    """
    if M.shape[0] != P.r:
        raise ParseError(
            f"rank-{P.r} invariant on a {M.shape[0]}x{M.shape[1]} matrix")
    if one is None:
        one = M.ctx.one_form()
    top = max((i for exp in P.terms for i, e in enumerate(exp, 1) if e),
              default=0)
    elems = M.invariants(top) if top else []       # a constant reads none
    acc = one * 0
    for exp, c in sorted(P.terms.items()):
        term = one * c
        for e_i, e in zip(elems, exp):
            for _ in range(e):
                term = term * e_i
        acc = acc + term
    return acc


def matrix_curvature(theta: FormMatrix) -> FormMatrix:
    """Curvature of a connection matrix: d(theta) - theta * theta."""
    m, n = theta.shape
    if m != n:
        raise ParseError("connection matrix must be square")
    return theta.d() - (theta @ theta)


def transgression(P: InvariantPolynomial, theta: FormMatrix) -> DiffForm:
    """Chern-Simons transgression of P at a degree-1 connection matrix.

    The homotopy connection s*theta on [0, 1] x X has the curvature
    R~ = ds theta + s d(theta) - s^2 theta^2 (`matrix_curvature`'s
    convention), and TP(theta) = integral over s in [0, 1] of P(R~)
    (Chern-Simons 1974): one `invariant_eval` on the cylinder, whose
    s-integral is `fiber_integrate` over the 1-simplex.  Its defining
    property d TP(theta) = P(R) is checked by the test suite, not
    assumed.

    Example: for P = P_1^2, TP(theta) = trace(theta) * trace(d theta).
    """
    from .simplicial import fiber_integrate

    if P.degree < 1:
        raise ParseError("transgression needs a positive degree")
    for row in theta.rows:
        for x in row:
            if not x.is_zero() and x.degree() != 1:
                raise ParseError("connection matrix entries must be 1-forms")
    ctx = theta.ctx
    s = "s"
    while s in ctx.even_vars:
        s += "'"
    cyl = DGContext((s,), ctx.simplex_vars + ctx.base_vars, ctx.inert_vars)

    def lift(form: DiffForm, power: int, ds: tuple) -> DiffForm:
        # ds * s^power * form for ds = (0,), s^power * form for ds = ():
        # odd indices move up by one past ds, which stays first, and
        # the exponent of s leads each exponent tuple
        terms = {}
        for mono, c in form.terms.items():
            num = MultiPoly(cyl.even_vars, {(power,) + e: v
                                            for e, v in c.num.coeffs.items()})
            den = MultiPoly(cyl.even_vars, {(0,) + e: v
                                            for e, v in c.den.coeffs.items()})
            terms[ds + tuple(i + 1 for i in mono)] = RatFunc(
                num, den, normalize=False)
        return DiffForm(cyl, terms)

    curvature = FormMatrix(cyl, [
        [lift(x, 0, (0,)) + lift(a, 1, ()) - lift(b, 2, ())
         for x, a, b in zip(*rows)]
        for rows in zip(theta.rows, theta.d().rows, (theta @ theta).rows)])
    # the fibre integral's base context orders the even and odd
    # variables as ctx does, so its terms are a form of ctx
    return DiffForm(ctx, fiber_integrate(invariant_eval(P, curvature)).terms)

