"""Exact commutative algebra over the rationals.

Everything downstream (differential forms, simplicial integration,
residues) reduces to arithmetic in three rings, all implemented here
with exact `fractions.Fraction` coefficients:

* `MultiPoly` -- multivariate polynomials, dict-of-monomials storage,
  graded-lexicographic canonical order;
* `TruncatedSeries` -- power series cut at a total degree.  No engine
  reads it: the residue engine takes polynomials and certifies its own
  truncation.  It remains for the series oracles of the tests and for
  the benchmark tracer, which wraps its product.  It has no arithmetic
  of its own: each operation is `MultiPoly`'s, truncated once, and a
  product forms no term pair at or past the precision;
* `RatFunc` -- quotients of polynomials, used as functions regular
  along a chain; equality is decided by cross multiplication, so no
  multivariate gcd is ever required.

`poly_substitute` is the one substitution loop: a polynomial pushed
through a variable assignment into any of these rings, or into the
rationals (`MultiPoly.subs`, `MultiPoly.evaluate`,
`TruncatedSeries.compose`, `dgforms.DiffForm.substitute`).

`LinearSpan` is the one exact elimination kernel: sparse rows keyed
by column labels, reduced incrementally, with rank, membership, normal
forms, the reduced row echelon form and a kernel basis.  Its
rows are fraction free: each stored row is a primitive integer row,
and a vector being reduced is one rational scale times such a row.
Every integer step is the step over Fractions times a positive
rational, so the pivots and spans are the same, and the reduced row
echelon form read out at the end, unique for the span and the label
order, is the same exact one.
`QMatrix` stays only because the benchmark tracer wraps its `rref` and `solve`.
`RingMatrix` is a matrix over any of these rings; its determinant,
invariants and inverse all read one division-free characteristic
polynomial.
`macaulay_span` builds every truncated ideal span: the shifted
generators below a degree T.  `artinian_length` reads the colength of
a regular sequence off those spans, at their first repeated dimension.

All objects are immutable in practice (operations return new values),
so every function in this module is safe to call from parallel workers.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
import re
from fractions import Fraction

from .errors import CapError, NotAUnit, ParseError

ZERO = Fraction(0)
ONE = Fraction(1)


def rat(value) -> Fraction:
    """Coerce to an exact rational."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise ParseError(f"cannot interpret {value!r} as a rational")


_RATIONAL = re.compile(r"[+-]?\d+(?:/\d+)?\Z")


def parse_rational(text: str) -> Fraction:
    """Parse 'p' or 'p/q' with optional sign.  Decimals are rejected."""
    if not isinstance(text, str):
        raise ParseError(f"bad rational {text!r}: expected a string")
    text = text.strip()
    if not _RATIONAL.match(text):
        raise ParseError(f"bad rational {text!r}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        # ValueError: past the interpreter's limit on integer digits
        raise ParseError(f"bad rational {text!r}") from exc


def parse_integer(value, where: str) -> int:
    """A JSON integer.  A float or a boolean (an int subclass) is refused."""
    if type(value) is not int:
        raise ParseError(f"{where} must be an integer, not {value!r}")
    return value


def format_rational(x: Fraction) -> str:
    """Render as 'p' or 'p/q', always in lowest terms."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def grlex_key(exponents: tuple[int, ...]) -> tuple:
    """Sort key for graded-lexicographic monomial order.

    Ascending sort lists monomials by total degree, and inside a degree
    with earlier variables dominating (f1^2 before f1*f2 before f2^2).
    """
    return (sum(exponents), tuple(-e for e in exponents))


def _monomials_below(nvars: int, bound: int) -> list[tuple[int, ...]]:
    """All exponent tuples of total degree < bound, graded-lex order."""
    out = []
    for total in range(bound):
        for combo in itertools.combinations_with_replacement(range(nvars), total):
            exp = [0] * nvars
            for i in combo:
                exp[i] += 1
            out.append(tuple(exp))
    return sorted(out, key=grlex_key)


class MultiPoly:
    """Polynomial with Fraction coefficients over a fixed variable tuple.

    Coefficients are stored keyed by exponent tuples; zero coefficients
    are dropped on construction so the representation is canonical.

    Example
    -------
    >>> f, g = (MultiPoly.var(("f", "g"), name) for name in "fg")
    >>> ((f + g) * (f - g)).render()
    'f^2 - g^2'
    """

    __slots__ = ("vars", "coeffs")

    def __init__(self, vars: tuple[str, ...], coeffs: dict | None = None):
        self.vars = tuple(vars)
        clean = {}
        if coeffs:
            for exp, c in coeffs.items():
                c = Fraction(c)
                if c:
                    clean[tuple(exp)] = c
        self.coeffs = clean

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, vars) -> "MultiPoly":
        return cls(vars, {})

    @classmethod
    def const(cls, vars, value) -> "MultiPoly":
        value = rat(value)
        if not value:
            return cls(vars, {})
        return cls(vars, {(0,) * len(vars): value})

    @classmethod
    def var(cls, vars, name) -> "MultiPoly":
        vars = tuple(vars)
        if name not in vars:
            raise ParseError(f"unknown variable {name!r} in {vars}")
        exp = [0] * len(vars)
        exp[vars.index(name)] = 1
        return cls(vars, {tuple(exp): ONE})

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return all(sum(exp) == 0 for exp in self.coeffs)

    def constant_term(self) -> Fraction:
        return self.coeffs.get((0,) * len(self.vars), ZERO)

    def total_degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        if not self.coeffs:
            return -1
        return max(sum(exp) for exp in self.coeffs)

    def leading(self) -> tuple[tuple[int, ...], Fraction]:
        """Highest monomial in graded-lex order."""
        exp = max(self.coeffs, key=grlex_key)
        return exp, self.coeffs[exp]

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other: "MultiPoly"):
        if self.vars != other.vars:
            raise ParseError(
                f"variable mismatch {self.vars} vs {other.vars}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(self.vars, other)
        elif not isinstance(other, MultiPoly):
            return NotImplemented
        self._check(other)
        coeffs = dict(self.coeffs)
        for exp, c in other.coeffs.items():
            s = coeffs.get(exp, ZERO) + c
            if s:
                coeffs[exp] = s
            else:
                coeffs.pop(exp, None)
        return MultiPoly(self.vars, coeffs)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.vars, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        return self.mul(other)

    __rmul__ = __mul__

    def mul(self, other, bound: int | None = None):
        """self * other.  With a `bound`, no term pair of total degree
        `bound` or more is formed: other's terms are taken by degree,
        and each term of self meets only those below the bound, so a
        series product costs the pairs it keeps."""
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if not c:
                return MultiPoly.zero(self.vars)
            return MultiPoly(self.vars,
                             {e: v * c for e, v in self.coeffs.items()})
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check(other)
        right = list(other.coeffs.items())
        if bound is not None:
            right.sort(key=lambda kv: sum(kv[0]))
            degrees = [sum(e) for e, _ in right]
        coeffs: dict = {}
        for e1, c1 in self.coeffs.items():
            pairs = right if bound is None else \
                right[:bisect.bisect_left(degrees, bound - sum(e1))]
            for e2, c2 in pairs:
                exp = tuple(a + b for a, b in zip(e1, e2))
                s = coeffs.get(exp, ZERO) + c1 * c2
                if s:
                    coeffs[exp] = s
                else:
                    coeffs.pop(exp, None)
        return MultiPoly(self.vars, coeffs)

    def __pow__(self, n: int):
        """self ** n by n multiplications by the base.

        The powers of a dense base grow fast, so squaring them multiplies
        more term pairs than n products with the few-term base:
        (f1+f2+f3+1)^29 takes 580,590 pairs by binary squaring and 143,840
        this way.  Squaring saves pairs only on a two-term base, and there
        little within the parser's exponent cap.
        """
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = MultiPoly.const(self.vars, 1)
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(self.vars, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.vars == other.vars and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.vars, frozenset(self.coeffs.items())))

    # -- calculus ------------------------------------------------------------

    def diff(self, name: str) -> "MultiPoly":
        idx = self.vars.index(name)
        coeffs = {}
        for exp, c in self.coeffs.items():
            k = exp[idx]
            if k:
                new = list(exp)
                new[idx] = k - 1
                coeffs[tuple(new)] = c * k
        return MultiPoly(self.vars, coeffs)

    def subs(self, images: dict) -> "MultiPoly":
        """Substitute variables by polynomials (ring homomorphism).

        `images` maps variable names to MultiPoly over a common target
        variable tuple; unmapped variables keep their name, which must
        then exist in the target.
        """
        targets = [p for p in images.values() if isinstance(p, MultiPoly)]
        tvars = targets[0].vars if targets else self.vars
        full = {}
        for name in self.vars:
            img = images.get(name)
            if img is None:
                full[name] = MultiPoly.var(tvars, name)
            elif isinstance(img, MultiPoly):
                full[name] = img
            else:
                full[name] = MultiPoly.const(tvars, img)
        return poly_substitute(self, full, MultiPoly.const(tvars, 1))

    def evaluate(self, point: dict) -> Fraction:
        return poly_substitute(self, {name: rat(point[name])
                                      for name in self.vars
                                      if self.degree_in(name) > 0}, ONE)

    def truncate(self, bound: int) -> "MultiPoly":
        """Drop all monomials of total degree >= bound."""
        return MultiPoly(self.vars, {e: c for e, c in self.coeffs.items()
                                     if sum(e) < bound})

    def degree_in(self, name: str) -> int:
        idx = self.vars.index(name)
        if not self.coeffs:
            return -1
        return max(exp[idx] for exp in self.coeffs)

    def extend_vars(self, vars: tuple[str, ...]) -> "MultiPoly":
        """Reinterpret over a larger variable tuple."""
        vars = tuple(vars)
        positions = [vars.index(v) for v in self.vars]
        coeffs = {}
        for exp, c in self.coeffs.items():
            new = [0] * len(vars)
            for pos, k in zip(positions, exp):
                new[pos] = k
            coeffs[tuple(new)] = c
        return MultiPoly(vars, coeffs)

    # -- rendering -----------------------------------------------------------

    def _monomial_str(self, exp) -> str:
        parts = []
        for name, k in zip(self.vars, exp):
            if k == 1:
                parts.append(name)
            elif k > 1:
                parts.append(f"{name}^{k}")
        return "*".join(parts)

    def render(self) -> str:
        if not self.coeffs:
            return "0"
        pieces = []
        for exp in sorted(self.coeffs, key=grlex_key):
            c = self.coeffs[exp]
            mono = self._monomial_str(exp)
            mag = abs(c)
            if mono:
                body = mono if mag == 1 else f"{format_rational(mag)}*{mono}"
            else:
                body = format_rational(mag)
            if not pieces:
                pieces.append(body if c > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(pieces)

    def __repr__(self):
        return f"MultiPoly({self.render()!r})"


def poly_substitute(p: MultiPoly, images: dict, one):
    """p with each variable v sent to images[v]: the sum, over the terms
    c x^e of p in graded-lex order, of c times the product of the
    images[v]^e_v, built up from `one`, the unit of the target ring
    (a Fraction, MultiPoly, TruncatedSeries or RatFunc).  Powers are
    repeated products, as in `dgforms.invariant_eval`, so a series is
    truncated after every factor.
    """
    acc = one * 0
    for exp, c in sorted(p.coeffs.items(), key=lambda kv: grlex_key(kv[0])):
        term = one * c
        for name, k in zip(p.vars, exp):
            for _ in range(k):
                term = term * images[name]
        acc = acc + term
    return acc


class TruncatedSeries:
    """Power series known exactly below a total-degree bound.

    `prec` is the first unknown degree: all monomials of total degree
    < prec are stored, everything above is undetermined.  Each +, - and
    * is the `MultiPoly` operation on the stored parts, truncated once
    to the weaker precision of the operands (a product bounded by it,
    `MultiPoly.mul`); ** is repeated *, and `compose` is
    `poly_substitute` into series.  It is no `MultiPoly` subclass, so
    code that takes a polynomial as exact in every degree never
    mistakes a series for one.
    """

    __slots__ = ("vars", "coeffs", "prec")

    def __init__(self, vars, coeffs, prec: int):
        if prec < 0:
            raise ValueError("negative precision")
        self.vars = tuple(vars)
        self.prec = prec
        clean = {}
        for exp, c in (coeffs or {}).items():
            c = Fraction(c)
            if c and sum(exp) < prec:
                clean[tuple(exp)] = c
        self.coeffs = clean

    @classmethod
    def from_poly(cls, poly: MultiPoly, prec: int) -> "TruncatedSeries":
        return cls(poly.vars, poly.coeffs, prec)

    @classmethod
    def const(cls, vars, value, prec: int) -> "TruncatedSeries":
        return cls.from_poly(MultiPoly.const(vars, value), prec)

    def to_poly(self) -> MultiPoly:
        return MultiPoly(self.vars, self.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def constant_term(self) -> Fraction:
        return self.coeffs.get((0,) * len(self.vars), ZERO)

    def coefficient(self, exp: tuple[int, ...]) -> Fraction:
        """Exact coefficient; raises if the degree is beyond precision."""
        exp = tuple(exp)
        if sum(exp) >= self.prec:
            raise ValueError(
                f"coefficient at degree {sum(exp)} needs precision > {self.prec}")
        return self.coeffs.get(exp, ZERO)

    def _join(self, other) -> tuple:
        """Polynomial operands and the result's precision; a scalar or a
        polynomial is exact, so self's precision stands."""
        if isinstance(other, TruncatedSeries):
            return self.to_poly(), other.to_poly(), min(self.prec, other.prec)
        return self.to_poly(), other, self.prec

    def __add__(self, other):
        a, b, prec = self._join(other)
        return TruncatedSeries.from_poly(a + b, prec)

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries.from_poly(-self.to_poly(), self.prec)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        a, b, prec = self._join(other)
        return TruncatedSeries.from_poly(a.mul(b, prec), prec)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        """self ** n by n truncated products, as `MultiPoly.__pow__`."""
        if n < 0:
            raise ValueError("negative power of a series")
        result = TruncatedSeries.const(self.vars, 1, self.prec)
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, MultiPoly)):
            return (self - other).is_zero()
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (self.vars == other.vars and self.prec == other.prec
                and self.coeffs == other.coeffs)

    def truncate(self, prec: int) -> "TruncatedSeries":
        return TruncatedSeries(self.vars, self.coeffs, min(self.prec, prec))

    def diff(self, name: str) -> "TruncatedSeries":
        return TruncatedSeries.from_poly(self.to_poly().diff(name),
                                         max(self.prec - 1, 0))

    def invert(self) -> "TruncatedSeries":
        """Multiplicative inverse of a unit series, exact to self.prec.

        Example
        -------
        >>> f = MultiPoly.var(("f",), "f")
        >>> TruncatedSeries.from_poly(1 - f, 4).invert().to_poly().render()
        '1 + f + f^2 + f^3'
        """
        c0 = self.constant_term()
        if not c0:
            raise NotAUnit("series with zero constant term has no inverse")
        # Newton-free iteration: inv_{k+1} = inv_k * (2 - u * inv_k).
        inv = TruncatedSeries.const(self.vars, 1 / c0, self.prec)
        known = 1
        while known < self.prec:
            inv = inv * (2 - self * inv)
            known *= 2
        return inv

    def compose(self, images: dict) -> "TruncatedSeries":
        """Substitute each variable by a series with zero constant term."""
        imgs = {}
        tvars = self.vars
        for name, img in images.items():
            if isinstance(img, MultiPoly):
                img = TruncatedSeries.from_poly(img, self.prec)
            if img.constant_term():
                raise NotAUnit(
                    f"composition image for {name!r} has a constant term")
            imgs[name] = img
            tvars = img.vars
        prec = min([self.prec] + [img.prec for img in imgs.values()])
        for name in self.vars:
            if name not in imgs:
                imgs[name] = TruncatedSeries.from_poly(
                    MultiPoly.var(tvars, name), prec)
        return poly_substitute(self.to_poly(), imgs,
                               TruncatedSeries.const(tvars, 1, prec))

    def render(self) -> str:
        tail = f" + O(deg {self.prec})"
        return self.to_poly().render() + tail

    def __repr__(self):
        return f"TruncatedSeries({self.render()!r})"


class RatFunc:
    """Quotient of two polynomials over the same variables.

    Equality and zero tests use cross multiplication, so values are
    exact without multivariate gcd; `normalize` removes shared monomial
    content and scales the denominator's leading coefficient to 1 to
    keep the printed form stable.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: MultiPoly, den: MultiPoly | None = None,
                 normalize: bool = True):
        if den is None:
            den = MultiPoly.const(num.vars, 1)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.vars != den.vars:
            raise ParseError("numerator/denominator variable mismatch")
        if normalize:
            num, den = self._normalized(num, den)
        self.num = num
        self.den = den

    @staticmethod
    def _normalized(num: MultiPoly, den: MultiPoly):
        if num.is_zero():
            return num, MultiPoly.const(num.vars, 1)
        # shared monomial factor
        nvars = len(num.vars)
        mins = []
        for i in range(nvars):
            m1 = min(exp[i] for exp in num.coeffs)
            m2 = min(exp[i] for exp in den.coeffs)
            mins.append(min(m1, m2))
        if any(mins):
            shift = tuple(mins)
            num = MultiPoly(num.vars, {
                tuple(e - s for e, s in zip(exp, shift)): c
                for exp, c in num.coeffs.items()})
            den = MultiPoly(den.vars, {
                tuple(e - s for e, s in zip(exp, shift)): c
                for exp, c in den.coeffs.items()})
        # cancel a full polynomial factor when both sides are univariate
        active = [i for i in range(nvars)
                  if num.degree_in(num.vars[i]) > 0 or den.degree_in(num.vars[i]) > 0]
        if len(active) <= 1 and den.total_degree() > 0:
            num, den = _cancel_univariate(num, den, active[0])
        # monic denominator
        _, lead = den.leading()
        if lead != 1:
            num = num * (1 / lead)
            den = den * (1 / lead)
        return num, den

    @classmethod
    def from_const(cls, vars, value) -> "RatFunc":
        return cls(MultiPoly.const(vars, value))

    @classmethod
    def var(cls, vars, name) -> "RatFunc":
        return cls(MultiPoly.var(vars, name))

    @property
    def vars(self):
        return self.num.vars

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def _coerce(self, other) -> "RatFunc":
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, MultiPoly):
            return RatFunc(other)
        return RatFunc.from_const(self.vars, rat(other))

    def __add__(self, other):
        other = self._coerce(other)
        if self.den == other.den:
            return RatFunc(self.num + other.num, self.den)
        return RatFunc(self.num * other.den + other.num * self.den,
                       self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self.num, self.den, normalize=False)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)) and other:
            # a normal form times a nonzero scalar stays normal
            return RatFunc(self.num * other, self.den, normalize=False)
        other = self._coerce(other)
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * self._coerce(other).invert()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.invert()

    def __pow__(self, n: int):
        if n < 0:
            return self.invert() ** (-n)
        return RatFunc(self.num ** n, self.den ** n)

    def invert(self) -> "RatFunc":
        if self.num.is_zero():
            raise NotAUnit("zero rational function has no inverse")
        return RatFunc(self.den, self.num)

    def __eq__(self, other):
        try:
            other = self._coerce(other)
        except ParseError:
            return NotImplemented
        return (self.num * other.den) == (other.num * self.den)

    # equal quotients can have different numerators and denominators,
    # and without a multivariate gcd there is no canonical pair to hash
    __hash__ = None

    def diff(self, name: str) -> "RatFunc":
        if self.den.is_constant():
            return RatFunc(self.num.diff(name), self.den, normalize=False)
        return RatFunc(self.num.diff(name) * self.den
                       - self.num * self.den.diff(name),
                       self.den * self.den)

    def evaluate(self, point: dict) -> Fraction:
        d = self.den.evaluate(point)
        if not d:
            raise ZeroDivisionError(f"pole of {self.render()} at {point}")
        return self.num.evaluate(point) / d

    def subs(self, images: dict) -> "RatFunc":
        num = self.num.subs(images)
        den = self.den.subs(images)
        return RatFunc(num, den)

    def render(self) -> str:
        if self.den.is_constant() and self.den.constant_term() == 1:
            return self.num.render()
        num_s = self.num.render()
        den_s = self.den.render()
        if len(self.num.coeffs) > 1 or "/" in num_s:
            num_s = f"({num_s})"
        if len(self.den.coeffs) > 1:
            den_s = f"({den_s})"
        return f"{num_s}/{den_s}"

    def __repr__(self):
        return f"RatFunc({self.render()!r})"


def _to_dense(p: MultiPoly, idx: int) -> list[Fraction]:
    """Coefficients of p in variable `idx`, constant term first."""
    deg = max((exp[idx] for exp in p.coeffs), default=0)
    out = [ZERO] * (deg + 1)
    for exp, c in p.coeffs.items():
        out[exp[idx]] = c
    return out


def _trim(u: list) -> list:
    """Drop trailing zero coefficients in place (the zero polynomial is [])."""
    while u and not u[-1]:
        u.pop()
    return u


def _divmod_dense(u: list, v: list) -> tuple[list, list]:
    """Quotient and trimmed remainder of u by v (v trimmed, nonzero).

    Dividing by [-z, 1] gives the value at z as the remainder and the
    deflated polynomial as the quotient.
    """
    u = u[:]
    q = [ZERO] * max(len(u) - len(v) + 1, 0)
    while len(u) >= len(v) and _trim(u):
        shift = len(u) - len(v)
        factor = u[-1] / v[-1]
        q[shift] = factor
        for i, cv in enumerate(v):
            u[shift + i] -= factor * cv
        _trim(u)
    return q, _trim(u)


def _cancel_univariate(num: MultiPoly, den: MultiPoly, idx: int):
    """Divide out the polynomial gcd in the single active variable."""
    a, b = _to_dense(num, idx), _to_dense(den, idx)
    g, y = a, b
    while y:
        g, y = y, _divmod_dense(g, y)[1]
    if len(g) <= 1:
        return num, den
    qn, _ = _divmod_dense(a, g)
    qd, _ = _divmod_dense(b, g)

    def from_dense(cs) -> MultiPoly:
        coeffs = {}
        for k, c in enumerate(cs):
            if c:
                exp = [0] * len(num.vars)
                exp[idx] = k
                coeffs[tuple(exp)] = c
        return MultiPoly(num.vars, coeffs)

    return from_dense(qn), from_dense(qd)


class RingMatrix:
    """Square or rectangular matrix over any commutative ring object.

    Entries only need +, -, * among themselves; `inv` additionally
    needs `invert` on the determinant (Fraction, RatFunc and
    TruncatedSeries have it).  `charpoly` is the one primitive: `det`,
    `invariants` and `inv` all read it.  Every result matrix is built
    by `_new`, so a subclass (`dgforms.FormMatrix`) keeps its own type.
    """

    __slots__ = ("rows",)

    def __init__(self, rows):
        self.rows = [list(r) for r in rows]
        width = {len(r) for r in self.rows}
        if len(width) > 1:
            raise ParseError("ragged matrix")

    def _new(self, rows) -> "RingMatrix":
        return RingMatrix(rows)

    @property
    def shape(self):
        return (len(self.rows), len(self.rows[0]) if self.rows else 0)

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def map(self, fn) -> "RingMatrix":
        return self._new([[fn(x) for x in row] for row in self.rows])

    def __add__(self, other):
        if self.shape != other.shape:
            raise ParseError("matrix addition shape mismatch")
        return self._new([[a + b for a, b in zip(r1, r2)]
                          for r1, r2 in zip(self.rows, other.rows)])

    def __sub__(self, other):
        if self.shape != other.shape:
            raise ParseError("matrix subtraction shape mismatch")
        return self._new([[a - b for a, b in zip(r1, r2)]
                          for r1, r2 in zip(self.rows, other.rows)])

    def __neg__(self):
        return self.map(lambda x: -x)

    def scale(self, c) -> "RingMatrix":
        return self.map(lambda x: x * c)

    def __matmul__(self, other):
        if self.shape[1] != other.shape[0]:
            raise ParseError("matrix product shape mismatch")
        cols = list(zip(*other.rows))
        return self._new([[_dot(row, col) for col in cols]
                          for row in self.rows])

    def charpoly(self, upto: int | None = None) -> list:
        """[p_1, .., p_upto] with det(t - A) = t^n + p_1 t^(n-1) + .. + p_n;
        `upto` defaults to n.

        Berkowitz's recursion (Inf. Process. Lett. 18, 1984) over the
        leading blocks: with A_(k+1) = [[A_k, C], [R, a]], the
        coefficients of A_(k+1) are the lower triangular Toeplitz matrix
        with first column (1, -a, -R C, -R A_k C, .., -R A_k^(k-1) C)
        times those of A_k.  That is O(n^4) products and no division;
        the leading 1 stays implicit, so no ring one is needed.  p_i reads
        only p_1..p_i of the leading blocks and the first i entries of
        each column below its 1, so stopping at `upto` drops the rest:
        p_1 = -trace costs no product.
        """
        m, n = self.shape
        top = n if upto is None else upto
        if m != n or not 1 <= top <= n:
            raise ParseError(
                f"p_{top} of det(t - A) for a {m}x{n} matrix A")
        A = self.rows
        p: list = []
        for k in range(n):
            size = min(k + 1, top)          # coefficients kept at this step
            row, col = A[k][:k], [A[i][k] for i in range(k)]
            t = [-A[k][k]]      # T's first column below its 1
            for j in range(size - 1):
                if j:
                    col = [_dot(A[i][:k], col) for i in range(k)]
                t.append(-_dot(row, col))
            q = []              # T p, T's leading 1 and p's kept implicit
            for i in range(size):
                acc = t[i] + p[i] if i < k else t[i]
                for j in range(i):
                    acc = acc + t[i - 1 - j] * p[j]
                q.append(acc)
            p = q
        return p

    def det(self):
        """(-1)^n p_n."""
        p = self.charpoly()[-1]
        return -p if len(self.rows) % 2 else p

    def invariants(self, upto: int | None = None) -> list:
        """[e_1, .., e_upto], e_k = (-1)^k p_k the sum of the principal
        k x k minors: det(1 + tau A) = 1 + e_1 tau + .. + e_n tau^n."""
        return [-x if k % 2 else x
                for k, x in enumerate(self.charpoly(upto), 1)]

    def inv(self) -> "RingMatrix":
        """adj(A) / det(A), the adjugate by Cayley-Hamilton: A B = -p_n
        for B = A^(n-1) + p_1 A^(n-2) + .. + p_(n-1), built by Horner,
        adding each p_k on the diagonal.  Inverting -p_n raises when A
        is singular."""
        p = self.charpoly()
        d = -p[-1]
        dinv = d.invert() if hasattr(d, "invert") else 1 / d
        if len(p) == 1:
            return self._new([[dinv]])
        B = self
        for k, c in enumerate(p[:-1], 1):
            if k > 1:
                B = self @ B
            B = B._new([[x + c if i == j else x for j, x in enumerate(row)]
                        for i, row in enumerate(B.rows)])
        return B.scale(dinv)

    def __eq__(self, other):
        return isinstance(other, RingMatrix) and self.rows == other.rows

    def __repr__(self):
        rows = ("[" + ", ".join(x.render() if hasattr(x, "render")
                                else format_rational(x) for x in row) + "]"
                for row in self.rows)
        return f"{type(self).__name__}([{', '.join(rows)}])"


def _dot(xs, ys):
    """Sum of the products x * y over two nonempty sequences."""
    acc = xs[0] * ys[0]
    for x, y in zip(xs[1:], ys[1:]):
        acc = acc + x * y
    return acc


class QMatrix:
    """Dense matrix of Fractions, kept for `perfbench/tracer.py`.

    The package has no dense matrix path: every elimination runs in
    `LinearSpan`.  The benchmark tracer still wraps `rref` and `solve`
    by name, so the class keeps those two, each feeding the rows to a
    `LinearSpan` with the column index as label order.
    """

    __slots__ = ("rows",)

    def __init__(self, rows):
        self.rows = [[Fraction(x) for x in row] for row in rows]

    def rref(self) -> tuple["QMatrix", list[int]]:
        """Reduced row echelon form and pivot column indices."""
        n = len(self.rows[0]) if self.rows else 0
        span = LinearSpan()
        span.extend({j: x for j, x in enumerate(row) if x}
                    for row in self.rows)
        red = span.reduced_rows()
        rows = [[row.get(j, ZERO) for j in range(n)] for row in red.values()]
        rows += [[ZERO] * n for _ in range(len(self.rows) - len(rows))]
        return QMatrix(rows), list(red)

    def solve(self, b: list) -> list[Fraction] | None:
        """One solution of A x = b, or None if inconsistent."""
        n = len(self.rows[0]) if self.rows else 0
        aug = QMatrix([row + [Fraction(bv)] for row, bv in zip(self.rows, b)])
        red, pivots = aug.rref()
        if n in pivots:
            return None
        x = [ZERO] * n
        for r, col in enumerate(pivots):
            x[col] = red.rows[r][n]
        return x


def _combine(a: int, x: dict, b: int, y: dict) -> dict:
    """a * x - b * y over sparse dicts, dropping entries that cancel.

    The keys of x keep their order and new keys of y follow in theirs,
    as an in-place subtraction would leave them.
    """
    out = {c: a * v for c, v in x.items()} if a != 1 else dict(x)
    for c, v in y.items():
        s = out.get(c, 0) - b * v
        if s:
            out[c] = s
        else:
            out.pop(c, None)
    return out


def _primitive(row: dict) -> tuple[dict, int]:
    """(row / g, g) for the content g of an integer row; g = 1 when the
    row is empty."""
    g = math.gcd(*row.values())
    if g > 1:
        return {c: x // g for c, x in row.items()}, g
    return row, 1


def _integral(vec: dict) -> tuple[dict, int, int]:
    """(row, num, den): a primitive integer row with vec = num/den * row.

    An all-int vector is already an integer row, with den 1.  The row
    is a new dict, never vec itself.
    """
    vec = {c: v for c, v in vec.items() if v}
    if all(type(v) is int for v in vec.values()):
        den = 1
    else:
        den = math.lcm(*(v.denominator for v in vec.values()))
        vec = {c: v.numerator * (den // v.denominator)
               for c, v in vec.items()}
    vec, num = _primitive(vec)
    return vec, num, den


class LinearSpan:
    """The exact elimination kernel: incremental sparse row echelon form.

    Every row reduction in the package runs here.  Vectors are dicts
    keyed by hashable column labels; a total order on labels makes
    pivot choice deterministic: the order `key` gives, or the labels'
    own order when `key` is None (so int columns need no key call).
    The pivot of a stored row is the least label it touches.  `reduce`
    clears every pivot label from a vector, which leaves its normal form
    on the non-pivot labels.  `reduced_rows` and `kernel` read out the
    reduced row echelon form, which is unique for a fixed label order.

    Rows are fraction free (Bareiss, Math. Comp. 22, 1968): each stored
    row is a primitive integer row (content 1), and a vector carries one
    rational scale instead of a Fraction per entry.  A vector is split
    once into that scale and a primitive row; clearing pivot c, where
    the stored row R has R[c] = p and the row W has W[c] = v, is
    W <- a W - b R with g = gcd(p, v), a = p/g and b = v/g.  When p
    divides v (a = 1, the usual case) R is subtracted from W in place;
    otherwise W is scaled into a new row and divided by its content.
    The content is otherwise taken once, at the end, so the row left is
    primitive.  The scale, kept as two ints, records what that did to
    the true vector.  Each step is the usual one (rows scaled to 1 at
    the pivot) times a positive rational, since a has the sign of p and
    the contents are positive, so the supports, the pivots and the
    order of entries are the same, the span is the same, and so is the
    primitive row at the end.  The true residual is rebuilt from the
    scale as exact Fractions, and `reduced_rows` divides each
    back-substituted integer row by its pivot entry, which gives the
    reduced row echelon form: it depends only on the span and the label
    order.

    The pivots are the least labels of the nonzero vectors of the span
    (reduction only brings in labels above the pivot it clears, so a
    least label that is no pivot would survive it).  So the pivot set,
    `rank`, `reduced_rows` and `kernel` never depend on insertion order;
    only the order of `pivots` does.
    """

    def __init__(self, key=None):
        self.key = key
        self.pivots: dict = {}       # column -> primitive integer row

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def _reduce(self, vec: dict):
        """(row, num, den): the residual is num/den * row."""
        row, num, den = _integral(vec)
        pivots, key = self.pivots, self.key
        # pivots met in row, least first; eliminating one only brings in
        # labels above it, so the least live entry is the next to clear.
        # With a key the heap holds (key, label) pairs, else labels.
        queue = [c if key is None else (key(c), c) for c in row if c in pivots]
        heapq.heapify(queue)
        content = False         # whether row may have content above 1
        while queue:
            hit = heapq.heappop(queue)
            if key is not None:
                hit = hit[1]
            v = row.get(hit)
            if v is None:
                continue        # cancelled since it was queued
            stored = pivots[hit]
            for c in stored:
                if c not in row and c in pivots:
                    heapq.heappush(queue, c if key is None else (key(c), c))
            p = stored[hit]
            g = math.gcd(p, v)
            a, b = p // g, v // g
            if a == 1:
                for c, x in stored.items():
                    s = row.get(c, 0) - b * x
                    if s:
                        row[c] = s
                    else:
                        del row[c]
                content = True
            else:
                row, g = _primitive(_combine(a, row, b, stored))
                num, den, content = num * g, den * a, False
        if content:
            row, g = _primitive(row)
            num *= g
        return row, num, den

    def reduce(self, vec: dict) -> dict:
        """Residual of vec against the span (no insertion): zero at every
        pivot, so it is the normal form of vec on the non-pivot labels."""
        row, num, den = self._reduce(vec)
        return {c: Fraction(num * x, den) for c, x in row.items()}

    def contains(self, vec: dict) -> bool:
        return not self._reduce(vec)[0]

    def add(self, vec: dict) -> bool:
        """Insert a vector; returns True if it enlarged the span."""
        row = self._reduce(vec)[0]
        if not row:
            return False
        lead = min(row, key=self.key)
        self.pivots[lead] = row
        return True

    def extend(self, vectors) -> None:
        """Insert vectors, fewest nonzeros first (stable sort).

        That is the classic fill-reducing order (Markowitz 1957).
        """
        for vec in sorted(vectors, key=len):
            self.add(vec)

    def _back_substituted(self) -> dict:
        """Integer rows, {pivot: row}, in label order, each 0 at every
        other pivot; scaled to 1 at its own pivot, a row is reduced."""
        pivots = self.pivots
        order = sorted(pivots, key=self.key)
        done: dict = {}
        for p in reversed(order):
            row = pivots[p]
            # the other pivots in row lie above p and are already reduced
            for c in [c for c in row if c != p and c in pivots]:
                lead = done[c][c]
                g = math.gcd(lead, row[c])
                row = _combine(lead // g, row, row[c] // g, done[c])
            done[p] = _primitive(row)[0]
        return {p: done[p] for p in order}

    def reduced_rows(self) -> dict:
        """Back-substituted rows, {pivot: row}, in label order.

        Each row is 1 at its own pivot and 0 at every other pivot.  The
        substitution runs on integer rows; each is divided by its pivot
        entry at the end.
        """
        out = {}
        for p, row in self._back_substituted().items():
            lead = row[p]
            out[p] = {c: Fraction(x, lead) for c, x in row.items()}
        return out

    def kernel(self, labels) -> list:
        """Solutions of the stored rows read as equations over `labels`,
        which must hold every label the rows touch.

        Returns one (free label, vector) pair per label of `labels` that
        is not a pivot, in the order of `labels`; the vector is 1 at its
        own free label and 0 at every other free label.  Its entries are
        the back-substituted integer entries divided by their row's
        pivot entry: an `int` where that division is exact, else a
        Fraction.  So a span of integer rows whose reduced form is
        integral, as on the family spaces of `sullivan`, yields integer
        vectors.
        """
        rows = self._back_substituted()
        basis = {lab: {lab: 1} for lab in labels if lab not in rows}
        for p in self.pivots:
            row = rows[p]
            lead = row[p]
            for c, x in row.items():
                if c != p:
                    basis[c][p] = -x // lead if x % lead == 0 \
                        else Fraction(-x, lead)
        return list(basis.items())


# Macaulay spans are sized by the monomials below their truncation T;
# past this count a span is refused before it is built (two variables
# admit T <= 99, three T <= 30, four T <= 17)
MACAULAY_MONOMIAL_CAP = 5000

# truncation cap of the colength search, for every caller: the residue
# engine, the local Gauss-Bonnet count and artinian_length alike
LENGTH_CAP = 24


def macaulay_span(generators, T: int) -> "LinearSpan":
    """Span of the shifted generators x^mu * g_j truncated below degree T.

    These are the rows of the Macaulay matrix of the ideal modulo m^T
    (Lazard, EUROCAL '83), inserted generator by generator and each in
    graded-lex order of mu.  Pivots are least monomials in graded-lex
    order, so the non-pivot monomials below T are a basis of the
    quotient by the ideal plus m^T.  Raises CapError, before any row
    is built, when more than MACAULAY_MONOMIAL_CAP monomials lie below T.
    """
    n = len(generators[0].vars)
    count = math.comb(n + T - 1, n)
    if count > MACAULAY_MONOMIAL_CAP:
        raise CapError(
            f"truncation {T} has {count} monomials below it in {n} "
            f"variables, past the cap of {MACAULAY_MONOMIAL_CAP}")
    monos = _monomials_below(n, T)
    span = LinearSpan(key=grlex_key)
    for g in generators:
        terms = [(exp, sum(exp), c) for exp, c in g.truncate(T).coeffs.items()]
        order = min((d for _, d, _ in terms), default=T)
        for mu in monos:
            shift = sum(mu)
            if shift + order >= T:
                break       # monos ascend in degree: every later row is empty
            span.add({tuple(a + b for a, b in zip(exp, mu)): c
                      for exp, d, c in terms if d + shift < T})
    return span


def artinian_length(generators) -> int:
    """Colength of the ideal generated by a regular sequence at the origin.

    The quotient by (generators) + m^T is read off the Macaulay span for
    T = 2, 3, ..; at T = 1 it is the field.  At the first T whose
    dimension equals the one at T - 1, m^(T-1) lies in (generators) + m^T,
    so by Nakayama's lemma it lies in the ideal: that dimension is the
    colength.  Raises CapError when no dimension repeats up to
    T = LENGTH_CAP, as for a sequence that is not regular (its
    dimensions grow forever).

    Example
    -------
    >>> V = ("f1", "f2")
    >>> f1, f2 = (MultiPoly.var(V, name) for name in V)
    >>> artinian_length([f1**2 - f2**3, f2**2])
    4
    """
    return _colength_and_span(generators)[0]


def _colength_and_span(generators) -> tuple:
    """(l, T, span): the colength, and the truncation and span that
    certified it; (0, None, None) for a unit ideal.  The search stops
    at T = LENGTH_CAP.  Every monomial of degree >= T - 1 is a pivot, so
    the non-pivot monomials are a basis of the local algebra
    k[[f]]/(generators).
    """
    gens = list(generators)
    for g in gens:
        if not isinstance(g, MultiPoly):
            raise ParseError(f"bad ideal generator {g!r}")
    if not gens:
        raise ParseError("empty generator list")
    vars = gens[0].vars
    n = len(vars)
    if any(g.vars != vars for g in gens):
        raise ParseError("generators over different variables")
    if any(g.constant_term() for g in gens):
        return 0, None, None

    history = [1]       # quotient dimensions from T = 1
    for T in range(2, LENGTH_CAP + 1):
        span = macaulay_span(gens, T)
        history.append(math.comb(n + T - 1, n) - span.rank)
        if history[-1] == history[-2]:
            return history[-1], T, span
    raise CapError(f"colength did not stabilise below truncation "
                   f"{LENGTH_CAP} (history {history[1:]})")


def _unit_exp(n: int, i: int) -> tuple[int, ...]:
    """Exponent tuple of the monomial f_i in n variables."""
    exp = [0] * n
    exp[i] = 1
    return tuple(exp)
