"""Exact commutative algebra over the rationals.

Everything downstream (differential forms, simplicial integration,
residues) reduces to arithmetic in three rings, all implemented here
with exact `fractions.Fraction` coefficients:

* `MultiPoly` -- multivariate polynomials, dict-of-monomials storage,
  graded-lexicographic canonical order;
* `TruncatedSeries` -- power series cut at a total degree, the working
  model of a complete local ring at a rational point;
* `RatFunc` -- quotients of polynomials, used as functions regular
  along a chain; equality is decided by cross multiplication, so no
  multivariate gcd is ever required.

`LinearSpan` is the one exact elimination kernel: sparse rows keyed
by column labels, reduced incrementally, with rank, membership,
tracked solves, the reduced row echelon form and a kernel basis.
`QMatrix` is the dense container that feeds its rows to that kernel;
`artinian_length` computes the colength of an ideal generated by a
regular sequence by truncated row reduction.

All objects are immutable in practice (operations return new values),
so every function in this module is safe to call from parallel workers.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction

from .errors import (
    DimensionMismatch,
    NotAUnit,
    NotFinite,
    ParseError,
    PrecisionExhausted,
)

ZERO = Fraction(0)
ONE = Fraction(1)


def rat(value, den=None) -> Fraction:
    """Coerce to an exact rational."""
    if den is not None:
        return Fraction(value, den)
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
    text = text.strip()
    if not _RATIONAL.match(text):
        raise ParseError(f"bad rational {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise ParseError(f"bad rational {text!r}") from exc


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
    >>> f, g = MultiPoly.variables(("f", "g"))
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
            raise DimensionMismatch(f"unknown variable {name!r} in {vars}")
        exp = [0] * len(vars)
        exp[vars.index(name)] = 1
        return cls(vars, {tuple(exp): ONE})

    @classmethod
    def variables(cls, vars) -> list["MultiPoly"]:
        return [cls.var(vars, name) for name in vars]

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

    def min_degree(self) -> int:
        if not self.coeffs:
            return -1
        return min(sum(exp) for exp in self.coeffs)

    def leading(self) -> tuple[tuple[int, ...], Fraction]:
        """Highest monomial in graded-lex order."""
        exp = max(self.coeffs, key=grlex_key)
        return exp, self.coeffs[exp]

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other: "MultiPoly"):
        if self.vars != other.vars:
            raise DimensionMismatch(
                f"variable mismatch {self.vars} vs {other.vars}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(self.vars, other)
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
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(self.vars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if not c:
                return MultiPoly.zero(self.vars)
            return MultiPoly(self.vars,
                             {e: v * c for e, v in self.coeffs.items()})
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check(other)
        coeffs: dict = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                s = coeffs.get(exp, ZERO) + c1 * c2
                if s:
                    coeffs[exp] = s
                else:
                    coeffs.pop(exp, None)
        return MultiPoly(self.vars, coeffs)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = MultiPoly.const(self.vars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
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
        acc = MultiPoly.zero(tvars)
        for exp, c in sorted(self.coeffs.items(), key=lambda kv: grlex_key(kv[0])):
            term = MultiPoly.const(tvars, c)
            for name, k in zip(self.vars, exp):
                if k:
                    term = term * full[name] ** k
            acc = acc + term
        return acc

    def evaluate(self, point: dict) -> Fraction:
        total = ZERO
        for exp, c in self.coeffs.items():
            val = c
            for name, k in zip(self.vars, exp):
                if k:
                    val *= rat(point[name]) ** k
            total += val
        return total

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


class TruncatedSeries:
    """Power series known exactly below a total-degree bound.

    `prec` is the first unknown degree: all monomials of total degree
    < prec are stored, everything above is undetermined.  Binary
    operations truncate to the weaker precision of the operands.
    """

    __slots__ = ("vars", "coeffs", "prec")

    def __init__(self, vars, coeffs, prec: int):
        if prec < 0:
            raise PrecisionExhausted("negative precision")
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
            raise PrecisionExhausted(
                f"coefficient at degree {sum(exp)} needs precision > {self.prec}")
        return self.coeffs.get(exp, ZERO)

    def _join(self, other) -> tuple["TruncatedSeries", "TruncatedSeries", int]:
        if isinstance(other, (int, Fraction)):
            other = TruncatedSeries.const(self.vars, other, self.prec)
        if isinstance(other, MultiPoly):
            other = TruncatedSeries.from_poly(other, self.prec)
        if self.vars != other.vars:
            raise DimensionMismatch("series over different variables")
        return self, other, min(self.prec, other.prec)

    def __add__(self, other):
        a, b, prec = self._join(other)
        coeffs = dict(a.coeffs)
        for exp, c in b.coeffs.items():
            s = coeffs.get(exp, ZERO) + c
            if s:
                coeffs[exp] = s
            else:
                coeffs.pop(exp, None)
        return TruncatedSeries(a.vars, coeffs, prec)

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries(self.vars,
                               {e: -c for e, c in self.coeffs.items()},
                               self.prec)

    def __sub__(self, other):
        a, b, prec = self._join(other)
        return a + (-b)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return TruncatedSeries(self.vars,
                                   {e: v * c for e, v in self.coeffs.items()},
                                   self.prec)
        a, b, prec = self._join(other)
        coeffs: dict = {}
        for e1, c1 in a.coeffs.items():
            d1 = sum(e1)
            for e2, c2 in b.coeffs.items():
                if d1 + sum(e2) >= prec:
                    continue
                exp = tuple(x + y for x, y in zip(e1, e2))
                s = coeffs.get(exp, ZERO) + c1 * c2
                if s:
                    coeffs[exp] = s
                else:
                    coeffs.pop(exp, None)
        return TruncatedSeries(a.vars, coeffs, prec)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        result = TruncatedSeries.const(self.vars, 1, self.prec)
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, MultiPoly)):
            a, b, prec = self._join(other)
            return a.truncate(prec).coeffs == b.truncate(prec).coeffs
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
        return series_invert(self)

    def compose(self, images: dict) -> "TruncatedSeries":
        """Substitute each variable by a series with zero constant term."""
        imgs = {}
        tvars = None
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
        acc = TruncatedSeries.const(tvars, 0, prec)
        for exp, c in sorted(self.coeffs.items(), key=lambda kv: grlex_key(kv[0])):
            term = TruncatedSeries.const(tvars, c, prec)
            for name, k in zip(self.vars, exp):
                for _ in range(k):
                    term = term * imgs[name]
            acc = acc + term
        return acc

    def render(self) -> str:
        tail = f" + O(deg {self.prec})"
        return self.to_poly().render() + tail

    def __repr__(self):
        return f"TruncatedSeries({self.render()!r})"


def series_invert(u: TruncatedSeries) -> TruncatedSeries:
    """Multiplicative inverse of a unit series, exact to u.prec.

    Example
    -------
    >>> f = MultiPoly.var(("f",), "f")
    >>> one_minus = TruncatedSeries.from_poly(1 - f, 4)
    >>> series_invert(one_minus).to_poly().render()
    '1 + f + f^2 + f^3'
    """
    c0 = u.constant_term()
    if not c0:
        raise NotAUnit("series with zero constant term has no inverse")
    inv0 = 1 / c0
    # Newton-free iteration: inv_{k+1} = inv_k * (2 - u * inv_k).
    inv = TruncatedSeries.const(u.vars, inv0, u.prec)
    known = 1
    while known < u.prec:
        inv = inv * (2 - u * inv)
        known *= 2
    return inv


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
            raise DimensionMismatch("numerator/denominator variable mismatch")
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

    def as_poly(self) -> MultiPoly:
        if not self.den.is_constant():
            raise DimensionMismatch(f"{self.render()} is not a polynomial")
        return self.num * (1 / self.den.constant_term())

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

    def __hash__(self):
        return hash((self.num, self.den))

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
    needs `invert` on the determinant (Fraction and RatFunc have it).
    Determinants use the permutation expansion, which is fine for the
    ranks (<= 4) this package works with.  Every result matrix is built
    by `_new`, so a subclass (`dgforms.FormMatrix`) keeps its own type.
    """

    __slots__ = ("rows",)

    def __init__(self, rows):
        self.rows = [list(r) for r in rows]
        width = {len(r) for r in self.rows}
        if len(width) > 1:
            raise DimensionMismatch("ragged matrix")

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

    def transpose(self) -> "RingMatrix":
        m, n = self.shape
        return self._new([[self.rows[i][j] for i in range(m)]
                          for j in range(n)])

    def __add__(self, other):
        if self.shape != other.shape:
            raise DimensionMismatch("matrix addition shape mismatch")
        return self._new([[a + b for a, b in zip(r1, r2)]
                          for r1, r2 in zip(self.rows, other.rows)])

    def __sub__(self, other):
        if self.shape != other.shape:
            raise DimensionMismatch("matrix subtraction shape mismatch")
        return self._new([[a - b for a, b in zip(r1, r2)]
                          for r1, r2 in zip(self.rows, other.rows)])

    def __neg__(self):
        return self.map(lambda x: -x)

    def scale(self, c) -> "RingMatrix":
        return self.map(lambda x: x * c)

    def __matmul__(self, other):
        m, k = self.shape
        k2, n = other.shape
        if k != k2:
            raise DimensionMismatch("matrix product shape mismatch")
        out = []
        for i in range(m):
            row = []
            for j in range(n):
                acc = self.rows[i][0] * other.rows[0][j]
                for t in range(1, k):
                    acc = acc + self.rows[i][t] * other.rows[t][j]
                row.append(acc)
            out.append(row)
        return self._new(out)

    def det(self):
        m, n = self.shape
        if m != n:
            raise DimensionMismatch("determinant of a non-square matrix")
        if not n:
            raise DimensionMismatch("determinant of an empty matrix")
        acc = None
        for perm in itertools.permutations(range(n)):
            term = self.rows[0][perm[0]]
            for i in range(1, n):
                term = term * self.rows[i][perm[i]]
            if _perm_sign(perm) < 0:
                term = -term
            acc = term if acc is None else acc + term
        return acc

    def principal_minor_sum(self, k: int):
        """Sum of all k x k principal minors (k-th invariant of the matrix)."""
        m, n = self.shape
        if m != n:
            raise DimensionMismatch("invariants of a non-square matrix")
        if not 1 <= k <= n:
            raise DimensionMismatch(f"invariant {k} of a {n}x{n} matrix")
        acc = None
        for subset in itertools.combinations(range(n), k):
            d = self._new([[self.rows[i][j] for j in subset]
                           for i in subset]).det()
            acc = d if acc is None else acc + d
        return acc

    def inv(self) -> "RingMatrix":
        m, n = self.shape
        if m != n:
            raise DimensionMismatch("inverse of a non-square matrix")
        d = self.det()
        dinv = d.invert() if hasattr(d, "invert") else 1 / d
        if n == 1:
            return self._new([[dinv]])
        cof = []
        for i in range(n):
            row = []
            for j in range(n):
                sub = self._new([[self.rows[a][b]
                                  for b in range(n) if b != j]
                                 for a in range(n) if a != i])
                c = sub.det()
                if (i + j) % 2:
                    c = -c
                row.append(c)
            cof.append(row)
        return self._new(cof).transpose().scale(dinv)

    def __eq__(self, other):
        return isinstance(other, RingMatrix) and self.rows == other.rows

    def render(self) -> str:
        def show(x):
            return x.render() if hasattr(x, "render") else format_rational(x)
        return "[" + ", ".join(
            "[" + ", ".join(show(x) for x in row) + "]"
            for row in self.rows) + "]"

    def __repr__(self):
        return f"{type(self).__name__}({self.render()})"


def _perm_sign(perm) -> int:
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


class QMatrix:
    """Dense matrix of Fractions: a container over the `LinearSpan` kernel.

    Every elimination (`rref`, `rank`, `nullspace`, `solve`, `det`,
    `inv`) feeds the rows to a `LinearSpan` with the column index as
    label order and reads the answer out of it.
    """

    __slots__ = ("rows",)

    def __init__(self, rows):
        self.rows = [[x if isinstance(x, Fraction) else Fraction(x)
                      for x in row] for row in rows]

    @property
    def shape(self):
        return (len(self.rows), len(self.rows[0]) if self.rows else 0)

    def _span(self) -> "LinearSpan":
        span = LinearSpan()
        span.extend({j: x for j, x in enumerate(row) if x}
                    for row in self.rows)
        return span

    def rref(self) -> tuple["QMatrix", list[int]]:
        """Reduced row echelon form and pivot column indices."""
        m, n = self.shape
        red = self._span().reduced_rows()
        rows = [[row.get(j, ZERO) for j in range(n)] for row in red.values()]
        rows += [[ZERO] * n for _ in range(m - len(rows))]
        return QMatrix(rows), list(red)

    def rank(self) -> int:
        return self._span().rank

    def nullspace(self) -> list[list[Fraction]]:
        """Deterministic basis of the kernel (one vector per free column)."""
        n = self.shape[1]
        return [[vec.get(j, ZERO) for j in range(n)]
                for _, vec in self._span().kernel(range(n))]

    def solve(self, b: list) -> list[Fraction] | None:
        """One solution of A x = b, or None if inconsistent."""
        m, n = self.shape
        aug = QMatrix([row + [Fraction(bv)] for row, bv in zip(self.rows, b)])
        red, pivots = aug.rref()
        if n in pivots:
            return None
        x = [ZERO] * n
        for r, col in enumerate(pivots):
            x[col] = red.rows[r][n]
        return x

    def det(self) -> Fraction:
        """Signed product of the pivots the kernel divides by."""
        m, n = self.shape
        if m != n:
            raise DimensionMismatch("determinant of a non-square matrix")
        span = LinearSpan()
        for row in self.rows:   # in row order: the sign reads pivot order
            span.add({j: x for j, x in enumerate(row) if x})
        if span.rank < n:
            return ZERO
        det = Fraction(_perm_sign(list(span.pivots)))
        for lead in span.divisors:
            det *= lead
        return det

    def inv(self) -> "QMatrix":
        m, n = self.shape
        if m != n:
            raise DimensionMismatch("inverse of a non-square matrix")
        aug = QMatrix([row + [ONE if i == j else ZERO for j in range(n)]
                       for i, row in enumerate(self.rows)])
        red, pivots = aug.rref()
        if pivots != list(range(n)):
            raise NotAUnit("singular matrix")
        return QMatrix([row[n:] for row in red.rows])


def _sub_scaled(target: dict, factor, source: dict) -> None:
    """target -= factor * source in place, dropping entries that cancel."""
    for c, v in source.items():
        s = target.get(c, ZERO) - factor * v
        if s:
            target[c] = s
        else:
            target.pop(c, None)


class LinearSpan:
    """The exact elimination kernel: incremental sparse row echelon form.

    Every row reduction in the package runs here.  Vectors are dicts
    keyed by hashable column labels; a total order on labels (``key``)
    makes pivot choice deterministic.  Each stored row is scaled to 1
    at its pivot, the least label it touches.  With ``track`` each
    inserted vector carries a tag; `reduce` then also returns the
    combination of tags expressing the residual-free part.
    `reduced_rows` and `kernel` read out the reduced row echelon form,
    which is unique for a fixed label order.

    The pivots are the least labels of the nonzero vectors of the span
    (reduction only brings in labels above the pivot it clears, so a
    least label that is no pivot would survive it).  So the pivot set,
    `rank`, `reduced_rows` and `kernel` never depend on insertion order;
    only the order of `pivots`, `divisors` and `combos` does.
    """

    def __init__(self, key=None, track: bool = False):
        self.key = key or (lambda c: c)
        self.track = track
        self.pivots: dict = {}       # column -> echelon row, insertion order
        self.combos: dict = {}       # column -> {tag: Fraction}
        self.divisors: list = []     # entry each new row was divided by

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def _reduce(self, vec: dict, combo: dict | None):
        vec = {c: Fraction(v) for c, v in vec.items() if v}
        pivots, key = self.pivots, self.key
        while True:
            # eliminating a pivot only brings in labels above it
            hit = min((c for c in vec if c in pivots), key=key, default=None)
            if hit is None:
                return vec, combo
            factor = vec[hit]
            _sub_scaled(vec, factor, pivots[hit])
            if combo is not None:
                _sub_scaled(combo, factor, self.combos[hit])

    def reduce(self, vec: dict):
        """Residual of vec against the span (no insertion)."""
        combo = {} if self.track else None
        residual, combo = self._reduce(vec, combo)
        return residual, combo

    def contains(self, vec: dict) -> bool:
        residual, _ = self.reduce(vec)
        return not residual

    def add(self, vec: dict, tag=None) -> bool:
        """Insert a vector; returns True if it enlarged the span."""
        combo = {tag: ONE} if self.track else None
        residual, combo = self._reduce(vec, combo)
        if not residual:
            return False
        lead = min(residual, key=self.key)
        factor = residual[lead]
        self.pivots[lead] = {c: v / factor for c, v in residual.items()}
        if self.track:
            self.combos[lead] = {t: v / factor for t, v in combo.items()}
        self.divisors.append(factor)
        return True

    def extend(self, vectors) -> None:
        """Insert untagged vectors, fewest nonzeros first (stable sort).

        That is the classic fill-reducing order (Markowitz 1957).
        """
        for vec in sorted(vectors, key=len):
            self.add(vec)

    def solve(self, vec: dict) -> dict | None:
        """Tags combination with sum(tag_i * gen_i) = vec, or None."""
        if not self.track:
            raise ValueError("LinearSpan built without tracking")
        residual, combo = self.reduce(vec)
        if residual:
            return None
        return {t: -v for t, v in combo.items()}

    def reduced_rows(self) -> dict:
        """Back-substituted rows, {pivot: row}, in label order.

        Each row is 1 at its own pivot and 0 at every other pivot.
        """
        order = sorted(self.pivots, key=self.key)
        done: dict = {}
        for p in reversed(order):
            row = dict(self.pivots[p])
            # the other pivots in row lie above p and are already reduced
            for c in [c for c in row if c != p and c in self.pivots]:
                _sub_scaled(row, row[c], done[c])
            done[p] = row
        return {p: done[p] for p in order}

    def kernel(self, labels) -> list:
        """Solutions of the stored rows read as equations over `labels`.

        Returns one (free label, vector) pair per label that is not a
        pivot, in the order of `labels`; the vector is 1 at its own free
        label and 0 at every other free label.
        """
        rows = self.reduced_rows()
        basis = {lab: {lab: ONE} for lab in labels if lab not in rows}
        for p in self.pivots:
            for c, v in rows[p].items():
                if c != p:
                    basis[c][p] = -v
        return list(basis.items())


def artinian_length(generators, cap: int = 16, start: int | None = None) -> int:
    """Colength of the ideal generated by a regular sequence at the origin.

    The quotient by (generators) + m^T is computed by row reduction for
    increasing truncation T; the answer is accepted once it is stable
    across two consecutive increments and every coordinate power f_i^s
    for some s < T lies in the truncated ideal (which certifies that
    m^T is already inside the ideal, so the truncation is exact).

    Raises NotFinite when the cap is reached without stabilising, which
    is what happens when the sequence is not regular.

    Example
    -------
    >>> f1, f2 = MultiPoly.variables(("f1", "f2"))
    >>> artinian_length([f1**2 - f2**3, f2**2])
    4
    """
    gens = list(generators)
    for g in gens:
        if not isinstance(g, (TruncatedSeries, MultiPoly)):
            raise ParseError(f"bad ideal generator {g!r}")
    if not gens:
        raise DimensionMismatch("empty generator list")
    vars = gens[0].vars
    n = len(vars)
    if any(g.vars != vars for g in gens):
        raise DimensionMismatch("generators over different variables")
    if any(g.constant_term() for g in gens):
        return 0

    def truncated(g, bound):
        if isinstance(g, TruncatedSeries):
            if g.prec < bound:
                raise PrecisionExhausted(
                    f"generator precision {g.prec} < required truncation {bound}")
            return MultiPoly(g.vars, g.coeffs).truncate(bound)
        return g.truncate(bound)

    history: list[int] = []
    T = start or 2
    while T <= cap:
        monos = _monomials_below(n, T)
        span = LinearSpan(key=grlex_key)
        for g in gens:
            gt = truncated(g, T)
            for alpha in monos:
                shifted = {}
                for exp, c in gt.coeffs.items():
                    tot = tuple(a + b for a, b in zip(exp, alpha))
                    if sum(tot) < T:
                        shifted[tot] = shifted.get(tot, ZERO) + c
                if shifted:
                    span.add(shifted)
        dim = len(monos) - span.rank
        history.append(dim)
        powers_in = all(
            any(span.contains({_unit_exp(n, i, s): ONE}) for s in range(1, T))
            for i in range(n))
        if (len(history) >= 3 and history[-1] == history[-2] == history[-3]
                and powers_in):
            return dim
        T += 1
    raise NotFinite(
        f"colength did not stabilise below truncation {cap} (history {history})")


def _unit_exp(n: int, i: int, power: int = 1) -> tuple[int, ...]:
    """Exponent tuple of the monomial f_i^power in n variables."""
    exp = [0] * n
    exp[i] = power
    return tuple(exp)
