"""Input formats: the series grammar and the JSON file schemas.

The expression grammar covers rational constants (7, 3/2), variable
names, +, -, *, ^ and parentheses; multiplication is always explicit.
Everything a file can contain parses through here, so malformed input
surfaces as ParseError uniformly.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction

from .errors import CapExceeded, ParseError
from .exactalg import (
    MACAULAY_MONOMIAL_CAP, MultiPoly, RingMatrix, parse_integer,
    parse_rational,
)
from .dgforms import InvariantPolynomial
from .adelic import Chain, ChartModel
from .residues import GeneralizedFraction, LocalZeroData
from .scenarios import Scenario
from .simplicial import FiniteSimplicialSet

# hard cap on the degree of each power and product (shipped data: 3);
# their dense term count, one by one and summed over one expression, is
# held to exactalg.MACAULAY_MONOMIAL_CAP
MAX_EXPRESSION_DEGREE = 32

# hard cap on a bundle's rank: a chart's `rank`, a scenario's `r` and a
# Whitney extension's sub + quot rank (shipped data: 2).  Not the entries:
# cold `chern --chain x0,p0,q1` on P^1 (2 vCPUs) takes 5 s at rank 8 with
# one dense frame, but 63 s with every frame dense (degree <= 2), the
# worst case measured (rank 4: 3 s).
MAX_RANK = 8

# hard cap on the labels of a Whitney `chain` and of `chern --chain`: cold,
# with dense frames, a 2 + 2 Whitney extension takes 2.3 s on 6 labels,
# 5.5 s on 8 and 11.9 s on 10; a rank-3 chart 4.9 s on 6 and 8.7 s on 7
MAX_CHAIN = 6

_TOKEN = re.compile(r"(?P<num>\d+(?:/\d+)?)|(?P<name>[A-Za-z_]\w*)"
                    r"|(?P<op>[-+*^()])")


def _tokenize(text: str) -> list:
    out = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError(f"bad character {text[pos]!r} in {text!r}")
        pos = m.end()
        if m.group("num"):
            out.append(parse_rational(m.group("num")))
        elif m.group("name"):
            out.append(m.group("name"))
        else:
            out.append(m.group("op"))
    return out


class _Parser:
    def __init__(self, tokens: list, vars: tuple[str, ...]):
        self.toks = tokens
        self.pos = 0
        self.vars = vars
        self.spent = 0      # dense terms of the expansions so far

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def guard(self, degree: int) -> None:
        """Refuse to expand a power or product past the hard caps.

        Its degree must be at most MAX_EXPRESSION_DEGREE.  Its dense
        term count C(nvars + degree, nvars) must be at most
        MACAULAY_MONOMIAL_CAP, and so must the sum of those counts over
        every expansion of one parsed expression.
        """
        if degree > MAX_EXPRESSION_DEGREE:
            raise CapExceeded(f"expression of degree {degree} is past the "
                              f"cap of {MAX_EXPRESSION_DEGREE}")
        n = len(self.vars)
        terms = math.comb(n + max(degree, 0), n)
        if terms > MACAULAY_MONOMIAL_CAP:
            raise CapExceeded(
                f"expression of degree {degree} has up to {terms} terms in "
                f"{n} variables, past the cap of {MACAULAY_MONOMIAL_CAP}")
        self.spent += terms
        if self.spent > MACAULAY_MONOMIAL_CAP:
            raise CapExceeded(
                f"the expansions of one expression have up to {self.spent} "
                f"terms in {n} variables, past the cap of "
                f"{MACAULAY_MONOMIAL_CAP}")

    def expr(self) -> MultiPoly:
        acc = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            t = self.term()
            acc = acc + t if op == "+" else acc - t
        return acc

    def term(self) -> MultiPoly:
        acc = self.factor()
        while self.peek() == "*":
            self.take()
            other = self.factor()
            self.guard(acc.total_degree() + other.total_degree())
            acc = acc * other
        return acc

    def factor(self) -> MultiPoly:
        if self.peek() == "-":
            self.take()
            return -self.factor()
        base = self.atom()
        if self.peek() == "^":
            self.take()
            e = self.take()
            if not isinstance(e, Fraction) or e.denominator != 1 or e < 0:
                raise ParseError(f"exponent must be a natural number, got {e}")
            self.guard(base.total_degree() * int(e))
            return base ** int(e)
        return base

    def atom(self) -> MultiPoly:
        tok = self.take()
        if isinstance(tok, Fraction):
            return MultiPoly.const(self.vars, tok)
        if tok == "(":
            inner = self.expr()
            if self.take() != ")":
                raise ParseError("unbalanced parentheses")
            return inner
        if isinstance(tok, str) and tok not in "+-*^()":
            if tok not in self.vars:
                raise ParseError(f"unknown variable {tok!r} "
                                 f"(expected one of {self.vars})")
            return MultiPoly.var(self.vars, tok)
        raise ParseError(f"unexpected token {tok!r}")


def parse_polynomial(text: str, vars) -> MultiPoly:
    if not isinstance(text, str):
        raise ParseError(f"expected an expression string, got {text!r}")
    vars = tuple(vars)
    parser = _Parser(_tokenize(text), vars)
    if not parser.toks:
        raise ParseError("empty expression")
    try:
        out = parser.expr()
    except RecursionError:
        raise ParseError("expression nested too deeply") from None
    if parser.pos != len(parser.toks):
        raise ParseError(f"trailing input at {parser.toks[parser.pos]!r}")
    return out


def parse_invariant_text(text: str, r: int) -> InvariantPolynomial:
    """An invariant polynomial written in c1..cr."""
    vars = tuple(f"c{i}" for i in range(1, r + 1))
    poly = parse_polynomial(text, vars)
    return InvariantPolynomial(r, dict(poly.coeffs))


def load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from None
    except RecursionError:
        raise ParseError(f"{path} nests JSON too deeply") from None


_JSON_NAMES = {dict: "an object", list: "an array", str: "a string"}


def _require(data: dict, key: str, where: str, kind=None):
    """data[key]; it must be present and, given `kind`, of that type."""
    if not isinstance(data, dict) or key not in data:
        raise ParseError(f"missing key {key!r} in {where}")
    if kind is int:
        return parse_integer(data[key], f"{where}: {key!r}")
    if kind is not None and not isinstance(data[key], kind):
        raise ParseError(f"{where}: {key!r} must be {_JSON_NAMES[kind]}")
    return data[key]


def _bounded_rank(rank: int, where: str) -> int:
    if rank > MAX_RANK:
        raise CapExceeded(
            f"{where} has rank {rank}, past the cap of {MAX_RANK}")
    return rank


def chain_from_labels(labels, where: str) -> Chain:
    if not labels:
        raise ParseError(f"{where} names no point")
    if len(set(labels)) != len(labels):
        raise ParseError(f"{where} repeats a label: {', '.join(labels)}")
    if len(labels) > MAX_CHAIN:
        raise CapExceeded(
            f"{where} has {len(labels)} labels, past the cap of {MAX_CHAIN}")
    return Chain(tuple(labels))


def _var_tuple(value, where: str) -> tuple:
    if not isinstance(value, (list, tuple)) or \
            not all(isinstance(v, str) for v in value):
        raise ParseError(f"{where}: variables must be a list of names")
    if len(set(value)) != len(value):
        raise ParseError(f"{where}: variables repeat a name: "
                         f"{', '.join(value)}")
    return tuple(value)


def fraction_from_json(data: dict) -> GeneralizedFraction:
    vars = _var_tuple(_require(data, "vars", "fraction"), "fraction")
    if not vars:
        raise ParseError("fraction names no variable")
    num = parse_polynomial(_require(data, "numerator", "fraction"), vars)
    dens = [parse_polynomial(d, vars)
            for d in _require(data, "denominators", "fraction", list)]
    return GeneralizedFraction(vars, num, tuple(dens))


def _matrix_from_json(rows, vars, shape=None, where="") -> RingMatrix:
    """A matrix of expressions; given `shape` (m, n), it must be m x n."""
    if not isinstance(rows, list) or \
            not all(isinstance(row, list) for row in rows):
        raise ParseError("a matrix must be a list of rows")
    if shape is not None:
        m, n = shape
        if len(rows) != m or any(len(row) != n for row in rows):
            raise ParseError(f"{where} must be {m} x {n}")
    return RingMatrix([[parse_polynomial(x, vars) for x in row]
                       for row in rows])


def chart_from_json(data: dict) -> ChartModel:
    vars = _var_tuple(_require(data, "vars", "chart"), "chart")
    rank = _bounded_rank(_require(data, "rank", "chart", int), "chart")
    frames = {lab: _matrix_from_json(rows, vars, (rank, rank),
                                     f"chart frame {lab!r}")
              for lab, rows in _require(data, "frames", "chart", dict).items()}
    raw = _require(data, "points", "chart", dict)
    points = {lab: None if raw[lab] is None else
              {v: parse_rational(c) for v, c in
               _require(raw, lab, "chart points", dict).items()}
              for lab in raw}
    a = data.get("a")
    if a is not None:
        a = [parse_polynomial(x, vars)
             for x in _require(data, "a", "chart", list)]
    lift = data.get("lift")
    if lift is not None:
        lift = _matrix_from_json(lift, vars)
    return ChartModel(vars, rank, frames, points, a, lift)


def scenario_from_json(data: dict) -> Scenario:
    name = _require(data, "name", "scenario", str)
    n = _require(data, "n", "scenario", int)
    if n < 1:
        raise ParseError(f"scenario: 'n' must be at least 1, not {n}")
    r = _bounded_rank(_require(data, "r", "scenario", int), "scenario")
    if r < 1:
        raise ParseError(f"scenario: 'r' must be at least 1, not {r}")
    zeros = {}
    raw_zeros = _require(data, "zeros", "scenario", list)
    for k, z in enumerate(raw_zeros):
        if not isinstance(z, dict):
            raise ParseError("scenario: zeros must be a list of objects")
        label = z.get("label", f"p{k}")
        if not isinstance(label, str):
            raise ParseError(f"zero {k}: 'label' must be a string")
        if label in zeros:
            raise ParseError(f"scenario: zeros repeat the label {label!r}")
        vars = _var_tuple(_require(z, "coords", f"zero {label}"),
                          f"zero {label}")
        if len(vars) != n:
            raise ParseError(
                f"zero {label}: {len(vars)} coordinates, not n = {n}")
        a = tuple(parse_polynomial(x, vars)
                  for x in _require(z, "a", f"zero {label}", list))
        if len(a) != n:
            raise ParseError(
                f"zero {label}: {len(a)} components, not n = {n}")
        lift = _matrix_from_json(_require(z, "lambda", f"zero {label}"),
                                 vars, (r, r), f"zero {label}: 'lambda'")
        zeros[label] = LocalZeroData(vars, r, a, lift)
    expected = (parse_rational(data["expected"])
                if "expected" in data else None)
    expected_poly = (_require(data, "expected_poly", "scenario", str)
                     if "expected_poly" in data else None)
    chart = curve = whitney = None
    if "chart" in data:
        chart = chart_from_json(data["chart"])
    if "curve" in data:
        cv = data["curve"]
        curve = {
            "degree": _require(cv, "degree", "curve", int),
            "section": parse_polynomial(_require(cv, "section", "curve"),
                                        ("f",)),
        }
    if "whitney" in data:
        w = data["whitney"]
        sub = chart_from_json(_require(w, "sub", "whitney"))
        quot = chart_from_json(_require(w, "quot", "whitney"))
        _bounded_rank(sub.rank + quot.rank, "whitney extension")
        mixing = {lab: _matrix_from_json(rows, sub.base_vars,
                                         (sub.rank, quot.rank),
                                         f"whitney mixing {lab!r}")
                  for lab, rows in
                  _require(w, "mixing", "whitney", dict).items()}
        labels = _require(w, "chain", "whitney", list)
        if not all(isinstance(lab, str) for lab in labels):
            raise ParseError("whitney: chain labels must be strings")
        chain = chain_from_labels(labels, "whitney chain")
        whitney = (sub, quot, mixing, chain)
    return Scenario(name=name, n=n, r=r, zeros=zeros, expected=expected,
                    expected_poly=expected_poly,
                    provenance=data.get("provenance", ""), chart=chart,
                    curve=curve, whitney=whitney)


def sset_from_json(data: dict) -> FiniteSimplicialSet:
    return FiniteSimplicialSet.from_json(data)
