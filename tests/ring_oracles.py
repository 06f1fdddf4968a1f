"""Series arithmetic and substitution loops the ring code replaced, kept
as oracles.

`TruncatedSeries` runs `MultiPoly`'s arithmetic and truncates once to
the weaker precision.  Before, it had its own loops over coefficient
dicts: `truncated_sum` merged two dicts, and `truncated_product`
skipped every term pair whose degrees add up to the precision or past
it.  `truncated_power` and `truncated_compose` are built on those two
alone, so the series oracles share no code with `exactalg`.

`exactalg.poly_substitute` is the one substitution loop.  Before, there
were four: `subs_loop` (`MultiPoly.subs`, powers by `**`),
`evaluate_loop` (`MultiPoly.evaluate`, dict order over the terms),
`truncated_compose` (`TruncatedSeries.compose`, powers by repeated
truncated products) and `ratfunc_image` (`dgforms._poly_image`, RatFunc
powers by `**`).  Each takes full images: every variable of p mapped.
"""

from fractions import Fraction

from adelweil.exactalg import MultiPoly, RatFunc, grlex_key


def truncated_sum(a: dict, b: dict, prec: int, sign: int = 1) -> dict:
    """a + sign * b below total degree prec."""
    out = {e: c for e, c in a.items() if sum(e) < prec}
    for e, c in b.items():
        if sum(e) >= prec:
            continue
        s = out.get(e, Fraction(0)) + sign * c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def truncated_product(a: dict, b: dict, prec: int) -> dict:
    """a * b below total degree prec, pairs past it never formed."""
    out: dict = {}
    for e1, c1 in a.items():
        d1 = sum(e1)
        for e2, c2 in b.items():
            if d1 + sum(e2) >= prec:
                continue
            exp = tuple(x + y for x, y in zip(e1, e2))
            s = out.get(exp, Fraction(0)) + c1 * c2
            if s:
                out[exp] = s
            else:
                out.pop(exp, None)
    return out


def _one(nvars: int, prec: int) -> dict:
    return {(0,) * nvars: Fraction(1)} if prec > 0 else {}


def truncated_power(a: dict, n: int, nvars: int, prec: int) -> dict:
    """a ** n below total degree prec, by n truncated products."""
    out = _one(nvars, prec)
    for _ in range(n):
        out = truncated_product(out, a, prec)
    return out


def truncated_compose(coeffs: dict, vars: tuple, images: dict, nvars: int,
                      prec: int) -> dict:
    """sum c * prod images[v]^k below prec over the terms in grlex
    order, every factor a truncated product."""
    acc: dict = {}
    for exp, c in sorted(coeffs.items(), key=lambda kv: grlex_key(kv[0])):
        term = {e: c * v for e, v in _one(nvars, prec).items()}
        for name, k in zip(vars, exp):
            for _ in range(k):
                term = truncated_product(term, images[name], prec)
        acc = truncated_sum(acc, term, prec)
    return acc


def subs_loop(p: MultiPoly, images: dict, tvars: tuple) -> MultiPoly:
    """sum const(c) * prod images[v] ** k over the terms in grlex order."""
    acc = MultiPoly.zero(tvars)
    for exp, c in sorted(p.coeffs.items(), key=lambda kv: grlex_key(kv[0])):
        term = MultiPoly.const(tvars, c)
        for name, k in zip(p.vars, exp):
            if k:
                term = term * images[name] ** k
        acc = acc + term
    return acc


def evaluate_loop(p: MultiPoly, point: dict) -> Fraction:
    """sum c * prod point[v] ** k, the terms in dict order."""
    total = Fraction(0)
    for exp, c in p.coeffs.items():
        val = c
        for name, k in zip(p.vars, exp):
            if k:
                val *= Fraction(point[name]) ** k
        total += val
    return total


def ratfunc_image(p: MultiPoly, images: dict, tvars: tuple) -> RatFunc:
    """sum c * prod images[v] ** k in RatFuncs over tvars, dict order."""
    acc = RatFunc.from_const(tvars, 0)
    for exp, c in p.coeffs.items():
        term = RatFunc.from_const(tvars, c)
        for name, k in zip(p.vars, exp):
            if k:
                term = term * images[name] ** k
        acc = acc + term
    return acc
