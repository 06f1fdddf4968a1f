"""Hypothesis strategies shared across the test modules.

Everything draws small exact rationals: the point of the suite is
identities that hold on the nose, not numerical coverage, so tiny
coefficient pools keep shrinking fast and runs cheap.
"""

import itertools
from fractions import Fraction

from hypothesis import strategies as st

from adelweil.exactalg import MultiPoly, RingMatrix


def fractions(max_num: int = 6, max_den: int = 4):
    return st.builds(
        Fraction,
        st.integers(min_value=-max_num, max_value=max_num),
        st.integers(min_value=1, max_value=max_den),
    )


def monomials(vars: tuple, max_degree: int = 3):
    # drawn from the list of exponents, not filtered: in four variables a
    # filter rejects most draws
    return st.sampled_from([
        e for e in itertools.product(range(max_degree + 1), repeat=len(vars))
        if sum(e) <= max_degree])


def polys(vars: tuple, max_degree: int = 3, max_terms: int = 4,
          min_degree: int = 0):
    mono = monomials(vars, max_degree).filter(
        lambda e: sum(e) >= min_degree)

    def build(pairs):
        return MultiPoly(vars, {e: c for e, c in pairs if c != 0})

    return st.lists(st.tuples(mono, fractions()),
                    max_size=max_terms).map(build)


def nonzero_polys(vars: tuple, **kw):
    return polys(vars, **kw).filter(lambda p: not p.is_zero())


def ring_matrices(vars: tuple, size: int, max_degree: int = 2):
    entry = polys(vars, max_degree=max_degree, max_terms=3)
    return st.lists(st.lists(entry, min_size=size, max_size=size),
                    min_size=size, max_size=size).map(RingMatrix)
