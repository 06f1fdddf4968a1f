"""Exact adelic Chern-Weil calculus over the rationals.

Simplicial differential forms with rational coefficients, mixed
connections on chains of points, Chern forms, Grothendieck-style local
residues, fixed point sums, and a comparison between family cohomology
and simplicial cochains.  Everything is exact: no floats anywhere.
"""

from .adelic import (
    Chain, ChartModel, chern_form_component, chern_series,
    localization_check, mixed_connection, whitney_check,
)
from .dgforms import DGContext, DiffForm, FormMatrix, InvariantPolynomial
from .errors import EngineError
from .exactalg import MultiPoly, RatFunc, RingMatrix
from .residues import (
    GeneralizedFraction, LocalZeroData, gauss_bonnet_local, local_invariant,
    residue_general,
)
from .scenarios import (
    bott_sum, curve_adelic_integral, projective_space_scenario,
    whitney_scenario,
)
from .simplicial import FiniteSimplicialSet, fiber_integrate
from .sullivan import SullivanComplex, verify_de_rham

__version__ = "0.1.0"

__all__ = [
    "Chain", "ChartModel", "DGContext", "DiffForm", "EngineError",
    "FiniteSimplicialSet", "FormMatrix", "GeneralizedFraction",
    "InvariantPolynomial", "LocalZeroData", "MultiPoly", "RatFunc",
    "RingMatrix", "SullivanComplex",
    "bott_sum", "chern_form_component", "chern_series",
    "curve_adelic_integral", "fiber_integrate", "gauss_bonnet_local",
    "local_invariant", "localization_check", "mixed_connection",
    "projective_space_scenario", "residue_general",
    "verify_de_rham", "whitney_check", "whitney_scenario",
]
