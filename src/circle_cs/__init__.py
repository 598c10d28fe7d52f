"""Wrapped-Gaussian coherent states on the unit circle.

Numerics for states labeled by an integer winding number and a center
angle: closed-form overlaps built on a complex error function, moment
formulas with independent quadrature oracles, and a verified truncated
resolution of unity.
"""

from .errors import DomainError, ToleranceNotMet
from .observables import (
    ResolutionReport,
    expectation_P,
    expectation_P2,
    expectation_P2_fourier,
    expectation_P2_quadrature,
    expectation_P_quadrature,
    expectation_Q,
    expectation_Q_quadrature,
    expectation_Q_quadrature_table,
    momentum_dispersion,
    resolution_check,
)
from .overlaps import (
    OverlapResult,
    overlap,
    overlap_I1,
    overlap_I2,
    overlap_quadrature,
    overlap_quadrature_table,
    overlap_table_csv,
)
from .quadrature import QuadratureSpec, integrate
from .special import erf_complex
from .states import (
    SampledWaveFunction,
    StateLabel,
    coherent_eval,
    fourier_coefficients,
    normalization_constant,
    phase_transform,
    sample_state,
    shift_transform,
    wrap_angle,
)

__version__ = "0.1.0"

__all__ = [
    "DomainError",
    "ToleranceNotMet",
    "erf_complex",
    "QuadratureSpec",
    "integrate",
    "wrap_angle",
    "normalization_constant",
    "StateLabel",
    "SampledWaveFunction",
    "coherent_eval",
    "sample_state",
    "fourier_coefficients",
    "phase_transform",
    "shift_transform",
    "OverlapResult",
    "overlap",
    "overlap_I1",
    "overlap_I2",
    "overlap_quadrature",
    "overlap_quadrature_table",
    "overlap_table_csv",
    "expectation_Q",
    "expectation_Q_quadrature",
    "expectation_Q_quadrature_table",
    "expectation_P",
    "expectation_P_quadrature",
    "expectation_P2",
    "expectation_P2_quadrature",
    "expectation_P2_fourier",
    "momentum_dispersion",
    "ResolutionReport",
    "resolution_check",
    "__version__",
]
