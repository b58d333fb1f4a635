"""quatroots: all zeros of simple quaternionic polynomials.

Finds every zero, isolated points and whole conjugacy spheres alike, of
polynomials with quaternion coefficients on the left of the powers.  Three
routes are provided and cross-checked: the discriminant-polynomial method,
its gcd-factored refinement, and the older companion-polynomial method.
The layers of the routes import from their modules.
"""

from .companion import solve_companion
from .quaternion import ConjugacyClass, Quaternion
from .roots import NoConvergenceError, UnpairedRootError
from .solver import (BothDenominatorsZeroError, DegreeError, InexactDivisionError,
                     NotComplexCoefficientsError, SimplePolynomial, Tolerances, ZeroSet,
                     is_finite_zero_set, solve_complex_coeffs, solve_discriminant,
                     solve_factored)
from .verify import audit, compare

__version__ = "0.1.0"

__all__ = [
    "solve_companion", "solve_complex_coeffs", "solve_discriminant", "solve_factored",
    "ConjugacyClass", "Quaternion", "SimplePolynomial", "Tolerances", "ZeroSet",
    "audit", "compare", "is_finite_zero_set",
    "BothDenominatorsZeroError", "DegreeError", "InexactDivisionError", "NoConvergenceError",
    "NotComplexCoefficientsError", "UnpairedRootError",
]
