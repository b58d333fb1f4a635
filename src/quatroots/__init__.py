"""quatroots: all zeros of simple quaternionic polynomials.

Finds every zero, isolated points and whole conjugacy spheres alike, of
polynomials with quaternion coefficients on the left of the powers.  Three
routes are provided and cross-checked: the discriminant-polynomial method,
its gcd-factored refinement, and the older companion-polynomial method.
"""

from .companion import (NonRealCompanionError, ab, companion,
                        monic_normalized, power_decomp, solve_companion)
from .cpoly import ComplexPolynomial, gcd, gcd_many
from .quaternion import ConjugacyClass, Quaternion, embed_complex, split
from .roots import (NoConvergenceError, RootList, UnpairedRootError,
                    all_roots, classify_real, polish_multiples)
from .solver import (BothDenominatorsZeroError, DegreeError,
                     DerivedPolynomials, InexactDivisionError,
                     NonRealDiscriminantError, NormalizedPolynomial,
                     NotComplexCoefficientsError, SimplePolynomial,
                     Tolerances, ZeroSet, derived, discriminant, factor_g,
                     is_finite_zero_set, is_spherical_root, isolated_zero,
                     normalize, solve_complex_coeffs, solve_discriminant,
                     solve_factored)
from .verify import (VerificationReport, ZeroSetDiff, audit, compare,
                     eval_qpoly, residual)

__version__ = "0.1.0"

__all__ = [
    "ComplexPolynomial", "ConjugacyClass", "DerivedPolynomials",
    "NormalizedPolynomial", "Quaternion", "RootList", "SimplePolynomial",
    "Tolerances", "VerificationReport", "ZeroSet", "ZeroSetDiff",
    "BothDenominatorsZeroError", "DegreeError", "InexactDivisionError",
    "NoConvergenceError", "NonRealCompanionError", "NonRealDiscriminantError",
    "NotComplexCoefficientsError", "UnpairedRootError",
    "ab", "all_roots", "audit", "classify_real", "companion", "compare",
    "derived", "discriminant", "embed_complex", "eval_qpoly", "factor_g",
    "gcd", "gcd_many", "is_finite_zero_set", "is_spherical_root",
    "isolated_zero", "monic_normalized", "normalize", "polish_multiples",
    "power_decomp", "residual", "solve_companion", "solve_complex_coeffs",
    "solve_discriminant", "solve_factored", "split",
]
