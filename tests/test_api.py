"""The public API is pinned: a name added to or dropped from __all__ fails here."""

import importlib

import pytest

import quatroots

PUBLIC = {
    # types
    "ComplexPolynomial", "ConjugacyClass", "DerivedPolynomials",
    "NormalizedPolynomial", "Quaternion", "RootList", "SimplePolynomial",
    "Tolerances", "VerificationReport", "ZeroSet", "ZeroSetDiff",
    # errors
    "BothDenominatorsZeroError", "DegreeError", "InexactDivisionError",
    "NoConvergenceError", "NonRealCompanionError", "NonRealDiscriminantError",
    "NotComplexCoefficientsError", "UnpairedRootError",
    # functions
    "ab", "all_roots", "audit", "classify_real", "companion", "compare",
    "derived", "discriminant", "embed_complex", "eval_qpoly", "factor_g",
    "gcd", "gcd_many", "is_finite_zero_set", "is_spherical_root",
    "isolated_zero", "monic_normalized", "normalize", "polish_multiples",
    "power_decomp", "residual", "solve_companion", "solve_complex_coeffs",
    "solve_discriminant", "solve_factored", "split",
}

# test-only helpers and aliases that were folded into the names above
REMOVED = {
    "quaternion": ["ComplexMatrix2", "ComplexPair", "sigma", "unsplit",
                   "same_class", "class_sample", "ZERO"],
    "solver": ["classify_eta", "_classify_complex_root_values",
               "_cofactor_discriminant"],
    "roots": ["polish_double"],
    "companion": ["CompanionPolynomial", "PowerDecomposition"],
}


def test_all_is_the_pinned_list():
    assert len(quatroots.__all__) == len(set(quatroots.__all__)) == 45
    assert set(quatroots.__all__) == PUBLIC


def test_every_public_name_resolves():
    missing = [name for name in quatroots.__all__ if not hasattr(quatroots, name)]
    assert missing == []


@pytest.mark.parametrize("module", sorted(REMOVED))
def test_removed_names_stay_gone(module):
    mod = importlib.import_module(f"quatroots.{module}")
    for name in REMOVED[module]:
        assert not hasattr(quatroots, name)
        assert not hasattr(mod, name)


def test_removed_methods_stay_gone():
    assert not hasattr(quatroots.ConjugacyClass, "from_quaternion")
    assert not hasattr(quatroots.Quaternion, "is_real")
