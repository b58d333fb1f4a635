"""The public API is pinned: a name added to or dropped from __all__ fails here."""

import importlib
import inspect

import pytest

import quatroots
from quatroots import companion, cpoly, roots, solver
from quatroots.cpoly import ComplexPolynomial
from quatroots.roots import RootList

PUBLIC = {
    # solvers
    "solve_companion", "solve_complex_coeffs", "solve_discriminant",
    "solve_factored",
    # types
    "ConjugacyClass", "Quaternion", "SimplePolynomial", "Tolerances", "ZeroSet",
    # checks
    "audit", "compare", "is_finite_zero_set",
    # errors
    "BothDenominatorsZeroError", "DegreeError", "InexactDivisionError",
    "NoConvergenceError", "NotComplexCoefficientsError", "UnpairedRootError",
}

# internals, out of __all__ and the package namespace, importable from their modules
INTERNAL = {
    "companion": ["ab", "companion", "monic_normalized", "power_decomp"],
    "cpoly": ["ComplexPolynomial", "gcd"],
    "quaternion": ["embed_complex"],
    "roots": ["RootList", "all_roots", "classify_real", "polish_multiples"],
    "solver": ["DEFAULT_TOLS", "all_roots", "derived", "discriminant", "factor_g",
               "is_spherical_root", "isolated_zero", "norm_polynomial", "normalize"],
    "verify": ["VerificationReport", "ZeroSetDiff", "residual"],
}

# test-only helpers and aliases that were folded into the names above, and deleted names
REMOVED = {
    "quaternion": ["ComplexMatrix2", "ComplexPair", "sigma", "unsplit",
                   "same_class", "class_sample", "ZERO", "split", "ONE", "I", "J", "K"],
    "solver": ["classify_eta", "_classify_complex_root_values",
               "_cofactor_discriminant", "NormalizedPolynomial", "DerivedPolynomials",
               "_norm_polynomial", "NonRealDiscriminantError", "NORM_REAL_TOL"],
    "roots": ["polish_double", "_safe_ratio", "polished_roots", "_newton_refine"],
    "companion": ["CompanionPolynomial", "PowerDecomposition", "NonRealCompanionError"],
    "cpoly": ["scaled_values", "gcd_many", "scaled_horner"],
    "cli": ["_fmt"],
    "verify": ["eval_qpoly", "residual_limit"],
}


def test_all_is_the_pinned_list():
    assert len(quatroots.__all__) == len(set(quatroots.__all__)) == 18
    assert set(quatroots.__all__) == PUBLIC


def test_every_public_name_resolves():
    missing = [name for name in quatroots.__all__ if not hasattr(quatroots, name)]
    assert missing == []


@pytest.mark.parametrize("module", sorted(INTERNAL))
def test_internals_stay_importable_from_their_modules(module):
    mod = importlib.import_module(f"quatroots.{module}")
    for name in INTERNAL[module]:
        assert getattr(quatroots, name, None) is not getattr(mod, name)


@pytest.mark.parametrize("module", sorted(REMOVED))
def test_removed_names_stay_gone(module):
    mod = importlib.import_module(f"quatroots.{module}")
    for name in REMOVED[module]:
        assert not hasattr(quatroots, name)
        assert not hasattr(mod, name)


def test_removed_methods_stay_gone():
    assert not hasattr(quatroots.ConjugacyClass, "from_quaternion")
    assert not hasattr(quatroots.Quaternion, "is_real")
    assert not hasattr(quatroots.ZeroSet, "is_empty")
    assert "dedup" not in quatroots.Tolerances.__dataclass_fields__
    assert not callable(ComplexPolynomial([1.0, 2.0]))
    assert "source_degree" not in RootList.__dataclass_fields__


def test_complex_polynomial_has_no_ring_api():
    # solver.norm_polynomial forms the only products and sums of polynomials
    public = {name for name in dir(ComplexPolynomial) if not name.startswith("_")}
    assert public == {"c", "coeff_norm", "degree", "derivative", "divrem", "is_zero",
                      "max_coeff", "monic"}
    for op in ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__"):
        assert not hasattr(ComplexPolynomial, op)


def test_discriminant_takes_the_pair_only():
    assert list(inspect.signature(solver.discriminant).parameters) == ["pair"]


def test_companion_takes_the_polynomial_only():
    assert list(inspect.signature(companion.companion).parameters) == ["p"]


# every layer default that restates a Tolerances field: (function, parameter, field)
LAYER_DEFAULTS = [
    (roots.pair_conjugates, "tol_real", "real"),
    (roots.classify_real, "tol_real", "real"),
    (solver.is_spherical_root, "tol_zero", "zero"),
    (cpoly.gcd, "tol", "gcd"),
    (solver.factor_g, "tol", "gcd"),
]


@pytest.mark.parametrize("func, param, field", LAYER_DEFAULTS,
                         ids=[f"{f.__qualname__}.{p}" for f, p, _ in LAYER_DEFAULTS])
def test_layer_defaults_are_the_tolerances_defaults(func, param, field):
    default = inspect.signature(func).parameters[param].default
    assert default == getattr(solver.DEFAULT_TOLS, field) == getattr(solver.Tolerances, field)
