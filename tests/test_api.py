"""The public API is pinned: a name added to or dropped from __all__ fails here, and library
code never writes to the streams."""

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

import pytest

import quatroots
from quatroots import companion, cpoly, roots, solver, verify
from quatroots.cpoly import ComplexPolynomial
from quatroots.roots import RootList

PUBLIC = {
    # solvers
    "solve_companion", "solve_complex_coeffs", "solve_discriminant",
    "solve_factored",
    # types
    "ConjugacyClass", "Quaternion", "SimplePolynomial", "ZeroSet",
    # checks
    "audit", "compare", "is_finite_zero_set",
    # errors
    "BothDenominatorsZeroError", "DegreeError", "NoConvergenceError",
    "NotComplexCoefficientsError", "UnpairedRootError",
}

# internals, out of __all__ and the package namespace, importable from their modules
INTERNAL = {
    "companion": ["ab", "companion", "power_decomp"],
    "cpoly": ["ComplexPolynomial", "gcd"],
    "quaternion": ["embed_complex", "sphere_directions"],
    "roots": ["RootList", "all_roots", "classify_real", "polish_multiples"],
    "solver": ["DEFAULT_TOLS", "all_roots", "derived", "discriminant", "factor_g",
               "is_spherical_root", "isolated_zero", "norm_polynomial", "normalize",
               "scaled_rows"],
    "verify": ["VerificationReport", "ZeroSetDiff", "residual"],
}

# test-only helpers and aliases that were folded into the names above, and deleted names
REMOVED = {
    "quaternion": ["ComplexMatrix2", "ComplexPair", "sigma", "unsplit",
                   "same_class", "class_sample", "ZERO", "split", "ONE", "I", "J", "K",
                   "_sphere_directions"],
    "solver": ["classify_eta", "_classify_complex_root_values",
               "_cofactor_discriminant", "NormalizedPolynomial", "DerivedPolynomials",
               "_norm_polynomial", "NonRealDiscriminantError", "NORM_REAL_TOL", "_side_values",
               "InexactDivisionError", "COFACTOR_ZERO_REL", "_last_discriminant"],
    "roots": ["polish_double", "_safe_ratio", "polished_roots", "_newton_refine", "_listed"],
    "companion": ["CompanionPolynomial", "PowerDecomposition", "NonRealCompanionError",
                  "monic_normalized"],
    "cpoly": ["scaled_values", "gcd_many", "scaled_horner"],
    "cli": ["_fmt", "_quaternion", "_coeff_rows"],
    "verify": ["eval_qpoly", "residual_limit"],
}


def test_all_is_the_pinned_list():
    assert len(quatroots.__all__) == len(set(quatroots.__all__)) == 16
    assert set(quatroots.__all__) == PUBLIC


def test_thresholds_are_not_exported():
    # the library owns its thresholds: solver.DEFAULT_TOLS is their one record
    assert not hasattr(quatroots, "Tolerances")
    assert not hasattr(quatroots, "DEFAULT_TOLS")


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
    assert "dedup" not in solver.Tolerances.__dataclass_fields__
    # no caller in the library: conjugacy and the imaginary modulus are compared by hand
    assert not hasattr(quatroots.ConjugacyClass, "contains")
    assert not hasattr(quatroots.ConjugacyClass, "distance")
    assert not hasattr(quatroots.Quaternion, "vec_norm")
    # classify_real reads roots.DEFAULT_REAL_TOL, the one record of the real threshold
    assert "real" not in solver.Tolerances.__dataclass_fields__
    assert not callable(ComplexPolynomial([1.0, 2.0]))
    assert "source_degree" not in RootList.__dataclass_fields__
    # Evaluator.branches gives the kernel's points with the values: one branch rule
    assert not hasattr(cpoly.Evaluator, "at")
    # scaled_rows is the one left scaling in front of the general routes
    assert not hasattr(quatroots.SimplePolynomial, "left_scaled")


def test_complex_polynomial_has_no_ring_api():
    # solver.norm_polynomial forms the only products and sums of polynomials
    public = {name for name in dir(ComplexPolynomial) if not name.startswith("_")}
    assert public == {"c", "coeff_norm", "degree", "derivative", "divrem", "is_zero",
                      "max_coeff", "monic"}
    for op in ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__"):
        assert not hasattr(ComplexPolynomial, op)


def test_discriminant_takes_the_pair_only():
    assert list(inspect.signature(solver.discriminant).parameters) == ["pair"]


def test_zero_set_build_takes_one_array_format():
    # (k,) real zeros, (k, 4) isolated-zero rows and (k,) complex sphere representatives
    assert list(inspect.signature(solver.ZeroSet.build).parameters) == [
        "reals", "isolated", "spheres"]


def test_companion_takes_the_polynomial_only():
    assert list(inspect.signature(companion.companion).parameters) == ["p"]


@pytest.mark.parametrize("func", [solver.solve_discriminant, solver.solve_factored,
                                  solver.solve_complex_coeffs, companion.solve_companion,
                                  solver.is_finite_zero_set], ids=lambda f: f.__name__)
def test_solvers_take_the_polynomial_only(func):
    assert list(inspect.signature(func).parameters) == ["p"]


def test_audit_takes_no_threshold():
    assert list(inspect.signature(verify.audit).parameters) == ["p", "zs"]
    assert verify.SAMPLES_PER_CLASS == 8


# layers that read the thresholds of solver.DEFAULT_TOLS: (function, parameters)
LAYER_READERS = [
    (roots.classify_real, ["rl"]),
    (solver.is_spherical_root, ["values", "majorants"]),
    (solver.factor_g, ["pair"]),
]


@pytest.mark.parametrize("func, params", LAYER_READERS,
                         ids=[f.__qualname__ for f, _ in LAYER_READERS])
def test_layers_take_no_tolerance(func, params):
    assert list(inspect.signature(func).parameters) == params


def test_the_thresholds_keep_their_values():
    assert solver.DEFAULT_TOLS == solver.Tolerances(zero=1e-10, gcd=1e-8, accept=1e-8)
    assert roots.DEFAULT_REAL_TOL == 1e-5


@pytest.mark.parametrize("mod", [verify, companion], ids=lambda m: m.__name__)
def test_modules_read_the_one_record(mod):
    assert mod.DEFAULT_TOLS is solver.DEFAULT_TOLS


def test_the_record_is_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        solver.DEFAULT_TOLS.zero = 1e-3


# every layer default that restates a Tolerances field: (function, parameter, field)
LAYER_DEFAULTS = [
    (cpoly.gcd, "tol", "gcd"),
]


@pytest.mark.parametrize("func, param, field", LAYER_DEFAULTS,
                         ids=[f"{f.__qualname__}.{p}" for f, p, _ in LAYER_DEFAULTS])
def test_layer_defaults_are_the_tolerances_defaults(func, param, field):
    default = inspect.signature(func).parameters[param].default
    assert default == getattr(solver.DEFAULT_TOLS, field) == getattr(solver.Tolerances, field)


# every library module but the CLI, which owns the process's streams
LIBRARY = sorted(p for p in Path(quatroots.__file__).parent.glob("*.py") if p.name != "cli.py")


@pytest.mark.parametrize("path", LIBRARY, ids=lambda p: p.name)
def test_library_code_never_writes_to_the_streams(path):
    # observability is machine-readable output of the CLI: library code calls no print and
    # touches neither sys.stdout nor sys.stderr, however imported
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [node.lineno for node in ast.walk(tree)
             if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                 and node.func.id == "print")
             or (isinstance(node, ast.Attribute) and node.attr in ("stdout", "stderr"))
             or (isinstance(node, ast.ImportFrom) and node.module == "sys"
                 and {a.name for a in node.names} & {"stdout", "stderr", "*"})]
    assert found == [], f"{path.name} writes to a stream at lines {found}"
