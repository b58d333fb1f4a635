"""The shifted family p(x + 0.375), p Gaussian (conftest.shifted_inputs): regression tests.

Every route holds each root of D (or of the companion polynomial) against that
polynomial's own rounding, and D squares the condition numbers of p's zeros, so the
routes accept roots anywhere in D's pseudozero region (ROADMAP item 3).  From degree 32
those roots are wide enough to chain into one cluster, or to lose their conjugates: the
route raises, or returns a set that fails audit, at degree 44 mostly a single real zero.
The companion route shares D up to a factor, and its root finder (item 5); at degree 24 its
failures are false spheres from its own sphere test (item 10).  Each failure is a strict
xfail that names the error it shows, AssertionError where audit fails.
"""

import functools

import pytest

from quatroots import (NoConvergenceError, UnpairedRootError, audit, compare, solve_companion,
                       solve_discriminant, solve_factored)

from conftest import shifted_inputs

ROUTES = {"discriminant": solve_discriminant, "factored": solve_factored,
          "companion": solve_companion}
DEGREES = (24, 32, 44)
COUNT = 20

_D_ROUTE = "D's roots accepted anywhere in its pseudozero region (ROADMAP item 3)"
_COMPANION = ("the companion polynomial is D up to a factor, and shares its root finder "
              "(ROADMAP item 5)")
_FALSE_SPHERE = ("a false sphere in place of isolated zeros: the companion's quadratic sphere "
                 "test |v| <= tol s^2 (ROADMAP item 10)")
_DEGREE_32 = {AssertionError: {0, 3, 4, 5, 8, 13},  # 4, 5, 8 and 13 collapse to one real zero
              UnpairedRootError: {1, 2, 6, 7, 9, 10, 11, 12, 14, 15, 16, 18},
              NoConvergenceError: {17, 19}}
# (degree, route): {what the failure shows: input indices}
FAILS = {
    (24, "companion"): ({AssertionError: {2, 4, 5, 6, 8, 14, 15, 18}}, _FALSE_SPHERE),
    (32, "discriminant"): (_DEGREE_32, _D_ROUTE),
    (32, "factored"): (_DEGREE_32, _D_ROUTE),
    (32, "companion"): ({AssertionError: {0, 4, 5, 8, 13},
                         UnpairedRootError: {1, 2, 3, 6, 7, 9, 10, 11, 12, 14, 15, 16, 18},
                         NoConvergenceError: {17, 19}}, _COMPANION),
    # every input but 14 collapses to one real zero; on the companion route 14 does too
    (44, "discriminant"): ({AssertionError: set(range(COUNT))}, _D_ROUTE),
    (44, "factored"): ({AssertionError: set(range(COUNT))}, _D_ROUTE),
    (44, "companion"): ({AssertionError: set(range(COUNT))}, _COMPANION),
}


@functools.cache
def _inputs(n: int):
    return shifted_inputs(n, COUNT)


@functools.cache
def _solved(n: int, index: int, route: str):
    return ROUTES[route](_inputs(n)[index])


def _marks(n, index, route):
    fails, reason = FAILS.get((n, route), ({}, None))
    for error, indices in fails.items():
        if index in indices:
            return [pytest.mark.xfail(strict=True, raises=error, reason=reason)]
    return []


@pytest.mark.parametrize("n, index, route", [
    pytest.param(n, index, route, marks=_marks(n, index, route))
    for n in DEGREES for index in range(COUNT) for route in ROUTES])
def test_passes_audit(n, index, route):
    assert audit(_inputs(n)[index], _solved(n, index, route)).passed


@pytest.mark.parametrize("index", range(COUNT))
def test_d_routes_agree_at_degree_24(index):
    assert not compare(_solved(24, index, "discriminant"), _solved(24, index, "factored"))
