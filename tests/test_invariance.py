"""Metamorphic relations: transformations with an exactly known effect on the zero set.

x is central, so conjugating every coefficient by a unit quaternion u maps the zero set Z
of p to u Z u^-1: reals and spheres stay, and each isolated zero turns with the
coefficients.  For u = (1 + i + j + k)/2 the map is the cyclic permutation
(a1, a2, a3) -> (a3, a1, a2), exact in floating point, so each route must give the rotated
input the rotated zero set, under compare, with no reference answer.  It moves the
complex plane the derived pair (f1, f2) is read in, which the factored route's gcd does
not survive on multiple zeros (ROADMAP item 12).

Left scaling by a power of two fixes the zero set, and every general route first brings the
rows to one scale by an exact power of two, so it must give the scaled input the same set,
repr for repr.
"""

import functools

import numpy as np
import pytest

from quatroots import (Quaternion, SimplePolynomial, UnpairedRootError, ZeroSet, compare,
                       solve_companion, solve_discriminant, solve_factored)
from quatroots.quaternion import hamilton, rows

from conftest import MULTIPLE_ZERO_FAMILIES, multiple_zero_inputs

ROUTES = {"discriminant": solve_discriminant, "factored": solve_factored,
          "companion": solve_companion}
COUNT = 20
ROTATION = [0, 3, 1, 2]  # the components (a0, a3, a1, a2) of u q u^-1
U = (0.5, 0.5, 0.5, 0.5)

_GCD = ("the roots of g carry the multiple zero inexactly, so the answer depends on the "
        "frame (ROADMAP item 12)")
_UNPAIRED = "a nonreal root of D without its conjugate (ROADMAP item 4)"
# (family, route): (input indices, the error the failure shows, reason)
FAILS = {
    ("triple", "discriminant"): ({7}, UnpairedRootError, _UNPAIRED),
    ("triple", "companion"): ({7}, UnpairedRootError, _UNPAIRED),
    ("triple", "factored"): ({0, 1, 2, 4, 5, 6, 7, 9, 10, 12, 13, 14, 15, 16, 17, 18, 19},
                             AssertionError, _GCD),
    ("sphere2", "factored"): ({3, 15, 17}, AssertionError, _GCD),
}


def rotated(p: SimplePolynomial) -> SimplePolynomial:
    return SimplePolynomial.from_rows(p.rows[:, ROTATION])


def rotated_zeros(zs: ZeroSet) -> ZeroSet:
    turned = rows(zs.isolated_zeros)[:, ROTATION].tolist()
    return ZeroSet(zs.real_zeros, tuple(Quaternion(*q) for q in turned), zs.spherical)


@functools.cache
def _inputs(family: str):
    # each family from its own generator, as in test_multiple_zeros
    return multiple_zero_inputs(family, COUNT, np.random.default_rng(12345))


def test_the_permutation_is_conjugation_by_u():
    # on small integer rows every product and sum of the Hamilton products is exact
    q = np.random.default_rng(3).integers(-5, 6, size=(50, 4)).astype(float)
    u_conj = (U[0], -U[1], -U[2], -U[3])
    got = np.stack(hamilton(hamilton(U, q.T), u_conj), axis=-1)
    assert np.array_equal(got, q[:, ROTATION])


def _marks(family, index, route):
    indices, error, reason = FAILS.get((family, route), ((), None, None))
    if index in indices:
        return [pytest.mark.xfail(strict=True, raises=error, reason=reason)]
    return []


@pytest.mark.parametrize("family, index, route", [
    pytest.param(family, index, route, marks=_marks(family, index, route))
    for family in MULTIPLE_ZERO_FAMILIES for index in range(COUNT) for route in ROUTES])
def test_rotation_by_a_hurwitz_unit(family, index, route):
    p, _ = _inputs(family)[index]
    solve = ROUTES[route]
    assert not compare(solve(rotated(p)), rotated_zeros(solve(p)))


@functools.cache
def _dyadic_inputs():
    """Two Gaussian inputs at each degree 4, 6, ..., 22, the second with the constant term 0."""
    rng = np.random.default_rng(16)
    inputs = [rng.standard_normal((n + 1, 4)) for n in range(4, 24, 2) for _ in range(2)]
    for rows in inputs[1::2]:
        rows[0] = 0.0
    return inputs


@functools.cache
def _dyadic_solved(route: str, index: int) -> str:
    return repr(ROUTES[route](SimplePolynomial.from_rows(_dyadic_inputs()[index])))


# k = -600 is left out: the squared moduli of rows near 1e-181 underflow to 0 in
# SimplePolynomial's trim, which rejects the input as the zero polynomial (ROADMAP item 7)
@pytest.mark.parametrize("k", [-500, -1, 1, 500])
@pytest.mark.parametrize("route", ROUTES)
def test_left_scaling_by_a_power_of_two(route, k):
    for index, rows in enumerate(_dyadic_inputs()):
        scaled = SimplePolynomial.from_rows(np.ldexp(rows, k))
        assert repr(ROUTES[route](scaled)) == _dyadic_solved(route, index), index
