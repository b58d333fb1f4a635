"""Multiple zeros: a double real zero, a triple one and a double sphere, put into Gaussian inputs.

A pass means the route's zero set passes audit and reports the injected zero exactly once.
The cluster radii all_roots merges a multiple root's copies with come from Aberth's last
Newton correction, which covers the noise ball the copies stall in; each failure left is
a strict xfail, named by its input and route.
"""

import numpy as np
import pytest

from quatroots import audit, compare, solve_companion, solve_discriminant, solve_factored

from conftest import (MULTIPLE_ZERO_FAMILIES, cli_compare_inputs, multiple_zero_inputs,
                      reports_injected_once)

ROUTES = {"discriminant": solve_discriminant, "factored": solve_factored,
          "companion": solve_companion}

# the double inputs of the cli-compare benchmark pool, seed 1
SEED1_DOUBLE = range(2, 164, 4)
SEED1_DOUBLE_FAILS = {
    (26, "factored"): "the roots of g give the double zero as two real zeros "
                      "(ROADMAP items 4 and 12)",
}

FAMILY_COUNT = 20
FAMILY_FAILS = {
    ("triple", "discriminant"): ({7}, "a nonreal root of D without its conjugate"),
    ("triple", "companion"): ({7}, "a nonreal root of D without its conjugate"),
    ("triple", "factored"): ({0, 2, 4, 5, 6, 7, 10, 12, 13, 14, 16, 17, 19},
                             "the roots of g miss or split the triple zero "
                             "(ROADMAP items 4 and 12)"),
    ("sphere2", "factored"): ({15, 17}, "the roots of g give the double sphere twice "
                                        "(ROADMAP items 4 and 12)"),
}


def _xfail(reason):
    return [pytest.mark.xfail(strict=True, reason=reason)] if reason else []


def _family_marks(family, index, route):
    fails, reason = FAMILY_FAILS.get((family, route), ((), None))
    return _xfail(reason if index in fails else None)


@pytest.fixture(scope="module")
def seed1_double():
    return cli_compare_inputs(1, SEED1_DOUBLE)


@pytest.fixture(scope="module")
def family_inputs():
    # each family from its own generator, every input in the order drawn
    return {family: multiple_zero_inputs(family, FAMILY_COUNT, np.random.default_rng(12345))
            for family in MULTIPLE_ZERO_FAMILIES}


@pytest.mark.parametrize("pid, route", [
    pytest.param(pid, route, marks=_xfail(SEED1_DOUBLE_FAILS.get((pid, route))))
    for pid in SEED1_DOUBLE for route in ROUTES])
def test_cli_compare_seed_1_double_inputs(seed1_double, pid, route):
    # audited, the double real zero once, and agreeing with the discriminant route, as the
    # CLI's compare mode checks
    p, r = seed1_double[pid]
    zs = ROUTES[route](p)
    assert audit(p, zs).passed
    assert reports_injected_once(zs, r)
    assert not compare(solve_discriminant(p), zs)


@pytest.mark.parametrize("family, index, route", [
    pytest.param(family, index, route, marks=_family_marks(family, index, route))
    for family in MULTIPLE_ZERO_FAMILIES for index in range(FAMILY_COUNT) for route in ROUTES])
def test_family_inputs(family_inputs, family, index, route):
    p, injected = family_inputs[family][index]
    zs = ROUTES[route](p)
    assert audit(p, zs).passed
    assert reports_injected_once(zs, injected)
