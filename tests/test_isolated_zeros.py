"""Isolated zeros put into Gaussian inputs by the factor theorem, and the boundary with a sphere.

isolated is G(x) (x - b); near(delta) is G(x) (x - a) (x - b), with a in b's conjugacy class
at angle delta from conj(b), which tends to the sphere (x - conj b) (x - b) as delta -> 0.
Down to delta = 1e-5 the D routes keep b isolated.  At 1e-8 and below b's position is
ill-conditioned and a sphere passes audit, so either verdict is backward-correct; there the
routes are held to audit only.  The sphere tests hold each value against its majorant, which
near |eta| = 1 can be (n + 1) max|c|: these inputs pin that boundary.
"""

import numpy as np
import pytest

from quatroots import audit, solve_discriminant, solve_factored

from conftest import isolated_zero_inputs, reports_isolated_once

ROUTES = {"discriminant": solve_discriminant, "factored": solve_factored}
COUNT = 20
PLACED = {"isolated": None, "near(1e-3)": 1e-3, "near(1e-5)": 1e-5}
AUDITED = {"near(1e-8)": 1e-8, "near(1e-10)": 1e-10}


@pytest.fixture(scope="module")
def family_inputs():
    # each family from its own generator, every input in the order drawn
    return {name: isolated_zero_inputs(delta, COUNT, np.random.default_rng(12345))
            for name, delta in {**PLACED, **AUDITED}.items()}


@pytest.mark.parametrize("family, index, route", [
    (family, index, route) for family in PLACED for index in range(COUNT) for route in ROUTES])
def test_reports_b_once(family_inputs, family, index, route):
    p, b = family_inputs[family][index]
    zs = ROUTES[route](p)
    assert audit(p, zs).passed
    assert reports_isolated_once(zs, b)


@pytest.mark.parametrize("family, index, route", [
    (family, index, route) for family in AUDITED for index in range(COUNT) for route in ROUTES])
def test_passes_audit_either_verdict(family_inputs, family, index, route):
    p, _ = family_inputs[family][index]
    assert audit(p, ROUTES[route](p)).passed
