import math

import numpy as np
import pytest

from quatroots.companion import (ab, companion, monic_normalized,
                                 power_decomp, solve_companion)
from quatroots.quaternion import I, J, ONE, Quaternion
from quatroots.solver import (SimplePolynomial, derived, discriminant,
                              normalize)
from quatroots.verify import audit, compare, eval_qpoly

from conftest import qapprox, random_simple_polynomials

SQRT3_2 = math.sqrt(3) / 2


class TestCompanion:
    def test_real_cubic_is_square(self, cubic_real):
        comp = companion(cubic_real)
        assert not comp.c.imag.any()
        assert tuple(comp.c.real) == pytest.approx((1, 2, 3, 4, 3, 2, 1))

    def test_degree6_mixed(self, degree6_mixed):
        comp = companion(monic_normalized(degree6_mixed))
        assert not comp.c.imag.any()
        assert tuple(comp.c.real) == pytest.approx(
            (1, 0, 1, 0, -1, 0, -2, 0, -1, 0, 1, 0, 1), abs=1e-12)

    def test_linear_unit_coefficient(self):
        # x + j: b = (|j|^2, 2 Re j, 1) = (1, 0, 1)
        comp = companion(SimplePolynomial([J, ONE]))
        assert tuple(comp.c.real) == pytest.approx((1, 0, 1))

    def test_requires_monic(self, cubic_ijk):
        with pytest.raises(ValueError):
            companion(cubic_ijk)

    def test_matches_discriminant_up_to_scale(self):
        for p in random_simple_polynomials(25, max_degree=10, seed=5):
            comp = companion(monic_normalized(p))
            disc = discriminant(derived(normalize(p)))
            assert comp.degree == disc.degree
            a = np.real(comp.c) / np.real(comp.c[-1])
            b = np.real(disc.c) / np.real(disc.c[-1])
            scale = max(1.0, np.abs(a).max())
            assert np.allclose(a, b, atol=1e-8 * scale, rtol=0)


class TestPowerDecomp:
    def test_at_i(self):
        pd = power_decomp(I, 3)
        assert pd.alpha == (0, 1, 0, -1)
        assert pd.beta == (1, 0, -1, 0)

    def test_at_sixth_root(self):
        x = Quaternion(0.5, SQRT3_2)
        pd = power_decomp(x, 2)
        assert pd.alpha[2] == pytest.approx(1)
        assert pd.beta[2] == pytest.approx(-1)

    def test_at_real_two(self):
        pd = power_decomp(Quaternion(2.0), 2)
        assert pd.alpha == (0, 1, 4)
        assert pd.beta == (1, 0, -4)

    def test_identity_against_direct_powers(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            x = Quaternion(*rng.uniform(-2, 2, size=4))
            n = int(rng.integers(0, 13))
            pd = power_decomp(x, n)
            power = ONE
            for j in range(n + 1):
                expected = x * pd.alpha[j] + ONE * pd.beta[j]
                assert abs(power - expected) <= 1e-10 * max(1.0, abs(x) ** j)
                power = power * x


class TestAB:
    def test_real_cubic_at_i(self, cubic_real):
        a, b = ab(cubic_real, I)
        assert abs(a) <= 1e-14 and abs(b) <= 1e-14

    def test_degree6_at_sixth_root(self, degree6_mixed):
        x = Quaternion(0.5, SQRT3_2)
        a, b = ab(degree6_mixed, x)
        assert qapprox(a, Quaternion(-1, -1, -2, 0), 1e-12)
        assert qapprox(b, Quaternion(2, -1, 1, 0), 1e-12)
        v = a.conjugate() * b
        assert qapprox(v, Quaternion(-3, 3, 3, 3), 1e-12)

    def test_split_identity_at_real_point(self, degree6_mixed):
        z = Quaternion(1.7)
        a, b = ab(degree6_mixed, z)
        assert qapprox(a * z + b, eval_qpoly(degree6_mixed, z), 1e-12)

    def test_split_identity_random(self):
        rng = np.random.default_rng(29)
        for p in random_simple_polynomials(20, seed=17):
            z = Quaternion(*rng.uniform(-2, 2, size=4))
            a, b = ab(p, z)
            scale = sum(abs(q) * max(1.0, abs(z)) ** j
                        for j, q in enumerate(p.coeffs))
            assert abs(a * z + b - eval_qpoly(p, z)) <= 1e-9 * scale


class TestSolveCompanion:
    def test_real_cubic(self, cubic_real):
        zs = solve_companion(cubic_real)
        assert len(zs.real_zeros) == 1
        assert zs.real_zeros[0] == pytest.approx(-1, abs=1e-10)
        assert len(zs.spherical) == 1
        assert zs.spherical[0].contains(I)

    def test_degree6_mixed(self, degree6_mixed):
        zs = solve_companion(degree6_mixed)
        assert sorted(round(x, 10) for x in zs.real_zeros) == [-1.0, 1.0]
        expected = [Quaternion(-0.5, 0.5, -0.5, -0.5),
                    Quaternion(0.5, -0.5, -0.5, -0.5)]
        for got, want in zip(zs.isolated_zeros, expected):
            assert qapprox(got, want, 1e-10)
        assert len(zs.spherical) == 1 and zs.spherical[0].contains(I)

    def test_x2_plus_1(self):
        zs = solve_companion(SimplePolynomial([1, 0, 1]))
        assert not zs.real_zeros and not zs.isolated_zeros
        assert len(zs.spherical) == 1

    def test_zero_constant_term(self):
        # x^2 + x factors as (x + 1) x: zeros 0 and -1
        zs = solve_companion(SimplePolynomial([0, 1, 1]))
        assert sorted(round(x, 12) for x in zs.real_zeros) == [-1.0, 0.0]

    def test_agrees_with_discriminant_route(self):
        from quatroots.solver import solve_discriminant
        for p in random_simple_polynomials(30, seed=41):
            assert not compare(solve_discriminant(p), solve_companion(p), tol=1e-6)

    def test_audit_clean(self, cubic_ijk, degree6_mixed):
        for p in (cubic_ijk, degree6_mixed):
            rep = audit(p, solve_companion(p))
            assert rep.passed
