import math

import numpy as np
import pytest

from quatroots.companion import (ab, companion, monic_normalized,
                                 power_decomp, solve_companion)
from quatroots.quaternion import I, J, ONE, Quaternion, embed_complex
from quatroots.cpoly import ComplexPolynomial
from quatroots.solver import (SimplePolynomial, derived, discriminant,
                              normalize, solve_discriminant)
from quatroots.verify import audit, compare, eval_qpoly

from conftest import (ab_reference, companion_reference,
                      power_decomp_reference, qapprox,
                      random_simple_polynomials, solve_companion_reference)

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

    @pytest.mark.parametrize("inputs", ["random", "gaussian"])
    def test_matches_the_scalar_reference(self, inputs):
        if inputs == "random":
            polys = random_simple_polynomials(200, max_degree=10, seed=19)
        else:
            rng = np.random.default_rng(8)
            polys = [SimplePolynomial.from_rows(rng.standard_normal((n + 1, 4)))
                     for n in range(8, 49)]
        for p in polys:
            pm = monic_normalized(p)
            want = ComplexPolynomial(companion_reference(pm))
            assert companion(pm).c.tolist() == want.c.tolist()

    def test_matches_discriminant_up_to_scale(self):
        for p in random_simple_polynomials(25, max_degree=10, seed=5):
            comp = companion(monic_normalized(p))
            disc = discriminant(derived(normalize(p)))
            assert comp.degree == disc.degree
            a = np.real(comp.c) / np.real(comp.c[-1])
            b = np.real(disc.c) / np.real(disc.c[-1])
            scale = max(1.0, np.abs(a).max())
            assert np.allclose(a, b, atol=1e-8 * scale, rtol=0)


def _scaled(q: Quaternion, z: Quaternion, n: int) -> Quaternion:
    """q / max(1, |z|)^n, the scale ab divides by."""
    return q / max(1.0, abs(z)) ** n


class TestPowerDecomp:
    def test_at_i(self):
        alpha, beta = power_decomp(1j, 3)
        assert alpha.tolist() == [0, 1, 0, -1]
        assert beta.tolist() == [1, 0, -1, 0]

    def test_at_sixth_root(self):
        alpha, beta = power_decomp(complex(0.5, SQRT3_2), 2)
        assert alpha[2] == pytest.approx(1)
        assert beta[2] == pytest.approx(-1)

    def test_at_real_two(self):
        alpha, beta = power_decomp(2.0, 2)
        assert alpha.tolist() == [0, 1, 4]
        assert beta.tolist() == [1, 0, -4]

    def test_identity_against_direct_powers(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            x = Quaternion(*rng.uniform(-2, 2, size=4))
            n = int(rng.integers(0, 13))
            alpha, beta = power_decomp(complex(x.re, x.vec_norm()), n)
            power = ONE
            for j in range(n + 1):
                expected = x * float(alpha[j]) + ONE * float(beta[j])
                assert abs(power - expected) <= 1e-10 * max(1.0, abs(x) ** j)
                power = power * x

    def test_array_matches_the_scalar_reference(self):
        rng = np.random.default_rng(71)
        xs = rng.uniform(-2, 2, size=50) + 1j * rng.uniform(-2, 2, size=50)
        alpha, beta = power_decomp(xs, 12)
        assert alpha.shape == beta.shape == (13, 50)
        for x, a, b in zip(xs.tolist(), alpha.T.tolist(), beta.T.tolist()):
            assert (tuple(a), tuple(b)) == power_decomp_reference(embed_complex(x), 12)


class TestAB:
    def test_real_cubic_at_i(self, cubic_real):
        a, b = ab(cubic_real, 1j)
        assert abs(Quaternion(*a)) <= 1e-14 and abs(Quaternion(*b)) <= 1e-14

    def test_degree6_at_sixth_root(self, degree6_mixed):
        a, b = ab(degree6_mixed, complex(0.5, SQRT3_2))
        a, b = Quaternion(*a), Quaternion(*b)
        assert qapprox(a, Quaternion(-1, -1, -2, 0), 1e-12)
        assert qapprox(b, Quaternion(2, -1, 1, 0), 1e-12)
        v = a.conjugate() * b
        assert qapprox(v, Quaternion(-3, 3, 3, 3), 1e-12)

    def test_split_identity_at_real_point(self, degree6_mixed):
        z = Quaternion(1.7)
        a, b = ab(degree6_mixed, 1.7)
        fit = Quaternion(*a) * z + Quaternion(*b)
        assert qapprox(fit, _scaled(eval_qpoly(degree6_mixed, z), z, 6), 1e-12)

    def test_split_identity_random(self):
        rng = np.random.default_rng(29)
        for p in random_simple_polynomials(20, seed=17):
            z = Quaternion(*rng.uniform(-2, 2, size=4))
            a, b = ab(p, complex(z.re, z.vec_norm()))
            scale = sum(abs(q) * max(1.0, abs(z)) ** j
                        for j, q in enumerate(p.coeffs))
            err = Quaternion(*a) * z + Quaternion(*b) - _scaled(eval_qpoly(p, z), z, p.degree)
            assert abs(err) <= 1e-9 * scale / max(1.0, abs(z)) ** p.degree

    def test_matches_the_unscaled_reference(self):
        # bit for bit where |z| <= 1 (the divisor is exactly 1), and the
        # reference divided by |z|^n elsewhere
        rng = np.random.default_rng(37)
        for p in random_simple_polynomials(40, max_degree=12, seed=23):
            zs = np.array([complex(*rng.uniform(-1.5, 1.5, size=2)) for _ in range(6)])
            a, b = ab(p, zs)
            for z, ai, bi in zip(zs.tolist(), a, b):
                ra, rb = ab_reference(p, embed_complex(z))
                if abs(z) <= 1.0:
                    assert Quaternion(*ai) == ra and Quaternion(*bi) == rb
                    continue
                scale = abs(z) ** p.degree
                for got, ref in ((ai, ra), (bi, rb)):
                    want = ref / scale
                    assert abs(Quaternion(*got) - want) <= 1e-12 * abs(want)


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
        for p in random_simple_polynomials(30, seed=41):
            assert not compare(solve_discriminant(p), solve_companion(p), tol=1e-6)

    def test_audit_clean(self, cubic_ijk, degree6_mixed):
        for p in (cubic_ijk, degree6_mixed):
            rep = audit(p, solve_companion(p))
            assert rep.passed

    def test_matches_the_scalar_reference(self):
        # the same categories; isolated zeros inside the unit ball, where ab
        # divides by exactly 1, bit for bit, and the rest to 1e-12
        rng = np.random.default_rng(47)
        polys = random_simple_polynomials(100, max_degree=10, seed=31)
        polys += [SimplePolynomial.from_rows(rng.standard_normal((n + 1, 4)))
                  for n in range(8, 49, 4)]
        for p in polys:
            got, ref = solve_companion(p), solve_companion_reference(p)
            assert got.real_zeros == ref.real_zeros
            assert got.spherical == ref.spherical
            assert len(got.isolated_zeros) == len(ref.isolated_zeros)
            for q, r in zip(got.isolated_zeros, ref.isolated_zeros):
                if abs(r) < 1.0 - 1e-12:
                    assert q == r
                else:
                    assert abs(q - r) <= 1e-12 * abs(r)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("seed", [1, 2])
    def test_degree_400_gaussian(self, seed):
        # unscaled, A and B overflowed |conj(A) B| and the route raised
        # RuntimeError("nonzero v with vanishing imaginary part")
        p = SimplePolynomial.from_rows(np.random.default_rng(seed).standard_normal((401, 4)))
        zs = solve_companion(p)
        assert zs.class_count() == 400
        assert not compare(solve_discriminant(p), zs)
        assert audit(p, zs).passed
