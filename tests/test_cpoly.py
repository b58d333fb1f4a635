import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from quatroots.cpoly import ComplexPolynomial, gcd, gcd_many, scaled_values

# derived polynomials of the cubic test case i x^3 + j x^2 + k x + 1
F1 = ComplexPolynomial([1, 0, 0, 1j])        # i t^3 + 1
F2 = ComplexPolynomial([0, 1j, 1])           # t^2 + i t
# derived polynomials of the degree-6 test case (after normalization)
G_F1 = ComplexPolynomial([1, 0, -1j, 0, -1, 0, 1j])   # i t^6 - t^4 - i t^2 + 1
G_F2 = ComplexPolynomial([0, -1j, 0, 0, 0, 1j])       # i t^5 - i t


def coeffs_close(p: ComplexPolynomial, expected, tol=1e-12) -> bool:
    exp = np.asarray(expected, dtype=complex)
    if p.degree != len(exp) - 1:
        return False
    return np.allclose(p.c, exp, atol=tol * max(1.0, np.abs(exp).max()), rtol=0)


coeff_st = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)
poly_st = st.lists(coeff_st, min_size=1, max_size=21).map(ComplexPolynomial)
# divisors with a tiny leading coefficient make division arbitrarily
# ill-conditioned, so divisor draws keep the leading term away from zero
lead_st = st.complex_numbers(min_magnitude=0.1, max_magnitude=1.0,
                             allow_nan=False, allow_infinity=False)
divisor_st = st.tuples(st.lists(coeff_st, min_size=0, max_size=20), lead_st).map(
    lambda cl: ComplexPolynomial(list(cl[0]) + [cl[1]]))


class TestEval:
    def test_t2_plus_1_at_i(self):
        assert ComplexPolynomial([1, 0, 1])(1j) == 0

    def test_f1_at_i(self):
        assert F1(1j) == pytest.approx(2)

    def test_f2_at_i(self):
        assert F2(1j) == pytest.approx(-2)

    def test_zero_polynomial(self):
        assert ComplexPolynomial()(3.7) == 0

    @given(poly_st, poly_st, st.complex_numbers(max_magnitude=1.0,
                                                allow_nan=False, allow_infinity=False))
    def test_multiplicative(self, p, q, t):
        s = max(1.0, abs(p(t)) * abs(q(t)))
        assert abs((p * q)(t) - p(t) * q(t)) <= 1e-10 * s


class TestScaledValues:
    @given(poly_st, poly_st, st.lists(st.complex_numbers(max_magnitude=4.0, allow_nan=False,
                                                         allow_infinity=False), max_size=6))
    def test_values_and_stacking(self, p, q, pts):
        z = np.array(pts, dtype=complex)
        n = max(p.degree, q.degree, 0)
        c = np.zeros((n + 1, 2), dtype=complex)
        c[: len(p.c), 0] = p.c
        c[: len(q.c), 1] = q.c
        inner = np.abs(z) <= 1.0
        for k, f in enumerate((p, q)):
            row = scaled_values(c, z)[k]
            # a stacked row is that polynomial's own evaluation, bit for bit
            assert np.array_equal(row, scaled_values(c[:, k], z))
            assert np.array_equal(row[inner], f(z[inner]))
            want = f(z[~inner]) / z[~inner] ** n
            assert np.allclose(row[~inner], want, rtol=0,
                               atol=1e-12 * max(1.0, np.abs(f.c).sum()))

    def test_high_degree_stays_finite(self):
        c = np.random.default_rng(0).standard_normal(2001) + 0j
        got = scaled_values(c, np.array([3.0 + 1.0j, -2.5j, 0.5]))
        assert np.all(np.isfinite(got)) and np.all(np.abs(got) > 0)


class TestConjCoeffs:
    def test_f1(self):
        assert coeffs_close(F1.conj_coeffs(), [1, 0, 0, -1j])

    def test_f2(self):
        assert coeffs_close(F2.conj_coeffs(), [0, -1j, 1])

    def test_real_fixed_point(self):
        p = ComplexPolynomial([1, -2, 3])
        assert coeffs_close(p.conj_coeffs(), [1, -2, 3])

    @given(poly_st)
    def test_involution_exact(self, p):
        back = p.conj_coeffs().conj_coeffs()
        assert back.degree == p.degree
        assert np.array_equal(back.c, p.c)


class TestMulAdd:
    def test_conjugate_linear_factors(self):
        p = ComplexPolynomial([1j, 1]) * ComplexPolynomial([-1j, 1])
        assert coeffs_close(p, [1, 0, 1])

    def test_mul_by_zero(self):
        assert (F1 * ComplexPolynomial()).is_zero

    def test_cubic_discriminant_product(self):
        # f1 conj(f1) + f2 conj(f2) = (t^2+1)(t^4+1)
        pt = F1 * F1.conj_coeffs() + F2 * F2.conj_coeffs()
        assert coeffs_close(pt, [1, 0, 1, 0, 1, 0, 1])
        # independent check by evaluation at sample points
        for t in (0.3, -1.7, 2.2j, 0.5 - 0.5j):
            expected = (t * t + 1) * (t ** 4 + 1)
            assert abs(pt(t) - expected) <= 1e-10 * max(1.0, abs(expected))


class TestDivrem:
    def test_exact_linear(self):
        q, r = ComplexPolynomial([1, 0, 1]).divrem(ComplexPolynomial([1j, 1]))
        assert coeffs_close(q, [-1j, 1])
        assert r.is_zero

    def test_monomials(self):
        q, r = ComplexPolynomial([0, 0, 0, 1]).divrem(ComplexPolynomial([0, 0, 1]))
        assert coeffs_close(q, [0, 1])
        assert r.is_zero

    def test_degree6_by_common_factor(self):
        g = ComplexPolynomial([-1, 0, 0, 0, 1])  # t^4 - 1
        q1, r1 = G_F1.divrem(g)
        q2, r2 = G_F2.divrem(g)
        assert r1.coeff_norm() <= 1e-12
        assert r2.coeff_norm() <= 1e-12
        assert coeffs_close(q1, [-1, 0, 1j])     # i t^2 - 1
        assert coeffs_close(q2, [0, 1j])         # i t

    def test_zero_divisor_raises(self):
        with pytest.raises(ZeroDivisionError):
            F1.divrem(ComplexPolynomial())

    @given(poly_st, divisor_st)
    def test_reconstruction(self, p, d):
        if d.is_zero:
            return
        q, r = p.divrem(d)
        back = q * d + r
        # intrinsic scale of the reconstruction: quotient growth is part of
        # the conditioning of division, not an error of it
        scale = max(1.0, p.coeff_norm(), q.coeff_norm() * d.coeff_norm())
        assert (back - p).coeff_norm() <= 1e-10 * scale
        assert r.degree < d.degree


class TestGcd:
    def test_cubic_derived_pair(self):
        g = gcd(F1, F2)
        assert coeffs_close(g, [1j, 1])  # t + i, monic

    def test_coprime_with_constant(self):
        g = gcd(F1, ComplexPolynomial([1]))
        assert coeffs_close(g, [1])

    def test_degree6_derived_pair(self):
        g = gcd(G_F1, G_F2)
        assert coeffs_close(g, [-1, 0, 0, 0, 1])  # t^4 - 1

    def test_gcd_with_zero(self):
        g = gcd(F2, ComplexPolynomial())
        assert coeffs_close(g, [0, 1j, 1] / np.complex128(1))  # monic already

    def test_both_zero_raises(self):
        with pytest.raises(ValueError):
            gcd(ComplexPolynomial(), ComplexPolynomial())

    def test_roundoff_leading_coefficient_ignored(self):
        # a 1e-17-relative leading coefficient is quaternion-arithmetic junk,
        # not a degree; naively normalizing by it derails the whole sequence
        clean = ComplexPolynomial([3, 4, 1])          # (t+1)(t+3)
        poisoned = ComplexPolynomial([3, 4, 1, 4e-17])
        other = ComplexPolynomial([2, 3, 1])          # (t+1)(t+2)
        g = gcd(poisoned, other)
        assert coeffs_close(g, [1, 1])                # t + 1
        assert coeffs_close(gcd(clean, other), [1, 1])

    def test_planted_common_factor(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            g = ComplexPolynomial(rng.standard_normal(4) + 1j * rng.standard_normal(4))
            a = ComplexPolynomial(rng.standard_normal(5) + 1j * rng.standard_normal(5))
            b = ComplexPolynomial(rng.standard_normal(5) + 1j * rng.standard_normal(5))
            p, q = g * a, g * b
            d = gcd(p, q)
            assert d.degree >= g.degree  # common factor not missed
            for full in (p, q):
                _, r = full.divrem(d)
                assert r.coeff_norm() <= 1e-8 * full.coeff_norm()


class TestGcdMany:
    def test_idempotent(self):
        p = ComplexPolynomial([1, 0, 1])
        assert coeffs_close(gcd_many([p, p]), [1, 0, 1])

    def test_real_cubic_with_zero_partner(self):
        # one polynomial vanishes identically: gcd is the monic other
        f1 = ComplexPolynomial([1, 1, 1, 1])
        zero = ComplexPolynomial()
        g = gcd_many([f1, zero, f1.conj_coeffs(), zero])
        assert coeffs_close(g, [1, 1, 1, 1])
        _, r = f1.divrem(g)
        assert r.coeff_norm() <= 1e-12

    def test_pairwise_coprime(self):
        ps = [ComplexPolynomial([1j, 1]), ComplexPolynomial([-1j, 1]),
              ComplexPolynomial([0, 1])]
        assert coeffs_close(gcd_many(ps), [1])

    def test_all_zero_raises(self):
        with pytest.raises(ValueError):
            gcd_many([ComplexPolynomial(), ComplexPolynomial()])


class TestIsRealCoeffs:
    def test_cubic_discriminant(self):
        pt = F1 * F1.conj_coeffs() + F2 * F2.conj_coeffs()
        assert pt.is_real_coeffs(1e-10)

    def test_t_plus_i(self):
        assert not ComplexPolynomial([1j, 1]).is_real_coeffs(1e-10)

    def test_zero_polynomial(self):
        assert ComplexPolynomial().is_real_coeffs(1e-10)


class TestRepresentation:
    def test_trailing_zeros_trimmed(self):
        p = ComplexPolynomial([1, 2, 0, 0])
        assert p.degree == 1

    def test_zero_is_empty(self):
        assert ComplexPolynomial([0, 0]).is_zero
        assert ComplexPolynomial([0, 0]).degree == -1

    def test_tiny_relative_leading_kept(self):
        # 1e-20 relative to 1 is far above the 1e-30 trim threshold
        p = ComplexPolynomial([1, 0, 1e-20])
        assert p.degree == 2

    def test_derivative(self):
        p = ComplexPolynomial([5, 3, 0, 2])
        assert coeffs_close(p.derivative(), [3, 0, 6])
