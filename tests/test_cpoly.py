import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from quatroots.cpoly import BABY, BLOCK, ComplexPolynomial, Evaluator, gcd, scaled_horner
from quatroots.roots import _eval_state

from conftest import (forward_sums, horner_reference, kernel_value, poly_add, poly_mul,
                      power_matrix_reference)

_EPS = float(np.finfo(np.float64).eps)

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


def _at(p: ComplexPolynomial, t):
    return kernel_value(p.c, t)


class TestEval:
    def test_t2_plus_1_at_i(self):
        assert _at(ComplexPolynomial([1, 0, 1]), 1j) == 0

    def test_f1_at_i(self):
        assert _at(F1, 1j) == pytest.approx(2)

    def test_f2_at_i(self):
        assert _at(F2, 1j) == pytest.approx(-2)

    @given(poly_st, poly_st, st.complex_numbers(max_magnitude=1.0,
                                                allow_nan=False, allow_infinity=False))
    def test_multiplicative(self, p, q, t):
        s = max(1.0, abs(_at(p, t)) * abs(_at(q, t)))
        assert abs(_at(poly_mul(p, q), t) - _at(p, t) * _at(q, t)) <= 1e-10 * s


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
            row = scaled_horner(c, z)[0][k]
            # a stacked row is that polynomial's own evaluation, bit for bit
            assert np.array_equal(row, scaled_horner(c[:, k], z)[0])
            assert np.array_equal(row[inner], _at(f, z[inner]))
            want = _at(f, z[~inner]) / z[~inner] ** n
            assert np.allclose(row[~inner], want, rtol=0,
                               atol=1e-12 * max(1.0, np.abs(f.c).sum()))

    def test_high_degree_stays_finite(self):
        c = np.random.default_rng(0).standard_normal(2001) + 0j
        got = scaled_horner(c, np.array([3.0 + 1.0j, -2.5j, 0.5]))[0]
        assert np.all(np.isfinite(got)) and np.all(np.abs(got) > 0)


def _kernel_points(rng, m: int) -> np.ndarray:
    """0, points on the unit circle, just inside it, and spread over the disc."""
    ring = np.exp(2j * np.pi * rng.random(m))
    return np.concatenate([[0.0], ring, ring * (1.0 - 1e-9), ring * np.sqrt(rng.random(m))])


class TestPowerKernel:
    @pytest.mark.parametrize("r", [1, 2])
    def test_below_baby_it_is_the_power_matrix_bit_for_bit(self, r):
        rng = np.random.default_rng(r)
        u = _kernel_points(rng, 16)
        for n in range(BABY):
            c = rng.standard_normal((n + 1, r)) + 1j * rng.standard_normal((n + 1, r))
            got = forward_sums(c, u)
            # the reference's stacked majorant reads strided rows of |c| and differs
            # from its single-column one in the last bits, so each column is its own
            for k in range(r):
                want = power_matrix_reference(np.ascontiguousarray(c[:, k]), u)
                for g, w in zip(got, want):
                    assert np.array_equal(g[k], w), (n, k)
            assert all(np.array_equal(g, w)
                       for g, w in zip(got[:2], power_matrix_reference(c, u)[:2])), n

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 40, BABY - 1, BABY, BABY + 1, 2 * BABY,
                                   3 * BABY + 5, 333, 800, 1000, 2000])
    def test_within_the_horner_bound(self, n):
        # |delta| <= 4(n+1) eps times the majorant of the value compared:
        # sum |c_k||u|^k for p and maj, sum k|c_k||u|^(k-1) for p'
        rng = np.random.default_rng(n)
        c = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
        u = _kernel_points(rng, 24)
        p, dp, maj = forward_sums(c, u)
        rp, rdp, rmaj = horner_reference(c, u)
        dmaj = horner_reference(np.abs(c[1:]) * np.arange(1, n + 1), np.abs(u))[0].real
        bound = 4 * (n + 1) * _EPS
        assert np.all(np.abs(p - rp) <= bound * rmaj)
        assert np.all(np.abs(dp - rdp) <= bound * dmaj)
        assert np.all(np.abs(maj - rmaj) <= bound * rmaj)

    def test_stacking_and_padding_across_a_chunk_boundary(self):
        # degree BABY - 2 padded to 3 BABY: its padding fills whole giant-step chunks
        rng = np.random.default_rng(7)
        lo, hi = BABY - 2, 3 * BABY
        c = np.zeros((hi + 1, 2), dtype=np.complex128)
        c[:lo + 1, 0] = rng.standard_normal(lo + 1) + 1j * rng.standard_normal(lo + 1)
        c[:, 1] = rng.standard_normal(hi + 1) + 1j * rng.standard_normal(hi + 1)
        u = _kernel_points(rng, 40)
        stacked = forward_sums(c, u)
        padded, other = (forward_sums(c[:, k].copy(), u) for k in range(2))
        for k, col in enumerate((padded, other)):
            assert all(np.array_equal(s[k], v) for s, v in zip(stacked, col))
        alone = forward_sums(c[:lo + 1, 0].copy(), u)
        assert all(np.array_equal(v, a) for v, a in zip(padded[:2], alone[:2]))
        # the majorant's real contraction groups a longer sum differently
        assert np.all(np.abs(padded[2] - alone[2]) <= 4 * (hi + 1) * _EPS * alone[2])

    @pytest.mark.parametrize("n", [5, 300, 3 * BABY + 5])
    def test_a_point_has_one_value_in_any_batch(self, n):
        rng = np.random.default_rng(n)
        c = rng.standard_normal((n + 1, 2)) + 1j * rng.standard_normal((n + 1, 2))
        b = min(BABY, n + 1)
        step = max(1, BLOCK // (b + -(-(n + 1) // b)))  # the kernel's points per block
        u = _kernel_points(rng, max(8, step))
        full = forward_sums(c, u)
        # alone, inside a batch, and either side of a block boundary
        for i in sorted({0, 1, step - 1, step, step + 1, len(u) - 1}):
            for lo in (i, max(0, i - 1), max(0, i - step + 1)):
                part = forward_sums(c, u[lo:i + 1])
                for whole, sub in zip(full, part):
                    assert np.array_equal(whole[:, i], sub[:, -1])

    def test_eval_state_of_a_subset_is_the_subset_of_eval_state(self):
        # both branches: the root finder steps a subset of its roots
        rng = np.random.default_rng(5)
        c = rng.standard_normal(201) + 1j * rng.standard_normal(201)
        z = 3.0 * (rng.standard_normal(500) + 1j * rng.standard_normal(500))
        corr, rel = _eval_state(Evaluator(c), z)
        keep = rng.random(500) < 0.3
        sub_corr, sub_rel = _eval_state(Evaluator(c), z[keep])
        assert np.array_equal(sub_corr, corr[keep]) and np.array_equal(sub_rel, rel[keep])

    def test_no_warning_at_degree_2000(self):
        rng = np.random.default_rng(2000)
        c = rng.standard_normal(2001) + 1j * rng.standard_normal(2001)
        z = np.concatenate([_kernel_points(rng, 50), 1e200 * np.exp(1j * rng.random(5)),
                            [1e-300, 1.0 + 1e-15, 1e300]])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            corr, rel = _eval_state(Evaluator(c), z)
            vals = scaled_horner(c, z)
        assert np.all(np.isfinite(corr)) and np.all(np.isfinite(rel))
        assert np.all(np.isfinite(vals))


def _bits(values):
    return [np.ascontiguousarray(v).tobytes() for v in values]


def _two_branch(c, z):
    """Evaluator(c)(z) as two kernel calls: c read at the points |z| <= 1, its reversal at 1/z
    at the others, NaN included."""
    inner = np.abs(z) <= 1.0
    out = [np.empty(c.shape[1:] + z.shape, t) for t in (complex, complex, float)]
    for mask, cf, u in ((inner, c, z[inner]), (~inner, c[::-1], 1.0 / z[~inner])):
        for res, v in zip(out, forward_sums(cf.copy(), u)):
            res[..., mask] = v
    return out


def _evaluator_case(n, r, seed):
    rng = np.random.default_rng(seed)
    c = rng.standard_normal((n + 1, r)) + 1j * rng.standard_normal((n + 1, r))
    return (c[:, 0].copy() if r == 1 else c), rng


class TestEvaluator:
    @pytest.mark.parametrize("n", [5, BABY - 1, BABY, 3 * BABY + 5])
    @pytest.mark.parametrize("r", [1, 2])
    @pytest.mark.parametrize("kind", ["inner", "outer", "mixed"])
    def test_a_point_alone_is_its_value_in_the_batch(self, n, r, kind):
        c, rng = _evaluator_case(n, r, n + 10 * r)
        inner = 0.9 * _kernel_points(rng, 12)
        outer = np.concatenate([1.5 / inner[1:], [1e200, -1e300j, np.inf, -np.inf, 1.0 + 1e-15]])
        mixed = rng.permutation(np.concatenate([inner, outer, [np.nan, 1.0, -1.0, 1j]]))
        z = {"inner": inner, "outer": outer, "mixed": mixed}[kind]
        ev = Evaluator(c)
        got = ev(z)
        with np.errstate(invalid="ignore"):  # the reference's 1 / NaN
            want = _two_branch(c, z)
        assert _bits(got) == _bits(want)
        for i in range(len(z)):
            assert _bits(ev(z[i])) == _bits(g[..., i] for g in got), z[i]
            assert _bits(ev(z[i:i + 1])) == _bits(g[..., i:i + 1] for g in got), z[i]

    @pytest.mark.parametrize("n", [5, 3 * BABY + 5])
    def test_a_nan_point_evaluates_without_a_warning(self, n):
        # the reciprocal 1 / NaN of the reversed branch is quiet, and the other points keep
        # their bits
        c, _ = _evaluator_case(n, 1, n)
        ev = Evaluator(c)
        z = np.array([np.nan, 0.5, 2.0 - 1.5j])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            inner, got = ev.branches(z)
            corr, rel = _eval_state(ev, z)
            lone = [_eval_state(ev, z[i:i + 1]) for i in (1, 2)]
        assert inner.tolist() == [False, True, False]
        assert all(np.isnan(v[..., 0]) for v in got)
        assert np.isnan(rel[0])
        assert _bits([corr[1:], rel[1:]]) == _bits(np.concatenate(v) for v in zip(*lone))

    @pytest.mark.parametrize("n", [5, 3 * BABY + 5])
    def test_the_branch_cut_on_either_side_of_a_block_boundary(self, n):
        c, rng = _evaluator_case(n, 2, n)
        b = min(BABY, n + 1)
        step = max(1, BLOCK // (b + -(-(n + 1) // b)))  # the kernel's points per block
        ev = Evaluator(c)
        for k in (step - 1, step, step + 1):
            inner = 0.99 * np.sqrt(rng.random(k)) * np.exp(2j * np.pi * rng.random(k))
            z = rng.permutation(np.concatenate([inner, 1.0 / inner[:step + 3]]))
            got = ev(z)
            assert _bits(got) == _bits(_two_branch(c, z))
            order = np.argsort(~(np.abs(z) <= 1.0), kind="stable")
            for i in order[[0, k - 1, k, step - 1, step, step + 1, -1]]:
                assert _bits(ev(z[i:i + 1])) == _bits(g[..., i:i + 1] for g in got)

    def test_the_evaluator_is_the_one_shot_evaluation(self):
        c, rng = _evaluator_case(40, 2, 3)
        z = 2.0 * (rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5)))
        assert _bits(Evaluator(c)(z)) == _bits(scaled_horner(c, z))
        assert Evaluator(c)(z)[0].shape == (2, 3, 5)


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
        back = poly_add(poly_mul(q, d), r)
        # intrinsic scale of the reconstruction: quotient growth is part of
        # the conditioning of division, not an error of it
        scale = max(1.0, p.coeff_norm(), q.coeff_norm() * d.coeff_norm())
        assert poly_add(back, ComplexPolynomial(-p.c)).coeff_norm() <= 1e-10 * scale
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
            p, q = poly_mul(g, a), poly_mul(g, b)
            d = gcd(p, q)
            assert d.degree >= g.degree  # common factor not missed
            for full in (p, q):
                _, r = full.divrem(d)
                assert r.coeff_norm() <= 1e-8 * full.coeff_norm()


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
