import cmath
import math
import operator
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import quatroots.solver as solver_mod
from quatroots.cpoly import ComplexPolynomial
from quatroots.quaternion import ConjugacyClass, Quaternion, embed_complex
from quatroots.solver import (BothDenominatorsZeroError, DegreeError, InexactDivisionError,
                              NotComplexCoefficientsError, SimplePolynomial,
                              DEFAULT_TOLS, Tolerances, ZeroSet, derived, discriminant,
                              factor_g, is_finite_zero_set, is_spherical_root,
                              isolated_zero, normalize, solve_complex_coeffs,
                              solve_discriminant, solve_factored)
from quatroots.companion import solve_companion
from quatroots.roots import all_roots
from quatroots.verify import audit, compare

from conftest import (ONE, I, J, K, SQRT2_2, cli_compare_inputs, companion_reference,
                      dedup_isolated_reference, derived_reference, eval_qpoly,
                      is_spherical_root_reference, isolated_zero_reference, kernel_value,
                      normalize_reference, poly_mul, qapprox, random_simple_polynomials,
                      side_values)

# a power of two, so offsets sit exactly at, or just past, the dedup distance
DEDUP = 2.0 ** -20
_near = st.sampled_from([0.0, DEDUP / 2, DEDUP, -DEDUP, DEDUP * (1 + 2.0 ** -10), 2 * DEDUP])
_component = st.builds(operator.add, st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0, 3.0]), _near)


@st.composite
def _isolated_and_classes(draw):
    """Isolated zeros with near-duplicates, some lying on one of the spheres."""
    classes = draw(st.lists(st.builds(lambda re, im: ConjugacyClass(complex(re, im)),
                                      _component, st.sampled_from([0.5, 1.0])),
                            max_size=3))
    isolated = draw(st.lists(st.builds(Quaternion, _component, _component,
                                       _component, _component), max_size=12))
    for c in classes:
        isolated += draw(st.lists(st.sampled_from(c.sample(4)), max_size=2))
    return isolated, classes


@st.composite
def _derived_and_eta(draw):
    """A derived pair and a nonreal eta that is a sphere root, an isolated-zero
    root (f1 and f2 both vanish on one side) or neither ("free")."""
    small = st.floats(-4.0, 4.0, allow_nan=False)
    coeffs = st.lists(st.builds(complex, small, small), max_size=12)
    eta = cmath.rect(draw(st.sampled_from([0.3, 0.8, 1.0, 1.1, 1.7, 3.0, 6.0])),
                     draw(st.floats(0.2, math.pi - 0.2)))
    kind = draw(st.sampled_from(["sphere", "plus", "minus", "free"]))
    factor = {"sphere": [abs(eta) ** 2, -2.0 * eta.real, 1.0], "plus": [-eta, 1.0],
              "minus": [-eta.conjugate(), 1.0], "free": [1.0]}[kind]
    f1 = poly_mul(ComplexPolynomial([1.0] + draw(coeffs)), ComplexPolynomial(factor))
    f2 = poly_mul(ComplexPolynomial(draw(coeffs)), ComplexPolynomial(factor))
    return (f1, f2), eta, kind


def coeffs_close(p: ComplexPolynomial, expected, tol=1e-12) -> bool:
    exp = np.asarray(expected, dtype=complex)
    if p.degree != len(exp) - 1:
        return False
    return np.allclose(p.c, exp, atol=tol * max(1.0, np.abs(exp).max()), rtol=0)


def _pair_rows(pair) -> np.ndarray:
    """The rows [Re f1, Im f1, Re f2, Im f2] of a pair, the shorter polynomial zero-padded."""
    rows = np.zeros((max(len(f.c) for f in pair), 4))
    for k, f in enumerate(pair):
        rows[: len(f.c), 2 * k], rows[: len(f.c), 2 * k + 1] = f.c.real, f.c.imag
    return rows


def _zeros(rows) -> list[Quaternion]:
    return [Quaternion(*row) for row in rows.tolist()]


def _gaussian(seed: int, degree: int) -> SimplePolynomial:
    return SimplePolynomial.from_rows(np.random.default_rng(seed).standard_normal((degree + 1, 4)))


# float components, a zero constant term, a tiny one, and the integer corpus
ARRAY_INPUTS = ([_gaussian(seed, 3 + 5 * seed) for seed in range(6)]
                + [SimplePolynomial.from_rows(rows) for rows in (
                    [[0, 0, 0, 0], [0.3, -1.2, 0.7, 2.0], [1.5, 0, -2, 0.25]],
                    [[1e-31, 0, 0, 0], [0.5, 0.5, 0.5, 0.5], [0, 1, 0, 0]])]
                + random_simple_polynomials(40, seed=5))


class TestSimplePolynomial:
    def test_from_rows(self):
        p = SimplePolynomial.from_rows([[1, 0, 0, 0], [0, 0, 0, 1]])
        assert p.degree == 1
        assert p.coeffs == (ONE, K)

    def test_from_rows_round_trips_components_bit_for_bit(self):
        rows = np.random.default_rng(3).standard_normal((9, 4)) * np.logspace(-12, 12, 9)[:, None]
        rows[2] = [-0.0, 0.0, -0.0, 5e-324]
        p = SimplePolynomial.from_rows(rows)
        assert p.rows.tobytes() == rows.tobytes()
        assert SimplePolynomial(p.coeffs).rows.tobytes() == rows.tobytes()
        assert [q.components() for q in p.coeffs] == [tuple(r) for r in rows.tolist()]

    def test_rows_are_read_only_and_copied(self):
        rows = np.ones((3, 4))
        p = SimplePolynomial.from_rows(rows)
        rows[0, 0] = 7.0
        assert p.rows[0, 0] == 1.0
        with pytest.raises(ValueError):
            p.rows[0, 0] = 2.0

    def test_fortran_ordered_rows_solve_alike(self):
        rows = np.random.default_rng(4).standard_normal((7, 4))
        rows[:, 2:] = 0.0
        p, pf = (SimplePolynomial.from_rows(r) for r in (rows, np.asfortranarray(rows)))
        assert pf.rows.tobytes() == p.rows.tobytes()
        assert solve_complex_coeffs(pf) == solve_complex_coeffs(p)
        assert solve_discriminant(pf) == solve_discriminant(p)

    def test_rows_need_four_components(self):
        with pytest.raises(ValueError, match="4 components"):
            SimplePolynomial.from_rows([[1, 0, 0], [0, 1, 0]])

    def test_trailing_zero_coefficients_trimmed(self):
        p = SimplePolynomial([ONE, I, Quaternion()])
        assert p.degree == 1

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            SimplePolynomial([Quaternion(), Quaternion()])

    def test_scalar_and_complex_coercion(self):
        p = SimplePolynomial([1, 1j])
        assert p.coeffs == (ONE, I)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("power", [0, 2, 4])  # constant, middle, leading term
    def test_non_finite_coefficients_rejected(self, bad, power):
        rows = [[1.0, 0.5, -0.25, 2.0] for _ in range(5)]
        rows[power][power % 4] = bad
        with pytest.raises(ValueError, match="coefficients must be finite"):
            SimplePolynomial.from_rows(rows)


class TestNormalize:
    def test_constant_term_already_one(self, cubic_ijk):
        rows = normalize(cubic_ijk)
        assert rows[0, 0] == 1
        assert _zeros(rows) == [ONE, K, J, I]

    def test_zero_constant_term(self):
        p = SimplePolynomial([0, 1, 1])  # x^2 + x
        rows = normalize(p)
        assert rows[0, 0] == 0
        assert _zeros(rows) == [Quaternion(), ONE, ONE]

    def test_real_scaling(self):
        rows = normalize(SimplePolynomial([2, 2]))
        assert rows[0, 0] == 1
        assert qapprox(Quaternion(*rows[1]), ONE, 1e-15)

    @pytest.mark.parametrize("p", ARRAY_INPUTS, ids=range(len(ARRAY_INPUTS)))
    def test_equals_the_scalar_products_bit_for_bit(self, p):
        rows = normalize(p)
        coeffs, d0 = normalize_reference(p)
        assert rows[0, 0] == d0 and len(rows) - 1 == p.degree
        assert rows[0].tolist() == [d0, 0.0, 0.0, 0.0]
        assert [q.components() for q in _zeros(rows[1:])] == [q.components() for q in coeffs]

    def test_constant_rejected(self):
        with pytest.raises(DegreeError):
            normalize(SimplePolynomial([I]))


class TestDerived:
    def test_cubic_ijk(self, cubic_ijk):
        f1, f2 = derived(normalize(cubic_ijk))
        assert coeffs_close(f1, [1, 0, 0, 1j])       # i t^3 + 1
        assert coeffs_close(f2, [0, 1j, 1])          # t^2 + i t

    def test_real_coefficients_give_zero_f2(self, cubic_real):
        f1, f2 = derived(normalize(cubic_real))
        assert coeffs_close(f1, [1, 1, 1, 1])
        assert f2.is_zero

    def test_pure_j_coefficient(self):
        # j x + 1: the j component lands in f2, the constant in f1
        f1, f2 = derived(np.array([[1.0, 0, 0, 0], [0, 0, 1, 0]]))
        assert coeffs_close(f1, [1])
        assert coeffs_close(f2, [0, 1])

    def test_bars_are_exact_conjugates(self, degree6_mixed):
        # the sphere test reads |fbar(eta)| as |f(conj eta)|: exactly equal
        pair = derived(normalize(degree6_mixed))
        eta = np.array([0.3 + 0.8j, -1.7 + 2.1j, 1j, 0.6 - 0.2j])
        for f in pair:
            assert np.array_equal(np.abs(kernel_value(np.conj(f.c), eta)),
                                  np.abs(kernel_value(f.c, eta.conj())))
        assert pair[1].c[0] == 0

    @pytest.mark.parametrize("p", ARRAY_INPUTS, ids=range(len(ARRAY_INPUTS)))
    def test_equals_the_split_loop_bit_for_bit(self, p):
        pair = derived(normalize(p))
        z1s, z2s = derived_reference(*normalize_reference(p))
        for f, ref in zip(pair, (z1s, z2s)):
            ref = ComplexPolynomial(ref).c
            assert f.c.tobytes() == ref.tobytes()


class TestDiscriminant:
    def test_cubic_ijk(self, cubic_ijk):
        pt = discriminant(derived(normalize(cubic_ijk)))
        assert coeffs_close(pt, [1, 0, 1, 0, 1, 0, 1])  # (t^2+1)(t^4+1)

    def test_cubic_real(self, cubic_real):
        pt = discriminant(derived(normalize(cubic_real)))
        assert coeffs_close(pt, [1, 2, 3, 4, 3, 2, 1])  # (t^3+t^2+t+1)^2

    def test_degree6_mixed(self, degree6_mixed):
        pt = discriminant(derived(normalize(degree6_mixed)))
        assert coeffs_close(pt, [1, 0, 1, 0, -1, 0, -2, 0, -1, 0, 1, 0, 1])

    def test_degree_is_twice_input(self, degree6_mixed):
        pt = discriminant(derived(normalize(degree6_mixed)))
        assert pt.degree == 2 * degree6_mixed.degree

    @pytest.mark.parametrize("p", ARRAY_INPUTS, ids=range(len(ARRAY_INPUTS)))
    def test_equals_the_quaternion_sums_bit_for_bit(self, p):
        # D and the factored route's cofactor norm, as the companion polynomial of the pair's
        # component rows, summed by scalar quaternion products
        pair = derived(normalize(p))
        _, g1, g2 = factor_g(pair)
        for pr in (pair, (g1, g2)):
            want = ComplexPolynomial(companion_reference(_pair_rows(pr)))
            assert discriminant(pr).c.tobytes() == want.c.tobytes()

    @given(st.lists(st.builds(complex, st.floats(-4, 4), st.floats(-4, 4)), min_size=1,
                    max_size=12),
           st.lists(st.builds(complex, st.floats(-4, 4), st.floats(-4, 4)), max_size=12))
    def test_random_pairs_equal_the_quaternion_sums(self, c1, c2):
        # unequal degrees, and a zero f2 whenever c2 is empty or all zeros
        for pr in ((ComplexPolynomial(c1), ComplexPolynomial(c2)),
                   (ComplexPolynomial(c2), ComplexPolynomial(c1))):
            want = ComplexPolynomial(companion_reference(_pair_rows(pr)))
            assert discriminant(pr).c.tobytes() == want.c.tobytes()


class TestClassifyEta:
    def test_cubic_ijk_at_i_is_isolated(self, cubic_ijk):
        pair = derived(normalize(cubic_ijk))
        assert not is_spherical_root(pair, 1j, side_values(pair, 1j))

    def test_cubic_real_at_i_is_spherical(self, cubic_real):
        pair = derived(normalize(cubic_real))
        assert is_spherical_root(pair, 1j, side_values(pair, 1j))

    def test_degree6_at_i_is_spherical(self, degree6_mixed):
        pair = derived(normalize(degree6_mixed))
        assert is_spherical_root(pair, 1j, side_values(pair, 1j))


class TestIsolatedZero:
    def test_cubic_ijk_at_i(self, cubic_ijk):
        pair = derived(normalize(cubic_ijk))
        # f1(i) = 2, f2(i) = -2, so the closed form collapses to k
        assert kernel_value(pair[0].c, 1j) == pytest.approx(2)
        assert kernel_value(pair[1].c, 1j) == pytest.approx(-2)
        assert qapprox(*_zeros(isolated_zero(pair, [1j], side_values(pair, [1j]))), K, 1e-12)

    def test_cubic_ijk_at_eighth_root(self, cubic_ijk):
        pair = derived(normalize(cubic_ijk))
        eta = cmath.exp(1j * math.pi / 4)
        expected = Quaternion(SQRT2_2, 0.5, 0.0, 0.5)
        values = side_values(pair, [eta])
        assert qapprox(*_zeros(isolated_zero(pair, [eta], values)), expected, 1e-12)

    def test_representative_invariance(self, cubic_ijk):
        # both branch selections must produce the same zero
        pair = derived(normalize(cubic_ijk))
        eta = cmath.exp(3j * math.pi / 4)
        expected = Quaternion(-SQRT2_2, 0.5, 0.0, 0.5)
        values = side_values(pair, [eta])
        assert qapprox(*_zeros(isolated_zero(pair, [eta], values)), expected, 1e-12)

    def test_guard_on_spherical_point(self, cubic_real):
        # misuse: at a spherical root all four evaluations vanish
        pair = derived(normalize(cubic_real))
        with pytest.raises(BothDenominatorsZeroError):
            isolated_zero(pair, [1j], side_values(pair, [1j]))


class TestScaledEvaluation:
    """The sphere test and closed form on the scaled evaluator, against the
    unscaled evaluation they replaced."""

    @given(_derived_and_eta())
    def test_agrees_with_the_unscaled_reference(self, case):
        pair, eta, kind = case
        values = side_values(pair, [eta])
        sphere = is_spherical_root(pair, [eta], values)[0]
        ref_sphere = is_spherical_root_reference(pair, eta)
        try:
            ref_zero = isolated_zero_reference(pair, eta)
        except (OverflowError, ValueError):
            ref_zero = None
        if np.abs(np.array([eta]))[0] <= 1.0:  # |eta| as the evaluator rounds it
            # no scaling: the same values, so the same verdicts and zeros
            assert sphere == ref_sphere
            if ref_zero is None:
                with pytest.raises(BothDenominatorsZeroError):
                    isolated_zero(pair, [eta], values)
            else:
                assert _zeros(isolated_zero(pair, [eta], values)) == [ref_zero]
            return
        # every sphere found unscaled is found scaled; the scaled test also
        # finds the spheres whose Horner roundoff grew past the unscaled one
        assert sphere or not ref_sphere
        if kind == "sphere":
            assert sphere
        elif kind != "free" and ref_zero is not None and all(
                math.isfinite(x) for x in ref_zero.components()):
            # free points may sit where both closed forms are equally large,
            # and the two sides give different quaternions there
            assert qapprox(*_zeros(isolated_zero(pair, [eta], values)), ref_zero, 1e-12)

    def test_arrays_give_the_pointwise_answers(self, degree6_mixed):
        pair = derived(normalize(degree6_mixed))
        eta = np.array([1j, cmath.exp(1j * math.pi / 3), 2.5 + 0.5j])
        assert list(is_spherical_root(pair, eta, side_values(pair, eta))) == [
            is_spherical_root(pair, [e], side_values(pair, [e]))[0] for e in eta]
        assert isolated_zero(pair, eta[1:], side_values(pair, eta[1:])).tolist() == [
            isolated_zero(pair, [e], side_values(pair, [e]))[0].tolist() for e in eta[1:]]

    @pytest.mark.parametrize("seed, degree, re, modulus", [
        (1, 38, 0.25, 1.35), (2, 42, -0.6, 1.55), (3, 48, 0.9, 1.8)])
    def test_sphere_beyond_the_unit_circle(self, seed, degree, re, modulus):
        # a Gaussian polynomial times x^2 - 2 re x + modulus^2: at this
        # degree and modulus Horner's roundoff at the sphere root exceeds
        # 1e-10 * max|c|, so an unscaled test reports an isolated zero
        base = np.random.default_rng(seed).standard_normal((degree - 1, 4))
        quad = [modulus ** 2, -2.0 * re, 1.0]
        p = SimplePolynomial.from_rows(np.stack([np.convolve(base[:, k], quad)
                                                 for k in range(4)], axis=1))
        sets = [solve(p) for solve in (solve_discriminant, solve_factored, solve_companion)]
        for zs in sets:
            assert any(abs(c.re - re) <= 1e-6 and abs(c.modulus - modulus) <= 1e-6
                       for c in zs.spherical)
        assert not compare(sets[0], sets[1])
        assert not compare(sets[0], sets[2])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("seed", [2, 5])
    def test_degree_800_gaussian(self, seed):
        # unscaled, seed 2 overflowed to OverflowError and seed 5 to NaN zeros;
        # the companion route raised RuntimeError on seed 2, and audit's
        # squared row norm overflowed on one genuine zero of seed 2
        p = SimplePolynomial.from_rows(np.random.default_rng(seed).standard_normal((801, 4)))
        sets = [solve(p) for solve in (solve_discriminant, solve_factored, solve_companion)]
        for zs in sets:
            assert zs.class_count() == 800
            assert all(math.isfinite(x) for q in zs.isolated_zeros for x in q.components())
            assert audit(p, zs).passed
        assert not compare(sets[0], sets[2])


class TestSolveDiscriminant:
    def test_cubic_ijk(self, cubic_ijk):
        zs = solve_discriminant(cubic_ijk)
        assert zs.real_zeros == ()
        assert zs.spherical == ()
        expected = [Quaternion(-SQRT2_2, 0.5, 0, 0.5), K,
                    Quaternion(SQRT2_2, 0.5, 0, 0.5)]
        assert len(zs.isolated_zeros) == 3
        for got, want in zip(zs.isolated_zeros, expected):
            assert qapprox(got, want, 1e-10)

    def test_cubic_real(self, cubic_real):
        zs = solve_discriminant(cubic_real)
        assert len(zs.real_zeros) == 1
        assert zs.real_zeros[0] == pytest.approx(-1, abs=1e-10)
        assert zs.isolated_zeros == ()
        assert len(zs.spherical) == 1
        assert zs.spherical[0].re == pytest.approx(0, abs=1e-10)
        assert zs.spherical[0].modulus == pytest.approx(1, abs=1e-10)

    def test_x2_plus_1(self):
        zs = solve_discriminant(SimplePolynomial([1, 0, 1]))
        assert zs.real_zeros == () and zs.isolated_zeros == ()
        assert len(zs.spherical) == 1
        assert zs.spherical[0].contains(I) and zs.spherical[0].contains(J)


class TestFactorG:
    def test_cubic_ijk(self, cubic_ijk):
        g, g1, g2 = factor_g(derived(normalize(cubic_ijk)))
        assert coeffs_close(g, [1j, 1])            # t + i
        assert coeffs_close(g1, [-1j, 1, 1j])      # i t^2 + t - i
        assert coeffs_close(g2, [0, 1])            # t

    def test_degree6_mixed(self, degree6_mixed):
        g, g1, g2 = factor_g(derived(normalize(degree6_mixed)))
        assert coeffs_close(g, [-1, 0, 0, 0, 1])   # t^4 - 1
        assert coeffs_close(g1, [-1, 0, 1j])       # i t^2 - 1
        assert coeffs_close(g2, [0, 1j])           # i t

    def test_coprime_pair_gives_constant(self):
        # f1 = 1, f2 = t  (from j x + 1)
        g, g1, g2 = factor_g(derived(np.array([[1.0, 0, 0, 0], [0, 0, 1, 0]])))
        assert g.degree == 0
        assert coeffs_close(g1, [1])
        assert coeffs_close(g2, [0, 1])

    def test_constant_gcd_is_exactly_one(self):
        # monic's z / z rounds the gcd of this pair to 1 + 6.6e-17 i; the cofactors are then
        # the pair itself, and the cofactor norm is D bit for bit
        pair = derived(normalize(_gaussian(3, 6)))
        assert solver_mod.poly_gcd(*pair).c.tobytes() != np.ones(1, complex).tobytes()
        g, g1, g2 = factor_g(pair)
        assert g.c.tobytes() == np.ones(1, complex).tobytes()
        assert discriminant((g1, g2)).c.tobytes() == discriminant(pair).c.tobytes()

    def test_inexact_division_guard(self, monkeypatch, cubic_ijk):
        monkeypatch.setattr(solver_mod, "poly_gcd",
                            lambda *a, **k: ComplexPolynomial([0.5, 1]))
        with pytest.raises(InexactDivisionError):
            factor_g(derived(normalize(cubic_ijk)))

    def test_cofactor_zero_formula(self, degree6_mixed):
        # the closed form from the cofactors at a sixth root of unity
        g, g1, g2 = factor_g(derived(normalize(degree6_mixed)))
        eta = cmath.exp(-1j * math.pi / 3)
        expected = Quaternion(0.5, -0.5, -0.5, -0.5)
        zeros, ok = solver_mod._isolated_zero_cofactor(
            g1, g2, np.array([eta, eta.conjugate(), cmath.exp(-2j * math.pi / 3)]))
        assert ok.all()
        got, flipped, other = _zeros(zeros)
        assert qapprox(got, expected, 1e-12)
        # for cofactor root pairs either representative yields the same zero
        assert qapprox(flipped, expected, 1e-12)
        assert qapprox(other, Quaternion(-0.5, 0.5, -0.5, -0.5), 1e-12)


class TestSolveFactored:
    def test_cubic_ijk(self, cubic_ijk):
        zs = solve_factored(cubic_ijk)
        expected = [Quaternion(-SQRT2_2, 0.5, 0, 0.5), K,
                    Quaternion(SQRT2_2, 0.5, 0, 0.5)]
        assert len(zs.isolated_zeros) == 3
        for got, want in zip(zs.isolated_zeros, expected):
            assert qapprox(got, want, 1e-10)

    def test_degree6_mixed(self, degree6_mixed):
        zs = solve_factored(degree6_mixed)
        assert sorted(round(x, 10) for x in zs.real_zeros) == [-1.0, 1.0]
        expected = [Quaternion(-0.5, 0.5, -0.5, -0.5), Quaternion(0.5, -0.5, -0.5, -0.5)]
        assert len(zs.isolated_zeros) == 2
        for got, want in zip(zs.isolated_zeros, expected):
            assert qapprox(got, want, 1e-10)
        assert len(zs.spherical) == 1
        assert zs.spherical[0].contains(I)

    def test_x2_plus_1(self):
        zs = solve_factored(SimplePolynomial([1, 0, 1]))
        assert len(zs.spherical) == 1 and not zs.isolated_zeros and not zs.real_zeros

    def test_cofactor_zero_at_returned_root(self, degree6_mixed):
        # the isolated-zero formula must use g's roots exactly as found
        zs = solve_factored(degree6_mixed)
        for q in zs.isolated_zeros:
            assert abs(eval_qpoly(degree6_mixed, q)) <= 1e-10

    def test_derives_the_split_once(self, monkeypatch, degree6_mixed):
        self._check_derives_once(monkeypatch, degree6_mixed, fallback=False)

    def test_derives_the_split_once_on_the_gcd_fallback(self, monkeypatch):
        # a Gaussian polynomial times a sphere quadratic, drawn as the benchmark's
        # sphere family draws them: both cofactors vanish at one representative,
        # so the route falls back to the full derived pair
        rng = np.random.default_rng(15)
        base = rng.standard_normal((14, 4))
        re, im = rng.uniform(-1.0, 1.0), rng.uniform(0.5, 1.5)
        quad = [re * re + im * im, -2.0 * re, 1.0]
        p = SimplePolynomial.from_rows(np.stack([np.convolve(base[:, k], quad)
                                                 for k in range(4)], axis=1))
        self._check_derives_once(monkeypatch, p, fallback=True)

    def test_partial_gcd_leaves_the_zero_set_unchanged(self, monkeypatch):
        # a Gaussian polynomial times a squared sphere quadratic s^2, with factor_g
        # returning g = s: both cofactors still vanish on the sphere, so the cofactor
        # norm has its pair as roots and the fallback and ZeroSet.build must absorb them
        rng = np.random.default_rng(23)
        base = rng.standard_normal((12, 4))
        re, im = rng.uniform(-1.0, 1.0), rng.uniform(0.5, 1.5)
        quad = [re * re + im * im, -2.0 * re, 1.0]
        rows = np.stack([np.convolve(np.convolve(base[:, k], quad), quad) for k in range(4)],
                        axis=1)
        p = SimplePolynomial.from_rows(rows)
        want = solve_factored(p)
        s = ComplexPolynomial(quad)

        def partial_g(pair, tol):
            (g1, r1), (g2, r2) = (f.divrem(s) for f in pair)
            assert max(r1.coeff_norm(), r2.coeff_norm()) <= 1e-10
            for g in (g1, g2):
                assert g.divrem(s)[1].coeff_norm() <= 1e-10 * g.coeff_norm()
            return s, g1, g2

        monkeypatch.setattr(solver_mod, "factor_g", partial_g)
        got = solve_factored(p)
        assert [c.re for c in got.spherical] == pytest.approx([re])
        assert not compare(got, want, tol=1e-10)
        assert (len(got.real_zeros), len(got.isolated_zeros), len(got.spherical)) == (
            len(want.real_zeros), len(want.isolated_zeros), len(want.spherical))

    @staticmethod
    def _check_derives_once(monkeypatch, p, fallback):
        calls, placed = [], []

        def counting(rows):
            calls.append(rows)
            return derived(rows)

        def placing(*args):
            placed.append(args)
            return place_pairs(*args)

        place_pairs = solver_mod._place_pairs
        monkeypatch.setattr(solver_mod, "derived", counting)
        monkeypatch.setattr(solver_mod, "_place_pairs", placing)
        solve_factored(p)
        assert len(calls) == 1
        assert len(placed) == fallback


class TestSolveComplexCoeffs:
    def test_real_cubic(self, cubic_real):
        zs = solve_complex_coeffs(cubic_real)
        assert zs.real_zeros[0] == pytest.approx(-1, abs=1e-12)
        assert len(zs.spherical) == 1 and not zs.isolated_zeros

    def test_single_unpaired_complex_root(self):
        zs = solve_complex_coeffs(SimplePolynomial([-1j, 1]))  # x - i
        assert zs.real_zeros == () and zs.spherical == ()
        assert len(zs.isolated_zeros) == 1
        assert qapprox(zs.isolated_zeros[0], I, 1e-12)

    def test_negative_imaginary_root_kept_verbatim(self):
        zs = solve_complex_coeffs(SimplePolynomial([1j, 1]))  # x + i
        assert qapprox(zs.isolated_zeros[0], -I, 1e-12)

    def test_rejects_quaternionic_input(self, cubic_ijk):
        with pytest.raises(NotComplexCoefficientsError):
            solve_complex_coeffs(cubic_ijk)

    def test_mixed_pairing(self):
        # (x - i)(x + i)(x - (1+i)) has a sphere from the pair and one loner
        c = np.polynomial.polynomial.polymul([1, 0, 1], [-(1 + 1j), 1])
        zs = solve_complex_coeffs(SimplePolynomial(list(c)))
        assert len(zs.spherical) == 1 and len(zs.isolated_zeros) == 1
        assert qapprox(zs.isolated_zeros[0], embed_complex(1 + 1j), 1e-10)


def _complex_input(kind: str, degree: int, seed: int) -> SimplePolynomial:
    rows = np.random.default_rng(seed).standard_normal((degree + 1, 4))
    rows[:, {"complex": 2, "real": 1}[kind]:] = 0.0
    return SimplePolynomial.from_rows(rows)


# 1e13 + i x: its one zero, 1e13 i, is isolated.  After normalize the pair's
# coefficients are graded (1 + 1e-13 i x), and the general routes' sphere tests
# hold a value at eta against the largest coefficient times max(1, |eta|)^deg,
# far above its true size, so all three report the sphere of 1e13 i.
LARGE_ISOLATED = SimplePolynomial([1e13, 1j])


class TestComplexCoeffsAgainstTheGeneralRoutes:
    """solve_complex_coeffs finds the roots of f1 itself, at degree n."""

    @pytest.mark.parametrize("kind", ["complex", "real"])
    @pytest.mark.parametrize("degree,seed", [(1, 1), (2, 2), (7, 3), (20, 4), (63, 5),
                                             (150, 6), (1000, 7)])
    def test_agrees_with_solve_factored(self, kind, degree, seed):
        p = _complex_input(kind, degree, seed)
        got, want = solve_complex_coeffs(p), solve_factored(p)
        assert not compare(got, want, tol=1e-10)
        assert (len(got.real_zeros), len(got.isolated_zeros), len(got.spherical)) == (
            len(want.real_zeros), len(want.isolated_zeros), len(want.spherical))

    @pytest.mark.parametrize("p", [_complex_input("complex", 40, 8), _complex_input("real", 40, 8),
                                   SimplePolynomial([1e9, 1]), SimplePolynomial([1, 1, 1e-9])],
                             ids=["complex", "real", "small-leading", "graded"])
    def test_root_finder_never_sees_a_degree_above_n(self, monkeypatch, p):
        degrees = []

        def spying(f, *args, **kwargs):
            degrees.append(f.degree)
            return all_roots(f, *args, **kwargs)

        monkeypatch.setattr(solver_mod, "all_roots", spying)
        solve_complex_coeffs(p)
        assert degrees and max(degrees) <= p.degree

    @pytest.mark.parametrize("seed", range(4))
    def test_isolated_zeros_have_exactly_zero_j_and_k(self, seed):
        zs = solve_complex_coeffs(_complex_input("complex", 30, seed))
        assert zs.isolated_zeros
        for q in zs.isolated_zeros:
            assert (q.a2, q.a3) == (0.0, 0.0)
            assert math.copysign(1.0, q.a2) == math.copysign(1.0, q.a3) == 1.0

    def test_tiny_j_residue_solves_as_the_complex_projection(self):
        p = _complex_input("complex", 12, 9)
        rows = np.array(p.rows)
        rows[3, 2] = 1e-31 * p.coefficient_scale()
        noisy = SimplePolynomial.from_rows(rows)
        assert noisy.rows[3, 2] != 0.0
        assert solve_complex_coeffs(noisy) == solve_complex_coeffs(p)

    def test_large_isolated_zero(self):
        zs = solve_complex_coeffs(LARGE_ISOLATED)
        assert zs.real_zeros == () and zs.spherical == ()
        assert len(zs.isolated_zeros) == 1
        assert qapprox(zs.isolated_zeros[0], Quaternion(0.0, 1e13), 1e-12)

    def test_small_leading_coefficient(self):
        # 1 + x + 1e-9 x^2: the small root is -1 - 1e-9 - 2e-18 - ...
        d = math.sqrt(1.0 - 4e-9)
        zs = solve_complex_coeffs(SimplePolynomial([1, 1, 1e-9]))
        assert zs.real_zeros == pytest.approx((-(1.0 + d) / 2e-9, -2.0 / (1.0 + d)), rel=1e-14)
        assert not zs.isolated_zeros and not zs.spherical
        zs = solve_complex_coeffs(SimplePolynomial([1e9, 1]))
        assert zs.real_zeros == pytest.approx((-1e9,), rel=1e-14)
        assert not zs.isolated_zeros and not zs.spherical

    @pytest.mark.xfail(strict=True, reason="sphere test scales with the largest coefficient")
    @pytest.mark.parametrize("solve", [solve_discriminant, solve_factored, solve_companion],
                             ids=["discriminant", "factored", "companion"])
    def test_general_routes_on_the_large_isolated_zero(self, solve):
        zs = solve(LARGE_ISOLATED)
        assert not zs.spherical and len(zs.isolated_zeros) == 1
        assert qapprox(zs.isolated_zeros[0], Quaternion(0.0, 1e13), 1e-12)


class TestTolerances:
    @pytest.mark.parametrize("field", ["real", "zero", "gcd", "accept"])
    @pytest.mark.parametrize("value", [0.0, -1e-8, math.inf, math.nan])
    def test_every_field_must_be_finite_and_positive(self, field, value):
        with pytest.raises(ValueError, match=field):
            Tolerances(**{field: value})

    def test_finite_positive_values_are_kept(self):
        tols = Tolerances(real=1e-3, gcd=1e-300)
        assert (tols.real, tols.gcd, tols.zero) == (1e-3, 1e-300, DEFAULT_TOLS.zero)


class TestZeroSetBuild:
    def test_isolated_inside_sphere_dropped(self):
        cls = ConjugacyClass.from_complex(1j)
        zs = ZeroSet.build([], [K], [cls])
        assert zs.isolated_zeros == ()
        assert len(zs.spherical) == 1

    def test_duplicates_merged(self):
        # sorted by (re, modulus), the sphere of modulus 2 lies between the two copies
        classes = [ConjugacyClass(0 + 1j), ConjugacyClass(0 + 2j), ConjugacyClass(1e-12 + 1j)]
        zs = ZeroSet.build([1.0, 1.0 + 1e-12], [I + ONE, ONE + I], classes)
        assert len(zs.real_zeros) == 1
        assert len(zs.isolated_zeros) == 1
        assert [(c.re, c.modulus) for c in zs.spherical] == [(0.0, 1.0), (0.0, 2.0)]

    @given(_isolated_and_classes())
    def test_isolated_dedup_matches_the_full_scan(self, inputs):
        isolated, classes = inputs
        # the grid's offsets sit at the dedup distance when it is DEDUP
        with mock.patch.object(solver_mod, "DEDUP_REL", DEDUP):
            zs = ZeroSet.build([], isolated, classes)
        assert zs.isolated_zeros == dedup_isolated_reference(isolated, zs.spherical, DEDUP)

    def test_counts(self):
        zs = ZeroSet.build([0.5], [ONE + I], [ConjugacyClass.from_complex(2j)])
        assert zs.class_count() == 3

    def test_conjugated(self):
        zs = ZeroSet.build([1.0], [ONE + I], [ConjugacyClass.from_complex(2j)])
        conj = zs.conjugated()
        assert conj.real_zeros == zs.real_zeros
        assert conj.isolated_zeros[0] == (ONE + I).conjugate()
        assert conj.spherical == zs.spherical


class TestDegenerateMultiplicities:
    def test_sphere_with_coinciding_extra_zero(self):
        # x^3 - j x^2 + x - j vanishes on the whole unit sphere about the
        # reals; its discriminant is (t^2+1)^3, a triple conjugate pair
        p = SimplePolynomial([-J, ONE, -J, ONE])
        from quatroots.companion import solve_companion
        for solve in (solve_discriminant, solve_factored, solve_companion):
            zs = solve(p)
            assert zs.real_zeros == () and zs.isolated_zeros == ()
            assert len(zs.spherical) == 1
            assert abs(zs.spherical[0].re) <= 1e-10
            assert abs(zs.spherical[0].modulus - 1) <= 1e-10

    def test_squared_sphere_polynomial(self):
        # (x^2+1)^2: discriminant (t^2+1)^4, quadruple conjugate pair
        p = SimplePolynomial([1, 0, 2, 0, 1])
        from quatroots.companion import solve_companion
        for solve in (solve_discriminant, solve_factored, solve_companion):
            zs = solve(p)
            assert len(zs.spherical) == 1 and not zs.isolated_zeros
            assert audit(p, zs).passed


class TestEdgeShapes:
    @pytest.mark.parametrize("coeffs, n_real, n_iso, n_sph", [
        ([0, J, J], 2, 0, 0),                        # j x^2 + j x
        ([0, 0, 0, 0, 0, K], 1, 0, 0),               # k x^5
        ([0, 0, 0, 0, 0, 1], 1, 0, 0),               # x^5
        ([K, 0, 0, J], 0, 3, 0),                     # j x^3 + k
        ([-1, Quaternion(1, 1, 1, 1)], 0, 1, 0),     # linear, full quaternion
        ([Quaternion(0, -1, -1, 0), 0, 1], 0, 2, 0), # square roots of i + j
    ])
    def test_routes_agree_on_edge_shapes(self, coeffs, n_real, n_iso, n_sph):
        from quatroots.companion import solve_companion
        p = SimplePolynomial(coeffs)
        sets = [solve(p) for solve in
                (solve_discriminant, solve_factored, solve_companion)]
        for zs in sets:
            assert (len(zs.real_zeros), len(zs.isolated_zeros),
                    len(zs.spherical)) == (n_real, n_iso, n_sph)
            assert audit(p, zs).passed
        assert not compare(sets[0], sets[1])
        assert not compare(sets[0], sets[2])

    @pytest.mark.parametrize("coeffs", [[1e160, 3e160, 2e160], [1, 2, 1e200], [1e300, 1]])
    @pytest.mark.parametrize("solve", [solve_discriminant, solve_factored, solve_companion,
                                       solve_complex_coeffs])
    def test_coefficients_that_all_trim_away_raise_degree_error(self, coeffs, solve):
        # a modulus whose square overflows is inf, so every coefficient trims
        # away; solve_complex_coeffs raised a bare ValueError from max()
        p = SimplePolynomial(coeffs)
        assert p.degree == -1
        with pytest.raises(DegreeError):
            solve(p)

    @pytest.mark.parametrize("solve", [solve_discriminant, solve_factored, solve_companion])
    def test_tiny_coefficients_keep_their_zeros(self, solve):
        # (x + 1)(2x + 1) scaled by 1e-160: normalizing by the constant term
        # inverted a quaternion whose squared modulus is subnormal
        p = SimplePolynomial([1e-160, 3e-160, 2e-160])
        zs = solve(p)
        assert not zs.isolated_zeros and not zs.spherical
        assert np.allclose(zs.real_zeros, [-1.0, -0.5], rtol=0, atol=7e-16)
        assert audit(p, zs).passed

    # 1.2e154 (x + (1 + 0.25 i) x^2 + x^3): the constant term is 0, so normalize keeps the
    # scale, and D's coefficients overflow to inf and trim away (ROADMAP item 7)
    D_OVERFLOW = SimplePolynomial.from_rows([[0, 0, 0, 0], [1.2e154, 0, 0, 0],
                                             [1.2e154, 3e153, 0, 0], [1.2e154, 0, 0, 0]])

    def test_overflowing_d_leaves_the_other_routes(self):
        p = self.D_OVERFLOW
        factored, comp = solve_factored(p), solve_companion(p)
        assert factored.real_zeros == (0.0,) and len(factored.isolated_zeros) == 2
        assert not factored.spherical and not compare(factored, comp)
        assert audit(p, factored).passed and audit(p, comp).passed

    @pytest.mark.xfail(strict=True, raises=ValueError,
                       reason="D overflows to inf and trims to nothing (ROADMAP item 7)")
    def test_discriminant_route_when_d_overflows(self):
        p = self.D_OVERFLOW
        zs = solve_discriminant(p)
        assert not compare(zs, solve_factored(p)) and audit(p, zs).passed

    def test_linear_full_quaternion_value(self):
        # (1+i+j+k) x = 1 has the single zero (1+i+j+k)^-1
        p = SimplePolynomial([-1, Quaternion(1, 1, 1, 1)])
        zs = solve_discriminant(p)
        assert qapprox(zs.isolated_zeros[0],
                       Quaternion(0.25, -0.25, -0.25, -0.25), 1e-12)


class TestSolverProperties:
    def test_left_scaling_invariance(self, cubic_ijk, degree6_mixed):
        c = Quaternion(0.3, -1.2, 0.7, 2.0)
        for p in (cubic_ijk, degree6_mixed):
            base = solve_discriminant(p)
            scaled = solve_discriminant(p.left_scaled(c))
            assert not compare(base, scaled, tol=1e-6)

    def test_random_inputs_nonempty_with_sound_residuals(self):
        for p in random_simple_polynomials(30, seed=99):
            zs = solve_discriminant(p)
            assert zs.class_count()
            rep = audit(p, zs)
            assert rep.residuals_ok and rep.bounds_ok

    def test_routes_agree_on_random_inputs(self):
        for p in random_simple_polynomials(30, seed=7):
            a = solve_discriminant(p)
            b = solve_factored(p)
            assert not compare(a, b, tol=1e-6)


def _power_times_linear(k: int, r: float) -> tuple[SimplePolynomial, Quaternion]:
    """x^k (x - w), w = (0.3, 0.5, -0.4, 0.6) scaled to modulus r: zeros w and 0."""
    w = np.array([0.3, 0.5, -0.4, 0.6])
    w = w / np.linalg.norm(w) * r
    rows = np.zeros((k + 2, 4))
    rows[k], rows[k + 1, 0] = -w, 1.0
    return SimplePolynomial.from_rows(rows), Quaternion(*w)


# Inputs on which a route reports the sphere of w in place of w.  Every value at
# eta carries a factor eta^k, but the sphere tests (and audit's bound) scale with
# max(1, |eta|), so for |eta| < 1 they are absolute thresholds.  audit passes six
# of these nine answers; only solve_factored, and so compare mode, gets them right.
# At (10, 0.1) the discriminant route's test sits on the last bit of w.
SMALL_W_WRONG = {
    "discriminant": {(10, 0.1), (12, 0.1)},
    "companion": {(6, 0.1), (8, 0.2), (8, 0.1), (10, 0.2), (10, 0.1), (12, 0.2), (12, 0.1)},
}
SMALL_W = [(k, r) for k in range(2, 13, 2) for r in (0.5, 0.2, 0.1)]


class TestSmallZeroBehindAPowerOfX:
    @pytest.mark.parametrize("route, k, r", [
        pytest.param(route, k, r, marks=[pytest.mark.xfail(
            strict=True, reason="sphere test is absolute for |eta| < 1")]
            if (k, r) in SMALL_W_WRONG.get(route, ()) else [])
        for route in ("discriminant", "factored", "companion") for k, r in SMALL_W])
    def test_reports_w_once_and_the_real_zero(self, route, k, r):
        p, w = _power_times_linear(k, r)
        solve = {"discriminant": solve_discriminant, "factored": solve_factored,
                 "companion": solve_companion}[route]
        zs = solve(p)
        assert zs.real_zeros == (0.0,) and not zs.spherical
        assert len(zs.isolated_zeros) == 1 and qapprox(zs.isolated_zeros[0], w, 1e-10)


# sphere inputs of cli-compare seed 1 (degree 25-48) on which the approximate gcd
# of the derived pair has degree 0: solve_factored finds the sphere by its fallback
GCD_MISSES_SPHERE = (1, 33, 53, 69, 77, 81, 113, 137, 161)


class TestIsFiniteZeroSet:
    def test_cubic_ijk_finite(self, cubic_ijk):
        assert is_finite_zero_set(cubic_ijk)

    def test_cubic_real_infinite(self, cubic_real):
        assert not is_finite_zero_set(cubic_real)

    def test_x2_plus_1_infinite(self):
        assert not is_finite_zero_set(SimplePolynomial([1, 0, 1]))

    @pytest.fixture(scope="class")
    def spheres(self):
        return cli_compare_inputs(1, GCD_MISSES_SPHERE)

    @pytest.mark.parametrize("pid", GCD_MISSES_SPHERE)
    def test_sphere_the_gcd_misses_is_infinite(self, spheres, pid):
        assert not is_finite_zero_set(spheres[pid][0])

    @pytest.mark.parametrize("k, r", SMALL_W)
    def test_small_zero_behind_a_power_of_x_is_finite(self, k, r):
        # the discriminant route reports a false sphere on two of these
        assert is_finite_zero_set(_power_times_linear(k, r)[0])
