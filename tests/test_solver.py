import cmath
import math
import operator

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import quatroots.solver as solver_mod
from quatroots.cpoly import ComplexPolynomial
from quatroots.quaternion import (ConjugacyClass, I, J, K, ONE, Quaternion,
                                  embed_complex)
from quatroots.solver import (BothDenominatorsZeroError, DegreeError,
                              DerivedPolynomials, InexactDivisionError,
                              NormalizedPolynomial,
                              NotComplexCoefficientsError, SimplePolynomial,
                              ZeroSet, derived, discriminant,
                              factor_g, is_finite_zero_set, is_spherical_root,
                              isolated_zero, normalize, solve_complex_coeffs,
                              solve_discriminant, solve_factored)
from quatroots.companion import solve_companion
from quatroots.verify import audit, compare, eval_qpoly

from conftest import (SQRT2_2, dedup_isolated_reference,
                      is_spherical_root_reference, isolated_zero_reference,
                      qapprox, random_simple_polynomials)

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
    f1 = ComplexPolynomial([1.0] + draw(coeffs)) * ComplexPolynomial(factor)
    f2 = ComplexPolynomial(draw(coeffs)) * ComplexPolynomial(factor)
    return DerivedPolynomials(f1, f2), eta, kind


def coeffs_close(p: ComplexPolynomial, expected, tol=1e-12) -> bool:
    exp = np.asarray(expected, dtype=complex)
    if p.degree != len(exp) - 1:
        return False
    return np.allclose(p.c, exp, atol=tol * max(1.0, np.abs(exp).max()), rtol=0)


class TestSimplePolynomial:
    def test_from_rows(self):
        p = SimplePolynomial.from_rows([[1, 0, 0, 0], [0, 0, 0, 1]])
        assert p.degree == 1
        assert p.coeffs == (ONE, K)

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
        np_ = normalize(cubic_ijk)
        assert np_.d0 == 1
        assert np_.coeffs == (K, J, I)

    def test_zero_constant_term(self):
        p = SimplePolynomial([0, 1, 1])  # x^2 + x
        np_ = normalize(p)
        assert np_.d0 == 0
        assert np_.coeffs == (ONE, ONE)

    def test_real_scaling(self):
        np_ = normalize(SimplePolynomial([2, 2]))
        assert np_.d0 == 1
        assert qapprox(np_.coeffs[0], ONE, 1e-15)

    def test_constant_rejected(self):
        with pytest.raises(DegreeError):
            normalize(SimplePolynomial([I]))


class TestDerived:
    def test_cubic_ijk(self, cubic_ijk):
        dp = derived(normalize(cubic_ijk))
        assert coeffs_close(dp.f1, [1, 0, 0, 1j])       # i t^3 + 1
        assert coeffs_close(dp.f2, [0, 1j, 1])          # t^2 + i t
        assert coeffs_close(dp.f1.conj_coeffs(), [1, 0, 0, -1j])
        assert coeffs_close(dp.f2.conj_coeffs(), [0, -1j, 1])

    def test_real_coefficients_give_zero_f2(self, cubic_real):
        dp = derived(normalize(cubic_real))
        assert coeffs_close(dp.f1, [1, 1, 1, 1])
        assert dp.f2.is_zero

    def test_pure_j_coefficient(self):
        # j x + 1: the j component lands in f2, the constant in f1
        dp = derived(NormalizedPolynomial((J,), 1))
        assert coeffs_close(dp.f1, [1])
        assert coeffs_close(dp.f2, [0, 1])

    def test_bars_are_exact_conjugates(self, degree6_mixed):
        # the sphere test reads |fbar(eta)| as |f(conj eta)|: exactly equal
        dp = derived(normalize(degree6_mixed))
        eta = np.array([0.3 + 0.8j, -1.7 + 2.1j, 1j, 0.6 - 0.2j])
        for f in (dp.f1, dp.f2):
            assert np.array_equal(np.abs(f.conj_coeffs()(eta)), np.abs(f(eta.conj())))
        assert dp.f2.coeff(0) == 0


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

    def test_non_real_check_guards_bad_bars(self, monkeypatch, cubic_ijk):
        dp = derived(normalize(cubic_ijk))
        # bars not conjugated
        monkeypatch.setattr(ComplexPolynomial, "conj_coeffs", lambda self: self)
        with pytest.raises(solver_mod.NonRealDiscriminantError):
            discriminant(dp)


class TestClassifyEta:
    def test_cubic_ijk_at_i_is_isolated(self, cubic_ijk):
        dp = derived(normalize(cubic_ijk))
        assert not is_spherical_root(dp, 1j)

    def test_cubic_real_at_i_is_spherical(self, cubic_real):
        dp = derived(normalize(cubic_real))
        assert is_spherical_root(dp, 1j)

    def test_degree6_at_i_is_spherical(self, degree6_mixed):
        dp = derived(normalize(degree6_mixed))
        assert is_spherical_root(dp, 1j)


class TestIsolatedZero:
    def test_cubic_ijk_at_i(self, cubic_ijk):
        dp = derived(normalize(cubic_ijk))
        # f1(i) = 2, f2(i) = -2, so the closed form collapses to k
        assert dp.f1(1j) == pytest.approx(2)
        assert dp.f2(1j) == pytest.approx(-2)
        assert qapprox(isolated_zero(dp, 1j), K, 1e-12)

    def test_cubic_ijk_at_eighth_root(self, cubic_ijk):
        dp = derived(normalize(cubic_ijk))
        eta = cmath.exp(1j * math.pi / 4)
        expected = Quaternion(SQRT2_2, 0.5, 0.0, 0.5)
        assert qapprox(isolated_zero(dp, eta), expected, 1e-12)

    def test_representative_invariance(self, cubic_ijk):
        # both branch selections must produce the same zero
        dp = derived(normalize(cubic_ijk))
        eta = cmath.exp(3j * math.pi / 4)
        expected = Quaternion(-SQRT2_2, 0.5, 0.0, 0.5)
        assert qapprox(isolated_zero(dp, eta), expected, 1e-12)

    def test_guard_on_spherical_point(self, cubic_real):
        # misuse: at a spherical root all four evaluations vanish
        dp = derived(normalize(cubic_real))
        with pytest.raises(BothDenominatorsZeroError):
            isolated_zero(dp, 1j)


class TestScaledEvaluation:
    """The sphere test and closed form on the scaled evaluator, against the
    unscaled evaluation they replaced."""

    @given(_derived_and_eta())
    def test_agrees_with_the_unscaled_reference(self, case):
        dp, eta, kind = case
        sphere = is_spherical_root(dp, eta)
        ref_sphere = is_spherical_root_reference(dp, eta)
        try:
            ref_zero = isolated_zero_reference(dp, eta)
        except (OverflowError, ValueError):
            ref_zero = None
        if np.abs(np.array([eta]))[0] <= 1.0:  # |eta| as the evaluator rounds it
            # no scaling: the same values, so the same verdicts and zeros
            assert sphere == ref_sphere
            if ref_zero is None:
                with pytest.raises(BothDenominatorsZeroError):
                    isolated_zero(dp, eta)
            else:
                assert isolated_zero(dp, eta) == ref_zero
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
            assert qapprox(isolated_zero(dp, eta), ref_zero, 1e-12)

    def test_arrays_give_the_pointwise_answers(self, degree6_mixed):
        dp = derived(normalize(degree6_mixed))
        eta = np.array([1j, cmath.exp(1j * math.pi / 3), 2.5 + 0.5j])
        assert list(is_spherical_root(dp, eta)) == [is_spherical_root(dp, e) for e in eta]
        assert isolated_zero(dp, eta[1:]) == [isolated_zero(dp, e) for e in eta[1:]]

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
        g, g1, g2 = factor_g(normalize(cubic_ijk))
        assert coeffs_close(g, [1j, 1])            # t + i
        assert coeffs_close(g1, [-1j, 1, 1j])      # i t^2 + t - i
        assert coeffs_close(g2, [0, 1])            # t

    def test_degree6_mixed(self, degree6_mixed):
        g, g1, g2 = factor_g(normalize(degree6_mixed))
        assert coeffs_close(g, [-1, 0, 0, 0, 1])   # t^4 - 1
        assert coeffs_close(g1, [-1, 0, 1j])       # i t^2 - 1
        assert coeffs_close(g2, [0, 1j])           # i t

    def test_coprime_pair_gives_constant(self):
        # f1 = 1, f2 = t  (from j x + 1)
        g, g1, g2 = factor_g(NormalizedPolynomial((J,), 1))
        assert g.degree == 0
        assert coeffs_close(g1, [1])
        assert coeffs_close(g2, [0, 1])

    def test_inexact_division_guard(self, monkeypatch, cubic_ijk):
        monkeypatch.setattr(solver_mod, "poly_gcd",
                            lambda *a, **k: ComplexPolynomial([0.5, 1]))
        with pytest.raises(InexactDivisionError):
            factor_g(normalize(cubic_ijk))

    def test_cofactor_zero_formula(self, degree6_mixed):
        # the closed form from the cofactors at a sixth root of unity
        g, g1, g2 = factor_g(normalize(degree6_mixed))
        eta = cmath.exp(-1j * math.pi / 3)
        expected = Quaternion(0.5, -0.5, -0.5, -0.5)
        got, flipped, other = solver_mod._isolated_zero_cofactor(
            g1, g2, np.array([eta, eta.conjugate(), cmath.exp(-2j * math.pi / 3)]))
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
        calls = []

        def counting(np_):
            calls.append(np_)
            return derived(np_)

        monkeypatch.setattr(solver_mod, "derived", counting)
        solve_factored(degree6_mixed)
        assert len(calls) == 1


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


class TestIsFiniteZeroSet:
    def test_cubic_ijk_finite(self, cubic_ijk):
        assert is_finite_zero_set(derived(normalize(cubic_ijk)))

    def test_cubic_real_infinite(self, cubic_real):
        assert not is_finite_zero_set(derived(normalize(cubic_real)))

    def test_x2_plus_1_infinite(self):
        dp = derived(normalize(SimplePolynomial([1, 0, 1])))
        assert not is_finite_zero_set(dp)


class TestZeroSetBuild:
    def test_isolated_inside_sphere_dropped(self):
        cls = ConjugacyClass.from_complex(1j)
        zs = ZeroSet.build([], [K], [cls])
        assert zs.isolated_zeros == ()
        assert len(zs.spherical) == 1

    def test_duplicates_merged(self):
        zs = ZeroSet.build([1.0, 1.0 + 1e-12], [I + ONE, ONE + I], [])
        assert len(zs.real_zeros) == 1
        assert len(zs.isolated_zeros) == 1

    @given(_isolated_and_classes(), st.sampled_from([DEDUP, 0.0]))
    def test_isolated_dedup_matches_the_full_scan(self, inputs, dedup):
        isolated, classes = inputs
        zs = ZeroSet.build([], isolated, classes, dedup)
        assert zs.isolated_zeros == dedup_isolated_reference(isolated, zs.spherical, dedup)

    def test_counts(self):
        zs = ZeroSet.build([0.5], [ONE + I], [ConjugacyClass.from_complex(2j)])
        assert zs.class_count() == 3
        assert not zs.is_empty()

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
            assert not zs.is_empty()
            rep = audit(p, zs)
            assert rep.residuals_ok and rep.bounds_ok

    def test_routes_agree_on_random_inputs(self):
        for p in random_simple_polynomials(30, seed=7):
            a = solve_discriminant(p)
            b = solve_factored(p)
            assert not compare(a, b, tol=1e-6)
