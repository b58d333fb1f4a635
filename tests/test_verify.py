import math
import operator

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from quatroots import verify as verify_mod
from quatroots.quaternion import ConjugacyClass, Quaternion, embed_complex, hamilton, rows
from quatroots.solver import SimplePolynomial, Tolerances, ZeroSet, solve_discriminant
from quatroots.companion import solve_companion
from quatroots.verify import (_PERM, _SIGNS, SAMPLES_PER_CLASS, TERM_BLOCK, _eval_rows,
                              _power_step, audit, compare)

from conftest import (ONE, I, J, K, SQRT2_2, cli_compare_inputs, compare_reference, eval_qpoly,
                      eval_qpoly_reference, eval_rows_reference, residual_limit_reference)

# a power of two, so grid points sit exactly at, or just past, tolerance
TOL = 2.0 ** -20
_steps = st.sampled_from([0.0, TOL, -TOL, TOL * (1 + 2.0 ** -10), 2 * TOL, 0.5])
_grid = st.builds(operator.add, st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0, 3.0]), _steps)
_points = st.builds(Quaternion, _grid, _grid, _grid, _grid)
_classes = st.builds(lambda re, im: ConjugacyClass(complex(re, im)),
                     _grid, st.sampled_from([0.5, 0.5 + TOL, 1.0, 2.0]))
# raw ZeroSets, so repeated entries survive
_zero_sets = st.builds(lambda r, q, c: ZeroSet(tuple(r), tuple(q), tuple(c)),
                       st.lists(_grid, max_size=6), st.lists(_points, max_size=6),
                       st.lists(_classes, max_size=6))
_finite = st.floats(-3.0, 3.0, allow_nan=False)
_quaternions = st.builds(Quaternion, _finite, _finite, _finite, _finite)


def _modulus(q: Quaternion) -> float:
    """abs(q), or math.hypot where its sum of squares is not a normal float, as audit's norm."""
    exact = np.finfo(float).tiny <= q.norm_sq() < math.inf
    return abs(q) if exact else math.hypot(*q.components())


class TestEvalQPoly:
    def test_cubic_ijk_at_k(self, cubic_ijk):
        assert abs(eval_qpoly(cubic_ijk, K)) <= 1e-15

    def test_real_cubic_at_j(self, cubic_real):
        # j^3 + j^2 + j + 1 = -j - 1 + j + 1 = 0
        assert abs(eval_qpoly(cubic_real, J)) <= 1e-15

    def test_linear_root(self):
        q = Quaternion(0.3, -1.4, 2.2, 0.9)
        p = SimplePolynomial([-q, ONE])  # x - q
        assert abs(eval_qpoly(p, q)) <= 1e-14

    def test_matches_complex_horner(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            n = int(rng.integers(1, 9))
            cs = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
            z = complex(*rng.standard_normal(2))
            p = SimplePolynomial([embed_complex(c) for c in cs])
            direct = 0j
            for c in cs[::-1]:
                direct = direct * z + c
            got = eval_qpoly(p, embed_complex(z))
            scale = max(1.0, abs(direct))
            assert abs(got - embed_complex(direct)) <= 1e-12 * scale


class TestAudit:
    def test_cubic_ijk_published_set(self, cubic_ijk):
        zs = ZeroSet.build([], rows([K, Quaternion(SQRT2_2, 0.5, 0, 0.5),
                                     Quaternion(-SQRT2_2, 0.5, 0, 0.5)]), [])
        rep = audit(cubic_ijk, zs)
        assert rep.max_residual < 1e-10
        assert rep.passed

    def test_degree6_published_set(self, degree6_mixed):
        zs = ZeroSet.build(
            [1.0, -1.0],
            [(0.5, -0.5, -0.5, -0.5), (-0.5, 0.5, -0.5, -0.5)],
            [1j])
        rep = audit(degree6_mixed, zs)
        assert rep.max_residual < 1e-10
        assert rep.bounds_ok

    def test_corrupted_zero_flagged(self, cubic_ijk):
        zs = ZeroSet.build([], [(0.1, 0, 0, 1)], [])  # k shifted
        rep = audit(cubic_ijk, zs)
        assert rep.max_residual > 1e-2
        assert not rep.passed

    def test_bounds_violation_detected(self):
        p = SimplePolynomial([1, 1])  # degree 1
        zs = ZeroSet.build([-1.0, 4.0], [], [])  # too many classes for n=1
        rep = audit(p, zs)
        assert not rep.bounds_ok
        assert not rep.passed

    def test_a_sphere_counts_twice_against_the_degree(self):
        # a real zero takes a linear factor and a sphere a real quadratic: degree 3 at least
        zs = ZeroSet(real_zeros=(1.0,), isolated_zeros=(),
                     spherical=(ConjugacyClass.from_complex(1j),))
        rep = audit(SimplePolynomial([1, 0, 1]), zs)
        assert not rep.bounds_ok
        assert not rep.passed

    def test_companion_route_at_a_double_real_zero_passes(self):
        # cli-compare seed 3, pid 58: degree 10 with a double real zero, which the
        # companion route reports once, beside 8 isolated zeros
        p, _ = cli_compare_inputs(3, [58])[58]
        zs = solve_companion(p)
        assert (p.degree, len(zs.real_zeros), len(zs.isolated_zeros), len(zs.spherical)) \
            == (10, 1, 8, 0)
        assert audit(p, zs).passed

    def test_spheres_at_a_double_real_zero_fail_the_count(self):
        # the same input's double real zero reported as two thin spheres beside its 8
        # isolated zeros: every residual passes, but 8 + 2 * 2 exceeds the degree
        p, _ = cli_compare_inputs(3, [58])[58]
        isolated = [Quaternion(*row) for row in (
            (-1.6436208310939007, 0.6510306975868926, 0.12827611428930125, -0.10597581424779184),
            (-0.6469566260316055, 0.3275713309499048, -0.3580483415078496, -0.23229877849341377),
            (-0.6431100650290821, 0.24383140708368417, 0.7212795062542565, -0.24187509318384362),
            (-0.04020653320763158, 0.5072376027222223, -0.4833199849891949, 0.06609484141630344),
            (0.1789106856819468, 0.5566686463115452, 0.15509098807184468, -0.15011873344468216),
            (0.2887021201253115, -0.026679669469232375, 0.07648908711655449, 1.0614055340519097),
            (0.8286848041514362, 0.2144777352964638, -0.1338165089983381, 0.21645359964576552),
            (1.1522441902426082, -0.09338999620502358, -0.030551769139407277, -0.5796711850525824))]
        spheres = (ConjugacyClass(-0.10979279134335593 + 1.196899171156395e-05j),
                   ConjugacyClass(-0.10976751194794868 + 1.2855437434914928e-05j))
        rep = audit(p, ZeroSet((), tuple(isolated), spheres))
        assert rep.residuals_ok
        assert not rep.bounds_ok
        assert not rep.passed

    def test_entries_capture_every_sample(self, cubic_real):
        zs = solve_discriminant(cubic_real)
        rep = audit(cubic_real, zs)
        # one real zero and the samples of one sphere
        assert len(rep.entries) == 1 + SAMPLES_PER_CLASS
        assert rep.max_residual == max(r for _, r, _ in rep.entries)

    def test_entries_are_named_by_kind_and_position(self, degree6_mixed):
        zs = ZeroSet.build([1.0, -1.0], [(0.5, -0.5, -0.5, -0.5), (-0.5, 0.5, -0.5, -0.5)],
                           [1j, 2j])
        names = [name for name, _, _ in audit(degree6_mixed, zs).entries]
        assert names == (["real 0", "real 1", "isolated 0", "isolated 1"]
                         + [f"sphere {k} member {t}" for k in range(2)
                            for t in range(SAMPLES_PER_CLASS)])

    def test_reads_the_sample_count_at_each_call(self, monkeypatch, cubic_real):
        zs = solve_discriminant(cubic_real)
        monkeypatch.setattr(verify_mod, "SAMPLES_PER_CLASS", 3)
        assert len(audit(cubic_real, zs).entries) == 1 + 3

    def test_bounds_scale_with_the_record(self, monkeypatch, cubic_real):
        zs = solve_discriminant(cubic_real)
        rep = audit(cubic_real, zs)
        monkeypatch.setattr(verify_mod, "DEFAULT_TOLS",
                            Tolerances(accept=2 * verify_mod.DEFAULT_TOLS.accept))
        doubled = audit(cubic_real, zs)
        assert [(label, r, 2 * b) for label, r, b in rep.entries] == list(doubled.entries)

    @pytest.mark.parametrize("isolated", [(Quaternion(1.0), Quaternion(1e300, 1e300)),
                                          (Quaternion(1e300, 1e300), Quaternion(1.0))],
                             ids=["nan-last", "nan-first"])
    def test_a_nan_residual_is_the_max_in_either_order(self, isolated):
        # x^2 - 1 at 1e300 (1 + i) is inf - inf, first or last among the entries
        rep = audit(SimplePolynomial([-1, 0, 1]), ZeroSet((), isolated, ()))
        residuals = [r for _, r, _ in rep.entries]
        assert 0.0 in residuals and any(map(math.isnan, residuals))
        assert math.isnan(rep.max_residual) and not rep.passed

    def test_an_infinite_sphere_gives_nan_members_silently(self):
        # inf * 0 is NaN, as the Python products of ConjugacyClass.sample give it
        zs = ZeroSet((), (), (ConjugacyClass(complex(0.0, math.inf)),))
        rep = audit(SimplePolynomial([1, 0, 1]), zs)
        assert math.isnan(rep.max_residual) and not rep.passed
        assert math.isnan(zs.spherical[0].sample(SAMPLES_PER_CLASS)[0].a2)

    @given(st.lists(_quaternions, min_size=1, max_size=7),
           st.lists(_finite, max_size=3), st.lists(_quaternions, max_size=3),
           st.lists(_classes, max_size=2))
    # a residual of 1e-200, whose squares underflow to 0 in abs(Quaternion)
    @example([Quaternion(1e-200)], [0.0], [], [])
    def test_residuals_equal_the_scalar_evaluation(self, coeffs, reals, isolated,
                                                   classes):
        p = SimplePolynomial(coeffs + [ONE])
        zs = ZeroSet(tuple(reals), tuple(isolated), tuple(classes))
        rep = audit(p, zs)
        points = ([Quaternion(x) for x in reals] + isolated
                  + [m for c in classes for m in c.sample(SAMPLES_PER_CLASS)])
        assert [r for _, r, _ in rep.entries] == [
            _modulus(eval_qpoly_reference(p, z)) for z in points]
        assert [b for _, _, b in rep.entries] == [
            residual_limit_reference(p, z, 1e-8) for z in points]
        for z in points:
            assert eval_qpoly(p, z) == eval_qpoly_reference(p, z)

    @pytest.mark.parametrize("coeffs, zs", [
        # max(1, |z|)^degree overflows
        ([1.0] * 401, ZeroSet((), (Quaternion(25.0, 1.0),), ())),
        # residual and bound both overflow to inf by multiplication
        ([1e150] * 3, ZeroSet((1e84,), (), ())),
        # the residual overflows, the bound does not
        ([1e150, 0.0, 1e150], ZeroSet((1e80,), (), ())),
    ])
    def test_overflowed_entry_never_passes(self, coeffs, zs):
        p = SimplePolynomial(coeffs)
        assert not audit(p, zs).passed


class TestBatchedTerms:
    """_eval_rows forms the terms q_j z^j of a block of j at once: the term-by-term sum."""

    @pytest.mark.parametrize("degree", [1, 7, 48, 800])
    def test_equals_the_term_by_term_sum_bit_for_bit(self, degree):
        rng = np.random.default_rng(degree)
        p = SimplePolynomial.from_rows(rng.standard_normal((degree + 1, 4)))
        reals = rows([Quaternion(x) for x in 2.0 * rng.standard_normal(5)])
        isolated = rng.standard_normal((5, 4))
        classes = [ConjugacyClass(complex(rng.standard_normal(), 0.1 + rng.random()))
                   for _ in range(400 if degree == 800 else 4)]
        samples = rows([m for c in classes for m in c.sample(SAMPLES_PER_CLASS)])
        huge = 1e200 * rng.standard_normal((6, 4))
        for z in (reals, isolated, samples, huge, np.concatenate([reals, isolated, samples, huge])):
            got = _eval_rows(p, z)
            assert got.tobytes() == eval_rows_reference(p, z).tobytes()
        if degree > 1:
            # the overflowing points give non-finite entries, in the same places
            assert not np.isfinite(_eval_rows(p, huge)).all()
        if degree == 800:
            assert degree >= 2 * (TERM_BLOCK // len(samples))  # several blocks of terms


# finite components, either zero, either infinity and NaN
_components = st.floats(allow_nan=False) | st.sampled_from(
    [0.0, -0.0, math.inf, -math.inf, math.nan])


class TestPowerStep:
    """_eval_rows steps its powers by one signed product and three sums: hamilton's roundings."""

    @given(st.lists(st.tuples(*[_components] * 8), min_size=1, max_size=5))
    @example([(1.0, 0.0, 0.0, 0.0, math.inf, 0.0, -0.0, math.nan)])
    @example([(-0.0, 0.0, -0.0, 0.0, 0.0, -0.0, 0.0, -0.0)])
    def test_is_hamilton_bit_for_bit(self, pairs):
        a, z = np.array(pairs)[:, :4], np.array(pairs)[:, 4:]
        with np.errstate(over="ignore", invalid="ignore"):
            got = _power_step(a.T, _SIGNS[:, :, None] * z.T[_PERM], np.empty((4, len(z))))
            want = np.array(hamilton(a.T, z.T))
            scalar = np.array([hamilton(x, y) for x, y in zip(a.tolist(), z.tolist())]).T
        # Quaternion.__mul__, the product the benchmark counts, is hamilton on Python floats
        mul = np.array([(Quaternion(*x) * Quaternion(*y)).components()
                        for x, y in zip(a.tolist(), z.tolist())]).T
        assert mul.tobytes() == scalar.tobytes()
        for other in (want, mul):
            assert _same_bits_nan_aside(got, other)


def _same_bits_nan_aside(x: np.ndarray, y: np.ndarray) -> bool:
    """Equal bits, and NaN in the same places: the sign of an inf * 0 NaN is numpy's, and it
    differs between a vector loop's lanes and its scalar tail, so NaN bits are not compared."""
    nan = np.isnan(x)
    return np.array_equal(nan, np.isnan(y)) and x[~nan].tobytes() == y[~nan].tobytes()


class TestCompare:
    def test_solver_agreement(self, cubic_real):
        d = compare(solve_discriminant(cubic_real), solve_companion(cubic_real))
        assert not d

    def test_category_mismatch_reported(self):
        a = ZeroSet.build([], rows([I]), [])
        b = ZeroSet.build([], [], [1j])
        d = compare(a, b)
        assert d
        assert len(d.isolated) == 1 and len(d.spherical) == 1

    def test_identical_sets_empty_diff(self):
        zs = ZeroSet.build([2.0], rows([ONE + I]), [3j])
        assert not compare(zs, zs)

    def test_symmetry(self):
        a = ZeroSet.build([0.0], rows([I + J]), [])
        b = ZeroSet.build([0.0 + 5e-7], rows([I + J]), [])
        assert bool(compare(a, b)) == bool(compare(b, a))
        c = ZeroSet.build([1.0], [], [])
        assert bool(compare(a, c)) == bool(compare(c, a))

    def test_describe_mentions_sides(self):
        a = ZeroSet.build([1.0], [], [])
        b = ZeroSet.build([], [], [])
        text = compare(a, b).describe()
        assert "left" in text and "real" in text

    @given(_zero_sets, _zero_sets)
    def test_same_diff_as_the_repeated_search(self, a, b):
        assert compare(a, b, TOL) == compare_reference(a, b, TOL)
        assert compare(a, a, TOL) == compare_reference(a, a, TOL)

    def test_nan_entry_never_matches(self):
        a = ZeroSet((math.nan, 1.0), (Quaternion(math.nan), I), ())
        b = ZeroSet((1.0, 2.0), (I, J), ())
        d = compare(a, b)
        assert [side for side, _ in d.real] == ["left", "right"]
        assert math.isnan(d.real[0][1]) and d.real[1][1] == 2.0
        assert [side for side, _ in d.isolated] == ["left", "right"]
        assert math.isnan(d.isolated[0][1].a0) and d.isolated[1][1] == J

    def test_tie_goes_to_the_smallest_pair(self):
        # 0.0 is equally close to both right entries: the first one matches
        a = ZeroSet((0.0,), (), ())
        b = ZeroSet((TOL, -TOL), (), ())
        assert compare(a, b, TOL).real == (("right", -TOL),)
        assert compare(a, b, TOL) == compare_reference(a, b, TOL)
