import math
import operator

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from quatroots.quaternion import (ConjugacyClass, I, J, K, ONE, Quaternion,
                                  embed_complex)
from quatroots.solver import (SimplePolynomial, ZeroSet, solve_discriminant)
from quatroots.companion import solve_companion
from quatroots.verify import audit, compare, eval_qpoly, residual_limit

from conftest import SQRT2_2, compare_reference, eval_qpoly_reference

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
        zs = ZeroSet.build([], [K, Quaternion(SQRT2_2, 0.5, 0, 0.5),
                                Quaternion(-SQRT2_2, 0.5, 0, 0.5)], [])
        rep = audit(cubic_ijk, zs)
        assert rep.max_residual < 1e-10
        assert rep.passed

    def test_degree6_published_set(self, degree6_mixed):
        zs = ZeroSet.build(
            [1.0, -1.0],
            [Quaternion(0.5, -0.5, -0.5, -0.5), Quaternion(-0.5, 0.5, -0.5, -0.5)],
            [ConjugacyClass.from_complex(1j)])
        rep = audit(degree6_mixed, zs, samples_per_class=8)
        assert rep.max_residual < 1e-10
        assert rep.bounds_ok

    def test_corrupted_zero_flagged(self, cubic_ijk):
        zs = ZeroSet.build([], [Quaternion(0.1, 0, 0, 1)], [])  # k shifted
        rep = audit(cubic_ijk, zs)
        assert rep.max_residual > 1e-2
        assert not rep.passed

    def test_bounds_violation_detected(self):
        p = SimplePolynomial([1, 1])  # degree 1
        zs = ZeroSet.build([-1.0, 4.0], [], [])  # too many classes for n=1
        rep = audit(p, zs)
        assert not rep.bounds_ok
        assert not rep.passed

    def test_entries_capture_every_sample(self, cubic_real):
        zs = solve_discriminant(cubic_real)
        rep = audit(cubic_real, zs, samples_per_class=5)
        assert len(rep.entries) == 1 + 5  # one real zero + 5 sphere samples
        assert rep.max_residual == max(r for _, r, _ in rep.entries)

    @given(st.lists(_quaternions, min_size=1, max_size=7),
           st.lists(_finite, max_size=3), st.lists(_quaternions, max_size=3),
           st.lists(_classes, max_size=2))
    # a residual of 1e-200, whose squares underflow to 0 in abs(Quaternion)
    @example([Quaternion(1e-200)], [0.0], [], [])
    def test_residuals_equal_the_scalar_evaluation(self, coeffs, reals, isolated,
                                                   classes):
        p = SimplePolynomial(coeffs + [ONE])
        zs = ZeroSet(tuple(reals), tuple(isolated), tuple(classes))
        rep = audit(p, zs, samples_per_class=3)
        points = ([Quaternion(x) for x in reals] + isolated
                  + [m for c in classes for m in c.sample(3)])
        assert [r for _, r, _ in rep.entries] == [
            _modulus(eval_qpoly_reference(p, z)) for z in points]
        assert [b for _, _, b in rep.entries] == [
            residual_limit(p, z, 1e-8) for z in points]
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


class TestCompare:
    def test_solver_agreement(self, cubic_real):
        d = compare(solve_discriminant(cubic_real), solve_companion(cubic_real))
        assert not d

    def test_category_mismatch_reported(self):
        a = ZeroSet.build([], [I], [])
        b = ZeroSet.build([], [], [ConjugacyClass.from_complex(1j)])
        d = compare(a, b)
        assert d
        assert len(d.isolated) == 1 and len(d.spherical) == 1

    def test_identical_sets_empty_diff(self):
        zs = ZeroSet.build([2.0], [ONE + I], [ConjugacyClass.from_complex(3j)])
        assert not compare(zs, zs)

    def test_symmetry(self):
        a = ZeroSet.build([0.0], [I + J], [])
        b = ZeroSet.build([0.0 + 5e-7], [I + J], [])
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
