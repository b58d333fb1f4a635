import cmath
import math

import numpy as np
import pytest

from quatroots.cpoly import ComplexPolynomial
from quatroots.roots import (NoConvergenceError, RootList, UnpairedRootError,
                             _cluster, all_roots, classify_real,
                             pair_conjugates, polish_multiples)

# the machine-computed roots of the degree-12 discriminant of the
# degree-6 test case, as produced by a general-purpose solver
TABLE_ROOTS = [
    -1.000000000000001 + 0.000000002066542j,
    -1.000000000000001 - 0.000000002066542j,
    -0.500000000000000 + 0.866025403784440j,
    -0.500000000000000 - 0.866025403784440j,
    0.999999990102304 + 0.000000000000000j,
    1.000000009897694 - 0.000000000000000j,
    0.500000000000000 + 0.866025403784439j,
    0.500000000000000 - 0.866025403784439j,
    0.000000000016075 + 1.000000008531051j,
    0.000000000016075 - 1.000000008531051j,
    -0.000000000016074 + 0.999999991468949j,
    -0.000000000016074 - 0.999999991468949j,
]


def sorted_values(rl: RootList):
    out = []
    for v, m in rl.roots:
        out.extend([v] * m)
    return sorted(out, key=lambda z: (round(z.real, 8), round(z.imag, 8)))


def match_sets(got, expected, tol):
    assert len(got) == len(expected)
    left = list(expected)
    for z in got:
        dist = [abs(z - e) for e in left]
        k = int(np.argmin(dist))
        assert dist[k] <= tol, f"{z} not within {tol} of any of {left}"
        left.pop(k)


class TestAllRoots:
    def test_quadratic(self):
        rl = all_roots(ComplexPolynomial([1, 0, 1]))
        match_sets(sorted_values(rl), [1j, -1j], 1e-12)

    def test_quartic_eighth_roots(self):
        rl = all_roots(ComplexPolynomial([1, 0, 0, 0, 1]))
        expected = [cmath.exp(1j * math.pi * k / 4) for k in (1, 3, 5, 7)]
        match_sets(sorted_values(rl), expected, 1e-12)

    def test_degree12_double_root_structure(self):
        # t^12 + t^10 - t^8 - 2 t^6 - t^4 + t^2 + 1
        pt = ComplexPolynomial([1, 0, 1, 0, -1, 0, -2, 0, -1, 0, 1, 0, 1])
        rl = all_roots(pt)
        mult = {}
        exact = [1, -1, 1j, -1j,
                 cmath.exp(1j * math.pi / 3), cmath.exp(-1j * math.pi / 3),
                 cmath.exp(2j * math.pi / 3), cmath.exp(-2j * math.pi / 3)]
        for v, m in rl.roots:
            k = int(np.argmin([abs(v - e) for e in exact]))
            assert abs(v - exact[k]) <= 1e-6
            mult[k] = m
        assert [mult[k] for k in range(8)] == [2, 2, 2, 2, 1, 1, 1, 1]

    def test_zero_roots_stripped_exactly(self):
        # t^2 (t - 2): double root at the origin is recovered exactly
        rl = all_roots(ComplexPolynomial([0, 0, -2, 1]))
        assert (0j, 2) in rl.roots
        match_sets(sorted_values(rl), [0, 0, 2], 1e-12)

    def test_degree_conservation(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            n = int(rng.integers(1, 21))
            c = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
            rl = all_roots(ComplexPolynomial(c))
            assert sum(m for _, m in rl.roots) == rl.source_degree == n

    def test_residual_bound(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            n = int(rng.integers(1, 21))
            c = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
            p = ComplexPolynomial(c)
            rl = all_roots(p)
            scale = p.max_coeff()
            for v, _ in rl.roots:
                bound = 1e-8 * scale * max(1.0, abs(v)) ** p.degree
                assert abs(p(v)) <= bound

    def test_against_numpy_roots_oracle(self):
        rng = np.random.default_rng(47)
        for _ in range(25):
            n = int(rng.integers(2, 13))
            c = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
            got = sorted_values(all_roots(ComplexPolynomial(c)))
            oracle = sorted(np.roots(c[::-1]),
                            key=lambda z: (round(z.real, 8), round(z.imag, 8)))
            match_sets(got, oracle, 1e-6)

    def test_high_degree_circle(self):
        # x^200 - 3: all roots on one circle, must stay fast and accurate
        c = [-3.0] + [0.0] * 199 + [1.0]
        rl = all_roots(ComplexPolynomial(c))
        r = 3 ** (1 / 200)
        assert len(rl.roots) == 200
        for v, m in rl.roots:
            assert m == 1
            assert abs(abs(v) - r) <= 1e-12

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            all_roots(ComplexPolynomial([3]))

    def test_no_convergence_carries_payload(self):
        err = NoConvergenceError("stalled", roots=[1j], residuals=[0.25])
        assert err.roots == [1j]
        assert err.residuals == [0.25]


class TestFShapeNonnegativity:
    def test_product_with_conjugate_is_nonnegative_on_reals(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            n = int(rng.integers(1, 11))
            f = ComplexPolynomial(rng.standard_normal(n + 1)
                                  + 1j * rng.standard_normal(n + 1))
            p = (f * f.conj_coeffs()).real()
            ts = rng.uniform(-3, 3, size=100)
            vals = np.array([p(t).real for t in ts])
            scales = np.array(
                [sum(abs(ck) * abs(t) ** k for k, ck in enumerate(p.c)) for t in ts])
            assert np.all(vals >= -1e-8 * np.maximum(scales, 1.0))


class TestClassifyReal:
    def test_double_real_and_simple_pair(self):
        # (t-1)^2 (t^2+1)
        p = ComplexPolynomial([1, -2, 2, -2, 1])
        reals, pairs = classify_real(all_roots(p))
        assert len(reals) == 1 and reals[0][1] == 2
        assert abs(reals[0][0] - 1) <= 1e-6
        assert len(pairs) == 1 and pairs[0][1] == 1
        assert abs(pairs[0][0] - 1j) <= 1e-10

    def test_squared_cubic(self):
        # (t^3+t^2+t+1)^2: double real at -1 and a double pair at i
        p = ComplexPolynomial([1, 2, 3, 4, 3, 2, 1])
        reals, pairs = classify_real(all_roots(p))
        assert len(reals) == 1 and reals[0][1] == 2
        assert abs(reals[0][0] + 1) <= 1e-6
        assert len(pairs) == 1 and pairs[0][1] == 2
        assert abs(pairs[0][0] - 1j) <= 1e-6

    def test_machine_root_table(self):
        clusters = _cluster(np.array(TABLE_ROOTS, dtype=complex))
        rl = RootList(tuple(clusters), 12)
        reals, pairs = classify_real(rl)
        assert [(round(x, 6), m) for x, m in reals] == [(-1.0, 2), (1.0, 2)]
        expected_pairs = [(-0.5 + 0.866025403784j, 1), (0j + 1j, 2),
                          (0.5 + 0.866025403784j, 1)]
        assert len(pairs) == 3
        for (eta, m), (exp, em) in zip(pairs, expected_pairs):
            assert abs(eta - exp) <= 1e-8
            assert m == em

    def test_pairs_have_positive_imaginary(self):
        p = ComplexPolynomial([5, 0, 1, 0, 1])
        _, pairs = classify_real(all_roots(p))
        assert all(eta.imag > 0 for eta, _ in pairs)

    def test_unpaired_root_raises(self):
        rl = RootList(((1 + 1j, 1),), 1)
        with pytest.raises(UnpairedRootError):
            classify_real(rl)

    def test_leftover_below_the_axis_raises(self):
        rl = RootList(((1 + 1j, 1), (1 - 1j, 1), (3 - 2j, 1)), 3)
        with pytest.raises(UnpairedRootError):
            classify_real(rl)


class TestPairConjugates:
    def test_complex_coefficients_keep_unpaired_roots(self):
        # (t - i)(t - 2)(t^2 + 4): the root i has no conjugate twin
        p = (ComplexPolynomial([-1j, 1]) * ComplexPolynomial([-2, 1])
             * ComplexPolynomial([4, 0, 1]))
        reals, pairs, unpaired = pair_conjugates(all_roots(p).roots)
        assert len(reals) == 1 and abs(reals[0][0] - 2) <= 1e-10
        assert len(pairs) == 1 and abs(pairs[0][0] - 2j) <= 1e-10
        assert len(unpaired) == 1 and abs(unpaired[0][0] - 1j) <= 1e-10

    def test_unpaired_values_are_returned_as_found(self):
        roots = ((0.5 - 3j, 2), (1 + 1j, 1), (1 - 1j, 1))
        _, pairs, unpaired = pair_conjugates(roots)
        assert pairs == [(1 + 1j, 1)]
        assert unpaired == [(0.5 - 3j, 2)]

    def test_pair_carries_the_larger_multiplicity(self):
        roots = ((2 + 1j, 1), (2 - 1j, 3))
        assert pair_conjugates(roots)[1] == [(2 + 1j, 3)]
        assert pair_conjugates(roots[::-1])[1] == [(2 + 1j, 3)]

    def test_pair_is_averaged_across_the_axis(self):
        _, pairs, _ = pair_conjugates(((1 + 1e-7 + 1j, 1), (1 - (1 + 2e-7) * 1j, 1)))
        assert len(pairs) == 1
        assert abs(pairs[0][0] - (1 + 5e-8 + (1 + 1e-7) * 1j)) <= 1e-15

    def test_same_half_plane_never_pairs(self):
        # conj(z) is within tol_real * (1 + |z|) of w, but both lie above the axis
        z, w = 100 + 1e-5j, 100 + 2e-5j
        assert abs(w - z.conjugate()) <= 1e-5 * (1 + abs(z))
        _, pairs, unpaired = pair_conjugates(((z, 1), (w, 1)))
        assert pairs == []
        assert unpaired == [(z, 1), (w, 1)]

    def test_each_partner_is_used_once(self):
        roots = ((1 + 1j, 1), (1 + 1j + 1e-9, 1), (1 - 1j, 1))
        _, pairs, unpaired = pair_conjugates(roots)
        assert len(pairs) == 1 and len(unpaired) == 1

    def test_near_real_roots_snap_to_real(self):
        reals, pairs, unpaired = pair_conjugates(((3 + 1e-6j, 2), (-1 - 1e-7j, 1)))
        assert reals == [(-1.0, 1), (3.0, 2)]
        assert pairs == [] and unpaired == []


def double_polished(p: ComplexPolynomial, z0: complex) -> complex:
    """polish_multiples on a single double root z0 of p."""
    return polish_multiples(p, RootList(((z0, 2),), 2)).roots[0][0]


class TestPolishDouble:
    def test_perturbed_double_real(self):
        p = ComplexPolynomial([1, -2, 1])
        assert abs(double_polished(p, 1.0000001) - 1.0) <= 1e-12

    def test_contaminated_double_at_i(self):
        # contamination pattern seen in practice for (t^2+1)^2
        p = ComplexPolynomial([1, 0, 2, 0, 1])
        z0 = 0.0000000000161 + 1.0000000085j
        assert abs(double_polished(p, z0) - 1j) <= 1e-12

    def test_against_newton_oracle(self):
        # (t-2)^2 (t+1) = t^3 - 3 t^2 + 4
        p = ComplexPolynomial([4, 0, -3, 1])
        got = double_polished(p, 2 + 1e-7)
        # brute-force oracle: plain Newton on the derivative 3t^2 - 6t
        z = 2 + 1e-7
        for _ in range(100):
            z = z - (3 * z * z - 6 * z) / (6 * z - 6)
        assert abs(got - 2.0) <= 1e-12
        assert abs(got - z) <= 1e-12

    def test_falls_back_on_nonsense_start(self):
        # derivative is constant: no refinement possible, z0 returned
        p = ComplexPolynomial([1, 1])
        assert double_polished(p, 5.0) == 5.0

    def test_polish_multiples_only_touches_multiples(self):
        p = ComplexPolynomial([1, -2, 1]) * ComplexPolynomial([-3, 1])
        rl = all_roots(p)
        polished = polish_multiples(p, rl)
        assert polished.source_degree == rl.source_degree
        for (v, m), (w, m2) in zip(rl.roots, polished.roots):
            assert m == m2
            if m == 1:
                assert v == w
