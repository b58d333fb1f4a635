"""Acceptance suite: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion.
"""

import cmath
import math
import time
from contextlib import contextmanager

import numpy as np

from quatroots.companion import (ab, companion, monic_normalized,
                                 power_decomp, solve_companion)
from quatroots.quaternion import ONE, Quaternion
from quatroots.roots import _aberth, _newton_polish, all_roots, polish_multiples
from quatroots.solver import (SimplePolynomial, derived, discriminant,
                              normalize, solve_complex_coeffs,
                              solve_discriminant, solve_factored)
from quatroots.verify import audit, compare, eval_qpoly

from conftest import SQRT2_2, sigma

ALGORITHMS = {
    "discriminant": solve_discriminant,
    "factored": solve_factored,
    "companion": solve_companion,
}


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"CRITERION {number}: FAIL - {description}")
        raise
    print(f"CRITERION {number}: PASS - {description}")


def assert_zero_set(zs, reals, isolated, classes, tol=1e-8):
    assert len(zs.real_zeros) == len(reals)
    for got, want in zip(zs.real_zeros, sorted(reals)):
        assert abs(got - want) <= tol
    assert len(zs.isolated_zeros) == len(isolated)
    matched = list(isolated)
    for got in zs.isolated_zeros:
        dist = [abs(got - w) for w in matched]
        k = int(np.argmin(dist))
        assert dist[k] <= tol, f"{got} missing from expected set"
        matched.pop(k)
    assert len(zs.spherical) == len(classes)
    for got, (re, mod) in zip(zs.spherical, sorted(classes)):
        assert abs(got.re - re) <= tol and abs(got.modulus - mod) <= tol


def test_criterion_1_cubic_golden_and_runtime(cubic_ijk):
    with criterion(1, "cubic golden test: three isolated zeros from all three "
                      "algorithms in under 10 ms each"):
        expected = [Quaternion(0, 0, 0, 1),
                    Quaternion(SQRT2_2, 0.5, 0, 0.5),
                    Quaternion(-SQRT2_2, 0.5, 0, 0.5)]
        for name, solve in ALGORITHMS.items():
            zs = solve(cubic_ijk)
            assert_zero_set(zs, [], expected, [], tol=1e-8)
            solve(cubic_ijk)  # warmup for the timing pass
            best = min(_timed(solve, cubic_ijk) for _ in range(5))
            assert best < 0.010, f"{name}: {best * 1e3:.2f} ms"


def _timed(fn, *args):
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def test_criterion_2_real_cubic_golden(cubic_real):
    with criterion(2, "real cubic golden test: {-1} plus the unit sphere from "
                      "all four routes"):
        routes = dict(ALGORITHMS)
        routes["complex-shortcut"] = solve_complex_coeffs
        for name, solve in routes.items():
            zs = solve(cubic_real)
            assert_zero_set(zs, [-1.0], [], [(0.0, 1.0)], tol=1e-8)


def test_criterion_3_degree6_golden(degree6_mixed):
    with criterion(3, "degree-6 golden test: zero set and the 13 integer "
                      "discriminant/companion coefficients"):
        expected_iso = [Quaternion(0.5, -0.5, -0.5, -0.5),
                        Quaternion(-0.5, 0.5, -0.5, -0.5)]
        for name, solve in ALGORITHMS.items():
            zs = solve(degree6_mixed)
            assert_zero_set(zs, [-1.0, 1.0], expected_iso, [(0.0, 1.0)], tol=1e-8)
        ints_desc = (1, 0, 1, 0, -1, 0, -2, 0, -1, 0, 1, 0, 1)
        disc = discriminant(derived(normalize(degree6_mixed)))
        comp = companion(monic_normalized(degree6_mixed))
        assert disc.degree == 12 and comp.degree == 12
        for got in (np.real(disc.c[::-1]), np.real(comp.c[::-1])):
            assert np.max(np.abs(got - np.array(ints_desc))) <= 1e-10


def test_criterion_4_root_table_pattern(degree6_mixed):
    with criterion(4, "root-table reproduction: double roots contaminated, "
                      "simple roots at 12+ digits, polish restores 1e-12"):
        pt = discriminant(derived(normalize(degree6_mixed)))
        exact_simple = [cmath.exp(1j * s * math.pi / 3)
                        for s in (1, -1, 2, -2)]
        exact_double = [1, -1, 1j, -1j]
        # raw iteration output, before any multiple-root polishing
        c = np.array(pt.c)
        raw, conv = _aberth(c)
        raw = _newton_polish(c, raw)
        assert conv.all()
        contamination = []
        for z in raw:
            d_double = min(abs(z - e) for e in exact_double)
            d_simple = min(abs(z - e) for e in exact_simple)
            if d_double < d_simple:
                assert d_double <= 1e-6   # the documented 1e-8-ish pattern
                contamination.append(d_double)
            else:
                assert d_simple <= 1e-12  # simple roots at full accuracy
        assert len(contamination) == 8  # two copies of each double root
        print(f"  raw double-root contamination: max {max(contamination):.2e}, "
              f"min {min(contamination):.2e}")
        # clustered multiplicities, then derivative-Newton polishing
        rl = all_roots(pt)
        polished = polish_multiples(pt, rl)
        for v, m in polished.roots:
            exact = exact_double if m == 2 else exact_simple
            assert min(abs(v - e) for e in exact) <= 1e-12
        assert sorted(m for _, m in polished.roots) == [1, 1, 1, 1, 2, 2, 2, 2]


def test_criterion_5_high_degree_binomials():
    with criterion(5, "degree-1000 binomial through the shortcut in < 5 s; "
                      "degree-50 through every general solver"):
        p1000 = SimplePolynomial([-2.0] + [0.0] * 999 + [1.0])
        t0 = time.perf_counter()
        zs = solve_complex_coeffs(p1000)
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0, f"{elapsed:.2f} s"
        r = 2.0 ** (1.0 / 1000.0)
        assert len(zs.real_zeros) == 2 and len(zs.spherical) == 499
        assert not zs.isolated_zeros
        assert abs(zs.real_zeros[0] + r) <= 1e-10
        assert abs(zs.real_zeros[1] - r) <= 1e-10
        assert max(abs(c.modulus - r) for c in zs.spherical) <= 1e-10
        print(f"  degree-1000 shortcut: {elapsed:.2f} s")

        p50 = SimplePolynomial([-2.0] + [0.0] * 49 + [1.0])
        r50 = 2.0 ** (1.0 / 50.0)
        for name, solve in ALGORITHMS.items():
            zs = solve(p50)
            assert len(zs.real_zeros) == 2 and len(zs.spherical) == 24
            assert abs(zs.real_zeros[0] + r50) <= 1e-8
            assert abs(zs.real_zeros[1] - r50) <= 1e-8
            rep = audit(p50, zs)
            assert rep.max_residual < 1e-6, f"{name}: {rep.max_residual:.2e}"


def test_criterion_6_solver_agreement_corpus(corpus_solutions):
    with criterion(6, "200 random inputs: all three solvers agree at 1e-6 and "
                      "audit residuals stay under 1e-8"):
        solved, elapsed = corpus_solutions
        assert len(solved) == 200
        worst = 0.0
        for p, za, zb, zc in solved:
            assert not compare(za, zb, tol=1e-6)
            assert not compare(za, zc, tol=1e-6)
            for zs in (za, zb, zc):
                rep = audit(p, zs)
                worst = max(worst, rep.max_residual)
        assert worst < 1e-8, f"worst residual {worst:.3e}"
        assert elapsed < 30.0, f"solving took {elapsed:.1f} s"
        print(f"  corpus: worst residual {worst:.2e}, solve time {elapsed:.1f} s")


def test_criterion_7_structural_bounds_corpus(corpus_solutions):
    with criterion(7, "200 random inputs: class-count bounds, discriminant "
                      "nonnegativity, companion equals discriminant"):
        solved, _ = corpus_solutions
        rng = np.random.default_rng(2024)
        for p, za, zb, zc in solved:
            n = p.degree
            for zs in (za, zb, zc):
                assert zs.class_count() <= n
                assert len(zs.spherical) <= n // 2
                assert not zs.is_empty()
            disc = discriminant(derived(normalize(p)))
            ts = rng.uniform(-2.0, 2.0, size=100)
            vals = np.real(disc(ts))
            majorant = np.zeros_like(ts)
            for k, ck in enumerate(np.abs(disc.c)):
                majorant = majorant + ck * np.abs(ts) ** k
            assert np.all(vals >= -1e-8 * np.maximum(majorant, 1.0))
            comp = companion(monic_normalized(p))
            a = np.real(comp.c) / np.real(comp.c[-1])
            b = np.real(disc.c) / np.real(disc.c[-1])
            assert len(a) == len(b)
            assert np.max(np.abs(a - b)) <= 1e-8 * max(1.0, np.abs(a).max())


def test_criterion_8_algebra_suite():
    with criterion(8, "1000-trial algebra suite: embedding homomorphism, "
                      "norm multiplicativity, power decomposition, A/B split"):
        rng = np.random.default_rng(88)

        def rand_q(span):
            return Quaternion(*rng.uniform(-span, span, size=4))

        for _ in range(1000):
            p, q = rand_q(10), rand_q(10)
            s = max(1.0, abs(p) * abs(q))
            assert np.abs(sigma(p * q) - sigma(p) @ sigma(q)).max() <= 1e-12 * s
            assert abs(abs(p * q) - abs(p) * abs(q)) <= 1e-12 * s

        for _ in range(1000):
            x = rand_q(2)
            n = int(rng.integers(0, 13))
            alpha, beta = power_decomp(complex(x.re, x.vec_norm()), n)
            power = ONE
            for j in range(n + 1):
                fit = x * float(alpha[j]) + ONE * float(beta[j])
                assert abs(power - fit) <= 1e-10 * max(abs(x) ** j, 1e-280)
                power = power * x

        for _ in range(1000):
            n = int(rng.integers(1, 9))
            coeffs = [rand_q(5) for _ in range(n + 1)]
            top = max(abs(c) for c in coeffs)
            if top == 0.0:
                continue
            p = SimplePolynomial(coeffs) if abs(coeffs[-1]) > 0 else None
            if p is None:
                continue
            z = rand_q(2)
            a, b = ab(p, complex(z.re, z.vec_norm()))
            # ab returns A and B divided by max(1, |z|)^n, so p(z) is too
            r = max(1.0, abs(z)) ** p.degree
            scale = sum(abs(qc) * max(1.0, abs(z)) ** j
                        for j, qc in enumerate(p.coeffs))
            fit = Quaternion(*a) * z + Quaternion(*b)
            assert abs(fit - eval_qpoly(p, z) / r) <= 1e-9 * scale / r
