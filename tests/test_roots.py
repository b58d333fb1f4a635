import cmath
import functools
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from quatroots import roots as roots_mod
from quatroots.cpoly import BLOCK, ComplexPolynomial, Evaluator
from quatroots.roots import (CLUSTER_REL, DEFAULT_REAL_TOL, NoConvergenceError, RootList,
                             UnpairedRootError, _aberth, _aberth_sums, _cluster, _collisions,
                             _eval_state, _newton_polish, all_roots, classify_real,
                             pair_conjugates, polish_multiples)
from quatroots.solver import (SimplePolynomial, derived, discriminant, normalize,
                              solve_complex_coeffs)

from conftest import (MULTIPLE_ZERO_FAMILIES, aberth_reference, cluster_reference, kernel_value,
                      listed, multiple_zero_inputs, pair_conjugates_reference,
                      polish_multiples_reference, poly_mul, traced_peak)

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


def classified(rl: RootList):
    """classify_real's (reals, pairs) as sorted lists of (value, multiplicity)."""
    return tuple(listed(*part) for part in classify_real(rl))


def paired(roots, *tol_real):
    """pair_conjugates' (reals, pairs, unpaired) as sorted lists of (value, multiplicity)."""
    return tuple(listed(*part) for part in pair_conjugates(roots, *tol_real))


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
            assert sum(m for _, m in rl.roots) == n

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
                assert abs(kernel_value(p.c, v)) <= bound

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


def _gaussian(seed: int, n: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)


def _aberth_corpus():
    """Complex, real and double-root inputs of degree 2 to 300."""
    rng = np.random.default_rng(11)
    out = [np.array([1, 0, 1, 0, -1, 0, -2, 0, -1, 0, 1, 0, 1], dtype=complex)]
    for n in (2, 3, 5, 9, 17, 40, 90, 300):
        g = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
        out += [g, g.real + 0j, np.convolve(g[:n - 1], [0.49, -1.4, 1.0])]
    return out


class TestActiveSetAberth:
    @pytest.mark.parametrize("c", _aberth_corpus(), ids=lambda c: f"n{len(c) - 1}")
    def test_equals_the_full_set_iteration(self, c):
        z, conv, _ = _aberth(c.copy(), Evaluator(c))
        ref_z, ref_conv = aberth_reference(c.copy())
        assert np.array_equal(z, ref_z) and np.array_equal(conv, ref_conv)

    @pytest.mark.parametrize("c", _aberth_corpus(), ids=lambda c: f"n{len(c) - 1}")
    def test_polish_from_the_aberth_state_equals_polish_from_scratch(self, c):
        ev = Evaluator(c)
        z, _, state = _aberth(c.copy(), ev)
        assert all(np.array_equal(a, b) for a, b in zip(state, _eval_state(ev, z)))
        handed = _newton_polish(ev, z, state)
        own = _newton_polish(ev, z, _eval_state(ev, z))
        assert all(np.array_equal(a, b) for a, b in zip(handed, own))

    def test_sums_match_the_full_matrix(self):
        rng = np.random.default_rng(3)
        z = rng.standard_normal(700) + 1j * rng.standard_normal(700)
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, np.inf)
        rows = np.flatnonzero(rng.random(700) < 0.5)
        assert np.array_equal(_aberth_sums(z, rows), (1.0 / diff).sum(axis=1)[rows])

    def test_collisions_match_the_full_matrix(self):
        rng = np.random.default_rng(3)
        z = rng.standard_normal(700) + 1j * rng.standard_normal(700)
        assert _collisions(z).size == 0
        z[[5, 650]] = z[[400, 20]]
        assert _collisions(z).tolist() == [5, 20, 400, 650]

    @given(st.lists(st.sampled_from([0.0, -0.0, 1.0, -2.5, 5e-324, 1e-323, np.inf, -np.inf, np.nan]),
                    min_size=2, max_size=40),
           st.lists(st.sampled_from([0.0, -0.0, 1.0, np.inf, np.nan]), min_size=2, max_size=40))
    def test_collisions_equal_the_difference_scan(self, re, im):
        # few values, so many duplicates; the reference is z_i - z_j == 0 on the full matrix
        z = np.empty(min(len(re), len(im)), dtype=np.complex128)
        z.real, z.imag = re[:len(z)], im[:len(z)]
        with np.errstate(invalid="ignore"):
            diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, np.inf)
        assert _collisions(z).tolist() == np.flatnonzero((diff == 0.0).any(axis=1)).tolist()

    def test_polish_returns_the_residuals_of_its_points(self):
        c = np.convolve([2, -3, 1, 5j, 1], [0.25, -1.0, 1.0]).astype(complex)
        ev = Evaluator(c)
        z, _, state = _aberth(c, ev)
        best, rel = _newton_polish(ev, z, state)
        assert np.array_equal(rel, _eval_state(ev, best)[1])


class TestNoRepeatedWork:
    """One all_roots call evaluates a root again only after it moved, and steps converged
    roots never: the kernel is batch-independent, so a value once computed is reused."""

    INPUTS = {"gaussian-200": _gaussian(200, 200),
              "double-root": np.convolve(_gaussian(40, 39), [1.0, -2.0, 1.0])}

    @pytest.mark.parametrize("name", INPUTS)
    def test_no_point_is_evaluated_twice_in_place(self, monkeypatch, name):
        calls, seen = [], {}
        orig = roots_mod._eval_state

        def spy(ev, z):
            out = orig(ev, z)
            calls.append((np.array(z), out[0]))
            return out
        monkeypatch.setattr(roots_mod, "_eval_state", spy)
        all_roots(ComplexPolynomial(self.INPUTS[name]))
        for k, (z, corr) in enumerate(calls):
            for x, step in zip(z.tolist(), corr.tolist()):
                if x in seen:
                    # a repeat is the polish stepping back: it evaluated x's Newton
                    # successor, which is not x, after the last evaluation of x
                    first, successor = seen[x]
                    assert successor != x and any(
                        successor in calls[j][0].tolist() for j in range(first + 1, k)), x
                seen[x] = (k, x - step)

    def test_the_coefficients_are_arranged_once_per_polynomial(self, monkeypatch):
        # one Evaluator per all_roots call, and in polish_multiples one per distinct
        # multiplicity, not one per entry, evaluation or Newton step
        made = []
        orig = Evaluator.__init__

        def spy(self, c):
            made.append(len(c))
            orig(self, c)
        monkeypatch.setattr(Evaluator, "__init__", spy)
        rl = all_roots(ComplexPolynomial(self.INPUTS["gaussian-200"]))
        assert all(m == 1 for _, m in rl.roots)
        assert made == [201]
        made.clear()
        rl = all_roots(ComplexPolynomial(self.INPUTS["double-root"]))
        multiple = [m for _, m in rl.roots if m >= 2]
        assert multiple == [2] and made == [42, 41]  # p, then p' for the double root
        made.clear()
        p = ComplexPolynomial(np.convolve(self.INPUTS["double-root"], [4.0, 4.0, 1.0]))
        rl = all_roots(p)
        assert sorted(m for _, m in rl.roots if m >= 2) == [2, 2] and made == [44, 43]

    @pytest.mark.parametrize("name", INPUTS)
    def test_sums_cover_only_roots_that_then_step(self, monkeypatch, name):
        # a converged root is frozen, so every row handed to _aberth_sums moves before the next
        calls = []
        orig_sums, orig_polish = roots_mod._aberth_sums, roots_mod._newton_polish

        def spy_sums(z, rows):
            calls.append((z.copy(), rows.copy()))
            return orig_sums(z, rows)

        def spy_polish(ev, z, *args, **kwargs):
            calls.append((z.copy(), None))
            return orig_polish(ev, z, *args, **kwargs)
        monkeypatch.setattr(roots_mod, "_aberth_sums", spy_sums)
        monkeypatch.setattr(roots_mod, "_newton_polish", spy_polish)
        all_roots(ComplexPolynomial(self.INPUTS[name]))
        assert len(calls) > 2 and calls[-1][1] is None
        for (z, rows), (later, _) in zip(calls, calls[1:]):
            assert np.all(later[rows] != z[rows])


class TestAcceptance:
    def test_unconverged_payload_is_the_residual_of_p(self, monkeypatch):
        # two roots at the origin are stripped, yet the payload evaluates p, as the
        # acceptance check does, not the stripped polynomial
        p = ComplexPolynomial(np.concatenate([[0, 0], _gaussian(9, 8)]))
        monkeypatch.setattr(roots_mod, "MAX_ITERATIONS", 1)
        monkeypatch.setattr(roots_mod, "_newton_polish",
                            functools.partial(roots_mod._newton_polish, steps=0))
        with pytest.raises(NoConvergenceError, match="unconverged") as info:
            all_roots(p)
        err = info.value
        assert len(err.roots) == 8
        want = np.abs(Evaluator(p.c)(np.array(err.roots))[0])
        assert np.array_equal(err.residuals, want)
        stripped = np.abs(Evaluator(p.c[2:])(np.array(err.roots))[0])
        assert not np.allclose(want, stripped)

    @pytest.mark.parametrize("c", [_aberth_corpus()[i] for i in (0, 16, 20)],
                             ids=lambda c: f"n{len(c) - 1}")
    def test_a_failed_check_reports_every_cluster(self, monkeypatch, c):
        # a bound between the clusters' residuals: lone roots the polish vouches for,
        # and ones it cannot, are all in the payload
        p = ComplexPolynomial(c)
        # the payload holds the clusters before polish_multiples refines them
        monkeypatch.setattr(roots_mod, "polish_multiples", lambda p, rl: rl)
        rl = all_roots(p)
        values = np.array([v for v, _ in rl.roots])
        residuals = np.abs(Evaluator(p.c)(values)[0])
        monkeypatch.setattr(roots_mod, "RESIDUAL_REL", float(np.median(residuals)) / p.max_coeff())
        with pytest.raises(NoConvergenceError, match="acceptance") as info:
            all_roots(p)
        assert np.array_equal(info.value.roots, values)
        assert np.array_equal(info.value.residuals, residuals)


class TestFShapeNonnegativity:
    def test_product_with_conjugate_is_nonnegative_on_reals(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            n = int(rng.integers(1, 11))
            f = ComplexPolynomial(rng.standard_normal(n + 1)
                                  + 1j * rng.standard_normal(n + 1))
            p = discriminant((f, ComplexPolynomial()))
            ts = rng.uniform(-3, 3, size=100)
            vals = np.array([kernel_value(p.c, t).real for t in ts])
            scales = np.array(
                [sum(abs(ck) * abs(t) ** k for k, ck in enumerate(p.c)) for t in ts])
            assert np.all(vals >= -1e-8 * np.maximum(scales, 1.0))


class TestClassifyReal:
    def test_double_real_and_simple_pair(self):
        # (t-1)^2 (t^2+1)
        p = ComplexPolynomial([1, -2, 2, -2, 1])
        reals, pairs = classified(all_roots(p))
        assert len(reals) == 1 and reals[0][1] == 2
        assert abs(reals[0][0] - 1) <= 1e-6
        assert len(pairs) == 1 and pairs[0][1] == 1
        assert abs(pairs[0][0] - 1j) <= 1e-10

    def test_squared_cubic(self):
        # (t^3+t^2+t+1)^2: double real at -1 and a double pair at i
        p = ComplexPolynomial([1, 2, 3, 4, 3, 2, 1])
        reals, pairs = classified(all_roots(p))
        assert len(reals) == 1 and reals[0][1] == 2
        assert abs(reals[0][0] + 1) <= 1e-6
        assert len(pairs) == 1 and pairs[0][1] == 2
        assert abs(pairs[0][0] - 1j) <= 1e-6

    def test_machine_root_table(self):
        values, mult = _cluster(np.array(TABLE_ROOTS, dtype=complex), np.zeros(len(TABLE_ROOTS)))
        rl = RootList(tuple(listed(values, mult)))
        reals, pairs = classified(rl)
        assert [(round(x, 6), m) for x, m in reals] == [(-1.0, 2), (1.0, 2)]
        expected_pairs = [(-0.5 + 0.866025403784j, 1), (0j + 1j, 2),
                          (0.5 + 0.866025403784j, 1)]
        assert len(pairs) == 3
        for (eta, m), (exp, em) in zip(pairs, expected_pairs):
            assert abs(eta - exp) <= 1e-8
            assert m == em

    def test_pairs_have_positive_imaginary(self):
        p = ComplexPolynomial([5, 0, 1, 0, 1])
        _, pairs = classified(all_roots(p))
        assert all(eta.imag > 0 for eta, _ in pairs)

    def test_unpaired_root_raises(self):
        rl = RootList(((1 + 1j, 1),))
        with pytest.raises(UnpairedRootError):
            classify_real(rl)

    def test_leftover_below_the_axis_raises(self):
        rl = RootList(((1 + 1j, 1), (1 - 1j, 1), (3 - 2j, 1)))
        with pytest.raises(UnpairedRootError):
            classify_real(rl)


class TestClassifyRealAtTheThreshold:
    # classify_real reads the real threshold roots.DEFAULT_REAL_TOL
    def test_imaginary_part_below_it_is_real(self):
        reals, pairs = classified(RootList(((complex(2.0, 0.5 * DEFAULT_REAL_TOL), 3),)))
        assert reals == [(2.0, 3)] and pairs == []

    def test_imaginary_part_above_it_needs_a_partner(self):
        with pytest.raises(UnpairedRootError):
            classify_real(RootList(((complex(2.0, 2 * DEFAULT_REAL_TOL), 1),)))

    def test_imaginary_part_above_it_pairs_with_its_conjugate(self):
        eta = complex(2.0, 2 * DEFAULT_REAL_TOL)
        reals, pairs = classified(RootList(((eta.conjugate(), 1), (eta, 1))))
        assert reals == [] and pairs == [(eta, 1)]


class TestPairConjugates:
    def test_complex_coefficients_keep_unpaired_roots(self):
        # (t - i)(t - 2)(t^2 + 4): the root i has no conjugate twin
        p = poly_mul(poly_mul(ComplexPolynomial([-1j, 1]), ComplexPolynomial([-2, 1])),
                     ComplexPolynomial([4, 0, 1]))
        reals, pairs, unpaired = paired(all_roots(p).roots)
        assert len(reals) == 1 and abs(reals[0][0] - 2) <= 1e-10
        assert len(pairs) == 1 and abs(pairs[0][0] - 2j) <= 1e-10
        assert len(unpaired) == 1 and abs(unpaired[0][0] - 1j) <= 1e-10

    def test_unpaired_values_are_returned_as_found(self):
        roots = ((0.5 - 3j, 2), (1 + 1j, 1), (1 - 1j, 1))
        _, pairs, unpaired = paired(roots)
        assert pairs == [(1 + 1j, 1)]
        assert unpaired == [(0.5 - 3j, 2)]

    def test_pair_carries_the_larger_multiplicity(self):
        roots = ((2 + 1j, 1), (2 - 1j, 3))
        assert paired(roots)[1] == [(2 + 1j, 3)]
        assert paired(roots[::-1])[1] == [(2 + 1j, 3)]

    def test_pair_is_averaged_across_the_axis(self):
        _, pairs, _ = paired(((1 + 1e-7 + 1j, 1), (1 - (1 + 2e-7) * 1j, 1)))
        assert len(pairs) == 1
        assert abs(pairs[0][0] - (1 + 5e-8 + (1 + 1e-7) * 1j)) <= 1e-15

    def test_same_half_plane_never_pairs(self):
        # conj(z) is within tol_real * (1 + |z|) of w, but both lie above the axis
        z, w = 100 + 1e-5j, 100 + 2e-5j
        assert abs(w - z.conjugate()) <= 1e-5 * (1 + abs(z))
        _, pairs, unpaired = paired(((z, 1), (w, 1)))
        assert pairs == []
        assert unpaired == [(z, 1), (w, 1)]

    def test_each_partner_is_used_once(self):
        roots = ((1 + 1j, 1), (1 + 1j + 1e-9, 1), (1 - 1j, 1))
        _, pairs, unpaired = paired(roots)
        assert len(pairs) == 1 and len(unpaired) == 1

    def test_near_real_roots_snap_to_real(self):
        reals, pairs, unpaired = paired(((3 + 1e-6j, 2), (-1 - 1e-7j, 1)))
        assert reals == [(-1.0, 1), (3.0, 2)]
        assert pairs == [] and unpaired == []


def double_polished(p: ComplexPolynomial, z0: complex) -> complex:
    """polish_multiples on a single double root z0 of p."""
    return polish_multiples(p, RootList(((z0, 2),))).roots[0][0]


def _clusters(p: ComplexPolynomial) -> RootList:
    """all_roots(p) before polish_multiples refines it."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(roots_mod, "polish_multiples", lambda p, rl: rl)
        return all_roots(p)


def _polishes_as_alone(p: ComplexPolynomial, rl: RootList) -> None:
    # values (signed zeros included), multiplicities and order
    assert repr(polish_multiples(p, rl).roots) == repr(polish_multiples_reference(p, rl).roots)


class TestGroupedPolish:
    """polish_multiples runs one Newton loop per multiplicity, and each entry in it stops at
    the step where it would stop alone: the per-entry loop (conftest) bit for bit."""

    @pytest.mark.parametrize("c", _aberth_corpus(), ids=lambda c: f"n{len(c) - 1}")
    def test_on_the_aberth_corpus(self, c):
        p = ComplexPolynomial(c)
        _polishes_as_alone(p, _clusters(p))

    @pytest.mark.parametrize("family", MULTIPLE_ZERO_FAMILIES)
    def test_on_the_discriminants_of_multiple_zero_inputs(self, family):
        inputs = multiple_zero_inputs(family, 20, np.random.default_rng(29))
        for p, _ in inputs:
            d = discriminant(derived(normalize(p)))
            _polishes_as_alone(d, _clusters(d))

    def test_two_entries_of_one_multiplicity_stop_at_their_own_steps(self, monkeypatch):
        # (x - 1)^2 (x + 2)^2 (x - 3) from starts whose Newton runs take different step counts
        p = poly_mul(poly_mul(ComplexPolynomial([1, -2, 1]), ComplexPolynomial([4, 4, 1])),
                     ComplexPolynomial([-3, 1]))
        rl = RootList(((1.0 + 3e-4j, 2), (-2.0 + 1e-9, 2), (3.0, 1)))
        steps = []
        orig = roots_mod._eval_state

        def spy(ev, z):
            steps.append(len(z))
            return orig(ev, z)
        monkeypatch.setattr(roots_mod, "_eval_state", spy)
        got = polish_multiples(p, rl)
        # one loop for both, and one entry steps on after the other froze
        assert steps[0] == 2 and steps[-1] == 1
        assert abs(got.roots[0][0] - 1.0) <= 1e-12 and abs(got.roots[1][0] + 2.0) <= 1e-12
        _polishes_as_alone(p, rl)


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

    def test_polish_multiples_only_touches_multiples(self, monkeypatch):
        p = poly_mul(ComplexPolynomial([1, -2, 1]), ComplexPolynomial([-3, 1]))
        monkeypatch.setattr(roots_mod, "polish_multiples", lambda p, rl: rl)
        rl = all_roots(p)
        polished = polish_multiples(p, rl)
        assert sum(m for _, m in polished.roots) == sum(m for _, m in rl.roots) == 3
        for (v, m), (w, m2) in zip(rl.roots, polished.roots):
            assert m == m2
            if m == 1:
                assert v == w

    def test_all_roots_returns_its_clusters_polished(self, monkeypatch):
        p = poly_mul(ComplexPolynomial([1, 0, 2, 0, 1]), ComplexPolynomial([-3, 1]))
        polished = all_roots(p)
        monkeypatch.setattr(roots_mod, "polish_multiples", lambda p, rl: rl)
        raw = all_roots(p)
        assert polished == polish_multiples(p, raw) != raw
        assert sorted(m for _, m in polished.roots) == [1, 2, 2]


# Parts of either sign of zero and a coarse grid: well-separated points, exact duplicates
# and values whose sums and means keep or lose a -0.0.
_parts = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5]),
                   st.integers(-12, 12).map(lambda k: 0.37 * k))
# along an axis a point one reach away is often exactly one radius away
_directions = st.sampled_from([1, -1, 1j, -1j]) | st.floats(0.0, 2.0 * math.pi).map(
    lambda a: cmath.exp(1j * a))


def _near(draw, z: complex, reach: float) -> complex:
    """z moved by a drawn multiple of reach, just inside, on or just outside it: an exact copy
    (keeping z's zeros), or 0.5, 0.999, 1, 1.001, 2 or 40 reaches away."""
    f = draw(st.sampled_from([None, 0.5, 0.999, 1.0, 1.001, 2.0, 40.0]))
    return z if f is None else z + f * reach * draw(_directions)


@st.composite
def _cluster_cases(draw):
    """(points, radii): grid centres, each with 0-3 satellites near its merge radius, shuffled,
    and either zero stall radii or some that enlarge the merge radius."""
    pts = []
    for _ in range(draw(st.integers(0, 10))):
        z = complex(draw(_parts), draw(_parts))
        pts.append(z)
        pts += [_near(draw, z, CLUSTER_REL * (1.0 + abs(z))) for _ in range(draw(st.integers(0, 3)))]
    pts = np.array(draw(st.permutations(pts)), dtype=np.complex128)
    stall = st.sampled_from([0.0, 1e-7, 3e-6, 1e-4])
    radii = draw(st.just(np.zeros(len(pts)))
                 | st.lists(stall, min_size=len(pts), max_size=len(pts)).map(np.array))
    return pts, radii


@st.composite
def _root_cases(draw):
    """(roots, tol_real): lone roots, near-real roots, conjugate pairs whose partner lies just
    inside or outside tol_real, and two roots above the axis that share one nearest partner;
    sometimes with one half-plane emptied."""
    tol = draw(st.sampled_from([1e-5, 1e-3, 0.2]))
    vals = []
    for _ in range(draw(st.integers(0, 8))):
        z = complex(draw(_parts), abs(draw(_parts)) + 0.5)
        kind = draw(st.sampled_from(["lone", "real", "pair", "shared"]))
        reach = tol * (1.0 + abs(z))
        if kind == "real":
            vals.append(complex(z.real, draw(st.sampled_from([0.0, -0.0, 0.5, -0.5])) * tol))
        elif kind == "shared":  # both above the axis, the first drawn at z
            vals += [z, _near(draw, z, 1e-3 * reach), _near(draw, z.conjugate(), reach)]
        else:
            vals += [z] + ([_near(draw, z.conjugate(), reach)] if kind == "pair" else [])
    side = draw(st.sampled_from(["both", "upper", "lower"]))
    vals = [v for v in vals if side == "both" or (v.imag > 0) == (side == "upper")]
    mult = draw(st.lists(st.integers(1, 3), min_size=len(vals), max_size=len(vals)))
    return draw(st.permutations(list(zip(vals, mult)))), tol


class TestArrayClustering:
    """_cluster and pair_conjugates are array code; the scalar loops they replaced are the
    references, and every value, multiplicity, sign of zero and position must be theirs."""

    @given(_cluster_cases())
    def test_cluster_equals_the_greedy_loop(self, case):
        pts, radii = case
        got, want = listed(*_cluster(pts.copy(), radii)), cluster_reference(pts.copy(), radii)
        assert got == want and repr(got) == repr(want)

    @given(_root_cases())
    # the partner lies on the edge of the reach, where np.abs(z) and abs(z) differ by one ulp
    @example(([(0.37 + 3.46j, 1), (1.265945400157225 - 3.46j, 1)], 0.2))
    def test_pairing_equals_the_greedy_loop(self, case):
        roots, tol = case
        got, want = paired(roots, tol), pair_conjugates_reference(roots, tol)
        assert got == want and repr(got) == repr(want)

    def test_a_shared_partner_goes_to_the_earlier_root(self):
        # both roots above the axis are nearest to 1 - 1j; the first in order takes it, and
        # the second then pairs with its next nearest, 1 - 1.000004j
        roots = [(1 + 1.0000012j, 1), (1 + 1j, 2), (1 - 1j, 1), (1 - 1.000004j, 3)]
        for order, means, mult in ((roots, [1.0000006, 1.000002], [1, 3]),
                                   (roots[1::-1] + roots[2:], [1.0, 1.0000026], [2, 3])):
            got = paired(order)
            assert got == pair_conjugates_reference(order) and got[2] == []
            assert np.allclose([v.imag for v, _ in got[1]], means, rtol=0, atol=1e-15)
            assert [m for _, m in got[1]] == mult

    @pytest.mark.parametrize("size", [2, 3, 7, 16, 33, 64])
    def test_chained_means_are_the_loop_sums_bit_for_bit(self, size):
        # == equates -0.0 and 0.0, so compare bytes: two chains of size points, each linked to
        # its neighbours only, one on the real axis through -0.0 - 0.0j with imaginary parts
        # -0.0, one off it; each mean is 0 + z_1 + z_2 + ... over the sorted members
        rng = np.random.default_rng(size)
        t, h = np.arange(size) - size // 2, 0.6 * CLUSTER_REL
        axis = np.array([complex(x, -0.0) for x in (t * h).tolist()])
        axis[size // 2] = complex(-0.0, -0.0)
        off = (1 + 2j) + (t + 1j * rng.uniform(-0.1, 0.1, size)) * h * (1.0 + abs(1 + 2j))
        pts = rng.permutation(np.concatenate([axis, off]))
        means, mult = _cluster(pts.copy(), np.zeros(len(pts)))
        want = cluster_reference(pts.copy(), np.zeros(len(pts)))
        assert means.tobytes() == np.array([v for v, _ in want], dtype=complex).tobytes()
        assert mult.tolist() == [m for _, m in want] == [size, size]

    def test_a_point_exactly_on_the_merge_radius_merges(self):
        h = 2.0**-10
        pts = np.array([complex(3.0, h), 0.5, 3.0, 0.5 + h])  # gaps of exactly h
        radii = np.full(4, h)
        assert listed(*_cluster(pts, radii)) == cluster_reference(pts, radii) == [
            (0.5 + h / 2, 2), (complex(3.0, h / 2), 2)]

    def test_empty_input(self):
        empty = np.zeros(0, dtype=np.complex128)
        assert listed(*_cluster(empty, empty.real)) == cluster_reference(empty, empty.real) == []
        assert paired([]) == pair_conjugates_reference([]) == ([], [], [])
        # the empty arrays keep their kinds: float reals, complex pairs and leftovers
        assert [v.dtype for v, _ in pair_conjugates([])] == [np.float64, np.complex128,
                                                             np.complex128]

    @pytest.mark.parametrize("c", _aberth_corpus(), ids=lambda c: f"n{len(c) - 1}")
    def test_the_aberth_corpus(self, monkeypatch, c):
        # the points and stall radii all_roots clusters, and the pairing of its clusters
        seen = []

        def spy(points, radii):
            seen.append(_cluster(points.copy(), radii))
            assert listed(*seen[-1]) == cluster_reference(points.copy(), radii)
            return seen[-1]
        monkeypatch.setattr(roots_mod, "_cluster", spy)
        rl = all_roots(ComplexPolynomial(c))
        assert len(seen) == 1
        assert paired(rl.roots) == pair_conjugates_reference(rl.roots)


class TestTransientMemory:
    """The Aberth sums work in one buffer, and pairing in blocks: no temporary outgrows BLOCK."""

    def test_the_sums_take_one_block(self):
        rng = np.random.default_rng(5)
        z = rng.standard_normal(800) + 1j * rng.standard_normal(800)
        rows = np.arange(800)
        # one BLOCK of complex128, numpy's iterator buffers (two operands of getbufsize()
        # entries) and O(rows); a fresh matrix and its reciprocal per block took 2.35 MB
        bound = BLOCK * 16 + 2 * np.getbufsize() * 16 + 32 * len(rows)
        assert traced_peak(lambda: _aberth_sums(z, rows)) <= bound

    def test_a_degree_800_solve_peaks_below_the_two_matrix_sums(self):
        # 2.54 MB on this input with a matrix and its reciprocal per sums block
        rng = np.random.default_rng(800)
        rows = np.zeros((801, 4))
        rows[:, :2] = rng.standard_normal((801, 2))
        p = SimplePolynomial.from_rows(rows)
        assert traced_peak(lambda: solve_complex_coeffs(p)) <= 2.42e6
