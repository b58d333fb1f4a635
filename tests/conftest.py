import numpy as np
import pytest

from quatroots import SimplePolynomial, ZeroSet, ZeroSetDiff
from quatroots.quaternion import I, J, K, ONE, Quaternion

SQRT2_2 = 0.7071067811865476


@pytest.fixture(scope="session")
def cubic_ijk() -> SimplePolynomial:
    """i x^3 + j x^2 + k x + 1: three isolated zeros, no spheres."""
    return SimplePolynomial([ONE, K, J, I])


@pytest.fixture(scope="session")
def cubic_real() -> SimplePolynomial:
    """x^3 + x^2 + x + 1: one real zero and one sphere."""
    return SimplePolynomial([1, 1, 1, 1])


@pytest.fixture(scope="session")
def degree6_mixed() -> SimplePolynomial:
    """z^6 + j z^5 + i z^4 - z^2 - j z - i: reals, isolated and a sphere."""
    return SimplePolynomial([-I, -J, Quaternion(-1.0), Quaternion(), I, J, ONE])


def random_simple_polynomials(count: int, max_degree: int = 8,
                              seed: int = 20260809) -> list[SimplePolynomial]:
    """Random integer-component inputs, the standard stress regime."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        n = int(rng.integers(1, max_degree + 1))
        rows = rng.integers(-5, 6, size=(n + 1, 4))
        while not np.any(rows[-1]):
            rows[-1] = rng.integers(-5, 6, size=4)
        out.append(SimplePolynomial.from_rows(rows))
    return out


@pytest.fixture(scope="session")
def random_corpus() -> list[SimplePolynomial]:
    return random_simple_polynomials(200)


@pytest.fixture(scope="session")
def corpus_solutions(random_corpus):
    """Solve the whole corpus once with all three routes; reused across tests."""
    import time

    from quatroots import solve_companion, solve_discriminant, solve_factored

    t0 = time.perf_counter()
    solved = []
    for p in random_corpus:
        solved.append((p, solve_discriminant(p), solve_factored(p),
                       solve_companion(p)))
    elapsed = time.perf_counter() - t0
    return solved, elapsed


def qapprox(a: Quaternion, b: Quaternion, tol: float = 1e-10) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def sigma(q: Quaternion) -> np.ndarray:
    """Embedding q = z1 + z2*j -> [[z1, z2], [-conj(z2), conj(z1)]], an oracle for q * p."""
    z1, z2 = complex(q.a0, q.a1), complex(q.a2, q.a3)
    return np.array([[z1, z2], [-z2.conjugate(), z1.conjugate()]])


# Reference implementations: the scalar loops the library replaced with
# batched and sorted versions.  The library must agree with them exactly.

def eval_qpoly_reference(p: SimplePolynomial, z: Quaternion) -> Quaternion:
    """p(z) = sum q_j z^j by repeated scalar quaternion multiplication."""
    acc = Quaternion(1.0)
    total = p.coeffs[0]
    for q in p.coeffs[1:]:
        acc = acc * z
        total = total + q * acc
    return total


def greedy_match_reference(left, right, dist, tol):
    """Greedy global-minimum matching by repeated O(nm) search; unmatched items per side."""
    left = list(left)
    right = list(right)
    lu = set(range(len(left)))
    ru = set(range(len(right)))
    while lu and ru:
        best = None
        for i in lu:
            for j in ru:
                d = dist(left[i], right[j])
                if best is None or d < best[0]:
                    best = (d, i, j)
        d, i, j = best
        if d > tol(left[i], right[j]):
            break
        lu.discard(i)
        ru.discard(j)
    return [left[i] for i in sorted(lu)], [right[j] for j in sorted(ru)]


def compare_reference(zs1: ZeroSet, zs2: ZeroSet, tol: float = 1e-6) -> ZeroSetDiff:
    """verify.compare computed with greedy_match_reference."""
    lr, rr = greedy_match_reference(
        zs1.real_zeros, zs2.real_zeros,
        dist=lambda a, b: abs(a - b),
        tol=lambda a, b: tol * max(1.0, abs(a), abs(b)))
    li, ri = greedy_match_reference(
        zs1.isolated_zeros, zs2.isolated_zeros,
        dist=lambda a, b: abs(a - b),
        tol=lambda a, b: tol * max(1.0, abs(a), abs(b)))
    ls, rs = greedy_match_reference(
        zs1.spherical, zs2.spherical,
        dist=lambda a, b: a.distance(b),
        tol=lambda a, b: tol * max(1.0, a.modulus, b.modulus))
    return ZeroSetDiff(
        real=tuple([("left", x) for x in lr] + [("right", x) for x in rr]),
        isolated=tuple([("left", q) for q in li] + [("right", q) for q in ri]),
        spherical=tuple([("left", (c.re, c.modulus)) for c in ls]
                        + [("right", (c.re, c.modulus)) for c in rs]))


def dedup_isolated_reference(isolated, classes, dedup: float = 1e-8):
    """ZeroSet.build's isolated zeros by the O(n^2) scan over every kept zero."""
    iso: list[Quaternion] = []
    for q in sorted(isolated, key=lambda q: q.components()):
        s = max(1.0, abs(q))
        if any(abs(q - r) <= dedup * s for r in iso):
            continue
        if any(c.contains(q, dedup) for c in classes):
            continue
        iso.append(q)
    return tuple(iso)


def poly_call_reference(c: np.ndarray, t):
    """ComplexPolynomial.__call__ as its own Horner loop, before it shared cpoly.horner."""
    if len(c) == 0:
        return np.zeros_like(t, dtype=np.complex128) if isinstance(t, np.ndarray) else 0j
    acc = c[-1] * (np.ones_like(t) if isinstance(t, np.ndarray) else 1.0)
    for k in range(len(c) - 2, -1, -1):
        acc = acc * t + c[k]
    return acc


def _at_reference(c: np.ndarray, eta: complex) -> complex:
    # a one-point array: numpy's vectorized complex product may round its
    # last bit differently from the scalar one, and the solver batches
    return complex(poly_call_reference(c, np.array([eta]))[0])


def is_spherical_root_reference(dp, eta: complex, tol_zero: float = 1e-10) -> bool:
    """is_spherical_root with unscaled values and thresholds tol_zero * max|c|."""
    for c in (dp.f1.c, dp.f2.c, np.conj(dp.f1.c), np.conj(dp.f2.c)):
        scale = float(np.abs(c).max()) if len(c) else 0.0
        if abs(_at_reference(c, eta)) > tol_zero * scale:
            return False
    return True


def isolated_zero_reference(dp, eta: complex) -> Quaternion:
    """isolated_zero with unscaled values and the max(1, |eta|)^n thresholds.

    Raises OverflowError where that power overflows and ValueError where
    both denominators vanish.
    """
    def side_zero(a, b, eta):
        d = abs(a) ** 2 + abs(b) ** 2
        w = (abs(a) ** 2 * eta + abs(b) ** 2 * eta.conjugate()) / d
        cross = (2.0 * b * a.conjugate() * eta.imag) / d
        return Quaternion(w.real, w.imag) + Quaternion(cross.real, cross.imag) * K

    ec = eta.conjugate()
    f1e, f2e = _at_reference(dp.f1.c, eta), _at_reference(dp.f2.c, eta)
    f1c, f2c = _at_reference(dp.f1.c, ec), _at_reference(dp.f2.c, ec)
    dplus = abs(f1e) ** 2 + abs(f2e) ** 2
    dminus = abs(f1c) ** 2 + abs(f2c) ** 2
    scale = max(dp.f1.max_coeff(), dp.f2.max_coeff(), 1.0) * max(1.0, abs(eta)) ** max(
        dp.f1.degree, dp.f2.degree, 1)
    if max(dplus, dminus) <= (1e-30 * scale) ** 2:
        raise ValueError(f"both denominators vanished at {eta}")
    if dplus >= dminus:
        return side_zero(f1e, f2e, ec)
    return side_zero(f1c, f2c, eta)


# The companion route as scalar Quaternion loops, before it ran on component
# arrays: an O(n^2) companion product, the unscaled power decomposition and
# A, B, and one pair at a time.

def companion_reference(p: SimplePolynomial) -> np.ndarray:
    """The real companion coefficients b_k = sum_j conj(q_j) q_(k-j), ascending j."""
    sums = [Quaternion() for _ in range(2 * p.degree + 1)]
    for j, qj in enumerate(p.coeffs):
        cj = qj.conjugate()
        for k, qk in enumerate(p.coeffs):
            sums[j + k] = sums[j + k] + cj * qk
    return np.array([s.a0 for s in sums])


def power_decomp_reference(x: Quaternion, n: int):
    """(alpha, beta) tuples with x^j = alpha_j x + beta_j, j = 0..n."""
    re2 = 2.0 * x.re
    m2 = x.norm_sq()
    alpha = [0.0]
    beta = [1.0]
    for _ in range(n):
        alpha.append(re2 * alpha[-1] + beta[-1])
        beta.append(-m2 * alpha[-2])
    return tuple(alpha), tuple(beta)


def ab_reference(p: SimplePolynomial, z: Quaternion) -> tuple[Quaternion, Quaternion]:
    """Unscaled A(z), B(z) with p(z) = A(z) z + B(z)."""
    alpha, beta = power_decomp_reference(z, p.degree)
    a = Quaternion()
    b = Quaternion()
    for qj, aj, bj in zip(p.coeffs, alpha, beta):
        a = a + qj * aj
        b = b + qj * bj
    return a, b


def solve_companion_reference(p: SimplePolynomial, tols=None) -> ZeroSet:
    """solve_companion with the scalar loops and the unscaled sphere test."""
    from quatroots import Tolerances, classify_real, monic_normalized
    from quatroots.cpoly import ComplexPolynomial
    from quatroots.quaternion import ConjugacyClass, embed_complex
    from quatroots.roots import polished_roots

    tols = tols or Tolerances()
    pm = monic_normalized(p)
    reals, pairs = classify_real(
        polished_roots(ComplexPolynomial(companion_reference(pm))), tols.real)
    isolated, classes = [], []
    for eta, _ in pairs:
        a, b = ab_reference(pm, embed_complex(eta))
        v = a.conjugate() * b
        s = sum(abs(q) * max(1.0, abs(eta)) ** j for j, q in enumerate(pm.coeffs))
        if abs(v) <= tols.zero * s * s:
            classes.append(ConjugacyClass.from_complex(eta))
            continue
        wnorm = v.vec_norm()
        if wnorm <= 1e-300 * abs(v):
            raise RuntimeError(f"nonzero v with vanishing imaginary part at {eta}")
        f = abs(eta.imag) / wnorm
        isolated.append(Quaternion(eta.real, -f * v.a1, -f * v.a2, -f * v.a3))
    return ZeroSet.build([x for x, _ in reals], isolated, classes, tols.dedup)
