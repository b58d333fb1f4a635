import tracemalloc

import numpy as np
import pytest

from quatroots import SimplePolynomial, ZeroSet
from quatroots.cpoly import BLOCK, ComplexPolynomial, Evaluator
from quatroots.quaternion import Quaternion, hamilton, rows
from quatroots.roots import CLUSTER_REL, DEFAULT_REAL_TOL
from quatroots.solver import _side_values
from quatroots.verify import ZeroSetDiff, _eval_rows

SQRT2_2 = 0.7071067811865476
ONE = Quaternion(1.0)
I = Quaternion(0.0, 1.0)
J = Quaternion(0.0, 0.0, 1.0)
K = Quaternion(0.0, 0.0, 0.0, 1.0)


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


def cli_compare_inputs(seed: int, pids):
    """The sphere and double inputs with these pids of the cli-compare benchmark pool for seed,
    with the zero put into each: {pid: (SimplePolynomial, injected)}.

    Replays the pool's draws (perfbench/problems.py): slot i has family
    (general, sphere, double, complex)[i % 4] and degree 8 + 17 i % 41, a
    sphere input is a Gaussian base times x^2 - 2a x + (a^2 + b^2), and a
    double input one times (x - a)^2.  injected is a for a double input, and
    the sphere's (Re, modulus), (a, hypot(a, b)), for a sphere input.
    """
    rng = np.random.default_rng(seed)
    out = {}
    for i in range(max(pids) + 1):
        family, degree = ("general", "sphere", "double", "complex")[i % 4], 8 + 17 * i % 41
        if family in ("general", "complex"):
            rng.standard_normal((degree + 1, 4))
            continue
        base = rng.standard_normal((degree - 1, 4))
        a = rng.uniform(-1.0, 1.0)
        factor, injected = [a * a, -2.0 * a, 1.0], float(a)
        if family == "sphere":
            b = rng.uniform(0.5, 1.5)
            factor[0] += b * b
            injected = (float(a), float(np.hypot(a, b)))
        if i in pids:
            out[i] = (SimplePolynomial.from_rows(
                np.stack([np.convolve(base[:, k], factor) for k in range(4)], axis=1)), injected)
    return out


MULTIPLE_ZERO_FAMILIES = ("double", "triple", "sphere2")


def multiple_zero_inputs(family: str, count: int, rng: np.random.Generator):
    """count inputs of a multiple-zero family from rng, as (SimplePolynomial, injected) pairs.

    Each input is a Gaussian base times a real factor: (x - r)^2 (double), (x - r)^3
    (triple) or s(x)^2 with s = x^2 - 2r x + (r^2 + b^2) (sphere2).  It draws the degree
    n from 9..44, then r uniform in [-1, 1], then, for sphere2 only, b uniform in
    [0.5, 1.5], then the base rows.  injected is r, or the sphere's (Re, modulus).
    """
    out = []
    for _ in range(count):
        n = int(rng.integers(9, 45))
        r = float(rng.uniform(-1.0, 1.0))
        if family == "sphere2":
            b = float(rng.uniform(0.5, 1.5))
            s = [r * r + b * b, -2.0 * r, 1.0]
            factor, injected = np.convolve(s, s), (r, float(np.hypot(r, b)))
        else:
            factor, injected = np.ones(1), r
            for _ in range(("double", "triple").index(family) + 2):
                factor = np.convolve(factor, [-r, 1.0])
        base = rng.standard_normal((n - len(factor) + 2, 4))
        rows = np.stack([np.convolve(base[:, k], factor) for k in range(4)], axis=1)
        out.append((SimplePolynomial.from_rows(rows), injected))
    return out


def reports_injected_once(zs: ZeroSet, injected, tol: float = 1e-6) -> bool:
    """Whether zs holds the injected real zero, or sphere (Re, modulus), exactly once within
    tol (times max(1, modulus) for a sphere)."""
    if isinstance(injected, tuple):
        re, mod = injected
        near = tol * max(1.0, mod)
        return sum(abs(c.re - re) <= near and abs(c.modulus - mod) <= near
                   for c in zs.spherical) == 1
    return sum(abs(x - injected) <= tol for x in zs.real_zeros) == 1


def traced_peak(f) -> int:
    """tracemalloc's peak in bytes over one call of f, after one warm-up call."""
    f()
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def qapprox(a: Quaternion, b: Quaternion, tol: float = 1e-10) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def eval_qpoly(p: SimplePolynomial, z: Quaternion) -> Quaternion:
    """p(z) = sum q_j z^j by audit's evaluator, verify._eval_rows, on the one row z."""
    return Quaternion(*_eval_rows(p, rows([z]))[0].tolist())


def residual_limit_reference(p: SimplePolynomial, z: Quaternion, accept: float) -> float:
    """audit's acceptance bound accept * sum|q_i| * max(1, |z|)^degree, from scalars."""
    return accept * sum(abs(q) for q in p.coeffs) * max(1.0, abs(z)) ** p.degree


def side_values(pair, eta):
    """The values argument of is_spherical_root and isolated_zero: f1, f2 at eta and conj(eta)."""
    eta = np.asarray(eta, dtype=np.complex128)
    return _side_values(pair, np.stack([eta, eta.conj()]))


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


def normalize_reference(p: SimplePolynomial) -> tuple[tuple[Quaternion, ...], int]:
    """(p_1 .. p_n, d0) of solver.normalize by scalar products inv * q."""
    q0 = p.coeffs[0]
    if abs(q0) <= 1e-30 * max(abs(q) for q in p.coeffs):
        return p.coeffs[1:], 0
    inv = q0.inverse()
    return tuple(inv * q for q in p.coeffs[1:]), 1


def derived_reference(coeffs, d0: int) -> tuple[list[complex], list[complex]]:
    """Coefficients of f1 and f2 of solver.derived by splitting each p_k."""
    z1s, z2s = [complex(d0)], [0j]
    for q in coeffs:
        z1s.append(complex(q.a0, q.a1))
        z2s.append(complex(q.a2, q.a3))
    return z1s, z2s


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


def poly_mul(p: ComplexPolynomial, q: ComplexPolynomial) -> ComplexPolynomial:
    """p * q as the ComplexPolynomial product operator formed it: np.convolve, trimmed."""
    if p.is_zero or q.is_zero:
        return ComplexPolynomial()
    return ComplexPolynomial(np.convolve(p.c, q.c))


def poly_add(p: ComplexPolynomial, q: ComplexPolynomial) -> ComplexPolynomial:
    """p + q as the ComplexPolynomial sum operator formed it: the shorter padded, trimmed."""
    a, b = (p.c, q.c) if len(p.c) >= len(q.c) else (q.c, p.c)
    out = a.copy()
    out[: len(b)] += b
    return ComplexPolynomial(out)


def horner_reference(c: np.ndarray, z: np.ndarray):
    """p(z), p'(z) and sum_k |c_k||z|^k by the Horner loop the evaluation kernel replaced."""
    p = np.full_like(z, c[-1])
    dp = np.zeros_like(z)
    az = np.abs(z)
    maj = np.full(z.shape, abs(c[-1]))
    for k in range(len(c) - 2, -1, -1):
        dp = dp * z + p
        p = p * z + c[k]
        maj = maj * az + abs(c[k])
    return p, dp, maj


def forward_sums(c: np.ndarray, u: np.ndarray):
    """(p, p', majorant) of c read at every point u, |u| > 1 included, by the evaluation
    kernel (Evaluator.sums with no reversed points), each of shape c.shape[1:] + u.shape."""
    out = Evaluator(c).sums(u, len(u))
    return tuple(v.reshape(c.shape[1:] + u.shape) for v in (out[0], out[1], out[2].real))


def power_matrix_reference(c: np.ndarray, u: np.ndarray):
    """The evaluation kernel before its baby and giant steps: the whole power matrix
    u_i^k, BLOCK // (n + 1) points at a time, read by einsum contractions."""
    n = len(c) - 1
    rows = c.reshape(n + 1, -1).T
    terms = (rows, rows[:, 1:] * np.arange(1, n + 1), np.abs(rows))
    out = np.empty((3, len(rows), len(u)), dtype=np.complex128)
    step = max(1, BLOCK // (n + 1))
    for blk in (slice(s, s + step) for s in range(0, len(u), step)):
        pw = np.full((len(u[blk]), n + 1), u[blk, None], dtype=np.complex128)
        pw[:, 0] = 1.0
        np.cumprod(pw, axis=1, out=pw)
        for res, pws, coef in zip(out, (pw, pw[:, :n], np.abs(pw)), terms):
            for j, cj in enumerate(coef):
                res[j, blk] = np.einsum("ik,k->i", pws, cj)
    return tuple(v.reshape(c.shape[1:] + u.shape) for v in (out[0], out[1], out[2].real))


def aberth_reference(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """roots._aberth evaluating every root and forming the n x n sums at every step."""
    from quatroots.roots import MAX_ITERATIONS, STEP_REL, _EPS, _GOLDEN_ANGLE
    from quatroots.roots import _eval_state, _initial_guesses

    ev = Evaluator(c)
    z = _initial_guesses(c)
    n = len(z)
    converged = np.zeros(n, dtype=bool)
    noise = 4.0 * len(c) * _EPS
    for _ in range(MAX_ITERATIONS):
        corr, rel = _eval_state(ev, z)
        converged |= rel <= noise
        if converged.all():
            break
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, np.inf)
        collide = np.abs(diff) == 0.0
        if collide.any():
            hit = np.unique(np.nonzero(collide)[0])
            z[hit] += 1e-8 * (1.0 + np.abs(z[hit])) * np.exp(1j * _GOLDEN_ANGLE * (1 + hit))
            continue
        s = (1.0 / diff).sum(axis=1)
        w = corr / (1.0 - corr * s)
        bad = ~np.isfinite(w)
        w[bad] = corr[bad]
        active = ~converged
        z[active] -= w[active]
        converged[active] |= np.abs(w[active]) <= STEP_REL * (1.0 + np.abs(z[active]))
        if converged.all():
            break
    return z, converged


def cluster_reference(points: np.ndarray, radii: np.ndarray) -> list[tuple[complex, int]]:
    """roots._cluster as the scalar loops it replaced: greedy single-linkage merge of points
    closer than their merge radii, the larger of CLUSTER_REL*(1+|z|) and the caller's radii.
    """
    m = len(points)
    radii = np.maximum(CLUSTER_REL * (1.0 + np.abs(points)), radii)
    order = np.lexsort((points.imag, points.real))
    pts = points[order]
    rads = radii[order]
    parent = list(range(m))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    band = float(rads.max()) if m else 0.0
    for i in range(m):
        for j in range(i + 1, m):
            if pts[j].real - pts[i].real > band:
                break
            if abs(pts[i] - pts[j]) <= max(rads[i], rads[j]):
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[rj] = ri
    groups: dict[int, list[complex]] = {}
    for i in range(m):
        groups.setdefault(find(i), []).append(complex(pts[i]))
    out = [(sum(g) / len(g), len(g)) for g in groups.values()]
    out.sort(key=lambda rm: (rm[0].real, rm[0].imag))
    return out


def pair_conjugates_reference(roots, tol_real: float = DEFAULT_REAL_TOL):
    """roots.pair_conjugates as the per-root loop it replaced: split (value, multiplicity)
    roots into reals, conjugate pairs and the rest.

    Roots with |Im| < tol_real snap to their real part.  Each root above the
    real axis pairs with the nearest unused root below it whose conjugate
    lies within tol_real*(1+|z|); the pair is averaged to (z + conj(z'))/2,
    reported once with positive imaginary part, and carries the larger
    multiplicity.  Roots left without a partner are returned as found.

    Returns (reals, pairs, unpaired), each a sorted list of (value, m).
    """
    reals: list[tuple[float, int]] = []
    pos: list[tuple[complex, int]] = []
    neg: list[tuple[complex, int]] = []
    for z, m in roots:
        if abs(z.imag) < tol_real:
            reals.append((z.real, m))
        elif z.imag > 0:
            pos.append((z, m))
        else:
            neg.append((z, m))
    pairs: list[tuple[complex, int]] = []
    unpaired: list[tuple[complex, int]] = []
    targets = np.array([v.conjugate() for v, _ in neg], dtype=np.complex128)
    used = np.zeros(len(neg), dtype=bool)
    for z, m in pos:
        dist = np.abs(targets - z)
        dist[used] = np.inf
        j = int(dist.argmin()) if len(dist) else -1
        if j < 0 or dist[j] > tol_real * (1.0 + abs(z)):
            unpaired.append((z, m))
            continue
        used[j] = True
        eta = 0.5 * (z + targets[j])
        pairs.append((complex(eta.real, abs(eta.imag)), max(m, neg[j][1])))
    unpaired.extend(neg[j] for j in np.nonzero(~used)[0])
    reals.sort(key=lambda rm: rm[0])
    pairs.sort(key=lambda pm: (pm[0].real, pm[0].imag))
    unpaired.sort(key=lambda pm: (pm[0].real, pm[0].imag))
    return reals, pairs, unpaired


def kernel_value(c: np.ndarray, t):
    """p(t), unscaled, by the evaluation kernel on the unpadded coefficients c (the
    zero polynomial if empty); t a scalar or an array."""
    c = c if len(c) else np.zeros(1, dtype=np.complex128)
    return forward_sums(c, np.ravel(t))[0].reshape(np.shape(t))[()]


def is_spherical_root_reference(pair, eta: complex, tol_zero: float = 1e-10) -> bool:
    """is_spherical_root with unscaled values and thresholds tol_zero * max|c|."""
    f1, f2 = pair
    for c in (f1.c, f2.c, np.conj(f1.c), np.conj(f2.c)):
        scale = float(np.abs(c).max()) if len(c) else 0.0
        if abs(kernel_value(c, eta)) > tol_zero * scale:
            return False
    return True


def isolated_zero_reference(pair, eta: complex) -> Quaternion:
    """isolated_zero with unscaled values and the max(1, |eta|)^n thresholds.

    Raises OverflowError where that power overflows and ValueError where
    both denominators vanish.
    """
    def side_zero(a, b, eta):
        d = abs(a) ** 2 + abs(b) ** 2
        w = (abs(a) ** 2 * eta + abs(b) ** 2 * eta.conjugate()) / d
        cross = (2.0 * b * a.conjugate() * eta.imag) / d
        return Quaternion(w.real, w.imag) + Quaternion(cross.real, cross.imag) * K

    f1, f2 = pair
    ec = eta.conjugate()
    f1e, f2e = complex(kernel_value(f1.c, eta)), complex(kernel_value(f2.c, eta))
    f1c, f2c = complex(kernel_value(f1.c, ec)), complex(kernel_value(f2.c, ec))
    dplus = abs(f1e) ** 2 + abs(f2e) ** 2
    dminus = abs(f1c) ** 2 + abs(f2c) ** 2
    scale = max(f1.max_coeff(), f2.max_coeff(), 1.0) * max(1.0, abs(eta)) ** max(
        f1.degree, f2.degree, 1)
    if max(dplus, dminus) <= (1e-30 * scale) ** 2:
        raise ValueError(f"both denominators vanished at {eta}")
    if dplus >= dminus:
        return side_zero(f1e, f2e, ec)
    return side_zero(f1c, f2c, eta)


# The companion route as scalar Quaternion loops, before it ran on component
# arrays: an O(n^2) companion product, the unscaled power decomposition and
# A, B, and one pair at a time.

def companion_reference(p) -> np.ndarray:
    """The real companion coefficients b_k = sum_j conj(q_j) q_(k-j), ascending j, of a
    SimplePolynomial or of (n + 1, 4) component rows."""
    qs = [Quaternion(*row) for row in np.asarray(getattr(p, "rows", p)).tolist()]
    sums = [Quaternion() for _ in range(2 * len(qs) - 1)]
    for j, qj in enumerate(qs):
        cj = qj.conjugate()
        for k, qk in enumerate(qs):
            sums[j + k] = sums[j + k] + cj * qk
    return np.array([s.a0 for s in sums])


def companion_tensor_reference(p: SimplePolynomial) -> np.ndarray:
    """companion's (2n + 1, 4) sums of conj(q_j) q_k before its row blocks: the whole
    (n + 1)^2 Hamilton tensor, added by one bincount per component in ascending j."""
    q = p.rows
    power = np.add.outer(np.arange(len(q)), np.arange(len(q))).ravel()
    with np.errstate(over="ignore", invalid="ignore"):
        terms = hamilton((q * [1.0, -1.0, -1.0, -1.0]).T[:, :, None], q.T[:, None, :])
        return np.stack([np.bincount(power, t.ravel(), 2 * len(q) - 1) for t in terms], -1)


def eval_rows_reference(p: SimplePolynomial, z: np.ndarray) -> np.ndarray:
    """verify._eval_rows before its batched terms: each q_j z^j formed and added on its own."""
    zs = tuple(z.T)
    qs = p.rows.tolist()
    acc = Quaternion(1.0).components()
    total = tuple(np.full(len(z), c) for c in qs[0])
    with np.errstate(over="ignore", invalid="ignore"):
        for q in qs[1:]:
            acc = hamilton(acc, zs)
            total = tuple(t + u for t, u in zip(total, hamilton(q, acc)))
    return np.stack(total, axis=-1)


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
    from quatroots import Tolerances
    from quatroots.companion import monic_normalized
    from quatroots.quaternion import ConjugacyClass, embed_complex
    from quatroots.roots import all_roots, classify_real

    tols = tols or Tolerances()
    pm = monic_normalized(p)
    reals, pairs = classify_real(
        all_roots(ComplexPolynomial(companion_reference(pm))), tols.real)
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
    return ZeroSet.build([x for x, _ in reals], isolated, classes)
