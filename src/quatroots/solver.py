"""Zero finding for simple (left-coefficient) quaternionic polynomials.

The pipeline runs on plain data: normalize gives the (n+1, 4) coefficient
rows with the constant term 0 or 1, derived reads the complex pair (f1, f2)
off their columns, since p = z1 + z2*j with z1 = a0 + a1*i and z2 = a2 + a3*i,
and discriminant forms the real D = f1*conj(f1) + f2*conj(f2) by norm_polynomial, which
also forms the companion polynomial.  Its real roots are exactly the real zeros; each
conjugate pair of complex roots yields either a whole sphere of zeros (when all four derived
polynomials vanish there) or a single isolated zero given in closed form as a component
row.  The pair is evaluated at every representative by one cpoly.Evaluator call.

Two routes are provided: solve_discriminant works on the full discriminant,
solve_factored first divides out g = gcd(f1, f2), which holds most real zeros
and spheres, and leaves a smaller residual polynomial for the isolated nonreal
zeros and for the spheres g misses.  is_finite_zero_set is solve_factored's
verdict on spheres.  solve_complex_coeffs is the fast path for inputs
whose coefficients are all complex (or all real).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, fields

import numpy as np

from .cpoly import BLOCK, DEFAULT_GCD_TOL, ComplexPolynomial, Evaluator, TRIM_REL, gcd as poly_gcd
from .quaternion import ConjugacyClass, Quaternion, embed_complex, hamilton
from .roots import DEFAULT_REAL_TOL, all_roots, classify_real, pair_conjugates


class DegreeError(ValueError):
    """Constant polynomials have no meaningful zero set here."""


class InexactDivisionError(ArithmeticError):
    """Dividing out the gcd left a remainder beyond tolerance."""


class BothDenominatorsZeroError(ArithmeticError):
    """A closed form's denominator vanished at a root classified as isolated (both sides
    of the derived pair, or the imaginary part of the companion route's v); impossible
    for a genuine isolated-zero root, so this flags an internal inconsistency."""


class NotComplexCoefficientsError(ValueError):
    """The complex-coefficient fast path got a genuinely quaternionic input."""


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds shared by the solver routes.

    real:   |Im| below which a root counts as real
    zero:   |f(eta)| below which a derived polynomial counts as vanishing
    gcd:    relative remainder cutoff for the approximate gcd
    accept: relative residual acceptance for verification
    """

    real: float = DEFAULT_REAL_TOL
    zero: float = 1e-10
    gcd: float = DEFAULT_GCD_TOL
    accept: float = 1e-8

    def __post_init__(self):
        for f in fields(self):
            if not 0.0 < getattr(self, f.name) < np.inf:
                raise ValueError(f"tolerance {f.name} must be finite and > 0, "
                                 f"got {getattr(self, f.name)}")


DEFAULT_TOLS = Tolerances()
DEDUP_REL = 1e-8  # relative distance within which ZeroSet.build merges equal zeros


def _moduli(rows: np.ndarray) -> np.ndarray:
    """abs(Quaternion) of every row, squares added in order: above about 1e154 it is inf,
    and then every coefficient trims away (the pipeline behind the trim is not scale-safe)."""
    with np.errstate(over="ignore"):
        return np.sqrt(sum(rows[..., c] * rows[..., c] for c in range(4)))


def _left_mul(c: Quaternion, rows: np.ndarray) -> np.ndarray:
    """c * q for every (k, 4) row q, with Quaternion.__mul__'s arithmetic."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.stack(hamilton(c.components(), rows.T), axis=-1)


class SimplePolynomial:
    """q_n x^n + ... + q_1 x + q_0 with quaternion coefficients on the left.

    rows is the read-only (n+1, 4) array of coefficient components
    [a0, a1, a2, a3], constant term first; coeffs gives them as Quaternions.
    Real and complex coefficients lie along the i axis.  Trailing (leading-power)
    coefficients at most TRIM_REL times the largest modulus are trimmed away.  A
    NaN or infinite component raises ValueError.
    """

    __slots__ = ("rows",)

    def __init__(self, coeffs):
        qs = [c if isinstance(c, Quaternion) else embed_complex(c) for c in coeffs]
        self.rows = _checked_rows([q.components() for q in qs])

    @classmethod
    def from_rows(cls, rows) -> SimplePolynomial:
        """Build from [a0, a1, a2, a3] component rows, constant term first."""
        p = cls.__new__(cls)
        p.rows = _checked_rows(rows)
        return p

    @property
    def coeffs(self) -> tuple[Quaternion, ...]:
        return tuple(Quaternion(*row) for row in self.rows.tolist())

    @property
    def degree(self) -> int:
        return len(self.rows) - 1

    def coefficient_scale(self) -> float:
        return float(_moduli(self.rows).max())

    def left_scaled(self, c: Quaternion) -> SimplePolynomial:
        """The polynomial c * p (same zero set for c != 0)."""
        return SimplePolynomial.from_rows(_left_mul(c, self.rows))

    def conjugated_coeffs(self) -> SimplePolynomial:
        return SimplePolynomial.from_rows(self.rows * (1.0, -1.0, -1.0, -1.0))

    def __repr__(self) -> str:
        return f"SimplePolynomial(degree={self.degree}, coeffs={[str(q) for q in self.coeffs]})"


def _checked_rows(data) -> np.ndarray:
    rows = np.array(data, dtype=float, order="C")
    if rows.size and rows.shape[1:] != (4,):
        raise ValueError("each coefficient needs 4 components")
    if not np.isfinite(rows).all():
        raise ValueError("coefficients must be finite")
    mags = _moduli(rows.reshape(-1, 4))
    if not mags.any():
        raise ValueError("the zero polynomial is not a valid input")
    rows = rows[: np.flatnonzero(mags > TRIM_REL * mags.max()).max(initial=-1) + 1]
    rows.setflags(write=False)
    return rows


@dataclass(frozen=True)
class ZeroSet:
    """The full solution set: real points, nonreal isolated points, spheres."""

    real_zeros: tuple[float, ...]
    isolated_zeros: tuple[Quaternion, ...]
    spherical: tuple[ConjugacyClass, ...]

    @classmethod
    def build(cls, reals, isolated, classes) -> ZeroSet:
        """Deduplicate, drop isolated zeros subsumed by a sphere, and sort; isolated
        holds Quaternions, or (k, 4) component rows as the routes give them."""
        if isinstance(isolated, np.ndarray):
            isolated = [Quaternion(*row) for row in isolated.tolist()]
        rs: list[float] = []
        for x in sorted(float(v) for v in reals):
            if not rs or abs(x - rs[-1]) > DEDUP_REL * max(1.0, abs(x)):
                rs.append(x)
        # kept spheres and zeros are sorted by real part, and their distances are at least
        # the gap in real part, so only the band of kept items this near can be duplicates
        cl: list[ConjugacyClass] = []
        for c in sorted(classes, key=lambda c: (c.re, c.modulus)):
            near = DEDUP_REL * max(1.0, c.modulus)
            lo = bisect_left(cl, True, key=lambda k: abs(c.re - k.re) <= near)
            if not any(cl[k].distance(c) <= near for k in range(lo, len(cl))):
                cl.append(c)
        iso: list[Quaternion] = []
        for q in sorted(isolated, key=lambda q: q.components()):
            near = DEDUP_REL * max(1.0, abs(q))
            lo = bisect_left(iso, True, key=lambda r: abs(q.a0 - r.a0) <= near)
            if any(abs(q - iso[k]) <= near for k in range(lo, len(iso))):
                continue
            if any(c.contains(q, DEDUP_REL) for c in cl):
                continue
            iso.append(q)
        return cls(tuple(rs), tuple(iso), tuple(cl))

    def class_count(self) -> int:
        return len(self.real_zeros) + len(self.isolated_zeros) + len(self.spherical)

    def conjugated(self) -> ZeroSet:
        """Component-wise conjugate set (spheres are self-conjugate)."""
        return ZeroSet(self.real_zeros,
                       tuple(q.conjugate() for q in self.isolated_zeros),
                       self.spherical)


def normalize(p: SimplePolynomial) -> np.ndarray:
    """Left-multiply by the inverse of the constant term (when nonzero).

    Left unit multiples do not change the zero set, so the result solves the
    same problem with d0 in {0, 1}: (n+1, 4) rows, (d0, 0, 0, 0) first.
    """
    if p.degree < 1:
        raise DegreeError("cannot normalize a constant polynomial")
    q0 = Quaternion(*p.rows[0].tolist())
    if abs(q0) <= TRIM_REL * p.coefficient_scale():
        d0, body = 0.0, p.rows[1:]
    else:
        d0, body = 1.0, _left_mul(q0.inverse(), p.rows[1:])
    return np.vstack([(d0, 0.0, 0.0, 0.0), body])


def derived(rows: np.ndarray) -> tuple[ComplexPolynomial, ComplexPolynomial]:
    """The derived pair (f1, f2), the complex columns of the normalized rows; their
    coefficient-wise conjugates, the other two derived polynomials, are formed where needed."""
    z = np.ascontiguousarray(rows, dtype=float).view(np.complex128)
    return ComplexPolynomial(z[:, 0]), ComplexPolynomial(z[:, 1])


def norm_polynomial(rows: np.ndarray) -> np.ndarray:
    """The 2n + 1 untrimmed coefficients b_m = sum_j <q_j, q_(m-j)> of (n+1, 4) rows q.

    b_m is the sum of conj(q_j) q_(m-j), whose imaginary parts cancel in pairs since
    conj(a) b + conj(b) a = 2 <a, b>, so the polynomial is real by construction.  Each dot
    rounds as ((a0 b0 + a1 b1) + a2 b2) + a3 b3, the real part of hamilton(conj(q_j), q_k).
    The dots are formed BLOCK // (n + 1) rows j at a time, and add.at adds them in row-major
    order, so each b_m sums its terms in ascending j.
    """
    n, b = len(rows), rows.T[:, None, :]
    sums, step = np.zeros(2 * n - 1), max(1, BLOCK // n)
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, n, step):
            a = rows[lo:lo + step].T[:, :, None]
            terms = a[0] * b[0]
            for c in range(1, 4):
                terms += a[c] * b[c]
            power = np.add.outer(np.arange(lo, lo + len(terms)), np.arange(n)).ravel()
            np.add.at(sums, power, terms.ravel())
    return sums


def _stacked(pair) -> np.ndarray:
    """(n + 1, 2) complex columns f1, f2, zero-padded to n = max(deg f1, deg f2, 1)."""
    c = np.zeros((max(len(pair[0].c), len(pair[1].c), 2), 2), dtype=np.complex128)
    for k, f in enumerate(pair):
        c[: len(f.c), k] = f.c
    return c


def discriminant(pair) -> ComplexPolynomial:
    """The real polynomial f1*conj(f1) + f2*conj(f2), conj coefficient-wise, of a pair (f1, f2).

    D of the derived pair, whose roots index all zeros, and the factored route's cofactor norm:
    norm_polynomial of the rows [Re f1, Im f1, Re f2, Im f2], nonnegative on the real axis.
    """
    return ComplexPolynomial(norm_polynomial(_stacked(pair).view(float)))


def _side_values(pair, z: np.ndarray) -> np.ndarray:
    """The pair, _stacked to degree n, at every z: shape (2,) + z.shape.

    Where |z| > 1 each value carries a factor 1/z^n (cpoly.Evaluator),
    which the closed form, homogeneous of degree 0 in (f1, f2), cancels.
    """
    return Evaluator(_stacked(pair))(z)[0]


def is_spherical_root(pair, eta, values: np.ndarray,
                      tol_zero: float = DEFAULT_TOLS.zero) -> np.ndarray:
    """Whether all four derived polynomials vanish, at each eta of an array.

    True means the whole conjugacy sphere of eta consists of zeros; False, that
    it holds one isolated zero.  |conj-f(eta)| is |f(conj eta)|, so the four are
    f1, f2 at eta and conj(eta): values is _side_values(pair, [eta, conj(eta)]),
    indexed [f][side].  Each |f| is held against its evaluation roundoff scale
    tol_zero * max|c_f| * max(1,|eta|)^deg f.
    """
    eta = np.asarray(eta, dtype=np.complex128)
    n = max(pair[0].degree, pair[1].degree, 1)
    grow = np.maximum(1.0, np.abs(eta))
    return np.all([np.abs(v) <= tol_zero * f.max_coeff() * grow ** (f.degree - n)
                   for f, v in zip(pair, values)], axis=(0, 1))


def _abs2(z: np.ndarray) -> np.ndarray:
    """|z|^2 rounded as abs(z) ** 2 rounds it for a Python complex: hypot, then pow."""
    return np.float_power(np.hypot(z.real, z.imag), 2.0)


def _conj_side_zero(a: np.ndarray, b: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """(k, 4) rows of the zero on the sphere of each eta from a = f1(conj eta), b = f2(conj eta).

    It is w + cross*k, w = (|a|^2 eta + |b|^2 conj(eta)) / d and cross = 2 b conj(a) Im(eta) / d
    with d = |a|^2 + |b|^2 > 0, and (x + y*i)*k = -y*j + x*k.  Products are written out and
    rounded as for Python complexes; adding 0.0 turns a -0.0 component into 0.0.
    """
    sa, sb = _abs2(a), _abs2(b)
    ar, ai, br, bi, er, ei = a.real, a.imag, b.real, b.imag, eta.real, eta.imag
    return np.stack([sa * er + sb * er, sa * ei - sb * ei,
                     -((2.0 * bi * ar - 2.0 * br * ai) * ei),
                     (2.0 * br * ar + 2.0 * bi * ai) * ei], axis=-1) / (sa + sb)[:, None] + 0.0


def isolated_zero(pair, eta, values: np.ndarray) -> np.ndarray:
    """(k, 4) rows of the single zero on the conjugacy sphere of each eta of a 1-D array.

    Two equivalent closed forms exist, one from f1, f2 at eta and one at
    conj(eta) (values as in is_spherical_root); each is _conj_side_zero on
    its side of the sphere.  Their denominators cannot both vanish, and the
    better conditioned (larger) one is used.
    """
    eta = np.asarray(eta, dtype=np.complex128)
    (f1e, f1c), (f2e, f2c) = values
    dplus, dminus = _abs2(f1e) + _abs2(f2e), _abs2(f1c) + _abs2(f2c)
    limit = (TRIM_REL * max(pair[0].max_coeff(), pair[1].max_coeff(), 1.0)) ** 2
    if (dead := np.maximum(dplus, dminus) <= limit).any():
        raise BothDenominatorsZeroError(
            f"both denominators vanished at {eta[dead][0]}; classification bug")
    plus = dplus >= dminus
    return _conj_side_zero(np.where(plus, f1e, f1c), np.where(plus, f2e, f2c),
                           np.where(plus, eta.conj(), eta))


def _isolated_zero_cofactor(g1: ComplexPolynomial, g2: ComplexPolynomial,
                            eta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(k, 4) zeros from the gcd cofactors (the conj(eta) side of isolated_zero), and a mask.

    Valid at each eta exactly as listed by the factored route; the representative
    must not be flipped, since the common-factor cancellation underlying the
    formula fails at the conjugate.  The mask marks the eta the zeros come from:
    False where both cofactors vanish at conj(eta), a gcd tolerance mismatch.
    """
    a, b = _side_values((g1, g2), eta.conj())
    ok = _abs2(a) + _abs2(b) > (1e-12 * max(g1.max_coeff(), g2.max_coeff(), 1.0)) ** 2
    return _conj_side_zero(a[ok], b[ok], eta[ok]), ok


def _place_pairs(pair, eta, tol_zero: float):
    """((k, 4) isolated zeros, spheres) of the pair representatives eta, from one evaluation."""
    eta = np.asarray(eta, dtype=np.complex128)
    values = _side_values(pair, np.stack([eta, eta.conj()]))
    sphere = is_spherical_root(pair, eta, values, tol_zero)
    return (isolated_zero(pair, eta[~sphere], values[..., ~sphere]),
            [ConjugacyClass.from_complex(e) for e in eta[sphere].tolist()])


def solve_discriminant(p: SimplePolynomial,
                       tols: Tolerances = DEFAULT_TOLS) -> ZeroSet:
    """Full solution set via the roots of the discriminant polynomial."""
    pair = derived(normalize(p))
    reals, pairs = classify_real(all_roots(discriminant(pair)), tols.real)
    isolated, classes = _place_pairs(pair, [v for v, _ in pairs], tols.zero)
    return ZeroSet.build([x for x, _ in reals], isolated, classes)


def factor_g(pair, tol: float = DEFAULT_TOLS.gcd):
    """Factor the derived pair (f1, f2) as (g*g1, g*g2) with g = gcd(f1, f2) monic.

    The Euclidean gcd can overshoot on ill-conditioned remainder sequences
    (coefficient growth makes a later remainder look relatively zero); a
    candidate that fails the division check is retried at tol*1e-2 and tol*1e-4.
    On Gaussian inputs a retry only returns g of degree 0; on graded coefficients
    it also returns nontrivial factors (ROADMAP item 12).
    Raises InexactDivisionError when no tolerance yields an exact division.

    Returns (g, g1, g2).
    """
    f1, f2 = pair
    for attempt_tol in (tol, tol * 1e-2, tol * 1e-4):
        g = poly_gcd(f1, f2, attempt_tol)
        if g.degree == 0:  # exactly 1: monic's c / c[-1] need not round to 1
            return ComplexPolynomial([1.0]), f1, f2
        g1, r1 = f1.divrem(g)
        g2, r2 = f2.divrem(g)
        if (r1.coeff_norm() <= tol * max(f1.coeff_norm(), 1e-300)
                and r2.coeff_norm() <= tol * max(f2.coeff_norm(), 1e-300)):
            return g, g1, g2
    raise InexactDivisionError("gcd does not divide the derived pair to tolerance")


def solve_factored(p: SimplePolynomial,
                   tols: Tolerances = DEFAULT_TOLS) -> ZeroSet:
    """Solution set via the gcd factorization of the derived pair.

    Real zeros and zero-spheres come from g = gcd(f1, f2); the remaining
    isolated zeros come from unpaired roots of g and from the cofactor
    norm discriminant((g1, g2)); ZeroSet.build merges any root found twice.
    The approximate gcd can miss a sphere (g of degree 0 on 27 of the 123
    sphere inputs of the cli-compare benchmark, seeds 1-3); its root then
    comes from the cofactor discriminant with both cofactors vanishing, and
    the fallback classifies it by the full derived pair (_place_pairs).
    """
    pair = derived(normalize(p))
    g, g1, g2 = factor_g(pair, tols.gcd)
    reals_g, paired_g, unpaired_g = pair_conjugates(
        all_roots(g).roots if g.degree >= 1 else (), tols.real)
    real_zeros = [x for x, _ in reals_g]
    classes = [ConjugacyClass.from_complex(v) for v, _ in paired_g]
    todo = [eta for eta, _ in unpaired_g]
    gt = discriminant((g1, g2))
    if gt.degree >= 1:
        treals, tpairs = classify_real(all_roots(gt), tols.real)
        # a real root here can only be a gcd-tolerance artifact; it still
        # certifies a genuine real zero (both f1 and f2 vanish there)
        real_zeros.extend(x for x, _ in treals)
        todo += [eta for eta, _ in tpairs]
    eta = np.array(todo, dtype=np.complex128)
    isolated, ok = _isolated_zero_cofactor(g1, g2, eta)
    if not ok.all():
        # gcd artifact: fall back to classification by the full derived pair
        stuck = eta[~ok]
        more = _place_pairs(pair, np.where(stuck.imag > 0, stuck, stuck.conj()), tols.zero)
        isolated, classes = np.vstack([isolated, more[0]]), classes + more[1]
    return ZeroSet.build(real_zeros, isolated, classes)


def solve_complex_coeffs(p: SimplePolynomial,
                         tols: Tolerances = DEFAULT_TOLS) -> ZeroSet:
    """Fast path for inputs whose coefficients all lie in the complex plane.

    The quaternionic zero set follows from the complex roots alone: real
    roots stay, conjugate pairs become spheres, and a nonreal root whose
    conjugate is not a root stays as an isolated complex zero.
    """
    if p.degree < 1:
        raise DegreeError("cannot solve a constant polynomial")
    if np.abs(p.rows[:, 2:]).max() > TRIM_REL * p.coefficient_scale():
        raise NotComplexCoefficientsError(
            "coefficients have j/k components; use a general solver")
    cp = ComplexPolynomial(p.rows.view(np.complex128)[:, 0])
    reals, paired, unpaired = pair_conjugates(all_roots(cp).roots, tols.real)
    classes = [ConjugacyClass.from_complex(v) for v, _ in paired]
    isolated = [Quaternion(v.real, v.imag) for v, _ in unpaired]  # the zero j, k parts are shared
    return ZeroSet.build([x for x, _ in reals], isolated, classes)


def is_finite_zero_set(p: SimplePolynomial, tols: Tolerances = DEFAULT_TOLS) -> bool:
    """Whether the zero set of p is finite: no nonreal conjugate pair is a common root
    of the derived polynomials, so solve_factored reports no sphere.

    This is the factored route's own verdict, so the two cannot disagree; it raises
    what solve_factored raises and costs one solve_factored call.
    """
    return not solve_factored(p, tols).spherical
