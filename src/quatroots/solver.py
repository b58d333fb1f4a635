"""Zero finding for simple (left-coefficient) quaternionic polynomials.

The pipeline: normalize the constant term to 0 or 1, split each quaternion
coefficient p = z1 + z2*j into the pair of complex "derived" polynomials
(f1, f2), and form the real discriminant f1*conj(f1) + f2*conj(f2).  Its
real roots are exactly the real zeros; each conjugate pair of complex roots
yields either a whole sphere of zeros (when all four derived polynomials
vanish there) or a single isolated zero given in closed form.

Two routes are provided: solve_discriminant works on the full discriminant,
solve_factored first divides out g = gcd(f1, f2), which isolates the real
zeros and spheres inside g and leaves a smaller residual polynomial for the
isolated nonreal zeros.  solve_complex_coeffs is the fast path for inputs
whose coefficients are all complex (or all real).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .cpoly import (ComplexPolynomial, TRIM_REL, gcd as poly_gcd, gcd_many,
                    scaled_values)
from .quaternion import (ConjugacyClass, K, Quaternion, embed_complex, split)
from .roots import all_roots, classify_real, pair_conjugates, polished_roots


class DegreeError(ValueError):
    """Constant polynomials have no meaningful zero set here."""


class NonRealDiscriminantError(ArithmeticError):
    """The discriminant failed its real-coefficient check (arithmetic bug)."""


class InexactDivisionError(ArithmeticError):
    """Dividing out the gcd left a remainder beyond tolerance."""


class BothDenominatorsZeroError(ArithmeticError):
    """Both closed-form denominators vanished; impossible for a genuine
    isolated-zero root, so this flags an internal inconsistency."""


class NotComplexCoefficientsError(ValueError):
    """The complex-coefficient fast path got a genuinely quaternionic input."""


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds shared by the solver routes.

    real:   |Im| below which a root counts as real
    zero:   |f(eta)| below which a derived polynomial counts as vanishing
    gcd:    relative remainder cutoff for the approximate gcd
    accept: relative residual acceptance for verification
    dedup:  relative distance for merging equal zeros
    """

    real: float = 1e-5
    zero: float = 1e-10
    gcd: float = 1e-8
    accept: float = 1e-8
    dedup: float = 1e-8


DEFAULT_TOLS = Tolerances()


def _as_quaternion(value) -> Quaternion:
    if isinstance(value, Quaternion):
        return value
    if isinstance(value, (int, float)):
        return Quaternion(float(value))
    if isinstance(value, complex):
        return embed_complex(value)
    raise TypeError(f"cannot interpret {value!r} as a quaternion")


class SimplePolynomial:
    """q_n x^n + ... + q_1 x + q_0 with quaternion coefficients on the left.

    Coefficients are stored constant-term first; trailing (leading-power)
    coefficients that are relatively zero are trimmed away.  A NaN or
    infinite component raises ValueError.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        qs = [_as_quaternion(c) for c in coeffs]
        if not all(math.isfinite(x) for q in qs for x in q.components()):
            raise ValueError("coefficients must be finite")
        top = max((abs(q) for q in qs), default=0.0)
        if top == 0.0:
            raise ValueError("the zero polynomial is not a valid input")
        while qs and abs(qs[-1]) <= TRIM_REL * top:
            qs.pop()
        self.coeffs = tuple(qs)

    @classmethod
    def from_rows(cls, rows) -> SimplePolynomial:
        """Build from [a0, a1, a2, a3] component rows, constant term first."""
        return cls([Quaternion(*(float(x) for x in row)) for row in rows])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coefficient_scale(self) -> float:
        return max(abs(q) for q in self.coeffs)

    def left_scaled(self, c: Quaternion) -> SimplePolynomial:
        """The polynomial c * p (same zero set for c != 0)."""
        return SimplePolynomial([c * q for q in self.coeffs])

    def conjugated_coeffs(self) -> SimplePolynomial:
        return SimplePolynomial([q.conjugate() for q in self.coeffs])

    def __repr__(self) -> str:
        return f"SimplePolynomial(degree={self.degree}, coeffs={[str(q) for q in self.coeffs]})"


@dataclass(frozen=True)
class NormalizedPolynomial:
    """p_n x^n + ... + p_1 x + d0 with d0 either 0 or 1.

    coeffs holds p_1 .. p_n (index k is the coefficient of x^(k+1)).
    """

    coeffs: tuple[Quaternion, ...]
    d0: int

    @property
    def degree(self) -> int:
        return len(self.coeffs)


@dataclass(frozen=True)
class DerivedPolynomials:
    """The complex pair induced by splitting each coefficient.

    f1 carries the z1 components plus the constant d0, f2 the z2 components
    with zero constant term; their coefficient-wise conjugates, the other
    two derived polynomials, are formed where needed.
    """

    f1: ComplexPolynomial
    f2: ComplexPolynomial


@dataclass(frozen=True)
class ZeroSet:
    """The full solution set: real points, nonreal isolated points, spheres."""

    real_zeros: tuple[float, ...]
    isolated_zeros: tuple[Quaternion, ...]
    spherical: tuple[ConjugacyClass, ...]

    @classmethod
    def build(cls, reals, isolated, classes, dedup: float = 1e-8) -> ZeroSet:
        """Deduplicate, drop isolated zeros subsumed by a sphere, and sort."""
        rs: list[float] = []
        for x in sorted(float(v) for v in reals):
            if not rs or abs(x - rs[-1]) > dedup * max(1.0, abs(x)):
                rs.append(x)
        cl: list[ConjugacyClass] = []
        for c in sorted(classes, key=lambda c: (c.re, c.modulus)):
            if not cl or cl[-1].distance(c) > dedup * max(1.0, c.modulus):
                cl.append(c)
        iso: list[Quaternion] = []
        for q in sorted(isolated, key=lambda q: q.components()):
            near = dedup * max(1.0, abs(q))
            # kept zeros are sorted by a0 and |q - r| >= |q.a0 - r.a0|, so
            # only the band of r with a0 this close to q.a0 can be duplicates
            lo = bisect_left(iso, True, key=lambda r: abs(Quaternion(q.a0 - r.a0)) <= near)
            if any(abs(q - iso[k]) <= near for k in range(lo, len(iso))):
                continue
            if any(c.contains(q, dedup) for c in cl):
                continue
            iso.append(q)
        return cls(tuple(rs), tuple(iso), tuple(cl))

    def class_count(self) -> int:
        return len(self.real_zeros) + len(self.isolated_zeros) + len(self.spherical)

    def is_empty(self) -> bool:
        return self.class_count() == 0

    def conjugated(self) -> ZeroSet:
        """Component-wise conjugate set (spheres are self-conjugate)."""
        return ZeroSet(self.real_zeros,
                       tuple(q.conjugate() for q in self.isolated_zeros),
                       self.spherical)


def normalize(p: SimplePolynomial) -> NormalizedPolynomial:
    """Left-multiply by the inverse of the constant term (when nonzero).

    Left unit multiples do not change the zero set, so the result solves the
    same problem with d0 in {0, 1}.
    """
    if p.degree < 1:
        raise DegreeError("cannot normalize a constant polynomial")
    q0 = p.coeffs[0]
    if abs(q0) <= TRIM_REL * p.coefficient_scale():
        return NormalizedPolynomial(p.coeffs[1:], 0)
    inv = q0.inverse()
    return NormalizedPolynomial(tuple(inv * q for q in p.coeffs[1:]), 1)


def derived(np_: NormalizedPolynomial) -> DerivedPolynomials:
    """Split p_i = z1 + z2*j coefficient-wise into the four derived polynomials."""
    z1s: list[complex] = [complex(np_.d0)]
    z2s: list[complex] = [0j]
    for q in np_.coeffs:
        z1, z2 = split(q)
        z1s.append(z1)
        z2s.append(z2)
    return DerivedPolynomials(ComplexPolynomial(z1s), ComplexPolynomial(z2s))


def discriminant(dp: DerivedPolynomials, tol: float = 1e-10) -> ComplexPolynomial:
    """The real polynomial f1*f1bar + f2*f2bar whose roots index all zeros.

    Nonnegative on the real axis; a failed real-coefficient check means an
    arithmetic bug, not bad input.
    """
    return _norm_polynomial(dp.f1, dp.f2, tol)


def _norm_polynomial(a: ComplexPolynomial, b: ComplexPolynomial,
                     tol: float) -> ComplexPolynomial:
    """a*abar + b*bbar with conjugated coefficients, which must come out real up to tol."""
    pt = a * a.conj_coeffs() + b * b.conj_coeffs()
    if not pt.is_real_coeffs(tol):
        raise NonRealDiscriminantError(
            f"imaginary residue {np.abs(pt.c.imag).max():.3e} exceeds tolerance")
    return pt.real()


def _side_values(f1: ComplexPolynomial, f2: ComplexPolynomial, eta: np.ndarray) -> np.ndarray:
    """f1 and f2, padded to degree n = max(deg f1, deg f2, 1), at eta and conj(eta).

    One batch of shape (2, 2) + eta.shape, indexed [f][side].  Where |eta| > 1
    each value carries a factor 1/eta^n or 1/conj(eta)^n (cpoly.scaled_values),
    which the closed form, homogeneous of degree 0 in (f1, f2), cancels.
    """
    n = max(f1.degree, f2.degree, 1)
    c = np.zeros((n + 1, 2), dtype=np.complex128)
    c[: len(f1.c), 0] = f1.c
    c[: len(f2.c), 1] = f2.c
    return scaled_values(c, np.stack([eta, np.conj(eta)]))


def is_spherical_root(dp: DerivedPolynomials, eta, tol_zero: float = 1e-10,
                      values: np.ndarray | None = None):
    """Whether all four derived polynomials vanish at eta (a complex or an array).

    True means the whole conjugacy sphere of eta consists of zeros; False
    means the sphere contains exactly one (isolated) zero.  |conj-f(eta)| is
    |f(conj eta)|, so the four are f1, f2 at eta and conj(eta): values, which
    a caller that has them passes in, is _side_values(dp.f1, dp.f2, eta).
    Each |f| is held against tol_zero * max|c_f| * max(1,|eta|)^deg f, its
    Horner roundoff scale.
    """
    eta = np.asarray(eta, dtype=np.complex128)
    if values is None:
        values = _side_values(dp.f1, dp.f2, eta)
    n = max(dp.f1.degree, dp.f2.degree, 1)
    grow = np.maximum(1.0, np.abs(eta))
    found = np.all([np.abs(v) <= tol_zero * f.max_coeff() * grow ** (f.degree - n)
                    for f, v in zip((dp.f1, dp.f2), values)], axis=(0, 1))
    return found if eta.ndim else bool(found)


def _conj_side_zero(a: complex, b: complex, eta: complex) -> Quaternion:
    """The zero on the sphere of eta from a = f1(conj eta), b = f2(conj eta), not both 0."""
    d = abs(a) ** 2 + abs(b) ** 2
    w = (abs(a) ** 2 * eta + abs(b) ** 2 * eta.conjugate()) / d
    cross = (2.0 * b * a.conjugate() * eta.imag) / d
    # w + cross*k with both complex values embedded along the i axis
    return embed_complex(w) + embed_complex(cross) * K


def isolated_zero(dp: DerivedPolynomials, eta, values: np.ndarray | None = None):
    """The single zero on the conjugacy sphere of eta; a list for an array of eta.

    Two equivalent closed forms exist, one from f1, f2 at eta and one at
    conj(eta) (values as in is_spherical_root); each is _conj_side_zero on
    its side of the sphere.  Their denominators cannot both vanish, and the
    better conditioned (larger) one is used.
    """
    flat = np.asarray(eta, dtype=np.complex128).ravel()
    values = (_side_values(dp.f1, dp.f2, flat) if values is None else values).reshape(2, 2, -1)
    limit = (TRIM_REL * max(dp.f1.max_coeff(), dp.f2.max_coeff(), 1.0)) ** 2
    out = []
    for (f1e, f1c), (f2e, f2c), e in zip(*values.transpose(0, 2, 1).tolist(), flat.tolist()):
        dplus = abs(f1e) ** 2 + abs(f2e) ** 2
        dminus = abs(f1c) ** 2 + abs(f2c) ** 2
        if max(dplus, dminus) <= limit:
            raise BothDenominatorsZeroError(
                f"both denominators vanished at {e}; classification bug")
        out.append(_conj_side_zero(f1e, f2e, e.conjugate()) if dplus >= dminus
                   else _conj_side_zero(f1c, f2c, e))
    return out if np.ndim(eta) else out[0]


def _isolated_zero_cofactor(g1: ComplexPolynomial, g2: ComplexPolynomial,
                            eta: np.ndarray) -> list[Quaternion | None]:
    """Isolated zeros from the gcd cofactors: the conj(eta) side of isolated_zero.

    Valid at each eta of the 1-D array exactly as listed by the factored
    route; the representative must not be flipped, since the common-factor
    cancellation underlying the formula fails at the conjugate.  None where
    both cofactors vanish at conj(eta), a gcd tolerance mismatch.
    """
    limit = (1e-12 * max(g1.max_coeff(), g2.max_coeff(), 1.0)) ** 2
    return [_conj_side_zero(a, b, e) if abs(a) ** 2 + abs(b) ** 2 > limit else None
            for a, b, e in zip(*_side_values(g1, g2, eta)[:, 1].tolist(), eta.tolist())]


def _place_pairs(dp: DerivedPolynomials, eta, tol_zero: float):
    """(isolated zeros, spheres) of the pair representatives eta, from one evaluation."""
    eta = np.asarray(eta, dtype=np.complex128)
    values = _side_values(dp.f1, dp.f2, eta)
    sphere = is_spherical_root(dp, eta, tol_zero, values)
    return (isolated_zero(dp, eta[~sphere], values[..., ~sphere]),
            [ConjugacyClass.from_complex(e) for e in eta[sphere].tolist()])


def solve_discriminant(p: SimplePolynomial,
                       tols: Tolerances = DEFAULT_TOLS) -> ZeroSet:
    """Full solution set via the roots of the discriminant polynomial."""
    np_ = normalize(p)
    dp = derived(np_)
    reals, pairs = classify_real(polished_roots(discriminant(dp)), tols.real)
    isolated, classes = _place_pairs(dp, [v for v, _ in pairs], tols.zero)
    return ZeroSet.build([x for x, _ in reals], isolated, classes, tols.dedup)


def factor_g(np_: NormalizedPolynomial, tol: float = 1e-8):
    """Factor the derived pair as (g*g1, g*g2) with g = gcd(f1, f2) monic.

    The Euclidean gcd can overshoot on ill-conditioned remainder sequences
    (coefficient growth makes a later remainder look relatively zero); a
    candidate that fails the division check is retried at stricter zero
    tolerances, which drives the sequence down to the true common factor.
    Raises InexactDivisionError when no tolerance yields an exact division.

    Returns (g, g1, g2).
    """
    dp = derived(np_)
    for attempt_tol in (tol, tol * 1e-2, tol * 1e-4):
        g = poly_gcd(dp.f1, dp.f2, attempt_tol)
        g1, r1 = dp.f1.divrem(g)
        g2, r2 = dp.f2.divrem(g)
        if (r1.coeff_norm() <= tol * max(dp.f1.coeff_norm(), 1e-300)
                and r2.coeff_norm() <= tol * max(dp.f2.coeff_norm(), 1e-300)):
            return g, g1, g2
    raise InexactDivisionError("gcd does not divide the derived pair to tolerance")


def solve_factored(p: SimplePolynomial,
                   tols: Tolerances = DEFAULT_TOLS) -> ZeroSet:
    """Solution set via the gcd factorization of the derived pair.

    Real zeros and zero-spheres come from g = gcd(f1, f2); the remaining
    isolated zeros come from unpaired roots of g and from the cofactor
    discriminant g1*conj(g1) + g2*conj(g2), skipping roots already seen in g.
    """
    np_ = normalize(p)
    g, g1, g2 = factor_g(np_, tols.gcd)
    g_roots = polished_roots(g).roots if g.degree >= 1 else ()
    reals_g, paired_g, unpaired_g = pair_conjugates(g_roots, tols.real)
    real_zeros = [x for x, _ in reals_g]
    classes = [ConjugacyClass.from_complex(v) for v, _ in paired_g]
    todo = [eta for eta, _ in unpaired_g]
    gt = _norm_polynomial(g1, g2, 1e-10)
    if gt.degree >= 1:
        treals, tpairs = classify_real(polished_roots(gt), tols.real)
        # a real root here can only be a gcd-tolerance artifact; it still
        # certifies a genuine real zero (both f1 and f2 vanish there)
        real_zeros.extend(x for x, _ in treals)
        todo += [eta for eta, _ in tpairs if not any(
            abs(eta - v) <= tols.dedup * (1.0 + abs(eta))
            or abs(eta.conjugate() - v) <= tols.dedup * (1.0 + abs(eta)) for v, _ in g_roots)]
    eta = np.array(todo, dtype=np.complex128)
    zeros = _isolated_zero_cofactor(g1, g2, eta)
    isolated = [q for q in zeros if q is not None]
    stuck = eta[[q is None for q in zeros]]
    if stuck.size:
        # gcd artifact: fall back to classification by the full derived pair
        more = _place_pairs(derived(np_), np.where(stuck.imag > 0, stuck, stuck.conj()), tols.zero)
        isolated, classes = isolated + more[0], classes + more[1]
    return ZeroSet.build(real_zeros, isolated, classes, tols.dedup)


def solve_complex_coeffs(p: SimplePolynomial,
                         tols: Tolerances = DEFAULT_TOLS) -> ZeroSet:
    """Fast path for inputs whose coefficients all lie in the complex plane.

    The quaternionic zero set follows from the complex roots alone: real
    roots stay, conjugate pairs become spheres, and a nonreal root whose
    conjugate is not a root stays as an isolated complex zero.
    """
    scale = p.coefficient_scale()
    for q in p.coeffs:
        if max(abs(q.a2), abs(q.a3)) > TRIM_REL * scale:
            raise NotComplexCoefficientsError(
                "coefficients have j/k components; use a general solver")
    if p.degree < 1:
        raise DegreeError("cannot solve a constant polynomial")
    cp = ComplexPolynomial([split(q)[0] for q in p.coeffs])
    reals, paired, unpaired = pair_conjugates(polished_roots(cp).roots, tols.real)
    classes = [ConjugacyClass.from_complex(v) for v, _ in paired]
    isolated = [embed_complex(v) for v, _ in unpaired]
    return ZeroSet.build([x for x, _ in reals], isolated, classes, tols.dedup)


def is_finite_zero_set(dp: DerivedPolynomials, tol_real: float = 1e-5,
                       tol_gcd: float = 1e-8) -> bool:
    """Whether the zero set is finite (no spheres).

    Equivalent to the common gcd of all four derived polynomials having no
    nonreal root.
    """
    common = gcd_many((dp.f1, dp.f2, dp.f1.conj_coeffs(), dp.f2.conj_coeffs()), tol_gcd)
    if common.degree < 1:
        return True
    rl = all_roots(common)
    return all(abs(z.imag) < tol_real for z, _ in rl.roots)
