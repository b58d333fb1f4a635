"""Zero finding for simple (left-coefficient) quaternionic polynomials.

The pipeline runs on plain data: normalize gives the (n+1, 4) coefficient rows, scaled by
scaled_rows (every general route's one exact scaling), with the constant term 0 or 1, derived
reads the complex pair (f1, f2) off their columns, since p = z1 + z2*j with z1 = a0 + a1*i and
z2 = a2 + a3*i, and discriminant forms the real D = f1*conj(f1) + f2*conj(f2) by
norm_polynomial, which also forms the companion polynomial.  Its real roots are exactly the
real zeros; each conjugate pair of complex roots yields either a whole sphere of zeros (when
all four derived polynomials vanish there) or a single isolated zero given in closed form as a
component row, from one cpoly.Evaluator call at every representative.  The routes hand
ZeroSet.build arrays (reals, rows, sphere representatives), and it makes the field objects once.

Two routes are provided: solve_discriminant works on the full discriminant, solve_factored
first divides out g = gcd(f1, f2), which holds most real zeros and spheres, and places the
roots of a smaller cofactor norm as solve_discriminant places D's, for the isolated nonreal
zeros and the spheres g misses.  No state is kept between calls: _d_route_sets gives both
routes' sets from one derived pair, finding D's roots once, for the CLI's compare mode.
is_finite_zero_set is solve_factored's verdict on spheres.  solve_complex_coeffs is the
fast path for inputs whose coefficients are all complex (or all real).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cpoly import BLOCK, DEFAULT_GCD_TOL, ComplexPolynomial, Evaluator, TRIM_REL, gcd as poly_gcd
from .quaternion import ConjugacyClass, Quaternion, embed_complex, hamilton
from .roots import all_roots, classify_real, pair_conjugates


class DegreeError(ValueError):
    """Constant polynomials have no meaningful zero set here."""


class BothDenominatorsZeroError(ArithmeticError):
    """A closed form's denominator vanished at a root classified as isolated (both sides
    of the derived pair, or the imaginary part of the companion route's v); impossible
    for a genuine isolated-zero root, so this flags an internal inconsistency."""


class NotComplexCoefficientsError(ValueError):
    """The complex-coefficient fast path got a genuinely quaternionic input."""


@dataclass(frozen=True)
class Tolerances:
    """The numerical thresholds of the library, fixed in DEFAULT_TOLS; the real-axis
    threshold is roots.DEFAULT_REAL_TOL.

    zero:   |f(eta)| below which a derived polynomial counts as vanishing
    gcd:    relative remainder cutoff for the approximate gcd
    accept: relative residual acceptance for verification
    """

    zero: float = 1e-10
    gcd: float = DEFAULT_GCD_TOL
    accept: float = 1e-8


DEFAULT_TOLS = Tolerances()
DEDUP_REL = 1e-8  # relative distance within which ZeroSet.build merges equal zeros


def _moduli(rows: np.ndarray) -> np.ndarray:
    """abs(Quaternion) of every row, squares added in order: above about 1e154 it is inf,
    and then every coefficient trims away (the pipeline behind the trim is not scale-safe)."""
    with np.errstate(over="ignore"):
        sq = rows * rows
        return np.sqrt(((sq[..., 0] + sq[..., 1]) + sq[..., 2]) + sq[..., 3])


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
    @np.errstate(invalid="ignore")  # inf - inf is NaN, as for Python floats
    def build(cls, reals, isolated, spheres) -> ZeroSet:
        """The zero set of (k,) reals, (k, 4) isolated-zero rows and (k,) complex sphere
        representatives of either sign, each kind sorted.  A zero within DEDUP_REL * max(1, |z|)
        of a kept earlier one of its kind (spheres: by the larger gap in Re or modulus), or on a
        kept sphere, is dropped; an entry with a NaN part is kept, never merged, and sorted last."""
        x = np.sort(np.asarray(reals, dtype=float), kind="stable")  # as Python sorts; NaN last
        if len(x) > 1:
            x = x[_kept(x, np.abs(x), lambda i, j, r: ~(x[j] - x[i] > r), np.ones(len(x), bool))]
        s = np.asarray(spheres, dtype=complex)
        if len(s) > 1:
            s = s[np.lexsort((np.hypot(s.real, s.imag), s.real, np.isnan(s.real)))]
            re, m = s.real, np.hypot(s.real, s.imag)
            s = s[_kept(re, m, lambda i, j, r: np.maximum(abs(re[j] - re[i]), abs(m[j] - m[i]))
                        <= r, np.ones(len(s), bool))]
        q = np.asarray(isolated, dtype=float).reshape(-1, 4)
        mq = _moduli(q)  # NaN where a component is
        o = np.lexsort([*q.T[::-1], np.isnan(mq)])
        q, mq, keep, re, mod = q[o], mq[o], np.ones(len(q), bool), s.real, np.hypot(s.real, s.imag)
        if len(s):  # an isolated zero on a kept sphere
            t = DEDUP_REL * np.maximum(np.maximum(1.0, mod), mq[:, None])
            keep = ~((abs(q[:, :1] - re) <= t) & (abs(mq[:, None] - mod) <= t)).any(axis=1)
        q = q[_kept(q[:, 0], mq, lambda i, j, r: _moduli(q[j] - q[i]) <= r, keep)]
        # j and k parts that are +0.0 throughout (complex zeros) take Quaternion's one default
        # float, not two new ones per zero, in every ZeroSet a caller keeps
        width = 4 if q.view(np.uint64)[:, 2:].any() else 2
        return cls(tuple(x.tolist()), tuple(map(Quaternion, *q[:, :width].T.tolist())),
                   tuple(map(ConjugacyClass.from_complex, s.tolist())))

    def class_count(self) -> int:
        return len(self.real_zeros) + len(self.isolated_zeros) + len(self.spherical)

    def conjugated(self) -> ZeroSet:
        """Component-wise conjugate set (spheres are self-conjugate)."""
        return ZeroSet(self.real_zeros,
                       tuple(q.conjugate() for q in self.isolated_zeros),
                       self.spherical)


def _kept(x: np.ndarray, size: np.ndarray, close, keep: np.ndarray) -> np.ndarray:
    """The sorted entries ZeroSet.build keeps: those of keep not close(i, j, r) to a kept earlier
    i, r = DEDUP_REL * max(1, size[j]).  close is asked only where the first sort keys x lie within
    r (at offsets 1, 2, ..., as in roots._cluster), never of NaN sizes, which come last."""
    x = x[:len(x) - np.count_nonzero(np.isnan(size))]
    r, scan, k, ties = DEDUP_REL * np.maximum(1.0, size), np.ones(len(x), dtype=bool), 1, []
    while (scan := scan[1:] & ~(x[k:] - x[:-k] > r[k:len(x)])).any():
        j = k + scan.nonzero()[0]
        ties += [(b, b - k) for b in j[close(j - k, j, r[j])].tolist()]
        k += 1
    for j, i in sorted(ties):  # in order of j, so keep[i] is final
        keep[j] &= not keep[i]
    return keep


def scaled_rows(p: SimplePolynomial) -> np.ndarray:
    """p's rows times 2^-e, e the frexp exponent of the largest |component|, which then lies
    in [0.5, 1).  A left factor, so the zero set is p's; exact unless a component underflows."""
    return np.ldexp(p.rows, -np.frexp(np.abs(p.rows).max())[1])


def normalize(p: SimplePolynomial) -> np.ndarray:
    """Left-multiply the scaled_rows by the inverse of their constant term (when nonzero).

    Left multiples do not change the zero set, so the result solves the same problem
    with d0 in {0, 1}: (n+1, 4) rows, (d0, 0, 0, 0) first.  The power of two passes
    exactly through the inverse and products, so it shows only at d0 = 0.
    """
    if p.degree < 1:
        raise DegreeError("cannot normalize a constant polynomial")
    rows = scaled_rows(p)
    q0 = Quaternion(*rows[0].tolist())
    if abs(q0) <= TRIM_REL * _moduli(rows).max():
        d0, body = 0.0, rows[1:]
    else:
        d0, body = 1.0, _left_mul(q0.inverse(), rows[1:])
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


def is_spherical_root(values: np.ndarray, majorants: np.ndarray) -> np.ndarray:
    """Whether all four derived polynomials vanish, at each eta of an array.

    True means the whole conjugacy sphere of eta consists of zeros; False, that
    it holds one isolated zero.  |conj-f(eta)| is |f(conj eta)|, so the four are
    f1, f2 at eta and conj(eta): values and majorants are the Evaluator's p and
    sum |c_k||z|^k of the _stacked pair at [eta, conj(eta)], indexed [f][side].
    Each |f| is held against DEFAULT_TOLS.zero times its majorant, Horner's running
    error bound (Higham, ch. 5), which the Evaluator scales like the value.
    """
    return np.all(np.abs(values) <= DEFAULT_TOLS.zero * majorants, axis=(0, 1))


def _abs2(z: np.ndarray) -> np.ndarray:
    """|z|^2 rounded as abs(z) ** 2 rounds it for a Python complex: hypot, then pow."""
    return np.float_power(np.hypot(z.real, z.imag), 2.0)


def _conj_side_zero(pair, a: np.ndarray, b: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """(k, 4) rows of the zero on the sphere of each eta from a = f1(conj eta), b = f2(conj eta).

    It is w + cross*k, w = (|a|^2 eta + |b|^2 conj(eta)) / d and cross = 2 b conj(a) Im(eta) / d
    with d = |a|^2 + |b|^2, and (x + y*i)*k = -y*j + x*k.  Products are written out and
    rounded as for Python complexes; adding 0.0 turns a -0.0 component into 0.0.  A d at most
    (TRIM_REL * max|c|)^2, c the coefficients of the pair (f1, f2), raises
    BothDenominatorsZeroError: the sphere was misclassified.
    """
    sa, sb = _abs2(a), _abs2(b)
    d = sa + sb
    if (dead := d <= (TRIM_REL * max(pair[0].max_coeff(), pair[1].max_coeff())) ** 2).any():
        raise BothDenominatorsZeroError(
            f"both denominators vanished on the sphere of {eta[dead][0]}; classification bug")
    ar, ai, br, bi, er, ei = a.real, a.imag, b.real, b.imag, eta.real, eta.imag
    return np.stack([sa * er + sb * er, sa * ei - sb * ei,
                     -((2.0 * bi * ar - 2.0 * br * ai) * ei),
                     (2.0 * br * ar + 2.0 * bi * ai) * ei], axis=-1) / d[:, None] + 0.0


def isolated_zero(pair, eta, values: np.ndarray) -> np.ndarray:
    """(k, 4) rows of the single zero on the conjugacy sphere of each eta of a 1-D array.

    Two equivalent closed forms exist, one from f1, f2 at eta and one at
    conj(eta) (values as in is_spherical_root); each is _conj_side_zero on
    its side of the sphere.  Their denominators cannot both vanish, and the
    better conditioned (larger) one is used.  Where |eta| > 1 each value carries
    the Evaluator's factor 1/eta^n, which the closed form, homogeneous of degree 0
    in (f1, f2), cancels.
    """
    eta = np.asarray(eta, dtype=np.complex128)
    (f1e, f1c), (f2e, f2c) = values
    plus = _abs2(f1e) + _abs2(f2e) >= _abs2(f1c) + _abs2(f2c)
    return _conj_side_zero(pair, np.where(plus, f1e, f1c), np.where(plus, f2e, f2c),
                           np.where(plus, eta.conj(), eta))


def _isolated_zero_cofactor(g1: ComplexPolynomial, g2: ComplexPolynomial,
                            eta: np.ndarray) -> np.ndarray:
    """(k, 4) zeros from the gcd cofactors (the conj(eta) side of isolated_zero).

    Valid at each eta exactly as listed by the factored route; the representative
    must not be flipped, since the common-factor cancellation underlying the
    formula fails at the conjugate.
    """
    a, b = Evaluator(_stacked((g1, g2)))(eta.conj())[0]
    return _conj_side_zero((g1, g2), a, b, eta)


def _norm_zeros(pair, norm: ComplexPolynomial):
    """(reals, (k, 4) isolated rows, sphere representatives) from the roots of norm, the norm
    polynomial of the pair: its real roots are real zeros, and the representative eta of each
    conjugate pair is a sphere or, by the closed form on the pair, one isolated zero."""
    (reals, _), (eta, _) = classify_real(all_roots(norm))
    values, _, majorants = Evaluator(_stacked(pair))(np.stack([eta, eta.conj()]))
    sphere = is_spherical_root(values, majorants)
    return reals, isolated_zero(pair, eta[~sphere], values[..., ~sphere]), eta[sphere]


def solve_discriminant(p: SimplePolynomial) -> ZeroSet:
    """Full solution set via the roots of the discriminant polynomial."""
    pair = derived(normalize(p))
    return ZeroSet.build(*_norm_zeros(pair, discriminant(pair)))


def factor_g(pair):
    """Factor the derived pair (f1, f2) as (g*g1, g*g2) with g = gcd(f1, f2) monic.

    One gcd at tol = DEFAULT_TOLS.gcd.  When it has degree 0, or when dividing it out
    leaves a remainder beyond tol relative to f1 or f2 (the Euclidean gcd can overshoot
    on an ill-conditioned remainder sequence, where coefficient growth makes a later
    remainder look relatively zero), g is exactly 1 and the cofactors are the pair
    itself: solve_factored then finds every zero from the cofactor norm, D bit for bit.

    Returns (g, g1, g2).
    """
    f1, f2 = pair
    tol = DEFAULT_TOLS.gcd
    g = poly_gcd(f1, f2, tol)
    if g.degree >= 1:
        g1, r1 = f1.divrem(g)
        g2, r2 = f2.divrem(g)
        if (r1.coeff_norm() <= tol * max(f1.coeff_norm(), 1e-300)
                and r2.coeff_norm() <= tol * max(f2.coeff_norm(), 1e-300)):
            return g, g1, g2
    return ComplexPolynomial([1.0]), f1, f2  # exactly 1: monic's c / c[-1] need not round to 1


def solve_factored(p: SimplePolynomial) -> ZeroSet:
    """Solution set via the gcd factorization of the derived pair.

    Real zeros and zero-spheres come from g = gcd(f1, f2), and g's unpaired roots
    give isolated zeros by the cofactor closed form.  The cofactor norm
    discriminant((g1, g2)) holds every zero g misses; its conjugate pairs are placed
    as solve_discriminant places D's (_norm_zeros).  At g = 1 the cofactor norm is D, and the
    route builds solve_discriminant's set from its own pair.
    ZeroSet.build merges any root found twice.
    """
    pair = derived(normalize(p))
    g, g1, g2 = factor_g(pair)
    if g.degree < 1:  # the cofactor norm is D
        return ZeroSet.build(*_norm_zeros(pair, discriminant(pair)))
    return _factored_set(g, g1, g2)


def _d_route_sets(p: SimplePolynomial) -> tuple[ZeroSet, ZeroSet]:
    """(solve_discriminant(p), solve_factored(p)) from one derived pair; at g = 1 one object."""
    pair = derived(normalize(p))
    zs = ZeroSet.build(*_norm_zeros(pair, discriminant(pair)))
    g, g1, g2 = factor_g(pair)
    return zs, zs if g.degree < 1 else _factored_set(g, g1, g2)


def _factored_set(g, g1, g2) -> ZeroSet:
    """solve_factored's set at deg g >= 1, from g and the cofactor pair (g1, g2)."""
    (reals, _), (spheres, _), (eta, _) = pair_conjugates(all_roots(g).roots)
    isolated = _isolated_zero_cofactor(g1, g2, eta)
    gt = discriminant((g1, g2))
    if gt.degree >= 1:
        # a real root certifies a real zero (f1 and f2 vanish there) g missed to the gcd tolerance
        treals, more, tspheres = _norm_zeros((g1, g2), gt)
        reals, isolated = np.concatenate([reals, treals]), np.vstack([isolated, more])
        spheres = np.concatenate([spheres, tspheres])
    return ZeroSet.build(reals, isolated, spheres)


def solve_complex_coeffs(p: SimplePolynomial) -> ZeroSet:
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
    (reals, _), (spheres, _), (z, _) = pair_conjugates(all_roots(cp).roots)
    return ZeroSet.build(reals, np.column_stack([z.real, z.imag, np.zeros((len(z), 2))]), spheres)


def is_finite_zero_set(p: SimplePolynomial) -> bool:
    """Whether the zero set of p is finite: no nonreal conjugate pair is a common root
    of the derived polynomials, so solve_factored reports no sphere.

    This is the factored route's own verdict, so the two cannot disagree; it raises
    what solve_factored raises and costs one solve_factored call.
    """
    return not solve_factored(p).spherical
