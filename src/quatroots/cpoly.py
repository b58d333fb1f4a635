"""Dense univariate polynomial arithmetic over the complex numbers.

Coefficients are indexed by power with the constant term first.  The zero
polynomial is the empty coefficient list.  Supplies the evaluation, product,
division and tolerance-aware gcd that the quaternionic solvers are built on.
"""

from __future__ import annotations

import numpy as np

# relative magnitude below which a trailing coefficient counts as zero
TRIM_REL = 1e-30

DEFAULT_GCD_TOL = 1e-8


def _trim(arr: np.ndarray, rel: float = TRIM_REL) -> np.ndarray:
    """arr without its trailing entries at or below rel times the largest one."""
    mags = np.abs(arr)
    keep = np.nonzero(mags > rel * mags.max(initial=0.0))[0]
    return arr[: keep[-1] + 1] if keep.size else arr[:0]


def horner(c: np.ndarray, z: np.ndarray):
    """p(z), p'(z) and the majorant sum_k |c_k||z|^k; c[k] may be an array broadcasting on z."""
    p = np.full_like(z, c[-1])
    dp = np.zeros_like(z)
    az = np.abs(z)
    maj = np.full(z.shape, abs(c[-1]))
    for k in range(len(c) - 2, -1, -1):
        dp = dp * z + p
        p = p * z + c[k]
        maj = maj * az + abs(c[k])
    return p, dp, maj


def scaled_horner(c: np.ndarray, z: np.ndarray):
    """horner at z where |z| <= 1, and on the reversed polynomial at 1/z elsewhere.

    Returns (reversed, mask, u, horner's results) for each nonempty branch,
    u being the points Horner ran at.  The reversed value is p(z) / z^n with
    n = len(c) - 1: no power of z is formed and no degree overflows.  c of
    shape (n + 1, r) holds r polynomials padded to one degree.
    """
    z = np.asarray(z, dtype=np.complex128)
    coef = np.asarray(c, dtype=np.complex128)
    rows = coef.shape[1:]
    coef = coef[..., None] if rows else coef  # in a stack each c[k] broadcasts over points
    inner = np.abs(z) <= 1.0
    branches = ((False, inner, coef, z[inner]), (True, ~inner, coef[::-1], 1.0 / z[~inner]))
    return [(rev, mask, u, horner(cf, np.broadcast_to(u, rows + u.shape) if rows else u))
            for rev, mask, cf, u in branches if u.size]


def scaled_values(c: np.ndarray, z: np.ndarray) -> np.ndarray:
    """p(z) where |z| <= 1 and p(z) / z^n elsewhere: scaled_horner's values."""
    out = np.empty(np.shape(c)[1:] + np.shape(z), dtype=np.complex128)
    for _, mask, _, (p, _, _) in scaled_horner(c, z):
        out[..., mask] = p
    return out


class ComplexPolynomial:
    """Immutable dense polynomial with complex coefficients."""

    __slots__ = ("c",)

    def __init__(self, coeffs=()):
        arr = np.atleast_1d(np.asarray(tuple(coeffs), dtype=np.complex128)).ravel()
        arr = _trim(arr.copy())
        arr.setflags(write=False)
        self.c = arr

    @property
    def degree(self) -> int:
        """Highest power with nonzero coefficient; -1 for the zero polynomial."""
        return len(self.c) - 1

    @property
    def is_zero(self) -> bool:
        return len(self.c) == 0

    def coeff(self, k: int) -> complex:
        return complex(self.c[k]) if 0 <= k < len(self.c) else 0j

    def __call__(self, t):
        """Horner evaluation; accepts scalars or ndarrays."""
        c = self.c if len(self.c) else np.zeros(1, dtype=np.complex128)
        return horner(c, np.asarray(t, dtype=np.complex128))[0][()]

    def conj_coeffs(self) -> ComplexPolynomial:
        """Coefficient-wise complex conjugate (an involution)."""
        return ComplexPolynomial(np.conj(self.c))

    def derivative(self) -> ComplexPolynomial:
        if self.degree < 1:
            return ComplexPolynomial()
        return ComplexPolynomial(self.c[1:] * np.arange(1, len(self.c)))

    def real(self) -> ComplexPolynomial:
        """Drop imaginary parts of all coefficients."""
        return ComplexPolynomial(self.c.real)

    def __add__(self, other: ComplexPolynomial) -> ComplexPolynomial:
        a, b = self.c, other.c
        if len(a) < len(b):
            a, b = b, a
        out = a.copy()
        out[: len(b)] += b
        return ComplexPolynomial(out)

    def __sub__(self, other: ComplexPolynomial) -> ComplexPolynomial:
        return self + (-other)

    def __neg__(self) -> ComplexPolynomial:
        return ComplexPolynomial(-self.c)

    def __mul__(self, other):
        if isinstance(other, ComplexPolynomial):
            if self.is_zero or other.is_zero:
                return ComplexPolynomial()
            return ComplexPolynomial(np.convolve(self.c, other.c))
        if isinstance(other, (int, float, complex)):
            return ComplexPolynomial(self.c * other)
        return NotImplemented

    __rmul__ = __mul__

    def divrem(self, d: ComplexPolynomial) -> tuple[ComplexPolynomial, ComplexPolynomial]:
        """Quotient and remainder with deg(remainder) < deg(d)."""
        if d.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        if self.degree < d.degree:
            return ComplexPolynomial(), self
        r = np.array(self.c, dtype=np.complex128)
        dc = d.c
        dn = len(dc) - 1
        lead = dc[-1]
        q = np.zeros(len(r) - dn, dtype=np.complex128)
        for k in range(len(q) - 1, -1, -1):
            coef = r[k + dn] / lead
            q[k] = coef
            r[k: k + dn + 1] -= coef * dc
        return ComplexPolynomial(q), ComplexPolynomial(r[:dn])

    def monic(self) -> ComplexPolynomial:
        if self.is_zero:
            return self
        return ComplexPolynomial(self.c / self.c[-1])

    def coeff_norm(self) -> float:
        """Euclidean norm of the coefficient vector."""
        return float(np.linalg.norm(self.c)) if not self.is_zero else 0.0

    def max_coeff(self) -> float:
        return float(np.abs(self.c).max()) if not self.is_zero else 0.0

    def is_real_coeffs(self, tol: float = 1e-10) -> bool:
        """Every imaginary part at most tol times the largest coefficient."""
        if self.is_zero:
            return True
        return bool(np.abs(self.c.imag).max() <= tol * np.abs(self.c).max())

    def __repr__(self) -> str:
        return f"ComplexPolynomial(degree={self.degree}, coeffs={list(self.c)!r})"


def _strip_leading(p: ComplexPolynomial, rel: float) -> ComplexPolynomial:
    """Drop leading coefficients at or below rel times the largest coefficient.

    Remainders in the Euclidean sequence routinely carry roundoff junk in
    their top coefficients; normalizing by such junk blows the sequence up,
    so the working degree is decided at the gcd tolerance.
    """
    return ComplexPolynomial(_trim(p.c, rel))


def gcd(p: ComplexPolynomial, q: ComplexPolynomial,
        tol: float = DEFAULT_GCD_TOL) -> ComplexPolynomial:
    """Monic approximate gcd via the Euclidean remainder sequence.

    A remainder counts as zero once its coefficient norm drops below tol
    times the norm of the dividend at that step.  gcd(p, 0) is monic p.
    """
    if p.is_zero and q.is_zero:
        raise ValueError("gcd of two zero polynomials is undefined")
    # the degree decision applies to the inputs as well: a roundoff-level
    # leading coefficient would otherwise blow up the first normalization
    p = _strip_leading(p, tol)
    q = _strip_leading(q, tol)
    a, b = (p, q) if p.degree >= q.degree else (q, p)
    a = a.monic()
    b = b.monic()
    while not b.is_zero:
        r = _strip_leading(a.divrem(b)[1], tol)
        if not r.is_zero and r.coeff_norm() <= tol * a.coeff_norm():
            r = ComplexPolynomial()
        a, b = b, r.monic()
    return a


def gcd_many(ps, tol: float = DEFAULT_GCD_TOL) -> ComplexPolynomial:
    """Fold of pairwise gcd over a list of polynomials (monic result)."""
    nonzero = [p for p in ps if not p.is_zero]
    if not nonzero:
        raise ValueError("need at least one nonzero polynomial")
    acc = nonzero[0].monic()
    for p in nonzero[1:]:
        if acc.degree == 0:
            break
        acc = gcd(acc, p, tol)
    return acc
