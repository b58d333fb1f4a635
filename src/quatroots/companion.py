"""Companion-polynomial method, kept as an independent cross-check.

This is the earlier route to the same zero sets (Janovská & Opfer): form the
real companion polynomial sum conj(q_j) q_k x^(j+k) of the monic-normalized
input, take one root z per conjugate pair, and decide its fate through the
power decomposition x^j = alpha_j x + beta_j, which rewrites p as
A(x)x + B(x).  A vanishing v = conj(A(z)) B(z) marks a sphere of zeros;
otherwise v points at the single isolated zero on the sphere of z.  All of
it runs on (n+1, 4) component arrays, for every pair representative at once.
"""

from __future__ import annotations

import numpy as np

from .cpoly import ComplexPolynomial
from .quaternion import ConjugacyClass, Quaternion, hamilton, norms
from .roots import all_roots, classify_real
from .solver import (DEFAULT_TOLS, BothDenominatorsZeroError, DegreeError, SimplePolynomial,
                     Tolerances, ZeroSet, norm_polynomial)

_CONJ = np.array([1.0, -1.0, -1.0, -1.0])


def monic_normalized(p: SimplePolynomial) -> SimplePolynomial:
    """Left-multiply by the inverse of the leading coefficient."""
    return p.left_scaled(Quaternion(*p.rows[-1].tolist()).inverse())


def companion(p: SimplePolynomial) -> ComplexPolynomial:
    """The real polynomial sum b_k x^k with b_k = sum_j <q_j, q_(k-j)>: norm_polynomial of
    the rows, the sums that also form the discriminant route's D.  Requires the monic
    normalization (leading coefficient 1).
    """
    if norms(p.rows[-1:] - (1.0, 0.0, 0.0, 0.0))[0] > 1e-12:
        raise ValueError("companion polynomial needs the monic normalization")
    return ComplexPolynomial(norm_polynomial(p.rows))


def power_decomp(x, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(alpha, beta), each of shape (n + 1,) + x.shape, with x^j = alpha[j] x + beta[j].

    Only Re x and |x| enter: a quaternion q decomposes as complex(q.re, q.vec_norm()).
    """
    if n < 0:
        raise ValueError("need n >= 0")
    x = np.asarray(x, dtype=complex)
    re2, m2 = 2.0 * x.real, x.real * x.real + x.imag * x.imag
    alpha, beta = np.zeros((n + 1,) + x.shape), np.ones((n + 1,) + x.shape)
    for j in range(n):
        alpha[j + 1] = re2 * alpha[j] + beta[j]
        beta[j + 1] = -m2 * alpha[j]
    return alpha, beta


def ab(p: SimplePolynomial, eta) -> tuple[np.ndarray, np.ndarray]:
    """(..., 4) components of A, B with p(eta) = A eta + B, divided by r^n, r = max(1, |eta|).

    eta^j = r^(j-1) alpha_j(x) eta + r^j beta_j(x) with x = eta / r, so after the
    division no power of r exceeds 1.  For |eta| <= 1 the divisor is exactly 1.
    """
    eta = np.asarray(eta, dtype=complex)
    r = np.maximum(1.0, np.abs(eta))
    alpha, beta = power_decomp(np.where(r > 1.0, eta / r, eta), p.degree)
    a = b = np.zeros(eta.shape + (4,))
    for j, qj in enumerate(p.rows):
        a = a + qj * (alpha[j] * r ** (j - 1 - p.degree))[..., None]
        b = b + qj * (beta[j] * r ** (j - p.degree))[..., None]
    return a, b


def solve_companion(p: SimplePolynomial,
                    tols: Tolerances = DEFAULT_TOLS) -> ZeroSet:
    """Full solution set via companion-polynomial roots.

    Each conjugate pair of companion roots contributes one zero: the value
    itself when real, the whole sphere when v = conj(A(z))B(z) vanishes, and
    otherwise the isolated zero Re z - (|Im z|/|w|)(v2 i + v3 j + v4 k) with
    |w| the modulus of the imaginary part of v.  The test |v| <= tol_zero s^2,
    s = sum |q_j| max(1, |z|)^j, and the zero are homogeneous in v, so both
    read ab's scaled values, s scaled to match.
    """
    if p.degree < 1:
        raise DegreeError("cannot solve a constant polynomial")
    pm = monic_normalized(p)
    reals, pairs = classify_real(all_roots(companion(pm)), tols.real)
    eta = np.array([z for z, _ in pairs], dtype=complex)
    a, b = ab(pm, eta)
    v = np.stack(hamilton((a * _CONJ).T, b.T), axis=-1)
    r = np.maximum(1.0, np.abs(eta))
    s = sum(m * r ** (j - pm.degree) for j, m in enumerate(norms(pm.rows).tolist()))
    vnorm, wnorm = norms(v), norms(v[:, 1:])
    sphere = vnorm <= tols.zero * s * s
    stuck = ~sphere & (wnorm <= 1e-300 * vnorm)
    if stuck.any():
        raise BothDenominatorsZeroError(f"nonzero v with vanishing imaginary part at "
                                        f"{complex(eta[stuck][0])}; inconsistent companion root")
    f = np.abs(eta.imag[~sphere]) / wnorm[~sphere]
    isolated = np.column_stack([eta.real[~sphere], -f[:, None] * v[~sphere, 1:]])
    classes = [ConjugacyClass.from_complex(z) for z in eta[sphere].tolist()]
    return ZeroSet.build([x for x, _ in reals], isolated, classes)
