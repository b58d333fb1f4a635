"""Companion-polynomial method, kept as an independent cross-check.

This is the earlier route to the same zero sets: form the real companion
polynomial sum conj(q_j) q_k x^(j+k) of the monic-normalized input, take one
root z per conjugate pair, and decide its fate through the power
decomposition x^j = alpha_j x + beta_j, which rewrites p as A(x)x + B(x).
A vanishing v = conj(A(z)) B(z) marks a sphere of zeros; otherwise v points
at the single isolated zero on the sphere of z.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cpoly import ComplexPolynomial
from .quaternion import ConjugacyClass, Quaternion, embed_complex
from .roots import classify_real, polished_roots
from .solver import (DEFAULT_TOLS, DegreeError, SimplePolynomial, Tolerances,
                     ZeroSet)


class NonRealCompanionError(ArithmeticError):
    """A companion coefficient kept an imaginary residue (arithmetic bug)."""


@dataclass(frozen=True)
class PowerDecomposition:
    """alpha_j, beta_j with x^j = alpha_j x + beta_j for a fixed quaternion x."""

    alpha: tuple[float, ...]
    beta: tuple[float, ...]


def monic_normalized(p: SimplePolynomial) -> SimplePolynomial:
    """Left-multiply by the inverse of the leading coefficient."""
    return p.left_scaled(p.coeffs[-1].inverse())


def companion(p: SimplePolynomial, tol: float = 1e-10) -> ComplexPolynomial:
    """The polynomial sum b_k x^k with b_k = sum_j conj(q_j) q_(k-j).

    Every b_k is real for any quaternion coefficients.  Requires the monic
    normalization (leading coefficient 1).  Raises NonRealCompanionError if
    an imaginary residue survives, which would signal broken quaternion
    arithmetic rather than bad input.
    """
    qn = p.coeffs[-1]
    if abs(qn - Quaternion(1.0)) > 1e-12:
        raise ValueError("companion polynomial needs the monic normalization")
    n = p.degree
    sums = [Quaternion() for _ in range(2 * n + 1)]
    for j, qj in enumerate(p.coeffs):
        cj = qj.conjugate()
        for k, qk in enumerate(p.coeffs):
            sums[j + k] = sums[j + k] + cj * qk
    scale = max(abs(s) for s in sums)
    b = []
    for s in sums:
        if s.vec_norm() > tol * max(scale, 1e-300):
            raise NonRealCompanionError(
                f"imaginary residue {s.vec_norm():.3e} in companion coefficient")
        b.append(s.a0)
    return ComplexPolynomial(b)


def power_decomp(x: Quaternion, n: int) -> PowerDecomposition:
    """Run the two-term recurrence expressing powers of x linearly in x."""
    if n < 0:
        raise ValueError("need n >= 0")
    re2 = 2.0 * x.re
    m2 = x.norm_sq()
    alpha = [0.0]
    beta = [1.0]
    for _ in range(n):
        alpha.append(re2 * alpha[-1] + beta[-1])
        beta.append(-m2 * alpha[-2])
    return PowerDecomposition(tuple(alpha), tuple(beta))


def ab(p: SimplePolynomial, z: Quaternion) -> tuple[Quaternion, Quaternion]:
    """A(z), B(z) with p(z) = A(z) z + B(z)."""
    pd = power_decomp(z, p.degree)
    a = Quaternion()
    b = Quaternion()
    for qj, aj, bj in zip(p.coeffs, pd.alpha, pd.beta):
        a = a + qj * aj
        b = b + qj * bj
    return a, b


def solve_companion(p: SimplePolynomial,
                    tols: Tolerances = DEFAULT_TOLS) -> ZeroSet:
    """Full solution set via companion-polynomial roots.

    Each conjugate pair of companion roots contributes one zero: the value
    itself when real, the whole sphere when v = conj(A(z))B(z) vanishes, and
    otherwise the isolated zero Re z - (|Im z|/|w|)(v2 i + v3 j + v4 k) with
    |w| the modulus of the imaginary part of v.
    """
    if p.degree < 1:
        raise DegreeError("cannot solve a constant polynomial")
    pm = monic_normalized(p)
    reals, pairs = classify_real(polished_roots(companion(pm)), tols.real)
    real_zeros = [x for x, _ in reals]
    isolated: list[Quaternion] = []
    classes: list[ConjugacyClass] = []
    for eta, _ in pairs:
        a, b = ab(pm, embed_complex(eta))
        v = a.conjugate() * b
        s = sum(abs(q) * max(1.0, abs(eta)) ** j for j, q in enumerate(pm.coeffs))
        if abs(v) <= tols.zero * s * s:
            classes.append(ConjugacyClass.from_complex(eta))
            continue
        wnorm = v.vec_norm()
        if wnorm <= 1e-300 * abs(v):
            raise RuntimeError(
                f"nonzero v with vanishing imaginary part at {eta}; "
                "inconsistent companion root")
        f = abs(eta.imag) / wnorm
        isolated.append(Quaternion(eta.real, -f * v.a1, -f * v.a2, -f * v.a3))
    return ZeroSet.build(real_zeros, isolated, classes, tols.dedup)
