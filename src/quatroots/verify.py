"""Independent residual evaluation and zero-set auditing.

_eval_rows evaluates the original quaternionic polynomial by accumulating
powers with plain quaternion multiplication (the power step has hamilton's
roundings).  It shares no algorithm with the solver routes, only quaternion.py's
Hamilton product and norm, so it is the acceptance oracle.  audit runs it on one (k, 4)
array of all its points, each sphere's members broadcast from one direction
array, and a batched residual equals the one-point residual bit for bit: it
forms the terms q_j z^j of a block of j at once and adds them in order of j
(np.add.accumulate), the roundings of the term-by-term sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quaternion import Quaternion, hamilton, norms, rows, sphere_directions
from .solver import DEFAULT_TOLS, SimplePolynomial, ZeroSet

SAMPLES_PER_CLASS = 8  # sphere members audit evaluates per reported sphere
TERM_BLOCK = 1 << 16  # entries (points x powers) of the terms _eval_rows forms at a time
# term k of component i of hamilton(a, z) is a_k * _SIGNS[i, k] * z[_PERM[i, k]]
_PERM = np.array([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]])
_SIGNS = np.array([[1, -1, -1, -1], [1, 1, 1, -1], [1, -1, 1, 1], [1, 1, -1, 1]], dtype=float)


def _power_step(a: np.ndarray, zs: np.ndarray, out: np.ndarray) -> np.ndarray:
    """hamilton(a, z) of (4, k) components a into out, zs = _SIGNS[:, :, None] * z.T[_PERM]:
    ((t_i0 + t_i1) + t_i2) + t_i3 for t = a * zs, its roundings, as a - b is a + -b."""
    t = a * zs
    np.add(t[:, 0], t[:, 1], out=out)
    np.add(out, t[:, 2], out=out)
    return np.add(out, t[:, 3], out=out)


def _eval_rows(p: SimplePolynomial, z: np.ndarray) -> np.ndarray:
    """p(z) = sum q_j z^j for every row of the (k, 4) components z.

    Overflow gives inf or nan silently, as in Python float arithmetic.
    """
    q, zs = p.rows, _SIGNS[:, :, None] * z.T[_PERM]
    acc = np.array(Quaternion(1.0).components())[:, None]
    total = np.repeat(q[0][:, None], len(z), axis=1)
    step = max(1, TERM_BLOCK // max(1, len(z)))
    with np.errstate(over="ignore", invalid="ignore"):
        for qs in (q[j:j + step] for j in range(1, len(q), step)):
            terms = np.empty((4, len(qs) + 1, len(z)))
            terms[:, 0] = total
            for j in range(1, len(qs) + 1):
                acc = _power_step(acc, zs, terms[:, j])
            acc = acc.copy()  # terms is overwritten below
            terms[:, 1:] = hamilton(qs.T[:, :, None], terms[:, 1:])
            total = np.add.accumulate(terms, axis=1, out=terms)[:, -1].copy()
    return total.T


def residual(p: SimplePolynomial, z: Quaternion) -> float:
    return float(norms(_eval_rows(p, rows([z])))[0])


def _bound(coeff_sum: float, norm: float, degree: int) -> float:
    try:
        growth = max(1.0, norm) ** degree
    except OverflowError:
        growth = math.inf  # certifies nothing: residuals_ok rejects an inf bound
    return DEFAULT_TOLS.accept * coeff_sum * growth


@dataclass(frozen=True)
class ZeroSetDiff:
    """Unmatched entries from a pairwise zero-set comparison ("left"/"right")."""

    real: tuple[tuple[str, float], ...] = ()
    isolated: tuple[tuple[str, Quaternion], ...] = ()
    spherical: tuple[tuple[str, tuple[float, float]], ...] = ()

    def __bool__(self) -> bool:
        return bool(self.real or self.isolated or self.spherical)

    def describe(self) -> str:
        if not self:
            return "zero sets agree"
        lines = []
        for side, x in self.real:
            lines.append(f"unmatched real zero ({side}): {x:.12g}")
        for side, q in self.isolated:
            lines.append(f"unmatched isolated zero ({side}): {q}")
        for side, (re, mod) in self.spherical:
            lines.append(f"unmatched sphere ({side}): Re {re:.12g}, |.| {mod:.12g}")
        return "\n".join(lines)


@dataclass(frozen=True)
class VerificationReport:
    """Residuals of every reported zero plus the degree count of the zero classes."""

    entries: tuple[tuple[str, float, float], ...]  # (descriptor, residual, bound)
    max_residual: float
    bounds_ok: bool

    @property
    def residuals_ok(self) -> bool:
        # an overflowed (inf) bound certifies nothing, not even a finite residual
        return all(r <= limit < math.inf for _, r, limit in self.entries)

    @property
    def passed(self) -> bool:
        return self.residuals_ok and self.bounds_ok


@np.errstate(invalid="ignore")  # inf * 0 is NaN, as for Python floats
def audit(p: SimplePolynomial, zs: ZeroSet) -> VerificationReport:
    """Evaluate p at every reported zero and at SAMPLES_PER_CLASS members of every sphere,
    each residual against DEFAULT_TOLS.accept * sum |q_j| * max(1, |z|)^n.

    The points form one (k, 4) array; entries are named by kind and position ("sphere 1 member 5").

    Also checks the degree count: a real or isolated zero takes a linear factor and a sphere
    a real quadratic, so reals + isolated + 2 * spheres is at most the degree.
    """
    reals = np.zeros((len(zs.real_zeros), 4))
    reals[:, 0] = zs.real_zeros
    rep = np.array([c.representative for c in zs.spherical], dtype=complex)
    members = np.zeros((len(rep), SAMPLES_PER_CLASS, 4))
    members[..., 0] = rep.real[:, None]
    members[..., 1:] = rep.imag[:, None, None] * sphere_directions(SAMPLES_PER_CLASS)
    z = np.vstack([reals, rows(zs.isolated_zeros), members.reshape(-1, 4)])
    labels = ([f"real {k}" for k in range(len(reals))]
              + [f"isolated {k}" for k in range(len(zs.isolated_zeros))]
              + [f"sphere {k} member {t}" for k, t in np.ndindex(len(rep), SAMPLES_PER_CLASS)])
    residuals, moduli = norms(_eval_rows(p, z)).tolist(), norms(z).tolist()
    coeff_sum = sum(norms(p.rows).tolist())
    entries = tuple((label, r, _bound(coeff_sum, norm, p.degree))
                    for label, r, norm in zip(labels, residuals, moduli))
    bounds_ok = len(zs.real_zeros) + len(zs.isolated_zeros) + 2 * len(zs.spherical) <= p.degree
    max_residual = float(np.max(residuals, initial=0.0))  # NaN if any residual is NaN
    return VerificationReport(entries, max_residual, bounds_ok)


def _unmatched(left, right, dist: np.ndarray, tol: np.ndarray):
    """Greedy global-minimum matching; returns unmatched items per side.

    Each step matches the closest pair of unmatched items, the smallest
    (i, j) on ties, and stops at the first such pair farther apart than its
    tolerance.  Walking all pairs once in (distance, i, j) order and skipping
    those with a matched side makes the same steps in O(nm log nm).  A NaN
    distance sorts last and never matches.
    """
    n, m = dist.shape
    left_used, right_used = [False] * n, [False] * m
    if n and m:
        within = (dist <= tol).ravel().tolist()
        todo = min(n, m)
        for f in np.argsort(dist, axis=None, kind="stable").tolist():
            i, j = divmod(f, m)
            if left_used[i] or right_used[j]:
                continue
            if not within[f]:
                break
            left_used[i] = right_used[j] = True
            todo -= 1
            if not todo:
                break
    return ([x for x, used in zip(left, left_used) if not used],
            [x for x, used in zip(right, right_used) if not used])


def _pair_tolerances(a: np.ndarray, b: np.ndarray, tol: float) -> np.ndarray:
    """tol * max(1, a_i, b_j) for nonnegative sizes a, b."""
    return tol * np.maximum(np.maximum(1.0, a)[:, None], b[None, :])


def compare(zs1: ZeroSet, zs2: ZeroSet, tol: float = 1e-6) -> ZeroSetDiff:
    """Nearest-match the two zero sets category by category.

    Points match within tol * max(1, |a|, |b|) of |a - b|, spheres within
    tol * max(1, moduli) of the larger gap in real part or modulus.
    """
    ra = np.array(zs1.real_zeros, dtype=float)
    rb = np.array(zs2.real_zeros, dtype=float)
    qa, qb = rows(zs1.isolated_zeros), rows(zs2.isolated_zeros)
    sa = np.array([(c.re, c.modulus) for c in zs1.spherical], dtype=float).reshape(-1, 2)
    sb = np.array([(c.re, c.modulus) for c in zs2.spherical], dtype=float).reshape(-1, 2)
    with np.errstate(over="ignore", invalid="ignore"):
        real_d = np.abs(ra[:, None] - rb[None, :])
        real_t = _pair_tolerances(np.abs(ra), np.abs(rb), tol)
        iso_d = norms(qa[:, None, :] - qb[None, :, :])
        iso_t = _pair_tolerances(norms(qa), norms(qb), tol)
        gaps = np.abs(sa[:, None, :] - sb[None, :, :])
        sph_d = np.maximum(gaps[..., 0], gaps[..., 1])
        sph_t = _pair_tolerances(sa[:, 1], sb[:, 1], tol)
    lr, rr = _unmatched(zs1.real_zeros, zs2.real_zeros, real_d, real_t)
    li, ri = _unmatched(zs1.isolated_zeros, zs2.isolated_zeros, iso_d, iso_t)
    ls, rs = _unmatched(zs1.spherical, zs2.spherical, sph_d, sph_t)
    return ZeroSetDiff(
        real=tuple([("left", x) for x in lr] + [("right", x) for x in rr]),
        isolated=tuple([("left", q) for q in li] + [("right", q) for q in ri]),
        spherical=tuple([("left", (c.re, c.modulus)) for c in ls]
                        + [("right", (c.re, c.modulus)) for c in rs]))
