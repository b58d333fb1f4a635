"""All-roots finder for dense complex polynomials.

Simultaneous Ehrlich-Aberth iteration started from Newton-polygon radius
estimates with golden-angle phases, followed by per-root Newton polishing,
then clustering of near-coincident roots into multiplicity entries.

Evaluation switches to the power-reversed polynomial at 1/z whenever |z| > 1,
so high degrees never overflow.  A root is accepted either when its step
shrinks below 1e-14*(1+|z|) or when its residual falls under the roundoff
noise floor of evaluation (multiple roots never reach the step criterion).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cpoly import ComplexPolynomial, TRIM_REL, scaled_horner, scaled_values

MAX_ITERATIONS = 500
STEP_REL = 1e-14
CLUSTER_REL = 1e-6
RESIDUAL_REL = 1e-8
_EPS = float(np.finfo(np.float64).eps)
_GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))


class NoConvergenceError(RuntimeError):
    """Iteration failed to reach tolerance; carries best-effort results."""

    def __init__(self, message: str, roots=(), residuals=()):
        super().__init__(message)
        self.roots = list(roots)
        self.residuals = list(residuals)


class UnpairedRootError(RuntimeError):
    """A nonreal root of a real-coefficient polynomial has no conjugate twin."""


@dataclass(frozen=True)
class RootList:
    """Distinct root values with multiplicities; multiplicities sum to degree."""

    roots: tuple[tuple[complex, int], ...]
    source_degree: int


def _eval_state(c: np.ndarray, z: np.ndarray):
    """Newton correction p/p' and noise-relative residual |p(z)| / sum|c_k||z|^k.

    Both are computed without overflow for any |z| by cpoly.scaled_horner.
    """
    z = np.asarray(z, dtype=np.complex128)
    n = len(c) - 1
    corr = np.zeros_like(z)
    rel = np.zeros(z.shape, dtype=np.float64)
    for rev, mask, u, (p, dp, maj) in scaled_horner(c, z):
        zm = z[mask]
        # reversed: p, dp are q(u), q'(u) for q(u) = u^n p(1/u), so p/p' = z q/(n q - u q')
        corr[mask] = zm * _safe_ratio(p, n * p - u * dp, zm) if rev else _safe_ratio(p, dp, zm)
        rel[mask] = np.abs(p) / np.maximum(maj, np.finfo(np.float64).tiny)
    return corr, rel


def _safe_ratio(num: np.ndarray, den: np.ndarray, z: np.ndarray) -> np.ndarray:
    """num/den with stuck points (den == 0, overflow) nudged instead of left to blow up."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = num / den
    bad = ~np.isfinite(out)
    if bad.any():
        # critical point: take a small sideways step and let the next pass fix it
        out[bad] = 1e-6 * (1.0 + np.abs(z[bad])) * np.exp(0.7j)
    return out


def _newton_polygon_radii(c: np.ndarray) -> np.ndarray:
    """Per-root modulus estimates from the upper hull of (k, log|c_k|).

    Each hull segment from (k1, y1) to (k2, y2) contributes k2 - k1 roots of
    modulus roughly exp((y1 - y2) / (k2 - k1)).
    """
    mags = np.abs(c)
    idx = np.nonzero(mags > 0.0)[0]
    pts = [(int(k), math.log(mags[k])) for k in idx]
    hull: list[tuple[int, float]] = []
    for pt in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # keep slopes strictly decreasing along the upper hull
            if (y2 - y1) * (pt[0] - x2) <= (pt[1] - y2) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    radii = np.empty(len(c) - 1, dtype=np.float64)
    pos = 0
    for (k1, y1), (k2, y2) in zip(hull[:-1], hull[1:]):
        r = math.exp((y1 - y2) / (k2 - k1))
        radii[pos: pos + (k2 - k1)] = r
        pos += k2 - k1
    return radii


def _initial_guesses(c: np.ndarray) -> np.ndarray:
    n = len(c) - 1
    radii = _newton_polygon_radii(c)
    angles = 0.41 + _GOLDEN_ANGLE * np.arange(n)
    return radii * np.exp(1j * angles)


def _aberth(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    z = _initial_guesses(c)
    n = len(z)
    converged = np.zeros(n, dtype=bool)
    noise = 4.0 * len(c) * _EPS
    for _ in range(MAX_ITERATIONS):
        corr, rel = _eval_state(c, z)
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


def _newton_polish(c: np.ndarray, z: np.ndarray, steps: int = 8) -> np.ndarray:
    """A few guarded Newton steps per root; keeps the best residual seen."""
    best = z.copy()
    best_rel = np.full(z.shape, np.inf)
    cur = z.copy()
    for _ in range(steps):
        corr, rel = _eval_state(c, cur)
        gain = rel < best_rel
        best[gain] = cur[gain]
        best_rel = np.minimum(best_rel, rel)
        cur = cur - corr
        if np.all(np.abs(corr) <= STEP_REL * (1.0 + np.abs(cur))):
            break
    _, rel = _eval_state(c, cur)
    gain = rel < best_rel
    best[gain] = cur[gain]
    return best


def _cluster(points: np.ndarray, radii=None,
             rel: float = CLUSTER_REL) -> list[tuple[complex, int]]:
    """Greedy single-linkage merge of points closer than their merge radii.

    The radius of a point is rel*(1+|z|), enlarged by the caller for points
    whose iteration stalled in a roundoff noise ball (multiple roots of
    order three and higher wander further than the base radius).
    """
    m = len(points)
    base = rel * (1.0 + np.abs(points))
    radii = base if radii is None else np.maximum(base, radii)
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


def all_roots(p: ComplexPolynomial) -> RootList:
    """All deg(p) roots (with multiplicity) of a complex polynomial.

    Raises NoConvergenceError with best-effort roots and residuals when the
    iteration cannot meet the residual acceptance bound.
    """
    if p.degree < 1:
        raise ValueError("root finding needs degree >= 1")
    c = np.array(p.c, dtype=np.complex128)
    scale = float(np.abs(c).max())
    # exact roots at the origin: strip (relatively) zero constant coefficients
    m0 = 0
    while len(c) > 1 and abs(c[0]) <= TRIM_REL * scale:
        c = c[1:]
        m0 += 1
    found: list[complex] = [0j] * m0
    stall = [0.0] * m0
    if len(c) > 1:
        z, conv = _aberth(c)
        z = _newton_polish(c, z)
        corr, rel = _eval_state(c, z)
        if not conv.all():
            noise = 4.0 * len(c) * _EPS
            if not np.all((rel <= noise) | conv):
                raise NoConvergenceError(
                    f"{int((~conv).sum())} of {len(z)} roots unconverged after "
                    f"{MAX_ITERATIONS} iterations",
                    roots=list(z), residuals=list(np.abs(scaled_values(c, z))))
        found.extend(complex(v) for v in z)
        # the residual Newton correction measures each root's noise-ball size
        stall.extend(float(a) for a in np.abs(corr))
    clusters = _cluster(np.asarray(found, dtype=np.complex128),
                        radii=8.0 * np.asarray(stall))
    values = np.array([v for v, _ in clusters], dtype=np.complex128)
    # |p(z)| / max(1,|z|)^deg, relative to the largest coefficient
    residuals = np.abs(scaled_values(p.c, values))
    if np.any(residuals / scale > RESIDUAL_REL):
        raise NoConvergenceError("residual acceptance bound exceeded",
                                 roots=list(values), residuals=list(residuals))
    return RootList(tuple(clusters), p.degree)


def _newton_refine(g: ComplexPolynomial, z0: complex) -> complex:
    """Newton on g from z0, keeping the best residual seen (z0 if g is constant)."""
    if g.degree < 1:
        return z0
    z = _newton_polish(np.array(g.c, dtype=np.complex128),
                       np.array([z0], dtype=np.complex128), steps=60)
    return complex(z[0])


def polish_multiples(p: ComplexPolynomial, rl: RootList) -> RootList:
    """Refine every multiplicity >= 2 entry of a RootList.

    An m-fold root of p is a simple root of the (m-1)-th derivative, which
    Newton then resolves to machine precision.
    """
    out = []
    for v, m in rl.roots:
        if m >= 2:
            g = p
            for _ in range(m - 1):
                g = g.derivative()
            v = _newton_refine(g, v)
        out.append((v, m))
    return RootList(tuple(out), rl.source_degree)


def polished_roots(p: ComplexPolynomial) -> RootList:
    """all_roots(p) with its multiple roots refined by polish_multiples."""
    return polish_multiples(p, all_roots(p))


def pair_conjugates(roots, tol_real: float = 1e-5):
    """Split (value, multiplicity) roots into reals, conjugate pairs and the rest.

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


def classify_real(rl: RootList, tol_real: float = 1e-5):
    """Split a real-coefficient polynomial's roots into reals and conjugate pairs.

    pair_conjugates without leftovers: an unpaired root raises
    UnpairedRootError, which signals root-finder failure upstream.
    """
    reals, pairs, unpaired = pair_conjugates(rl.roots, tol_real)
    if unpaired:
        raise UnpairedRootError(
            f"no conjugate partner for {[z for z, _ in unpaired]}")
    return reals, pairs
