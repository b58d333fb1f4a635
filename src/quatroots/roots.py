"""All-roots finder for dense complex polynomials.

Simultaneous Ehrlich-Aberth iteration started from Newton-polygon radius
estimates with golden-angle phases, followed by per-root Newton polishing,
then clustering of near-coincident roots into multiplicity entries.  all_roots
polishes each multiple root itself, as a simple root of a derivative
(polish_multiples).  Each Aberth step evaluates and moves the unconverged
roots only; converged ones stay frozen, and exact collisions are found by
sorting the roots.  The evaluation kernel gives a point the same value in any
batch, so a root is evaluated again only where it has moved: the polish starts
from Aberth's last evaluation, and the acceptance check evaluates a lone root
only when its polished residual does not already bound |p|.

Evaluation switches to the power-reversed polynomial at 1/z whenever |z| > 1,
so high degrees never overflow.  A root is accepted either when its step
shrinks below 1e-14*(1+|z|) or when its residual falls under the roundoff
noise floor of evaluation (multiple roots never reach the step criterion).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cpoly import BLOCK, ComplexPolynomial, Evaluator, TRIM_REL

MAX_ITERATIONS = 500
STEP_REL = 1e-14
CLUSTER_REL = 1e-6
RESIDUAL_REL = 1e-8
DEFAULT_REAL_TOL = 1e-5  # |Im| below which a root counts as real
_EPS = float(np.finfo(np.float64).eps)
_TINY = float(np.finfo(np.float64).tiny)
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


def _eval_state(ev: Evaluator, z: np.ndarray):
    """Newton correction p/p' and noise-relative residual |p(z)| / sum|c_k||z|^k.

    Both are computed without overflow for any |z|, and independently of the
    other points of z, by the evaluator ev of the polynomial.
    """
    z = np.asarray(z, dtype=np.complex128)
    inner, (p, dp, maj) = ev.branches(z)
    rev = ~inner  # the evaluator's reversed points, NaN included
    with np.errstate(divide="ignore", invalid="ignore"):  # at NaN
        u = np.divide(1.0, z, out=np.zeros_like(z), where=rev)
    # reversed: p, dp are q(u), q'(u) for q(u) = u^n p(1/u), so p/p' = z q/(n q - u q')
    den = np.where(rev, ev.n * p - u * dp, dp)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = p / den
    bad = ~np.isfinite(ratio)
    if bad.any():
        # stuck point (den == 0, overflow): take a small sideways step and let the next pass fix it
        ratio[bad] = 1e-6 * (1.0 + np.abs(z[bad])) * np.exp(0.7j)
    corr = np.where(rev, z * ratio, ratio)
    return corr, np.abs(p) / np.maximum(maj, _TINY)


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


def _aberth(c: np.ndarray, ev: Evaluator):
    """Ehrlich-Aberth iteration on c, evaluated by ev, that steps the unconverged roots only.

    Converged roots are frozen, so the iterates are those of stepping the whole set.
    Returns the roots, the converged mask and _eval_state at the roots, evaluating a
    root again only where it has moved since its last evaluation.
    """
    z = _initial_guesses(c)
    n = len(z)
    converged = np.zeros(n, dtype=bool)
    stale = np.ones(n, dtype=bool)  # moved since its last evaluation
    corr, rel = np.empty(n, dtype=np.complex128), np.empty(n)
    noise = 4.0 * len(c) * _EPS
    for _ in range(MAX_ITERATIONS):
        todo = stale & ~converged
        _refresh(ev, z, todo, corr, rel)
        stale &= ~todo
        converged[todo] |= rel[todo] <= noise
        if converged.all():
            break
        hit = _collisions(z)
        if hit.size:
            z[hit] += 1e-8 * (1.0 + np.abs(z[hit])) * np.exp(1j * _GOLDEN_ANGLE * (1 + hit))
            stale[hit] = True
            continue
        active = ~converged
        newton = corr[active]
        w = newton / (1.0 - newton * _aberth_sums(z, np.flatnonzero(active)))
        bad = ~np.isfinite(w)
        w[bad] = newton[bad]
        new = z[active] - w
        stale[active] |= _moved(new, z[active])
        z[active] = new
        converged[active] |= np.abs(w) <= STEP_REL * (1.0 + np.abs(new))
        if converged.all():
            break
    _refresh(ev, z, stale, corr, rel)
    return z, converged, (corr, rel)


def _refresh(ev: Evaluator, z: np.ndarray, todo: np.ndarray, corr: np.ndarray, rel: np.ndarray):
    """Write _eval_state(ev, z) into corr and rel at the points todo, if there are any."""
    if todo.any():
        corr[todo], rel[todo] = _eval_state(ev, z[todo])


def _moved(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Where the points a and b differ bit for bit; elsewhere b's state is a's."""
    return (a.view(np.uint64) != b.view(np.uint64)).reshape(len(a), 2).any(axis=1)


def _collisions(z: np.ndarray) -> np.ndarray:
    """Every i with z_i - z_j == 0 for some j != i (equal finite values), by one sort."""
    order = np.lexsort((z.imag, z.real))
    a = z[order]
    same = (a[1:] == a[:-1]) & np.isfinite(a[1:])
    if not same.any():
        return order[:0]
    return np.unique(np.concatenate([order[1:][same], order[:-1][same]]))


def _aberth_sums(z: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """sum_(j != i) 1/(z_i - z_j) for i in rows, BLOCK // len(z) rows at a time; z collision-free."""
    s = np.empty(len(rows), dtype=np.complex128)
    step = max(1, BLOCK // len(z))
    buf = np.empty((min(step, len(rows)), len(z)), dtype=np.complex128)  # one, worked in place
    for b in range(0, len(rows), step):
        r = rows[b:b + step]
        diff = np.subtract(z[r, None], z, out=buf[:len(r)])
        diff[np.arange(len(r)), r] = np.inf
        np.divide(1.0, diff, out=diff).sum(axis=1, out=s[b:b + step])
    return s


def _newton_polish(ev: Evaluator, z: np.ndarray, state, steps: int = 8):
    """A few guarded Newton steps per root from state = _eval_state(ev, z): the
    best-residual points and their residuals.  A point a step leaves in place keeps its state."""
    cur = z.copy()
    corr, rel = state
    best, best_rel = cur, rel
    for _ in range(steps):
        prev, cur = cur, cur - corr
        done = np.all(np.abs(corr) <= STEP_REL * (1.0 + np.abs(cur)))
        corr, rel = corr.copy(), rel.copy()
        _refresh(ev, cur, _moved(cur, prev), corr, rel)
        gain = rel < best_rel
        best = np.where(gain, cur, best)
        best_rel = np.where(gain, rel, best_rel)
        if done:
            break
    return best, best_rel


def _cluster(points: np.ndarray, radii: np.ndarray) -> list[tuple[complex, int]]:
    """Single-linkage merge of points closer than their merge radii into sorted (mean, count).

    The radius of a point is the larger of CLUSTER_REL*(1+|z|) and the caller's
    radii, which cover the roundoff noise ball a multiple root's iteration
    stalls in (multiple roots wander further than the base radius).
    """
    m = len(points)
    radii = np.maximum(CLUSTER_REL * (1.0 + np.abs(points)), radii)
    order = np.lexsort((points.imag, points.real))
    pts, rads = points[order], radii[order]
    band = rads.max(initial=0.0)
    # scan the sorted points at offsets k = 1, 2, ...: i links to i + k within the larger
    # radius, and leaves the scan at its first real gap over the band
    x, scan, k, links = pts.real, np.ones(m, dtype=bool), 1, [np.zeros((2, 0), dtype=np.intp)]
    while (scan := scan[:m - k] & ~(x[k:] - x[:-k] > band)).any():
        r = np.where(rads[k:] > rads[:-k], rads[k:], rads[:-k])
        h = (scan & (np.abs(pts[:-k] - pts[k:]) <= r)).nonzero()[0]
        links.append([h, h + k])
        k += 1
    (a, b), label, prev = np.concatenate(links, axis=1), np.arange(m), None
    while a.size and not np.array_equal(label, prev):  # down to the first point of the component
        prev = label.copy()
        np.minimum.at(label, b, label[a])
        np.minimum.at(label, a, label[b])
    first = (label == np.arange(m)).nonzero()[0]  # one per component, in sorted order
    size = np.bincount(label, minlength=m)[first]
    total = 0.0 + pts[first]  # Python's sum(members) / count: 0 + z_1 + z_2 + ..., complex / int
    if a.size:
        perm, start = np.argsort(label, kind="stable"), np.cumsum(size) - size
        for t in range(1, size.max()):
            more = size > t
            total[more] += pts[perm[start[more] + t]]
    tr, ti, mean = total.real, total.imag, np.empty(len(size), dtype=np.complex128)
    mean.real, mean.imag = (tr + ti * 0.0) / size, (ti - tr * 0.0) / size
    return _listed(mean, size)


def _listed(values: np.ndarray, mult: np.ndarray) -> list:
    """(value, multiplicity) pairs as Python scalars, stably sorted by (real, imag)."""
    o = np.lexsort((values.imag, values.real))
    return list(zip(values[o].tolist(), mult[o].tolist()))


def all_roots(p: ComplexPolynomial) -> RootList:
    """All deg(p) roots (with multiplicity) of a complex polynomial, multiple ones
    refined by polish_multiples.

    Raises NoConvergenceError with best-effort roots and residuals, before that
    refinement, when the iteration cannot meet the residual acceptance bound.
    """
    if p.degree < 1:
        raise ValueError("root finding needs degree >= 1")
    scale = float(np.abs(p.c).max())
    # exact roots at the origin: strip the (relatively) zero constant coefficients; the trim
    # of ComplexPolynomial leaves the leading one above the bar
    m0 = int(np.argmax(np.abs(p.c) > TRIM_REL * scale))
    c = p.c[m0:]
    found, stall = np.zeros(p.degree, dtype=np.complex128), np.zeros(p.degree)
    passed = np.zeros(p.degree, dtype=bool)
    ev = Evaluator(c)
    whole = ev if m0 == 0 else Evaluator(p.c)  # evaluates p itself
    if len(c) > 1:
        z, conv, state = _aberth(c, ev)
        z, rel = _newton_polish(ev, z, state)
        if not np.all((rel <= 4.0 * len(c) * _EPS) | conv):
            raise NoConvergenceError(
                f"{int((~conv).sum())} of {len(z)} roots unconverged after "
                f"{MAX_ITERATIONS} iterations",
                roots=list(z), residuals=list(np.abs(whole(z)[0])))
        # Aberth's last Newton correction measures each root's noise-ball size: at an m-fold
        # root it is about (z - r)/m; the polish keeps a point whose correction is far smaller
        found[m0:], stall[m0:] = z, np.abs(state[0])
        if m0 == 0:
            # c is p.c, so |p| = rel * majorant up to one rounding, and at |u| <= 1 the kernel's
            # majorant is sum|c_k| at most, up to rounding that 4 (n+1) eps covers
            bound = max(float(np.abs(c).sum()), _TINY) / scale * (1.0 + 4.0 * len(c) * _EPS)
            passed = rel * bound <= RESIDUAL_REL
    clusters = _cluster(found, radii=8.0 * stall)
    values, mult = map(np.array, zip(*clusters))
    # |p(z)| / max(1,|z|)^deg, relative to the largest coefficient, where a lone root's
    # polished residual does not already bound it
    check = (mult > 1) | ~np.isin(values, found[passed])
    if np.any(np.abs(whole(values[check])[0]) / scale > RESIDUAL_REL):
        raise NoConvergenceError("residual acceptance bound exceeded", roots=list(values),
                                 residuals=list(np.abs(whole(values)[0])))
    return polish_multiples(p, RootList(tuple(clusters)))


def polish_multiples(p: ComplexPolynomial, rl: RootList) -> RootList:
    """Refine every multiplicity >= 2 entry of a RootList.

    An m-fold root of p is a simple root of the (m-1)-th derivative, which
    Newton then resolves to machine precision, keeping the best residual seen.
    """
    out = []
    for v, m in rl.roots:
        g = p
        for _ in range(m - 1):
            g = g.derivative()
        if m >= 2 and g.degree >= 1:
            ev, z = Evaluator(g.c), np.array([v], dtype=np.complex128)
            v = complex(_newton_polish(ev, z, _eval_state(ev, z), steps=60)[0][0])
        out.append((v, m))
    return RootList(tuple(out))


def _partners(z: np.ndarray, targets: np.ndarray, tol: np.ndarray) -> np.ndarray:
    """The target each z takes, or -1: in turn, each takes the nearest (first of equals) that no
    earlier z took, if within tol.  All z look at once, with BLOCK entries of differences and
    distances at a time; if two want one target, the earlier takes it and the later look again."""
    j, ok = np.zeros(len(z), dtype=np.intp), np.zeros(len(z), dtype=bool)
    used, todo = np.zeros(len(targets), dtype=bool), np.arange(len(z) if len(targets) else 0)
    step, r = max(1, BLOCK // max(2 * len(targets), 1)), 0
    while len(todo):
        for rows in (todo[s:s + step] for s in range(0, len(todo), step)):
            dist = np.abs(targets - z[rows, None])
            dist[:, used] = np.inf
            j[rows], ok[rows] = dist.argmin(axis=1), ~(dist.min(axis=1) > tol[rows])
        take = r + ok[r:].nonzero()[0]
        jt, c = j[take], len(take)
        if np.bincount(jt).max(initial=0) > 1:  # c: the first z whose target an earlier one takes
            o = np.argsort(jt, kind="stable")
            c = o[1:][jt[o[1:]] == jt[o[:-1]]].min()
        used[jt[:c]] = True
        r = take[c] if c < len(take) else len(z)
        todo = r + (ok[r:] & used[j[r:]]).nonzero()[0]
    return np.where(ok, j, -1)


def pair_conjugates(roots, tol_real: float = DEFAULT_REAL_TOL):
    """Split (value, multiplicity) roots into reals, conjugate pairs and the rest.

    Roots with |Im| < tol_real snap to their real part.  Each root above the
    real axis, in turn, pairs with the nearest unused root below it whose conjugate
    lies within tol_real*(1+|z|); the pair is averaged to (z + conj(z'))/2,
    reported once with positive imaginary part, and carries the larger
    multiplicity.  Roots left without a partner are returned as found.

    Returns (reals, pairs, unpaired), each a sorted list of (value, m).
    """
    roots = list(roots)
    z = np.array([v for v, _ in roots], dtype=np.complex128)
    mult = np.array([m for _, m in roots], dtype=np.int64)
    real, upper = np.abs(z.imag) < tol_real, z.imag > 0
    up, down = (upper & ~real).nonzero()[0], (~(upper | real)).nonzero()[0]
    targets = z[down].conj()
    # |z| by hypot, as Python's abs(complex) takes it: np.abs can differ in the last bit,
    # which decides a partner lying on the edge of the reach
    j = _partners(z[up], targets, tol_real * (1.0 + np.hypot(z.real[up], z.imag[up])))
    k = j >= 0
    eta = 0.5 * (z[up[k]] + targets[j[k]])
    eta.imag = np.abs(eta.imag)
    mu, md = mult[up[k]], mult[down[j[k]]]
    left = np.concatenate([up[~k], down[np.bincount(j[k], minlength=len(down)) == 0]])
    return (_listed(z.real[real], mult[real]), _listed(eta, np.where(md > mu, md, mu)),
            _listed(z[left], mult[left]))


def classify_real(rl: RootList, tol_real: float = DEFAULT_REAL_TOL):
    """Split a real-coefficient polynomial's roots into reals and conjugate pairs.

    pair_conjugates without leftovers: an unpaired root raises
    UnpairedRootError, which signals root-finder failure upstream.
    """
    reals, pairs, unpaired = pair_conjugates(rl.roots, tol_real)
    if unpaired:
        raise UnpairedRootError(
            f"no conjugate partner for {[z for z, _ in unpaired]}")
    return reals, pairs
