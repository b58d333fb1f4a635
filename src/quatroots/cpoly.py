"""Dense univariate polynomial arithmetic over the complex numbers.

Coefficients are indexed by power with the constant term first.  The zero
polynomial is the empty coefficient list.  Supplies the evaluation, division
and tolerance-aware gcd that the quaternionic solvers are built on.
Every evaluation is an Evaluator call on whole arrays: the Evaluator arranges
a polynomial's coefficients once, and each call runs one batch-independent
kernel with no loop over the coefficients: the first BABY powers of points
|u| <= 1 (u = 1/z on the reversed polynomial where |z| > 1), read by
contractions for the chunk sums of p, p' and sum |c_k||u|^k, which Horner's
rule in u^BABY joins.  scaled_horner is the one-shot form.
"""

from __future__ import annotations

import numpy as np

# relative magnitude below which a trailing coefficient counts as zero
TRIM_REL = 1e-30

DEFAULT_GCD_TOL = 1e-8
BLOCK = 1 << 16  # entries of the power or difference matrices the kernels form at a time
BABY = 128  # baby-step length of the evaluation kernel: below this degree it forms all powers


def _trim(arr: np.ndarray, rel: float = TRIM_REL) -> np.ndarray:
    """arr without its trailing entries at or below rel times the largest one."""
    mags = np.abs(arr)
    keep = np.nonzero(mags > rel * mags.max(initial=0.0))[0]
    return arr[: keep[-1] + 1] if keep.size else arr[:0]


class Evaluator:
    """(p, p', majorant) of fixed coefficients c at any points, the blocks of c and of its
    reversal arranged once.

    Where |z| <= 1 the values are those of p, p' and sum_k |c_k||z|^k at z.  Elsewhere they are
    the reversed polynomial q(u) = u^n p(1/u), its derivative and its majorant at u = 1/z, so
    the value there is p(z) / z^n with n = len(c) - 1: no power of z is formed and no degree
    overflows.  c of shape (n + 1, r) holds r polynomials padded to one degree.

    Baby and giant steps (Paterson-Stockmeyer): with B = min(BABY, n + 1) and
    H = ceil((n + 1) / B), p(u) = sum_h w^h q_h(u) for w = u^B and q_h the
    B-term chunks of c.  BLOCK // (B + H) points at a time, the baby powers
    u^l (l < B) are read by einsum contractions, which sum each point's terms
    in order of l, and the chunk sums by Horner's rule in w: a point's values do
    not depend on the other points of its batch (a matmul's would).  Below
    degree B there is one chunk, and the sums are those of the whole power matrix.
    """

    def __init__(self, c):
        c = np.asarray(c, dtype=np.complex128)
        n, self.shape, self.r = len(c) - 1, c.shape[1:], int(np.prod(c.shape[1:]))
        self.n, self.b = n, min(BABY, n + 1)
        self.h = h = -(-(n + 1) // self.b)
        # blocks of c, then of its reversal: the (2r*H, B) complex block of the rows of c and
        # k*c_k, zero-padded to H chunks of B, and the (r*H, B) block of |c|
        self.blocks = []
        for rows in (c.reshape(n + 1, -1).T, c[::-1].reshape(n + 1, -1).T):
            coef = np.zeros((2, self.r, h * self.b), dtype=np.complex128)
            coef[0, :, :n + 1] = rows
            np.multiply(rows[:, 1:], np.arange(1, n + 1), out=coef[1, :, :n])
            self.blocks.append((coef.reshape(-1, self.b), np.abs(coef[0]).reshape(-1, self.b)))

    def __call__(self, z):
        """(p, p', majorant) at every z, each of shape c.shape[1:] + z.shape."""
        return self.branches(z)[1]

    def branches(self, z):
        """(inner, (p, p', majorant)): inner is |z| <= 1, where c is read at z itself."""
        z = np.asarray(z, dtype=np.complex128)
        inner = np.abs(z) <= 1.0  # NaN is outer
        order = np.argsort(~inner, axis=None, kind="stable")
        k = int(np.count_nonzero(inner))
        u = z.ravel()[order]
        with np.errstate(divide="ignore", invalid="ignore"):  # at NaN
            u[k:] = 1.0 / u[k:]
        out = np.empty((3, self.r, z.size), dtype=np.complex128)
        out[..., order] = self.sums(u, k)
        return inner, tuple(v.reshape(self.shape + z.shape) for v in (out[0], out[1], out[2].real))

    def sums(self, u, k: int) -> np.ndarray:
        """The kernel's p, p' and majorant, shape (3, r, len(u)): of c at u[:k] and of its
        reversal at u[k:]."""
        b, h, r = self.b, self.h, self.r
        out = np.empty((3, r, len(u)), dtype=np.complex128)
        step = max(1, BLOCK // (b + h))
        for s in range(0, len(u), step):
            ub = u[s:s + step]
            baby = np.full((len(ub), b), ub[:, None], dtype=np.complex128)
            baby[:, 0] = 1.0
            np.cumprod(baby, axis=1, out=baby)
            w = baby[:, -1] * ub
            aw = np.abs(w)
            cut = min(max(k - s, 0), len(ub))
            for lo, hi, (coef, mags) in ((0, cut, self.blocks[0]), (cut, len(ub), self.blocks[1])):
                if lo == hi:
                    continue
                q = np.einsum("ib,jb->ji", baby[lo:hi], coef).reshape(2, r, h, -1)
                qa = np.einsum("ib,jb->ji", np.abs(baby[lo:hi]), mags).reshape(r, h, -1)
                p, a = q[:, :, -1], qa[:, -1]
                for j in range(h - 2, -1, -1):
                    p = p * w[lo:hi] + q[:, :, j]
                    a = a * aw[lo:hi] + qa[:, j]
                out[:2, :, s + lo:s + hi], out[2, :, s + lo:s + hi] = p, a
        return out


def scaled_horner(c: np.ndarray, z: np.ndarray):
    """(p, p', majorant) at every z, each of shape c.shape[1:] + z.shape: Evaluator(c)(z)."""
    return Evaluator(c)(z)


class ComplexPolynomial:
    """Immutable dense polynomial with complex coefficients."""

    __slots__ = ("c",)

    def __init__(self, coeffs=()):
        arr = _trim(np.array(coeffs, dtype=np.complex128, ndmin=1).ravel())
        arr.setflags(write=False)
        self.c = arr

    @property
    def degree(self) -> int:
        """Highest power with nonzero coefficient; -1 for the zero polynomial."""
        return len(self.c) - 1

    @property
    def is_zero(self) -> bool:
        return len(self.c) == 0

    def derivative(self) -> ComplexPolynomial:
        if self.degree < 1:
            return ComplexPolynomial()
        return ComplexPolynomial(self.c[1:] * np.arange(1, len(self.c)))

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

    def __repr__(self) -> str:
        return f"ComplexPolynomial(degree={self.degree}, coeffs={list(self.c)!r})"


def gcd(p: ComplexPolynomial, q: ComplexPolynomial,
        tol: float = DEFAULT_GCD_TOL) -> ComplexPolynomial:
    """Monic approximate gcd via the Euclidean remainder sequence.

    A remainder counts as zero once its coefficient norm drops below tol
    times the norm of the dividend at that step.  gcd(p, 0) is monic p.
    Remainders carry roundoff junk in their top coefficients, and normalizing
    by it blows the sequence up, so every degree, the inputs' included, is
    decided at tol: leading coefficients at or below tol times the largest go.
    """
    if p.is_zero and q.is_zero:
        raise ValueError("gcd of two zero polynomials is undefined")
    p = ComplexPolynomial(_trim(p.c, tol))
    q = ComplexPolynomial(_trim(q.c, tol))
    a, b = (p, q) if p.degree >= q.degree else (q, p)
    a = a.monic()
    b = b.monic()
    while not b.is_zero:
        r = ComplexPolynomial(_trim(a.divrem(b)[1].c, tol))
        if not r.is_zero and r.coeff_norm() <= tol * a.coeff_norm():
            r = ComplexPolynomial()
        a, b = b, r.monic()
    return a

