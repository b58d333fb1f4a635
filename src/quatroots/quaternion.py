"""Quaternion arithmetic, the complex-pair view, and conjugacy classes.

A quaternion a0 + a1*i + a2*j + a3*k is also handled as a pair of complex
numbers, (a0 + a1*i) + (a2 + a3*i)*j.  That decomposition is what lets the
polynomial solvers move between quaternionic and complex arithmetic.

Everything here is immutable and side-effect free.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

_GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))


@dataclass(frozen=True, slots=True)
class Quaternion:
    """Element of the real quaternion algebra.

    Components along 1, i, j, k.  Products follow i*j = -j*i = k,
    j*k = -k*j = i, k*i = -i*k = j and i*i = j*j = k*k = -1.
    """

    a0: float = 0.0
    a1: float = 0.0
    a2: float = 0.0
    a3: float = 0.0

    def components(self) -> tuple[float, float, float, float]:
        return (self.a0, self.a1, self.a2, self.a3)

    @property
    def re(self) -> float:
        """Real part."""
        return self.a0

    def conjugate(self) -> Quaternion:
        return Quaternion(self.a0, -self.a1, -self.a2, -self.a3)

    def norm_sq(self) -> float:
        return self.a0 * self.a0 + self.a1 * self.a1 + self.a2 * self.a2 + self.a3 * self.a3

    def __abs__(self) -> float:
        return math.sqrt(self.norm_sq())

    def __add__(self, other: Quaternion) -> Quaternion:
        if not isinstance(other, Quaternion):
            return NotImplemented
        return Quaternion(self.a0 + other.a0, self.a1 + other.a1,
                          self.a2 + other.a2, self.a3 + other.a3)

    def __sub__(self, other: Quaternion) -> Quaternion:
        if not isinstance(other, Quaternion):
            return NotImplemented
        return Quaternion(self.a0 - other.a0, self.a1 - other.a1,
                          self.a2 - other.a2, self.a3 - other.a3)

    def __neg__(self) -> Quaternion:
        return Quaternion(-self.a0, -self.a1, -self.a2, -self.a3)

    def __mul__(self, other):
        if isinstance(other, Quaternion):
            return Quaternion(*hamilton(self.components(), other.components()))
        if isinstance(other, (int, float)):
            return Quaternion(self.a0 * other, self.a1 * other,
                              self.a2 * other, self.a3 * other)
        return NotImplemented

    # only a non-quaternion left operand gets here: real scalars commute
    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return Quaternion(self.a0 / other, self.a1 / other,
                              self.a2 / other, self.a3 / other)
        return NotImplemented

    def inverse(self) -> Quaternion:
        """Multiplicative inverse conj(q) / |q|^2, within 4 ulp of the exact value.

        Each component is (a / s) / (|q / s|^2 * s), s the power of two just above
        the largest |a|: both scalings are exact, and nothing underflows.  It is
        conj(q) / q.norm_sq() bit for bit where no nonzero a^2 is subnormal.
        Raises ZeroDivisionError for the zero quaternion.
        """
        s = math.ldexp(1.0, math.frexp(max(abs(a) for a in self.components()))[1])
        q = self / s
        d = q.norm_sq() * s
        return Quaternion(q.a0 / d, -q.a1 / d, -q.a2 / d, -q.a3 / d)

    def __str__(self) -> str:
        parts = []
        for value, unit in zip(self.components(), ("", "i", "j", "k")):
            if value == 0.0:
                continue
            mag = f"{abs(value):.12g}"
            if unit and mag == "1":
                mag = ""
            if not parts:
                parts.append(f"{'-' if value < 0 else ''}{mag}{unit}")
            else:
                parts.append(f" {'-' if value < 0 else '+'} {mag}{unit}")
        return "".join(parts) if parts else "0"


def hamilton(p, q):
    """The Hamilton product p * q of component 4-tuples of floats or of row arrays."""
    p0, p1, p2, p3 = p
    q0, q1, q2, q3 = q
    return (p0 * q0 - p1 * q1 - p2 * q2 - p3 * q3,
            p0 * q1 + p1 * q0 + p2 * q3 - p3 * q2,
            p0 * q2 - p1 * q3 + p2 * q0 + p3 * q1,
            p0 * q3 + p1 * q2 - p2 * q1 + p3 * q0)


def rows(qs) -> np.ndarray:
    """The (k, 4) component array of k quaternions."""
    return np.array([q.components() for q in qs], dtype=float).reshape(-1, 4)


def norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm over the last axis: |q| of (..., 4) components, |Im q| of (..., 3).

    The squares add in order, as in abs(Quaternion); rows where that sum of finite
    squares overflows or is not normal take math.hypot, which does neither.
    """
    with np.errstate(over="ignore"):
        s = sum(x[..., c] * x[..., c] for c in range(x.shape[-1]))
    out = np.sqrt(s)
    bad = (s < np.finfo(float).tiny) | (s == math.inf)
    out[bad] = [math.hypot(*row) for row in x[bad].tolist()]
    return out


def embed_complex(c: complex) -> Quaternion:
    """Embed a complex number along the i axis."""
    c = complex(c)
    return Quaternion(c.real, c.imag, 0.0, 0.0)


@functools.lru_cache(maxsize=16)  # bounded: ConjugacyClass.sample passes any n
def sphere_directions(n: int) -> np.ndarray:
    """(n, 3) unit vectors spread over the 2-sphere, read-only and formed once per n.

    Deterministic: the first direction is always (1, 0, 0); the rest follow a
    golden-angle spiral.
    """
    dirs = [(1.0, 0.0, 0.0)]
    for m in range(1, n):
        cos_t = 1.0 - 2.0 * (m + 0.5) / n
        sin_t = math.sqrt(max(0.0, 1.0 - cos_t * cos_t))
        phi = m * _GOLDEN_ANGLE
        dirs.append((cos_t, sin_t * math.cos(phi), sin_t * math.sin(phi)))
    out = np.array(dirs)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, slots=True)
class ConjugacyClass:
    """A sphere of mutually conjugate quaternions.

    Canonically represented by the complex member with positive imaginary
    part; all members share its real part and modulus.
    """

    representative: complex

    def __post_init__(self):
        if not self.representative.imag > 0.0:
            raise ValueError("class representative must have Im > 0")

    @classmethod
    def from_complex(cls, c: complex) -> ConjugacyClass:
        c = complex(c)
        if c.imag == 0.0:
            raise ValueError("a real number does not span a conjugacy sphere")
        return cls(complex(c.real, abs(c.imag)))

    @property
    def re(self) -> float:
        return self.representative.real

    @property
    def modulus(self) -> float:
        return abs(self.representative)

    def sample(self, n: int) -> list[Quaternion]:
        """n members of the class, imaginary directions spread over the sphere."""
        if n < 1:
            raise ValueError("need at least one sample")
        v = self.representative.imag
        return [Quaternion(self.re, v * d1, v * d2, v * d3)
                for d1, d2, d3 in sphere_directions(n).tolist()]

    def __str__(self) -> str:
        return f"[Re {self.re:.12g}, |.| {self.modulus:.12g}]"

