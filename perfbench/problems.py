"""Seeded problem families and the per-workload problem pools.

Every input is a (degree + 1, 4) array of quaternion component rows,
constant term first, drawn from numpy's default generator seeded with the
workload seed.  Degrees follow a fixed schedule per workload, so two seeds
differ only in coefficients, never in problem sizes.

Families:
  general  Gaussian rows.
  sphere   a general polynomial times the real quadratic
           x^2 - 2a x + (a^2 + b^2); multiplying by a real polynomial
           convolves each component and puts the sphere Re a, modulus
           sqrt(a^2 + b^2) into the zero set.
  double   a general polynomial times (x - r)^2: r is a double real zero.
  complex  only the 1 and i components are nonzero.
  real     only the 1 component is nonzero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Problem:
    """One generated input and the zeros injected into it, if any."""

    pid: int
    family: str
    degree: int
    rows: np.ndarray
    sphere: tuple[float, float] | None = None  # (real part, modulus)
    double_root: float | None = None


def _times_real_factor(base: np.ndarray, factor: np.ndarray) -> np.ndarray:
    return np.stack([np.convolve(base[:, k], factor) for k in range(4)], axis=1)


def make_problem(rng: np.random.Generator, family: str, degree: int,
                 pid: int) -> Problem:
    """Draw one problem of the given family and degree from rng."""
    if family in ("general", "complex", "real"):
        rows = rng.standard_normal((degree + 1, 4))
        if family == "complex":
            rows[:, 2:] = 0.0
        elif family == "real":
            rows[:, 1:] = 0.0
        return Problem(pid, family, degree, rows)
    base = rng.standard_normal((degree - 1, 4))
    if family == "sphere":
        a = float(rng.uniform(-1.0, 1.0))
        b = float(rng.uniform(0.5, 1.5))
        rows = _times_real_factor(base, np.array([a * a + b * b, -2.0 * a, 1.0]))
        return Problem(pid, family, degree, rows, sphere=(a, math.hypot(a, b)))
    if family == "double":
        r = float(rng.uniform(-1.0, 1.0))
        rows = _times_real_factor(base, np.array([r * r, -2.0 * r, 1.0]))
        return Problem(pid, family, degree, rows, double_root=r)
    raise ValueError(f"unknown family {family!r}")


# Each workload's (family, degree) inputs, in the order the closed loop runs
# them, cycling.  The order is interleaved so that a run which stops part-way
# through a cycle is not biased towards small or large problems.
SCHEDULES = {
    # each of the 41 degrees 8..48 with each of the four families once, so
    # that problem times form a continuum rather than a few steps a quantile
    # could jump between
    "cli-compare": tuple(
        (("general", "sphere", "double", "complex")[i % 4], 8 + 17 * i % 41)
        for i in range(4 * 41)),
    # sixteen inputs solved over and over, one at each of 16 evenly spaced
    # degrees from 400 to 800, real and complex in turn: each distinct result
    # costs an audit of about 1 s (complex) to 15 s (real), which bounds how
    # many a run checks
    "complex-shortcut": tuple(
        (("real", "complex")[i % 2], 400 + round(400 * (7 * i % 16) / 15))
        for i in range(16)),
}


def build_pool(workload: str, seed: int) -> list[Problem]:
    """The workload's problems for this seed; the same seed gives the same pool."""
    rng = np.random.default_rng(seed)
    return [make_problem(rng, family, degree, pid=i)
            for i, (family, degree) in enumerate(SCHEDULES[workload])]
