import numpy as np
import pytest

from quatroots import SimplePolynomial
from quatroots.quaternion import I, J, K, ONE, Quaternion

SQRT2_2 = 0.7071067811865476


@pytest.fixture(scope="session")
def cubic_ijk() -> SimplePolynomial:
    """i x^3 + j x^2 + k x + 1: three isolated zeros, no spheres."""
    return SimplePolynomial([ONE, K, J, I])


@pytest.fixture(scope="session")
def cubic_real() -> SimplePolynomial:
    """x^3 + x^2 + x + 1: one real zero and one sphere."""
    return SimplePolynomial([1, 1, 1, 1])


@pytest.fixture(scope="session")
def degree6_mixed() -> SimplePolynomial:
    """z^6 + j z^5 + i z^4 - z^2 - j z - i: reals, isolated and a sphere."""
    return SimplePolynomial([-I, -J, Quaternion(-1.0), Quaternion(), I, J, ONE])


def random_simple_polynomials(count: int, max_degree: int = 8,
                              seed: int = 20260809) -> list[SimplePolynomial]:
    """Random integer-component inputs, the standard stress regime."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        n = int(rng.integers(1, max_degree + 1))
        rows = rng.integers(-5, 6, size=(n + 1, 4))
        while not np.any(rows[-1]):
            rows[-1] = rng.integers(-5, 6, size=4)
        out.append(SimplePolynomial.from_rows(rows))
    return out


@pytest.fixture(scope="session")
def random_corpus() -> list[SimplePolynomial]:
    return random_simple_polynomials(200)


@pytest.fixture(scope="session")
def corpus_solutions(random_corpus):
    """Solve the whole corpus once with all three routes; reused across tests."""
    import time

    from quatroots import solve_companion, solve_discriminant, solve_factored

    t0 = time.perf_counter()
    solved = []
    for p in random_corpus:
        solved.append((p, solve_discriminant(p), solve_factored(p),
                       solve_companion(p)))
    elapsed = time.perf_counter() - t0
    return solved, elapsed


def qapprox(a: Quaternion, b: Quaternion, tol: float = 1e-10) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def sigma(q: Quaternion) -> np.ndarray:
    """Embedding q = z1 + z2*j -> [[z1, z2], [-conj(z2), conj(z1)]], an oracle for q * p."""
    z1, z2 = complex(q.a0, q.a1), complex(q.a2, q.a3)
    return np.array([[z1, z2], [-z2.conjugate(), z1.conjugate()]])
