import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from quatroots.quaternion import (ConjugacyClass, I, J, K, ONE, Quaternion,
                                  embed_complex, norms, split)

from conftest import qapprox, sigma

components = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
quaternions = st.builds(Quaternion, components, components, components, components)
# conjugacy spheres are spanned by nonreal quaternions only
nonreal_quaternions = quaternions.filter(lambda q: q.vec_norm() > 0.0)


def class_of(q: Quaternion) -> ConjugacyClass:
    return ConjugacyClass.from_complex(complex(q.re, q.vec_norm()))


# independent multiplication oracle: structure constants of the basis
_TABLE = {
    (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
    (1, 0): (1, 1), (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
    (2, 0): (1, 2), (2, 1): (-1, 3), (2, 2): (-1, 0), (2, 3): (1, 1),
    (3, 0): (1, 3), (3, 1): (1, 2), (3, 2): (-1, 1), (3, 3): (-1, 0),
}


def mul_oracle(p: Quaternion, q: Quaternion) -> Quaternion:
    out = [0.0, 0.0, 0.0, 0.0]
    for a, pa in enumerate(p.components()):
        for b, qb in enumerate(q.components()):
            sign, unit = _TABLE[(a, b)]
            out[unit] += sign * pa * qb
    return Quaternion(*out)


class TestMul:
    def test_i_times_j_is_k(self):
        assert I * J == K

    def test_identity(self):
        q = Quaternion(2, 3, -1, 1)
        assert q * ONE == q

    def test_one_plus_i_times_one_plus_j(self):
        # bilinear expansion: 1 + j + i + ij = 1 + i + j + k
        got = (ONE + I) * (ONE + J)
        assert got == Quaternion(1, 1, 1, 1)
        assert mul_oracle(ONE + I, ONE + J) == got

    def test_scalar_multiplication(self):
        assert 2 * I == Quaternion(0, 2) == I * 2

    @given(quaternions, quaternions)
    def test_matches_structure_constant_oracle(self, p, q):
        assert qapprox(p * q, mul_oracle(p, q), 1e-12)

    @given(quaternions, quaternions, quaternions)
    def test_associative(self, p, q, r):
        s = max(1.0, abs(p) * abs(q) * abs(r))
        assert abs((p * q) * r - p * (q * r)) <= 1e-10 * s

    @given(quaternions, quaternions, quaternions)
    def test_distributive(self, p, q, r):
        s = max(1.0, abs(p) * (abs(q) + abs(r)))
        assert abs(p * (q + r) - (p * q + p * r)) <= 1e-12 * s

    @given(quaternions, quaternions)
    def test_norm_multiplicative(self, p, q):
        s = max(1.0, abs(p) * abs(q))
        assert abs(abs(p * q) - abs(p) * abs(q)) <= 1e-12 * s

    @given(quaternions)
    def test_q_times_conjugate_is_norm_sq(self, q):
        prod = q * q.conjugate()
        assert abs(prod.a0 - q.norm_sq()) <= 1e-12 * max(1.0, q.norm_sq())
        assert prod.vec_norm() <= np.finfo(float).eps * 8 * max(1.0, q.norm_sq())


class TestNorms:
    def test_equal_abs_on_moderate_rows(self):
        rows = np.random.default_rng(9).uniform(-1e3, 1e3, size=(500, 4))
        rows[::7] *= 1e-100
        assert norms(rows).tolist() == [abs(Quaternion(*r)) for r in rows.tolist()]

    @pytest.mark.parametrize("row, expected", [
        ([1e200, 0.0, 0.0, 0.0], 1e200),
        ([0.0, 0.0, -1e200, 0.0], 1e200),
        ([3.0 * 2.0 ** 600, 4.0 * 2.0 ** 600, 0.0, 0.0], 5.0 * 2.0 ** 600),
        ([3e-200, 4e-200, 0.0, 0.0], 5e-200),
        ([0.0, 0.0, -3e-200, 4e-200], 5e-200),
        ([0.0, 0.0, 0.0, 0.0], 0.0),
    ])
    def test_neither_overflow_nor_underflow(self, row, expected):
        # abs(Quaternion) squares the components: inf above about 1e154 and 0
        # below about 1e-162
        got = norms(np.array([row, [1.0, 2.0, 2.0, 4.0]]))
        assert got.tolist() == [expected, 5.0]


class TestInverse:
    def test_unit_imaginary(self):
        assert qapprox(I.inverse(), -I, 1e-15)

    def test_real_scalar(self):
        assert qapprox(Quaternion(2).inverse(), Quaternion(0.5), 1e-15)

    def test_generic(self):
        q = Quaternion(1, 1, 1, 1)
        expected = Quaternion(0.25, -0.25, -0.25, -0.25)
        assert qapprox(q.inverse(), expected, 1e-15)
        assert qapprox(q * q.inverse(), ONE, 1e-12)

    def test_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            Quaternion().inverse()

    @given(quaternions)
    def test_product_is_one(self, q):
        if abs(q) < 1e-3:
            return
        assert abs(q * q.inverse() - ONE) <= 1e-12


class TestSplit:
    def test_k(self):
        assert split(K) == (0j, 1j)

    def test_j(self):
        assert split(J) == (0j, 1 + 0j)

    def test_generic(self):
        assert split(Quaternion(1, 2, 3, 4)) == (1 + 2j, 3 + 4j)

    @given(quaternions)
    def test_roundtrip_exact(self, q):
        z1, z2 = split(q)
        assert Quaternion(z1.real, z1.imag, z2.real, z2.imag) == q


class TestSigma:
    def test_real_is_diagonal(self):
        assert np.array_equal(sigma(ONE), np.eye(2))

    def test_j(self):
        assert np.array_equal(sigma(J), [[0j, 1 + 0j], [-1 + 0j, 0j]])

    def test_multiplicative_on_ij(self):
        assert np.allclose(sigma(I * J), sigma(I) @ sigma(J), atol=1e-15)

    @given(quaternions, quaternions)
    def test_homomorphism(self, p, q):
        assert np.array_equal(sigma(p + q), sigma(p) + sigma(q))
        s = max(1.0, abs(p) * abs(q))
        assert np.abs(sigma(p * q) - sigma(p) @ sigma(q)).max() <= 1e-12 * s

    @given(quaternions)
    def test_structure_and_determinant(self, q):
        m = sigma(q)
        assert m[1, 0] == -m[0, 1].conjugate()
        assert m[1, 1] == m[0, 0].conjugate()
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        assert abs(det - q.norm_sq()) <= 1e-12 * max(1.0, q.norm_sq())


class TestEmbedComplex:
    def test_i(self):
        assert embed_complex(1j) == I

    def test_generic(self):
        assert embed_complex(0.5 + 0.866j) == Quaternion(0.5, 0.866)

    @given(st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False))
    def test_conjugation_compatible(self, c):
        assert embed_complex(c.conjugate()) == embed_complex(c).conjugate()


class TestSameClass:
    """Conjugacy of two quaternions, decided by ConjugacyClass.contains."""

    def test_i_and_minus_i(self):
        assert class_of(I).contains(-I)

    def test_i_and_j(self):
        assert class_of(I).contains(J)
        # conjugation witness: q i q^-1 = j for q = (1 + k)/sqrt(2)
        q = (ONE + K) / math.sqrt(2)
        assert qapprox(q * I * q.inverse(), J, 1e-12)

    def test_real_vs_imaginary(self):
        assert not class_of(I).contains(ONE)

    @given(nonreal_quaternions)
    def test_reflexive(self, q):
        assert class_of(q).contains(q)

    @given(nonreal_quaternions, nonreal_quaternions)
    def test_symmetric(self, p, q):
        assert class_of(p).contains(q) == class_of(q).contains(p)

    def test_transitive_under_exact_ties(self):
        # members of one class share (Re, modulus) exactly by construction
        cls = ConjugacyClass.from_complex(0.5 + 2j)
        a, b, c = cls.sample(3)
        assert class_of(a).contains(b) and class_of(b).contains(c)
        assert class_of(a).contains(c)


class TestConjugacyClass:
    def test_requires_positive_imaginary(self):
        with pytest.raises(ValueError):
            ConjugacyClass(1.0 + 0j)
        with pytest.raises(ValueError):
            ConjugacyClass.from_complex(2.0 + 0j)

    def test_canonicalizes_sign(self):
        cls = ConjugacyClass.from_complex(1 - 2j)
        assert cls.representative == 1 + 2j

    def test_sample_first_direction(self):
        cls = ConjugacyClass.from_complex(1j)
        assert cls.sample(1) == [I]

    def test_sample_invariants(self):
        cls = ConjugacyClass.from_complex(1j)
        for q in cls.sample(3):
            assert abs(q.re) <= 1e-12
            assert abs(abs(q) - 1.0) <= 1e-12

    def test_samples_lie_in_class(self):
        cls = ConjugacyClass.from_complex(-0.3 + 1.7j)
        for q in cls.sample(25, seed=3):
            assert abs(q.re - cls.re) <= 1e-10 * max(1.0, cls.modulus)
            assert abs(abs(q) - cls.modulus) <= 1e-10 * max(1.0, cls.modulus)

    def test_sample_deterministic(self):
        cls = ConjugacyClass.from_complex(0.4 + 0.9j)
        assert cls.sample(7, seed=5) == cls.sample(7, seed=5)
        assert cls.sample(7, seed=5) != cls.sample(7, seed=6)

    def test_samples_of_unit_class_solve_x2_plus_1(self):
        # any member q with Re q = 0, |q| = 1 satisfies q^2 + 1 = 0
        cls = ConjugacyClass.from_complex(1j)
        for q in cls.sample(8):
            assert abs(q * q + ONE) <= 1e-12

    def test_contains(self):
        cls = ConjugacyClass.from_complex(1j)
        assert cls.contains(K)
        assert not cls.contains(ONE + K)
