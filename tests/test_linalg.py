"""Indefinite metric, causal classification and pseudo-sphere membership."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pseudocp.errors import DimensionError, SpherePointError
from pseudocp.linalg import (
    CausalCharacter,
    Signature,
    causal_character,
    check_sphere_rows,
    hermitian_product,
    jmul,
    metric_signs,
    real_metric,
)

SIG = Signature(2, 1)


def _vec(*entries):
    return np.array(entries, dtype=complex)


class TestSignature:
    def test_valid_range(self):
        Signature(3, 1)
        Signature(3, 2)
        Signature(4, 2)

    @pytest.mark.parametrize("n,p", [(2, 0), (2, 2), (3, 3), (1, 1), (3, 0)])
    def test_invalid_range_rejected(self, n, p):
        with pytest.raises(ValueError):
            Signature(n, p)

    def test_derived_quantities(self):
        sig = Signature(4, 2)
        assert sig.ambient_dim == 5
        assert np.array_equal(sig.signs, [-1, -1, 1, 1, 1])


class TestHermitianProduct:
    def test_first_slot_carries_minus(self):
        assert hermitian_product(SIG, _vec(1, 0, 0), _vec(1, 0, 0)) == -1

    def test_positive_block(self):
        assert hermitian_product(SIG, _vec(0, 1, 0), _vec(0, 1, 0)) == 1

    def test_mixed_arguments(self):
        """Hand expansion of -z_1 conj(w_1)."""
        assert hermitian_product(SIG, _vec(1j, 0, 0), _vec(1, 0, 0)) == -1j

    def test_conjugate_symmetry(self, rng):
        for _ in range(20):
            z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            w = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            assert hermitian_product(SIG, z, w) == pytest.approx(
                np.conj(hermitian_product(SIG, w, z))
            )

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            hermitian_product(SIG, _vec(1, 0), _vec(1, 0))

    @given(theta=st.floats(-10, 10))
    @settings(max_examples=25, deadline=None)
    def test_phase_invariance(self, theta):
        """Multiplying both arguments by one phase leaves the product alone."""
        rng = np.random.default_rng(7)
        z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        w = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        ph = np.exp(1j * theta)
        assert hermitian_product(SIG, ph * z, ph * w) == pytest.approx(
            hermitian_product(SIG, z, w), abs=1e-12
        )


class TestRealMetric:
    def test_restates_hermitian_diagonal(self):
        assert real_metric(SIG, _vec(1, 0, 0), _vec(1, 0, 0)) == -1

    def test_real_part_of_imaginary_product(self):
        assert real_metric(SIG, _vec(1j, 0, 0), _vec(1, 0, 0)) == 0

    def test_orthogonal_by_symmetry(self):
        assert real_metric(SIG, _vec(0, 1, 1), _vec(0, 1, -1)) == 0

    def test_gram_signature(self):
        """Diagonalized real Gram matrix shows 2p minus and 2(n+1-p) plus."""
        sig = Signature(3, 2)
        dim = sig.ambient_dim
        basis = []
        for k in range(dim):
            e = np.zeros(dim, dtype=complex)
            e[k] = 1.0
            basis.extend([e, 1j * e])
        gram = np.array([[real_metric(sig, a, b) for b in basis] for a in basis])
        eig = np.linalg.eigvalsh(gram)
        assert int(np.sum(eig < 0)) == 2 * sig.p
        assert int(np.sum(eig > 0)) == 2 * (sig.n + 1 - sig.p)

    def test_complex_structure_is_isometry(self, rng):
        sig = Signature(3, 2)
        for _ in range(30):
            v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            w = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            assert real_metric(sig, jmul(v), jmul(w)) == pytest.approx(
                real_metric(sig, v, w), abs=1e-12
            )


class TestJmul:
    def test_basic(self):
        assert np.array_equal(jmul(np.array([1, 0])), [1j, 0])
        assert np.array_equal(jmul(np.array([1j, 2])), [-1, 2j])

    def test_square_is_minus_identity(self, rng):
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        assert np.allclose(jmul(jmul(v)), -v)

    def test_orthogonal_to_argument(self, rng):
        sig = Signature(3, 1)
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        assert real_metric(sig, jmul(v), v) == pytest.approx(0, abs=1e-12)


class TestCausalCharacter:
    def test_timelike_slot(self):
        assert causal_character(SIG, _vec(1, 0, 0)) is CausalCharacter.TIMELIKE

    def test_lightlike_sum(self):
        assert causal_character(SIG, _vec(1, 1, 0)) is CausalCharacter.LIGHTLIKE

    def test_zero_vector(self):
        assert causal_character(SIG, _vec(0, 0, 0)) is CausalCharacter.ZERO

    def test_spacelike(self):
        assert causal_character(SIG, _vec(0, 2, 1)) is CausalCharacter.SPACELIKE

    def test_relative_threshold_scales(self):
        v = 1e6 * _vec(1, 1 + 1e-12, 0)
        assert causal_character(SIG, v) is CausalCharacter.LIGHTLIKE


class TestSphereTangentProject:
    """Sphere membership of a base point, which projecting onto its tangent
    space presupposes."""

    def test_rejects_off_sphere_point(self):
        rows = np.array([_vec(0, 0, 1), _vec(1, 0, np.sqrt(2.0))])
        assert np.array_equal(check_sphere_rows(SIG, rows), rows)
        with pytest.raises(SpherePointError):
            check_sphere_rows(SIG, np.array([_vec(0, 0, 1), _vec(0, 0, 2)]))


def test_metric_signs_helper():
    assert np.array_equal(metric_signs(2, 5), [-1, -1, 1, 1, 1])
