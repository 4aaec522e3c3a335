"""Unitary frame construction: frame-built isometries."""

import numpy as np
import pytest

from oracles import random_horizontal, random_horizontal_unit, random_sphere_point
from pseudocp.errors import CausalCharacterError
from pseudocp.isometries import frame_to_isometry
from pseudocp.linalg import CausalCharacter, Signature, metric_signs, real_metric

SIG = Signature(3, 1)


def _form_defect(sig, m):
    eye = np.diag(metric_signs(sig.p, sig.ambient_dim))
    return float(np.max(np.abs(m.conj().T @ eye @ m - eye)))


class TestFrameToIsometry:
    def test_standard_position(self):
        q = np.zeros(4, dtype=complex)
        q[2] = 1.0
        eta = np.zeros(4, dtype=complex)
        eta[3] = 1.0
        m = frame_to_isometry(SIG, q, eta).entries
        assert np.allclose(m[:, 2], q)
        assert np.allclose(m[:, 3], eta)
        assert _form_defect(SIG, m) < 1e-12

    def test_random_spacelike_direction(self, rng):
        for _ in range(10):
            q = random_sphere_point(SIG, rng)
            eta = random_horizontal_unit(SIG, q, rng)
            iso = frame_to_isometry(SIG, q, eta)
            assert _form_defect(SIG, iso.entries) < 1e-10
            assert abs(np.linalg.det(iso.entries) - 1.0) < 1e-10
            assert np.allclose(iso.entries[:, SIG.n - 1], q)
            assert np.allclose(iso.entries[:, SIG.n], eta)

    def test_timelike_direction_lands_in_first_column(self, rng):
        """Timelike marked directions occupy the leading timelike slot."""
        q = random_sphere_point(SIG, rng)
        eta = random_horizontal_unit(SIG, q, rng, CausalCharacter.TIMELIKE)
        iso = frame_to_isometry(SIG, q, eta)
        assert np.allclose(iso.entries[:, 0], eta)
        gram = np.array(
            [
                [real_metric(SIG, iso.entries[:, a], iso.entries[:, b]) for b in range(4)]
                for a in range(4)
            ]
        )
        assert np.allclose(gram, np.diag(metric_signs(SIG.p, 4)), atol=1e-10)

    def test_lightlike_rejected(self, rng):
        q = random_sphere_point(SIG, rng)
        u = random_horizontal_unit(SIG, q, rng)
        while True:
            w = random_horizontal(SIG, q, rng)
            w = w - real_metric(SIG, w, u) * u  # remove the overlap with u
            gw = real_metric(SIG, w, w)
            if gw < -0.05 * np.sum(np.abs(w) ** 2):
                w = w / np.sqrt(-gw)
                break
        null = u + w
        assert abs(real_metric(SIG, null, null)) < 1e-9
        with pytest.raises(CausalCharacterError):
            frame_to_isometry(SIG, q, null)
