"""Closed-form identities of the four built-in hypersurface families."""

import numpy as np
import pytest

from pseudocp import ruled
from pseudocp.config import RunConfig
from pseudocp.curves import case_c1_curve, case_c2_curve, model_circle_curve, sampled_curve_from_fn
from pseudocp.errors import DomainError
from pseudocp.examples import (
    CURVE_STEP,
    EXAMPLE_IDS,
    S_RANGE,
    example_fields,
    example_integral_curve,
    example_map,
    example_spec,
    gamma_seed,
    generator_lines,
    ruling_isometry,
)
from pseudocp.linalg import Signature, jmul, metric_signs, real_metric
from pseudocp.projective import sphere_geodesic
from pseudocp.ruled import (
    MinimalCase,
    TransformedPatch,
    shape_operator_at,
    transport_basis,
)


def _random_seed_tangent(spec, rng):
    """Random tangent of the seed sphere at the family instance's seed point."""
    signs = spec.ruling.seed_signs
    z = spec.seed_z
    while True:
        x = rng.standard_normal(spec.sig.n) + 1j * rng.standard_normal(spec.sig.n)
        g = float(np.real(np.sum(signs * x * np.conj(z))))
        x = x - g * np.asarray(z) * np.array(1.0)
        # remove the real metric overlap only: tangency needs Re g(x, z) = 0
        g2 = float(np.real(np.sum(signs * x * np.conj(z))))
        if abs(g2) < 1e-10:
            return x


class TestExampleMap:
    def test_direct_substitution(self):
        z = np.zeros(3, dtype=complex)
        z[2] = 1.0
        out = example_map(example_spec(1, seed_z=z), 0.0)
        assert np.allclose(out, [0, 0, 1, 0])

    def test_family_two_at_zero(self):
        spec = example_spec(2)
        out = example_map(spec, 0.0)
        assert np.allclose(out[:4], spec.seed_z)
        assert out[4] == 0

    @pytest.mark.parametrize("ex", EXAMPLE_IDS)
    def test_image_on_sphere(self, ex, rng):
        spec = example_spec(ex)
        for t in rng.uniform(-1.0, 1.0, size=8):
            w = example_map(spec, float(t))
            assert abs(real_metric(spec.sig, w, w) - 1.0) < 1e-12

    def test_domain_violations(self):
        bad = np.zeros(3, dtype=complex)
        bad[1] = np.sqrt(2)
        bad[0] = 1.0  # on the sphere but with vanishing ruled slot
        with pytest.raises(DomainError):
            example_spec(1, seed_z=bad)
        with pytest.raises(DomainError):
            example_spec(1, seed_z=np.array([1.0, 1.0, 2.0]))  # off the sphere

    def test_constraint_validation(self):
        with pytest.raises(DomainError):
            example_spec(2, sig=Signature(3, 1))  # family two needs n >= 4
        with pytest.raises(DomainError):
            example_spec(4, sig=Signature(3, 1))  # families 3, 4 need p >= 2

    def test_seed_array_is_copied(self):
        z = gamma_seed(Signature(3, 1), 0.3)
        spec = example_spec(1, seed_z=z)
        assert z.flags.writeable
        assert not spec.seed_z.flags.writeable
        z[0] = 0.0
        assert spec.seed_z[0] == 1.0


class TestRulingIsometry:
    @pytest.mark.parametrize("ex", EXAMPLE_IDS)
    def test_matrix_invariants(self, ex, rng):
        spec = example_spec(ex)
        eye = np.diag(metric_signs(spec.sig.p, spec.sig.ambient_dim))
        for t in rng.uniform(-1.5, 1.5, size=5):
            m = ruling_isometry(spec, float(t)).entries
            assert np.max(np.abs(m.conj().T @ eye @ m - eye)) < 1e-12
            assert abs(np.linalg.det(m) - 1.0) < 1e-12

    @pytest.mark.parametrize("ex", EXAMPLE_IDS)
    def test_translates_the_slices(self, ex):
        spec = example_spec(ex)
        for t, u in ((0.3, 0.2), (-0.7, 0.45)):
            lhs = ruling_isometry(spec, t).entries @ example_map(spec, u)
            rhs = example_map(spec, u + t)
            assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestExampleFields:
    @pytest.mark.parametrize("ex", EXAMPLE_IDS)
    def test_normal_units_and_signs(self, ex):
        spec = example_spec(ex)
        fields = example_fields(spec, 0.2)
        g = real_metric(spec.sig, fields.n_hat, fields.n_hat)
        assert g == pytest.approx(fields.epsilon, abs=1e-12)
        want = 1.0 if ex in (1, 2) else -1.0
        assert fields.epsilon == want

    @pytest.mark.parametrize("ex", EXAMPLE_IDS)
    def test_normal_is_horizontal_and_normal(self, ex, rng):
        spec = example_spec(ex)
        t = 0.17
        fields = example_fields(spec, t)
        w = example_map(spec, t)
        sig = spec.sig
        assert abs(real_metric(sig, fields.n_hat, jmul(w))) < 1e-12
        assert abs(real_metric(sig, fields.n_hat, fields.xi_hat)) < 1e-12
        for _ in range(5):
            x = _random_seed_tangent(spec, rng)
            tv = spec.ruling.slice_map(t, x)
            assert abs(real_metric(sig, fields.n_hat, tv)) < 1e-10
            assert abs(real_metric(sig, fields.xi_hat, tv)) < 1e-10

    @pytest.mark.parametrize("ex", EXAMPLE_IDS)
    def test_shape_image_orthogonal_to_structure(self, ex):
        """The closed-form shape image has no structure component at all."""
        spec = example_spec(ex)
        for t in (-0.4, 0.0, 0.33):
            fields = example_fields(spec, t)
            assert abs(real_metric(spec.sig, fields.a_xi_hat, fields.xi_hat)) < 1e-12

    @pytest.mark.parametrize("ex", EXAMPLE_IDS)
    def test_shape_image_moves_with_the_ruling(self, ex):
        """The ruling isometry maps the hypersurface onto itself, so it
        carries the shape image at slice 0 to the one at slice t."""
        spec = example_spec(ex)
        a0 = example_fields(spec, 0.0).a_xi_hat
        for t in (-0.4, 0.17, 0.33):
            moved = ruling_isometry(spec, t).entries @ a0
            assert np.max(np.abs(example_fields(spec, t).a_xi_hat - moved)) < 1e-12

    @pytest.mark.parametrize("ex", EXAMPLE_IDS)
    def test_numeric_shape_image_on_a_moved_slice(self, ex):
        """The generic pipeline's shape image on the slice t = 0.33 matches
        the closed form there, within the cross check's bound: A and xi
        both change sign with the normal, so A xi does not."""
        spec = example_spec(ex)
        t = 0.33
        sig = spec.sig
        par = transport_basis(example_integral_curve(spec).curve)
        patch = TransformedPatch(ruling_isometry(spec, t), par)
        rep = shape_operator_at(patch, np.zeros(patch.n_params))
        mu, uvec, frame = rep.mu[0], rep.u_vec[0], rep.frame
        psi = example_map(spec, t)
        closed = example_fields(spec, t).a_xi_hat
        closed = closed - real_metric(sig, closed, 1j * psi) * (1j * psi)
        ph = np.sum(frame.lift[0] * np.conj(psi))
        numeric = (frame.epsilon[0] * mu * frame.xi[0] + uvec) * (np.conj(ph) / abs(ph))
        assert np.max(np.abs(numeric - closed)) < 1e-5


class TestIntegralCurves:
    @pytest.mark.parametrize("ex", EXAMPLE_IDS)
    def test_horizontality_and_speed(self, ex):
        data = example_integral_curve(example_spec(ex))
        assert data.curve.horizontality_defect() < 1e-12
        assert data.curve.speed_defect() < 1e-9
        assert data.curve.eps1 == data.eps1

    @pytest.mark.parametrize("ex", EXAMPLE_IDS)
    def test_acceleration_square_closed_form(self, ex):
        spec = example_spec(ex)
        data = example_integral_curve(spec)
        slot = spec.sig.n - 1 if ex in (1, 3) else 0
        u = abs(spec.seed_z[slot]) ** 2
        want = 1.0 / u - 1.0 if ex in (1, 3) else -1.0 - 1.0 / u
        assert data.accel_square == pytest.approx(want, abs=1e-12)
        for s in (-0.3, 0.1, 0.45):
            f = data.accel(s)
            assert real_metric(spec.sig, f, f) == pytest.approx(want, abs=1e-10)

    @pytest.mark.parametrize("ex", (2, 4))
    def test_timelike_families_unit_frenet_vector(self, ex):
        """Families with boosts or double rotation have unit timelike F2."""
        spec = example_spec(ex)
        data = example_integral_curve(spec)
        assert data.eps2 == -1.0
        for s in (-0.2, 0.0, 0.4):
            f2 = data.eps2 * data.accel(s) / data.kappa1
            assert real_metric(spec.sig, f2, f2) == pytest.approx(-1.0, abs=1e-10)

    def test_family_two_kappa_at_unit_modulus(self):
        data = example_integral_curve(example_spec(2))
        assert data.kappa1 == pytest.approx(np.sqrt(2.0), abs=1e-12)

    def test_family_one_seed_kappas(self):
        sig = example_spec(1).sig
        known = {np.pi / 8: 1.5537739740300374, np.pi / 2: 0.7071067811865476}
        for r, kappa in known.items():
            data = example_integral_curve(example_spec(1, seed_z=gamma_seed(sig, r)))
            assert data.kappa1 == pytest.approx(kappa, abs=1e-12)

    @pytest.mark.parametrize("ex", EXAMPLE_IDS)
    def test_totally_real_frame_plane(self, ex):
        """No holomorphic torsion: J of the velocity is orthogonal to F2."""
        spec = example_spec(ex)
        data = example_integral_curve(spec)
        curve = data.curve
        for k in range(8, len(curve) - 8, 173):
            vel = curve.velocity[k]
            f2 = data.eps2 * data.accel(float(curve.params[k])) / data.kappa1
            assert abs(real_metric(spec.sig, jmul(vel), f2)) < 1e-9

    def test_case_predictions(self):
        sig = example_spec(1).sig
        geod = np.zeros(3, dtype=complex)
        geod[2] = np.exp(0.4j)
        cases = {
            MinimalCase.CASE_A_GEODESIC: example_integral_curve(
                example_spec(1, seed_z=geod)
            ),
            MinimalCase.CASE_C_NON_FRENET: example_integral_curve(
                example_spec(1, seed_z=gamma_seed(sig, np.pi / 4))
            ),
            MinimalCase.CASE_B_TOTALLY_REAL_CIRCLE: example_integral_curve(
                example_spec(1, seed_z=gamma_seed(sig, np.pi / 8))
            ),
        }
        for case, data in cases.items():
            assert data.predicted_case is case

    def test_leaf_tangents_orthogonal_to_structure_pair(self, rng):
        """Slice tangents are orthogonal to both the structure field and the
        normal: the slices realize the full holomorphic distribution."""
        for ex in EXAMPLE_IDS:
            spec = example_spec(ex)
            fields = example_fields(spec, 0.1)
            for _ in range(5):
                x = _random_seed_tangent(spec, rng)
                tv = spec.ruling.slice_map(0.1, x)
                assert abs(real_metric(spec.sig, tv, fields.xi_hat)) < 1e-10
                assert abs(real_metric(spec.sig, tv, fields.n_hat)) < 1e-10


def _generators():
    """Closed-form generating curves that are no family's integral curve,
    sampled over ``S_RANGE``, with the (case, kind, kappa1) each must
    classify as."""
    s31, s32 = Signature(3, 1), Signature(3, 2)
    e = np.eye(4, dtype=complex)
    sample = lambda crv: crv.sample(*S_RANGE, CURVE_STEP)
    case_b, case_c = MinimalCase.CASE_B_TOTALLY_REAL_CIRCLE, MinimalCase.CASE_C_NON_FRENET
    geodesic = sampled_curve_from_fn(s31, lambda s: sphere_geodesic(s31, e[3], e[2], s), *S_RANGE, CURVE_STEP)
    return {
        "geodesic": (geodesic, (MinimalCase.CASE_A_GEODESIC, None, None)),
        "circle_rp2": (sample(model_circle_curve(s31, "rp2", 1.2)), (case_b, "rp2", 1.2)),
        "circle_h2_2": (sample(model_circle_curve(s32, "h2_2", 1.5)), (case_b, "h2_2", 1.5)),
        "case_c1": (sample(case_c1_curve(s31, e[1], e[2], e[0] + e[3])), (case_c, "b3_1", None)),
        "case_c2": (sample(case_c2_curve(s32, e[2], e[1], e[0] + e[3])), (case_c, "b3_2", None)),
    }


class TestGeneratorLines:
    @pytest.mark.parametrize("name", list(_generators()))
    def test_every_line_passes_on_a_generator_that_is_no_family(self, name):
        """The generic half of the cross check holds on the patch of any
        unit generating curve: geodesic, totally real circles and the two
        non-Frenet curves each pass every line and classify as their case."""
        curve, expected = _generators()[name]
        lines, case, par = generator_lines(curve, RunConfig(), expected)
        names = {line.name for line in lines}
        assert {"ruled_leaf_block", "minimality_mu", "isometry_invariance", "codazzi_residual",
                "classification_case"} <= names
        assert ("classification_kind" in names) == (expected[1] is not None)
        assert [line.name for line in lines if not line.passed] == []
        assert case is expected[0]
        assert par.sig == curve.sig

    def test_a_moved_patch_that_is_no_isometric_image_fails_the_invariance_line(self, monkeypatch):
        """Mutation check: a moved patch that evaluates its inner patch at
        rows shifted by 0.01 in the first leaf coordinate is no isometric
        image, so its lam = |U| differs from the base sweep's (by 1e-2 on
        family 1) while mu and the leaf block barely move. Family 1 then
        fails ``isometry_invariance`` and no other line."""
        lifts_at = ruled.TransformedPatch.lifts_at

        def shifted(self, rows):
            rows = np.array(rows, dtype=float)
            rows[:, 1] += 0.01
            return lifts_at(self, rows)

        monkeypatch.setattr(ruled.TransformedPatch, "lifts_at", shifted)
        data = example_integral_curve(example_spec(1))
        lines, _, _ = generator_lines(data.curve, RunConfig(), (data.predicted_case, data.kind, data.kappa1))
        assert [line.name for line in lines if not line.passed] == ["isometry_invariance"]
