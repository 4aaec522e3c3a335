"""Covariant differentiation, Frenet data, curve classes, horizontal lift."""

import numpy as np
import pytest

from oracles import _e, _geodesic_curve
from pseudocp.curves import (
    CurveClass,
    SampledCurve,
    case_c1_curve,
    case_c2_curve,
    case_c_verify,
    covariant_derivative,
    fd_derivative,
    frenet_apparatus,
    horizontal_lift,
    is_totally_real_circle,
    model_circle_curve,
    sampled_curve_from_fn,
)
from pseudocp.errors import FrameError, LiftError, SamplingError, SpeedError
from pseudocp.examples import example_integral_curve, example_spec, gamma_seed
from pseudocp.linalg import Signature, gdot_rows, jmul, real_metric
from pseudocp.projective import sphere_geodesic

SIG = Signature(3, 1)


def _family1_curve(r):
    spec = example_spec(1, seed_z=gamma_seed(example_spec(1).sig, r))
    return example_integral_curve(spec)


class TestCovariantDerivative:
    def test_geodesic_velocity_is_parallel(self):
        curve = _geodesic_curve()
        rows = covariant_derivative(curve, curve.velocity)
        assert np.max(np.abs(rows[4:-4])) < 1e-6

    def test_family_one_acceleration_matches_closed_form(self):
        """The covariant acceleration reproduces the family's closed form."""
        data = _family1_curve(np.pi / 8)
        curve = data.curve
        rows = covariant_derivative(curve, curve.velocity)
        expected = np.array([data.accel(s) for s in curve.params])
        assert np.max(np.abs(rows[4:-4] - expected[4:-4])) < 1e-6

    def test_transported_frame_is_leaf_parallel(self, family1_par):
        """Transported vectors differentiate into span{velocity, J velocity}."""
        par = family1_par
        curve = par.base
        z0 = par.frame_samples[:, 0, :]
        rows = covariant_derivative(curve, z0)
        vel = curve.velocity
        signs = curve.sig.signs
        for k in range(6, len(curve) - 6, 100):
            v = vel[k] / np.sqrt(abs(gdot_rows(signs, vel[k], vel[k])))
            res = rows[k]
            res = res - np.sign(real_metric(SIG, v, v)) * real_metric(SIG, res, v) * v
            jv = jmul(v)
            res = res - np.sign(real_metric(SIG, jv, jv)) * real_metric(SIG, res, jv) * jv
            assert np.max(np.abs(res)) < 1e-6

    def test_too_few_samples(self):
        curve = _geodesic_curve()
        with pytest.raises(SamplingError):
            covariant_derivative(
                type(curve)(SIG, curve.params[:2], curve.lifts[:2], curve.step),
                curve.lifts[:2],
            )


class TestFrenetApparatus:
    def test_geodesic_is_order_one(self):
        fr = frenet_apparatus(_geodesic_curve())
        assert fr.order == 1
        assert fr.classification is CurveClass.GEODESIC
        assert fr.curvatures == []

    def test_family_two_signature_and_curvature(self):
        """Second family: order two, spacelike then timelike frame vectors."""
        data = example_integral_curve(example_spec(2))
        fr = frenet_apparatus(data.curve)
        assert fr.order == 2
        assert fr.signs[0] == 1.0
        assert fr.signs[1] == -1.0
        kappa = float(np.mean(fr.curvatures[0][8:-8]))
        assert kappa == pytest.approx(data.kappa1, abs=1e-6)

    def test_family_one_lightlike_acceleration(self):
        data = _family1_curve(np.pi / 4)
        fr = frenet_apparatus(data.curve)
        assert fr.classification is CurveClass.CASE_C_NON_FRENET

    def test_non_unit_speed_rejected(self):
        q, v = _e(3), _e(2)
        bad = sampled_curve_from_fn(
            SIG, lambda s: sphere_geodesic(SIG, q, 2.0 * v, s), -0.3, 0.3, 1e-3
        )
        with pytest.raises(SpeedError):
            frenet_apparatus(bad)

    def test_direction_reversal_preserves_curvature(self):
        """Reversing the parameter flips the velocity but keeps kappa."""
        data = _family1_curve(np.pi / 8)
        curve = data.curve
        fr = frenet_apparatus(curve)
        reversed_curve = SampledCurve(curve.sig, -curve.params[::-1], curve.lifts[::-1], curve.step)
        rev = frenet_apparatus(reversed_curve)
        assert rev.order == fr.order == 2
        a = float(np.mean(fr.curvatures[0][8:-8]))
        b = float(np.mean(rev.curvatures[0][8:-8]))
        assert a == pytest.approx(b, rel=1e-8)
        assert np.max(np.abs(fr.frames[0][10] + rev.frames[0][::-1][10])) < 1e-9

    def test_frenet_system_residual(self):
        """Full system residual for an order-two curve stays tiny."""
        data = _family1_curve(np.pi / 8)
        curve = data.curve
        fr = frenet_apparatus(curve)
        d1 = covariant_derivative(curve, fr.frames[0])
        r1 = d1 - fr.signs[1] * fr.curvatures[0][:, None] * fr.frames[1]
        d2 = covariant_derivative(curve, fr.frames[1])
        r2 = d2 + fr.signs[0] * fr.curvatures[0][:, None] * fr.frames[0]
        assert np.max(np.abs(r1[8:-8])) < 5e-6
        assert np.max(np.abs(r2[8:-8])) < 5e-6

    def test_frame_orthonormality(self):
        data = _family1_curve(np.pi / 2)
        fr = frenet_apparatus(data.curve)
        signs = SIG.signs
        for i, ei in enumerate(fr.frames):
            for j, ej in enumerate(fr.frames):
                want = fr.signs[i] if i == j else 0.0
                vals = gdot_rows(signs, ei, ej)
                assert np.max(np.abs(vals[8:-8] - want)) < 1e-6


class TestTotallyRealCircle:
    def test_family_one_small_seed(self):
        """Distinguished seed below the unit modulus: circle of known curvature."""
        data = _family1_curve(np.pi / 8)
        fr = frenet_apparatus(data.curve)
        ok, report = is_totally_real_circle(fr, data.curve)
        assert ok
        assert report["kappa1"] == pytest.approx(1.5537739740300374, abs=1e-6)

    def test_geodesic_is_not_a_circle(self):
        fr = frenet_apparatus(_geodesic_curve())
        ok, report = is_totally_real_circle(fr, _geodesic_curve())
        assert not ok and report["order"] == 1

    def test_holomorphic_circle_rejected_by_torsion(self):
        """A latitude circle inside a complex projective line has torsion one."""
        q, v = _e(3), _e(2)
        c = 0.6
        om = 1.0 / (np.sin(c) * np.cos(c))  # unit projected speed

        def rep(s):
            return np.cos(c) * q + np.sin(c) * np.multiply.outer(np.exp(1j * om * s), v)

        params = np.arange(-0.4, 0.4 + 1e-12, 1e-3)
        curve = horizontal_lift(SIG, rep, rep(float(params[0])), params=params)
        fr = frenet_apparatus(curve)
        assert fr.order == 2
        ok, report = is_totally_real_circle(fr, curve)
        assert not ok
        assert report["torsion_max"] > 0.5

    def test_model_circles_classify(self):
        """Closed-form circles in each surface model report their curvature."""
        cases = [
            ("rp2", 1.3, False, SIG),
            ("s2_1", 0.6, False, SIG),
            ("s2_1", 1.7, True, SIG),
            ("h2_2", 1.9, False, Signature(3, 2)),
        ]
        for model, kappa, timelike, sig in cases:
            curve = model_circle_curve(sig, model, kappa, timelike).sample(-0.4, 0.4, 1e-3)
            fr = frenet_apparatus(curve)
            ok, report = is_totally_real_circle(fr, curve)
            assert ok, (model, kappa, report)
            assert report["kappa1"] == pytest.approx(kappa, abs=1e-6)
            assert report["kappa1_rel_spread"] < 1e-6
            assert report["torsion_max"] < 1e-8


class TestCaseCVerify:
    def test_family_one_unit_modulus_seed(self):
        data = _family1_curve(np.pi / 4)
        ok, report = case_c_verify(data.curve)
        assert ok
        assert report["g(F2,F2)"] < 1e-9

    def test_circle_fails(self):
        data = _family1_curve(np.pi / 8)
        ok, _ = case_c_verify(data.curve)
        assert not ok

    def test_geodesic_fails(self):
        ok, _ = case_c_verify(_geodesic_curve())
        assert not ok


class TestCaseCClosedForms:
    P0 = np.array([0, 1, 0, 0], dtype=complex)
    V0 = np.array([0, 0, 1, 0], dtype=complex)
    F2 = np.array([1, 0, 0, 1], dtype=complex)

    def test_c1_identities(self):
        crv = case_c1_curve(SIG, self.P0, self.V0, self.F2)
        for s in (0.0, 1.0, np.pi):
            a = crv.point(s)
            assert real_metric(SIG, a, a) == pytest.approx(1.0, abs=1e-12)
            v = crv.vel(s)
            assert real_metric(SIG, v, v) == pytest.approx(1.0, abs=1e-12)
            assert np.allclose(crv.acc(s) + a, self.F2, atol=1e-12)
        assert np.allclose(crv.point(0.0), self.P0)
        assert np.allclose(crv.vel(0.0), self.V0)

    def test_c1_rejects_non_lightlike_offset(self):
        with pytest.raises(FrameError):
            case_c1_curve(SIG, self.P0, self.V0, np.zeros(4, dtype=complex))

    def test_c2_identities(self):
        sig = Signature(3, 2)
        p0 = np.array([0, 0, 1, 0], dtype=complex)
        v0 = np.array([0, 1, 0, 0], dtype=complex)
        f2 = np.array([1, 0, 0, 1], dtype=complex)
        crv = case_c2_curve(sig, p0, v0, f2)
        for s in (0.0, 1.0, -1.0):
            a = crv.point(s)
            assert real_metric(sig, a, a) == pytest.approx(1.0, abs=1e-12)
            assert real_metric(sig, crv.vel(s), crv.vel(s)) == pytest.approx(-1.0, abs=1e-12)
            assert np.allclose(crv.acc(s) - a, f2, atol=1e-12)
        assert np.allclose(crv.point(0.0), p0)
        assert np.allclose(crv.vel(0.0), v0)

    def test_third_derivative_identities(self):
        """Finite differences confirm the third order equations."""
        c1 = case_c1_curve(SIG, self.P0, self.V0, self.F2)
        sig2 = Signature(3, 2)
        c2 = case_c2_curve(
            sig2,
            np.array([0, 0, 1, 0], dtype=complex),
            np.array([0, 1, 0, 0], dtype=complex),
            np.array([1, 0, 0, 1], dtype=complex),
        )
        for s in (-0.7, 0.2, 1.1):
            jerk1 = fd_derivative(c1.acc, s, 1e-3)
            assert np.max(np.abs(jerk1 + c1.vel(s))) < 1e-6
            jerk2 = fd_derivative(c2.acc, s, 1e-3)
            assert np.max(np.abs(jerk2 - c2.vel(s))) < 1e-6

    def test_c1_pipeline_classification(self):
        curve = case_c1_curve(SIG, self.P0, self.V0, self.F2).sample(-0.5, 0.5, 1e-3)
        assert frenet_apparatus(curve).classification is CurveClass.CASE_C_NON_FRENET
        ok, _ = case_c_verify(curve)
        assert ok


class TestHorizontalLift:
    def test_already_horizontal_unchanged(self):
        data = _family1_curve(np.pi / 8)
        curve = data.curve
        params = curve.params[::10]
        lifted = horizontal_lift(
            SIG, curve.lift_fn, curve.lift_fn(float(params[0])), params=params
        )
        original = np.array([curve.lift_fn(float(s)) for s in params])
        assert np.max(np.abs(lifted.lifts - original)) < 1e-8

    def test_phase_drift_removed(self):
        data = _family1_curve(np.pi / 8)
        fn = data.curve.lift_fn
        drifted = lambda s: np.exp(1j * s)[..., None] * fn(s)
        params = np.arange(-0.3, 0.3 + 1e-12, 1e-3)
        lifted = horizontal_lift(SIG, drifted, fn(float(params[0])), params=params)
        original = np.array([fn(float(s)) for s in params])
        assert np.max(np.abs(lifted.lifts - original)) < 1e-9
        assert lifted.horizontality_defect() < 1e-9

    def test_sampled_representative_input(self):
        data = _family1_curve(np.pi / 2)
        fn = data.curve.lift_fn
        params = np.arange(-0.25, 0.25 + 1e-12, 1e-3)
        reps = np.array([np.exp(0.5j * s) * fn(float(s)) for s in params])
        lifted = horizontal_lift(SIG, reps, fn(float(params[0])), params=params)
        assert lifted.horizontality_defect() < 1e-7

    def test_wrong_anchor_rejected(self):
        data = _family1_curve(np.pi / 8)
        fn = data.curve.lift_fn
        params = np.arange(-0.2, 0.2 + 1e-12, 1e-3)
        with pytest.raises(LiftError):
            horizontal_lift(SIG, fn, fn(0.1), params=params)

    def test_constant_curve_lifts_to_constant(self):
        q = _e(3)
        params = np.arange(0.0, 0.2 + 1e-12, 1e-3)
        constant = lambda s: np.broadcast_to(q, np.shape(s) + q.shape)
        lifted = horizontal_lift(SIG, constant, q, params=params)
        assert np.max(np.abs(lifted.lifts - q)) < 1e-12
