"""Covariant differentiation, Frenet data, curve classes, horizontal lift."""

import numpy as np
import pytest

from oracles import _e, _geodesic_curve, _ref_case_c_report, covariant_derivative
from pseudocp import curves
from pseudocp.curves import (
    MAX_SAMPLES,
    CurveClass,
    SampledCurve,
    case_c1_curve,
    case_c2_curve,
    case_c_verify,
    fd_derivative,
    frenet_apparatus,
    gdot_real,
    horizontal_lift,
    horizontal_real,
    is_totally_real_circle,
    jmul_real,
    median_is_positive,
    model_circle_curve,
    norm2_real,
    real_signs,
    real_view,
    sampled_curve_from_fn,
)
from pseudocp.errors import FrameError, LiftError, SamplingError, SpeedError
from pseudocp.examples import example_integral_curve, example_spec, gamma_seed
from pseudocp.isometries import boost
from pseudocp.linalg import Signature, gdot_rows, jmul, metric_signs, real_metric
from pseudocp.projective import horizontal_rows, sphere_geodesic

SIG = Signature(3, 1)


def _family1_curve(r):
    spec = example_spec(1, seed_z=gamma_seed(example_spec(1).sig, r))
    return example_integral_curve(spec)


#: odd and even counts, exact zeros, ties across zero, all-equal rows,
#: a NaN, and a pair whose mean underflows to zero
MEDIAN_CASES = {
    "odd": [3.0, -1.0, 2.0],
    "odd_negative": [-3.0, 1.0, -2.0],
    "even": [-1.0, 4.0, 2.0, -3.0],
    "even_negative": [1.0, -4.0, -2.0, 3.0],
    "zero_middle": [-1.0, 0.0, 1.0],
    "zeros": [0.0, 0.0, 0.0, 0.0],
    "negative_zero": [-0.0, 0.0, 1.0, -1.0],
    "tie_across_zero": [-2.0, -0.5, 0.5, 2.0],
    "tie_leaning_up": [-2.0, -0.5, 0.75, 2.0],
    "tie_leaning_down": [-2.0, -0.75, 0.5, 2.0],
    "all_equal_positive": [0.25] * 6,
    "all_equal_negative": [-0.25] * 5,
    "single": [1e-300],
    "nan": [1.0, 2.0, np.nan, 3.0, 4.0],
    "nan_even": [np.nan, -1.0],
    "underflowing_mean": [0.0, 5e-324],
}


@pytest.mark.parametrize("name", sorted(MEDIAN_CASES))
def test_median_sign_is_numpy_median_sign(name):
    x = np.array(MEDIAN_CASES[name])
    assert median_is_positive(x) is bool(np.median(x) > 0)


def test_median_sign_on_random_rows():
    rng = np.random.default_rng(5)
    for size in range(1, 40):
        x = np.round(rng.standard_normal(size), 1) + rng.choice([0.0, 0.3])
        assert median_is_positive(x) is bool(np.median(x) > 0), x


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

    def test_too_many_samples(self):
        """Every sampled curve holds at most ``MAX_SAMPLES`` samples, not
        only the grids of ``sample_params``."""
        count = MAX_SAMPLES + 1
        lifts = np.zeros((count, SIG.ambient_dim), dtype=complex)
        lifts[:, -1] = 1.0
        with pytest.raises(SamplingError, match=f"curve grid of {count} samples exceeds {MAX_SAMPLES}"):
            SampledCurve(SIG, 1e-3 * np.arange(count), lifts, 1e-3)


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

    def test_two_stages_classify_every_case(self, monkeypatch):
        """The classifier differentiates at most twice per curve: once on a
        geodesic, twice on a circle, on ``case_c1`` (F2, then its parallel
        defect) and on a two-curvature helix, which is OTHER at order two."""
        calls = []
        covariant_rows = curves._covariant_rows
        monkeypatch.setattr(
            curves, "_covariant_rows", lambda curve, rows: calls.append(1) or covariant_rows(curve, rows)
        )
        a, w = 0.3, 1.0
        b = np.sqrt(1 - a * a)
        c = np.sqrt((1 + a * a * w * w) / (b * b))

        def helix(s):
            return np.stack(
                [a * np.sinh(w * s), a * np.cosh(w * s), b * np.cos(c * s), b * np.sin(c * s)], axis=-1
            ).astype(complex)

        e = np.eye(4)
        circle = model_circle_curve(SIG, "rp2", 1.3).sample(-0.4, 0.4, 1e-3)
        case_c1 = case_c1_curve(SIG, e[1], e[2], e[0] + e[3]).sample(-0.5, 0.5, 1e-3)
        cases = [
            (_geodesic_curve(), CurveClass.GEODESIC, 1, 1),
            (circle, CurveClass.TOTALLY_REAL_CIRCLE, 2, 2),
            (case_c1, CurveClass.CASE_C_NON_FRENET, 1, 2),
            (sampled_curve_from_fn(SIG, helix, -0.5, 0.5, 1e-3), CurveClass.OTHER, 2, 2),
        ]
        for curve, cls, order, count in cases:
            calls.clear()
            fr = frenet_apparatus(curve)
            assert (fr.classification, fr.order, len(calls)) == (cls, order, count)

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

    #: (model, curvature, timelike, signature) of one circle per surface model
    MODEL_CIRCLES = [
        ("rp2", 1.3, False, SIG),
        ("s2_1", 0.6, False, SIG),
        ("s2_1", 1.7, True, SIG),
        ("h2_2", 1.9, False, Signature(3, 2)),
    ]

    def test_model_circles_classify(self):
        """Closed-form circles in each surface model report their curvature."""
        for model, kappa, timelike, sig in self.MODEL_CIRCLES:
            curve = model_circle_curve(sig, model, kappa, timelike).sample(-0.4, 0.4, 1e-3)
            fr = frenet_apparatus(curve)
            ok, report = is_totally_real_circle(fr, curve)
            assert ok, (model, kappa, report)
            assert report["kappa1"] == pytest.approx(kappa, abs=1e-6)
            assert report["kappa1_rel_spread"] < 1e-6
            assert report["torsion_max"] < 1e-8

    def test_model_circle_acceleration_is_exact(self):
        """``vel`` is the derivative of ``point`` and ``acc`` that of
        ``vel``, each within 1e-9 of a five-point difference (a second
        difference of the point at h = 1e-4 is good to 2e-8 only), and
        |g(vel, vel)| = 1: a sign flip shared by ``vel`` and ``acc`` fails."""
        s = np.linspace(-0.4, 0.4, 9)
        for model, kappa, timelike, sig in self.MODEL_CIRCLES:
            crv = model_circle_curve(sig, model, kappa, timelike)
            gap = np.max(np.abs(crv.vel(s) - fd_derivative(crv.point, s, 1e-3)))
            assert gap < 1e-9, (model, timelike, "vel", gap)
            gap = np.max(np.abs(crv.acc(s) - fd_derivative(crv.vel, s, 1e-3)))
            assert gap < 1e-9, (model, timelike, "acc", gap)
            speed = np.abs(gdot_rows(sig.signs, crv.vel(s), crv.vel(s)))
            assert np.max(np.abs(speed - 1.0)) < 1e-12, (model, timelike, speed)


class TestCaseCVerify:
    def test_family_one_unit_modulus_seed(self):
        data = _family1_curve(np.pi / 4)
        ok, report = case_c_verify(frenet_apparatus(data.curve), data.curve)
        assert ok
        assert report["g(F2,F2)"] < 1e-9

    def test_circle_fails(self):
        data = _family1_curve(np.pi / 8)
        ok, report = case_c_verify(frenet_apparatus(data.curve), data.curve)
        assert not ok and report == {"order": 2}

    def test_geodesic_fails(self):
        curve = _geodesic_curve()
        ok, report = case_c_verify(frenet_apparatus(curve), curve)
        assert not ok and report == {"order": 1}


def _case_c_closed_form(n, p, boosted):
    """The benchmark's non-Frenet frame at (n, p): ``case_c1`` for p = 1,
    ``case_c2`` otherwise; ``boosted`` moves it by a boost of rapidity 0.3
    mixing slots 0 and n, times the phase exp(0.7i)."""
    sig = Signature(n, p)
    e = np.eye(n + 1)
    m = boost(sig, 0.3).entries * np.exp(0.7j) if boosted else np.eye(n + 1, dtype=complex)
    if p == 1:
        return case_c1_curve(sig, m @ e[1], m @ e[2], m @ (e[0] + e[n]))
    return case_c2_curve(sig, m @ e[p], m @ e[1], m @ (e[0] + e[n]))


class TestCaseCReport:
    CASES = [(n, p, boosted, step) for n, p in ((3, 1), (4, 1), (3, 2), (4, 2))
             for boosted in (False, True) for step in (1e-3, 5e-4)]

    @pytest.mark.parametrize("n,p,boosted,step", CASES)
    def test_report_matches_the_complex_reference(self, n, p, boosted, step):
        """The report read off the Frenet stage equals the complex-arithmetic
        reference up to the rounding of the reordered metric sums, which the
        third differences amplify: worst measured 1.5e-4 relative on the
        parallel defect, 1e-13 relative on the norm of F2 and 6.9e-13 on the
        roundoff-level products. Both sides agree on pass or fail."""
        curve = _case_c_closed_form(n, p, boosted).sample(-0.5, 0.5, step)
        fr = frenet_apparatus(curve)
        assert fr.classification is CurveClass.CASE_C_NON_FRENET
        ok, report = case_c_verify(fr, curve)
        ref = _ref_case_c_report(curve)
        assert report.keys() == ref.keys()
        assert report["f2_min_norm"] == pytest.approx(ref["f2_min_norm"], rel=1e-12)
        assert report["parallel_defect"] == pytest.approx(ref["parallel_defect"], rel=1e-3)
        for key in ("g(F2,F2)", "g(F1,F2)", "g(F1,JF2)"):
            assert abs(report[key] - ref[key]) <= 1e-11, key
        ref_ok = ref["f2_min_norm"] > 1e-5 and all(
            ref[k] <= 1e-6 for k in ("g(F2,F2)", "parallel_defect", "g(F1,F2)", "g(F1,JF2)")
        )
        assert ok == ref_ok

    @pytest.mark.parametrize("n,p", [(3, 1), (3, 2)])
    def test_f2_is_the_covariant_derivative_of_f1(self, n, p):
        """The F2 rows and parallel defect that ``case_c_verify`` reads are
        bit for bit those a fresh covariant derivative gives."""
        curve = _case_c_closed_form(n, p, True).sample(-0.5, 0.5, 1e-3)
        fr = frenet_apparatus(curve)
        assert np.array_equal(fr.f2, covariant_derivative(curve, fr.frames[0]))
        dd = covariant_derivative(curve, fr.f2)[12:-12]
        par = float(np.sqrt(np.max(norm2_real(real_view(dd)))))
        assert case_c_verify(fr, curve)[1]["parallel_defect"] == par


def _stacks(rng, sig, m=40):
    """Pairs of complex stacks: random rows of Euclidean scale 1e-3 to 1e3,
    a row against a stack, and reversed and strided views."""
    d = sig.ambient_dim
    draw = lambda *shape: rng.standard_normal(shape + (d,)) + 1j * rng.standard_normal(shape + (d,))
    a = draw(m) * np.exp(rng.uniform(-7.0, 7.0, (m, 1)))
    b = draw(m)
    wide = draw(m, 2)
    return [(a, b), (a, b[0]), (draw(3, m), b), (a[::-1], b[::-1]), (a[::2], wide[::2, 0])]


class TestRealifiedKernels:
    SIGS = [Signature(3, 1), Signature(4, 2), Signature(6, 3)]

    @pytest.mark.parametrize("sig", SIGS, ids=str)
    def test_metric_and_norm_match_the_complex_forms(self, sig, rng):
        s2 = real_signs(sig.signs)
        for a, b in _stacks(rng, sig):
            ra, rb = real_view(a), real_view(b)
            scale = np.linalg.norm(a, axis=-1) * np.linalg.norm(b, axis=-1)
            assert np.all(np.abs(gdot_real(s2, ra, rb) - gdot_rows(sig.signs, a, b)) <= 1e-15 * scale)
            norm2 = np.sum(np.abs(a) ** 2, axis=-1)
            assert np.all(np.abs(norm2_real(ra) - norm2) <= 1e-15 * norm2)
            assert np.array_equal(jmul_real(ra), real_view(jmul(a)))

    @pytest.mark.parametrize("sig", SIGS, ids=str)
    def test_projection_matches_horizontal_rows(self, sig, rng):
        """Within 1e-15 |x| |q|^4: each of the two removals scales the error
        of its metric sum by |q|^2 (worst measured 2.5e-16)."""
        s2 = real_signs(sig.signs)
        for x, q in _stacks(rng, sig):
            # rows far from spacelike become the all-ones row, spacelike here
            g = gdot_rows(sig.signs, q, q)
            q = np.where((g > 0.05)[..., None], q, metric_signs(0, sig.ambient_dim))
            q = q / np.sqrt(gdot_rows(sig.signs, q, q))[..., None]
            rq = real_view(q)
            got = horizontal_real(s2, rq, jmul_real(rq), real_view(x)).view(complex)
            want = horizontal_rows(sig.signs, q, x)
            scale = np.linalg.norm(x, axis=-1) * np.linalg.norm(q, axis=-1) ** 4
            assert np.all(np.max(np.abs(got - want), axis=-1) <= 1e-15 * scale)

    def test_real_view_is_a_view_of_contiguous_rows(self, rng):
        z = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
        assert np.shares_memory(real_view(z), z)
        assert np.array_equal(real_view(z[:, ::2]), np.stack([z[:, ::2].real, z[:, ::2].imag], -1).reshape(5, 4))


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
        fr = frenet_apparatus(curve)
        assert fr.classification is CurveClass.CASE_C_NON_FRENET
        ok, _ = case_c_verify(fr, curve)
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
