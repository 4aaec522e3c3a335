"""Frame transport, evaluation, shape operators and the case classifier."""

import numpy as np
import pytest

from pseudocp.curves import covariant_derivative, sampled_curve_from_fn
from pseudocp.errors import ChartError, ClassificationError
from pseudocp.examples import (
    example_integral_curve,
    example_spec,
    gamma_seed,
)
from pseudocp.isometries import complex_hyperplane_leaf
from pseudocp.linalg import Signature, gdot_rows, real_metric
from pseudocp.projective import (
    canonicalize,
    log_in_leaf,
    sphere_geodesic,
    tangent_from_lift,
)
from pseudocp.ruled import (
    GeodesicSpherePatch,
    RHSPatch,
    ShapeForm,
    MinimalCase,
    classify_minimal_ruled,
    codazzi_residual,
    hypersurface_frame,
    leaf_coordinate_grid,
    regenerate_integral_curve,
    rhs_evaluate,
    rhs_lift,
    shape_operator_at,
    shape_operators,
    transport_basis,
    weingarten_apply,
)

SIG = Signature(3, 1)


def _e(k, dim=4):
    v = np.zeros(dim, dtype=complex)
    v[k] = 1.0
    return v


def _frame_at(par, s, coords):
    return hypersurface_frame(RHSPatch(par), np.concatenate([[s], coords]))


def _control_patch():
    return GeodesicSpherePatch(canonicalize(SIG, _e(3)), 0.7, seed=1)


def _geodesic_par():
    q, v = _e(3), _e(2)
    curve = sampled_curve_from_fn(
        SIG, lambda s: sphere_geodesic(SIG, q, v, s), -0.5, 0.5, 1e-3
    )
    return transport_basis(curve)


class TestTransportBasis:
    def test_geodesic_base_frame_is_parallel(self):
        """Along a geodesic the transported frame is genuinely parallel."""
        par = _geodesic_par()
        assert par.gram_drift() < 1e-10
        ov, ojv = par.orthogonality_defect()
        assert max(ov, ojv) < 1e-10
        rows = covariant_derivative(par.base, par.frame_samples[:, 0, :])
        assert np.max(np.abs(rows[6:-6])) < 1e-6

    def test_zero_leaf_vector_is_the_zero_solution(self, family1_par):
        """The transport of the zero vector is zero: evaluation at vanishing
        leaf coordinates returns the base lift exactly."""
        par = family1_par
        for s in (-0.4, 0.13, 0.37):
            v = np.zeros(par.leaf_dim) @ par.frames_at(s)
            assert np.max(np.abs(v)) == 0.0
            assert np.max(np.abs(rhs_lift(par, s, np.zeros(par.leaf_dim)) - par.base.lift_fn(s))) < 1e-15

    def test_family_one_defects(self, family1_par):
        ov, ojv = family1_par.orthogonality_defect()
        assert max(ov, ojv) < 1e-6
        assert family1_par.gram_drift() < 1e-6

    def test_leaf_index_follows_speed_sign(self, family1_par):
        assert family1_par.eps1 == 1.0
        assert family1_par.leaf_index == SIG.p
        data3 = example_integral_curve(example_spec(3))
        par3 = transport_basis(data3.curve)
        assert par3.eps1 == -1.0
        assert par3.leaf_index == example_spec(3).sig.p - 1


class TestEvaluation:
    def test_zero_coords_recover_base_curve(self, family1_par):
        par = family1_par
        for s in (-0.3, 0.0, 0.21):
            got = rhs_evaluate(par, s, np.zeros(par.leaf_dim))
            want = canonicalize(SIG, par.base.lift_fn(s))
            assert got.gap(want) < 1e-12

    def test_points_lie_in_the_anchored_leaf(self, family1_par):
        """At the anchor, evaluation fills the hyperplane leaf there."""
        par = family1_par
        q0 = par.base.lift_fn(0.0)
        vel = par.velocity[int(np.argmin(np.abs(par.base.params)))]
        x0 = canonicalize(SIG, q0)
        eta = tangent_from_lift(SIG, q0, vel)
        leaf = complex_hyperplane_leaf(x0, eta)
        rng = np.random.default_rng(3)
        for _ in range(5):
            c = rng.standard_normal(par.leaf_dim)
            c *= 0.3 / np.linalg.norm(c)
            pt = rhs_evaluate(par, 0.0, c)
            assert leaf.membership_residual(pt) < 1e-9

    def test_family_one_slice_membership(self, family1_par, family1_data):
        """Off-anchor points stay on the closed-form hypersurface."""
        par = family1_par
        z = example_spec(1).seed_z
        mod = abs(z[-1])
        rng = np.random.default_rng(5)
        for _ in range(10):
            s = rng.uniform(-0.4, 0.4)
            c = rng.standard_normal(par.leaf_dim)
            c *= rng.uniform(0.05, 0.35) / np.linalg.norm(c)
            rep = rhs_evaluate(par, s, c).rep
            tau = s / mod
            residual = abs(rep[3] * np.cos(tau) - rep[2] * np.sin(tau))
            assert residual < 1e-9

    def test_chart_radius_enforced(self, family1_par):
        par = family1_par
        big = np.zeros(par.leaf_dim)
        big[0] = np.pi / 2 + 0.01
        with pytest.raises(ChartError):
            rhs_evaluate(par, 0.0, big)

    def test_round_trip_through_log(self, family1_par):
        """Leaf coordinates of a logged point reproduce the point."""
        par = family1_par
        rng = np.random.default_rng(11)
        frame0 = par.frames_at(0.0)
        x0 = canonicalize(SIG, par.base.lift_fn(0.0))
        c = rng.standard_normal(par.leaf_dim)
        c *= 0.25 / np.linalg.norm(c)
        y = rhs_evaluate(par, 0.0, c)
        v = log_in_leaf(x0, y)
        coords = par.frame_signs * gdot_rows(SIG.signs, frame0, v.vec)
        assert np.max(np.abs(coords - c)) < 1e-8


class TestAlmostContact:
    def test_family_one_normal_is_spacelike(self, family1_par):
        fr = _frame_at(family1_par, 0.1, np.array([0.1, 0.0, -0.1, 0.05]))
        assert fr.epsilon == 1.0

    def test_family_three_normal_is_timelike(self):
        data = example_integral_curve(example_spec(3))
        par = transport_basis(data.curve)
        fr = _frame_at(par, 0.05, np.array([0.1, 0.05, -0.02, 0.08]))
        assert fr.epsilon == -1.0

    def test_normal_matches_closed_form_up_to_sign(self, family1_par):
        from pseudocp.examples import example_fields

        fields = example_fields(example_spec(1), 0.0)
        fr = _frame_at(family1_par, 0.0, np.zeros(family1_par.leaf_dim))
        gap = min(
            float(np.max(np.abs(fr.normal - fields.n_hat))),
            float(np.max(np.abs(fr.normal + fields.n_hat))),
        )
        assert gap < 1e-7

    def test_structure_identities_random_tangent(self, family1_par, rng):
        fr = _frame_at(family1_par, -0.2, np.array([0.05, 0.1, 0.02, -0.07]))
        x = fr.random_tangent(rng)
        assert np.max(np.abs(fr.phi(fr.phi(x)) + x - fr.epsilon * fr.eta(x) * fr.xi)) < 1e-12
        assert np.max(np.abs(fr.phi(fr.xi))) < 1e-12
        assert fr.eta(fr.xi) == pytest.approx(fr.epsilon, abs=1e-12)
        y = fr.random_tangent(rng)
        lhs = real_metric(SIG, fr.phi(x), fr.phi(y))
        rhs = real_metric(SIG, x, y) - fr.epsilon * fr.eta(x) * fr.eta(y)
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_phi_covariant_derivative_identity(self, family1_par, rng):
        """The derivative of phi trades the shape image against the
        structure covector: (nabla_X phi)Y = eps g(Y,xi) AX - eps g(AX,Y) xi."""
        from pseudocp.ruled import hypersurface_frames

        patch = RHSPatch(family1_par)
        u = np.array([0.07, 0.04, -0.06, 0.03, 0.08])
        fr = hypersurface_frame(patch, u)
        x = fr.random_tangent(rng)
        y_coeff = rng.standard_normal(fr.tangents.shape[0])
        y = y_coeff @ fr.tangents
        ax_dir = fr.tangent_coords(x)
        h = 1e-3
        def field_values(uu):
            f2 = hypersurface_frames(patch, uu[None], ref=fr).row(0)
            yv = y_coeff @ f2.tangents
            return f2.phi(yv), yv

        pp, yp = field_values(u + h * ax_dir)
        pm, ym = field_values(u - h * ax_dir)
        d_phi_y = fr.tangential((pp - pm) / (2.0 * h))
        d_y = fr.tangential((yp - ym) / (2.0 * h))
        lhs = d_phi_y - fr.phi(d_y)
        ax = weingarten_apply(patch, fr, u, x)
        rhs = fr.epsilon * fr.eta(y) * ax - fr.epsilon * real_metric(SIG, ax, y) * fr.xi
        assert np.max(np.abs(lhs - rhs)) < 1e-4


class TestShapeOperator:
    def test_leaf_block_vanishes_and_pattern(self, family1_par):
        """Rank two, symmetric, with the leaf vector paired to the structure."""
        rep = shape_operator_at(RHSPatch(family1_par), np.array([0.1, 0.1, 0.05, -0.08, 0.02]))
        assert rep.dd_block_max < 1e-6
        assert abs(rep.mu) < 1e-6
        assert rep.rank == 2
        assert rep.form is ShapeForm.RANK_TWO_NON_NULL_U
        # matrix pattern: only the (xi, W) pair carries weight
        m = rep.matrix
        assert abs(m[1, 0]) > 0.1
        assert abs(m[0, 1]) > 0.1
        assert np.max(np.abs(m[2:, :])) < 1e-4
        assert np.max(np.abs(m[:, 2:])) < 1e-4

    def test_self_adjointness(self, family1_par, rng):
        u = np.array([0.12, 0.03, -0.1, 0.02, 0.06])
        patch = RHSPatch(family1_par)
        fr = hypersurface_frame(patch, u)
        x = fr.random_tangent(rng)
        y = fr.random_tangent(rng)
        ax = weingarten_apply(patch, fr, u, x)
        ay = weingarten_apply(patch, fr, u, y)
        assert real_metric(SIG, ax, y) == pytest.approx(
            real_metric(SIG, x, ay), abs=1e-6
        )

    def test_rank_two_cross_relation(self, family1_par):
        """Structure image pairs back: g(A W, xi) equals g(W, A xi)."""
        u = np.array([0.0, 0.1, 0.1, -0.05, 0.0])
        patch = RHSPatch(family1_par)
        rep = shape_operator_at(patch, u)
        fr = rep.frame
        w = rep.u_vec / rep.lam
        aw = weingarten_apply(patch, fr, u, w)
        # A W should be parallel to xi with coefficient eps * lam
        expected = fr.epsilon * rep.lam * fr.xi
        sign = np.sign(real_metric(SIG, rep.u_vec, w))
        assert np.max(np.abs(aw - sign * expected)) < 1e-5

    def test_lightlike_leaf_vector_annihilated(self):
        """At the unit-modulus seed, U is null and A kills U and phi U."""
        spec = example_spec(1, seed_z=gamma_seed(example_spec(1).sig, np.pi / 4))
        par = transport_basis(example_integral_curve(spec).curve)
        patch = RHSPatch(par)
        u = np.zeros(patch.n_params)
        u[0] = 0.12
        rep = shape_operator_at(patch, u)
        uvec, fr = rep.u_vec, rep.frame
        assert abs(real_metric(SIG, uvec, uvec)) < 1e-6
        assert float(np.sqrt(np.sum(np.abs(uvec) ** 2))) > 0.5
        au = weingarten_apply(patch, fr, u, uvec)
        aphiu = weingarten_apply(patch, fr, u, fr.phi(uvec))
        assert np.max(np.abs(au)) < 1e-4
        assert np.max(np.abs(aphiu)) < 1e-4
        assert rep.form is ShapeForm.LIGHTLIKE_U

    def test_geodesic_sphere_control_is_not_ruled(self):
        patch = _control_patch()
        rep = shape_operator_at(patch, np.zeros(patch.n_params))
        assert rep.dd_block_max > 1e-1
        assert abs(rep.mu) > 1e-2


class TestVerifyAndMinimality:
    """The ruled characterization and minimality read off stacked shape
    operators: the leaf block and mu vanish on a ruled grid, not on the
    control surface."""

    def test_family_one_grid_passes(self, family1_par):
        rows = leaf_coordinate_grid(family1_par, 3, 2)
        patch = RHSPatch(family1_par)
        reports = shape_operators(patch, rows)
        assert len(reports) == 6
        assert max(rep.dd_block_max for rep in reports) < 1e-4
        assert codazzi_residual(patch, rows[0], np.random.default_rng(7)) < 1e-4

    def test_control_fails(self):
        patch = _control_patch()
        rows = np.array([0.1 * np.ones(patch.n_params), np.zeros(patch.n_params)])
        assert max(rep.dd_block_max for rep in shape_operators(patch, rows)) > 1e-4

    def test_single_point_grid(self, family1_par):
        patch = RHSPatch(family1_par)
        reports = shape_operators(patch, np.zeros((1, patch.n_params)))
        assert len(reports) == 1
        assert reports[0].dd_block_max < 1e-4

    def test_minimality_family_one(self, family1_par):
        rows = leaf_coordinate_grid(family1_par, 3, 2)
        worst = max(abs(rep.mu) for rep in shape_operators(RHSPatch(family1_par), rows))
        assert worst < 1e-4

    def test_minimality_control_false(self):
        patch = _control_patch()
        assert abs(shape_operator_at(patch, np.zeros(patch.n_params)).mu) > 1e-2


class _SyntheticPatch:
    """Hand-built patch sweeping prescribed directions from a base point."""

    def __init__(self, sig, q0, dirs):
        self.sig = sig
        self.q0 = np.asarray(q0, dtype=complex)
        self.dirs = np.asarray(dirs, dtype=complex)
        self.n_params = self.dirs.shape[0]

    def lift_at(self, u):
        return sphere_geodesic(self.sig, self.q0, u @ self.dirs, 1.0)


class TestErrorPaths:
    def test_degenerate_normal_detected(self):
        """A tangent plane containing its own null complement is degenerate."""
        sig = Signature(2, 1)
        q0 = np.array([0, 0, 1], dtype=complex)
        dirs = np.array([[1, 1, 0], [1j, 0, 0], [0, 1j, 0]], dtype=complex)
        from pseudocp.errors import DegenerateHypersurfaceError

        with pytest.raises(DegenerateHypersurfaceError):
            hypersurface_frame(_SyntheticPatch(sig, q0, dirs), np.zeros(3))

    def test_rank_deficient_parametrization_detected(self):
        sig = Signature(2, 1)
        q0 = np.array([0, 0, 1], dtype=complex)
        dirs = np.array([[1, 0, 0], [2, 0, 0], [0, 1, 0]], dtype=complex)
        from pseudocp.errors import ImmersionError

        with pytest.raises(ImmersionError):
            hypersurface_frame(_SyntheticPatch(sig, q0, dirs), np.zeros(3))

    def test_lightlike_base_curve_rejected(self):
        from pseudocp.errors import CausalCharacterError

        q0 = np.array([0, 0, 0, 1], dtype=complex)
        null = np.array([1, 1, 0, 0], dtype=complex)
        line = lambda s: q0 + np.multiply.outer(s, null)
        curve = sampled_curve_from_fn(SIG, line, -0.3, 0.3, 1e-3)
        with pytest.raises(CausalCharacterError):
            transport_basis(curve)

    def test_order_three_curve_matches_no_case(self):
        """A helix with two curvatures falls outside the three minimal cases."""
        from pseudocp.errors import ClassificationError
        from pseudocp.ruled import classify_generating_curve

        a = 0.3
        b = np.sqrt(1 - a * a)
        p = 1.0
        q = np.sqrt((1 + a * a * p * p) / (b * b))

        def helix(s):
            return np.stack(
                [
                    a * np.sinh(p * s),
                    a * np.cosh(p * s),
                    b * np.cos(q * s),
                    b * np.sin(q * s),
                ],
                axis=-1,
            ).astype(complex)

        curve = sampled_curve_from_fn(SIG, helix, -0.5, 0.5, 1e-3)
        with pytest.raises(ClassificationError):
            classify_generating_curve(curve)


class TestClassification:
    def test_geodesic_base(self):
        par = _geodesic_par()
        report = classify_minimal_ruled(par)
        assert report.case is MinimalCase.CASE_A_GEODESIC

    @pytest.mark.parametrize(
        "r,case,kind,kappa",
        [
            (np.pi / 8, MinimalCase.CASE_B_TOTALLY_REAL_CIRCLE, "rp2", 1.5537739740300374),
            (np.pi / 4, MinimalCase.CASE_C_NON_FRENET, "b3_1", None),
            (np.pi / 2, MinimalCase.CASE_B_TOTALLY_REAL_CIRCLE, "s2_1", 0.7071067811865476),
        ],
    )
    def test_distinguished_seeds(self, r, case, kind, kappa):
        spec = example_spec(1, seed_z=gamma_seed(example_spec(1).sig, r))
        par = transport_basis(example_integral_curve(spec).curve)
        report = classify_minimal_ruled(par)
        assert report.case is case
        assert report.kind == kind
        if kappa is not None:
            assert report.kappa1 == pytest.approx(kappa, abs=1e-4)
        assert report.xi_defect < 1e-6

    def test_family_four_negative_definite_kind(self):
        data = example_integral_curve(example_spec(4))
        par = transport_basis(data.curve)
        report = classify_minimal_ruled(par)
        assert report.case is MinimalCase.CASE_B_TOTALLY_REAL_CIRCLE
        assert report.kind == "h2_2"
        assert report.eps1 == -1.0

    @pytest.mark.parametrize("sig", [Signature(3, 1), Signature(4, 2)], ids=str)
    @pytest.mark.parametrize("r,kind", [(0.775, "rp2"), (0.78, "rp2"), (0.79125, "s2_1")])
    def test_family_one_near_the_case_c_transition(self, sig, r, kind):
        """Small kappa1 near seed_r = pi/4 still classifies as a circle."""
        data = example_integral_curve(example_spec(1, sig=sig, seed_z=gamma_seed(sig, r)))
        report = classify_minimal_ruled(transport_basis(data.curve))
        assert report.case is MinimalCase.CASE_B_TOTALLY_REAL_CIRCLE
        assert report.kind == kind
        assert report.kappa1 == pytest.approx(np.sqrt(abs(data.accel_square)), abs=1e-6)

    def test_base_curve_off_unit_speed_is_not_an_integral_curve(self):
        """At speed 1.01 xi has base-line coordinate 1/1.01, not +-1."""
        fn = example_integral_curve(example_spec(2)).curve.lift_fn
        sig = example_spec(2).sig
        curve = sampled_curve_from_fn(sig, lambda s: fn(1.01 * s), -0.495, 0.495, 1e-3)
        par = transport_basis(curve)
        with pytest.raises(ClassificationError, match="not an integral curve"):
            classify_minimal_ruled(par)

    def test_non_horizontal_base_lifts_are_re_lifted(self):
        """A base curve held by phase-rotated lifts regenerates horizontally."""
        data = example_integral_curve(example_spec(2))
        fn = data.curve.lift_fn
        curve = sampled_curve_from_fn(
            data.curve.sig, lambda s: np.exp(0.7j * s)[..., None] * fn(s), -0.5, 0.5, 1e-3
        )
        assert curve.horizontality_defect() > 0.5
        par = transport_basis(curve)
        regenerated, defect = regenerate_integral_curve(par)
        assert regenerated.horizontality_defect() < 1e-9
        assert defect < 1e-6
        report = classify_minimal_ruled(par)
        assert (report.case, report.kind) == (data.predicted_case, data.kind)
        assert report.kappa1 == pytest.approx(data.kappa1, abs=1e-6)
