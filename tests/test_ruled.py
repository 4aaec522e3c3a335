"""Frame transport, evaluation, shape operators and the case classifier."""

import numpy as np
import pytest

from oracles import (
    _geodesic_curve,
    _par,
    _ref_frame,
    _sphere_patch,
    _SyntheticPatch,
    covariant_derivative,
    helix_curve,
    log_in_leaf,
    random_unit_tangent,
)
from pseudocp import ruled
from pseudocp.curves import sampled_curve_from_fn
from pseudocp.errors import ChartError, ClassificationError
from pseudocp.examples import (
    EXAMPLE_IDS,
    example_integral_curve,
    example_spec,
    gamma_seed,
)
from pseudocp.linalg import (
    CausalCharacter,
    Signature,
    causal_characters,
    gdot_rows,
    hermitian_product,
    real_metric,
)
from pseudocp.projective import canonicalize
from pseudocp.ruled import (
    NUMERIC_LIGHT_TOL,
    XI_TOL,
    GeodesicSpherePatch,
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

#: the default families at every admitted signature with 3 <= n <= 6 whose
#: default seed lies on its seed sphere
BASE_LINES = (
    [(1, n, p) for n in range(3, 7) for p in range(1, n - 1)]
    + [(2, n, 1) for n in range(4, 7)]
    + [(example_id, n, 2) for example_id in (3, 4) for n in range(3, 7)]
)


def _ranks(matrix):
    """Ranks of stacked shape matrices (N, P, P): the singular values above
    1e-3 times the largest, or above 1e-3 when the largest is below one."""
    svals = np.linalg.svd(matrix, compute_uv=False)
    return np.sum(svals > 1e-3 * np.maximum(1.0, svals[:, :1]), axis=1)


def _u_characters(rep):
    """Causal characters of the leaf vectors U of a shape report, at the
    relative threshold that pins U in the adapted bases."""
    return causal_characters(rep.frame.sig, rep.u_vec, NUMERIC_LIGHT_TOL)


def _frame_at(par, s, coords):
    return hypersurface_frame(par, np.concatenate([[s], coords]))


class TestTransportBasis:
    def test_geodesic_base_frame_is_parallel(self):
        """Along a geodesic the transported frame is genuinely parallel."""
        par = transport_basis(_geodesic_curve())
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


class TestEvaluation:
    def test_zero_coords_recover_base_curve(self, family1_par):
        par = family1_par
        for s in (-0.3, 0.0, 0.21):
            got = rhs_evaluate(par, s, np.zeros(par.leaf_dim))
            want = canonicalize(SIG, par.base.lift_fn(s))
            assert got.gap(want) < 1e-12

    def test_points_lie_in_the_anchored_leaf(self):
        """The leaf through alpha(s) is the complex hyperplane
        P(alpha'(s)^perp): every point evaluated there is g_C-orthogonal to
        the base velocity, for each default family along its whole curve."""
        rng = np.random.default_rng(3)
        for ex in EXAMPLE_IDS:
            par = _par(ex)
            for i in np.linspace(0, len(par.base.params) - 1, 7).astype(int):
                s = float(par.base.params[i])
                vel = par.velocity[i]
                vel = vel / np.sqrt(abs(real_metric(par.sig, vel, vel)))
                for _ in range(5):
                    c = rng.standard_normal(par.leaf_dim)
                    c *= 0.3 / np.linalg.norm(c)
                    z = rhs_evaluate(par, s, c).rep
                    assert abs(hermitian_product(par.sig, z, vel)) <= 1e-9

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
        signs = np.sign(gdot_rows(SIG.signs, frame0, frame0))
        coords = signs * gdot_rows(SIG.signs, frame0, v.vec)
        assert np.max(np.abs(coords - c)) < 1e-8


class TestAlmostContact:
    def test_family_one_normal_is_spacelike(self, family1_par):
        fr = _frame_at(family1_par, 0.1, np.array([0.1, 0.0, -0.1, 0.05]))
        assert fr.epsilon == 1.0

    def test_family_three_normal_is_timelike(self):
        fr = _frame_at(_par(3), 0.05, np.array([0.1, 0.05, -0.02, 0.08]))
        assert fr.epsilon == -1.0

    def test_normal_matches_closed_form(self, family1_par):
        """The oriented normal is the closed form's i xi_hat, sign included:
        xi_hat is the unit velocity of the base curve."""
        from pseudocp.examples import example_fields

        fields = example_fields(example_spec(1), 0.0)
        fr = _frame_at(family1_par, 0.0, np.zeros(family1_par.leaf_dim))
        assert float(np.max(np.abs(fr.normal - fields.n_hat))) < 1e-7

    def test_structure_identities_random_tangent(self, family1_par, rng):
        fr = _frame_at(family1_par, -0.2, np.array([0.05, 0.1, 0.02, -0.07]))
        x = random_unit_tangent(fr, rng)
        assert np.max(np.abs(fr.phi(fr.phi(x)) + x - (fr.epsilon * fr.eta(x))[:, None] * fr.xi)) < 1e-12
        assert np.max(np.abs(fr.phi(fr.xi))) < 1e-12
        assert fr.eta(fr.xi)[0] == pytest.approx(fr.epsilon[0], abs=1e-12)
        y = random_unit_tangent(fr, rng)
        lhs = real_metric(SIG, fr.phi(x)[0], fr.phi(y)[0])
        rhs = real_metric(SIG, x[0], y[0]) - fr.epsilon[0] * fr.eta(x)[0] * fr.eta(y)[0]
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_phi_covariant_derivative_identity(self, family1_par, rng):
        """The derivative of phi trades the shape image against the
        structure covector: (nabla_X phi)Y = eps g(Y,xi) AX - eps g(AX,Y) xi."""
        from pseudocp.ruled import hypersurface_frames

        par = family1_par
        u = np.array([0.07, 0.04, -0.06, 0.03, 0.08])
        fr = hypersurface_frame(par, u)
        x = random_unit_tangent(fr, rng)
        y_coeff = rng.standard_normal(fr.tangents.shape[1])
        y = y_coeff @ fr.tangents
        ax_dir = fr.tangent_coords(x)[0]
        h = 1e-3
        def field_values(uu):
            f2 = hypersurface_frames(par, uu[None], ref=fr)
            yv = y_coeff @ f2.tangents
            return f2.phi(yv), yv

        pp, yp = field_values(u + h * ax_dir)
        pm, ym = field_values(u - h * ax_dir)
        d_phi_y = fr.tangential((pp - pm) / (2.0 * h))
        d_y = fr.tangential((yp - ym) / (2.0 * h))
        lhs = (d_phi_y - fr.phi(d_y))[0]
        ax = weingarten_apply(fr, x)[0]
        eps = fr.epsilon[0]
        rhs = eps * fr.eta(y)[0] * ax - eps * real_metric(SIG, ax, y[0]) * fr.xi[0]
        assert np.max(np.abs(lhs - rhs)) < 1e-4


class TestShapeOperator:
    def test_leaf_block_vanishes_and_pattern(self, family1_par):
        """Rank two, symmetric, with the leaf vector paired to the structure."""
        rep = shape_operator_at(family1_par, np.array([0.1, 0.1, 0.05, -0.08, 0.02]))
        assert rep.dd_block_max[0] < 1e-6
        assert abs(rep.mu[0]) < 1e-6
        assert _ranks(rep.matrix).tolist() == [2]
        assert _u_characters(rep)[0] in (CausalCharacter.SPACELIKE, CausalCharacter.TIMELIKE)
        # matrix pattern: only the (xi, W) pair carries weight
        m = rep.matrix[0]
        assert abs(m[1, 0]) > 0.1
        assert abs(m[0, 1]) > 0.1
        assert np.max(np.abs(m[2:, :])) < 1e-4
        assert np.max(np.abs(m[:, 2:])) < 1e-4

    def test_self_adjointness(self, family1_par, rng):
        u = np.array([0.12, 0.03, -0.1, 0.02, 0.06])
        fr = hypersurface_frame(family1_par, u)
        x = random_unit_tangent(fr, rng)
        y = random_unit_tangent(fr, rng)
        ax = weingarten_apply(fr, x)
        ay = weingarten_apply(fr, y)
        assert real_metric(SIG, ax[0], y[0]) == pytest.approx(
            real_metric(SIG, x[0], ay[0]), abs=1e-6
        )

    def test_rank_two_cross_relation(self, family1_par):
        """Structure image pairs back: g(A W, xi) equals g(W, A xi)."""
        u = np.array([0.0, 0.1, 0.1, -0.05, 0.0])
        rep = shape_operator_at(family1_par, u)
        fr = rep.frame
        w = rep.u_vec / rep.lam[:, None]
        aw = weingarten_apply(fr, w)
        # A W should be parallel to xi with coefficient eps * lam
        expected = (fr.epsilon * rep.lam)[:, None] * fr.xi
        sign = np.sign(real_metric(SIG, rep.u_vec[0], w[0]))
        assert np.max(np.abs(aw - sign * expected)) < 1e-5

    def test_lightlike_leaf_vector_annihilated(self):
        """At the unit-modulus seed, U is null and A kills U and phi U."""
        spec = example_spec(1, seed_z=gamma_seed(example_spec(1).sig, np.pi / 4))
        par = transport_basis(example_integral_curve(spec).curve)
        u = np.zeros(par.n_params)
        u[0] = 0.12
        rep = shape_operator_at(par, u)
        uvec, fr = rep.u_vec, rep.frame
        assert abs(real_metric(SIG, uvec[0], uvec[0])) < 1e-6
        assert float(np.sqrt(np.sum(np.abs(uvec) ** 2))) > 0.5
        au = weingarten_apply(fr, uvec)
        aphiu = weingarten_apply(fr, fr.phi(uvec))
        assert np.max(np.abs(au)) < 1e-4
        assert np.max(np.abs(aphiu)) < 1e-4
        assert np.max(np.abs(rep.matrix)) > 1e-4
        assert _u_characters(rep) == [CausalCharacter.LIGHTLIKE]

    def test_geodesic_sphere_control_is_not_ruled(self):
        patch = _sphere_patch()
        rep = shape_operator_at(patch, np.zeros(patch.n_params))
        assert rep.dd_block_max[0] > 1e-1
        assert abs(rep.mu[0]) > 1e-2

    def test_geodesic_sphere_rows_are_hopf_of_full_rank(self):
        """The sphere is Hopf (U = 0) with a shape operator of full rank, so
        it is neither of the paper's two families."""
        patch = _sphere_patch()
        rows = 0.05 * np.arange(6)[:, None] * np.ones(patch.n_params)
        rep = shape_operators(patch, rows)
        assert _ranks(rep.matrix).tolist() == [patch.n_params] * len(rows)
        assert _u_characters(rep) == [CausalCharacter.ZERO] * len(rows)

    @pytest.mark.parametrize(
        "sig", [Signature(3, 1), Signature(4, 1), Signature(4, 2), Signature(5, 2)], ids=str
    )
    def test_geodesic_sphere_reads_the_signed_hopf_mu(self, sig):
        """The distance sphere of radius r around e_n has mu = g(A xi, xi) =
        2 cot 2r at every point, with that sign at every signature, radius
        and seed: the orientation is the patch's, not a coordinate pivot's."""
        center = canonicalize(sig, np.eye(sig.ambient_dim, dtype=complex)[sig.n])
        for r in (0.4, 0.7):
            for seed in range(3):
                patch = GeodesicSpherePatch(center, r, seed=seed)
                rows = 0.1 * np.random.default_rng(seed).standard_normal((4, patch.n_params))
                mu = shape_operators(patch, rows).mu
                assert np.max(np.abs(mu - 2.0 / np.tan(2.0 * r))) <= 1e-6

    @pytest.mark.parametrize("example_id", EXAMPLE_IDS)
    def test_default_family_grid_reads_rank_two_non_null_u(self, example_id):
        par = _par(example_id)
        reports = shape_operators(par, leaf_coordinate_grid(par, 5, 4))
        assert reports.matrix.shape[0] == 20
        assert _ranks(reports.matrix).tolist() == [2] * 20
        assert set(_u_characters(reports)) <= {CausalCharacter.SPACELIKE, CausalCharacter.TIMELIKE}
        assert np.min(np.max(np.abs(reports.matrix), axis=(1, 2))) > 1e-4


class TestVerifyAndMinimality:
    """The ruled characterization and minimality read off stacked shape
    operators: the leaf block and mu vanish on a ruled grid, not on the
    control surface."""

    def test_family_one_grid_passes(self, family1_par):
        rows = leaf_coordinate_grid(family1_par, 3, 2)
        reports = shape_operators(family1_par, rows)
        assert reports.dd_block_max.shape == (6,)
        assert np.max(reports.dd_block_max) < 1e-4
        assert codazzi_residual(family1_par, rows[0], np.random.default_rng(7)) < 1e-4

    def test_control_fails(self):
        patch = _sphere_patch()
        rows = np.array([0.1 * np.ones(patch.n_params), np.zeros(patch.n_params)])
        assert np.max(shape_operators(patch, rows).dd_block_max) > 1e-4

    def test_single_point_grid(self, family1_par):
        reports = shape_operators(family1_par, np.zeros((1, family1_par.n_params)))
        assert reports.dd_block_max.shape == (1,)
        assert reports.dd_block_max[0] < 1e-4

    def test_minimality_family_one(self, family1_par):
        rows = leaf_coordinate_grid(family1_par, 3, 2)
        worst = np.max(np.abs(shape_operators(family1_par, rows).mu))
        assert worst < 1e-4

    def test_minimality_control_false(self):
        patch = _sphere_patch()
        assert abs(shape_operator_at(patch, np.zeros(patch.n_params)).mu[0]) > 1e-2


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
        from pseudocp.ruled import classify_generating_curve

        with pytest.raises(ClassificationError):
            classify_generating_curve(helix_curve())


class TestClassification:
    def test_geodesic_base(self):
        par = transport_basis(_geodesic_curve())
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
        assert regenerate_integral_curve(par)[1] < 1e-6

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

    @pytest.mark.parametrize("example_id,n,p", BASE_LINES)
    def test_structure_field_is_the_unit_velocity_on_the_base_line(self, example_id, n, p, monkeypatch):
        """xi = +alpha'/|alpha'| on the base line: in
        ``regenerate_integral_curve`` the tangent coordinates of xi are
        (1, 0, ..., 0) within ``XI_TOL``, sign included. The normal at s = 0
        is the oracle's, whose orientation factor (-1)^(d(d-1)/2) is -1 at
        d = 6 and 7."""
        par = transport_basis(example_integral_curve(example_spec(example_id, sig=Signature(n, p))).curve)
        measured = []
        kernel = ruled.hypersurface_frames
        spy = lambda *args, **kw: measured.append(kernel(*args, **kw)) or measured[-1]
        monkeypatch.setattr(ruled, "hypersurface_frames", spy)
        _, defect = regenerate_integral_curve(par)
        (frames,) = measured
        coords = frames.tangent_coords(frames.xi)
        assert np.max(np.abs(coords - np.eye(par.n_params)[0])) <= XI_TOL
        assert defect <= XI_TOL
        center = coords.shape[0] // 2
        assert not np.any(frames.rows[center])
        want = _ref_frame(par, frames.rows[center])
        assert np.max(np.abs(frames.normal[center] - want.normal[0])) < 1e-12

    def test_base_curve_off_unit_speed_is_not_an_integral_curve(self):
        """At speed 1.01 xi has base-line coordinate 1/1.01, not 1."""
        fn = example_integral_curve(example_spec(2)).curve.lift_fn
        sig = example_spec(2).sig
        curve = sampled_curve_from_fn(sig, lambda s: fn(1.01 * s), -0.495, 0.495, 1e-3)
        par = transport_basis(curve)
        with pytest.raises(ClassificationError, match="not an integral curve"):
            classify_minimal_ruled(par)

    def test_non_horizontal_base_lifts_are_re_lifted(self, monkeypatch):
        """A base curve held by phase-rotated lifts is classified on its
        horizontal lift: ``classify_generating_curve`` re-lifts it before
        the Frenet stages."""
        data = example_integral_curve(example_spec(2))
        fn = data.curve.lift_fn
        curve = sampled_curve_from_fn(
            data.curve.sig, lambda s: np.exp(0.7j * s)[..., None] * fn(s), -0.5, 0.5, 1e-3
        )
        assert curve.horizontality_defect() > 0.5
        par = transport_basis(curve)
        _, defect = regenerate_integral_curve(par)
        assert defect < 1e-6
        classified = []
        frenet = ruled.frenet_apparatus
        monkeypatch.setattr(ruled, "frenet_apparatus", lambda c: classified.append(c) or frenet(c))
        report = classify_minimal_ruled(par)
        (lifted,) = classified
        assert lifted.horizontality_defect() < 1e-9
        assert (report.case, report.kind) == (data.predicted_case, data.kind)
        assert report.kappa1 == pytest.approx(data.kappa1, abs=1e-6)
