"""Quotient points, horizontal splitting, geodesics, curvature, and the
exp/log references of ``oracles``."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    _e,
    _scalar_geodesic,
    exp_map,
    log_in_leaf,
    random_horizontal,
    random_horizontal_unit,
    random_sphere_point,
    tangent_from_lift,
)
from pseudocp.cli import _curve_from_file
from pseudocp.errors import NotProjectablePoint
from pseudocp.linalg import CausalCharacter, Signature, jmul, real_metric
from pseudocp.projective import (
    canonical_rows,
    canonicalize,
    curvature_tensor,
    horizontal_rows,
    quadric_geodesic,
    sphere_geodesic,
)

SIG = Signature(3, 1)


class TestCanonicalize:
    def test_phase_removal(self):
        pt = canonicalize(SIG, 1j * _e(3))
        assert np.allclose(pt.rep, _e(3))

    def test_normalization(self):
        pt = canonicalize(SIG, 2.0 * _e(3))
        assert np.allclose(pt.rep, _e(3))

    def test_rejects_timelike_position(self):
        with pytest.raises(NotProjectablePoint):
            canonicalize(SIG, _e(0))

    def test_phase_invariance(self, rng):
        for _ in range(20):
            z = random_sphere_point(SIG, rng)
            theta = rng.uniform(0, 2 * np.pi)
            assert canonicalize(SIG, np.exp(1j * theta) * z).gap(
                canonicalize(SIG, z)
            ) < 1e-12


class TestHorizontalProject:
    def test_vertical_direction_killed(self, rng):
        q = random_sphere_point(SIG, rng)
        assert np.max(np.abs(horizontal_rows(SIG.signs, q, 1j * q))) < 1e-12

    def test_horizontal_fixed(self, rng):
        q = random_sphere_point(SIG, rng)
        h = random_horizontal(SIG, q, rng)
        assert np.allclose(horizontal_rows(SIG.signs, q, h), h, atol=1e-12)

    def test_linearity(self, rng):
        q = random_sphere_point(SIG, rng)
        h = random_horizontal(SIG, q, rng)
        assert np.allclose(horizontal_rows(SIG.signs, q, 1j * q + h), h, atol=1e-12)

    def test_projection_is_metric_compatible(self, rng):
        """Submersion isometry: horizontal parts carry the quotient metric."""
        q = random_sphere_point(SIG, rng)
        for _ in range(10):
            x = random_horizontal(SIG, q, rng)
            y = random_horizontal(SIG, q, rng)
            assert real_metric(SIG, x, y) == pytest.approx(
                real_metric(SIG, horizontal_rows(SIG.signs, q, x), y), abs=1e-10
            )


class TestSphereGeodesic:
    def test_quarter_turn(self):
        q, v = _e(3), _e(2)
        out = sphere_geodesic(SIG, q, v, np.pi / 2)
        assert np.allclose(out, v, atol=1e-15)

    def test_time_zero(self, rng):
        q = random_sphere_point(SIG, rng)
        v = random_horizontal_unit(SIG, q, rng, CausalCharacter.TIMELIKE)
        assert np.allclose(sphere_geodesic(SIG, q, v, 0.0), q)

    def test_lightlike_direction_stays_on_sphere(self, rng):
        """The affine ray of a null direction keeps unit square norm."""
        q = random_sphere_point(SIG, rng)
        v = random_horizontal(SIG, q, rng)
        gv = real_metric(SIG, v, v)
        w = random_horizontal(SIG, q, rng)
        w = w - real_metric(SIG, w, v) / gv * v
        gw = real_metric(SIG, w, w)
        assert gv * gw < 0, "need opposite causal characters to build a null mix"
        null = v / np.sqrt(abs(gv)) + w / np.sqrt(abs(gw))
        for t in (-3.0, 0.5, 7.0):
            g = real_metric(SIG, *(sphere_geodesic(SIG, q, null, t),) * 2)
            assert abs(g - 1.0) < 1e-9

    @pytest.mark.parametrize("character", [CausalCharacter.SPACELIKE, CausalCharacter.TIMELIKE])
    def test_membership_against_t_range(self, rng, character):
        q = random_sphere_point(SIG, rng)
        v = random_horizontal_unit(SIG, q, rng, character)
        limit = 10.0 if character is CausalCharacter.SPACELIKE else 6.0
        for t in np.linspace(-limit, limit, 9):
            gamma = sphere_geodesic(SIG, q, v, float(t))
            assert abs(real_metric(SIG, gamma, gamma) - 1.0) < 1e-9

    def test_rk4_oracle(self, rng):
        """Closed form against direct integration of gamma'' = -g(v,v) gamma."""
        q = random_sphere_point(SIG, rng)
        for character in (CausalCharacter.SPACELIKE, CausalCharacter.TIMELIKE):
            v = random_horizontal_unit(SIG, q, rng, character)
            g = real_metric(SIG, v, v)
            y = np.concatenate([q, v])
            h = 1e-3
            f = lambda y: np.concatenate([y[4:], -g * y[:4]])
            for _ in range(1000):
                k1 = f(y)
                k2 = f(y + 0.5 * h * k1)
                k3 = f(y + 0.5 * h * k2)
                k4 = f(y + h * k3)
                y = y + h * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
            assert np.max(np.abs(y[:4] - sphere_geodesic(SIG, q, v, 1.0))) < 1e-9


class TestExpLog:
    def test_exp_time_zero(self, rng):
        x = canonicalize(SIG, random_sphere_point(SIG, rng))
        v = tangent_from_lift(SIG, x.rep, random_horizontal(SIG, x.rep, rng))
        assert exp_map(x, v, 0.0).gap(x) < 1e-12

    @given(scale=st.floats(-2.0, 2.0))
    @settings(max_examples=25, deadline=None)
    def test_homogeneity(self, scale):
        """Scaling the velocity and scaling the time agree to 1e-10."""
        rng = np.random.default_rng(4)
        x = canonicalize(SIG, random_sphere_point(SIG, rng))
        v = tangent_from_lift(SIG, x.rep, random_horizontal(SIG, x.rep, rng))
        scaled = v._replace(vec=scale * v.vec)
        assert exp_map(x, v, scale * 0.7).gap(exp_map(x, scaled, 0.7)) < 1e-10

    def test_exp_against_projected_rk4(self, rng):
        """Projected sphere integration is an independent oracle for exp."""
        x = canonicalize(SIG, random_sphere_point(SIG, rng))
        v = tangent_from_lift(
            SIG, x.rep, 0.8 * random_horizontal_unit(SIG, x.rep, rng)
        )
        g = real_metric(SIG, v.vec, v.vec)
        y = np.concatenate([x.rep, v.vec])
        h = 1e-3
        f = lambda y: np.concatenate([y[4:], -g * y[:4]])
        for _ in range(1000):
            k1 = f(y)
            k2 = f(y + 0.5 * h * k1)
            k3 = f(y + 0.5 * h * k2)
            k4 = f(y + h * k3)
            y = y + h * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
        assert exp_map(x, v, 1.0).gap(canonicalize(SIG, y[:4])) < 1e-9

    def test_log_of_same_point_is_zero(self, rng):
        x = canonicalize(SIG, random_sphere_point(SIG, rng))
        assert np.max(np.abs(log_in_leaf(x, x).vec)) < 1e-12

    def test_round_trip(self, rng):
        for _ in range(10):
            x = canonicalize(SIG, random_sphere_point(SIG, rng))
            v = tangent_from_lift(
                SIG, x.rep, 0.4 * random_horizontal(SIG, x.rep, rng)
            )
            y = exp_map(x, v, 1.0)
            w = log_in_leaf(x, y)
            assert np.max(np.abs(w.vec - v.vec)) < 1e-8

    def test_orthogonal_pair_fails(self):
        x = canonicalize(SIG, _e(3))
        y = canonicalize(SIG, _e(2))
        with pytest.raises(ValueError, match="g_C-orthogonal"):
            log_in_leaf(x, y)

    def test_timelike_branch_round_trip(self, rng):
        """Log recovers a timelike initial velocity through the cosh branch."""
        x = canonicalize(SIG, random_sphere_point(SIG, rng))
        v = tangent_from_lift(
            SIG,
            x.rep,
            0.8 * random_horizontal_unit(SIG, x.rep, rng, CausalCharacter.TIMELIKE),
        )
        w = log_in_leaf(x, exp_map(x, v, 1.0))
        assert np.max(np.abs(w.vec - v.vec)) < 1e-9

    def test_lightlike_branch_round_trip(self, rng):
        """Log recovers a null initial velocity through the affine branch."""
        q = random_sphere_point(SIG, rng)
        u = random_horizontal_unit(SIG, q, rng)
        w = random_horizontal_unit(SIG, q, rng, CausalCharacter.TIMELIKE)
        w = w - real_metric(SIG, w, u) * u
        w = w / np.sqrt(-real_metric(SIG, w, w))
        null = 0.35 * (u + w)
        x = canonicalize(SIG, q)
        v = tangent_from_lift(SIG, q, null)
        out = log_in_leaf(x, exp_map(x, v, 1.0))
        assert np.max(np.abs(out.vec - v.vec)) < 1e-9


def _pairs(z):
    return [[float(x.real), float(x.imag)] for x in z]


class TestRowForms:
    """Each one-row form is row 0 of its rows form, bit for bit."""

    def test_geodesic_rows_take_every_branch(self, rng):
        q = random_sphere_point(SIG, rng)
        space = random_horizontal_unit(SIG, q, rng, CausalCharacter.SPACELIKE)
        time = random_horizontal_unit(SIG, q, rng, CausalCharacter.TIMELIKE)
        time = time - real_metric(SIG, time, space) * space
        light = space + time / np.sqrt(-real_metric(SIG, time, time))
        assert abs(real_metric(SIG, light, light)) < 1e-12
        vs = np.array([0.7 * space, 1.3 * time, light, np.zeros(4, dtype=complex)])
        ts = np.array([0.37, -1.6, 2.25, 0.9])
        for k in range(len(vs)):
            got = quadric_geodesic(SIG.signs, q, vs[k:], ts[k:])
            one = sphere_geodesic(SIG, q, vs[k], ts[k])
            assert np.array_equal(one, got[0])
            assert np.array_equal(one, _scalar_geodesic(SIG.signs, q, vs[k], ts[k]))

    def test_geodesic_document_lifts_match_the_scalar_loop(self, rng, tmp_path):
        """``classify`` samples a geodesic document in one rows call; each
        lift equals the per-sample scalar geodesic."""
        for character in (CausalCharacter.SPACELIKE, CausalCharacter.TIMELIKE):
            q = random_sphere_point(SIG, rng)
            v = 1.7 * random_horizontal_unit(SIG, q, rng, character)
            doc = {
                "signature": {"n": 3, "p": 1},
                "kind": "closed_form",
                "step": 1e-3,
                "data": {"family": "geodesic", "point": _pairs(q), "velocity": _pairs(v)},
            }
            curve = _curve_from_file(json.loads(json.dumps(doc)))
            qd = np.array([complex(*x) for x in doc["data"]["point"]])
            vd = np.array([complex(*x) for x in doc["data"]["velocity"]])
            vd = vd / np.sqrt(abs(real_metric(SIG, vd, vd)))
            want = np.array([_scalar_geodesic(SIG.signs, qd, vd, s) for s in curve.params])
            assert len(curve) == 1001
            assert np.array_equal(curve.lifts, want)
            assert np.array_equal(curve.lift_fn(0.123), _scalar_geodesic(SIG.signs, qd, vd, 0.123))

    def test_canonical_rows_match_canonicalize(self, rng):
        zs = [random_sphere_point(SIG, rng) * (1.0 + k) * np.exp(0.3j * k) for k in range(6)]
        zs.append(np.array([0.0, 2.0j, -2.0, 1.0]))  # equal moduli: lowest index wins
        zs = np.array(zs)
        got = canonical_rows(SIG, zs.reshape(7, 1, 4))
        for z, row in zip(zs, got[:, 0]):
            assert np.max(np.abs(row - canonicalize(SIG, z).rep)) < 1e-14

    def test_canonicalize_is_row_zero_on_a_modulus_tie(self):
        tie = np.array([0.0, 2.0j, -2.0, 1.0])
        rep = canonicalize(SIG, tie).rep
        assert np.array_equal(rep, canonical_rows(SIG, tie[None])[0])
        assert np.array_equal(rep, canonical_rows(SIG, np.array([tie, _e(3)]))[0])
        assert rep[1].imag == 0.0 and rep[1].real > 0.0
        assert abs(rep[2]) == rep[1].real

    def test_canonical_rows_reject_non_spacelike(self):
        with pytest.raises(NotProjectablePoint):
            canonical_rows(SIG, np.array([_e(3), _e(0)]))

    def test_canonical_rows_reject_a_nan_row(self):
        """A row with a NaN or an infinite entry is refused before g(z,z) is
        formed, so no NaN comes back and no RuntimeWarning (an error under
        the suite's warning filter) is raised."""
        for entry in (np.nan, np.inf, complex(1.0, -np.inf)):
            row = np.array([0.0, 0.0, entry, 1.0])
            with pytest.raises(NotProjectablePoint, match="non-finite entry"):
                canonical_rows(SIG, np.array([_e(3), row]))

    @pytest.mark.parametrize(
        "row",
        [[0, 0, 1e200, 1], [1e200, 0, 0, 1], [1e200, 0, 0, 1e200]],
        ids=["spacelike", "timelike", "both"],
    )
    def test_canonical_rows_reject_a_row_whose_square_overflows(self, row):
        """Finite entries whose squares overflow give an infinite or NaN
        g(z,z): the row is refused by the g check, with no RuntimeWarning
        (an error under the suite's warning filter) on the way."""
        with pytest.raises(NotProjectablePoint, match="is not finite and positive"):
            canonical_rows(SIG, np.array([_e(3), np.array(row, dtype=complex)]))


class TestCurvatureTensor:
    """The stacked kernel on one row each: horizontal lifts at one point."""

    def test_holomorphic_plane_value(self, rng):
        x = canonicalize(SIG, random_sphere_point(SIG, rng))
        xv = random_horizontal_unit(SIG, x.rep, rng)
        xt = tangent_from_lift(SIG, x.rep, xv).vec[None]
        jx = jmul(xt)
        out = curvature_tensor(SIG, xt, jx, jx)
        assert np.max(np.abs(out - 4.0 * xt)) < 1e-10

    def test_vanishes_on_repeated_argument(self, rng):
        x = canonicalize(SIG, random_sphere_point(SIG, rng))
        xt = tangent_from_lift(SIG, x.rep, random_horizontal(SIG, x.rep, rng)).vec[None]
        zt = tangent_from_lift(SIG, x.rep, random_horizontal(SIG, x.rep, rng)).vec[None]
        out = curvature_tensor(SIG, xt, xt, zt)
        assert np.max(np.abs(out)) < 1e-12

    def test_totally_real_plane_sectional_value(self, rng):
        """A totally real orthonormal pair has sectional curvature one."""
        x = canonicalize(SIG, random_sphere_point(SIG, rng))
        u = random_horizontal_unit(SIG, x.rep, rng)
        while True:
            w = random_horizontal(SIG, x.rep, rng)
            w = w - real_metric(SIG, w, u) * u - real_metric(SIG, w, jmul(u)) * jmul(u)
            gw = real_metric(SIG, w, w)
            if gw > 0.05 * np.sum(np.abs(w) ** 2):
                w = w / np.sqrt(gw)
                break
        xt = tangent_from_lift(SIG, x.rep, u).vec[None]
        yt = tangent_from_lift(SIG, x.rep, w).vec[None]
        out = curvature_tensor(SIG, xt, yt, yt)
        assert np.max(np.abs(out[0] - u)) < 1e-10

    def test_antisymmetry_and_metric_skewness(self, rng):
        sig = Signature(3, 2)
        x = canonicalize(sig, random_sphere_point(sig, rng))
        t = lambda: tangent_from_lift(sig, x.rep, random_horizontal(sig, x.rep, rng)).vec[None]
        xt, yt, zt, wt = t(), t(), t(), t()
        lhs = curvature_tensor(sig, xt, yt, zt)
        rhs = curvature_tensor(sig, yt, xt, zt)
        assert np.max(np.abs(lhs + rhs)) < 1e-10
        a = real_metric(sig, curvature_tensor(sig, xt, yt, zt)[0], wt[0])
        b = real_metric(sig, curvature_tensor(sig, xt, yt, wt)[0], zt[0])
        assert a == pytest.approx(-b, abs=1e-9)
