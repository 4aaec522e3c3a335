"""Batched transport and batched sample export against scalar references.

The reference transport is the scalar RK4 loop the propagator form
replaced: every right-hand side evaluation recomputes the curve state by
five-point differences of the lift and applies the transport equation row
by row. The reference export runs rhs_lift, the ruling isometry and
canonicalize one point at a time.
"""

import json

import numpy as np
import pytest

from pseudocp.cli import main
from pseudocp.curves import (
    SampledCurve,
    deriv_rows,
    fd_derivative,
    hermite_rows,
    sampled_curve_from_fn,
)
from pseudocp.errors import SamplingError
from pseudocp.examples import T_RANGE, example_integral_curve, example_spec, ruling_isometry
from pseudocp.linalg import Signature, gdot_rows, real_metric
from pseudocp.projective import canonicalize, sphere_geodesic
from pseudocp.ruled import leaf_coordinate_grid, rhs_lift, transport_basis

#: half-width of the base curves transported by the reference (400 RK4 steps)
HALF_SPAN = 0.2


def fd_second_derivative(fn, s: float, h: float = 1e-3):
    """Five-point second derivative of a smooth vector-valued callable."""
    return (
        -fn(s + 2 * h)
        + 16.0 * fn(s + h)
        - 30.0 * fn(s)
        + 16.0 * fn(s - h)
        - fn(s - 2 * h)
    ) / (12.0 * h * h)


def _reference_transport(curve: SampledCurve, basis: np.ndarray, s0: float = 0.0):
    """Scalar RK4 transport of ``basis`` from s0: (frame samples, derivatives)."""
    sig = curve.sig
    signs = sig.signs
    eps1 = curve.eps1
    h_fd = curve.step
    if curve.lift_fn is not None:
        lift = curve.lift_fn
    else:
        slopes = deriv_rows(curve.lifts, curve.step)
        lift = lambda s: hermite_rows(curve.params, curve.lifts, slopes, s)

    def state(s):
        q = lift(s)
        dq = fd_derivative(lift, s, h_fd)
        d2q = fd_second_derivative(lift, s, h_fd)
        g = lambda a, b: real_metric(sig, a, b)
        iq = 1j * q
        dq = dq - g(dq, q) * q
        dq = dq - g(dq, iq) * iq
        f = d2q - g(d2q, q) * q
        f = f - g(f, iq) * iq
        return q, dq, f

    def rhs(s, z):
        q, dq, f = state(s)
        w = -eps1 * (
            gdot_rows(signs, z, f)[:, None] * dq
            + gdot_rows(signs, z, 1j * f)[:, None] * (1j * dq)
        )
        return (
            w
            - gdot_rows(signs, z, dq)[:, None] * q
            - gdot_rows(signs, z, 1j * dq)[:, None] * (1j * q)
        )

    def rk4_step(s, z, h):
        k1 = rhs(s, z)
        k2 = rhs(s + 0.5 * h, z + 0.5 * h * k1)
        k3 = rhs(s + 0.5 * h, z + 0.5 * h * k2)
        k4 = rhs(s + h, z + h * k3)
        return z + h * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0

    grid = curve.params
    i0 = int(np.argmin(np.abs(grid - s0)))
    samples = np.empty((grid.shape[0],) + basis.shape, dtype=complex)
    derivs = np.empty_like(samples)
    samples[i0] = basis
    derivs[i0] = rhs(float(grid[i0]), basis)
    for direction, stop in ((1, grid.shape[0] - 1), (-1, 0)):
        z = basis.copy()
        for i in range(i0, stop, direction):
            z = rk4_step(float(grid[i]), z, float(grid[i + direction] - grid[i]))
            samples[i + direction] = z
            derivs[i + direction] = rhs(float(grid[i + direction]), z)
    return samples, derivs


def _family_curve(example_id):
    spec = example_spec(example_id)
    return example_integral_curve(spec, s_range=(-HALF_SPAN, HALF_SPAN)).curve


def _geodesic_curve():
    sig = Signature(3, 1)
    q = np.array([0, 0, 0, 1], dtype=complex)
    v = np.array([0, 0, 1, 0], dtype=complex)
    return sampled_curve_from_fn(
        sig, lambda s: sphere_geodesic(sig, q, v, s), -HALF_SPAN, HALF_SPAN, 1e-3
    )


def _spline_curve():
    """Family 1's samples without the closed form: the lift is the cubic
    Hermite interpolant of the samples."""
    curve = _family_curve(1)
    return SampledCurve(curve.sig, curve.params, curve.lifts, curve.step)


CURVES = {
    "family1": lambda: _family_curve(1),
    "family2": lambda: _family_curve(2),
    "family3": lambda: _family_curve(3),
    "family4": lambda: _family_curve(4),
    "geodesic": _geodesic_curve,
    "spline": _spline_curve,
}


@pytest.mark.parametrize("name", sorted(CURVES))
def test_propagators_match_scalar_rk4(name):
    """Frames within 1e-10 of the scalar RK4 loop; derivatives, which carry
    the finite difference round-off of the curve state, within 1e-8."""
    curve = CURVES[name]()
    par = transport_basis(curve)
    i0 = int(np.argmin(np.abs(curve.params)))
    samples, derivs = _reference_transport(curve, par.frame_samples[i0])
    assert np.max(np.abs(par.frame_samples - samples)) < 1e-10
    assert np.max(np.abs(par.frame_derivs - derivs)) < 1e-8


def test_non_uniform_params_rejected():
    curve = _spline_curve()
    params = curve.params + 0.1 * curve.step * np.sin(np.arange(len(curve)))
    with pytest.raises(SamplingError):
        transport_basis(SampledCurve(curve.sig, params, curve.lifts, curve.step))


def test_velocity_rows_match_the_stencil():
    """Stored velocities are the horizontal five-point derivatives of the lift."""
    curve = _family_curve(2)
    par = transport_basis(curve)
    sig = curve.sig
    for i in (0, 7, len(curve) // 2, len(curve) - 1):
        s = float(curve.params[i])
        q = curve.lift_fn(s)
        dq = fd_derivative(curve.lift_fn, s, curve.step)
        dq = dq - real_metric(sig, dq, q) * q
        dq = dq - real_metric(sig, dq, 1j * q) * (1j * q)
        assert np.max(np.abs(par.velocity[i] - dq)) < 1e-10


def _pointwise_rows(example_id, grid_s, grid_t, grid_leaf):
    """Export rows of ``sample`` computed one point at a time."""
    spec = example_spec(example_id)
    par = transport_basis(example_integral_curve(spec).curve)
    grid = leaf_coordinate_grid(par, grid_s, grid_leaf)
    rows = []
    for tv in np.linspace(T_RANGE[0], T_RANGE[1], grid_t):
        iso = ruling_isometry(spec, float(tv))
        for s, *c in grid.tolist():
            rep = canonicalize(par.sig, iso.apply(rhs_lift(par, s, c))).rep
            row = [s, float(tv)] + [float(x) for x in c]
            for entry in rep:
                row.extend([float(np.real(entry)), float(np.imag(entry))])
            rows.append(row)
    return rows


@pytest.mark.parametrize("example_id", [1, 2, 3, 4])
def test_batched_sample_rows_match_pointwise(example_id, tmp_path):
    """Rows of the batched export, in (t, s, c) order, within 1e-12 of the
    per-point rhs_lift -> isometry -> canonicalize path."""
    out = tmp_path / "cloud.json"
    argv = ["sample", str(example_id), "--grid", "3x4x2", "--format", "json", "--out", str(out)]
    assert main(argv) == 0
    got = np.array(json.loads(out.read_text())["rows"])
    want = np.array(_pointwise_rows(example_id, 3, 4, 2))
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) < 1e-12
