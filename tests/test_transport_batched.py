"""Batched transport and batched sample export against scalar references.

The reference transport (``oracles._reference_transport``) is the scalar
RK4 loop the propagator form replaced: every right-hand side evaluation
recomputes the curve state by five-point differences of the lift and
applies the transport equation row by row. The reference export
(``oracles._ref_sample_rows``) runs rhs_lift, the ruling isometry and
canonicalize one point at a time.
"""

import json
import re

import numpy as np
import pytest

from oracles import _geodesic_curve, _ref_sample_rows, _reference_transport
from pseudocp import ruled
from pseudocp.cli import main
from pseudocp.curves import SampledCurve, fd_derivative
from pseudocp.errors import FrameError, SamplingError
from pseudocp.examples import example_integral_curve, example_spec
from pseudocp.linalg import real_metric
from pseudocp.ruled import transport_basis

#: half-width of the base curves transported by the reference (400 RK4 steps)
HALF_SPAN = 0.2


def _family_curve(example_id):
    spec = example_spec(example_id)
    return example_integral_curve(spec, s_range=(-HALF_SPAN, HALF_SPAN)).curve


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
    "geodesic": lambda: _geodesic_curve(HALF_SPAN),
    "spline": _spline_curve,
}


def _overflowing_propagators(a1, a2, a4, h):
    """Every entry 1e300: the second step's frame overflows."""
    return np.full(a1.shape, 1e300)


def test_overflowing_transport_is_a_frame_error(monkeypatch, capsys):
    """A transport whose frames overflow raises FrameError naming the first
    sample with a non-finite frame (two steps after s = 0), with no
    RuntimeWarning on the way (an error under the suite's filter), and
    ``verify`` exits 3 with that message."""
    curve = _family_curve(1)
    s_bad = float(curve.params[int(np.argmin(np.abs(curve.params))) + 2])
    monkeypatch.setattr(ruled, "_rk4_propagators", _overflowing_propagators)
    message = f"the transported frame is not finite at s = {s_bad!r}"
    with pytest.raises(FrameError, match=re.escape(message)):
        transport_basis(curve)
    assert main(["verify", "1"]) == 3
    assert "the transported frame is not finite at s = " in capsys.readouterr().err


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


@pytest.mark.parametrize("example_id", [1, 2, 3, 4])
def test_batched_sample_rows_match_pointwise(example_id, tmp_path):
    """Rows of the batched export, in (t, s, c) order, within 1e-12 of the
    per-point rhs_lift -> isometry -> canonicalize path."""
    out = tmp_path / "cloud.json"
    argv = ["sample", str(example_id), "--grid", "3x4x2", "--format", "json", "--out", str(out)]
    assert main(argv) == 0
    got = np.array(json.loads(out.read_text())["rows"])
    want = np.array(_ref_sample_rows(example_id, 3, 4, 2))
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) < 1e-12
