"""Covariant differentiation along curves, Frenet data, and curve classes.

A curve in the quotient is handled through phase-coherent horizontal lifts
sampled on a uniform grid; an exact lift evaluator is attached when the
curve comes from a closed form. Covariant derivatives go through the
ambient derivative, the sphere-tangential split and the horizontal
projection, which realizes the quotient connection on lifts.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .errors import FrameError, LiftError, SamplingError, SpeedError
from .linalg import (
    LIGHT_TOL,
    Signature,
    as_ambient,
    gdot_rows,
    hermitian_product,
    jmul,
    real_metric,
)
from .projective import horizontal_rows

#: horizontality / unit-speed defect accepted on sampled curves
CURVE_TOL = 1e-6
#: sup norm below which a Frenet stage remainder counts as vanishing
FRENET_TOL = 1e-5
#: rows lost to less accurate one-sided stencils per differentiation stage
EDGE_MARGIN = 4


class CurveClass(Enum):
    GEODESIC = "geodesic"
    TOTALLY_REAL_CIRCLE = "totally_real_circle"
    CASE_C_NON_FRENET = "case_c_non_frenet"
    OTHER = "other"


# ---------------------------------------------------------------------------
# finite difference stencils on uniformly sampled rows
# ---------------------------------------------------------------------------


def deriv_rows(y: np.ndarray, h: float) -> np.ndarray:
    """First derivative of uniformly sampled rows.

    Five-point central stencils in the interior, three-point near the edges,
    one-sided second order at the endpoints.
    """
    m = y.shape[0]
    if m < 3:
        raise SamplingError("need at least 3 samples to differentiate")
    d = np.empty_like(y)
    d[0] = (-3.0 * y[0] + 4.0 * y[1] - y[2]) / (2.0 * h)
    d[-1] = (3.0 * y[-1] - 4.0 * y[-2] + y[-3]) / (2.0 * h)
    if m >= 5:
        d[1] = (y[2] - y[0]) / (2.0 * h)
        d[-2] = (y[-1] - y[-3]) / (2.0 * h)
        d[2:-2] = (-y[4:] + 8.0 * y[3:-1] - 8.0 * y[1:-3] + y[:-4]) / (12.0 * h)
    else:
        d[1:-1] = (y[2:] - y[:-2]) / (2.0 * h)
    return d


def hermite_rows(params: np.ndarray, values: np.ndarray, slopes: np.ndarray, s) -> np.ndarray:
    """Cubic Hermite interpolant of rows sampled at increasing ``params``.

    ``values`` and ``slopes`` (m, ...) hold each sample and its derivative.
    A scalar s gives one row (...); an array (S,) of parameters gives rows
    (S, ...). Parameters outside the samples extrapolate the end cubics.
    """
    s = np.asarray(s, dtype=float)
    i = np.clip(np.searchsorted(params, s) - 1, 0, params.shape[0] - 2)
    per_row = (...,) + (None,) * (values.ndim - 1)
    h = (params[i + 1] - params[i])[per_row]
    tau = (s - params[i])[per_row] / h
    h00 = (1.0 + 2.0 * tau) * (1.0 - tau) ** 2
    h10 = tau * (1.0 - tau) ** 2
    h01 = tau * tau * (3.0 - 2.0 * tau)
    h11 = tau * tau * (tau - 1.0)
    return h00 * values[i] + h10 * h * slopes[i] + h01 * values[i + 1] + h11 * h * slopes[i + 1]


def fd_derivative(fn: Callable[[float], np.ndarray], s: float, h: float = 1e-3):
    """Five-point first derivative of a smooth vector-valued callable."""
    return (
        -fn(s + 2 * h) + 8.0 * fn(s + h) - 8.0 * fn(s - h) + fn(s - 2 * h)
    ) / (12.0 * h)


def fd_second_derivative(fn: Callable[[float], np.ndarray], s: float, h: float = 1e-3):
    """Five-point second derivative of a smooth vector-valued callable."""
    return (
        -fn(s + 2 * h)
        + 16.0 * fn(s + h)
        - 30.0 * fn(s)
        + 16.0 * fn(s - h)
        - fn(s - 2 * h)
    ) / (12.0 * h * h)


# ---------------------------------------------------------------------------
# sampled curves
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SampledCurve:
    """Uniformly sampled curve held by phase-coherent horizontal lifts.

    Every stencil assumes at least 3 samples spaced by a finite positive
    ``step``: fewer samples, another step, or params that are not spaced by
    it to a relative 1e-6 raise SamplingError.

    ``lift_fn`` is the closed form of the lifts, if there is one. It takes a
    scalar s to one row (d,) and an array (m,) of parameters to rows (m, d),
    each row bit for bit the scalar call: samples, transport states and patch
    lifts are each one call over an array.
    """

    sig: Signature
    params: np.ndarray
    lifts: np.ndarray
    step: float
    lift_fn: Optional[Callable[[float], np.ndarray]] = None

    def __post_init__(self):
        params = np.asarray(self.params, dtype=float)
        lifts = np.asarray(self.lifts, dtype=complex)
        if lifts.shape != (params.shape[0], self.sig.ambient_dim):
            raise SamplingError("lift array does not match params and signature")
        _check_grid(params.shape[0], self.step)
        if np.max(np.abs(np.diff(params) - self.step), initial=0.0) > 1e-6 * self.step:
            raise SamplingError("params are not spaced uniformly by the curve step")
        params.setflags(write=False)
        lifts.setflags(write=False)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "lifts", lifts)

    def __len__(self) -> int:
        return self.params.shape[0]

    @cached_property
    def velocity(self) -> np.ndarray:
        """Per-sample horizontal velocity vectors (sphere tangential part)."""
        return horizontal_rows(self.sig.signs, self.lifts, deriv_rows(self.lifts, self.step))

    @cached_property
    def eps1(self) -> float:
        g = gdot_rows(self.sig.signs, self.velocity, self.velocity)
        return 1.0 if float(np.median(g)) > 0 else -1.0

    def speed_defect(self) -> float:
        g = gdot_rows(self.sig.signs, self.velocity, self.velocity)
        core = _interior(g, 1)
        return float(np.max(np.abs(core - self.eps1)))

    def horizontality_defect(self) -> float:
        fiber = 1j * self.lifts
        d = gdot_rows(self.sig.signs, deriv_rows(self.lifts, self.step), fiber)
        return float(np.max(np.abs(_interior(d, 1))))

    def reversed(self) -> "SampledCurve":
        fn = self.lift_fn
        rev_fn = (lambda s, _f=fn: _f(-s)) if fn is not None else None
        return SampledCurve(
            self.sig, -self.params[::-1], self.lifts[::-1], self.step, rev_fn
        )


def _check_grid(count: int, step: float) -> None:
    """Raise SamplingError unless the step is finite and positive and the
    grid has the 3 samples every stencil needs."""
    if not (np.isfinite(step) and step > 0):
        raise SamplingError(f"curve step must be finite and positive, got {step!r}")
    if count < 3:
        raise SamplingError("need at least 3 samples")


def sample_params(s_min: float, s_max: float, step: float) -> np.ndarray:
    """Uniform grid from s_min by step, its last sample nearest s_max;
    SamplingError for a step or range that gives no grid of 3 samples."""
    span = (s_max - s_min) / step if step > 0 else 0.0  # no division by 0
    if not np.isfinite(span):
        raise SamplingError(f"curve range must be finite, got [{s_min!r}, {s_max!r}]")
    count = int(round(span)) + 1
    _check_grid(count, step)
    return s_min + step * np.arange(count)


def sampled_curve_from_fn(
    sig: Signature,
    fn: Callable[[float], np.ndarray],
    s_min: float,
    s_max: float,
    step: float,
) -> SampledCurve:
    """Sample a closed-form lift ``fn``, which takes arrays of parameters
    (see ``SampledCurve.lift_fn``), in one call."""
    params = sample_params(s_min, s_max, step)
    return SampledCurve(sig, params, fn(params), step, fn)


def _interior(rows: np.ndarray, stages: int) -> np.ndarray:
    m = EDGE_MARGIN * stages
    if rows.shape[0] <= 2 * m + 1:
        return rows
    return rows[m:-m]


def covariant_derivative(curve: SampledCurve, field_rows: np.ndarray) -> np.ndarray:
    """Quotient covariant derivative of a horizontal field along the curve.

    Central differences of the lifted field, then the sphere-tangential part,
    then the horizontal projection. Endpoint rows use one-sided stencils and
    are second order only.
    """
    rows = np.asarray(field_rows, dtype=complex)
    if rows.shape != curve.lifts.shape:
        raise SamplingError("field shape does not match the curve")
    return horizontal_rows(curve.sig.signs, curve.lifts, deriv_rows(rows, curve.step))


# ---------------------------------------------------------------------------
# Frenet apparatus
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FrenetResult:
    """Frame fields, curvature functions, signs and a classification tag."""

    order: int
    frames: list
    curvatures: list
    signs: list
    classification: CurveClass
    detail: dict


def frenet_apparatus(curve: SampledCurve) -> FrenetResult:
    """Iteratively build the orthonormal frame fields along a unit curve.

    Each stage differentiates the last frame field, removes the back term,
    and normalizes the remainder into the next frame vector. Iteration stops
    at a vanishing remainder (the order is reached; order one is the
    geodesic, order two possibly the totally real circle), at a lightlike
    one, which is the non-Frenet case when the remainder is parallel, or
    at the full order 2n.
    """
    defect = curve.speed_defect()
    if defect > CURVE_TOL:
        raise SpeedError(f"unit speed defect {defect:.3e} exceeds {CURVE_TOL:.1e}")
    signs_vec = curve.sig.signs
    eps1 = curve.eps1
    g1 = gdot_rows(signs_vec, curve.velocity, curve.velocity)
    e1 = curve.velocity / np.sqrt(np.abs(g1))[:, None]
    frames = [e1]
    curv: list = []
    eps = [eps1]

    stage = 1
    while True:
        d = covariant_derivative(curve, frames[-1])
        if len(curv) >= 1:
            d = d + eps[-2] * curv[-1][:, None] * frames[-2]
        stage += 1
        core = _interior(d, stage)
        rnorm = float(np.max(np.sqrt(np.sum(np.abs(core) ** 2, axis=-1))))
        if rnorm <= FRENET_TOL:
            fr = FrenetResult(len(frames), frames, curv, eps, CurveClass.OTHER, {"residual": rnorm})
            if fr.order == 1:
                return replace(fr, classification=CurveClass.GEODESIC)
            if is_totally_real_circle(fr, curve)[0]:
                return replace(fr, classification=CurveClass.TOTALLY_REAL_CIRCLE)
            return fr
        g = gdot_rows(signs_vec, d, d)
        gcore = _interior(g, stage)
        ecore = np.sum(np.abs(core) ** 2, axis=-1)
        if np.all(np.abs(gcore) <= LIGHT_TOL * ecore):
            if len(frames) == 1:
                dd = covariant_derivative(curve, d)
                par = float(
                    np.max(np.sqrt(np.sum(np.abs(_interior(dd, stage + 1)) ** 2, axis=-1)))
                )
                cls = (
                    CurveClass.CASE_C_NON_FRENET if par <= 10 * FRENET_TOL else CurveClass.OTHER
                )
                return FrenetResult(
                    1, frames, curv, eps, cls, {"lightlike_parallel_defect": par}
                )
            return FrenetResult(
                len(frames), frames, curv, eps, CurveClass.OTHER, {"lightlike_stage": stage}
            )
        sgn = 1.0 if float(np.median(gcore)) > 0 else -1.0
        if np.any(sgn * gcore <= 0):
            return FrenetResult(
                len(frames), frames, curv, eps, CurveClass.OTHER, {"sign_change": True}
            )
        kappa = np.sqrt(np.abs(g))
        frames.append(sgn * d / kappa[:, None])
        curv.append(kappa)
        eps.append(sgn)
        if len(frames) >= 2 * curve.sig.n:
            return FrenetResult(
                len(frames), frames, curv, eps, CurveClass.OTHER, {"max_order": True}
            )


def is_totally_real_circle(fr: FrenetResult, curve: SampledCurve):
    """Order 2, constant curvature, and vanishing holomorphic torsion, away
    from the rows the three differentiation stages of order 2 reach."""
    report = {"order": fr.order}
    if fr.order != 2:
        return False, report
    k = _interior(fr.curvatures[0], 3)
    mean = float(np.mean(k))
    spread = float(np.std(k) / mean)
    tau = gdot_rows(curve.sig.signs, fr.frames[0], jmul(fr.frames[1]))
    tau_max = float(np.max(np.abs(_interior(tau, 3))))
    report.update({"kappa1": mean, "kappa1_rel_spread": spread, "torsion_max": tau_max})
    ok = spread <= 1e-4 and tau_max <= CURVE_TOL
    return ok, report


def case_c_verify(curve: SampledCurve):
    """Check the non-Frenet system: lightlike, parallel, totally real F2,
    each to ``CURVE_TOL``."""
    signs = curve.sig.signs
    g1 = gdot_rows(signs, curve.velocity, curve.velocity)
    f1 = curve.velocity / np.sqrt(np.abs(g1))[:, None]
    f2 = covariant_derivative(curve, f1)
    core = _interior(f2, 2)
    e2 = np.sum(np.abs(core) ** 2, axis=-1)
    nonzero = float(np.min(np.sqrt(e2)))
    gf2 = float(np.max(np.abs(_interior(gdot_rows(signs, f2, f2), 2))))
    par_rows = covariant_derivative(curve, f2)
    par = float(np.max(np.sqrt(np.sum(np.abs(_interior(par_rows, 3)) ** 2, axis=-1))))
    g12 = float(np.max(np.abs(_interior(gdot_rows(signs, f1, f2), 2))))
    gj12 = float(np.max(np.abs(_interior(gdot_rows(signs, f1, jmul(f2)), 2))))
    report = {
        "f2_min_norm": nonzero,
        "g(F2,F2)": gf2,
        "parallel_defect": par,
        "g(F1,F2)": g12,
        "g(F1,JF2)": gj12,
    }
    ok = nonzero > 10 * CURVE_TOL and all(x <= CURVE_TOL for x in (gf2, par, g12, gj12))
    return ok, report


# ---------------------------------------------------------------------------
# closed-form generating curves of the non-Frenet cases
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClosedFormCurve:
    """Evaluator for a curve given in closed form in the flat ambient space.

    ``point``, ``vel`` and ``acc`` take a scalar s to one row (d,) and an
    array (m,) of parameters to rows (m, d), as ``SampledCurve.lift_fn``.
    """

    sig: Signature
    point: Callable[[float], np.ndarray]
    vel: Callable[[float], np.ndarray]
    acc: Callable[[float], np.ndarray]
    label: str

    def __call__(self, s: float) -> np.ndarray:
        return self.point(s)

    def sample(self, s_min: float, s_max: float, step: float) -> SampledCurve:
        return sampled_curve_from_fn(self.sig, self.point, s_min, s_max, step)


def _col(coef) -> np.ndarray:
    """A scalar coefficient as shape (1,), an array (m,) of them as a column
    (m, 1), so that it scales one ambient vector into one row or m rows."""
    return np.asarray(coef)[..., None]


def _check_case_c_frame(sig, p0, v0, f2, v0_sign: float):
    g = lambda a, b: real_metric(sig, a, b)
    if abs(g(p0, p0) - 1.0) > 1e-10:
        raise FrameError("p0 must be unit spacelike")
    if abs(g(v0, v0) - v0_sign) > 1e-10:
        want = "spacelike" if v0_sign > 0 else "timelike"
        raise FrameError(f"v0 must be unit {want}")
    ef2 = float(np.sum(np.abs(f2) ** 2))
    if ef2 < 1e-16 or abs(g(f2, f2)) > LIGHT_TOL * ef2:
        raise FrameError("f2 must be lightlike and nonzero")
    for a, b, name in ((p0, v0, "p0,v0"), (p0, f2, "p0,f2"), (v0, f2, "v0,f2")):
        if abs(g(a, b)) > 1e-10:
            raise FrameError(f"{name} are not orthogonal")


def case_c1_curve(sig: Signature, p0, v0, f2) -> ClosedFormCurve:
    """Spacelike non-Frenet generator in a de Sitter slice.

    Satisfies g(a,a) = 1, unit spacelike speed, and a'' + a equal to the
    constant lightlike vector f2.
    """
    p0 = as_ambient(sig, p0)
    v0 = as_ambient(sig, v0)
    f2 = as_ambient(sig, f2)
    _check_case_c_frame(sig, p0, v0, f2, +1.0)
    return ClosedFormCurve(
        sig,
        point=lambda s: f2 + _col(np.cos(s)) * (p0 - f2) + _col(np.sin(s)) * v0,
        vel=lambda s: _col(-np.sin(s)) * (p0 - f2) + _col(np.cos(s)) * v0,
        acc=lambda s: _col(-np.cos(s)) * (p0 - f2) - _col(np.sin(s)) * v0,
        label="case_c1",
    )


def case_c2_curve(sig: Signature, p0, v0, f2) -> ClosedFormCurve:
    """Timelike non-Frenet generator in the index-two quadric slice.

    Satisfies g(a,a) = 1, unit timelike speed, and a'' - a equal to the
    constant lightlike vector f2.
    """
    p0 = as_ambient(sig, p0)
    v0 = as_ambient(sig, v0)
    f2 = as_ambient(sig, f2)
    _check_case_c_frame(sig, p0, v0, f2, -1.0)
    return ClosedFormCurve(
        sig,
        point=lambda s: _col(np.cosh(s)) * (p0 + f2) + _col(np.sinh(s)) * v0 - f2,
        vel=lambda s: _col(np.sinh(s)) * (p0 + f2) + _col(np.cosh(s)) * v0,
        acc=lambda s: _col(np.cosh(s)) * (p0 + f2) + _col(np.sinh(s)) * v0,
        label="case_c2",
    )


def model_circle_curve(
    sig: Signature,
    model: str,
    kappa1: float,
    timelike: bool = False,
) -> ClosedFormCurve:
    """Constant curvature circle inside a standard totally real surface model.

    ``model`` is one of rp2, s2_1, h2_2. The round model carries any
    curvature; the mixed model carries spacelike circles only below
    curvature one (use ``timelike`` for the complementary family); the
    negative definite model needs curvature above one and p >= 2.
    """
    if not kappa1 > 0:  # NaN fails too
        raise FrameError("circle curvature must be positive")
    n = sig.n
    if model == "rp2":
        if sig.p > n - 2:
            raise FrameError("round surface model needs p <= n-2")
        slots = (n - 2, n - 1, n)
        a = 1.0 / np.sqrt(1.0 + kappa1**2)
        b = kappa1 * a
        coords = lambda s: (a * np.cos(s / a), a * np.sin(s / a), b)
        dcoords = lambda s: (-np.sin(s / a), np.cos(s / a), 0.0)
    elif model == "s2_1" and not timelike:
        if kappa1 >= 1.0:
            raise FrameError("spacelike mixed-model circles need curvature below one")
        slots = (0, n - 1, n)
        b = kappa1 / np.sqrt(1.0 - kappa1**2)
        c = np.sqrt(1.0 + b * b)
        coords = lambda s: (b, c * np.cos(s / c), c * np.sin(s / c))
        dcoords = lambda s: (0.0, -np.sin(s / c), np.cos(s / c))
    elif model == "s2_1":
        slots = (0, n - 1, n)
        b = kappa1 / np.sqrt(1.0 + kappa1**2)
        c = np.sqrt(1.0 - b * b)
        coords = lambda s: (c * np.sinh(s / c), b, c * np.cosh(s / c))
        dcoords = lambda s: (np.cosh(s / c), 0.0, np.sinh(s / c))
    elif model == "h2_2":
        if sig.p < 2:
            raise FrameError("negative definite surface model needs p >= 2")
        if kappa1 <= 1.0:
            raise FrameError("negative definite model circles need curvature above one")
        slots = (0, 1, n)
        a = 1.0 / np.sqrt(kappa1**2 - 1.0)
        b = np.sqrt(1.0 + a * a)
        coords = lambda s: (a * np.cos(s / a), a * np.sin(s / a), b)
        dcoords = lambda s: (-np.sin(s / a), np.cos(s / a), 0.0)
    else:
        raise FrameError(f"unknown surface model {model!r}")

    def place(values) -> np.ndarray:
        values = np.broadcast_arrays(*values)
        out = np.zeros(values[0].shape + (sig.ambient_dim,), dtype=complex)
        out[..., list(slots)] = np.stack(values, axis=-1)
        return out

    def acc(s, h: float = 1e-4) -> np.ndarray:
        return (point(s + h) - 2.0 * point(s) + point(s - h)) / (h * h)

    point = lambda s: place(coords(s))
    vel = lambda s: place(dcoords(s))
    return ClosedFormCurve(sig, point=point, vel=vel, acc=acc, label=f"circle_{model}")


# ---------------------------------------------------------------------------
# horizontal lift of a projective curve given by representatives
# ---------------------------------------------------------------------------


def horizontal_lift(sig: Signature, reps, z0, params=None, anchor: int = 0) -> SampledCurve:
    """Phase-integrate representatives into a horizontal lift through z0.

    ``reps`` is either a callable taking an array of parameters to rows of
    representatives, as ``SampledCurve.lift_fn``, or an array of sampled
    representatives matching ``params``, which the cubic Hermite
    interpolant extends between samples. The phase obeys
    theta'(s) = -g(rho', i rho) for the normalized representative rho, which
    makes the lift's velocity orthogonal to the fiber; rho' is a central
    difference and each step is one Simpson rule, all evaluated as arrays.
    ``z0`` must project to the curve point at the ``anchor`` sample.
    """
    if callable(reps) and params is None:
        raise LiftError("params grid required with a callable representative")
    params = np.asarray(params, dtype=float)
    step = float(params[1] - params[0])
    if callable(reps):
        rep_at = reps
    else:
        rep_rows = np.asarray(reps, dtype=complex)
        if rep_rows.shape[0] != params.shape[0]:
            raise LiftError("representative rows do not match params")
        slopes = deriv_rows(rep_rows, step)
        rep_at = lambda s: hermite_rows(params, rep_rows, slopes, s)

    def rho(s: np.ndarray) -> np.ndarray:
        z = np.asarray(rep_at(s), dtype=complex)
        if z.shape != s.shape + (sig.ambient_dim,):
            raise LiftError("representative must map an array of parameters to rows")
        g = gdot_rows(sig.signs, z, z)
        if np.any(g <= 0):
            raise LiftError("representative is not spacelike")
        return z / np.sqrt(g)[:, None]

    # the phase rate at every sample, then at every midpoint
    m = params.shape[0]
    nodes = np.concatenate([params, params[:-1] + 0.5 * step])
    h = 1e-5
    r = rho(nodes)
    dr = (rho(nodes + h) - rho(nodes - h)) / (2.0 * h)
    rate = -gdot_rows(sig.signs, dr, jmul(r))

    z0v = as_ambient(sig, z0)
    a = hermitian_product(sig, z0v, r[anchor])
    if abs(abs(a) - 1.0) > 1e-8 or float(np.max(np.abs(z0v - (a / abs(a)) * r[anchor]))) > 1e-8:
        raise LiftError("z0 does not project to the curve point at the anchor")

    simpson = step * (rate[: m - 1] + 4.0 * rate[m:] + rate[1:m]) / 6.0
    theta = np.concatenate([[0.0], np.cumsum(simpson)])
    theta += float(np.angle(a)) - theta[anchor]
    lifts = np.exp(1j * theta)[:, None] * r[:m]
    curve = SampledCurve(sig, params, lifts, step)
    defect = curve.horizontality_defect()
    if defect > CURVE_TOL:
        raise LiftError(f"horizontality defect {defect:.3e} exceeds {CURVE_TOL:.1e}")
    return curve
