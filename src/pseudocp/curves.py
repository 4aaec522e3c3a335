"""Covariant differentiation along curves, Frenet data, and curve classes.

A curve in the quotient is handled through phase-coherent horizontal lifts
sampled on a uniform grid; an exact lift evaluator is attached when the
curve comes from a closed form. Covariant derivatives go through the
ambient derivative, the sphere-tangential split and the horizontal
projection, which realizes the quotient connection on lifts. The Frenet
data stop at stage two (F1, F2 and the covariant derivative of F2), which
tells the three minimal cases apart.

Row arithmetic runs on float64 views of the complex rows (``real_view``):
an (m, d) complex stack is an (m, 2d) float stack with each entry's (re, im)
pair side by side, so the metric g(a, b) is one product with the repeated
signs (``gdot_real``), |x|^2 one ``einsum`` (``norm2_real``), and the
stencils act on real numbers only. ``linalg.gdot_rows`` and
``projective.horizontal_rows`` keep their complex form, because their
callers depend on its exact rounding: tests require row i of a stack to
equal the one-row call bit for bit, and frame completion tells a
degenerate complement apart on those values. The realified sums round in
another order, so a curve quantity here can differ from its complex form
in the last bits.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .errors import FrameError, LiftError, SamplingError, SpeedError
from .linalg import LIGHT_TOL, Signature, as_ambient, hermitian_product, real_metric

#: horizontality / unit-speed defect accepted on sampled curves
CURVE_TOL = 1e-6
#: sup norm below which a Frenet stage remainder counts as vanishing
FRENET_TOL = 1e-5
#: rows lost to less accurate one-sided stencils per differentiation stage
EDGE_MARGIN = 4
#: most samples of a curve grid (100x the default grid of 1001 samples)
MAX_SAMPLES = 100_000


class CurveClass(Enum):
    GEODESIC = "geodesic"
    TOTALLY_REAL_CIRCLE = "totally_real_circle"
    CASE_C_NON_FRENET = "case_c_non_frenet"
    OTHER = "other"


# ---------------------------------------------------------------------------
# metric kernels on realified rows
# ---------------------------------------------------------------------------


def real_view(z) -> np.ndarray:
    """Float64 view (..., 2d) of complex rows z (..., d), (re, im) of each
    entry side by side; rows whose last axis is not contiguous are copied
    first."""
    return np.ascontiguousarray(z, dtype=complex).view(np.float64)


def real_signs(signs: np.ndarray) -> np.ndarray:
    """The metric signs (d,) repeated for the (re, im) pairs (2d,)."""
    return np.repeat(signs, 2)


def gdot_real(s2: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Real metric g(a, b) of realified rows: Re sum s a conj(b) is the sum
    of s (re a re b + im a im b). Broadcasts over leading axes."""
    return (a * b) @ s2


def norm2_real(x: np.ndarray) -> np.ndarray:
    """Euclidean |x|^2 of each realified row."""
    return np.einsum("...k,...k->...", x, x)


def jmul_real(x: np.ndarray) -> np.ndarray:
    """Multiplication by i on realified rows: (re, im) -> (-im, re)."""
    y = np.empty_like(x)
    y[..., 0::2] = -x[..., 1::2]
    y[..., 1::2] = x[..., 0::2]
    return y


def horizontal_real(s2: np.ndarray, q: np.ndarray, iq: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Horizontal part of realified rows x at the unit spacelike lifts q,
    ``iq`` = ``jmul_real(q)``: the components along q and along the fiber
    direction iq removed, in that order. Broadcasts over leading axes."""
    x = x - gdot_real(s2, x, q)[..., None] * q
    return x - gdot_real(s2, x, iq)[..., None] * iq


# ---------------------------------------------------------------------------
# finite difference stencils on uniformly sampled rows
# ---------------------------------------------------------------------------


def median_is_positive(x: np.ndarray) -> bool:
    """``np.median(x) > 0`` for a non-empty array, without ``np.median``,
    whose NaN check imports ``numpy.ma`` on its first call, a cost in time
    and memory the process keeps. As there, the median of an even count is
    the mean (a + b) / 2 of the two middle values, and any NaN makes it
    NaN."""
    x = np.sort(x, axis=None)
    mid = x.shape[0] // 2
    if np.isnan(x[-1]):  # NaN sorts last
        return False
    median = x[mid] if x.shape[0] % 2 else (x[mid - 1] + x[mid]) / 2.0
    return bool(median > 0)


def deriv_rows(y: np.ndarray, h: float) -> np.ndarray:
    """First derivative of uniformly sampled rows.

    Five-point central stencils in the interior, three-point near the edges,
    one-sided second order at the endpoints. Each stencil is scaled by the
    reciprocal of its denominator, which is what numpy's division of a
    complex row by a real number computes; so complex rows and their
    ``real_view`` give the same bits.
    """
    m = y.shape[0]
    if m < 3:
        raise SamplingError("need at least 3 samples to differentiate")
    d = np.empty_like(y)
    half = 1.0 / (2.0 * h)
    d[0] = (-3.0 * y[0] + 4.0 * y[1] - y[2]) * half
    d[-1] = (3.0 * y[-1] - 4.0 * y[-2] + y[-3]) * half
    if m >= 5:
        d[1] = (y[2] - y[0]) * half
        d[-2] = (y[-1] - y[-3]) * half
        d[2:-2] = (-y[4:] + 8.0 * y[3:-1] - 8.0 * y[1:-3] + y[:-4]) * (1.0 / (12.0 * h))
    else:
        d[1:-1] = (y[2:] - y[:-2]) * half
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
    """Five-point first derivative of a smooth vector-valued callable, at a
    scalar s or, for a callable over arrays, at an array of them."""
    return (
        -fn(s + 2 * h) + 8.0 * fn(s + h) - 8.0 * fn(s - h) + fn(s - 2 * h)
    ) / (12.0 * h)


# ---------------------------------------------------------------------------
# sampled curves
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SampledCurve:
    """Uniformly sampled curve held by phase-coherent horizontal lifts.

    Every stencil assumes at least 3 samples spaced by a finite positive
    ``step``: fewer samples, more than ``MAX_SAMPLES``, another step, or
    params that are not spaced by it to a relative 1e-6 raise
    SamplingError.

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
    def real_signs(self) -> np.ndarray:
        """Metric signs of the realified rows (``real_signs``)."""
        return real_signs(self.sig.signs)

    @cached_property
    def lift_rows(self) -> np.ndarray:
        """The lifts as realified rows (m, 2d)."""
        return real_view(self.lifts)

    @cached_property
    def fiber_rows(self) -> np.ndarray:
        """The fiber directions i z of the lifts, realified."""
        return jmul_real(self.lift_rows)

    @cached_property
    def lift_slopes(self) -> np.ndarray:
        """``deriv_rows`` of the realified lifts."""
        return deriv_rows(self.lift_rows, self.step)

    def horizontal(self, x: np.ndarray) -> np.ndarray:
        """Horizontal part of realified rows x (m, 2d) at the lifts."""
        return horizontal_real(self.real_signs, self.lift_rows, self.fiber_rows, x)

    @cached_property
    def velocity(self) -> np.ndarray:
        """Per-sample horizontal velocity vectors (sphere tangential part)."""
        return self.horizontal(self.lift_slopes).view(complex)

    @cached_property
    def speed2(self) -> np.ndarray:
        """g(v, v) of every velocity row, formed once for all its readers."""
        v = real_view(self.velocity)
        return gdot_real(self.real_signs, v, v)

    @cached_property
    def eps1(self) -> float:
        return 1.0 if median_is_positive(self.speed2) else -1.0

    def speed_defect(self) -> float:
        core = _interior(self.speed2, 1)
        return float(np.max(np.abs(core - self.eps1)))

    def horizontality_defect(self) -> float:
        d = gdot_real(self.real_signs, self.lift_slopes, self.fiber_rows)
        return float(np.max(np.abs(_interior(d, 1))))


def _check_grid(count: int, step: float) -> None:
    """Raise SamplingError unless the step is finite and positive and the
    grid has the 3 samples every stencil needs and at most ``MAX_SAMPLES``."""
    if not (np.isfinite(step) and step > 0):
        raise SamplingError(f"curve step must be finite and positive, got {step!r}")
    if count < 3:
        raise SamplingError("need at least 3 samples")
    if count > MAX_SAMPLES:
        raise SamplingError(f"curve grid of {count} samples exceeds {MAX_SAMPLES}")


def sample_params(s_min: float, s_max: float, step: float) -> np.ndarray:
    """Uniform grid from s_min by step, its last sample nearest s_max;
    SamplingError for a step or range that gives no grid of 3 samples, or
    a grid of more than ``MAX_SAMPLES``."""
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


def _covariant_rows(curve: SampledCurve, rows: np.ndarray) -> np.ndarray:
    """Quotient covariant derivative of a horizontal field along the curve,
    given and returned as realified rows (m, 2d).

    Central differences of the lifted field, then the sphere-tangential part,
    then the horizontal projection. Endpoint rows use one-sided stencils and
    are second order only.
    """
    return curve.horizontal(deriv_rows(rows, curve.step))


# ---------------------------------------------------------------------------
# Frenet apparatus
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FrenetResult:
    """Frame fields, curvature functions, signs and a classification tag.

    ``detail`` holds the measurements behind the tag: for a totally real
    circle the report of ``is_totally_real_circle``. When the first stage
    is lightlike, ``f2`` holds its rows F2, the covariant derivative of
    F1, and ``detail`` the parallel defect of F2, for ``case_c_verify``."""

    order: int
    frames: list
    curvatures: list
    signs: list
    classification: CurveClass
    detail: dict
    f2: Optional[np.ndarray] = None


def frenet_apparatus(curve: SampledCurve) -> FrenetResult:
    """The first two Frenet stages of a unit curve, which tell the three
    minimal cases apart.

    Stage one differentiates F1 = alpha': a vanishing remainder is the
    geodesic (order one); a lightlike one is the non-Frenet case when it is
    parallel, else OTHER; a remainder that changes sign is OTHER; any other
    is normalized into F2, with kappa1 and eps2. Stage two differentiates F2
    and removes the back term: a vanishing remainder gives order two and
    the totally real circle test, and any other remainder is OTHER.
    """
    defect = curve.speed_defect()
    if defect > CURVE_TOL:
        raise SpeedError(f"unit speed defect {defect:.3e} exceeds {CURVE_TOL:.1e}")
    s2 = curve.real_signs
    f1 = real_view(curve.velocity) * (1.0 / np.sqrt(np.abs(curve.speed2)))[:, None]

    def order_one(cls: CurveClass, detail: dict, f2=None) -> FrenetResult:
        return FrenetResult(1, [f1.view(complex)], [], [curve.eps1], cls, detail, f2)

    d = _covariant_rows(curve, f1)
    ecore = norm2_real(_interior(d, 2))
    rnorm = float(np.sqrt(np.max(ecore)))
    if rnorm <= FRENET_TOL:
        return order_one(CurveClass.GEODESIC, {"residual": rnorm})
    g = gdot_real(s2, d, d)
    gcore = _interior(g, 2)
    if np.all(np.abs(gcore) <= LIGHT_TOL * ecore):
        dd = _covariant_rows(curve, d)
        par = float(np.sqrt(np.max(norm2_real(_interior(dd, 3)))))
        cls = CurveClass.CASE_C_NON_FRENET if par <= 10 * FRENET_TOL else CurveClass.OTHER
        return order_one(cls, {"lightlike_parallel_defect": par}, d.view(complex))
    eps2 = 1.0 if median_is_positive(gcore) else -1.0
    if np.any(eps2 * gcore <= 0):
        return order_one(CurveClass.OTHER, {"sign_change": True})
    kappa = np.sqrt(np.abs(g))
    f2 = d * (eps2 / kappa)[:, None]

    d = _covariant_rows(curve, f2) + curve.eps1 * kappa[:, None] * f1
    rnorm = float(np.sqrt(np.max(norm2_real(_interior(d, 3)))))
    frames = [f1.view(complex), f2.view(complex)]
    fr = FrenetResult(2, frames, [kappa], [curve.eps1, eps2], CurveClass.OTHER, {"residual": rnorm})
    if rnorm <= FRENET_TOL:
        ok, report = is_totally_real_circle(fr, curve)
        if ok:
            return replace(fr, classification=CurveClass.TOTALLY_REAL_CIRCLE, detail=report)
    return fr


def is_totally_real_circle(fr: FrenetResult, curve: SampledCurve):
    """Order 2, constant curvature, and vanishing holomorphic torsion, away
    from the rows the three differentiation stages of order 2 reach."""
    report = {"order": fr.order}
    if fr.order != 2:
        return False, report
    k = _interior(fr.curvatures[0], 3)
    mean = float(np.mean(k))
    spread = float(np.std(k) / mean)
    tau = gdot_real(curve.real_signs, real_view(fr.frames[0]), jmul_real(real_view(fr.frames[1])))
    tau_max = float(np.max(np.abs(_interior(tau, 3))))
    report.update({"kappa1": mean, "kappa1_rel_spread": spread, "torsion_max": tau_max})
    ok = spread <= 1e-4 and tau_max <= CURVE_TOL
    return ok, report


def case_c_verify(fr: FrenetResult, curve: SampledCurve):
    """Check the non-Frenet system on the lightlike first stage of ``fr``:
    F2 lightlike, parallel, totally real against F1, each to ``CURVE_TOL``.
    A result without a lightlike first stage fails with its order."""
    if fr.f2 is None:
        return False, {"order": fr.order}
    s2 = curve.real_signs
    f1, f2 = real_view(fr.frames[0]), real_view(fr.f2)
    nonzero = float(np.sqrt(np.min(norm2_real(_interior(f2, 2)))))
    gf2 = float(np.max(np.abs(_interior(gdot_real(s2, f2, f2), 2))))
    par = fr.detail["lightlike_parallel_defect"]
    g12 = float(np.max(np.abs(_interior(gdot_real(s2, f1, f2), 2))))
    gj12 = float(np.max(np.abs(_interior(gdot_real(s2, f1, jmul_real(f2)), 2))))
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
    ef2 = float(norm2_real(real_view(f2)))
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

    Every model is a circle of radius r on two slots and a constant b on a
    third, trigonometric (C, S = cos, sin; sigma = -1) or hyperbolic (cosh,
    sinh; sigma = +1): the point (r C(s/r), r S(s/r), b), the velocity
    (sigma S, C, 0) and the acceleration sigma (C, S, 0) / r.
    """
    if not (kappa1 > 0 and np.isfinite(kappa1 * kappa1)):  # NaN fails too
        raise FrameError(f"circle curvature must be positive with a finite square, got {kappa1!r}")
    n = sig.n
    hyperbolic = False
    if model == "rp2":
        if sig.p > n - 2:
            raise FrameError("round surface model needs p <= n-2")
        slots = (n - 2, n - 1, n)
        r = 1.0 / np.sqrt(1.0 + kappa1**2)
        b = kappa1 * r
    elif model == "s2_1" and not timelike:
        if kappa1 >= 1.0:
            raise FrameError("spacelike mixed-model circles need curvature below one")
        slots = (n - 1, n, 0)
        b = kappa1 / np.sqrt(1.0 - kappa1**2)
        r = np.sqrt(1.0 + b * b)
    elif model == "s2_1":
        slots = (n, 0, n - 1)
        b = kappa1 / np.sqrt(1.0 + kappa1**2)
        r = np.sqrt(1.0 - b * b)
        hyperbolic = True
    elif model == "h2_2":
        if sig.p < 2:
            raise FrameError("negative definite surface model needs p >= 2")
        if kappa1 <= 1.0:
            raise FrameError("negative definite model circles need curvature above one")
        slots = (0, 1, n)
        r = 1.0 / np.sqrt(kappa1**2 - 1.0)
        b = np.sqrt(1.0 + r * r)
    else:
        raise FrameError(f"unknown surface model {model!r}")
    C, S, sigma = (np.cosh, np.sinh, 1.0) if hyperbolic else (np.cos, np.sin, -1.0)

    def place(x, y, z=0.0) -> np.ndarray:
        x, y, z = np.broadcast_arrays(x, y, z)
        out = np.zeros(x.shape + (sig.ambient_dim,), dtype=complex)
        out[..., list(slots)] = np.stack((x, y, z), axis=-1)
        return out

    return ClosedFormCurve(
        sig,
        point=lambda s: place(r * C(s / r), r * S(s / r), b),
        vel=lambda s: place(sigma * S(s / r), C(s / r)),
        acc=lambda s: place(sigma * C(s / r) / r, sigma * S(s / r) / r),
        label=f"circle_{model}",
    )


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

    s2 = real_signs(sig.signs)

    def rho(s: np.ndarray) -> np.ndarray:
        z = np.asarray(rep_at(s), dtype=complex)
        if z.shape != s.shape + (sig.ambient_dim,):
            raise LiftError("representative must map an array of parameters to rows")
        z = real_view(z)
        g = gdot_real(s2, z, z)
        if np.any(g <= 0):
            raise LiftError("representative is not spacelike")
        return z * (1.0 / np.sqrt(g))[:, None]

    # the phase rate at every sample, then at every midpoint
    m = params.shape[0]
    nodes = np.concatenate([params, params[:-1] + 0.5 * step])
    h = 1e-5
    r = rho(nodes)
    dr = (rho(nodes + h) - rho(nodes - h)) * (1.0 / (2.0 * h))
    rate = -gdot_real(s2, dr, jmul_real(r))
    r = r.view(complex)  # the normalized representatives as complex rows

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
