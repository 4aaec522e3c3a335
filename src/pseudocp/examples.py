"""Built-in ruled hypersurface families with closed-form structure data.

Each family sweeps a totally geodesic hyperplane slice with a one-parameter
isometry group acting on two ambient slots (a rotation or a boost). The
structure field, unit normal, its shape image and the acceleration of the
structure flow all have closed forms, so the families double as exact
oracles for the generic numeric pipeline.

Family 1 rotates the last two slots (spacelike structure field); family 2
boosts the first and last slots (spacelike); family 3 boosts around a seed
with one fewer timelike slot (timelike structure field); family 4 rotates
the first two slots (timelike, needs p >= 2 like family 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import ruled
from .curves import SampledCurve, sampled_curve_from_fn
from .errors import CrossCheckError, DomainError
from .isometries import IndefiniteUnitaryMatrix
from .linalg import Signature, metric_signs, real_metric
from .projective import canonicalize
from .ruled import (
    RHSPatch,
    MinimalCase,
    TransformedPatch,
    classify_minimal_ruled,
    rhs_evaluate,
    transport_basis,
)

EXAMPLE_IDS = (1, 2, 3, 4)

#: default desk-scale signatures honoring each family's constraints
DEFAULT_SIGNATURES = {
    1: Signature(3, 1),
    2: Signature(4, 1),
    3: Signature(3, 2),
    4: Signature(3, 2),
}


def _default_seed(example_id: int, sig: Signature) -> np.ndarray:
    n = sig.n
    z = np.zeros(n, dtype=complex)
    if example_id == 1:
        return gamma_seed(sig, np.pi / 8)
    if example_id == 2:
        # |z_1| = 1 seed, distinct moduli to keep canonical phases stable
        z[0] = 1.0
        z[1] = 1.25
        z[2] = np.sqrt(2.0 - 1.25**2)
        return z
    if example_id == 3:
        z[0] = 0.5
        z[1] = 1.0
        z[n - 1] = 0.5
        return z
    if example_id == 4:
        z[0] = 1.0
        z[1] = 1.25
        z[n - 1] = np.sqrt(2.0 - 1.25**2)
        return z
    raise DomainError(f"unknown example id {example_id}")


def gamma_seed(sig: Signature, r: float) -> np.ndarray:
    """Family-1 seed curve (1, 0, ..., 0, sqrt2 cos r, sqrt2 sin r).

    Raises DomainError for a non-finite r, which has no seed point.
    """
    if not np.isfinite(r):
        raise DomainError(f"seed parameter r must be finite, got {r!r}")
    z = np.zeros(sig.n, dtype=complex)
    z[0] = 1.0
    z[sig.n - 2] = np.sqrt(2.0) * np.cos(r)
    z[sig.n - 1] = np.sqrt(2.0) * np.sin(r)
    return z


@dataclass(frozen=True)
class ExampleSpec:
    """One family instance: signature, seed point and parameter windows."""

    example_id: int
    sig: Signature
    seed_z: np.ndarray
    t0: float = 0.0
    t_range: tuple = (-0.4, 0.4)
    s_range: tuple = (-0.5, 0.5)

    def __post_init__(self):
        if self.example_id not in EXAMPLE_IDS:
            raise DomainError(f"unknown example id {self.example_id}")
        n, p = self.sig.n, self.sig.p
        limits = {
            1: (n >= 3 and 1 <= p <= n - 2, "needs n >= 3 and 1 <= p <= n-2"),
            2: (n >= 4 and 1 <= p <= n - 2, "needs n >= 4 and 1 <= p <= n-2"),
            3: (n >= 3 and 2 <= p <= n - 1, "needs n >= 3 and 2 <= p <= n-1"),
            4: (n >= 3 and 2 <= p <= n - 1, "needs n >= 3 and 2 <= p <= n-1"),
        }
        ok, msg = limits[self.example_id]
        if not ok:
            raise DomainError(f"example {self.example_id} {msg}; got (n={n}, p={p})")
        z = np.asarray(self.seed_z, dtype=complex)
        if z.shape != (n,):
            raise DomainError(f"seed must have {n} entries")
        _validate_seed(self.example_id, self.sig, z)
        z.setflags(write=False)
        object.__setattr__(self, "seed_z", z)


def example_spec(example_id: int, sig: Optional[Signature] = None, seed_z=None, **kw) -> ExampleSpec:
    sig = sig or DEFAULT_SIGNATURES[example_id]
    if seed_z is None:
        seed_z = _default_seed(example_id, sig)
    return ExampleSpec(example_id, sig, np.asarray(seed_z, dtype=complex), **kw)


def seed_sphere_index(example_id: int, sig: Signature) -> int:
    """Index (timelike slot count) of the seed sphere the family slices."""
    return sig.p if example_id in (1, 2) else sig.p - 1


def _omega_slot(example_id: int, sig: Signature) -> int:
    return sig.n - 1 if example_id in (1, 3) else 0


def _validate_seed(example_id: int, sig: Signature, z: np.ndarray):
    signs = metric_signs(seed_sphere_index(example_id, sig), sig.n)
    g = float(np.real(np.sum(signs * z * np.conj(z))))
    if abs(g - 1.0) > 1e-10:
        raise DomainError(f"seed is not on its sphere: g(z,z) = {g!r}")
    if abs(z[_omega_slot(example_id, sig)]) < 1e-12:
        raise DomainError("seed violates the family's open-slot condition")


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def example_map(spec: ExampleSpec, t: float, z=None) -> np.ndarray:
    """Closed-form sphere lift of the family at ruling parameter t."""
    z = spec.seed_z if z is None else np.asarray(z, dtype=complex)
    _validate_seed(spec.example_id, spec.sig, z)
    return _slice_map(spec, t, z)


def example_leaf_tangent(spec: ExampleSpec, t: float, x) -> np.ndarray:
    """Differential of the slice map in a seed-sphere tangent direction."""
    return _slice_map(spec, t, np.asarray(x, dtype=complex))


def _slice_map(spec: ExampleSpec, t: float, x: np.ndarray) -> np.ndarray:
    """The slice map at ruling parameter t; it is linear in x, so it is its
    own differential. Callers validate seed points."""
    n = spec.sig.n
    out = np.zeros(n + 1, dtype=complex)
    if spec.example_id == 1:
        out[: n - 1] = x[: n - 1]
        out[n - 1] = np.cos(t) * x[n - 1]
        out[n] = np.sin(t) * x[n - 1]
    elif spec.example_id == 2:
        out[0] = np.cosh(t) * x[0]
        out[1:n] = x[1:n]
        out[n] = np.sinh(t) * x[0]
    elif spec.example_id == 3:
        out[0] = np.sinh(t) * x[n - 1]
        out[1:n] = x[: n - 1]
        out[n] = np.cosh(t) * x[n - 1]
    else:
        out[0] = np.sin(t) * x[0]
        out[1] = np.cos(t) * x[0]
        out[2:] = x[1:n]
    return out


def ruling_isometry(spec: ExampleSpec, t: float) -> IndefiniteUnitaryMatrix:
    """The one-parameter isometry group element moving slice t=0 to slice t."""
    sig = spec.sig
    n = sig.n
    m = np.eye(n + 1, dtype=complex)
    if spec.example_id == 1:
        m[n - 1, n - 1] = np.cos(t)
        m[n - 1, n] = -np.sin(t)
        m[n, n - 1] = np.sin(t)
        m[n, n] = np.cos(t)
    elif spec.example_id in (2, 3):
        m[0, 0] = np.cosh(t)
        m[0, n] = np.sinh(t)
        m[n, 0] = np.sinh(t)
        m[n, n] = np.cosh(t)
    else:
        m[0, 0] = np.cos(t)
        m[0, 1] = np.sin(t)
        m[1, 0] = -np.sin(t)
        m[1, 1] = np.cos(t)
    return IndefiniteUnitaryMatrix(sig, m)


@dataclass(frozen=True)
class ExampleFields:
    """Closed-form structure data at one point of the family."""

    xi_hat: np.ndarray
    n_hat: np.ndarray
    a_xi_hat: np.ndarray
    epsilon: float


def example_fields(spec: ExampleSpec, t: float, z=None) -> ExampleFields:
    """Structure field, unit normal (i times it) and its shape image."""
    sig = spec.sig
    n = sig.n
    z = spec.seed_z if z is None else np.asarray(z, dtype=complex)
    _validate_seed(spec.example_id, sig, z)
    out = np.zeros(n + 1, dtype=complex)
    axi = np.zeros(n + 1, dtype=complex)
    if spec.example_id == 1:
        zl = z[n - 1]
        u = abs(zl) ** 2
        out[n - 1] = -np.sin(t) * zl
        out[n] = np.cos(t) * zl
        axi[n - 1] = 1j * np.cos(t) * zl / u
        axi[n] = 1j * np.sin(t) * zl / u
        eps = 1.0
    elif spec.example_id == 2:
        zl = z[0]
        u = abs(zl) ** 2
        out[0] = np.sinh(t) * zl
        out[n] = np.cosh(t) * zl
        axi[0] = -1j * np.cosh(t) * zl / u
        axi[n] = -1j * np.sinh(t) * zl / u
        eps = 1.0
    elif spec.example_id == 3:
        zl = z[n - 1]
        u = abs(zl) ** 2
        out[0] = np.cosh(t) * zl
        out[n] = np.sinh(t) * zl
        axi[0] = -1j * np.sinh(t) * zl / u
        axi[n] = -1j * np.cosh(t) * zl / u
        eps = -1.0
    else:
        zl = z[0]
        u = abs(zl) ** 2
        out[0] = np.cos(t) * zl
        out[1] = -np.sin(t) * zl
        axi[0] = -1j * np.sin(t) * zl / u
        axi[1] = 1j * np.cos(t) * zl / u
        eps = -1.0
    xi = out / abs(zl)
    return ExampleFields(xi_hat=xi, n_hat=1j * xi, a_xi_hat=axi, epsilon=eps)


@dataclass(frozen=True)
class IntegralCurveData:
    """Closed forms along one integral curve of the structure field."""

    curve: SampledCurve
    accel: Callable[[float], np.ndarray] = field(repr=False)
    accel_square: float
    eps1: float
    predicted_case: MinimalCase
    kind: Optional[str]
    kappa1: Optional[float]
    eps2: Optional[float]
    frenet_f2: Optional[Callable[[float], np.ndarray]] = field(repr=False, default=None)


def _predict(example_id: int, modulus_sq: float, eps1: float):
    """Case, model kind, kappa1 and eps2 from the family's seed modulus.

    The boundary threshold matches the relative lightlike band of the
    numeric pipeline, so predictions agree with what the classifier can
    resolve for seeds that sit on the transition within round-off.
    """
    u = modulus_sq
    if example_id in (1, 3):
        ff = 1.0 / u - 1.0
        if abs(ff) < 1e-8:
            return MinimalCase.CASE_C_NON_FRENET, None, None, None, ff
        if ff > 0:
            kind = "rp2" if eps1 > 0 else "s2_1"
            return MinimalCase.CASE_B_TOTALLY_REAL_CIRCLE, kind, np.sqrt(ff), 1.0, ff
        kind = "s2_1" if eps1 > 0 else "h2_2"
        return MinimalCase.CASE_B_TOTALLY_REAL_CIRCLE, kind, np.sqrt(-ff), -1.0, ff
    ff = -1.0 - 1.0 / u
    kind = "s2_1" if eps1 > 0 else "h2_2"
    return MinimalCase.CASE_B_TOTALLY_REAL_CIRCLE, kind, np.sqrt(-ff), -1.0, ff


def example_integral_curve(
    spec: ExampleSpec,
    t: Optional[float] = None,
    z=None,
    step: float = 1e-3,
    s_range: Optional[tuple] = None,
) -> IntegralCurveData:
    """Integral curve of the structure field through (t, z), with closed forms.

    The returned acceleration is the second covariant derivative of the flow
    on the sphere; its constant square norm decides the case split. For a
    geodesic seed the case collapses to the trivial one downstream.
    """
    sig = spec.sig
    t0 = spec.t0 if t is None else t
    z = spec.seed_z if z is None else np.asarray(z, dtype=complex)
    _validate_seed(spec.example_id, sig, z)
    s_lo, s_hi = spec.s_range if s_range is None else s_range
    slot = _omega_slot(spec.example_id, sig)
    mod = abs(z[slot])
    u = mod * mod
    eps1 = 1.0 if spec.example_id in (1, 2) else -1.0

    def lift(s: float) -> np.ndarray:
        return _slice_map(spec, t0 + s / mod, z)

    curve = sampled_curve_from_fn(sig, lift, s_lo, s_hi, step)

    n = sig.n
    if spec.example_id == 1:

        def accel(s: float) -> np.ndarray:
            tau = t0 + s / mod
            out = np.zeros(n + 1, dtype=complex)
            out[: n - 1] = z[: n - 1]
            out[n - 1] = (1.0 - 1.0 / u) * np.cos(tau) * z[n - 1]
            out[n] = (1.0 - 1.0 / u) * np.sin(tau) * z[n - 1]
            return out

    elif spec.example_id == 2:

        def accel(s: float) -> np.ndarray:
            tau = t0 + s / mod
            out = np.zeros(n + 1, dtype=complex)
            out[0] = (1.0 + 1.0 / u) * np.cosh(tau) * z[0]
            out[1:n] = z[1:n]
            out[n] = (1.0 + 1.0 / u) * np.sinh(tau) * z[0]
            return out

    elif spec.example_id == 3:

        def accel(s: float) -> np.ndarray:
            tau = t0 + s / mod
            out = np.zeros(n + 1, dtype=complex)
            out[0] = (1.0 / u - 1.0) * np.sinh(tau) * z[n - 1]
            out[1:n] = -z[: n - 1]
            out[n] = (1.0 / u - 1.0) * np.cosh(tau) * z[n - 1]
            return out

    else:

        def accel(s: float) -> np.ndarray:
            tau = t0 + s / mod
            out = np.zeros(n + 1, dtype=complex)
            out[0] = -(1.0 / u + 1.0) * np.sin(tau) * z[0]
            out[1] = -(1.0 / u + 1.0) * np.cos(tau) * z[0]
            out[2:] = -z[1:n]
            return out

    case, kind, kappa1, eps2, ff = _predict(spec.example_id, u, eps1)
    if case is MinimalCase.CASE_C_NON_FRENET:
        still = _slice_map(spec, 0.0, z)
        others = np.delete(np.abs(still), _ruling_slots(spec))
        if float(np.max(others)) < 1e-6:
            case = MinimalCase.CASE_A_GEODESIC
        else:
            kind = "b3_1" if eps1 > 0 else "b3_2"

    f2_fn = None
    if kappa1 is not None:

        def f2_fn(s: float, _e2=eps2, _k=kappa1) -> np.ndarray:
            return _e2 * accel(s) / _k

    return IntegralCurveData(
        curve=curve,
        accel=accel,
        accel_square=ff,
        eps1=eps1,
        predicted_case=case,
        kind=kind,
        kappa1=kappa1,
        eps2=eps2,
        frenet_f2=f2_fn,
    )


def _ruling_slots(spec: ExampleSpec) -> list[int]:
    """Ambient slots whose entries vary with the ruling parameter."""
    n = spec.sig.n
    if spec.example_id == 1:
        return [n - 1, n]
    if spec.example_id in (2, 3):
        return [0, n]
    return [0, 1]


# ---------------------------------------------------------------------------
# cross check of the generic pipeline against the closed forms
# ---------------------------------------------------------------------------


@dataclass
class IdentityLine:
    name: str
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "residual": self.residual,
            "tolerance": self.tolerance,
            "pass": bool(self.passed),
        }


@dataclass
class CrossCheckReport:
    example_id: int
    lines: list
    classification: Optional[str] = None

    @property
    def passed(self) -> bool:
        return all(line.passed for line in self.lines)

    def failures(self) -> list:
        return [line for line in self.lines if not line.passed]


def example_cross_check(
    spec: ExampleSpec,
    grid_s: int = 5,
    grid_t: int = 5,
    grid_leaf: int = 4,
    verify_tol: float = 1e-4,
    classify: bool = True,
) -> CrossCheckReport:
    """Run the generic machinery on one family and compare with closed forms.

    Builds the transported-frame parametrization from the family's integral
    curve, verifies the leaf block, minimality, the structure identities and
    the classification, and checks the numeric shape image of the structure
    field against the closed form. Raises CrossCheckError naming the first
    failed identity.
    """
    lines: list[IdentityLine] = []
    sig = spec.sig
    rng = np.random.default_rng(11)

    fields = example_fields(spec, spec.t0)
    psi0 = example_map(spec, spec.t0)
    g = lambda a, b: real_metric(sig, a, b)
    lines.append(
        IdentityLine("lift_on_sphere", abs(g(psi0, psi0) - 1.0), 1e-12)
    )
    lines.append(
        IdentityLine(
            "normal_unit", abs(g(fields.n_hat, fields.n_hat) - fields.epsilon), 1e-12
        )
    )
    lines.append(
        IdentityLine("normal_horizontal", abs(g(fields.n_hat, 1j * psi0)), 1e-12)
    )
    lines.append(
        IdentityLine(
            "shape_xi_component", abs(g(fields.a_xi_hat, fields.xi_hat)), 1e-12
        )
    )

    data = example_integral_curve(spec)
    curve = data.curve
    lines.append(IdentityLine("curve_horizontal", curve.horizontality_defect(), 1e-10))
    lines.append(IdentityLine("curve_unit_speed", curve.speed_defect(), 1e-9))

    ff_err = 0.0
    for s in np.linspace(spec.s_range[0], spec.s_range[1], 7):
        f = data.accel(s)
        ff_err = max(ff_err, abs(g(f, f) - data.accel_square))
    lines.append(IdentityLine("accel_square_constant", ff_err, 1e-10))

    par = transport_basis(curve, s0=0.0)
    ov, ojv = par.orthogonality_defect()
    lines.append(IdentityLine("transport_orth_velocity", ov, 1e-6))
    lines.append(IdentityLine("transport_orth_j_velocity", ojv, 1e-6))
    lines.append(IdentityLine("transport_gram_drift", par.gram_drift(), 1e-6))

    lines.append(
        IdentityLine(
            "evaluate_recovers_base",
            rhs_evaluate(par, 0.12, np.zeros(par.leaf_dim)).gap(
                canonicalize(sig, curve.lift_fn(0.12))
            ),
            1e-9,
        )
    )

    grid = ruled.leaf_coordinate_grid(par, grid_s, grid_leaf)
    t_values = np.linspace(spec.t_range[0], spec.t_range[1], grid_t)
    base_patch = RHSPatch(par)
    dd_max = 0.0
    mu_max = 0.0
    for tv in t_values:
        patch = TransformedPatch(ruling_isometry(spec, float(tv)), base_patch)
        for s, c in grid:
            rep = ruled.shape_operator_at(patch, np.concatenate([[s], c]))
            dd_max = max(dd_max, rep.dd_block_max)
            mu_max = max(mu_max, abs(rep.mu))
    lines.append(IdentityLine("ruled_leaf_block", dd_max, verify_tol))
    lines.append(IdentityLine("minimality_mu", mu_max, verify_tol))

    cod = ruled.codazzi_residual(base_patch, np.concatenate([[0.05], grid[0][1]]), rng)
    lines.append(IdentityLine("codazzi_residual", cod, verify_tol))

    # numeric shape image of xi against the closed form (sign free)
    u0 = np.zeros(base_patch.n_params)
    mu_num, uvec, frame = ruled.structure_shape_values(base_patch, u0)
    axi_closed = fields.a_xi_hat
    hor = axi_closed - g(axi_closed, 1j * psi0) * (1j * psi0)
    axi_num = frame.epsilon * mu_num * frame.xi + uvec
    ph = np.sum(frame.lift * np.conj(psi0))
    ph = np.conj(ph) / abs(ph)
    axi_num = axi_num * ph
    gap = min(
        float(np.max(np.abs(axi_num - hor))), float(np.max(np.abs(axi_num + hor)))
    )
    lines.append(IdentityLine("shape_xi_matches_closed_form", gap, 1e-5))

    classification = None
    if classify:
        report = classify_minimal_ruled(par)
        classification = report.case.value
        lines.append(
            IdentityLine(
                "classification_case",
                0.0 if report.case is data.predicted_case else 1.0,
                0.5,
            )
        )
        if data.kind is not None:
            lines.append(
                IdentityLine(
                    "classification_kind",
                    0.0 if report.kind == data.kind else 1.0,
                    0.5,
                )
            )
        if data.kappa1 is not None and report.kappa1 is not None:
            lines.append(
                IdentityLine(
                    "classification_kappa1", abs(report.kappa1 - data.kappa1), 1e-4
                )
            )

    report = CrossCheckReport(spec.example_id, lines, classification)
    bad = report.failures()
    if bad:
        raise CrossCheckError(
            f"example {spec.example_id}: identity '{bad[0].name}' failed "
            f"(residual {bad[0].residual:.3e} > {bad[0].tolerance:.1e})",
            report,
        )
    return report
