"""Built-in ruled hypersurface families with closed-form structure data.

Each family sweeps a totally geodesic hyperplane slice with a one-parameter
isometry group acting on two ambient slots: a rotation when the two slots
have the same metric sign, a boost when they differ. A family is one row of
``FAMILIES``: where the slice sits among the ambient slots, the ruling slot
it fills and the one it leaves empty, the signatures it allows and its
default seed. The structure field, unit normal, its shape image and the
acceleration of the structure flow all follow from the 2x2 ruling block, so
the families double as exact oracles for the generic numeric pipeline.

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
from .errors import DomainError
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


@dataclass(frozen=True)
class Family:
    """One family as data.

    The slice puts seed slot k at ambient slot k + ``offset``. The ruling
    block acts on the ambient slots ``filled`` (which the slice fills) and
    ``empty`` (which it leaves at zero); both are signed indices, negative
    ones counting from the end. ``limits`` is (least n, least p, least
    n - p). ``seed`` maps signed seed slots to the default seed's entries.
    """

    signature: Signature
    offset: int
    filled: int
    empty: int
    limits: tuple
    seed: dict

    def default_seed(self, n: int) -> np.ndarray:
        z = np.zeros(n, dtype=complex)
        for slot, value in self.seed.items():
            z[slot] = value
        return z


_SQRT_7_16 = np.sqrt(2.0 - 1.25**2)

#: the built-in families; a default signature honors each row's limits.
#: Family 2's seed has |z_1| = 1 and distinct moduli to keep canonical
#: phases stable; family 1's is ``gamma_seed`` at r = pi/8.
FAMILIES = {
    1: Family(
        Signature(3, 1), 0, -2, -1, (3, 1, 2),
        {0: 1.0, -2: np.sqrt(2.0) * np.cos(np.pi / 8), -1: np.sqrt(2.0) * np.sin(np.pi / 8)},
    ),
    2: Family(Signature(4, 1), 0, 0, -1, (4, 1, 2), {0: 1.0, 1: 1.25, 2: _SQRT_7_16}),
    3: Family(Signature(3, 2), 1, -1, 0, (3, 2, 1), {0: 0.5, 1: 1.0, -1: 0.5}),
    4: Family(Signature(3, 2), 1, 1, 0, (3, 2, 1), {0: 1.0, 1: 1.25, -1: _SQRT_7_16}),
}

EXAMPLE_IDS = tuple(FAMILIES)

#: ruling parameter of the checked slice and of the integral curve's start
T0 = 0.0
#: ruling parameters swept by the cross check and the point cloud export
T_RANGE = (-0.4, 0.4)
#: base parameter window of the integral curve
S_RANGE = (-0.5, 0.5)


def _family(example_id: int) -> Family:
    fam = FAMILIES.get(example_id)
    if fam is None:
        raise DomainError(f"unknown example id {example_id}")
    return fam


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


class _Ruling:
    """A family row resolved at one signature, once per ExampleSpec.

    The slice at t carries the seed entry z_omega to (cos t, sin t) z_omega
    on the (filled, empty) slots, with hyperbolic functions for a boost.
    ``nu`` and ``eps1`` are the metric signs of those slots; the block's
    generator B has B^2 = ``sigma``: -1 for a rotation (equal signs), +1 for
    a boost.
    """

    def __init__(self, fam: Family, sig: Signature):
        n = sig.n
        self.n = n
        self.offset = fam.offset
        self.filled = fam.filled % (n + 1)
        self.empty = fam.empty % (n + 1)
        self.omega = self.filled - fam.offset
        self.seed_signs = metric_signs(sig.p - fam.offset, n)
        self.nu = float(sig.signs[self.filled])
        self.eps1 = float(sig.signs[self.empty])
        self.sigma = -self.nu * self.eps1
        self.cos, self.sin = (np.cosh, np.sinh) if self.sigma > 0 else (np.cos, np.sin)

    def validate(self, z: np.ndarray):
        g = float(np.real(np.sum(self.seed_signs * z * np.conj(z))))
        if abs(g - 1.0) > 1e-10:
            raise DomainError(f"seed is not on its sphere: g(z,z) = {g!r}")
        if abs(z[self.omega]) < 1e-12:
            raise DomainError("seed violates the family's open-slot condition")

    def slice_map(self, t, x: np.ndarray) -> np.ndarray:
        """The slice at t of the seed point x: one row (n + 1,) at a scalar
        t, rows (m, n + 1) at an array (m,) of t."""
        t = np.asarray(t)
        out = np.zeros(t.shape + (self.n + 1,), dtype=complex)
        out[..., self.offset : self.offset + self.n] = x
        xw = x[self.omega]
        out[..., self.filled] = self.cos(t) * xw
        out[..., self.empty] = self.sin(t) * xw
        return out


@dataclass(frozen=True)
class ExampleSpec:
    """One family instance: signature and seed point.

    ``seed_z=None`` takes the family's default seed.
    """

    example_id: int
    sig: Signature
    seed_z: Optional[np.ndarray]
    ruling: _Ruling = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        fam = _family(self.example_id)
        n, p = self.sig.n, self.sig.p
        n_min, p_min, gap = fam.limits
        if not (n >= n_min and p_min <= p <= n - gap):
            raise DomainError(
                f"example {self.example_id} needs n >= {n_min} and {p_min} <= p <= n-{gap}; "
                f"got (n={n}, p={p})"
            )
        z = fam.default_seed(n) if self.seed_z is None else np.array(self.seed_z, dtype=complex)
        if z.shape != (n,):
            raise DomainError(f"seed must have {n} entries")
        ruling = _Ruling(fam, self.sig)
        ruling.validate(z)
        z.setflags(write=False)
        object.__setattr__(self, "seed_z", z)
        object.__setattr__(self, "ruling", ruling)


def example_spec(example_id: int, sig: Optional[Signature] = None, seed_z=None) -> ExampleSpec:
    return ExampleSpec(example_id, sig or _family(example_id).signature, seed_z)


def seed_sphere_index(example_id: int, sig: Signature) -> int:
    """Index (timelike slot count) of the seed sphere the family slices."""
    return sig.p - _family(example_id).offset


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def example_map(spec: ExampleSpec, t: float, z=None) -> np.ndarray:
    """Closed-form sphere lift of the family at ruling parameter t."""
    z = spec.seed_z if z is None else np.asarray(z, dtype=complex)
    spec.ruling.validate(z)
    return spec.ruling.slice_map(t, z)


def example_leaf_tangent(spec: ExampleSpec, t: float, x) -> np.ndarray:
    """Differential of the slice map in a seed-sphere tangent direction.

    The slice map is linear in the seed point, so it is its own differential.
    """
    return spec.ruling.slice_map(t, np.asarray(x, dtype=complex))


def ruling_isometry(spec: ExampleSpec, t: float) -> IndefiniteUnitaryMatrix:
    """The one-parameter isometry group element moving slice t=0 to slice t."""
    r = spec.ruling
    f, e = r.filled, r.empty
    c, s = r.cos(t), r.sin(t)
    m = np.eye(r.n + 1, dtype=complex)
    m[f, f] = c
    m[e, e] = c
    m[e, f] = s
    m[f, e] = r.sigma * s
    return IndefiniteUnitaryMatrix(spec.sig, m)


@dataclass(frozen=True)
class ExampleFields:
    """Closed-form structure data at one point of the family."""

    xi_hat: np.ndarray
    n_hat: np.ndarray
    a_xi_hat: np.ndarray
    epsilon: float


def example_fields(spec: ExampleSpec, t: float, z=None) -> ExampleFields:
    """Structure field, unit normal (i times it) and its shape image.

    The structure field is the t-derivative of the slice, (sigma sin t,
    cos t) z_omega / |z_omega| on the ruling slots. The shape image is
    -sigma i (cos t, sin t) z_omega / |z_omega|^2: the ruling isometry
    moves both from slice 0, as it moves the hypersurface onto itself.
    """
    r = spec.ruling
    z = spec.seed_z if z is None else np.asarray(z, dtype=complex)
    r.validate(z)
    f, e = r.filled, r.empty
    zw = z[r.omega]
    u = abs(zw) ** 2
    c, s = r.cos(t), r.sin(t)
    out = np.zeros(r.n + 1, dtype=complex)
    axi = np.zeros(r.n + 1, dtype=complex)
    out[f] = r.sigma * s * zw
    out[e] = c * zw
    k = -r.sigma * 1j
    axi[f] = k * c * zw / u
    axi[e] = k * s * zw / u
    xi = out / abs(zw)
    return ExampleFields(xi_hat=xi, n_hat=1j * xi, a_xi_hat=axi, epsilon=r.eps1)


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


def _predict(ff: float, eps1: float):
    """Case, model kind, kappa1 and eps2 from the acceleration square ff.

    The boundary threshold matches the relative lightlike band of the
    numeric pipeline, so predictions agree with what the classifier can
    resolve for seeds that sit on the transition within round-off.
    """
    if abs(ff) < 1e-8:
        return MinimalCase.CASE_C_NON_FRENET, None, None, None
    if ff > 0:
        kind = "rp2" if eps1 > 0 else "s2_1"
        return MinimalCase.CASE_B_TOTALLY_REAL_CIRCLE, kind, np.sqrt(ff), 1.0
    kind = "s2_1" if eps1 > 0 else "h2_2"
    return MinimalCase.CASE_B_TOTALLY_REAL_CIRCLE, kind, np.sqrt(-ff), -1.0


def example_integral_curve(
    spec: ExampleSpec,
    t: Optional[float] = None,
    z=None,
    step: float = 1e-3,
    s_range: Optional[tuple] = None,
) -> IntegralCurveData:
    """Integral curve of the structure field through (t, z), with closed forms,
    sampled over ``s_range``; t defaults to ``T0``, s_range to ``S_RANGE``.

    The returned acceleration is the second covariant derivative of the flow
    on the sphere, eps1 times the point plus its second t-derivative over
    |z_omega|^2; its constant square norm, nu/|z_omega|^2 - 1 with nu the
    filled slot's sign, decides the case split. Where it vanishes, a seed
    whose slice lies in the ruling slots alone gives a geodesic, case a.
    """
    r = spec.ruling
    t0 = T0 if t is None else t
    z = spec.seed_z if z is None else np.asarray(z, dtype=complex)
    r.validate(z)
    s_lo, s_hi = S_RANGE if s_range is None else s_range
    zw = z[r.omega]
    mod = abs(zw)
    u = mod * mod
    eps1 = r.eps1

    def lift(s) -> np.ndarray:
        return r.slice_map(t0 + s / mod, z)

    curve = sampled_curve_from_fn(spec.sig, lift, s_lo, s_hi, step)

    f, e = r.filled, r.empty
    coef = eps1 + r.sigma / u

    def accel(s: float) -> np.ndarray:
        tau = t0 + s / mod
        out = np.zeros(r.n + 1, dtype=complex)
        out[r.offset : r.offset + r.n] = eps1 * z
        out[f] = coef * r.cos(tau) * zw
        out[e] = coef * r.sin(tau) * zw
        return out

    ff = r.nu / u - 1.0
    case, kind, kappa1, eps2 = _predict(ff, eps1)
    if case is MinimalCase.CASE_C_NON_FRENET:
        others = np.delete(np.abs(r.slice_map(0.0, z)), [f, e])
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
    classification: str
    par: ruled.RHSParametrization


def ruling_sweep(
    spec: ExampleSpec, par: ruled.RHSParametrization, rows: np.ndarray, grid_t: int
) -> tuple[float, float]:
    """Worst leaf-block entry and worst |mu| of the shape operator over
    ``grid_t`` ruling slices of the patch, at the parameter rows of each.

    One ``shape_operators`` call per slice: the slices stay separate so the
    stencil arrays, and so peak memory, stay the size of one slice.
    """
    base = RHSPatch(par)
    dd_max = 0.0
    mu_max = 0.0
    for tv in np.linspace(T_RANGE[0], T_RANGE[1], grid_t):
        patch = TransformedPatch(ruling_isometry(spec, float(tv)), base)
        for rep in ruled.shape_operators(patch, rows):
            dd_max = max(dd_max, rep.dd_block_max)
            mu_max = max(mu_max, abs(rep.mu))
    return dd_max, mu_max


def example_cross_check(
    spec: ExampleSpec,
    grid_s: int = 5,
    grid_t: int = 5,
    grid_leaf: int = 4,
    verify_tol: float = 1e-4,
    leaf_radius: float = 0.25,
) -> CrossCheckReport:
    """Run the generic machinery on one family and compare with closed forms.

    Builds the transported-frame parametrization from the family's integral
    curve, verifies the leaf block and minimality over the grid of
    ``ruling_sweep`` (leaf coordinates up to ``leaf_radius``), the structure
    identities and the classification, and checks the numeric shape image of
    the structure field against the closed form. The report holds every
    identity line, passed or failed, and keeps the parametrization.
    """
    lines: list[IdentityLine] = []
    sig = spec.sig
    rng = np.random.default_rng(11)

    fields = example_fields(spec, T0)
    psi0 = example_map(spec, T0)
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
    for s in np.linspace(S_RANGE[0], S_RANGE[1], 7):
        f = data.accel(s)
        ff_err = max(ff_err, abs(g(f, f) - data.accel_square))
    lines.append(IdentityLine("accel_square_constant", ff_err, 1e-10))

    par = transport_basis(curve)
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

    rows = ruled.leaf_coordinate_grid(par, grid_s, grid_leaf, radius=leaf_radius)
    dd_max, mu_max = ruling_sweep(spec, par, rows, grid_t)
    lines.append(IdentityLine("ruled_leaf_block", dd_max, verify_tol))
    lines.append(IdentityLine("minimality_mu", mu_max, verify_tol))

    base_patch = RHSPatch(par)
    cod = ruled.codazzi_residual(base_patch, np.concatenate([[0.05], rows[0, 1:]]), rng)
    lines.append(IdentityLine("codazzi_residual", cod, verify_tol))

    # numeric shape image of xi against the closed form (sign free)
    rep = ruled.shape_operator_at(base_patch, np.zeros(base_patch.n_params))
    frame = rep.frame
    axi_closed = fields.a_xi_hat
    hor = axi_closed - g(axi_closed, 1j * psi0) * (1j * psi0)
    axi_num = frame.epsilon * rep.mu * frame.xi + rep.u_vec
    ph = np.sum(frame.lift * np.conj(psi0))
    ph = np.conj(ph) / abs(ph)
    axi_num = axi_num * ph
    gap = min(
        float(np.max(np.abs(axi_num - hor))), float(np.max(np.abs(axi_num + hor)))
    )
    lines.append(IdentityLine("shape_xi_matches_closed_form", gap, 1e-5))

    classified = classify_minimal_ruled(par)
    case_ok = classified.case is data.predicted_case
    lines.append(IdentityLine("classification_case", 0.0 if case_ok else 1.0, 0.5))
    if data.kind is not None:
        kind_ok = classified.kind == data.kind
        lines.append(IdentityLine("classification_kind", 0.0 if kind_ok else 1.0, 0.5))
    if data.kappa1 is not None and classified.kappa1 is not None:
        kappa_gap = abs(classified.kappa1 - data.kappa1)
        lines.append(IdentityLine("classification_kappa1", kappa_gap, 1e-4))

    return CrossCheckReport(spec.example_id, lines, classified.case.value, par)
