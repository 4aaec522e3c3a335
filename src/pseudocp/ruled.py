"""Ruled hypersurface parametrizations, shape operators, and the classifier.

A parametrization carries a unit base curve and a basis of the orthogonal
complement of span{velocity, J velocity} transported along it by the ODE
that keeps the covariant derivative inside that span (gluing the hyperplane
leaves along the curve without rotations). The ODE is linear in the frame:
the curve states come from one array pass over the half-step grid, and each
RK4 step is a precomputed real propagator matrix. Evaluation composes the
transported frame with the exponential map over stacked patch parameters
(``RHSPatch.lifts_at``); a single point (``rhs_lift``) and a product grid of
base parameters and leaf coordinates (``rhs_lift_grid``) are its cases.

Almost contact frames come from one batched kernel, ``hypersurface_frames``:
for a stack of patch parameters it evaluates every lift of every
central-difference stencil in one patch call (``lifts_at``), then aligns
phases, projects to the horizontal space and takes both SVDs as stacked
array operations. It returns one ``AlmostContactFrame`` holding the stack;
the frame at a single point is its one-row view. Every derivative of a
frame field is one stencil, ``_extrapolated_difference``: central
differences at +-h and +-h/2 combined as (4 D(h/2) - D(h)) / 3. The shape
operator differentiates the unit normal with it at ``INNER_FD_STEP``:
``weingarten_apply`` gets the four normals of every vector at every point
of a stack from one kernel call, and ``shape_operators`` measures a stack
of points with one frame call, two Weingarten calls and one stacked
Gram-Schmidt for the adapted bases (``adapted_bases``). Tangent
coordinates are one stacked least squares solve. The Codazzi and
structure identities difference Weingarten images and xi at
``OUTER_FD_STEP``; the structure identity takes a stack of points. The
ruled characterization (vanishing leaf block) and minimality
(mu = g(A xi, xi) = 0) are read off the shape reports.

The classifier checks that the structure field is tangent to the base line
(leaf coordinate 0) at unit parameter speed, so that the base curve is its
integral curve, then sorts that curve into the three minimal cases.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .curves import (
    CURVE_TOL,
    CurveClass,
    SampledCurve,
    case_c_verify,
    deriv_rows,
    frenet_apparatus,
    hermite_rows,
    horizontal_lift,
    is_totally_real_circle,
)
from .errors import (
    CausalCharacterError,
    ChartError,
    ClassificationError,
    DegenerateHypersurfaceError,
    FrameError,
    ImmersionError,
)
from .frames import orthonormalize_real_rows
from .isometries import IndefiniteUnitaryMatrix, frame_to_isometry
from .linalg import (
    LIGHT_TOL,
    CausalCharacter,
    Signature,
    causal_character,
    causal_characters,
    gdot_rows,
    real_metric,
)
from .projective import (
    ProjectivePoint,
    canonicalize,
    horizontal_rows,
    quadric_geodesic,
    random_horizontal_unit,
)

#: step of the patch tangents and of the normal derivative (Weingarten map)
INNER_FD_STEP = 1e-4
#: step of the differences of Weingarten images (Codazzi) and of xi
OUTER_FD_STEP = 2e-3
#: leaf coordinates must stay inside this chart radius
CHART_RADIUS = np.pi / 2
#: relative lightlike threshold for numerically measured vectors
NUMERIC_LIGHT_TOL = 1e-5


class ShapeForm(Enum):
    RANK_TWO_NON_NULL_U = "rank_two_non_null_u"
    LIGHTLIKE_U = "lightlike_u"
    VANISHING = "vanishing"


class MinimalCase(Enum):
    CASE_A_GEODESIC = "a"
    CASE_B_TOTALLY_REAL_CIRCLE = "b"
    CASE_C_NON_FRENET = "c"


# ---------------------------------------------------------------------------
# transport of the leaf frame along the base curve
# ---------------------------------------------------------------------------


def _curve_lift(curve: SampledCurve) -> Callable:
    """Smooth lift of a sampled curve over arrays of parameters: its closed
    form, else the cubic Hermite interpolant of its samples with
    ``deriv_rows`` slopes."""
    if curve.lift_fn is not None:
        return curve.lift_fn
    slopes = deriv_rows(curve.lifts, curve.step)
    return lambda s: hermite_rows(curve.params, curve.lifts, slopes, s)


#: half-step rows beyond each end of the curve reached by the stencils
_STENCIL_PAD = 4


def _curve_states(curve: SampledCurve, lift: Callable):
    """Lift q, horizontal velocity dq and horizontal acceleration f on the
    half-step grid of the curve: row 2i at sample i, row 2i+1 halfway to
    sample i+1 (the RK4 midpoints).

    The derivatives are the five-point stencils of ``fd_derivative`` and
    ``fd_second_derivative`` with step h = ``curve.step``. Their points
    s +- h and s +- 2h lie on the same half-step grid, so the lift is
    evaluated once at each of the 2m + 7 grid points.
    """
    h = curve.step
    rows = 2 * len(curve) - 1
    pad = _STENCIL_PAD
    s = curve.params[0] + 0.5 * h * np.arange(-pad, rows + pad)
    lifts = np.asarray(lift(s), dtype=complex)

    def at(offset: int) -> np.ndarray:
        return lifts[pad + offset : pad + offset + rows]

    q = at(0)
    dq = (-at(4) + 8.0 * at(2) - 8.0 * at(-2) + at(-4)) / (12.0 * h)
    d2q = (-at(4) + 16.0 * at(2) - 30.0 * q + 16.0 * at(-2) - at(-4)) / (12.0 * h * h)
    signs = curve.sig.signs
    return q, horizontal_rows(signs, q, dq), horizontal_rows(signs, q, d2q)


@dataclass(frozen=True)
class RHSParametrization:
    """Transported leaf frame along a unit base curve, with evaluators."""

    base: SampledCurve
    eps1: float
    leaf_index: int
    frame_signs: np.ndarray
    frame_samples: np.ndarray  # (m, k, d)
    frame_derivs: np.ndarray  # (m, k, d)
    velocity: np.ndarray  # (m, d) horizontal velocity of the base curve
    lift: Callable = field(repr=False)  # lifts of the base curve over arrays of s

    @property
    def sig(self) -> Signature:
        return self.base.sig

    @property
    def leaf_dim(self) -> int:
        return self.frame_samples.shape[1]

    def s_range(self) -> tuple[float, float]:
        return float(self.base.params[0]), float(self.base.params[-1])

    def frames_at(self, s) -> np.ndarray:
        """Cubic Hermite interpolation of the transported frame: (k, d) at a
        scalar s, stacked (S, k, d) at an array of S base parameters."""
        return hermite_rows(self.base.params, self.frame_samples, self.frame_derivs, s)

    def gram_drift(self) -> float:
        """Largest deviation of the frame Gram matrix from its start value."""
        signs = self.sig.signs
        z = self.frame_samples
        gram = np.real(np.einsum("mkd,mld,d->mkl", z, np.conj(z), signs))
        i0 = int(np.argmin(np.abs(self.base.params)))
        return float(np.max(np.abs(gram - gram[i0])))

    def orthogonality_defect(self) -> tuple[float, float]:
        """Worst defects of the frame against velocity and J velocity."""
        signs = self.sig.signs
        dq = self.velocity[:, None, :]
        z = self.frame_samples
        return (
            float(np.max(np.abs(gdot_rows(signs, z, dq)))),
            float(np.max(np.abs(gdot_rows(signs, z, 1j * dq)))),
        )


def default_initial_basis(sig: Signature, q: np.ndarray, dq: np.ndarray):
    """g-orthonormal basis of (span{dq, J dq})^perp at the lift q.

    Free columns of the frame completion at (q, velocity) give complex
    vectors w; the pairs (w, iw) then span the complement over the reals.
    """
    g = real_metric(sig, dq, dq)
    iso = frame_to_isometry(sig, q, dq / np.sqrt(abs(g)))
    n, p = sig.n, sig.p
    used = {n - 1, n if g > 0 else 0}
    basis, signs = [], []
    for col in range(sig.ambient_dim):
        if col in used:
            continue
        w = iso.entries[:, col]
        sgn = -1.0 if col < p else 1.0
        basis.extend([w, 1j * w])
        signs.extend([sgn, sgn])
    return np.array(basis), np.array(signs)


def _transport_generators(sig: Signature, eps1: float, q, dq, f) -> np.ndarray:
    """Real matrices A with rhs(z) = z A on realified rows, one per state.

    Rows are realified by viewing complex128 as interleaved (re, im) pairs.
    The transport right-hand side
    -eps1 (g(z,f) dq + g(z,Jf) J dq) - g(z,dq) q - g(z,J dq) J q
    is real-linear in each row z, and g(z, a) = real(z) . real(signs a), so
    A is a sum of four outer products.
    """
    jdq = 1j * dq
    paired = sig.signs * np.stack([f, 1j * f, dq, jdq], axis=1)
    images = np.stack([-eps1 * dq, -eps1 * jdq, -q, -1j * q], axis=1)
    return np.einsum("nti,ntj->nij", paired.view(float), images.view(float))


def _rk4_propagators(a1, a2, a4, h) -> np.ndarray:
    """Matrices P with x(s + h) = x(s) P for one classical RK4 step of x' = x A.

    a1, a2, a4 hold A(s), A(s + h/2), A(s + h), batched over the leading
    axis with the signed steps h. Substituting the stages k_j = x B_j gives
    P = I + h/6 (B1 + 2 B2 + 2 B3 + B4).
    """
    hh = np.asarray(h, dtype=float)[:, None, None]
    b2 = a2 + 0.5 * hh * (a1 @ a2)
    b3 = a2 + 0.5 * hh * (b2 @ a2)
    b4 = a4 + hh * (b3 @ a4)
    return np.eye(a1.shape[-1]) + hh / 6.0 * (a1 + 2.0 * b2 + 2.0 * b3 + b4)


#: RK4 steps whose propagators are formed in one batch (bounds temporaries)
_STEP_BLOCK = 128


def _rk4_chain(sig: Signature, eps1: float, states, steps, x, dx) -> None:
    """Fill x[1:] by RK4 steps from x[0], and dx with the right-hand sides.

    ``states`` holds (q, dq, f) on the half-step grid from the first sample
    on, ``steps`` the signed step to each next sample, and x, dx the frames
    realified as (re, im) pairs (possibly reversed views). Propagators are
    formed a block of steps at a time, so each step is one matrix product.
    """
    n = steps.shape[0]
    for lo in range(0, max(n, 1), _STEP_BLOCK):
        hi = min(lo + _STEP_BLOCK, n)
        a = _transport_generators(sig, eps1, *(v[2 * lo : 2 * hi + 1] for v in states))
        prop = _rk4_propagators(a[0:-1:2], a[1::2], a[2::2], steps[lo:hi])
        for i in range(lo, hi):
            x[i + 1] = x[i] @ prop[i - lo]
        dx[lo : hi + 1] = x[lo : hi + 1] @ a[0::2]


def transport_basis(curve: SampledCurve) -> RHSParametrization:
    """Integrate the frame transport ODE along the base curve with RK4,
    from the ``default_initial_basis`` at s = 0, which must be a sample.

    The covariant derivative of each transported vector is forced into
    span{velocity, J velocity}; on lifts this becomes an explicit linear ODE
    whose solution keeps the frame orthogonal to the velocity, its rotation
    by J, the position and the fiber direction. The curve states come from
    one pass over the half-step grid and each RK4 step is a precomputed
    real propagator matrix, so the integration is a chain of small products.
    """
    sig = curve.sig
    grid = curve.params
    lift = _curve_lift(curve)
    q, dq, f = _curve_states(curve, lift)
    i0 = int(np.argmin(np.abs(grid)))
    char = causal_character(sig, dq[2 * i0])
    if char in (CausalCharacter.LIGHTLIKE, CausalCharacter.ZERO):
        raise CausalCharacterError("base curve velocity must not be lightlike")
    eps1 = curve.eps1

    basis, signs = default_initial_basis(sig, q[2 * i0], dq[2 * i0])
    if abs(float(grid[i0])) > 1e-9:
        raise FrameError("s = 0 must be a sample of the base curve")

    frames = np.empty((grid.shape[0],) + basis.shape, dtype=complex)
    derivs = np.empty_like(frames)
    frames[i0] = basis
    x, dx = frames.view(float), derivs.view(float)
    steps = np.diff(grid)
    # forward from i0, then backward as a forward chain over reversed views
    _rk4_chain(sig, eps1, (q[2 * i0 :], dq[2 * i0 :], f[2 * i0 :]), steps[i0:], x[i0:], dx[i0:])
    _rk4_chain(
        sig,
        eps1,
        (q[2 * i0 :: -1], dq[2 * i0 :: -1], f[2 * i0 :: -1]),
        -steps[:i0][::-1],
        x[i0::-1],
        dx[i0::-1],
    )

    leaf_index = sig.p if eps1 > 0 else sig.p - 1
    return RHSParametrization(
        base=curve,
        eps1=eps1,
        leaf_index=leaf_index,
        frame_signs=np.asarray(signs, dtype=float),
        frame_samples=frames,
        frame_derivs=derivs,
        velocity=dq[0::2],
        lift=lift,
    )


# ---------------------------------------------------------------------------
# parametrized hypersurface patches
# ---------------------------------------------------------------------------


def rhs_lift(par: RHSParametrization, s: float, coords) -> np.ndarray:
    """Smooth (non-canonicalized) sphere lift of the parametrization point:
    the one-row case of ``RHSPatch.lifts_at``."""
    return RHSPatch(par).lift_at(np.concatenate([[s], np.asarray(coords, dtype=float)]))


def _check_chart(par: RHSParametrization, s_values: np.ndarray, coords: np.ndarray) -> None:
    """Raise ChartError unless every base parameter and leaf coordinate row
    lies inside the chart of the parametrization."""
    if coords.ndim != 2 or coords.shape[1] != par.leaf_dim:
        raise ChartError(f"expected rows of {par.leaf_dim} leaf coordinates")
    if np.any(np.sqrt(np.sum(coords**2, axis=1)) >= CHART_RADIUS):
        raise ChartError("leaf coordinates outside the chart radius")
    lo, hi = par.s_range()
    if np.any((s_values < lo - 1e-12) | (s_values > hi + 1e-12)):
        raise ChartError("base parameter outside the curve range")


def rhs_lift_grid(par: RHSParametrization, s_values, coords) -> np.ndarray:
    """``rhs_lift`` at every pair of base parameter and leaf coordinates.

    Entry [i, j] of the (S, L, d) result is the lift at s_values[i] and
    coords[j]; the pairs are the rows of one ``RHSPatch.lifts_at`` call, so
    the whole grid is checked against the chart before any point is
    evaluated.
    """
    s_values = np.asarray(s_values, dtype=float)
    coords = np.asarray(coords, dtype=float)
    if coords.ndim != 2:
        raise ChartError(f"expected rows of {par.leaf_dim} leaf coordinates")
    rows = _product_rows(s_values, coords)
    return RHSPatch(par).lifts_at(rows).reshape(len(s_values), len(coords), -1)


def _product_rows(s_values: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Patch parameter rows pairing every base parameter with every leaf
    coordinate row, s major."""
    return np.concatenate(
        [np.repeat(s_values, len(coords))[:, None], np.tile(coords, (len(s_values), 1))], axis=1
    )


def rhs_evaluate(par: RHSParametrization, s: float, coords) -> ProjectivePoint:
    """Point of the ruled hypersurface at base parameter s and leaf coordinates."""
    return canonicalize(par.sig, rhs_lift(par, s, coords))


class RHSPatch:
    """Patch interface over a parametrization: u = (s, leaf coordinates)."""

    def __init__(self, par: RHSParametrization):
        self.par = par
        self.sig = par.sig
        self.n_params = 1 + par.leaf_dim

    def lift_at(self, u: np.ndarray) -> np.ndarray:
        return self.lifts_at(np.asarray(u, dtype=float)[None])[0]

    def lifts_at(self, rows: np.ndarray) -> np.ndarray:
        """Sphere lifts at stacked parameter rows (M, 1 + k): the geodesic
        from the base lift at s along the transported frame applied to the
        leaf coordinates.

        All rows are checked against the chart first. The Hermite frame and
        the base lift are evaluated once per distinct s (a frame stencil
        moves s in only three of its rows), the geodesics in one batch.
        Stacked matrix products keep each row independent of the batch.
        """
        rows = np.asarray(rows, dtype=float)
        par = self.par
        s, coords = rows[:, 0], rows[:, 1:]
        _check_chart(par, s, coords)
        s_distinct, inverse = np.unique(s, return_inverse=True)
        v = np.matmul(coords[:, None, :], par.frames_at(s_distinct)[inverse])[:, 0]
        return quadric_geodesic(par.sig.signs, par.lift(s_distinct)[inverse], v, 1.0)


class TransformedPatch:
    """A patch moved by a holomorphic isometry (used for ruling translates)."""

    def __init__(self, iso: IndefiniteUnitaryMatrix, inner):
        self.iso = iso
        self.inner = inner
        self.sig = inner.sig
        self.n_params = inner.n_params

    def lift_at(self, u: np.ndarray) -> np.ndarray:
        return self.iso.apply(self.inner.lift_at(u))

    def lifts_at(self, rows: np.ndarray) -> np.ndarray:
        """``lift_at`` over stacked parameter rows, each row equal to it."""
        return np.matmul(self.iso.entries, _patch_lifts(self.inner, rows)[:, :, None])[:, :, 0]


class GeodesicSpherePatch:
    """Distance sphere patch around a point: the non-ruled control surface."""

    def __init__(self, x0: ProjectivePoint, radius: float, seed: int = 0):
        self.sig = x0.sig
        self.n_params = 2 * self.sig.n - 1
        self.q0 = x0.rep
        self.radius = radius
        rng = np.random.default_rng(seed)
        v0 = random_horizontal_unit(self.sig, self.q0, rng)
        iso = frame_to_isometry(self.sig, self.q0, v0)
        used = {self.sig.n - 1, self.sig.n}
        dirs = [1j * v0]
        for col in range(self.sig.ambient_dim):
            if col in used:
                continue
            w = iso.entries[:, col]
            dirs.extend([w, 1j * w])
        self.v0 = v0
        self.dirs = np.array(dirs)

    def lift_at(self, u: np.ndarray) -> np.ndarray:
        return self.lifts_at(np.asarray(u, dtype=float)[None])[0]

    def lifts_at(self, rows: np.ndarray) -> np.ndarray:
        """``lift_at`` over stacked parameter rows; the stacked product
        keeps each row independent of the batch size."""
        w = self.v0 + np.matmul(np.asarray(rows, dtype=float)[:, None, :], self.dirs)[:, 0]
        w = w / np.sqrt(gdot_rows(self.sig.signs, w, w))[:, None]
        return quadric_geodesic(self.sig.signs, self.q0, w, self.radius)


def _patch_lifts(patch, rows: np.ndarray) -> np.ndarray:
    """Lifts of a patch at stacked parameter rows: its ``lifts_at`` when it
    has one, else ``lift_at`` row by row (black-box patches)."""
    lifts_at = getattr(patch, "lifts_at", None)
    if lifts_at is not None:
        return lifts_at(rows)
    return np.array([patch.lift_at(u) for u in rows], dtype=complex)


def _phase_factor(signs: np.ndarray, w: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Unit phases making the indefinite products of w with ref real
    positive, 1 where a product vanishes; broadcasts over leading axes.

    Aligning nearby lifts with the indefinite product (not the Euclidean one)
    turns parameter lines into horizontal curves to first order, so finite
    differences of horizontal fields need no vertical correction.
    """
    a = np.sum(signs * w * np.conj(ref), axis=-1)
    # rounds like abs() of a Python complex; np.abs can differ by an ulp
    mod = np.hypot(a.real, a.imag)
    small = mod < 1e-12
    return np.where(small, 1.0 + 0.0j, np.conj(a) / np.where(small, 1.0, mod))


def _realify(z: np.ndarray) -> np.ndarray:
    return np.concatenate([np.real(z), np.imag(z)], axis=-1)


@dataclass(frozen=True)
class AlmostContactFrame:
    """Unit normal data N, epsilon, xi and phi at hypersurface points.

    The fields hold one row per point on a leading axis: lift (N, d),
    tangents (N, P, d), normal (N, d) and epsilon (N,). ``row(i)`` is the
    one-point view, the same fields without that axis. A vector argument
    x carries the frame's leading axes, optionally followed by one axis of
    several vectors per point: (N, d) or (N, m, d) for a stack, (d,) or
    (m, d) for one point.
    """

    sig: Signature
    lift: np.ndarray
    tangents: np.ndarray
    normal: np.ndarray
    epsilon: np.ndarray | float

    @property
    def xi(self) -> np.ndarray:
        return -1j * self.normal

    def row(self, i) -> "AlmostContactFrame":
        """The frame at row i; an index array selects a stack of rows."""
        eps = self.epsilon[i]
        return AlmostContactFrame(
            sig=self.sig,
            lift=self.lift[i],
            tangents=self.tangents[i],
            normal=self.normal[i],
            epsilon=eps if np.ndim(eps) else float(eps),
        )

    def _spread(self, x: np.ndarray):
        """lift, normal and epsilon broadcast against the vectors x."""
        if x.ndim == self.lift.ndim:
            return self.lift, self.normal, self.epsilon
        k = self.lift.ndim - 1
        return (
            np.expand_dims(self.lift, k),
            np.expand_dims(self.normal, k),
            np.expand_dims(self.epsilon, k),
        )

    def eta(self, x: np.ndarray) -> np.ndarray:
        return gdot_rows(self.sig.signs, x, -1j * self._spread(x)[1])

    def phi(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=complex)
        _, normal, eps = self._spread(x)
        return 1j * x - (eps * self.eta(x))[..., None] * normal

    def tangential(self, x: np.ndarray) -> np.ndarray:
        """Tangential part of ambient difference quotients x: the
        horizontal part at the lift, less the normal component."""
        signs = self.sig.signs
        lift, normal, eps = self._spread(x)
        x = horizontal_rows(signs, lift, x)
        return x - (eps * gdot_rows(signs, x, normal))[..., None] * normal

    def tangent_coords(self, x: np.ndarray) -> np.ndarray:
        """Coordinates of the vectors x in the tangents, (..., P): the least
        squares solution over the realified tangents. One stacked QR
        factorization T = QR gives the solution operator R^-1 Q^T of every
        point; it is applied to each vector as an elementwise product and a
        sum, so a vector's coordinates do not depend on the other vectors
        or points of the call. A one-point frame is the one-row stack."""
        x = np.asarray(x, dtype=complex)
        if self.lift.ndim == 1:
            return _one_row_stack(self).tangent_coords(x[None])[0]
        q, r = np.linalg.qr(np.swapaxes(_realify(self.tangents), 1, 2))
        solve = np.linalg.solve(r, np.swapaxes(q, 1, 2))
        solve = solve.reshape(solve.shape[:1] + (1,) * (x.ndim - 2) + solve.shape[1:])
        return np.sum(solve * _realify(x)[..., None, :], axis=-1)

    def unit_tangents(self, coeff: np.ndarray) -> np.ndarray:
        """Euclidean-unit tangents with the coefficients coeff in the
        tangents: (P,) at a one-point frame, (N, P) at a stack."""
        x = np.matmul(coeff[..., None, :], self.tangents)[..., 0, :]
        return x / np.sqrt(np.sum(np.abs(x) ** 2, axis=-1))[..., None]

    def random_tangent(self, rng: np.random.Generator) -> np.ndarray:
        """Euclidean-unit random tangent at a one-point frame."""
        return self.unit_tangents(rng.standard_normal(self.tangents.shape[0]))


def _one_row_stack(frame: AlmostContactFrame) -> AlmostContactFrame:
    """A one-point frame as a stack of one row."""
    return AlmostContactFrame(
        sig=frame.sig,
        lift=frame.lift[None],
        tangents=frame.tangents[None],
        normal=frame.normal[None],
        epsilon=np.array([frame.epsilon]),
    )


def _fix_sign(v: np.ndarray) -> np.ndarray:
    """Rows of v with their largest-modulus entry in the closed right half
    plane (positive imaginary part on its boundary)."""
    piv = np.take_along_axis(v, np.argmax(np.abs(v), axis=-1)[:, None], axis=-1)[:, 0]
    flip = (np.real(piv) < 0) | ((np.real(piv) == 0) & (np.imag(piv) < 0))
    return np.where(flip[:, None], -v, v)


def hypersurface_frames(
    patch,
    rows: np.ndarray,
    ref: Optional[AlmostContactFrame] = None,
) -> AlmostContactFrame:
    """Numeric unit normals and almost contact data at stacked parameters.

    Each row u of the (N, P) array gets the stencil u, u + h e_j, u - h e_j
    (j < P, h = ``INNER_FD_STEP``), and all (2P + 1) N lifts come from one
    patch call. The tangents are central differences of the stencil lifts
    phase-aligned to the lift at u, made horizontal. The normal is the
    g-orthogonal complement of the tangent space inside the horizontal
    space, found as the null vector of the metric pairing; its largest entry
    fixes its sign. With ``ref`` the
    lift, tangents and normal are then phase-aligned to the reference lift
    and the normal's sign is taken against the reference normal; a
    one-point reference serves every row, a stacked one holds one
    reference frame per row.

    A rank-deficient row raises ImmersionError, a singular pairing or a
    lightlike normal DegenerateHypersurfaceError; with several bad rows the
    first one decides.
    """
    sig = patch.sig
    signs = sig.signs
    dim = sig.ambient_dim
    rows = np.asarray(rows, dtype=float)
    count, p = rows.shape
    h = INNER_FD_STEP
    steps = h * np.eye(p)
    stencil = np.concatenate([rows[:, None], rows[:, None] + steps, rows[:, None] - steps], axis=1)
    w = _patch_lifts(patch, stencil.reshape(-1, p)).reshape(count, 2 * p + 1, dim)
    w0 = w[:, :1]
    moved = w[:, 1:] * _phase_factor(signs, w[:, 1:], w0)[..., None]
    t = horizontal_rows(signs, w0, (moved[:, :p] - moved[:, p:]) / (2.0 * h))
    w0 = w0[:, 0]

    treal = _realify(t)
    svals = np.linalg.svd(treal, compute_uv=False)
    rank_deficient = svals[:, -1] <= 1e-8 * np.maximum(1.0, svals[:, 0])
    srep = np.concatenate([signs, signs])
    constraints = np.concatenate([_realify(w0)[:, None], _realify(1j * w0)[:, None], treal], axis=1)
    _, sv, vh = np.linalg.svd(constraints * srep)
    singular = sv[:, -1] <= 1e-8 * np.maximum(1.0, sv[:, 0])
    nu = vh[:, -1, :dim] + 1j * vh[:, -1, dim:]
    gn = gdot_rows(signs, nu, nu)
    lightlike = np.abs(gn) <= LIGHT_TOL * np.sum(np.abs(nu) ** 2, axis=-1)
    bad = rank_deficient | singular | lightlike
    if np.any(bad):
        i = int(np.argmax(bad))
        if rank_deficient[i]:
            raise ImmersionError("parametrization is rank deficient here")
        if singular[i]:
            raise DegenerateHypersurfaceError("metric pairing is singular here")
        raise DegenerateHypersurfaceError("normal is lightlike: degenerate point")
    nu = _fix_sign(nu / np.sqrt(np.abs(gn))[:, None])
    if ref is not None:
        ph = _phase_factor(signs, w0, ref.lift)[:, None]
        w0, t, nu = w0 * ph, t * ph[..., None], nu * ph
        flip = np.real(np.sum(nu * np.conj(ref.normal), axis=-1)) < 0
        nu = np.where(flip[:, None], -nu, nu)
    return AlmostContactFrame(
        sig=sig, lift=w0, tangents=t, normal=nu, epsilon=np.where(gn > 0, 1.0, -1.0)
    )


def hypersurface_frame(patch, u: np.ndarray) -> AlmostContactFrame:
    """Numeric unit normal and almost contact data of the patch at u: the
    one-row case of ``hypersurface_frames``."""
    return hypersurface_frames(patch, np.asarray(u, dtype=float)[None]).row(0)


#: offsets of the extrapolated central difference, in units of its step
_FD_OFFSETS = np.array([1.0, -1.0, 0.5, -0.5])


def _extrapolated_difference(values: np.ndarray, h: float) -> np.ndarray:
    """Derivative from values at the offsets ``h * _FD_OFFSETS`` (leading
    axis): central differences D at steps h and h/2 combined by Richardson
    extrapolation, (4 D(h/2) - D(h)) / 3, whose truncation error is O(h^4)."""
    d1 = (values[0] - values[1]) / (2.0 * h)
    d2 = (values[2] - values[3]) / h
    return (4.0 * d2 - d1) / 3.0


def weingarten_apply(patch, frame: AlmostContactFrame, u: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Shape operator A X = -(derivative of N) applied to tangent vectors.

    ``frame`` holds the frames at the patch parameters u, a stack (N, P) or
    one point (P,); x holds one vector per point or an axis of several
    vectors per point (as for ``AlmostContactFrame``). The unit normal is
    extended along the coordinate line with parameter velocity matching X
    and differentiated by ``_extrapolated_difference`` at h =
    ``INNER_FD_STEP``. The four normals of every vector at every point come
    from one ``hypersurface_frames`` call, each aligned to the frame at its
    own point.
    """
    h = INNER_FD_STEP
    x = np.asarray(x, dtype=complex)
    u = np.asarray(u, dtype=float)
    a = frame.tangent_coords(x)
    if a.ndim > u.ndim:
        u = np.expand_dims(u, -2)
    steps = (h * _FD_OFFSETS).reshape((4,) + (1,) * a.ndim)
    nu = hypersurface_frames(patch, (u + steps * a).reshape(-1, a.shape[-1]), ref=_offset_refs(frame, a))
    return -frame.tangential(_extrapolated_difference(nu.normal.reshape((4,) + x.shape), h))


def _offset_refs(frame: AlmostContactFrame, a: np.ndarray) -> AlmostContactFrame:
    """Reference frames of the four ``_FD_OFFSETS`` rows of every tangent
    coordinate row of a, in offset-major order: the frame itself at one
    point, the row of each point repeated for a stack."""
    if frame.lift.ndim == 1:
        return frame
    owner = np.arange(a.shape[0]).reshape((-1,) + (1,) * (a.ndim - 2))
    return frame.row(np.broadcast_to(owner, (4,) + a.shape[:-1]).ravel())


@dataclass(frozen=True)
class ShapeReport:
    """Shape operator snapshot in an adapted basis {xi, e_1, ...}."""

    matrix: np.ndarray
    mu: float
    u_vec: np.ndarray
    u_character: CausalCharacter
    rank: int
    form: ShapeForm
    lam: float
    dd_block_max: float
    basis: np.ndarray
    basis_signs: np.ndarray
    frame: AlmostContactFrame


def adapted_bases(frames: AlmostContactFrame, first: np.ndarray, pinned: np.ndarray):
    """Adapted tangent bases (N, P, d) and their signs (N, P) at every row
    of a stacked frame: xi first, then an orthonormal basis of its
    g-complement inside the tangent space.

    The rows with ``pinned`` (N,) set pin their row of ``first`` (N, d), a
    leaf vector (the U of a rank-two shape operator), normalized, to the
    slot right after xi. One ``orthonormalize_real_rows`` call completes
    every row, pinned or not; the first row that cannot be completed
    raises its FrameError.
    """
    signs = frames.sig.signs
    xi = frames.xi
    eps = frames.epsilon
    t = frames.tangents
    pool = t - (eps[:, None] * gdot_rows(signs, t, xi[:, None]))[..., None] * xi[:, None]
    vecs, vsigns = orthonormalize_real_rows(frames.sig, pool, t.shape[1] - 1, pin=first, pinned=pinned)
    return np.concatenate([xi[:, None], vecs], axis=1), np.concatenate([eps[:, None], vsigns], axis=1)


def adapted_basis(frame: AlmostContactFrame, first: Optional[np.ndarray] = None):
    """Adapted tangent basis at a one-point frame, optionally with the leaf
    vector ``first`` pinned after xi: the one-row case of
    ``adapted_bases``."""
    pin = frame.xi if first is None else np.asarray(first, dtype=complex)
    bases, signs = adapted_bases(_one_row_stack(frame), pin[None], np.array([first is not None]))
    return bases[0], signs[0]


def shape_operators(patch, rows: np.ndarray) -> list[ShapeReport]:
    """Measure the shape operator in an adapted basis at each row of the
    stacked patch parameters (N, P).

    The structure vector comes first; when the leaf part U of A xi is
    non-null, its normalization occupies the second slot, so the rank-two
    pattern is visible directly in the matrix. One frame call, one
    Weingarten call for the images of xi, one stacked Gram-Schmidt
    (``adapted_bases``) for the bases of every row and one Weingarten call
    for the images of every basis.
    """
    rows = np.asarray(rows, dtype=float)
    sig = patch.sig
    frames = hypersurface_frames(patch, rows)
    xi = frames.xi
    axi = weingarten_apply(patch, frames, rows, xi)
    mu = gdot_rows(sig.signs, axi, xi)
    uvec = axi - (frames.epsilon * mu)[:, None] * xi
    uchar = causal_characters(sig, uvec, NUMERIC_LIGHT_TOL)
    non_null = (CausalCharacter.SPACELIKE, CausalCharacter.TIMELIKE)
    bases, bsigns = adapted_bases(frames, uvec, np.array([c in non_null for c in uchar], dtype=bool))
    lam = np.sqrt(np.abs(gdot_rows(sig.signs, uvec, uvec)))
    images = np.concatenate([axi[:, None], weingarten_apply(patch, frames, rows, bases[:, 1:])], 1)
    bil = gdot_rows(sig.signs, images[:, None], bases[:, :, None])
    matrix = bsigns[:, :, None] * bil
    svals = np.linalg.svd(matrix, compute_uv=False)
    return [
        ShapeReport(
            matrix=matrix[i],
            mu=float(mu[i]),
            u_vec=uvec[i],
            u_character=uchar[i],
            rank=int(np.sum(sv > 1e-3 * max(1.0, sv[0]))),
            form=_shape_form(bil[i], uchar[i]),
            lam=float(lam[i]),
            dd_block_max=float(np.max(np.abs(bil[i, 1:, 1:]))),
            basis=bases[i],
            basis_signs=bsigns[i],
            frame=frames.row(i),
        )
        for i, sv in enumerate(svals)
    ]


def _shape_form(bil: np.ndarray, uchar: CausalCharacter) -> ShapeForm:
    if float(np.max(np.abs(bil))) <= 1e-4:
        return ShapeForm.VANISHING
    if uchar is CausalCharacter.LIGHTLIKE:
        return ShapeForm.LIGHTLIKE_U
    return ShapeForm.RANK_TWO_NON_NULL_U


def shape_operator_at(patch, u: np.ndarray) -> ShapeReport:
    """The shape operator at patch parameters u: the one-row case of
    ``shape_operators``."""
    return shape_operators(patch, np.asarray(u, dtype=float)[None])[0]


# ---------------------------------------------------------------------------
# identities of the structure: Codazzi and the derivative of xi
# ---------------------------------------------------------------------------


def codazzi_residual(patch, u: np.ndarray, rng: np.random.Generator) -> float:
    """Residual of the Codazzi identity at u for one random tangent pair; the
    outer differences are ``_extrapolated_difference`` at ``OUTER_FD_STEP``."""
    sig = patch.sig
    h = OUTER_FD_STEP
    u = np.asarray(u, dtype=float)
    frame = hypersurface_frame(patch, u)
    x = frame.random_tangent(rng)
    y = frame.random_tangent(rng)
    ax_dir = frame.tangent_coords(x)
    ay_dir = frame.tangent_coords(y)
    # per offset: the field Y moved along X, then the field X moved along Y
    offsets = h * _FD_OFFSETS[:, None, None]
    centers = (u + offsets * np.array([ax_dir, ay_dir])).reshape(-1, u.shape[0])
    fields = np.tile([ay_dir, ax_dir], (4, 1))
    moved = hypersurface_frames(patch, centers, ref=frame)
    vecs = np.einsum("mp,mpd->md", fields, moved.tangents)
    images = weingarten_apply(patch, moved, centers, vecs)
    d_a = frame.tangential(_extrapolated_difference(images.reshape(4, 2, -1), h))
    d_v = frame.tangential(_extrapolated_difference(vecs.reshape(4, 2, -1), h))
    cov_x_ay, cov_y_ax = d_a - weingarten_apply(patch, frame, u, d_v)
    rhs = (
        frame.eta(x) * frame.phi(y)
        - frame.eta(y) * frame.phi(x)
        + 2.0 * real_metric(sig, x, frame.phi(y)) * frame.xi
    )
    res = cov_x_ay - cov_y_ax - rhs
    return float(np.sqrt(np.sum(np.abs(res) ** 2)))


def structure_field_identity(patch, frame: AlmostContactFrame, u: np.ndarray, x: np.ndarray):
    """Residual of the derived identity relating the structure field to phi A
    at the patch parameters u along the tangents x: a float at one point
    (u (P,), x (d,)), one residual per row (N,) at a stack (u (N, P),
    x (N, d)), ``frame`` holding the frames at u.

    Differentiates the structure field along x (``_extrapolated_difference``
    at h = ``OUTER_FD_STEP``) and compares the tangential covariant
    derivative with phi applied to the shape image of x. The moved frames
    of every row come from one ``hypersurface_frames`` call, the shape
    images from one ``weingarten_apply`` call.
    """
    h = OUTER_FD_STEP
    u = np.asarray(u, dtype=float)
    x = np.asarray(x, dtype=complex)
    a = frame.tangent_coords(x)
    steps = (h * _FD_OFFSETS).reshape((4,) + (1,) * a.ndim)
    moved = hypersurface_frames(patch, (u + steps * a).reshape(-1, a.shape[-1]), ref=_offset_refs(frame, a))
    nxi = frame.tangential(_extrapolated_difference(moved.xi.reshape((4,) + x.shape), h))
    res = np.max(np.abs(nxi - frame.phi(weingarten_apply(patch, frame, u, x))), axis=-1)
    return float(res) if res.ndim == 0 else res


# ---------------------------------------------------------------------------
# classification of the base curve
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassificationReport:
    case: MinimalCase
    kappa1: Optional[float]
    eps1: float
    eps2: Optional[float]
    kind: Optional[str]
    xi_defect: float
    detail: dict


#: base-line rows per ``hypersurface_frames`` call in the integral-curve
#: check; fixed blocks keep the stencil arrays, and so peak memory, small
_LINE_BLOCK = 64
#: largest half-length of the base line checked around s = 0
LINE_HALF_SPAN = 0.35
#: spacing of the base-line samples in the integral-curve check
LINE_STEP = 2e-3
#: integral-curve defect above which the classifier refuses the base curve
XI_TOL = 1e-6


def regenerate_integral_curve(par: RHSParametrization) -> tuple[SampledCurve, float]:
    """Re-derive the integral curve of the structure field from the patch.

    The leaves are glued along the base curve, so at leaf coordinate 0 the
    structure field should be +-alpha'. This is checked at every sample
    u_k = (k step, 0, ..., 0), step = ``LINE_STEP``, k = -count..count,
    |k step| at most ``LINE_HALF_SPAN`` and inside the curve range: the
    tangent coordinates of xi must be (+-1, 0, ..., 0), so xi is tangent to
    the base line at unit parameter speed. By uniqueness of ODE solutions
    the integral curve of xi through (0, 0) is then the base line itself,
    and its lifts are the patch lifts at the samples; no integration is
    needed. The lifts are used as they are when they are horizontal (to
    ``CURVE_TOL``), as for every closed-form family; otherwise they are
    re-lifted by ``horizontal_lift``. The frames come from
    ``hypersurface_frames`` in fixed blocks of ``_LINE_BLOCK`` rows.

    The reported defect is the worse of the tangency defect and the gap
    between the curve's unit velocity and the measured structure field at
    about 30 interior samples.
    """
    patch = RHSPatch(par)
    sig = par.sig
    step = LINE_STEP
    lo, hi = par.s_range()
    half_span = min(LINE_HALF_SPAN, -lo - 5 * step, hi - 5 * step)
    if half_span <= 10 * step:
        raise ClassificationError("base curve range too small to regenerate")
    count = int(round(half_span / step))
    params = step * np.arange(-count, count + 1) + 0.0
    rows = np.zeros((params.shape[0], patch.n_params))
    rows[:, 0] = params

    blocks = [
        hypersurface_frames(patch, rows[i : i + _LINE_BLOCK])
        for i in range(0, rows.shape[0], _LINE_BLOCK)
    ]
    lifts = np.concatenate([fr.lift for fr in blocks])
    xi = np.concatenate([fr.xi for fr in blocks])
    a = np.concatenate([fr.tangent_coords(fr.xi) for fr in blocks])
    tangency = max(np.max(np.abs(a[:, 1:]), initial=0.0), np.max(np.abs(np.abs(a[:, 0]) - 1.0)))

    curve = SampledCurve(sig, params, lifts, step)
    if curve.horizontality_defect() > CURVE_TOL:
        curve = horizontal_lift(sig, lifts, lifts[count], params=params, anchor=count)

    idx = np.arange(4, params.shape[0] - 4, max(1, params.shape[0] // 30))
    xi = xi[idx] * _phase_factor(sig.signs, lifts[idx], curve.lifts[idx])[:, None]
    vel = curve.velocity[idx]
    vel = vel / np.sqrt(np.abs(gdot_rows(sig.signs, vel, vel)))[:, None]
    gap = np.minimum(np.max(np.abs(vel - xi), axis=1), np.max(np.abs(vel + xi), axis=1))
    return curve, float(max(np.max(gap), tangency))


_SURFACE_BY_SIGNS = {
    (1.0, 1.0): "rp2",
    (1.0, -1.0): "s2_1",
    (-1.0, 1.0): "s2_1",
    (-1.0, -1.0): "h2_2",
}


def classify_generating_curve(curve: SampledCurve, xi_defect: float = 0.0) -> ClassificationReport:
    """Sort a unit generating curve into geodesic, totally real circle, or
    the non-Frenet lightlike-acceleration case.

    Order one is the geodesic case; order two with constant curvature and no
    holomorphic torsion is the totally real circle, with the surface kind
    read off the frame signs; a lightlike parallel acceleration is the
    non-Frenet case, with the threefold kind set by the causal type of the
    curve itself.
    """
    fr = frenet_apparatus(curve)
    eps1 = curve.eps1
    if fr.classification is CurveClass.GEODESIC:
        return ClassificationReport(
            MinimalCase.CASE_A_GEODESIC, None, eps1, None, None, xi_defect, fr.detail
        )
    if fr.classification is CurveClass.TOTALLY_REAL_CIRCLE:
        ok, rep = is_totally_real_circle(fr, curve)
        if ok:
            kind = _SURFACE_BY_SIGNS[(fr.signs[0], fr.signs[1])]
            return ClassificationReport(
                MinimalCase.CASE_B_TOTALLY_REAL_CIRCLE,
                rep["kappa1"],
                eps1,
                fr.signs[1],
                kind,
                xi_defect,
                rep,
            )
    if fr.classification is CurveClass.CASE_C_NON_FRENET:
        ok, rep = case_c_verify(curve)
        if ok:
            kind = "b3_1" if eps1 > 0 else "b3_2"
            return ClassificationReport(
                MinimalCase.CASE_C_NON_FRENET, None, eps1, None, kind, xi_defect, rep
            )
    raise ClassificationError(
        f"curve matches no minimal case (frenet: {fr.classification.value})"
    )


def classify_minimal_ruled(par: RHSParametrization) -> ClassificationReport:
    """Decide which of the three minimal cases the base curve realizes.

    The integral curve of the structure field is re-derived from the
    parametrization (``regenerate_integral_curve``: the base line, once xi
    is checked tangent to it at unit speed, to ``XI_TOL``), then classified.
    """
    curve, defect = regenerate_integral_curve(par)
    if defect > XI_TOL:
        raise ClassificationError(
            f"regenerated curve is not an integral curve of xi (defect {defect:.3e})"
        )
    return classify_generating_curve(curve, xi_defect=defect)


#: seed of the leaf coordinate directions of the sampling grid
GRID_SEED = 3
#: distance of the first and last grid base parameter from the curve ends
GRID_MARGIN = 0.05


def leaf_coordinate_axes(par: RHSParametrization, s_count: int, leaf_count: int, radius: float = 0.25):
    """Base parameters (S,) and leaf coordinate rows (L, k) of the
    deterministic grid inside the chart of a parametrization."""
    lo, hi = par.s_range()
    s_values = np.linspace(lo + GRID_MARGIN, hi - GRID_MARGIN, s_count)
    rng = np.random.default_rng(GRID_SEED)
    coords = np.empty((leaf_count, par.leaf_dim))
    for j in range(leaf_count):
        c = rng.standard_normal(par.leaf_dim)
        coords[j] = c / np.sqrt(np.sum(c**2)) * radius * (0.4 + 0.6 * (j + 1) / leaf_count)
    return s_values, coords


def leaf_coordinate_grid(
    par: RHSParametrization, s_count: int, leaf_count: int, radius: float = 0.25
) -> np.ndarray:
    """Patch parameter rows (S L, 1 + k) of the deterministic grid inside
    the chart of a parametrization, in (s, coords) order."""
    return _product_rows(*leaf_coordinate_axes(par, s_count, leaf_count, radius))
