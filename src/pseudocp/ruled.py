"""Ruled hypersurface parametrizations, shape operators, and the classifier.

A parametrization carries a unit base curve and a basis of the orthogonal
complement of span{velocity, J velocity} transported along it by the ODE
that keeps the covariant derivative inside that span (gluing the hyperplane
leaves along the curve without rotations). The ODE is linear in the frame:
the curve states on the half-step grid and the real propagator matrices of
the RK4 steps are formed one block of steps at a time, so each step is one
matrix product and the temporaries of the transport stay bounded. The
parametrization is itself the patch of its hypersurface: its ``lifts_at``
composes the transported frame with the exponential map over stacked patch
parameters u = (s, leaf coordinates); a single point (``rhs_lift``) is its
one-row case. Any object with ``sig``, ``n_params`` and ``lifts_at`` is a
patch (``TransformedPatch``, ``GeodesicSpherePatch``).

Every kernel below takes a stack of points, and a point is a stack of one
row. Almost contact frames come from one batched kernel,
``hypersurface_frames``: for a stack of patch parameters it evaluates the
lifts of the central-difference stencils (``lifts_at``), aligns phases,
projects to the horizontal space and takes one SVD per row as stacked array
operations. It orients each unit normal N by one determinant: the rows
[w0, i w0, t_1, ..., t_P, N], viewed as real (re, im) pairs, are square
(P = 2n - 1) and have a positive determinant. A holomorphic isometry or a
phase of the lift multiplies that determinant by |det_C|^2 > 0, so the
orientation, and with it the signs of mu = g(A xi, xi) and of the leaf
vector U, is invariant under both and continuous wherever the frame is; on
the base line of a parametrization it gives xi = +alpha'/|alpha'|. It
returns one ``AlmostContactFrame`` holding the stack, which carries its
patch and parameter rows, so the kernels that differentiate the patch
further (``second_forms``, ``weingarten_apply``,
``structure_field_identity``) take the frames alone. Both
kernels run their rows in fixed blocks (``_ROW_BLOCK`` lift rows), so their
memory stays bounded however large the stack; every step is row-wise, so the
results are bit-identical to a single block, and the chart, rank and
lightlike checks still run over all rows before any result is returned. The
shape operator comes from the Gauss formula: ``second_forms`` reads the
second fundamental form H_kl = g(d_k d_l f, N) of a stack of points off one
patch call per block over a second-difference stencil at ``OUTER_FD_STEP``,
and ``weingarten_apply`` turns it into A x = sum_k c_k t_k with
c = G^-1 H a, linear algebra on the frame. ``shape_operators`` measures a
stack of points with one frame call, then, one block of points at a time,
one second-form call applied to xi and to the adapted bases and one stacked
Gram-Schmidt for those bases (``adapted_bases``); ``second_forms`` runs its
wider stencils in blocks of ``_FORM_BLOCKS`` * ``_ROW_BLOCK`` lifts, so the
temporaries of a sweep do not grow with its points. It returns one
``ShapeReport`` holding the stack. Tangent coordinates are one stacked
least squares solve. Every first derivative of a frame field is one
stencil, ``_extrapolated_difference``: central differences at +-h and +-h/2
combined as (4 D(h/2) - D(h)) / 3, at h = ``OUTER_FD_STEP``. The Codazzi
identity differences Weingarten images with it, the forms of its eight
moved frames coming from one second-form call. The structure identity
differences the unit normal itself (``_normal_difference``), so its left
side stays independent of the Gauss formula. The ruled characterization
(vanishing leaf block) and minimality (mu = g(A xi, xi) = 0) are read off
the shape reports.

The classifier checks that the structure field is the unit velocity of the
base line (leaf coordinate 0), xi = +alpha'/|alpha'|, so that the base curve
is its integral curve, then sorts that curve into the three minimal cases.
``classify_generating_curve`` is the one path from a sampled curve to its
case, for the ruled classifier and the ``classify`` command alike: it
re-lifts lifts off the horizontal, and ``curves.frenet_apparatus`` tags the
case with ``MinimalCase`` (defined in ``curves``, importable from here).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .curves import (
    CURVE_TOL,
    MinimalCase,
    SampledCurve,
    case_c_verify,
    deriv_rows,
    frenet_apparatus,
    hermite_rows,
    horizontal_lift,
)
from .errors import (
    CausalCharacterError,
    ChartError,
    ClassificationError,
    DegenerateHypersurfaceError,
    FrameError,
    ImmersionError,
    LiftError,
)
from .frames import orthonormalize_real_metric
from .isometries import IndefiniteUnitaryMatrix, frame_to_isometry
from .linalg import (
    LIGHT_TOL,
    CausalCharacter,
    Signature,
    causal_character,
    causal_characters,
    gdot_rows,
    hermitian_rows,
    real_metric,
)
from .projective import (
    ProjectivePoint,
    canonicalize,
    horizontal_rows,
    quadric_geodesic,
    random_horizontal_units,
)

#: step of the patch tangents
INNER_FD_STEP = 1e-4
#: step of the second differences of the Gauss formula, and of the
#: differences of Weingarten images (Codazzi) and of xi
OUTER_FD_STEP = 2e-3
#: leaf coordinates must stay inside this chart radius
CHART_RADIUS = np.pi / 2
#: relative lightlike threshold for numerically measured vectors
NUMERIC_LIGHT_TOL = 1e-5
#: patch lift rows evaluated per block by ``RHSParametrization.lifts_at``; a
#: ``hypersurface_frames`` block holds the stencils of _ROW_BLOCK // (2P + 1)
#: points. It bounds the temporaries of a stack, whatever its size
_ROW_BLOCK = 1024
#: stencil lifts of a ``second_forms`` block, in units of _ROW_BLOCK: four
#: keep the default grid's 20-point sweeps and 25-point stacks one block up
#: to n = 4, and a 480-point sweep at n = 6 near the default grid's memory
_FORM_BLOCKS = 4


def _points_per_block(width: int, blocks: int = 1) -> int:
    """Points per block of a kernel whose points take ``width`` stencil
    lifts each: ``blocks`` times ``_ROW_BLOCK`` lifts, at least one point."""
    return max(1, blocks * _ROW_BLOCK // width)


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


def _curve_states(curve: SampledCurve, lift: Callable, lo: int, hi: int):
    """Lift q, horizontal velocity dq and horizontal acceleration f on the
    half-step rows lo, ..., hi - 1 of the curve: row 2i at sample i, row
    2i+1 halfway to sample i+1 (the RK4 midpoints).

    The derivatives are the five-point first and second derivative stencils
    with step h = ``curve.step``. Their points
    s +- h and s +- 2h lie on the same half-step grid, so the lift is
    evaluated once at each of the hi - lo + 8 grid points. Every row is
    formed from its own points alone, so a row is the same whichever rows
    are formed with it.
    """
    h = curve.step
    rows = hi - lo
    pad = _STENCIL_PAD
    s = curve.params[0] + 0.5 * h * np.arange(lo - pad, hi + pad)
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
    """Transported leaf frame along a unit base curve, with evaluators; it is
    the patch of its ruled hypersurface, u = (s, leaf coordinates)."""

    base: SampledCurve
    eps1: float
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

    @property
    def n_params(self) -> int:
        """Patch parameters u = (s, leaf coordinates)."""
        return 1 + self.leaf_dim

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

    def lifts_at(self, rows: np.ndarray) -> np.ndarray:
        """Sphere lifts at stacked patch parameter rows (M, 1 + k): the
        geodesic from the base lift at s along the transported frame applied
        to the leaf coordinates.

        All rows are checked against the chart first: rows of k leaf
        coordinates, inside ``CHART_RADIUS``, with s inside the curve range;
        ChartError otherwise. The rows are then evaluated in blocks of
        ``_ROW_BLOCK``, so the Hermite frame gathered for each row is held
        for one block at a time. Within a block the frame and the base lift
        are evaluated once per distinct s (a frame stencil moves s in only
        three of its rows), the geodesics in one batch. Stacked matrix
        products keep each row independent of the batch, so the lifts are
        bit-identical to those of a single block.
        """
        rows = np.asarray(rows, dtype=float)
        leaf = rows[:, 1:]
        if leaf.ndim != 2 or leaf.shape[1] != self.leaf_dim:
            raise ChartError(f"expected rows of {self.leaf_dim} leaf coordinates")
        if np.any(np.sqrt(np.sum(leaf**2, axis=1)) >= CHART_RADIUS):
            raise ChartError("leaf coordinates outside the chart radius")
        s_lo, s_hi = self.s_range()
        if np.any((rows[:, 0] < s_lo - 1e-12) | (rows[:, 0] > s_hi + 1e-12)):
            raise ChartError("base parameter outside the curve range")
        out = np.empty((rows.shape[0], self.sig.ambient_dim), dtype=complex)
        for lo in range(0, rows.shape[0], _ROW_BLOCK):
            s, coords = rows[lo : lo + _ROW_BLOCK, 0], rows[lo : lo + _ROW_BLOCK, 1:]
            s_distinct, inverse = np.unique(s, return_inverse=True)
            v = np.matmul(coords[:, None, :], self.frames_at(s_distinct)[inverse])[:, 0]
            base = self.lift(s_distinct)[inverse]
            out[lo : lo + _ROW_BLOCK] = quadric_geodesic(self.sig.signs, base, v, 1.0)
        return out

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
    used = {sig.n - 1, sig.n if g > 0 else 0}
    columns = [iso.entries[:, col] for col in range(sig.ambient_dim) if col not in used]
    return np.array([v for w in columns for v in (w, 1j * w)])


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


def _rk4_chain(sig: Signature, eps1: float, states: Callable, params, x, dx, velocity) -> None:
    """Fill x[1:] by RK4 steps from x[0], dx with the right-hand sides and
    velocity with the horizontal velocity of the curve.

    ``params`` holds the samples in chain order, ``states(lo, hi)`` returns
    (q, dq, f) on the half-step rows 2 lo, ..., 2 hi of the chain, and x,
    dx and velocity hold one row per sample (the frames realified as
    (re, im) pairs); all may be reversed views. The states and the
    propagators are formed a block of ``_STEP_BLOCK`` steps at a time, so
    each step is one matrix product and the temporaries stay bounded. A
    block whose frames or derivatives are not finite (the products
    overflowed) raises FrameError naming the first such sample.
    """
    steps = np.diff(params)
    n = steps.shape[0]
    for lo in range(0, max(n, 1), _STEP_BLOCK):
        hi = min(lo + _STEP_BLOCK, n)
        q, dq, f = states(lo, hi)
        velocity[lo : hi + 1] = dq[0::2]
        with np.errstate(over="ignore", invalid="ignore"):
            a = _transport_generators(sig, eps1, q, dq, f)
            prop = _rk4_propagators(a[0:-1:2], a[1::2], a[2::2], steps[lo:hi])
            for i in range(lo, hi):
                x[i + 1] = x[i] @ prop[i - lo]
            dx[lo : hi + 1] = x[lo : hi + 1] @ a[0::2]
        finite = np.all(np.isfinite(x[lo : hi + 1]) & np.isfinite(dx[lo : hi + 1]), axis=(1, 2))
        if not np.all(finite):
            bad = lo + int(np.argmin(finite))
            raise FrameError(f"the transported frame is not finite at s = {float(params[bad])!r}")


def transport_basis(curve: SampledCurve) -> RHSParametrization:
    """Integrate the frame transport ODE along the base curve with RK4,
    from the ``default_initial_basis`` at s = 0, which must be a sample.

    The covariant derivative of each transported vector is forced into
    span{velocity, J velocity}; on lifts this becomes an explicit linear ODE
    whose solution keeps the frame orthogonal to the velocity, its rotation
    by J, the position and the fiber direction. The curve states and the
    real propagator matrices of the RK4 steps are formed one block of steps
    at a time (``_rk4_chain``), so the integration is a chain of small
    products whose temporaries do not grow with the curve. A frame that
    overflows raises FrameError naming the sample where it did.
    """
    sig = curve.sig
    grid = curve.params
    lift = _curve_lift(curve)
    i0 = int(np.argmin(np.abs(grid)))
    q0, dq0, _ = (v[0] for v in _curve_states(curve, lift, 2 * i0, 2 * i0 + 1))
    char = causal_character(sig, dq0)
    if char in (CausalCharacter.LIGHTLIKE, CausalCharacter.ZERO):
        raise CausalCharacterError("base curve velocity must not be lightlike")
    eps1 = curve.eps1

    basis = default_initial_basis(sig, q0, dq0)
    if abs(float(grid[i0])) > 1e-9:
        raise FrameError("s = 0 must be a sample of the base curve")

    frames = np.empty((grid.shape[0],) + basis.shape, dtype=complex)
    derivs = np.empty_like(frames)
    velocity = np.empty((grid.shape[0], sig.ambient_dim), dtype=complex)
    frames[i0] = basis
    x, dx = frames.view(float), derivs.view(float)

    def forward(lo: int, hi: int):
        return _curve_states(curve, lift, 2 * (i0 + lo), 2 * (i0 + hi) + 1)

    def backward(lo: int, hi: int):
        return [v[::-1] for v in _curve_states(curve, lift, 2 * (i0 - hi), 2 * (i0 - lo) + 1)]

    # forward from i0, then backward as a forward chain over reversed views
    _rk4_chain(sig, eps1, forward, grid[i0:], x[i0:], dx[i0:], velocity[i0:])
    _rk4_chain(sig, eps1, backward, grid[i0::-1], x[i0::-1], dx[i0::-1], velocity[i0::-1])

    return RHSParametrization(
        base=curve,
        eps1=eps1,
        frame_samples=frames,
        frame_derivs=derivs,
        velocity=velocity,
        lift=lift,
    )


# ---------------------------------------------------------------------------
# parametrized hypersurface patches
# ---------------------------------------------------------------------------


def rhs_lift(par: RHSParametrization, s: float, coords) -> np.ndarray:
    """Smooth (non-canonicalized) sphere lift of the parametrization point:
    the one-row case of ``RHSParametrization.lifts_at``."""
    return par.lifts_at(np.concatenate([[s], np.asarray(coords, dtype=float)])[None])[0]


def rhs_evaluate(par: RHSParametrization, s: float, coords) -> ProjectivePoint:
    """Point of the ruled hypersurface at base parameter s and leaf coordinates."""
    return canonicalize(par.sig, rhs_lift(par, s, coords))


class TransformedPatch:
    """A patch moved by a holomorphic isometry (a ruling translate, or the
    boost of the cross check's ``isometry_invariance`` line)."""

    def __init__(self, iso: IndefiniteUnitaryMatrix, inner):
        self.iso = iso
        self.inner = inner
        self.sig = inner.sig
        self.n_params = inner.n_params

    def lifts_at(self, rows: np.ndarray) -> np.ndarray:
        """The inner patch's lifts at stacked rows, moved by the isometry."""
        return np.matmul(self.iso.entries, _patch_lifts(self.inner, rows)[:, :, None])[:, :, 0]


class GeodesicSpherePatch:
    """Distance sphere patch around a point: the non-ruled control surface."""

    def __init__(self, x0: ProjectivePoint, radius: float, seed: int = 0):
        self.sig = x0.sig
        self.n_params = 2 * self.sig.n - 1
        self.q0 = x0.rep
        self.radius = radius
        rng = np.random.default_rng(seed)
        self.v0 = random_horizontal_units(self.sig, self.q0[None], rng, [False])[0]
        leaf = default_initial_basis(self.sig, self.q0, self.v0)
        self.dirs = np.concatenate([[1j * self.v0], leaf])

    def lifts_at(self, rows: np.ndarray) -> np.ndarray:
        """Geodesics of length ``radius`` from q0 along the unit v0 + u @ dirs,
        one per stacked row u, each independent of the batch size."""
        w = self.v0 + np.matmul(np.asarray(rows, dtype=float)[:, None, :], self.dirs)[:, 0]
        w = w / np.sqrt(gdot_rows(self.sig.signs, w, w))[:, None]
        return quadric_geodesic(self.sig.signs, self.q0, w, self.radius)


def _patch_lifts(patch, rows: np.ndarray) -> np.ndarray:
    """Lifts of a patch at stacked parameter rows, its ``lifts_at``.

    Raises LiftError, naming the first such row, when a lift is not finite,
    so that no arithmetic runs on it.
    """
    w = patch.lifts_at(rows)
    finite = np.isfinite(w)
    if not np.all(finite):
        bad = int(np.argmin(np.all(finite, axis=-1)))
        raise LiftError(f"the patch lift at u = {np.asarray(rows)[bad].tolist()} is not finite")
    return w


def _phase_factor(signs: np.ndarray, w: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Unit phases making the indefinite products of w with ref real
    positive, 1 where a product vanishes; broadcasts over leading axes.

    Aligning nearby lifts with the indefinite product (not the Euclidean one)
    turns parameter lines into horizontal curves to first order, so finite
    differences of horizontal fields need no vertical correction.
    """
    a = hermitian_rows(signs, w, ref)
    # rounds like abs() of a Python complex; np.abs can differ by an ulp
    mod = np.hypot(a.real, a.imag)
    small = mod < 1e-12
    return np.where(small, 1.0 + 0.0j, np.conj(a) / np.where(small, 1.0, mod))


def _realify(z: np.ndarray) -> np.ndarray:
    return np.concatenate([np.real(z), np.imag(z)], axis=-1)


@dataclass(frozen=True)
class AlmostContactFrame:
    """Unit normal data N, epsilon, xi and phi at a stack of hypersurface
    points of a patch; a point is a stack of one row.

    ``patch`` is the patch the frames were measured on and ``rows`` (N, P)
    its parameters at the points, so the kernels that differentiate the
    patch further take the frames alone. The other fields hold one row per
    point on a leading axis: lift (N, d), tangents (N, P, d), normal (N, d)
    and epsilon (N,). A vector argument x holds one vector per point,
    (N, d), or an axis of several vectors per point, (N, m, d).
    """

    patch: object
    rows: np.ndarray
    lift: np.ndarray
    tangents: np.ndarray
    normal: np.ndarray
    epsilon: np.ndarray

    @property
    def sig(self) -> Signature:
        return self.patch.sig

    @property
    def xi(self) -> np.ndarray:
        return -1j * self.normal

    def row(self, i) -> "AlmostContactFrame":
        """The stack of the rows that the slice or index array i selects."""
        return AlmostContactFrame(
            self.patch, self.rows[i], self.lift[i], self.tangents[i], self.normal[i], self.epsilon[i]
        )

    def _spread(self, x: np.ndarray):
        """lift, normal and epsilon broadcast against the vectors x."""
        if x.ndim == 2:
            return self.lift, self.normal, self.epsilon
        return self.lift[:, None], self.normal[:, None], self.epsilon[:, None]

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
        or points of the call."""
        x = np.asarray(x, dtype=complex)
        q, r = np.linalg.qr(np.swapaxes(_realify(self.tangents), 1, 2))
        solve = np.linalg.solve(r, np.swapaxes(q, 1, 2))
        solve = solve.reshape(solve.shape[:1] + (1,) * (x.ndim - 2) + solve.shape[1:])
        return np.sum(solve * _realify(x)[..., None, :], axis=-1)

    def unit_tangents(self, coeff: np.ndarray) -> np.ndarray:
        """Euclidean-unit tangents (N, d) with the coefficients coeff
        (N, P) in the tangents."""
        x = np.matmul(coeff[:, None, :], self.tangents)[:, 0]
        return x / np.sqrt(np.sum(np.abs(x) ** 2, axis=-1))[:, None]


def _frame_block(patch, rows: np.ndarray):
    """Lifts w0 (B, d), horizontal tangents (B, P, d), unnormalized
    normals (B, d) and the largest and smallest singular values of the
    constraints (B, 2) at one block of patch parameters (B, P), from one
    patch call over their stencils (see ``hypersurface_frames``)."""
    signs = patch.sig.signs
    dim = signs.shape[0]
    count, p = rows.shape
    h = INNER_FD_STEP
    steps = h * np.eye(p)
    stencil = np.concatenate([rows[:, None], rows[:, None] + steps, rows[:, None] - steps], axis=1)
    w = _patch_lifts(patch, stencil.reshape(-1, p)).reshape(count, 2 * p + 1, dim)
    w0 = w[:, :1]
    moved = w[:, 1:] * _phase_factor(signs, w[:, 1:], w0)[..., None]
    t = horizontal_rows(signs, w0, (moved[:, :p] - moved[:, p:]) / (2.0 * h))
    w0 = w0[:, 0]

    srep = np.concatenate([signs, signs])
    constraints = np.concatenate([_realify(w0)[:, None], _realify(1j * w0)[:, None], _realify(t)], axis=1)
    _, sv, vh = np.linalg.svd(constraints * srep)
    nu = vh[:, -1, :dim] + 1j * vh[:, -1, dim:]
    return w0, t, nu, sv[:, [0, -1]]


def hypersurface_frames(
    patch,
    rows: np.ndarray,
    ref: Optional[AlmostContactFrame] = None,
) -> AlmostContactFrame:
    """Numeric unit normals and almost contact data at stacked parameters.

    Each row u of the (N, P) array gets the stencil u, u + h e_j, u - h e_j
    (j < P, h = ``INNER_FD_STEP``). The rows run in blocks of
    ``_ROW_BLOCK`` // (2P + 1) points, the lifts of a block's stencils
    coming from one patch call, so the temporaries of a block are bounded
    whatever N is; every step is row-wise, so the frames are bit-identical
    to those of a single block. The tangents are central differences of the
    stencil lifts phase-aligned to the lift at u, made horizontal. The
    normal is the g-orthogonal complement of the tangent space inside the
    horizontal space: the null vector of the constraints [w0; i w0; t] on
    the realified rows, from one SVD. Its sign makes the real rows
    [w0, i w0, t, N] ((re, im) pairs, 2d of them, since P = 2n - 1) a
    positively oriented basis, from one batched determinant: invariant
    under every holomorphic isometry and every phase of the lift, whose
    real determinant is |det_C|^2 > 0, and continuous wherever the frame
    is. On a base line (leaf coordinates 0) the transported leaf frame
    comes in (w, i w) pairs, so the determinant has the sign of eps when
    xi = eps alpha'/|alpha'|: the rule gives xi = +alpha'/|alpha'|. With
    ``ref`` the lift, tangents and normal are then phase-aligned to the
    reference lift, which keeps the orientation; a reference of one row
    serves every row, one of N rows holds the reference frame of each row.
    The frames carry ``patch`` and a float copy of the rows, so a caller
    that reuses its array later does not move them.

    The tangents are horizontal, hence g-orthogonal to the g-orthonormal w0
    and i w0, so the constraints lose rank exactly when the tangents do: a
    row whose smallest singular value is at most 1e-8 max(1, largest)
    raises ImmersionError, a lightlike normal DegenerateHypersurfaceError,
    in that order over every row (the error policy of ``frames``). These
    checks, the orientation and the reference alignment run over all rows
    once every block is done.
    """
    sig = patch.sig
    signs = sig.signs
    dim = sig.ambient_dim
    rows = np.array(rows, dtype=float)
    count, p = rows.shape
    w0 = np.empty((count, dim), dtype=complex)
    t = np.empty((count, p, dim), dtype=complex)
    nu = np.empty((count, dim), dtype=complex)
    sv = np.empty((count, 2))  # largest and smallest singular value
    block = _points_per_block(2 * p + 1)
    for lo in range(0, count, block):
        part = slice(lo, lo + block)
        w0[part], t[part], nu[part], sv[part] = _frame_block(patch, rows[part])
    gn = gdot_rows(signs, nu, nu)
    if np.any(sv[:, -1] <= 1e-8 * np.maximum(1.0, sv[:, 0])):
        raise ImmersionError("parametrization is rank deficient here")
    if np.any(np.abs(gn) <= LIGHT_TOL * np.sum(np.abs(nu) ** 2, axis=-1)):
        raise DegenerateHypersurfaceError("normal is lightlike: degenerate point")
    nu = nu / np.sqrt(np.abs(gn))[:, None]
    frame = np.concatenate([w0[:, None], 1j * w0[:, None], t, nu[:, None]], axis=1)
    nu = np.where((np.linalg.det(frame.view(float)) < 0)[:, None], -nu, nu)
    if ref is not None:
        ph = _phase_factor(signs, w0, ref.lift)[:, None]
        w0, t, nu = w0 * ph, t * ph[..., None], nu * ph
    return AlmostContactFrame(
        patch=patch, rows=rows, lift=w0, tangents=t, normal=nu, epsilon=np.where(gn > 0, 1.0, -1.0)
    )


def hypersurface_frame(patch, u: np.ndarray) -> AlmostContactFrame:
    """Numeric unit normal and almost contact data of the patch at u (P,):
    the one-row stack of ``hypersurface_frames``."""
    return hypersurface_frames(patch, np.asarray(u, dtype=float)[None])


#: offsets of the extrapolated central difference, in units of its step
_FD_OFFSETS = np.array([1.0, -1.0, 0.5, -0.5])


def _extrapolated_difference(values: np.ndarray, h: float) -> np.ndarray:
    """Derivative from values at the offsets ``h * _FD_OFFSETS`` (leading
    axis): central differences D at steps h and h/2 combined by Richardson
    extrapolation, (4 D(h/2) - D(h)) / 3, whose truncation error is O(h^4)."""
    d1 = (values[0] - values[1]) / (2.0 * h)
    d2 = (values[2] - values[3]) / h
    return (4.0 * d2 - d1) / 3.0


def second_forms(frames: AlmostContactFrame) -> np.ndarray:
    """Second fundamental forms H (N, P, P) in the coordinate tangents at
    the points of a stacked frame, on its patch at its parameter rows
    (N, P): the Gauss formula H_kl = g(d_k d_l f, N).

    Each row u gets the stencil u, u +- s e_k and u +- s (e_k + e_l) (k < l)
    at s = h and s = h/2, h = ``OUTER_FD_STEP``: 1 + 4 (P + P (P - 1) / 2)
    lifts. The rows run in blocks of ``_FORM_BLOCKS`` * ``_ROW_BLOCK``
    stencil lifts, each block's coming from one patch call, so the lifts
    held at once are bounded whatever N is; every step is row-wise, so the
    forms are bit-identical to those of a single block, and the first block
    with a lift that fails its checks raises. Phase-aligned to the frame's
    lift (its gauge, which a reference-aligned frame carries), the lifts
    are a family horizontal at u to first order, so the second derivatives
    of g(f, N) are the normal components of the ambient covariant
    derivative. Its second differences D along e_k and e_k + e_l are
    combined over both steps as (4 D(h/2) - D(h)) / 3; the mixed terms are
    (D_{k+l} - D_k - D_l) / 2, so H is symmetric by construction.
    """
    signs = frames.sig.signs
    rows = frames.rows
    count, p = rows.shape
    k, l = np.triu_indices(p, 1)
    eye = np.eye(p)
    dirs = np.concatenate([eye, eye[k] + eye[l]])
    h = OUTER_FD_STEP
    moves = (h * _FD_OFFSETS)[:, None, None] * dirs
    d = np.empty((count, dirs.shape[0]))
    block = _points_per_block(1 + 4 * (p + p * (p - 1) // 2), _FORM_BLOCKS)
    for lo in range(0, count, block):
        u = rows[lo : lo + block]
        n = u.shape[0]
        stencil = np.concatenate([u[:, None], (u[:, None, None] + moves).reshape(n, -1, p)], axis=1)
        w = _patch_lifts(frames.patch, stencil.reshape(-1, p)).reshape(n, stencil.shape[1], -1)
        w = w * _phase_factor(signs, w, frames.lift[lo : lo + block, None])[..., None]
        pair = gdot_rows(signs, w, frames.normal[lo : lo + block, None])
        center = pair[:, :1]
        pair = pair[:, 1:].reshape(n, 4, -1)
        d_h = (pair[:, 0] - 2.0 * center + pair[:, 1]) / (h * h)
        d_half = (pair[:, 2] - 2.0 * center + pair[:, 3]) / (0.25 * h * h)
        d[lo : lo + block] = (4.0 * d_half - d_h) / 3.0
    forms = np.empty((count, p, p))
    forms[:, np.arange(p), np.arange(p)] = d[:, :p]
    mixed = 0.5 * (d[:, p:] - d[:, k] - d[:, l])
    forms[:, k, l] = mixed
    forms[:, l, k] = mixed
    return forms


def _shape_images(frames: AlmostContactFrame, forms: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A x = sum_k c_k t_k with c = G^-1 H a at every row of a stacked frame:
    G the Gram matrix of the tangents t, H the second forms (N, P, P) and a
    the tangent coordinates of the vectors x, (N, d) or (N, m, d). The
    coefficients and images are elementwise products and sums, so an image
    does not depend on the other vectors or points of the call."""
    x = np.asarray(x, dtype=complex)
    t = frames.tangents
    gram = gdot_rows(frames.sig.signs, t[:, :, None], t[:, None])
    op = np.linalg.solve(gram, forms)
    a = frames.tangent_coords(x.reshape(x.shape[0], -1, x.shape[-1]))
    c = np.sum(op[:, None] * a[:, :, None], axis=-1)
    return np.sum(c[..., None] * t[:, None], axis=-2).reshape(x.shape)


def weingarten_apply(frames: AlmostContactFrame, x: np.ndarray) -> np.ndarray:
    """Shape operator A X applied to tangent vectors, from the Gauss formula.

    ``frames`` is a stack of frames of a patch; x holds one vector per point
    or an axis of several vectors per point (as for
    ``AlmostContactFrame``). The Weingarten equation gives
    g(A X, Y) = H(X, Y) with H the second fundamental form, so
    A x = sum_k c_k t_k with c = G^-1 H a: G_kl = g(t_k, t_l) on the
    frame's tangents, H from one ``second_forms`` call and a the tangent
    coordinates of x.
    """
    return _shape_images(frames, second_forms(frames), x)


def _normal_difference(frames: AlmostContactFrame, x, h: float) -> np.ndarray:
    """``_extrapolated_difference`` at step h of the unit normal moved from
    the points of a stacked frame along one tangent x (N, d) each, each
    moved frame aligned to the frame at its own point; all moved frames
    come from one ``hypersurface_frames`` call on the frames' patch, in
    offset-major order. Only the structure identity uses it, so its left
    side stays independent of the Gauss formula."""
    x = np.asarray(x, dtype=complex)
    a = frames.tangent_coords(x)
    centers = (frames.rows + (h * _FD_OFFSETS)[:, None, None] * a).reshape(-1, a.shape[-1])
    owner = np.tile(np.arange(a.shape[0]), 4)
    moved = hypersurface_frames(frames.patch, centers, ref=frames.row(owner))
    return _extrapolated_difference(moved.normal.reshape((4,) + x.shape), h)


@dataclass(frozen=True)
class ShapeReport:
    """Shape operators of a stack of N points in adapted bases
    {xi, e_1, ...}, one row per point on a leading axis as in
    ``AlmostContactFrame``: matrix (N, P, P); mu, lam and dd_block_max
    (N,); u_vec (N, d); basis (N, P, d) and basis_signs (N, P); the
    frames."""

    matrix: np.ndarray
    mu: np.ndarray
    u_vec: np.ndarray
    lam: np.ndarray
    dd_block_max: np.ndarray
    basis: np.ndarray
    basis_signs: np.ndarray
    frame: AlmostContactFrame


def adapted_bases(frames: AlmostContactFrame, first: np.ndarray, pinned: np.ndarray):
    """Adapted tangent bases (N, P, d) and their signs (N, P) at every row
    of a stacked frame: xi first, then an orthonormal basis of its
    g-complement inside the tangent space.

    The rows with ``pinned`` (N,) set pin their row of ``first`` (N, d), a
    leaf vector (the U of a rank-two shape operator), normalized, to the
    slot right after xi. One ``orthonormalize_real_metric`` call completes
    every row, pinned or not, and raises its FrameError at the first step
    where some row cannot be completed.
    """
    signs = frames.sig.signs
    xi = frames.xi
    eps = frames.epsilon
    t = frames.tangents
    pool = t - (eps[:, None] * gdot_rows(signs, t, xi[:, None]))[..., None] * xi[:, None]
    vecs, vsigns = orthonormalize_real_metric(frames.sig, pool, t.shape[1] - 1, pin=first, pinned=pinned)
    return np.concatenate([xi[:, None], vecs], axis=1), np.concatenate([eps[:, None], vsigns], axis=1)


def shape_operators(patch, rows: np.ndarray) -> ShapeReport:
    """Measure the shape operator in an adapted basis at each row of the
    stacked patch parameters (N, P).

    The structure vector comes first; when the leaf part U of A xi is
    non-null by ``causal_characters`` at ``NUMERIC_LIGHT_TOL``, its
    normalization occupies the second slot, so the rank-two pattern is
    visible directly in the matrix. The frames of every row come
    first, from one ``hypersurface_frames`` call, so its checks run over all
    rows before any shape operator. The points then run in the blocks of
    that call (``_ROW_BLOCK`` // (2P + 1) points), each block taking one
    ``second_forms`` call (in smaller blocks of its own) whose forms give
    the images of xi and then of every basis, and one stacked Gram-Schmidt
    (``adapted_bases``) for the bases of its rows; the first block with a
    failing row raises. The temporaries held at once are bounded whatever
    N is, and every step is row-wise, so a row is bit-identical whatever
    the block size.
    """
    rows = np.asarray(rows, dtype=float)
    sig = patch.sig
    count, p = rows.shape
    frames = hypersurface_frames(patch, rows)
    matrix = np.empty((count, p, p))
    mu, lam = np.empty(count), np.empty(count)
    uvec = np.empty((count, sig.ambient_dim), dtype=complex)
    bases = np.empty((count, p, sig.ambient_dim), dtype=complex)
    bsigns = np.empty((count, p))
    non_null = (CausalCharacter.SPACELIKE, CausalCharacter.TIMELIKE)
    block = _points_per_block(2 * p + 1)
    for lo in range(0, count, block):
        part = slice(lo, lo + block)
        fr = frames.row(part)
        forms = second_forms(fr)
        xi = fr.xi
        axi = _shape_images(fr, forms, xi)
        mu[part] = gdot_rows(sig.signs, axi, xi)
        u = uvec[part] = axi - (fr.epsilon * mu[part])[:, None] * xi
        chars = causal_characters(sig, u, NUMERIC_LIGHT_TOL)
        bases[part], bsigns[part] = adapted_bases(fr, u, np.array([c in non_null for c in chars], dtype=bool))
        lam[part] = np.sqrt(np.abs(gdot_rows(sig.signs, u, u)))
        images = np.concatenate([axi[:, None], _shape_images(fr, forms, bases[part, 1:])], 1)
        matrix[part] = bsigns[part, :, None] * gdot_rows(sig.signs, images[:, None], bases[part, :, None])
    return ShapeReport(
        matrix=matrix,
        mu=mu,
        u_vec=uvec,
        lam=lam,
        dd_block_max=np.max(np.abs(matrix[:, 1:, 1:]), axis=(1, 2)),
        basis=bases,
        basis_signs=bsigns,
        frame=frames,
    )


def shape_operator_at(patch, u: np.ndarray) -> ShapeReport:
    """The shape operator at patch parameters u (P,): the one-row stack of
    ``shape_operators``."""
    return shape_operators(patch, np.asarray(u, dtype=float)[None])


# ---------------------------------------------------------------------------
# identities of the structure: Codazzi and the derivative of xi
# ---------------------------------------------------------------------------


def codazzi_residual(patch, u: np.ndarray, rng: np.random.Generator) -> float:
    """Residual of the Codazzi identity at u for one random tangent pair.

    The fields Y moved along X and X moved along Y are read on eight frames
    at the ``_FD_OFFSETS`` of u, aligned to the frame at u; their Weingarten
    images come from one ``weingarten_apply`` call, hence one second-form
    call over the eight moved points. The outer differences are
    ``_extrapolated_difference`` at ``OUTER_FD_STEP``. The frame at u is
    a stack of one row, and X and Y are Euclidean-unit tangents there with
    standard normal coefficients drawn from rng.
    """
    signs = patch.sig.signs
    h = OUTER_FD_STEP
    u = np.asarray(u, dtype=float)
    p = u.shape[0]
    frame = hypersurface_frame(patch, u)
    x = frame.unit_tangents(rng.standard_normal((1, p)))
    y = frame.unit_tangents(rng.standard_normal((1, p)))
    ax_dir = frame.tangent_coords(x)
    ay_dir = frame.tangent_coords(y)
    # per offset: the field Y moved along X, then the field X moved along Y
    offsets = h * _FD_OFFSETS[:, None, None]
    centers = (u + offsets * np.concatenate([ax_dir, ay_dir])).reshape(-1, p)
    fields = np.tile(np.concatenate([ay_dir, ax_dir]), (4, 1))
    moved = hypersurface_frames(patch, centers, ref=frame)
    vecs = np.einsum("mp,mpd->md", fields, moved.tangents)
    images = weingarten_apply(moved, vecs)
    # the two differences are two vectors at the one point u
    d_a = frame.tangential(_extrapolated_difference(images.reshape(4, 1, 2, -1), h))
    d_v = frame.tangential(_extrapolated_difference(vecs.reshape(4, 1, 2, -1), h))
    cov_x_ay, cov_y_ax = (d_a - weingarten_apply(frame, d_v))[0]
    phi_y = frame.phi(y)
    rhs = (
        frame.eta(x)[:, None] * phi_y
        - frame.eta(y)[:, None] * frame.phi(x)
        + 2.0 * gdot_rows(signs, x, phi_y)[:, None] * frame.xi
    )
    res = cov_x_ay - cov_y_ax - rhs[0]
    return float(np.sqrt(np.sum(np.abs(res) ** 2)))


def structure_field_identity(frames: AlmostContactFrame, x: np.ndarray) -> np.ndarray:
    """Residuals (N,) of the derived identity relating the structure field
    to phi A at the points of a stacked frame along the tangents x (N, d).

    Differentiates the structure field along x (``_extrapolated_difference``
    at h = ``OUTER_FD_STEP``) and compares the tangential covariant
    derivative with phi applied to the shape image of x. The difference of
    xi = -i N is -i times ``_normal_difference``; the shape images come
    from one ``weingarten_apply`` call.
    """
    nxi = frames.tangential(-1j * _normal_difference(frames, x, OUTER_FD_STEP))
    return np.max(np.abs(nxi - frames.phi(weingarten_apply(frames, x))), axis=-1)


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
    detail: dict


#: largest half-length of the base line checked around s = 0
LINE_HALF_SPAN = 0.35
#: spacing of the base-line samples in the integral-curve check
LINE_STEP = 2e-3
#: integral-curve defect above which the classifier refuses the base curve
XI_TOL = 1e-6


def regenerate_integral_curve(par: RHSParametrization) -> tuple[SampledCurve, float]:
    """Re-derive the integral curve of the structure field from the patch.

    The leaves are glued along the base curve, so at leaf coordinate 0 the
    structure field of the oriented normal (``hypersurface_frames``) should
    be +alpha'/|alpha'|. This is checked at every sample
    u_k = (k step, 0, ..., 0), step = ``LINE_STEP``, k = -count..count,
    |k step| at most ``LINE_HALF_SPAN`` and inside the curve range: the
    tangent coordinates of xi must be (1, 0, ..., 0), so xi is the base
    line's velocity at unit parameter speed. By uniqueness of ODE solutions
    the integral curve of xi through (0, 0) is then the base line itself,
    and the returned curve holds the patch lifts at the samples, as they
    are; no integration is needed. The frames of every sample come from one
    ``hypersurface_frames`` call. Lifts off the horizontal are left to
    ``classify_generating_curve``: a phase of the lift turns the velocity
    and xi alike, so the comparison below reads the same on either lift.

    The reported defect is the worse of the tangency defect and the gap
    between the curve's unit velocity and the measured structure field at
    about 30 interior samples, both signed.
    """
    step = LINE_STEP
    lo, hi = par.s_range()
    half_span = min(LINE_HALF_SPAN, -lo - 5 * step, hi - 5 * step)
    if half_span <= 10 * step:
        raise ClassificationError("base curve range too small to regenerate")
    count = int(round(half_span / step))
    params = step * np.arange(-count, count + 1) + 0.0
    rows = np.zeros((params.shape[0], par.n_params))
    rows[:, 0] = params

    frames = hypersurface_frames(par, rows)
    a = frames.tangent_coords(frames.xi)
    tangency = max(np.max(np.abs(a[:, 1:]), initial=0.0), np.max(np.abs(a[:, 0] - 1.0)))

    curve = SampledCurve(par.sig, params, frames.lift, step)
    idx = np.arange(4, params.shape[0] - 4, max(1, params.shape[0] // 30))
    vel = curve.velocity[idx] / np.sqrt(np.abs(curve.speed2[idx]))[:, None]
    return curve, float(max(np.max(np.abs(vel - frames.xi[idx])), tangency))


_SURFACE_BY_SIGNS = {
    (1.0, 1.0): "rp2",
    (1.0, -1.0): "s2_1",
    (-1.0, 1.0): "s2_1",
    (-1.0, -1.0): "h2_2",
}


def classify_generating_curve(curve: SampledCurve) -> ClassificationReport:
    """Sort a unit generating curve into geodesic, totally real circle, or
    the non-Frenet lightlike-acceleration case.

    The case is a property of the projective curve, and the quotient
    connection acts on horizontal lifts: a curve whose
    ``horizontality_defect`` exceeds ``CURVE_TOL`` is first re-lifted by
    ``horizontal_lift``, anchored at its middle sample. ``frenet_apparatus``
    then tags the case. A circle's surface kind is read off the two frame
    signs; the non-Frenet case must pass ``case_c_verify``, and its
    threefold kind is set by the causal type of the curve itself.
    """
    if curve.horizontality_defect() > CURVE_TOL:
        mid = len(curve) // 2
        curve = horizontal_lift(curve.sig, curve.lifts, curve.lifts[mid], curve.params, mid)
    fr = frenet_apparatus(curve)
    eps1 = curve.eps1
    if fr.case is MinimalCase.CASE_A_GEODESIC:
        return ClassificationReport(fr.case, None, eps1, None, None, fr.detail)
    if fr.case is MinimalCase.CASE_B_TOTALLY_REAL_CIRCLE:
        kind = _SURFACE_BY_SIGNS[(eps1, fr.eps2)]
        return ClassificationReport(fr.case, fr.detail["kappa1"], eps1, fr.eps2, kind, fr.detail)
    if fr.case is MinimalCase.CASE_C_NON_FRENET:
        ok, rep = case_c_verify(fr, curve)
        if ok:
            kind = "b3_1" if eps1 > 0 else "b3_2"
            return ClassificationReport(fr.case, None, eps1, None, kind, rep)
    frenet = "other" if fr.case is None else "case_c_non_frenet"
    raise ClassificationError(f"curve matches no minimal case (frenet: {frenet})")


def classify_minimal_ruled(par: RHSParametrization) -> ClassificationReport:
    """Decide which of the three minimal cases the base curve realizes.

    The integral curve of the structure field is re-derived from the
    parametrization (``regenerate_integral_curve``: the base line, once xi
    is checked to be its unit velocity, to ``XI_TOL``), then classified.
    """
    curve, defect = regenerate_integral_curve(par)
    if defect > XI_TOL:
        raise ClassificationError(
            f"regenerated curve is not an integral curve of xi (defect {defect:.3e})"
        )
    return classify_generating_curve(curve)


#: seed of the leaf coordinate directions of the sampling grid
GRID_SEED = 3
#: distance of the first and last grid base parameter from the curve ends
GRID_MARGIN = 0.05


def leaf_coordinate_grid(
    par: RHSParametrization, s_count: int, leaf_count: int, radius: float = 0.25
) -> np.ndarray:
    """Patch parameter rows (S L, 1 + k) of the deterministic grid inside
    the chart of a parametrization: S base parameters, each paired with the
    same L leaf coordinate rows, s major. Row i L + j holds base parameter
    i and leaf coordinates j, so rows[::L, 0] are the base parameters and
    rows[:L, 1:] the leaf coordinates."""
    lo, hi = par.s_range()
    s_values = np.linspace(lo + GRID_MARGIN, hi - GRID_MARGIN, s_count)
    rng = np.random.default_rng(GRID_SEED)
    coords = np.empty((leaf_count, par.leaf_dim))
    for j in range(leaf_count):
        c = rng.standard_normal(par.leaf_dim)
        coords[j] = c / np.sqrt(np.sum(c**2)) * radius * (0.4 + 0.6 * (j + 1) / leaf_count)
    return np.concatenate([np.repeat(s_values, leaf_count)[:, None], np.tile(coords, (s_count, 1))], axis=1)
