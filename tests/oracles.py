"""Independent references of the test suite, one per quantity, and the test
inputs that several modules share.

Each reference computes its quantity another way than the program does:

- the hypersurface frame by the scalar stencil and SVD, one lift per call;
- the Weingarten map by the nested difference of numeric unit normals (the
  program uses the Gauss formula), and the shape matrix built on it;
- the real-metric Gram-Schmidt and the adapted bases on Python lists;
- the unitary frame completion and the frame isometry one row at a time;
- the curvature tensor of Python floats and the seeded suites point by point;
- the transport by a scalar RK4 loop, the ``sample`` export rows point
  by point and its text by the float-table path, the base line by RK4
  chains;
- the family closed forms by one hand-written branch per family;
- the quadric geodesic one branch per call, and the exponential map of the
  quotient with its inverse in a leaf (``exp_map``, ``log_in_leaf``), the
  references of the leaf coordinates;
- the case-c report of a sampled curve by complex arithmetic on the full
  rows, each derivative formed afresh (the program works on realified rows
  and reads F2 off its Frenet stage).

Where a reference runs the program's arithmetic one row at a time (frame
completion, curvature, the seeded suites, the family closed forms and the
geodesic), the tests ask for equality. Everything downstream of the second
fundamental form (shape operators, Weingarten images, the Codazzi and
structure identities, the almost contact lines) is compared with its
reference at a measured tolerance, and is bit-equal only to the one-row call
of its own kernel.

No other module of the suite defines a function named ``_ref_*``,
``_oracle_*``, ``_scalar_*``, ``_nested_*`` or ``_reference_*``;
``test_unused_imports.py`` checks it.
"""

import json
from dataclasses import replace

import numpy as np

from pseudocp.curves import (
    EDGE_MARGIN,
    SampledCurve,
    _covariant_rows,
    deriv_rows,
    fd_derivative,
    hermite_rows,
    real_view,
    sampled_curve_from_fn,
)
from pseudocp.errors import (
    BasePointError,
    CausalCharacterError,
    DegenerateHypersurfaceError,
    FrameError,
    ImmersionError,
)
from pseudocp.examples import T_RANGE, example_integral_curve, example_spec, gamma_seed, ruling_isometry
from pseudocp.frames import PIVOT_TOL
from pseudocp.isometries import IndefiniteUnitaryMatrix
from pseudocp.linalg import (
    LIGHT_TOL,
    CausalCharacter,
    Signature,
    as_ambient,
    causal_character,
    check_sphere_rows,
    gdot_rows,
    hermitian_product,
    jmul,
    metric_signs,
    real_metric,
)
from pseudocp.projective import (
    BASE_POINT_TOL,
    ProjectivePoint,
    ProjectiveTangent,
    canonical_phases,
    canonical_rows,
    canonicalize,
    horizontal_rows,
    random_horizontal_units,
    random_sphere_points,
    sphere_geodesic,
)
from pseudocp.ruled import (
    INNER_FD_STEP,
    AlmostContactFrame,
    GeodesicSpherePatch,
    MinimalCase,
    TransformedPatch,
    _phase_factor,
    horizontal_lift,
    hypersurface_frame,
    hypersurface_frames,
    leaf_coordinate_grid,
    rhs_lift,
    transport_basis,
)
from pseudocp.verification import ACCEPTANCE_SIGNATURES, _horizontal_draws


# ---------------------------------------------------------------------------
# shared inputs
# ---------------------------------------------------------------------------


def _e(k, dim=4):
    """The k-th standard basis vector of C^dim."""
    v = np.zeros(dim, dtype=complex)
    v[k] = 1.0
    return v


def _realify(z):
    """Real and imaginary parts side by side along the last axis."""
    return np.concatenate([np.real(z), np.imag(z)], axis=-1)


def _sphere_row(sig, q):
    """q as an ambient vector, raising unless g(q,q) = 1 within 1e-8."""
    return check_sphere_rows(sig, as_ambient(sig, q)[None], tol=1e-8)[0]


def random_sphere_point(sig, rng):
    """One point of ``random_sphere_points``."""
    return random_sphere_points(sig, 1, rng)[0]


def random_horizontal_unit(sig, q, rng, character=CausalCharacter.SPACELIKE):
    """One vector of ``random_horizontal_units``, at the sphere point q."""
    timelike = [character is CausalCharacter.TIMELIKE]
    return random_horizontal_units(sig, as_ambient(sig, q)[None], rng, timelike)[0]


def random_horizontal(sig, q, rng):
    """Random horizontal vector at a sphere point q: a complex normal vector
    less its Hermitian component along q."""
    qv = as_ambient(sig, q)
    z = rng.standard_normal(sig.ambient_dim) + 1j * rng.standard_normal(sig.ambient_dim)
    return z - complex(hermitian_product(sig, z, qv)) * qv


def tangent_from_lift(sig, lift, vec):
    """A horizontal vector given at an arbitrary representative, moved with
    it to the canonical representative by the canonical phase."""
    lv = _sphere_row(sig, lift)
    phase = canonical_phases(lv[None])[0]
    return ProjectiveTangent(ProjectivePoint(sig, lv * phase), as_ambient(sig, vec) * phase)


def covariant_derivative(curve, field_rows):
    """The program's covariant derivative (``_covariant_rows``) of complex
    horizontal field rows along a sampled curve."""
    return _covariant_rows(curve, real_view(np.asarray(field_rows, dtype=complex))).view(complex)


def random_unit_tangent(frame, rng):
    """A Euclidean-unit tangent (1, d) at a frame of one row, with standard
    normal coefficients drawn from rng, as ``codazzi_residual`` draws X."""
    return frame.unit_tangents(rng.standard_normal((1, frame.tangents.shape[1])))


class _SyntheticPatch:
    """Geodesics from a base point along u @ dirs, one row at a time."""

    def __init__(self, sig, q0, dirs):
        self.sig = sig
        self.q0 = np.asarray(q0, dtype=complex)
        self.dirs = np.asarray(dirs, dtype=complex)
        self.n_params = self.dirs.shape[0]

    def lifts_at(self, rows):
        return np.array([sphere_geodesic(self.sig, self.q0, u @ self.dirs, 1.0) for u in rows])


def _geodesic_curve(half_span=0.5):
    """The geodesic of (3,1) from e_3 along e_2, sampled at step 1e-3 on
    [-half_span, half_span]."""
    sig = Signature(3, 1)
    return sampled_curve_from_fn(
        sig, lambda s: sphere_geodesic(sig, _e(3), _e(2), s), -half_span, half_span, 1e-3
    )


def _sphere_patch():
    """A geodesic distance sphere of radius 0.7 in (3,1): the non-ruled
    control surface."""
    sig = Signature(3, 1)
    return GeodesicSpherePatch(canonicalize(sig, _e(3)), 0.7, seed=1)


def _par(example_id, sig=None):
    """Transported-frame parametrization of a default family at ``sig``."""
    return transport_basis(example_integral_curve(example_spec(example_id, sig=sig)).curve)


def _family_patch(example_id, sig=None, t=None):
    """The patch of a default family at ``sig`` (its parametrization),
    moved by its ruling isometry at t when t is given."""
    par = _par(example_id, sig)
    if t is None:
        return par
    return TransformedPatch(ruling_isometry(example_spec(example_id, sig=sig), t), par)


# ---------------------------------------------------------------------------
# hypersurface frame: lift, tangents, normal, reference alignment
# ---------------------------------------------------------------------------


def _ref_phase(signs, w, ref):
    a = complex(np.sum(signs * w * np.conj(ref)))
    if abs(a) < 1e-12:
        return 1.0 + 0.0j
    return np.conj(a) / abs(a)


def _lift(patch, u):
    """The lift at u: row 0 of a one-row ``lifts_at`` call."""
    return patch.lifts_at(np.asarray(u, dtype=float)[None])[0]


def _ref_tangent_frame(patch, u, h=INNER_FD_STEP):
    u = np.asarray(u, dtype=float)
    w0 = _lift(patch, u)
    signs = patch.sig.signs
    rows = []
    for j in range(u.shape[0]):
        du = np.zeros_like(u)
        du[j] = h
        wp = _lift(patch, u + du)
        wm = _lift(patch, u - du)
        wp = wp * _ref_phase(signs, wp, w0)
        wm = wm * _ref_phase(signs, wm, w0)
        rows.append((wp - wm) / (2.0 * h))
    t = np.array(rows)
    t = t - gdot_rows(signs, t, w0)[:, None] * w0
    iw0 = 1j * w0
    t = t - gdot_rows(signs, t, iw0)[:, None] * iw0
    return w0, t


def _ref_frame(patch, u, h=INNER_FD_STEP):
    sig = patch.sig
    w0, t = _ref_tangent_frame(patch, u, h)
    treal = _realify(t)
    svals = np.linalg.svd(treal, compute_uv=False)
    if svals[-1] <= 1e-8 * max(1.0, svals[0]):
        raise ImmersionError("parametrization is rank deficient here")
    srep = np.concatenate([sig.signs, sig.signs])
    constraints = np.vstack([_realify(w0)[None, :], _realify(1j * w0)[None, :], treal])
    _, sv, vh = np.linalg.svd(constraints * srep)
    if sv[-1] <= 1e-8 * max(1.0, sv[0]):
        raise DegenerateHypersurfaceError("metric pairing is singular here")
    nu = vh[-1][: sig.ambient_dim] + 1j * vh[-1][sig.ambient_dim :]
    gn = real_metric(sig, nu, nu)
    if abs(gn) <= LIGHT_TOL * float(np.sum(np.abs(nu) ** 2)):
        raise DegenerateHypersurfaceError("normal is lightlike: degenerate point")
    nu = nu / np.sqrt(abs(gn))
    j = int(np.argmax(np.abs(nu)))
    if np.real(nu[j]) < 0 or (np.real(nu[j]) == 0 and np.imag(nu[j]) < 0):
        nu = -nu
    u = np.asarray(u, dtype=float)[None]
    return AlmostContactFrame(patch, u, w0[None], t[None], nu[None], np.array([1.0 if gn > 0 else -1.0]))


def _ref_aligned(patch, u, ref):
    """``_ref_frame`` at u aligned to the one-row frame ref."""
    fr = _ref_frame(patch, u)
    ph = _ref_phase(fr.sig.signs, fr.lift[0], ref.lift[0])
    nu = fr.normal * ph
    if float(np.real(np.sum(nu * np.conj(ref.normal)))) < 0:
        nu = -nu
    return replace(fr, lift=fr.lift * ph, tangents=fr.tangents * ph, normal=nu)


# ---------------------------------------------------------------------------
# Weingarten map and shape matrix
# ---------------------------------------------------------------------------


def _nested_weingarten(frame0, x):
    """The Weingarten map at the one point of the one-row frame0 on the
    vectors x (..., d): the extrapolated difference of numeric unit normals
    at ``INNER_FD_STEP`` along x on frame0's patch, each moved frame
    aligned to frame0, an independent reference for the Gauss formula. The
    central differences D at steps h and h/2 are combined as
    (4 D(h/2) - D(h)) / 3."""
    h = INNER_FD_STEP
    x = np.asarray(x, dtype=complex)
    a = frame0.tangent_coords(x.reshape(1, -1, x.shape[-1]))[0]
    offsets = np.array([h, -h, 0.5 * h, -0.5 * h])[:, None, None] * a
    centers = (frame0.rows[0] + offsets).reshape(-1, a.shape[1])
    nu = hypersurface_frames(frame0.patch, centers, ref=frame0).normal
    plus, minus, half_plus, half_minus = nu.reshape(4, 1, a.shape[0], -1)
    d_h = (plus - minus) / (2.0 * h)
    d_half = (half_plus - half_minus) / h
    return -frame0.tangential((4.0 * d_half - d_h) / 3.0).reshape(x.shape)


def _ref_shape_matrix(patch, u, basis, signs):
    """The shape matrix at u in a given adapted basis (xi first) with its
    signs: entry (a, b) is signs[a] g(A e_b, e_a), each image A e_b from
    ``_nested_weingarten`` at the scalar frame ``_ref_frame``."""
    images = _nested_weingarten(_ref_frame(patch, u), basis)
    bil = np.array([[real_metric(patch.sig, img, b) for img in images] for b in basis])
    return signs[:, None] * bil


# ---------------------------------------------------------------------------
# real-metric Gram-Schmidt and adapted bases
# ---------------------------------------------------------------------------


def _oracle_orthonormalize(sig, vectors, tol=PIVOT_TOL, max_count=None):
    pool = [np.asarray(v, dtype=complex) for v in vectors]
    target = len(pool) if max_count is None else max_count
    out, signs = [], []
    while len(out) < target:
        pool = [c for c in pool if float(np.sum(np.abs(c) ** 2)) >= 1e-18]
        if not pool:
            raise FrameError("linearly dependent input vectors")
        best, best_g = None, 0.0
        for idx, c in enumerate(pool):
            e2 = float(np.sum(np.abs(c) ** 2))
            g = real_metric(sig, c, c)
            if abs(g) <= tol * e2:
                continue
            if abs(g) > best_g:
                best_g, best = abs(g), idx
        if best is None:
            raise FrameError("degenerate span: lightlike pivot")
        u = pool.pop(best)
        g = real_metric(sig, u, u)
        u = u / np.sqrt(abs(g))
        sgn = 1.0 if g > 0 else -1.0
        out.append(u)
        signs.append(sgn)
        pool = [c - sgn * real_metric(sig, c, u) * u for c in pool]
    return out, signs


def _oracle_adapted_basis(frame, first=None):
    """The adapted basis and its signs at the one-row frame, as lists:
    xi, then ``first`` normalized when it is given, then the real-metric
    Gram-Schmidt of the rest of the tangents."""
    sig = frame.sig
    xi = frame.xi[0]
    eps = frame.epsilon[0]
    tangents = frame.tangents[0]
    pool = [t - eps * real_metric(sig, t, xi) * xi for t in tangents]
    head, head_signs = [xi], [eps]
    want = len(tangents) - 1
    if first is not None:
        gf = real_metric(sig, first, first)
        w = first / np.sqrt(abs(gf))
        sgn = 1.0 if gf > 0 else -1.0
        pool = [v - sgn * real_metric(sig, v, w) * w for v in pool]
        head.append(w)
        head_signs.append(sgn)
        want -= 1
    vecs, signs = _oracle_orthonormalize(sig, pool, max_count=want)
    if len(vecs) != want:
        raise FrameError("could not complete the adapted tangent basis")
    return np.array(head + vecs), np.array(head_signs + signs)


# ---------------------------------------------------------------------------
# unitary frame completion and frame isometry
# ---------------------------------------------------------------------------


def _ref_validate_fixed(sig, fixed, tol=1e-8):
    items = sorted(fixed.items())
    for slot, vec in items:
        if not 0 <= slot < sig.ambient_dim:
            raise FrameError(f"slot {slot} out of range")
        want = -1.0 if slot < sig.p else 1.0
        g = hermitian_product(sig, vec, vec)
        if abs(g - want) > tol:
            raise FrameError(
                f"fixed column for slot {slot} has g(v,v) = {g:.3e}, expected {want:+.0f}"
            )
    for i, (_, a) in enumerate(items):
        for _, b in items[i + 1 :]:
            if abs(hermitian_product(sig, a, b)) > tol:
                raise FrameError("fixed columns are not mutually g_C-orthogonal")


def _ref_complete(sig, fixed):
    return _ref_complete_attempt(sig, fixed)[0]


def _ref_complete_attempt(sig, fixed):
    """The scalar completion: the frame and the attempt that produced it."""
    _ref_validate_fixed(sig, fixed)
    dim = sig.ambient_dim
    signs = sig.signs
    free = [c for c in range(dim) if c not in fixed]
    det_slot = max(free) if free else None
    rng = np.random.default_rng(0)
    for attempt in range(8):
        cols = {slot: np.asarray(v, dtype=complex) for slot, v in fixed.items()}
        candidates = [np.eye(dim, dtype=complex)[k] for k in range(dim)]
        if attempt > 0:
            noise = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            candidates = [c + 1e-3 * noise[k] for k, c in enumerate(candidates)]
        for slot, v in cols.items():
            sgn = signs[slot]
            candidates = [c - sgn * complex(hermitian_product(sig, c, v)) * v for c in candidates]
        free_minus = [c for c in range(sig.p) if c not in cols]
        free_plus = [c for c in range(sig.p, dim) if c not in cols]
        while free_minus or free_plus:
            best, best_g = None, 0.0
            for idx, c in enumerate(candidates):
                e2 = float(np.sum(np.abs(c) ** 2))
                if e2 < 1e-20:
                    continue
                g = real_metric(sig, c, c)
                if abs(g) <= PIVOT_TOL * e2:
                    continue
                if g < 0 and not free_minus:
                    continue
                if g > 0 and not free_plus:
                    continue
                if abs(g) > best_g:
                    best_g, best = abs(g), idx
            if best is None:
                break
            u = candidates.pop(best)
            g = real_metric(sig, u, u)
            u = u / np.sqrt(abs(g))
            sgn = 1.0 if g > 0 else -1.0
            slot = free_plus.pop(0) if sgn > 0 else free_minus.pop(0)
            cols[slot] = u
            candidates = [c - sgn * complex(hermitian_product(sig, c, u)) * u for c in candidates]
        if free_minus or free_plus:
            continue
        mat = np.column_stack([cols[c] for c in range(dim)])
        det = np.linalg.det(mat)
        if abs(abs(det) - 1.0) > 1e-9:
            continue
        if det_slot is not None:
            mat[:, det_slot] = mat[:, det_slot] / det
        return mat, attempt
    raise FrameError("frame completion failed: degenerate complement")


def _ref_frame_to_isometry(sig, q, eta_hat):
    qv = _sphere_row(sig, q)
    ev = as_ambient(sig, eta_hat)
    char = causal_character(sig, ev)
    if char in (CausalCharacter.LIGHTLIKE, CausalCharacter.ZERO):
        raise CausalCharacterError("marked direction must be spacelike or timelike")
    ev = ev / np.sqrt(abs(real_metric(sig, ev, ev)))
    if abs(hermitian_product(sig, ev, qv)) > 1e-8:
        raise FrameError("marked direction is not horizontal at q")
    fixed = {sig.n - 1: qv}
    fixed[sig.n if char is CausalCharacter.SPACELIKE else 0] = ev
    return IndefiniteUnitaryMatrix(sig, _ref_complete(sig, fixed))


# ---------------------------------------------------------------------------
# curvature tensor and the seeded suites
# ---------------------------------------------------------------------------


def _ref_curvature(sig, x_t, y_t, z_t):
    u, v, w = x_t.vec, y_t.vec, z_t.vec
    ju, jv, jw = jmul(u), jmul(v), jmul(w)
    g = lambda a, b: real_metric(sig, a, b)
    return g(v, w) * u - g(u, w) * v + g(jv, w) * ju - g(ju, w) * jv + 2.0 * g(u, jv) * jw


def _ref_curvature_lines(count, seed=0):
    """The curvature suite point by point, at the points and horizontal
    vectors of ``_horizontal_draws``."""
    rng = np.random.default_rng(seed)
    out = []
    for sig in ACCEPTANCE_SIGNATURES:
        worst = 0.0
        for q, xv in zip(*_horizontal_draws(sig, count, rng)):
            lv = _sphere_row(sig, q)
            j = int(np.argmax(np.abs(lv)))
            phase = np.conj(lv[j]) / abs(lv[j])
            x = ProjectiveTangent(ProjectivePoint(sig, lv * phase), xv * phase)
            jx = ProjectiveTangent(x.at, 1j * x.vec)
            r = _ref_curvature(sig, x, jx, jx)
            gx = real_metric(sig, x.vec, x.vec)
            worst = max(worst, abs(real_metric(sig, r, x.vec) / (gx * gx) - 4.0))
        out.append(worst)
    return out


def _ref_unitary_frame_lines(sig, count, seed=1):
    """The frame suite point by point, at the draws of ``_horizontal_draws``."""
    rng = np.random.default_rng(seed)
    eye = np.diag(metric_signs(sig.p, sig.ambient_dim))
    form_worst = det_worst = 0.0
    for q, eta in zip(*_horizontal_draws(sig, count, rng)):
        m = _ref_frame_to_isometry(sig, q, eta).entries
        form_worst = max(form_worst, float(np.max(np.abs(m.conj().T @ eye @ m - eye))))
        det_worst = max(det_worst, abs(np.linalg.det(m) - 1.0))
    return [form_worst, det_worst]


# ---------------------------------------------------------------------------
# transport and the sample export
# ---------------------------------------------------------------------------


def fd_second_derivative(fn, s: float, h: float = 1e-3):
    """Five-point second derivative of a smooth vector-valued callable."""
    return (
        -fn(s + 2 * h)
        + 16.0 * fn(s + h)
        - 30.0 * fn(s)
        + 16.0 * fn(s - h)
        - fn(s - 2 * h)
    ) / (12.0 * h * h)


def _ref_case_c_report(curve: SampledCurve) -> dict:
    """The case-c report of ``curves.case_c_verify`` in complex arithmetic:
    velocity, F1 = velocity / |velocity|, F2 = covariant derivative of F1
    and its covariant derivative each formed from the lifts, with
    ``gdot_rows`` and ``horizontal_rows``."""
    signs = curve.sig.signs

    def cov(rows):
        return horizontal_rows(signs, curve.lifts, deriv_rows(rows, curve.step))

    def interior(rows, stages):
        return rows[EDGE_MARGIN * stages : -EDGE_MARGIN * stages]

    velocity = cov(curve.lifts)
    f1 = velocity / np.sqrt(np.abs(gdot_rows(signs, velocity, velocity)))[:, None]
    f2 = cov(f1)
    e2 = np.sum(np.abs(interior(f2, 2)) ** 2, axis=-1)
    par_rows = cov(f2)
    return {
        "f2_min_norm": float(np.min(np.sqrt(e2))),
        "g(F2,F2)": float(np.max(np.abs(interior(gdot_rows(signs, f2, f2), 2)))),
        "parallel_defect": float(np.max(np.sqrt(np.sum(np.abs(interior(par_rows, 3)) ** 2, axis=-1)))),
        "g(F1,F2)": float(np.max(np.abs(interior(gdot_rows(signs, f1, f2), 2)))),
        "g(F1,JF2)": float(np.max(np.abs(interior(gdot_rows(signs, f1, jmul(f2)), 2)))),
    }


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


def _ref_sample_rows(example_id, grid_s, grid_t, grid_leaf):
    """Export rows of ``sample`` computed one point at a time."""
    spec = example_spec(example_id)
    par = _par(example_id)
    grid = leaf_coordinate_grid(par, grid_s, grid_leaf)
    rows = []
    for tv in np.linspace(T_RANGE[0], T_RANGE[1], grid_t):
        iso = ruling_isometry(spec, float(tv))
        for s, *c in grid.tolist():
            rep = canonicalize(par.sig, iso.entries @ rhs_lift(par, s, c)).rep
            row = [s, float(tv)] + [float(x) for x in c]
            for entry in rep:
                row.extend([float(np.real(entry)), float(np.imag(entry))])
            rows.append(row)
    return rows


def _ref_sample_text(example_id, grid_s, grid_t, grid_leaf, fmt, seed_r=None, leaf_radius=0.25):
    """The text ``sample`` writes, by the float-table path it replaced: a
    table of float rows, then ``json.dumps(doc, sort_keys=True)`` or a
    ``repr`` join of every cell."""
    seed = None if seed_r is None else gamma_seed(Signature(3, 1), seed_r)
    spec = example_spec(example_id, seed_z=seed)
    par = transport_basis(example_integral_curve(spec).curve)
    grid = leaf_coordinate_grid(par, grid_s, grid_leaf, radius=leaf_radius)
    s_values, coords = grid[::grid_leaf, 0], grid[:grid_leaf, 1:]
    lifts = par.lifts_at(grid).reshape(grid_s, grid_leaf, -1)
    leaf_dim = coords.shape[1]
    rows = []
    for tv in np.linspace(T_RANGE[0], T_RANGE[1], grid_t).tolist():
        reps = canonical_rows(par.sig, lifts @ ruling_isometry(spec, tv).entries.T)
        table = np.empty(reps.shape[:2] + (2 + leaf_dim + 2 * reps.shape[-1],))
        table[..., 0] = s_values[:, None]
        table[..., 1] = tv
        table[..., 2 : 2 + leaf_dim] = coords
        table[..., 2 + leaf_dim :: 2] = reps.real
        table[..., 3 + leaf_dim :: 2] = reps.imag
        rows.extend(table.reshape(-1, table.shape[-1]).tolist())
    dim = par.sig.ambient_dim
    header = (
        ["s", "t"]
        + [f"c{k + 1}" for k in range(leaf_dim)]
        + [x for k in range(dim) for x in (f"re_z{k + 1}", f"im_z{k + 1}")]
    )
    if fmt == "csv":
        lines = [",".join(header)] + [",".join(repr(v) for v in row) for row in rows]
        return "\n".join(lines) + "\n"
    doc = {"schema": 1, "command": "sample", "example": example_id, "header": header, "rows": rows}
    return json.dumps(doc, sort_keys=True)


# ---------------------------------------------------------------------------
# base-line regeneration
# ---------------------------------------------------------------------------


def _ref_regenerate(par, half_span=0.35, step=2e-3):
    """The +step chain to its end, then the -step chain, one frame per stage;
    returns the re-lifted curve, its xi defect and the RK4 parameter path."""
    sig = par.sig
    lo, hi = par.s_range()
    half_span = min(half_span, 0.0 - lo - 5 * step, hi - 0.0 - 5 * step)
    u0 = np.zeros(par.n_params)
    u0[0] = 0.0
    frame0 = hypersurface_frame(par, u0)
    if real_metric(sig, frame0.xi[0], frame0.tangents[0, 0]) * par.eps1 < 0:
        frame0 = replace(frame0, normal=-frame0.normal)
    state = {}

    def velocity(uu):
        fr = hypersurface_frames(par, uu[None], ref=state["ref"])
        state["ref"] = fr
        return fr.tangent_coords(fr.xi)[0]

    count = int(round(half_span / step))
    params = step * np.arange(-count, count + 1) + 0.0
    upath = np.empty((params.shape[0], par.n_params))
    upath[count] = u0
    for direction in (+1, -1):
        u = u0.copy()
        state["ref"] = frame0
        for i in range(count):
            hstep = direction * step
            k1 = velocity(u)
            k2 = velocity(u + 0.5 * hstep * k1)
            k3 = velocity(u + 0.5 * hstep * k2)
            k4 = velocity(u + hstep * k3)
            u = u + hstep * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
            upath[count + direction * (i + 1)] = u
    reps = par.lifts_at(upath)
    curve = horizontal_lift(sig, reps, reps[count], params=params, anchor=count)
    idx = np.arange(4, params.shape[0] - 4, max(1, params.shape[0] // 30))
    frames = hypersurface_frames(par, upath[idx])
    xi = frames.xi * _phase_factor(sig.signs, frames.lift, curve.lifts[idx])[:, None]
    vel = curve.velocity[idx]
    vel = vel / np.sqrt(np.abs(gdot_rows(sig.signs, vel, vel)))[:, None]
    gap = np.minimum(np.max(np.abs(vel - xi), axis=1), np.max(np.abs(vel + xi), axis=1))
    return curve, float(np.max(gap)), upath


# ---------------------------------------------------------------------------
# family closed forms
# ---------------------------------------------------------------------------


def _ref_default_seed(example_id, sig):
    n = sig.n
    z = np.zeros(n, dtype=complex)
    if example_id == 1:
        return gamma_seed(sig, np.pi / 8)
    if example_id == 2:
        z[0] = 1.0
        z[1] = 1.25
        z[2] = np.sqrt(2.0 - 1.25**2)
        return z
    if example_id == 3:
        z[0] = 0.5
        z[1] = 1.0
        z[n - 1] = 0.5
        return z
    z[0] = 1.0
    z[1] = 1.25
    z[n - 1] = np.sqrt(2.0 - 1.25**2)
    return z


def _ref_limits_ok(example_id, n, p):
    return {
        1: n >= 3 and 1 <= p <= n - 2,
        2: n >= 4 and 1 <= p <= n - 2,
        3: n >= 3 and 2 <= p <= n - 1,
        4: n >= 3 and 2 <= p <= n - 1,
    }[example_id]


def _ref_seed_sphere_index(example_id, sig):
    return sig.p if example_id in (1, 2) else sig.p - 1


def _ref_omega_slot(example_id, n):
    return n - 1 if example_id in (1, 3) else 0


def _ref_seed_ok(example_id, sig, z):
    signs = metric_signs(_ref_seed_sphere_index(example_id, sig), sig.n)
    g = float(np.real(np.sum(signs * z * np.conj(z))))
    return abs(g - 1.0) <= 1e-10 and abs(z[_ref_omega_slot(example_id, sig.n)]) >= 1e-12


def _ref_accepts(example_id, n, p):
    """Whether the hand-written code built a default instance at (n, p)."""
    try:
        sig = Signature(n, p)
        z = _ref_default_seed(example_id, sig)
    except (ValueError, IndexError):
        return False
    return _ref_limits_ok(example_id, n, p) and _ref_seed_ok(example_id, sig, z)


def _ref_slice_map(example_id, n, t, x):
    out = np.zeros(n + 1, dtype=complex)
    if example_id == 1:
        out[: n - 1] = x[: n - 1]
        out[n - 1] = np.cos(t) * x[n - 1]
        out[n] = np.sin(t) * x[n - 1]
    elif example_id == 2:
        out[0] = np.cosh(t) * x[0]
        out[1:n] = x[1:n]
        out[n] = np.sinh(t) * x[0]
    elif example_id == 3:
        out[0] = np.sinh(t) * x[n - 1]
        out[1:n] = x[: n - 1]
        out[n] = np.cosh(t) * x[n - 1]
    else:
        out[0] = np.sin(t) * x[0]
        out[1] = np.cos(t) * x[0]
        out[2:] = x[1:n]
    return out


def _ref_ruling_isometry(example_id, n, t):
    m = np.eye(n + 1, dtype=complex)
    if example_id == 1:
        m[n - 1, n - 1] = np.cos(t)
        m[n - 1, n] = -np.sin(t)
        m[n, n - 1] = np.sin(t)
        m[n, n] = np.cos(t)
    elif example_id in (2, 3):
        m[0, 0] = np.cosh(t)
        m[0, n] = np.sinh(t)
        m[n, 0] = np.sinh(t)
        m[n, n] = np.cosh(t)
    else:
        m[0, 0] = np.cos(t)
        m[0, 1] = np.sin(t)
        m[1, 0] = -np.sin(t)
        m[1, 1] = np.cos(t)
    return m


def _ref_fields(example_id, n, t, z):
    """(xi_hat, a_xi_hat, epsilon); family 4's a_xi_hat is the faulty one."""
    out = np.zeros(n + 1, dtype=complex)
    axi = np.zeros(n + 1, dtype=complex)
    if example_id == 1:
        zl = z[n - 1]
        u = abs(zl) ** 2
        out[n - 1] = -np.sin(t) * zl
        out[n] = np.cos(t) * zl
        axi[n - 1] = 1j * np.cos(t) * zl / u
        axi[n] = 1j * np.sin(t) * zl / u
        eps = 1.0
    elif example_id == 2:
        zl = z[0]
        u = abs(zl) ** 2
        out[0] = np.sinh(t) * zl
        out[n] = np.cosh(t) * zl
        axi[0] = -1j * np.cosh(t) * zl / u
        axi[n] = -1j * np.sinh(t) * zl / u
        eps = 1.0
    elif example_id == 3:
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
    return out / abs(zl), axi, eps


def _ref_accel(example_id, n, z, t0, s):
    slot = _ref_omega_slot(example_id, n)
    mod = abs(z[slot])
    u = mod * mod
    tau = t0 + s / mod
    out = np.zeros(n + 1, dtype=complex)
    if example_id == 1:
        out[: n - 1] = z[: n - 1]
        out[n - 1] = (1.0 - 1.0 / u) * np.cos(tau) * z[n - 1]
        out[n] = (1.0 - 1.0 / u) * np.sin(tau) * z[n - 1]
    elif example_id == 2:
        out[0] = (1.0 + 1.0 / u) * np.cosh(tau) * z[0]
        out[1:n] = z[1:n]
        out[n] = (1.0 + 1.0 / u) * np.sinh(tau) * z[0]
    elif example_id == 3:
        out[0] = (1.0 / u - 1.0) * np.sinh(tau) * z[n - 1]
        out[1:n] = -z[: n - 1]
        out[n] = (1.0 / u - 1.0) * np.cosh(tau) * z[n - 1]
    else:
        out[0] = -(1.0 / u + 1.0) * np.sin(tau) * z[0]
        out[1] = -(1.0 / u + 1.0) * np.cos(tau) * z[0]
        out[2:] = -z[1:n]
    return out


def _ref_ruling_slots(example_id, n):
    if example_id == 1:
        return [n - 1, n]
    if example_id in (2, 3):
        return [0, n]
    return [0, 1]


def _ref_predict(example_id, n, z):
    """(ff, eps1, case, kind, kappa1) as the per-family code predicted them."""
    u = abs(z[_ref_omega_slot(example_id, n)]) ** 2
    eps1 = 1.0 if example_id in (1, 2) else -1.0
    if example_id in (1, 3):
        ff = 1.0 / u - 1.0
        if abs(ff) < 1e-8:
            case, kind, kappa1 = MinimalCase.CASE_C_NON_FRENET, None, None
        elif ff > 0:
            case, kind, kappa1 = (
                MinimalCase.CASE_B_TOTALLY_REAL_CIRCLE,
                "rp2" if eps1 > 0 else "s2_1",
                np.sqrt(ff),
            )
        else:
            case, kind, kappa1 = (
                MinimalCase.CASE_B_TOTALLY_REAL_CIRCLE,
                "s2_1" if eps1 > 0 else "h2_2",
                np.sqrt(-ff),
            )
    else:
        ff = -1.0 - 1.0 / u
        kind = "s2_1" if eps1 > 0 else "h2_2"
        case, kappa1 = MinimalCase.CASE_B_TOTALLY_REAL_CIRCLE, np.sqrt(-ff)
    if case is MinimalCase.CASE_C_NON_FRENET:
        still = _ref_slice_map(example_id, n, 0.0, z)
        others = np.delete(np.abs(still), _ref_ruling_slots(example_id, n))
        if float(np.max(others)) < 1e-6:
            case = MinimalCase.CASE_A_GEODESIC
        else:
            kind = "b3_1" if eps1 > 0 else "b3_2"
    return ff, eps1, case, kind, kappa1


# ---------------------------------------------------------------------------
# quadric geodesic, and the exponential map of the quotient with its inverse
# ---------------------------------------------------------------------------


def _scalar_geodesic(signs, q, v, t):
    """The per-point geodesic the rows form replaced: one branch per call."""
    g = float(gdot_rows(signs, v, v))
    eunorm2 = float(np.sum(np.abs(v) ** 2))
    if eunorm2 == 0.0 or abs(g) <= LIGHT_TOL * eunorm2:
        return q + t * v
    if g > 0:
        w = np.sqrt(g)
        return np.cos(w * t) * q + np.sin(w * t) * v / w
    w = np.sqrt(-g)
    return np.cosh(w * t) * q + np.sinh(w * t) * v / w


def exp_map(x, v, t=1.0):
    """Exponential map of the quotient: the horizontal sphere geodesic from
    x along v, turned to its canonical representative. The geodesic stays on
    the sphere, so it is not renormalized, which at strongly boosted points
    would cancel catastrophically."""
    if v.at.gap(x) > BASE_POINT_TOL:
        raise BasePointError("tangent is not based at the given point")
    z = sphere_geodesic(x.sig, x.rep, v.vec, t)
    return ProjectivePoint(x.sig, z * canonical_phases(z[None])[0])


def log_in_leaf(x, y, round_trip_tol=1e-8):
    """Inverse of ``exp_map`` inside a totally geodesic leaf.

    Gauges the phase of y's representative so its Hermitian product with x's
    is real positive, splits off the component along x, and solves the
    closed-form geodesic for the parameter. Raises ValueError at the cut
    locus (vanishing Hermitian product) or when the round trip misses y by
    more than ``round_trip_tol``.
    """
    sig = x.sig
    q = x.rep
    a = hermitian_product(sig, y.rep, q)
    if abs(a) < 1e-9:
        raise ValueError("points are g_C-orthogonal: log is not unique here")
    w = y.rep * (np.conj(a) / abs(a))
    b = float(np.real(hermitian_product(sig, w, q)))
    m = w - b * q
    if float(np.max(np.abs(m))) < 1e-14:
        return ProjectiveTangent(x, np.zeros_like(q))
    gm = 1.0 - b * b
    eunorm2 = float(np.sum(np.abs(m) ** 2))
    if abs(gm) <= LIGHT_TOL * eunorm2:
        vec = m
    elif gm > 0:
        vec = np.arccos(np.clip(b, -1.0, 1.0)) * m / np.sqrt(gm)
    else:
        vec = np.arccosh(b) * m / np.sqrt(-gm)
    out = ProjectiveTangent(x, vec)
    if exp_map(x, out, 1.0).gap(y) > round_trip_tol:
        raise ValueError("round trip residual exceeds tolerance")
    return out
