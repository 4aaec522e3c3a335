"""Batched hypersurface frames against the scalar stencil loop.

The reference is the frame code the batched kernel replaced: each stencil
lift comes from its own one-row ``lifts_at`` call, is phase-aligned to the centre
lift and differenced one parameter at a time. The Weingarten map is the Gauss
formula at one point: every second difference of g(f, N) is taken on its
own one-row lifts, and the tangent coordinates come from ``np.linalg.lstsq``.
"""

import numpy as np
import pytest

from pseudocp.errors import ChartError, DegenerateHypersurfaceError, ImmersionError
from pseudocp.examples import example_integral_curve, example_spec, ruling_isometry
from pseudocp.linalg import LIGHT_TOL, CausalCharacter, Signature, causal_character, gdot_rows, real_metric
from pseudocp.projective import canonicalize, sphere_geodesic
from pseudocp.ruled import (
    CHART_RADIUS,
    INNER_FD_STEP,
    NUMERIC_LIGHT_TOL,
    OUTER_FD_STEP,
    AlmostContactFrame,
    GeodesicSpherePatch,
    RHSPatch,
    TransformedPatch,
    adapted_bases,
    hypersurface_frame,
    hypersurface_frames,
    rhs_lift,
    rhs_lift_grid,
    shape_operator_at,
    transport_basis,
    weingarten_apply,
)

# ---------------------------------------------------------------------------
# scalar reference
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


def _realify(z):
    return np.concatenate([np.real(z), np.imag(z)], axis=-1)


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
    return AlmostContactFrame(sig, w0, t, nu, 1.0 if gn > 0 else -1.0)


def _ref_aligned(patch, u, ref):
    fr = _ref_frame(patch, u)
    ph = _ref_phase(fr.sig.signs, fr.lift, ref.lift)
    nu = fr.normal * ph
    if float(np.real(np.sum(nu * np.conj(ref.normal)))) < 0:
        nu = -nu
    return AlmostContactFrame(fr.sig, fr.lift * ph, fr.tangents * ph, nu, fr.epsilon)


def _ref_second_form(patch, frame0, u, h=OUTER_FD_STEP):
    """g(d_k d_l f, N): extrapolated second differences of the pairing of
    the normal with lifts phase-aligned to the frame's lift, along e_k and
    e_k + e_l; the mixed terms are (D_{k+l} - D_k - D_l) / 2."""
    sig = patch.sig
    p = u.shape[0]

    def pairing(v):
        w = _lift(patch, u + v)
        return real_metric(sig, w * _ref_phase(sig.signs, w, frame0.lift), frame0.normal)

    center = pairing(np.zeros(p))

    def second(direction):
        def estimate(hh):
            return (pairing(hh * direction) - 2.0 * center + pairing(-hh * direction)) / hh**2

        return (4.0 * estimate(0.5 * h) - estimate(h)) / 3.0

    eye = np.eye(p)
    form = np.diag([second(e) for e in eye])
    for k in range(p):
        for l in range(k + 1, p):
            form[k, l] = form[l, k] = 0.5 * (second(eye[k] + eye[l]) - form[k, k] - form[l, l])
    return form


def _ref_weingarten(patch, frame0, u, x):
    """A x = sum_k c_k t_k with G c = H a (Gauss and Weingarten formulas)."""
    sig = patch.sig
    t = frame0.tangents
    a, *_ = np.linalg.lstsq(_realify(t).T, _realify(x), rcond=None)
    gram = np.array([[real_metric(sig, tk, tl) for tl in t] for tk in t])
    c = np.linalg.solve(gram, _ref_second_form(patch, frame0, u) @ a)
    return c @ t


def _ref_shape_matrix(patch, u):
    sig = patch.sig
    frame = _ref_frame(patch, u)
    axi = _ref_weingarten(patch, frame, u, frame.xi)
    uvec = axi - frame.epsilon * real_metric(sig, axi, frame.xi) * frame.xi
    uchar = causal_character(sig, uvec, NUMERIC_LIGHT_TOL)
    pinned = np.array([uchar in (CausalCharacter.SPACELIKE, CausalCharacter.TIMELIKE)])
    stack = AlmostContactFrame(
        sig, frame.lift[None], frame.tangents[None], frame.normal[None], np.array([frame.epsilon])
    )
    bases, bsigns = adapted_bases(stack, uvec[None], pinned)
    basis, bsigns = bases[0], bsigns[0]
    images = [axi] + [_ref_weingarten(patch, frame, u, b) for b in basis[1:]]
    bil = np.array([[real_metric(sig, img, b) for img in images] for b in basis])
    return bsigns[:, None] * bil


# ---------------------------------------------------------------------------
# patches under test
# ---------------------------------------------------------------------------


def _family_patch(example_id, t=None):
    spec = example_spec(example_id)
    par = transport_basis(example_integral_curve(spec).curve)
    patch = RHSPatch(par)
    if t is None:
        return patch
    return TransformedPatch(ruling_isometry(spec, t), patch)


def _point(patch, seed):
    rng = np.random.default_rng(seed)
    u = 0.1 * rng.standard_normal(patch.n_params)
    u[0] = rng.uniform(-0.3, 0.3)
    return u


def _sphere_patch():
    sig = Signature(3, 1)
    return GeodesicSpherePatch(canonicalize(sig, np.array([0, 0, 0, 1], dtype=complex)), 0.7, seed=1)


PATCHES = {
    "family1": lambda: _family_patch(1),
    "family2": lambda: _family_patch(2),
    "family3": lambda: _family_patch(3),
    "family4": lambda: _family_patch(4),
    "family2_t": lambda: _family_patch(2, t=0.37),
    "sphere": _sphere_patch,
}


class _LiftOnly:
    """The same patch seen as a black box: ``lift_at`` alone."""

    def __init__(self, inner):
        self.inner = inner
        self.sig = inner.sig
        self.n_params = inner.n_params

    def lift_at(self, u):
        return _lift(self.inner, u)


@pytest.mark.parametrize("name", sorted(PATCHES))
def test_frames_match_scalar_stencils(name):
    """Lift, tangents and normal of a batch within 1e-12 of the scalar loop."""
    patch = PATCHES[name]()
    rows = np.array([_point(patch, seed) for seed in range(3)])
    got = hypersurface_frames(patch, rows)
    for i, u in enumerate(rows):
        want = _ref_frame(patch, u)
        assert np.max(np.abs(got.lift[i] - want.lift)) < 1e-12
        assert np.max(np.abs(got.tangents[i] - want.tangents)) < 1e-12
        assert np.max(np.abs(got.normal[i] - want.normal)) < 1e-12
        assert got.epsilon[i] == want.epsilon


@pytest.mark.parametrize("name", ["family1", "family3", "family2_t"])
def test_aligned_frames_match_scalar(name):
    """Frames aligned to a reference (phase and normal sign) match too."""
    patch = PATCHES[name]()
    u = _point(patch, 5)
    ref = _ref_frame(patch, u)
    rows = u + 1e-3 * np.array([np.ones_like(u), -np.ones_like(u)])
    got = hypersurface_frames(patch, rows, ref=ref)
    for i, v in enumerate(rows):
        want = _ref_aligned(patch, v, ref)
        assert np.max(np.abs(got.lift[i] - want.lift)) < 1e-12
        assert np.max(np.abs(got.normal[i] - want.normal)) < 1e-12


@pytest.mark.parametrize("name", sorted(PATCHES))
def test_weingarten_stack_matches_scalar(name, rng):
    """A stack of vectors gives the scalar Weingarten image of each row."""
    patch = PATCHES[name]()
    u = _point(patch, 7)
    frame = hypersurface_frame(patch, u)
    xs = np.array([frame.xi, frame.random_tangent(rng), frame.random_tangent(rng)])
    got = weingarten_apply(patch, frame, u, xs)
    assert got.shape == xs.shape
    for x, ax in zip(xs, got):
        assert np.max(np.abs(ax - _ref_weingarten(patch, frame, u, x))) < 1e-8
        assert np.max(np.abs(ax - weingarten_apply(patch, frame, u, x))) < 1e-12


@pytest.mark.parametrize("name", sorted(PATCHES))
def test_shape_matrix_matches_scalar(name):
    patch = PATCHES[name]()
    u = _point(patch, 11)
    got = shape_operator_at(patch, u).matrix
    assert np.max(np.abs(got - _ref_shape_matrix(patch, u))) < 1e-6


@pytest.mark.parametrize("name", ["family1", "family2_t", "sphere"])
def test_lift_at_only_patch_gives_the_same_frames(name):
    patch = PATCHES[name]()
    rows = np.array([_point(patch, seed) for seed in (1, 2)])
    batched = hypersurface_frames(patch, rows)
    black_box = hypersurface_frames(_LiftOnly(patch), rows)
    assert np.max(np.abs(batched.lift - black_box.lift)) < 1e-12
    assert np.max(np.abs(batched.tangents - black_box.tangents)) < 1e-12
    assert np.max(np.abs(batched.normal - black_box.normal)) < 1e-12


@pytest.mark.parametrize("example_id", [1, 2, 3, 4])
def test_rhs_lift_is_row_zero_of_lifts_at(example_id):
    """``rhs_lift`` is the one-row case of ``lifts_at`` bit for bit, and
    ``rhs_lift_grid`` holds its rows in (s, c) order."""
    patch = _family_patch(example_id)
    rows = np.array([_point(patch, seed) for seed in range(4)])
    batch = patch.lifts_at(rows)
    for k, u in enumerate(rows):
        one = rhs_lift(patch.par, u[0], u[1:])
        assert np.array_equal(one, patch.lifts_at(rows[k:])[0])
        assert np.array_equal(one, batch[k])
    s_values, coords = rows[:2, 0], rows[:3, 1:]
    grid = rhs_lift_grid(patch.par, s_values, coords)
    for i, s in enumerate(s_values):
        for j, c in enumerate(coords):
            assert np.array_equal(grid[i, j], rhs_lift(patch.par, s, c))


# ---------------------------------------------------------------------------
# per-row errors in mixed batches
# ---------------------------------------------------------------------------


class _SyntheticPatch:
    """Geodesics from a base point along u @ dirs (lift_at only)."""

    def __init__(self, sig, q0, dirs):
        self.sig = sig
        self.q0 = np.asarray(q0, dtype=complex)
        self.dirs = np.asarray(dirs, dtype=complex)
        self.n_params = self.dirs.shape[0]

    def lift_at(self, u):
        return sphere_geodesic(self.sig, self.q0, u @ self.dirs, 1.0)


SIG21 = Signature(2, 1)
Q0 = np.array([0, 0, 1], dtype=complex)
GOOD = _SyntheticPatch(SIG21, Q0, [[1, 0, 0], [1j, 0, 0], [0, 1, 0]])
RANK_DEFICIENT = _SyntheticPatch(SIG21, Q0, [[1, 0, 0], [2, 0, 0], [0, 1, 0]])
DEGENERATE = _SyntheticPatch(SIG21, Q0, [[1, 1, 0], [1j, 0, 0], [0, 1j, 0]])


class _Regions:
    """Rows with u[0] near 10 k are evaluated by the k-th patch, around 0."""

    def __init__(self, *patches):
        self.parts = patches
        self.sig = patches[0].sig
        self.n_params = 3

    def lift_at(self, u):
        k = int(round(u[0] / 10.0))
        shift = np.zeros_like(u)
        shift[0] = 10.0 * k
        return self.parts[k].lift_at(u - shift)


def _rows(*regions):
    return np.array([[10.0 * k, 0.0, 0.0] for k in regions])


def test_good_rows_of_a_mixed_patch_pass():
    patch = _Regions(GOOD, RANK_DEFICIENT, DEGENERATE)
    frames = hypersurface_frames(patch, _rows(0, 0))
    assert frames.normal.shape == (2, 3)


@pytest.mark.parametrize(
    "regions,error",
    [
        ((0, 1, 0), ImmersionError),
        ((0, 0, 2), DegenerateHypersurfaceError),
        ((2, 0, 2), DegenerateHypersurfaceError),
        ((2, 1), ImmersionError),
        ((1, 2), ImmersionError),
    ],
)
def test_first_bad_row_decides_the_error(regions, error):
    """The checks run in the order of a one-row call, and the first that any
    row fails raises: rank deficiency comes before a degenerate normal,
    whichever of the rows comes first."""
    patch = _Regions(GOOD, RANK_DEFICIENT, DEGENERATE)
    with pytest.raises(error):
        hypersurface_frames(patch, _rows(*regions))


def test_out_of_chart_stencil_row_raises_chart_error():
    """A centre inside the chart whose stencil leaves it fails the batch."""
    patch = _family_patch(1)
    edge = np.zeros(patch.n_params)
    edge[1] = CHART_RADIUS - 0.5 * INNER_FD_STEP
    rows = np.array([_point(patch, 0), edge, _point(patch, 1)])
    with pytest.raises(ChartError):
        hypersurface_frames(patch, rows)
    with pytest.raises(ChartError):
        _ref_frame(patch, edge)
