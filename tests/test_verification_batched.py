"""Stacked frame completion, the seeded suites and the regeneration chains
against the scalar loops they replaced.

The references are the scalar bodies: frame completion one row at a time
(list candidates, a strict ``>`` pivot scan, restarts drawn from a fresh
``default_rng(0)``), the one-point horizontal basis, horizontal unit and
frame isometry, the curvature tensor of Python floats, the two seeded
suites drawing and completing point by point. The arithmetic is unchanged,
so those comparisons ask for equality.

The RK4 regeneration (the +step chain to its end, then the -step chain) is
kept as the oracle of the base-line check that replaced it: its path must be
the base line, and the lifts and classification must agree to tolerance.
"""

from dataclasses import replace

import numpy as np
import pytest

from pseudocp.errors import (
    CausalCharacterError,
    ClassificationError,
    FrameError,
    SpherePointError,
)
from pseudocp.examples import example_integral_curve, example_spec, gamma_seed
from pseudocp.frames import PIVOT_TOL, complete_unitary_frame, complete_unitary_frames
from pseudocp.isometries import IndefiniteUnitaryMatrix, frame_to_isometries, frame_to_isometry
from pseudocp.linalg import (
    CausalCharacter,
    Signature,
    as_ambient,
    causal_character,
    check_sphere_point,
    gdot_rows,
    hermitian_product,
    jmul,
    metric_signs,
    real_metric,
)
from pseudocp.projective import (
    ProjectivePoint,
    ProjectiveTangent,
    random_horizontal_unit,
    random_sphere_point,
)
from pseudocp.ruled import (
    RHSPatch,
    _phase_factor,
    classify_generating_curve,
    hypersurface_frame,
    hypersurface_frames,
    horizontal_lift,
    regenerate_integral_curve,
    transport_basis,
)
from pseudocp.verification import ACCEPTANCE_SIGNATURES, curvature_lines, unitary_frame_lines

# ---------------------------------------------------------------------------
# scalar references
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


def _ref_horizontal_unit(sig, q, rng, character=CausalCharacter.SPACELIKE):
    qv = check_sphere_point(sig, q, tol=1e-8)
    mat = _ref_complete(sig, {sig.n - 1: qv})
    cols = [c for c in range(sig.ambient_dim) if c != sig.n - 1]
    signs = np.array([-1.0 if c < sig.p else 1.0 for c in cols])
    basis = mat[:, cols].T
    want = 1.0 if character is CausalCharacter.SPACELIKE else -1.0
    while True:
        coeff = rng.standard_normal(len(signs)) + 1j * rng.standard_normal(len(signs))
        g = float(np.sum(signs * np.abs(coeff) ** 2))
        if want * g > 0.05 * float(np.sum(np.abs(coeff) ** 2)):
            return (coeff @ basis) / np.sqrt(abs(g))


def _ref_frame_to_isometry(sig, q, eta_hat):
    qv = check_sphere_point(sig, q, tol=1e-8)
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


def _ref_curvature(sig, x_t, y_t, z_t):
    u, v, w = x_t.vec, y_t.vec, z_t.vec
    ju, jv, jw = jmul(u), jmul(v), jmul(w)
    g = lambda a, b: real_metric(sig, a, b)
    return g(v, w) * u - g(u, w) * v + g(jv, w) * ju - g(ju, w) * jv + 2.0 * g(u, jv) * jw


def _character(k):
    return CausalCharacter.SPACELIKE if k % 2 == 0 else CausalCharacter.TIMELIKE


def _ref_curvature_lines(count, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for sig in ACCEPTANCE_SIGNATURES:
        worst = 0.0
        for k in range(count):
            q = random_sphere_point(sig, rng)
            xv = _ref_horizontal_unit(sig, q, rng, _character(k))
            lv = check_sphere_point(sig, q, tol=1e-8)
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
    rng = np.random.default_rng(seed)
    eye = np.diag(metric_signs(sig.p, sig.ambient_dim))
    form_worst = det_worst = 0.0
    for k in range(count):
        q = random_sphere_point(sig, rng)
        eta = _ref_horizontal_unit(sig, q, rng, _character(k))
        m = _ref_frame_to_isometry(sig, q, eta).entries
        form_worst = max(form_worst, float(np.max(np.abs(m.conj().T @ eye @ m - eye))))
        det_worst = max(det_worst, abs(np.linalg.det(m) - 1.0))
    return [form_worst, det_worst]


def _ref_regenerate(par, half_span=0.35, step=2e-3):
    """The +step chain to its end, then the -step chain, one frame per stage;
    returns the re-lifted curve, its xi defect and the RK4 parameter path."""
    patch = RHSPatch(par)
    sig = par.sig
    lo, hi = par.s_range()
    half_span = min(half_span, 0.0 - lo - 5 * step, hi - 0.0 - 5 * step)
    u0 = np.zeros(patch.n_params)
    u0[0] = 0.0
    frame0 = hypersurface_frame(patch, u0)
    if real_metric(sig, frame0.xi, frame0.tangents[0]) * par.eps1 < 0:
        frame0 = replace(frame0, normal=-frame0.normal)
    state = {}

    def velocity(uu):
        fr = hypersurface_frames(patch, uu[None], ref=state["ref"]).row(0)
        state["ref"] = fr
        return fr.tangent_coords(fr.xi)

    count = int(round(half_span / step))
    params = step * np.arange(-count, count + 1) + 0.0
    upath = np.empty((params.shape[0], patch.n_params))
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
    reps = patch.lifts_at(upath)
    curve = horizontal_lift(sig, reps, reps[count], params=params, anchor=count)
    idx = np.arange(4, params.shape[0] - 4, max(1, params.shape[0] // 30))
    frames = hypersurface_frames(patch, upath[idx])
    xi = frames.xi * _phase_factor(sig.signs, frames.lift, curve.lifts[idx])[:, None]
    vel = curve.velocity[idx]
    vel = vel / np.sqrt(np.abs(gdot_rows(sig.signs, vel, vel)))[:, None]
    gap = np.minimum(np.max(np.abs(vel - xi), axis=1), np.max(np.abs(vel + xi), axis=1))
    return curve, float(np.max(gap)), upath


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def _draws(sig, count, seed):
    """Sphere points and unit horizontal vectors of both characters."""
    rng = np.random.default_rng(seed)
    q = np.array([random_sphere_point(sig, rng) for _ in range(count)])
    eta = np.array(
        [random_horizontal_unit(sig, q[k], rng, _character(k)) for k in range(count)]
    )
    return q, eta


def _fixed_pairs(sig, q, eta, timelike):
    """(q in slot n-1, eta in slot 0) for timelike rows, slot n otherwise."""
    chars = [causal_character(sig, e) for e in eta]
    want = CausalCharacter.TIMELIKE if timelike else CausalCharacter.SPACELIKE
    rows = [k for k, c in enumerate(chars) if c is want]
    ev = eta[rows] / np.sqrt(np.abs(gdot_rows(sig.signs, eta[rows], eta[rows])))[:, None]
    return {sig.n - 1: q[rows], (0 if timelike else sig.n): ev}


# ---------------------------------------------------------------------------
# frame completion
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("sig", ACCEPTANCE_SIGNATURES, ids=str)
def test_one_fixed_column_matches_scalar(sig):
    q, _ = _draws(sig, 40, 3)
    # basis-aligned points give pivot ties, which go to the lowest index
    e = np.eye(sig.ambient_dim, dtype=complex)
    q = np.vstack([q, e[sig.n - 1], 1j * e[sig.n - 1], (e[sig.n - 1] + e[sig.n]) / np.sqrt(2.0)])
    got = complete_unitary_frames(sig, {sig.n - 1: q})
    for k in range(len(q)):
        assert np.array_equal(got[k], _ref_complete(sig, {sig.n - 1: q[k]}))
        assert np.array_equal(got[k], complete_unitary_frame(sig, {sig.n - 1: q[k]}))


@pytest.mark.parametrize("sig", ACCEPTANCE_SIGNATURES, ids=str)
@pytest.mark.parametrize("timelike", [False, True], ids=["spacelike", "timelike"])
def test_two_fixed_columns_match_scalar(sig, timelike):
    q, eta = _draws(sig, 40, 4)
    fixed = _fixed_pairs(sig, q, eta, timelike)
    got = complete_unitary_frames(sig, fixed)
    assert len(got) == len(fixed[sig.n - 1]) > 0
    for k in range(len(got)):
        row = {slot: v[k] for slot, v in fixed.items()}
        assert np.array_equal(got[k], _ref_complete(sig, row))


def _boosted_points(sig, count, seed):
    """Sphere points moved by boosts of rapidity 8.5-10 (|q|_E ~ 1e3-1e4),
    where the unperturbed pivots often end off the unit determinant."""
    rng = np.random.default_rng(seed)
    dim = sig.ambient_dim
    out = []
    for _ in range(count):
        b = rng.uniform(8.5, 10.0)
        j = int(rng.integers(sig.p, dim))
        m = np.eye(dim)
        m[0, 0] = m[j, j] = np.cosh(b)
        m[0, j] = m[j, 0] = np.sinh(b)
        out.append(np.exp(1j * rng.uniform(0, 2 * np.pi)) * (m @ random_sphere_point(sig, rng)))
    return np.array(out)


@pytest.mark.parametrize("sig", [Signature(2, 1), Signature(3, 1)], ids=str)
def test_restart_rows_match_scalar(sig):
    """Rows that need a perturbed restart, mixed with rows that do not."""
    rows, attempts, failing = [], [], []
    for q in _boosted_points(sig, 60, 8):
        try:
            _, attempt = _ref_complete_attempt(sig, {sig.n - 1: q})
        except FrameError as exc:
            failing.append((q, str(exc)))
            continue
        rows.append(q)
        attempts.append(attempt)
    assert max(attempts) > 0 and min(attempts) == 0
    rows = np.array(rows)
    got = complete_unitary_frames(sig, {sig.n - 1: rows})
    for k in range(len(rows)):
        assert np.array_equal(got[k], _ref_complete(sig, {sig.n - 1: rows[k]}))
    # a failing row fails the batch as it fails alone
    assert any("degenerate complement" in msg for _, msg in failing)
    for q, msg in failing:
        with pytest.raises(FrameError) as info:
            complete_unitary_frames(sig, {sig.n - 1: np.array([rows[0], q, rows[1]])})
        assert str(info.value) == msg


def test_first_invalid_fixed_column_decides_the_error():
    sig = Signature(3, 1)
    q, eta = _draws(sig, 6, 5)
    fixed = _fixed_pairs(sig, q, eta, timelike=False)
    assert len(fixed[sig.n - 1]) >= 3
    fixed[sig.n - 1] = fixed[sig.n - 1].copy()
    fixed[sig.n] = fixed[sig.n].copy()
    # row 2 fails the first check (the norm of slot n-1), row 1 a later one
    # (slot n is off its unit norm): row 1 decides, as in a row-by-row loop
    fixed[sig.n - 1][2] = 2.0 * fixed[sig.n - 1][2]
    fixed[sig.n][1] = fixed[sig.n][1] + 0.3 * fixed[sig.n - 1][1]
    with pytest.raises(FrameError) as info:
        _ref_complete(sig, {slot: v[1] for slot, v in fixed.items()})
    want = str(info.value)
    assert "slot 3" in want
    with pytest.raises(FrameError) as info:
        complete_unitary_frames(sig, fixed)
    assert str(info.value) == want
    with pytest.raises(FrameError, match="out of range"):
        complete_unitary_frames(sig, {sig.ambient_dim: fixed[sig.n - 1]})


@pytest.mark.parametrize("sig", [Signature(3, 1), Signature(4, 2)], ids=str)
def test_isometries_match_scalar_and_first_bad_row_decides(sig):
    q, eta = _draws(sig, 30, 6)
    got = frame_to_isometries(sig, q, eta)
    for k in range(len(q)):
        want = _ref_frame_to_isometry(sig, q[k], eta[k]).entries
        assert np.array_equal(got[k].entries, want)
        assert np.array_equal(frame_to_isometry(sig, q[k], eta[k]).entries, want)
    bad_q, bad_eta = q.copy(), eta.copy()
    bad_eta[4] = bad_eta[4] + 0.5 * q[4]  # not horizontal
    bad_q[7] = 1.5 * bad_q[7]  # off the sphere
    light = np.zeros(sig.ambient_dim, dtype=complex)
    light[0], light[2] = 1.0, 1.0
    bad_eta[2] = light  # lightlike
    cases = [
        (bad_q, eta, SpherePointError),
        (q, bad_eta, CausalCharacterError),
        (bad_q[3:], bad_eta[3:], FrameError),
    ]
    for qq, ee, error in cases:
        with pytest.raises(error):
            frame_to_isometries(sig, qq, ee)


# ---------------------------------------------------------------------------
# the seeded suites
# ---------------------------------------------------------------------------


def test_curvature_lines_match_scalar_loop():
    """The lines ``verify`` reports: 200 draws per signature, seed 0."""
    assert [line.residual for line in curvature_lines()] == _ref_curvature_lines(200)


def test_unitary_frame_lines_match_scalar_loop():
    assert [line.residual for line in unitary_frame_lines()] == _ref_unitary_frame_lines(
        Signature(3, 1), 100
    )


# ---------------------------------------------------------------------------
# regeneration chains
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "example_id,seed_r",
    [(1, None), (2, None), (3, None), (4, None), (1, 0.76), (1, 0.79)],
    ids=["1", "2", "3", "4", "1-r0.76", "1-r0.79"],
)
def test_regeneration_is_the_oracles_base_line(example_id, seed_r):
    sig = example_spec(example_id).sig
    seed = None if seed_r is None else gamma_seed(sig, seed_r)
    data = example_integral_curve(example_spec(example_id, sig, seed))
    par = transport_basis(data.curve)
    step = 2e-3
    want_curve, _, upath = _ref_regenerate(par, step=step)
    # the RK4 path through (0, 0) is the base line at unit parameter speed
    assert np.max(np.abs(upath[:, 1:])) <= 1e-10
    assert np.max(np.abs(np.abs(np.diff(upath[:, 0])) - step)) <= 1e-10

    curve, defect = regenerate_integral_curve(par)
    assert defect < 1e-6
    assert np.array_equal(curve.params, want_curve.params)
    assert np.max(np.abs(curve.lifts - want_curve.lifts)) <= 1e-8

    report = classify_generating_curve(curve)
    assert report.case is data.predicted_case
    assert report.kind == data.kind
    assert abs(report.kappa1 - np.sqrt(abs(data.accel_square))) <= 1e-10
    try:
        want = classify_generating_curve(want_curve)
    except ClassificationError:
        # the re-lifted oracle curve misses its Frenet gates near pi/4
        assert seed_r == 0.79
    else:
        assert (want.case, want.kind) == (report.case, report.kind)
