"""Stacked frame completion, the seeded suites and the base-line check
against the scalar references in ``oracles``.

The references are the scalar bodies: frame completion one row at a time
(list candidates, a strict ``>`` pivot scan, restarts drawn from a fresh
``default_rng(0)``), the one-point frame isometry, the curvature tensor of
Python floats, and the two seeded suites evaluated point by point at the
suites' own draws. The arithmetic is unchanged, so those comparisons ask
for equality. With several bad rows, a stack raises the first check that
any row fails, in the order of a one-row call.

The RK4 regeneration (the +step chain to its end, then the -step chain) is
the reference of the base-line check that replaced it: its path must be
the base line, and the lifts and classification must agree to tolerance.
"""

import numpy as np
import pytest

from oracles import (
    _ref_complete,
    _ref_complete_attempt,
    _ref_curvature_lines,
    _ref_frame_to_isometry,
    _ref_regenerate,
    _ref_unitary_frame_lines,
    random_horizontal_unit,
    random_sphere_point,
)
from pseudocp.errors import CausalCharacterError, ClassificationError, FrameError, SpherePointError
from pseudocp.examples import example_integral_curve, example_spec, gamma_seed
from pseudocp.frames import complete_unitary_frames
from pseudocp.isometries import frame_to_isometries, frame_to_isometry
from pseudocp.linalg import CausalCharacter, Signature, causal_character, gdot_rows
from pseudocp.ruled import classify_generating_curve, regenerate_integral_curve, transport_basis
from pseudocp.verification import ACCEPTANCE_SIGNATURES, curvature_lines, unitary_frame_lines


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def _character(k):
    return CausalCharacter.SPACELIKE if k % 2 == 0 else CausalCharacter.TIMELIKE


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
        assert np.array_equal(got[k], complete_unitary_frames(sig, {sig.n - 1: q[k : k + 1]})[0])


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
    # (slot n is off its unit norm): the first check raises, with row 2's value
    fixed[sig.n - 1][2] = 2.0 * fixed[sig.n - 1][2]
    fixed[sig.n][1] = fixed[sig.n][1] + 0.3 * fixed[sig.n - 1][1]
    for row, slot in ((2, sig.n - 1), (1, sig.n)):
        with pytest.raises(FrameError, match=f"slot {slot} "):
            _ref_complete(sig, {s: v[row] for s, v in fixed.items()})
    with pytest.raises(FrameError) as info:
        _ref_complete(sig, {slot: v[2] for slot, v in fixed.items()})
    want = str(info.value)
    with pytest.raises(FrameError) as info:
        complete_unitary_frames(sig, fixed)
    assert str(info.value) == want
    # with row 2 mended, row 1's later check raises
    fixed[sig.n - 1][2] = 0.5 * fixed[sig.n - 1][2]
    with pytest.raises(FrameError, match=f"slot {sig.n} "):
        complete_unitary_frames(sig, fixed)
    with pytest.raises(FrameError, match="out of range"):
        complete_unitary_frames(sig, {sig.ambient_dim: fixed[sig.n - 1]})


@pytest.mark.parametrize("sig", [Signature(3, 1), Signature(4, 2)], ids=str)
def test_isometries_match_scalar_and_first_bad_row_decides(sig):
    q, eta = _draws(sig, 30, 6)
    got = frame_to_isometries(sig, q, eta)
    for k in range(len(q)):
        want = _ref_frame_to_isometry(sig, q[k], eta[k]).entries
        assert np.array_equal(got[k], want)
        assert np.array_equal(frame_to_isometry(sig, q[k], eta[k]).entries, want)
    bad_q, bad_eta = q.copy(), eta.copy()
    bad_eta[4] = bad_eta[4] + 0.5 * q[4]  # not horizontal
    bad_q[7] = 1.5 * bad_q[7]  # off the sphere
    light = np.zeros(sig.ambient_dim, dtype=complex)
    light[0], light[2] = 1.0, 1.0
    bad_eta[2] = light  # lightlike
    # the checks run sphere, causal type, horizontality; the first that any
    # row fails raises, even when a lower row fails a later check
    cases = [
        (bad_q, eta, SpherePointError),
        (q, bad_eta, CausalCharacterError),
        (bad_q[3:], bad_eta[3:], SpherePointError),
        (q[3:], bad_eta[3:], FrameError),
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
