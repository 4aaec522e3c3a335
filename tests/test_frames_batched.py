"""Batched hypersurface frames against the scalar stencil loop, and the
stacked Weingarten map and shape matrix against their one-row calls and the
nested reference.

The frame reference (``oracles._ref_frame``) is the frame code the batched
kernel replaced: each stencil lift comes from its own one-row ``lifts_at``
call, is phase-aligned to the centre lift and differenced one parameter at a
time; frames match it within 1e-12. The shape matrix is compared with the
nested difference of numeric normals (``oracles._ref_shape_matrix``) within
1e-6.
"""

import re
from dataclasses import replace

import numpy as np
import pytest

from oracles import (
    _family_patch,
    _ref_aligned,
    _ref_frame,
    _ref_shape_matrix,
    _sphere_patch,
    _SyntheticPatch,
)
from pseudocp import ruled
from pseudocp.errors import ChartError, DegenerateHypersurfaceError, ImmersionError, LiftError
from pseudocp.linalg import Signature
from pseudocp.ruled import (
    CHART_RADIUS,
    INNER_FD_STEP,
    hypersurface_frame,
    hypersurface_frames,
    leaf_coordinate_grid,
    rhs_lift,
    second_forms,
    shape_operator_at,
    shape_operators,
    weingarten_apply,
)

# ---------------------------------------------------------------------------
# patches under test
# ---------------------------------------------------------------------------


def _point(patch, seed):
    rng = np.random.default_rng(seed)
    u = 0.1 * rng.standard_normal(patch.n_params)
    u[0] = rng.uniform(-0.3, 0.3)
    return u


PATCHES = {
    "family1": lambda: _family_patch(1),
    "family2": lambda: _family_patch(2),
    "family3": lambda: _family_patch(3),
    "family4": lambda: _family_patch(4),
    "family2_t": lambda: _family_patch(2, t=0.37),
    "sphere": _sphere_patch,
}


@pytest.mark.parametrize("name", sorted(PATCHES))
def test_frames_match_scalar_stencils(name):
    """Lift, tangents and normal of a batch within 1e-12 of the scalar loop;
    each row equals the one-row call bit for bit."""
    patch = PATCHES[name]()
    rows = np.array([_point(patch, seed) for seed in range(3)])
    got = hypersurface_frames(patch, rows)
    for i, u in enumerate(rows):
        want = _ref_frame(patch, u)
        row = got.row([i])
        assert np.max(np.abs(row.lift - want.lift)) < 1e-12
        assert np.max(np.abs(row.tangents - want.tangents)) < 1e-12
        assert np.max(np.abs(row.normal - want.normal)) < 1e-12
        assert np.array_equal(row.epsilon, want.epsilon)
        one = hypersurface_frame(patch, u)
        for field in ("lift", "tangents", "normal", "epsilon"):
            assert np.array_equal(getattr(row, field), getattr(one, field))


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
        assert np.max(np.abs(got.lift[[i]] - want.lift)) < 1e-12
        assert np.max(np.abs(got.normal[[i]] - want.normal)) < 1e-12


@pytest.mark.parametrize("name", ["family1", "family2_t", "sphere"])
def test_frames_carry_their_patch_and_rows(name):
    """A stack of frames holds the patch it was measured on and a copy of
    its parameter rows, through ``row``, through a ``ref`` call and on a
    moved patch; the second forms of selected rows equal those rows of the
    stacked call bit for bit."""
    patch = PATCHES[name]()
    rows = np.array([_point(patch, seed) for seed in range(4)])
    reused = rows.copy()
    frames = hypersurface_frames(patch, reused)
    reused += 1.0
    assert frames.patch is patch and frames.sig is patch.sig
    assert np.array_equal(frames.rows, rows)
    moved = rows + 1e-3
    aligned = hypersurface_frames(patch, moved, ref=frames.row([0]))
    assert aligned.patch is patch and np.array_equal(aligned.rows, moved)
    forms = second_forms(frames)
    for idx in ([2], [3, 1], slice(1, 3)):
        part = frames.row(idx)
        assert part.patch is patch
        assert np.array_equal(part.rows, rows[idx])
        assert np.array_equal(second_forms(part), forms[idx])


@pytest.mark.parametrize("name", sorted(PATCHES))
def test_weingarten_stack_matches_scalar(name, rng):
    """Each image of a stacked call, three vectors at each of two points,
    equals the one-row call on that one vector bit for bit."""
    patch = PATCHES[name]()
    rows = np.array([_point(patch, seed) for seed in (7, 8)])
    frames = hypersurface_frames(patch, rows)
    coeff = rng.standard_normal((2,) + rows.shape)
    xs = np.stack([frames.xi, frames.unit_tangents(coeff[0]), frames.unit_tangents(coeff[1])], axis=1)
    got = weingarten_apply(frames, xs)
    assert got.shape == xs.shape
    for i in range(len(rows)):
        for x, ax in zip(xs[i], got[i]):
            assert np.array_equal(ax, weingarten_apply(frames.row([i]), x[None])[0])


@pytest.mark.parametrize("name", sorted(PATCHES))
def test_shape_matrix_matches_scalar(name):
    """The shape matrix within 1e-6 of the nested reference on the same
    adapted basis."""
    patch = PATCHES[name]()
    u = _point(patch, 11)
    rep = shape_operator_at(patch, u)
    want = _ref_shape_matrix(patch, u, rep.basis[0], rep.basis_signs[0])
    assert np.max(np.abs(rep.matrix[0] - want)) < 1e-6


@pytest.mark.parametrize("example_id", [1, 2, 3, 4])
def test_rhs_lift_is_row_zero_of_lifts_at(example_id):
    """``rhs_lift`` is the one-row case of ``lifts_at`` bit for bit, and
    the rows of ``leaf_coordinate_grid`` pair its base parameters with its
    leaf coordinates in (s, c) order."""
    patch = _family_patch(example_id)
    rows = np.array([_point(patch, seed) for seed in range(4)])
    batch = patch.lifts_at(rows)
    for k, u in enumerate(rows):
        one = rhs_lift(patch, u[0], u[1:])
        assert np.array_equal(one, patch.lifts_at(rows[k:])[0])
        assert np.array_equal(one, batch[k])
    grid = leaf_coordinate_grid(patch, 2, 3)
    lifts = patch.lifts_at(grid).reshape(2, 3, -1)
    for i, s in enumerate(grid[::3, 0]):
        for j, c in enumerate(grid[:3, 1:]):
            assert np.array_equal(lifts[i, j], rhs_lift(patch, s, c))


# ---------------------------------------------------------------------------
# per-row errors in mixed batches
# ---------------------------------------------------------------------------


SIG21 = Signature(2, 1)
Q0 = np.array([0, 0, 1], dtype=complex)
GOOD = _SyntheticPatch(SIG21, Q0, [[1, 0, 0], [1j, 0, 0], [0, 1, 0]])
RANK_DEFICIENT = _SyntheticPatch(SIG21, Q0, [[1, 0, 0], [2, 0, 0], [0, 1, 0]])
DEGENERATE = _SyntheticPatch(SIG21, Q0, [[1, 1, 0], [1j, 0, 0], [0, 1j, 0]])


class _NonFinite:
    """A patch whose every lift holds one infinite entry."""

    sig = SIG21
    n_params = 3

    def lifts_at(self, rows):
        return np.tile(np.array([0.0, 0.0, np.inf], dtype=complex), (len(rows), 1))


class _Regions:
    """Rows with u[0] near 10 k are evaluated by the k-th patch, around 0."""

    def __init__(self, *patches):
        self.parts = patches
        self.sig = patches[0].sig
        self.n_params = 3

    def lifts_at(self, rows):
        k = np.rint(rows[:, 0] / 10.0).astype(int)
        local = rows.copy()
        local[:, 0] -= 10.0 * k
        return np.array([self.parts[j].lifts_at(u[None])[0] for j, u in zip(k.tolist(), local)])


def _rows(*regions):
    return np.array([[10.0 * k, 0.0, 0.0] for k in regions])


def test_good_rows_of_a_mixed_patch_pass():
    patch = _Regions(GOOD, RANK_DEFICIENT, DEGENERATE)
    frames = hypersurface_frames(patch, _rows(0, 0))
    assert frames.normal.shape == (2, 3)


BAD_ROWS = [
    ((0, 1, 0), ImmersionError),
    ((0, 0, 2), DegenerateHypersurfaceError),
    ((2, 0, 2), DegenerateHypersurfaceError),
    ((2, 1), ImmersionError),
    ((1, 2), ImmersionError),
]


@pytest.mark.parametrize("regions,error", BAD_ROWS)
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


@pytest.mark.parametrize("regions,error", BAD_ROWS)
def test_first_bad_row_decides_the_error_in_blocks_of_one(monkeypatch, regions, error):
    """With one point per frame block the bad rows sit in different blocks;
    the checks still run over all rows, so the same error raises."""
    monkeypatch.setattr(ruled, "_ROW_BLOCK", 1)
    test_first_bad_row_decides_the_error(regions, error)


@pytest.mark.parametrize("regions,error", BAD_ROWS)
def test_first_bad_row_decides_the_shape_error_in_point_blocks_of_one(monkeypatch, regions, error):
    """``shape_operators`` with one point per block of every kernel: the
    frames of all rows come first and run their checks over all rows, so
    the same error raises."""
    monkeypatch.setattr(ruled, "_points_per_block", lambda width, blocks=1: 1)
    with pytest.raises(error):
        shape_operators(_Regions(GOOD, RANK_DEFICIENT, DEGENERATE), _rows(*regions))


def test_out_of_chart_stencil_row_raises_chart_error_in_blocks_of_one(monkeypatch):
    """The centre whose stencil leaves the chart is the second block."""
    monkeypatch.setattr(ruled, "_ROW_BLOCK", 1)
    test_out_of_chart_stencil_row_raises_chart_error()


def _first_non_finite(rows):
    """The LiftError message that names ``rows`` as the first bad lift row."""
    return re.escape(f"u = {rows.tolist()} is not finite")


@pytest.mark.parametrize("block", [1, None], ids=["blocks_of_one", "default_blocks"])
def test_non_finite_lift_raises_lift_error_first(monkeypatch, block):
    """A non-finite lift is refused before any arithmetic on it (which would
    warn, then fail the SVD). The lowest bad row raises, and it raises before
    the rank defect of an earlier row: every lift comes first, as the error
    policy of ``frames`` asks, in blocks of one point and in the default
    blocks."""
    if block is not None:
        monkeypatch.setattr(ruled, "_ROW_BLOCK", block)
    patch = _Regions(GOOD, RANK_DEFICIENT, DEGENERATE, _NonFinite())
    rows = _rows(1, 0, 3, 3)
    rows[3, 1] = 0.5
    with pytest.raises(LiftError, match=_first_non_finite(rows[2])):
        hypersurface_frames(patch, rows)


def test_second_forms_refuse_a_non_finite_lift():
    """The Gauss-formula stencil takes its lifts from the same place: frames
    measured at good rows, then moved to rows whose stencils reach a
    non-finite lift (a frame there would raise first)."""
    patch = _Regions(GOOD, RANK_DEFICIENT, DEGENERATE, _NonFinite())
    frames = hypersurface_frames(patch, _rows(0, 0))
    with pytest.raises(LiftError, match=_first_non_finite(_rows(3)[0])):
        second_forms(replace(frames, rows=_rows(0, 3)))
