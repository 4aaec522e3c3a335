"""Row blocks of the patch kernels: ``RHSParametrization.lifts_at`` and
``hypersurface_frames`` evaluate a stack in blocks of ``ruled._ROW_BLOCK``
lift rows, ``second_forms`` and ``shape_operators`` in blocks of points
(``ruled._points_per_block``), and the transport forms its curve states
and propagators ``ruled._STEP_BLOCK`` steps at a time.

Every step is row-wise, so a block of one row, a partial last block and a
single block holding the whole stack give bit-equal results in every kernel
built on them; the frames' error policy still runs over all rows. The
blocks bound the memory of a stack: the traced peaks of the base-line
regeneration and of a shape sweep no longer grow with their stencil rows.
"""

import re
import tracemalloc

import numpy as np
import pytest

from oracles import _family_patch
from pseudocp import ruled
from pseudocp.errors import ChartError, LiftError
from pseudocp.examples import example_integral_curve, example_spec, gamma_seed
from pseudocp.linalg import Signature
from pseudocp.ruled import (
    RHSParametrization,
    hypersurface_frames,
    leaf_coordinate_grid,
    regenerate_integral_curve,
    shape_operators,
    transport_basis,
)

#: a block of one lift row (one point per frame block), a size that leaves
#: partial blocks, and one above every stack of these tests
BLOCKS = [1, 7, 10**9]


def _outputs(patch):
    """Every array the blocked kernels return on one family patch."""
    rows = leaf_coordinate_grid(patch, 5, 4)
    moved = rows + 2e-3
    frames = hypersurface_frames(patch, rows)
    stacked_ref = hypersurface_frames(patch, moved, ref=frames)
    point_ref = hypersurface_frames(patch, moved, ref=frames.row([0]))
    reports = shape_operators(patch, rows)
    curve, defect = regenerate_integral_curve(patch)
    return [
        patch.lifts_at(np.concatenate([rows, moved])),
        *(
            getattr(f, name)
            for f in (frames, stacked_ref, point_ref)
            for name in ("rows", "lift", "tangents", "normal", "epsilon")
        ),
        reports.matrix,
        reports.basis,
        np.stack([reports.mu, reports.lam, reports.dd_block_max]),
        reports.rank,
        reports.frame.normal,
        curve.lifts,
        np.array([defect]),
    ]


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("example_id", [1, 2, 3, 4])
def test_blocks_give_bit_equal_results(monkeypatch, example_id, block):
    patch = _family_patch(example_id)
    want = _outputs(patch)
    monkeypatch.setattr(ruled, "_ROW_BLOCK", block)
    got = _outputs(patch)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("example_id", [1, 2, 3, 4])
def test_point_blocks_give_bit_equal_results(monkeypatch, example_id, block):
    """The frame, second-form and shape blocks all at ``block`` points."""
    patch = _family_patch(example_id)
    want = _outputs(patch)
    monkeypatch.setattr(ruled, "_points_per_block", lambda width, blocks=1: block)
    got = _outputs(patch)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


def _curve_61():
    sig = Signature(6, 1)
    return example_integral_curve(example_spec(1, sig, gamma_seed(sig, 0.5))).curve


TRANSPORT_CURVES = {
    **{f"family{k}": (lambda k=k: example_integral_curve(example_spec(k)).curve) for k in (1, 2, 3, 4)},
    "family1_61": _curve_61,
}


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("name", sorted(TRANSPORT_CURVES))
def test_transport_step_blocks_give_bit_equal_frames(monkeypatch, name, block):
    curve = TRANSPORT_CURVES[name]()
    want = transport_basis(curve)
    monkeypatch.setattr(ruled, "_STEP_BLOCK", block)
    got = transport_basis(curve)
    for field in ("frame_samples", "frame_derivs", "velocity"):
        assert np.array_equal(getattr(got, field), getattr(want, field)), field


class _NanNearPatch:
    """A family patch whose lifts are NaN between 5e-4 and 3e-3 off the
    base parameter ``s_nan``: the second-form stencils of a row at
    ``s_nan`` reach them, its frame stencils (1e-4 off) do not."""

    def __init__(self, inner: RHSParametrization, s_nan: float):
        self.inner = inner
        self.sig = inner.sig
        self.n_params = inner.n_params
        self.s_nan = s_nan

    def lifts_at(self, rows):
        w = self.inner.lifts_at(rows)
        off = np.abs(rows[:, 0] - self.s_nan)
        w[(off > 5e-4) & (off < 3e-3)] = np.nan
        return w


def test_second_form_failures_raise_from_the_first_failing_block(monkeypatch):
    """Two rows whose frames pass but whose second forms fail: one reaches
    NaN lifts, one leaves the curve's s range (a ChartError). With one
    point per block the earlier of the two decides the error, in either
    order."""
    inner = _family_patch(1)
    patch = _NanNearPatch(inner, 0.1)
    lift_bad = np.array([0.1, 0.05, 0.0, 0.0, 0.0])
    chart_bad = np.array([inner.s_range()[1] - 5e-4, 0.05, 0.0, 0.0, 0.0])
    good = np.array([[0.0, 0.05, 0.0, 0.0, 0.0], [-0.1, 0.0, 0.05, 0.0, 0.0]])
    monkeypatch.setattr(ruled, "_points_per_block", lambda width, blocks=1: 1)
    with pytest.raises(LiftError, match=re.escape("u = [0.10")):
        shape_operators(patch, np.stack([good[0], lift_bad, good[1], chart_bad]))
    with pytest.raises(ChartError, match="base parameter outside the curve range"):
        shape_operators(patch, np.stack([good[0], chart_bad, good[1], lift_bad]))


def test_regeneration_peak_memory_is_bounded():
    """Family 1 at (6,1), seed_r 0.5: the base-line regeneration evaluates
    351 frames, 8073 stencil lifts. Gathering one Hermite frame per lift
    for the whole stack peaked at 12.1 MB of traced memory; in row blocks
    it peaks near 2.3 MB."""
    par = transport_basis(_curve_61())
    tracemalloc.start()
    try:
        regenerate_integral_curve(par)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6_000_000, peak


def test_shape_sweep_peak_memory_is_bounded():
    """Family 1 at (6,1), seed_r 0.5, a 40 x 12 grid: 480 points of 265
    second-form stencil lifts each. Holding every stencil lift of the stack
    peaked at 66.0 MB of traced memory; in point blocks it peaks near
    5.6 MB, against 2.5 MB at 20 points, the difference being mostly the
    reports the call returns."""
    par = transport_basis(_curve_61())
    rows = leaf_coordinate_grid(par, 40, 12)
    tracemalloc.start()
    try:
        shape_operators(par, rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12_000_000, peak
