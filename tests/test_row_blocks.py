"""Row blocks of the patch kernels: ``RHSPatch.lifts_at`` and
``hypersurface_frames`` evaluate a stack in blocks of ``ruled._ROW_BLOCK``
lift rows.

Every step is row-wise, so a block of one row, a partial last block and a
single block holding the whole stack give bit-equal results in every kernel
built on them; the error policy still runs over all rows. The blocks bound
the memory of a stack: the traced peak of the base-line regeneration no
longer grows with its stencil rows.
"""

import tracemalloc

import numpy as np
import pytest

from oracles import _family_patch
from pseudocp import ruled
from pseudocp.examples import example_integral_curve, example_spec, gamma_seed
from pseudocp.linalg import Signature
from pseudocp.ruled import (
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
    rows = leaf_coordinate_grid(patch.par, 5, 4)
    moved = rows + 2e-3
    frames = hypersurface_frames(patch, rows)
    stacked_ref = hypersurface_frames(patch, moved, ref=frames)
    point_ref = hypersurface_frames(patch, moved, ref=frames.row(0))
    reports = shape_operators(patch, rows)
    curve, defect = regenerate_integral_curve(patch.par)
    return [
        patch.lifts_at(np.concatenate([rows, moved])),
        *(
            getattr(f, name)
            for f in (frames, stacked_ref, point_ref)
            for name in ("lift", "tangents", "normal", "epsilon")
        ),
        np.array([r.matrix for r in reports]),
        np.array([r.basis for r in reports]),
        np.array([r.mu for r in reports]),
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


def test_regeneration_peak_memory_is_bounded():
    """Family 1 at (6,1), seed_r 0.5: the base-line regeneration evaluates
    351 frames, 8073 stencil lifts. Gathering one Hermite frame per lift
    for the whole stack peaked at 12.1 MB of traced memory; in row blocks
    it peaks near 2.3 MB."""
    sig = Signature(6, 1)
    spec = example_spec(1, sig, gamma_seed(sig, 0.5))
    par = transport_basis(example_integral_curve(spec).curve)
    tracemalloc.start()
    try:
        regenerate_integral_curve(par)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6_000_000, peak
