"""Stacked shape operators, Weingarten images and the structure identity:
each row of a stacked call against the one-row call of the same kernel, and
the Weingarten map and shape matrix against the nested difference of
numeric normals (``oracles._nested_weingarten``).

The one-row comparisons ask for equality; the nested reference is another
numerical method and is compared within 1e-6 (the worst measured gap is
3.5e-7 on the shape matrix of family 2 at (5,1)).
"""

import numpy as np
import pytest

from oracles import _family_patch, _nested_weingarten, _par, _ref_shape_matrix, _sphere_patch, helix_curve
from pseudocp.isometries import boost, frame_to_isometry
from pseudocp.linalg import Signature, gdot_rows
from pseudocp.projective import random_horizontal_units, random_sphere_points
from pseudocp.ruled import (
    TransformedPatch,
    codazzi_residual,
    hypersurface_frames,
    leaf_coordinate_grid,
    shape_operator_at,
    shape_operators,
    structure_field_identity,
    transport_basis,
    weingarten_apply,
)

# ---------------------------------------------------------------------------
# patches
# ---------------------------------------------------------------------------


def _family(example_id, sig, t=None):
    patch = _family_patch(example_id, sig, t)
    par = patch if t is None else patch.inner
    return patch, leaf_coordinate_grid(par, 2, 2)[:3]


def _sphere():
    patch = _sphere_patch()
    rng = np.random.default_rng(4)
    return patch, 0.1 * rng.standard_normal((3, patch.n_params))


CASES = {
    "family1_3_1": lambda: _family(1, Signature(3, 1)),
    "family1_4_2": lambda: _family(1, Signature(4, 2)),
    "family2_4_1": lambda: _family(2, Signature(4, 1)),
    "family2_5_1": lambda: _family(2, Signature(5, 1)),
    "family3_3_2": lambda: _family(3, Signature(3, 2)),
    "family3_4_2": lambda: _family(3, Signature(4, 2)),
    "family4_3_2": lambda: _family(4, Signature(3, 2)),
    "family4_4_2": lambda: _family(4, Signature(4, 2)),
    "family2_boost_t0.4": lambda: _family(2, Signature(4, 1), t=0.4),
    "family3_boost_t0.4": lambda: _family(3, Signature(3, 2), t=0.4),
    "sphere": _sphere,
}


@pytest.mark.parametrize("name", list(CASES))
def test_stacked_shape_operators_equal_the_pointwise_loop(name):
    """Every row of one stacked call equals ``shape_operator_at`` at its
    row bit for bit; its matrix and mu are within 1e-6 of the nested
    reference on the row's own adapted basis."""
    patch, rows = CASES[name]()
    reports = shape_operators(patch, rows)
    assert reports.matrix.shape[0] == len(rows)
    for i, u in enumerate(rows):
        one = shape_operator_at(patch, u)
        for field in ("matrix", "basis", "basis_signs", "u_vec", "mu", "lam", "dd_block_max"):
            assert np.array_equal(getattr(one, field), getattr(reports, field)[[i]])
        for field in ("rows", "lift", "tangents", "normal", "epsilon"):
            assert np.array_equal(getattr(one.frame, field), getattr(reports.frame, field)[[i]])
        want = _ref_shape_matrix(patch, u, reports.basis[i], reports.basis_signs[i])
        assert np.max(np.abs(reports.matrix[i] - want)) < 1e-6
        xi = one.frame.xi
        mu = gdot_rows(patch.sig.signs, _nested_weingarten(one.frame, xi), xi)
        assert abs(reports.mu[i] - mu[0]) < 1e-6


@pytest.mark.parametrize("name", ["family1_3_1", "family3_4_2", "family2_boost_t0.4"])
def test_structure_field_identity_equals_the_pointwise_loop(name):
    """The residual of every row of a stacked call equals the one-row call."""
    patch, rows = CASES[name]()
    frames = hypersurface_frames(patch, rows)
    x = frames.unit_tangents(np.random.default_rng(2).standard_normal(rows.shape))
    got = structure_field_identity(frames, x)
    assert got.shape == (len(rows),)
    for i in range(len(rows)):
        assert np.array_equal(got[[i]], structure_field_identity(frames.row([i]), x[[i]]))


@pytest.mark.parametrize("name", list(CASES))
def test_gauss_formula_matches_the_nested_normal_difference(name):
    """The Weingarten images of xi and of two random tangents agree with the
    extrapolated difference of numeric normals within 1e-6 max(1, |A x|),
    at every row."""
    patch, rows = CASES[name]()
    frames = hypersurface_frames(patch, rows)
    rng = np.random.default_rng(5)
    xs = np.stack([frames.xi, frames.unit_tangents(rng.standard_normal(rows.shape)),
                   frames.unit_tangents(rng.standard_normal(rows.shape))], axis=1)
    got = weingarten_apply(frames, xs)
    for i in range(len(rows)):
        want = _nested_weingarten(frames.row([i]), xs[i])
        scale = max(1.0, float(np.max(np.sqrt(np.sum(np.abs(want) ** 2, axis=-1)))))
        assert np.max(np.abs(got[i] - want)) <= 1e-6 * scale


@pytest.mark.parametrize("t", [1.0, 2.0, 3.0])
@pytest.mark.parametrize("example_id", [1, 2, 3, 4])
def test_codazzi_holds_under_a_boost(example_id, t):
    """The Codazzi residual of a default family moved by exp(t B) stays
    within 1e-4 at the cross-check point of ``verify``: s = 0.05 and the
    leaf coordinates of the first grid row, rng seed 11."""
    par = _par(example_id)
    u = np.concatenate([[0.05], leaf_coordinate_grid(par, 5, 4, radius=0.25)[0, 1:]])
    patch = TransformedPatch(boost(par.sig, t), par)
    assert codazzi_residual(patch, u, np.random.default_rng(11)) <= 1e-4


def test_random_isometries_keep_the_signed_mu_of_a_non_minimal_patch():
    """mu = g(A xi, xi) changes sign with the normal, so it is an invariant
    of the oriented hypersurface only. On the helix patch, which is not
    minimal, ten random holomorphic isometries (``frame_to_isometry`` at
    random sphere points and horizontal directions) keep mu on the 5x4 leaf
    grid row by row within 1e-6."""
    par = transport_basis(helix_curve())
    rows = leaf_coordinate_grid(par, 5, 4)
    mu = shape_operators(par, rows).mu
    assert np.max(np.abs(mu)) > 1e-2
    rng = np.random.default_rng(0)
    for _ in range(10):
        q = random_sphere_points(par.sig, 1, rng)
        iso = frame_to_isometry(par.sig, q[0], random_horizontal_units(par.sig, q, rng, [False])[0])
        moved = shape_operators(TransformedPatch(iso, par), rows).mu
        assert np.max(np.abs(moved - mu)) <= 1e-6
