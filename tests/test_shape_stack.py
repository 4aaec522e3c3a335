"""Stacked shape operators, Codazzi residual and structure identity against
pointwise loops.

The oracles are the pointwise bodies: a Weingarten map whose four normals
per vector are aligned to one reference frame, the shape operator of one
point with its own frame call and two Weingarten calls, a Codazzi residual
with one Weingarten call per moved frame, and a structure identity with one
frame call per moved point. Every difference, inner or outer, is the
central difference at steps h and h/2 combined as (4 D(h/2) - D(h)) / 3,
written out here. The stacked path runs the same arithmetic row by row, so
the comparisons ask for equality.
"""

import numpy as np
import pytest

from pseudocp.examples import example_integral_curve, example_spec, ruling_isometry
from pseudocp.linalg import CausalCharacter, Signature, causal_character, gdot_rows, real_metric
from pseudocp.projective import canonicalize
from pseudocp.ruled import (
    INNER_FD_STEP,
    NUMERIC_LIGHT_TOL,
    OUTER_FD_STEP,
    GeodesicSpherePatch,
    RHSPatch,
    ShapeForm,
    TransformedPatch,
    adapted_basis,
    codazzi_residual,
    hypersurface_frame,
    hypersurface_frames,
    leaf_coordinate_grid,
    shape_operator_at,
    shape_operators,
    structure_field_identity,
    transport_basis,
)

# ---------------------------------------------------------------------------
# pointwise oracles
# ---------------------------------------------------------------------------


def _extrapolated(plus, minus, half_plus, half_minus, h):
    """(4 D(h/2) - D(h)) / 3 from values at +-h and +-h/2."""
    hh = 0.5 * h
    d1 = (plus - minus) / (2.0 * h)
    d2 = (half_plus - half_minus) / (2.0 * hh)
    return (4.0 * d2 - d1) / 3.0


def _oracle_weingarten(patch, frame0, u, x):
    h = INNER_FD_STEP
    x = np.asarray(x, dtype=complex)
    a = frame0.tangent_coords(x.reshape(-1, x.shape[-1]))
    offsets = np.array([h, -h, 0.5 * h, -0.5 * h])[:, None, None] * a
    nu = hypersurface_frames(patch, (u + offsets).reshape(-1, a.shape[1]), ref=frame0).normal
    nu = nu.reshape(4, a.shape[0], -1)
    return -frame0.tangential(_extrapolated(*nu, h)).reshape(x.shape)


def _oracle_shape(patch, u):
    u = np.asarray(u, dtype=float)
    frame = hypersurface_frame(patch, u)
    sig = patch.sig
    axi = _oracle_weingarten(patch, frame, u, frame.xi)
    mu = real_metric(sig, axi, frame.xi)
    uvec = axi - frame.epsilon * mu * frame.xi
    uchar = causal_character(sig, uvec, NUMERIC_LIGHT_TOL)
    pin = uvec if uchar in (CausalCharacter.SPACELIKE, CausalCharacter.TIMELIKE) else None
    basis, bsigns = adapted_basis(frame, first=pin)
    images = np.concatenate([axi[None], _oracle_weingarten(patch, frame, u, basis[1:])])
    bil = gdot_rows(sig.signs, images[None, :, :], basis[:, None, :])
    matrix = bsigns[:, None] * bil
    sv = np.linalg.svd(matrix, compute_uv=False)
    if float(np.max(np.abs(bil))) <= 1e-4:
        form = ShapeForm.VANISHING
    elif uchar is CausalCharacter.LIGHTLIKE:
        form = ShapeForm.LIGHTLIKE_U
    else:
        form = ShapeForm.RANK_TWO_NON_NULL_U
    return {
        "matrix": matrix,
        "mu": float(mu),
        "dd_block_max": float(np.max(np.abs(bil[1:, 1:]))),
        "rank": int(np.sum(sv > 1e-3 * max(1.0, sv[0]))),
        "form": form,
        "basis": basis,
    }


def _oracle_codazzi(patch, u, rng):
    sig = patch.sig
    h = OUTER_FD_STEP
    u = np.asarray(u, dtype=float)
    frame = hypersurface_frame(patch, u)
    x = frame.random_tangent(rng)
    y = frame.random_tangent(rng)
    ax_dir = frame.tangent_coords(x)
    ay_dir = frame.tangent_coords(y)
    steps = [h, -h, 0.5 * h, -0.5 * h]
    # the field Y moved along X (rows 0-3), the field X along Y (rows 4-7)
    centers = np.array([u + t * ax_dir for t in steps] + [u + t * ay_dir for t in steps])
    fields = np.array([ay_dir] * 4 + [ax_dir] * 4)
    moved = hypersurface_frames(patch, centers, ref=frame)
    vecs = np.einsum("mp,mpd->md", fields, moved.tangents)
    images = [_oracle_weingarten(patch, moved.row(i), centers[i], vecs[i]) for i in range(8)]
    cov = []
    for k in (0, 4):
        d_a = frame.tangential(_extrapolated(*images[k : k + 4], h))
        d_v = frame.tangential(_extrapolated(*vecs[k : k + 4], h))
        cov.append(d_a - _oracle_weingarten(patch, frame, u, d_v))
    cov_x_ay, cov_y_ax = cov
    rhs = (
        frame.eta(x) * frame.phi(y)
        - frame.eta(y) * frame.phi(x)
        + 2.0 * real_metric(sig, x, frame.phi(y)) * frame.xi
    )
    res = cov_x_ay - cov_y_ax - rhs
    return float(np.sqrt(np.sum(np.abs(res) ** 2)))


def _oracle_structure(patch, frame, u, rng):
    h = OUTER_FD_STEP
    x = frame.random_tangent(rng)
    a = frame.tangent_coords(x)
    xi = [
        hypersurface_frames(patch, (u + step * a)[None], ref=frame).row(0).xi
        for step in (h, -h, 0.5 * h, -0.5 * h)
    ]
    nxi = frame.tangential(_extrapolated(*xi, h))
    return float(np.max(np.abs(nxi - frame.phi(_oracle_weingarten(patch, frame, u, x)))))


# ---------------------------------------------------------------------------
# patches
# ---------------------------------------------------------------------------


def _family(example_id, sig, t=None):
    spec = example_spec(example_id, sig=sig)
    par = transport_basis(example_integral_curve(spec).curve)
    patch = RHSPatch(par)
    if t is not None:
        patch = TransformedPatch(ruling_isometry(spec, t), patch)
    return patch, leaf_coordinate_grid(par, 2, 2)[:3]


def _sphere():
    sig = Signature(3, 1)
    patch = GeodesicSpherePatch(canonicalize(sig, np.array([0, 0, 0, 1], dtype=complex)), 0.7, seed=1)
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
    """Every report of one stacked call equals the pointwise shape operator
    of its row bit for bit, and ``shape_operator_at`` is the one-row case."""
    patch, rows = CASES[name]()
    reports = shape_operators(patch, rows)
    assert len(reports) == len(rows)
    for u, rep in zip(rows, reports):
        want = _oracle_shape(patch, u)
        for one in (rep, shape_operator_at(patch, u)):
            assert np.array_equal(one.matrix, want["matrix"])
            assert np.array_equal(one.basis, want["basis"])
            assert one.mu == want["mu"]
            assert one.dd_block_max == want["dd_block_max"]
            assert one.rank == want["rank"]
            assert one.form is want["form"]


@pytest.mark.parametrize("name", ["family1_3_1", "family3_4_2", "family2_boost_t0.4"])
def test_codazzi_residual_equals_the_four_call_loop(name):
    patch, rows = CASES[name]()
    u = rows[1]
    got = codazzi_residual(patch, u, np.random.default_rng(11))
    assert got == _oracle_codazzi(patch, u, np.random.default_rng(11))


@pytest.mark.parametrize("name", ["family1_3_1", "family3_4_2", "family2_boost_t0.4"])
def test_structure_field_identity_equals_the_pointwise_loop(name):
    patch, rows = CASES[name]()
    u = rows[1]
    frame = hypersurface_frame(patch, u)
    got = structure_field_identity(patch, frame, u, frame.random_tangent(np.random.default_rng(2)))
    assert got == _oracle_structure(patch, frame, u, np.random.default_rng(2))
