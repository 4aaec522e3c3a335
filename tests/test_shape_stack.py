"""Stacked shape operators and Codazzi residual against the pointwise loops
they replaced.

The oracles are the pointwise bodies: a Weingarten map whose four normals
per vector are aligned to one reference frame, the shape operator of one
point with its own frame call and two Weingarten calls, and a Codazzi
residual with one Weingarten call per moved frame. The stacked path runs
the same arithmetic row by row, so the comparisons ask for equality.
"""

import numpy as np
import pytest

from pseudocp.examples import example_integral_curve, example_spec, ruling_isometry
from pseudocp.linalg import CausalCharacter, Signature, causal_character, gdot_rows, real_metric
from pseudocp.projective import canonicalize
from pseudocp.ruled import (
    CODAZZI_FD_STEP,
    NUMERIC_LIGHT_TOL,
    SHAPE_FD_STEP,
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
    transport_basis,
)

# ---------------------------------------------------------------------------
# pointwise oracles
# ---------------------------------------------------------------------------


def _oracle_weingarten(patch, frame0, u, x):
    h = SHAPE_FD_STEP
    x = np.asarray(x, dtype=complex)
    a = frame0.tangent_coords(x.reshape(-1, x.shape[-1]))
    offsets = np.array([h, -h, 0.5 * h, -0.5 * h])[:, None, None] * a
    nu = hypersurface_frames(patch, (u + offsets).reshape(-1, a.shape[1]), ref=frame0).normal
    nu = nu.reshape(4, a.shape[0], -1)
    hh = 0.5 * h
    d1 = (nu[0] - nu[1]) / (2.0 * h)
    d2 = (nu[2] - nu[3]) / (2.0 * hh)
    dn = (4.0 * d2 - d1) / 3.0
    return -frame0.tangential(dn).reshape(x.shape)


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
    h = CODAZZI_FD_STEP
    u = np.asarray(u, dtype=float)
    frame = hypersurface_frame(patch, u)
    x = frame.random_tangent(rng)
    y = frame.random_tangent(rng)
    ax_dir = frame.tangent_coords(x)
    ay_dir = frame.tangent_coords(y)
    centers = np.array([u + h * ax_dir, u - h * ax_dir, u + h * ay_dir, u - h * ay_dir])
    fields = np.array([ay_dir, ay_dir, ax_dir, ax_dir])
    moved = hypersurface_frames(patch, centers, ref=frame)
    vecs = np.einsum("mp,mpd->md", fields, moved.tangents)
    images = np.array(
        [_oracle_weingarten(patch, moved.row(i), centers[i], vecs[i]) for i in range(4)]
    )
    d_a = frame.tangential((images[0::2] - images[1::2]) / (2.0 * h))
    d_v = frame.tangential((vecs[0::2] - vecs[1::2]) / (2.0 * h))
    cov_x_ay, cov_y_ax = d_a - _oracle_weingarten(patch, frame, u, d_v)
    rhs = (
        frame.eta(x) * frame.phi(y)
        - frame.eta(y) * frame.phi(x)
        + 2.0 * real_metric(sig, x, frame.phi(y)) * frame.xi
    )
    res = cov_x_ay - cov_y_ax - rhs
    return float(np.sqrt(np.sum(np.abs(res) ** 2)))


# ---------------------------------------------------------------------------
# patches
# ---------------------------------------------------------------------------


def _family(example_id, sig, t=None):
    spec = example_spec(example_id, sig=sig)
    par = transport_basis(example_integral_curve(spec).curve, s0=0.0)
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
