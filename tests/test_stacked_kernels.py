"""Stacked adapted bases, tangent coordinates and almost contact lines,
and the seeded draws.

The adapted bases are compared with the list-based real-metric Gram-Schmidt
and the one-row adapted basis built on it (``oracles``): the stacked
kernel runs the same arithmetic row by row, so those comparisons ask for
equality. The tangent coordinates come from another factorization and are
compared to ``np.linalg.lstsq`` within a tolerance. The almost contact
lines equal the loop of one-row calls over the suite's own draws. The
seeded draws of the frame suites are checked for their properties.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import _oracle_adapted_basis, _oracle_orthonormalize, _par, _realify, random_unit_tangent
from pseudocp import verification
from pseudocp.errors import FrameError
from pseudocp.examples import EXAMPLE_IDS, example_spec, ruling_isometry
from pseudocp.frames import orthonormalize_real_metric
from pseudocp.linalg import gdot_rows
from pseudocp.ruled import (
    TransformedPatch,
    adapted_bases,
    hypersurface_frame,
    hypersurface_frames,
    leaf_coordinate_grid,
    structure_field_identity,
    weingarten_apply,
)
from pseudocp.verification import ACCEPTANCE_SIGNATURES, _horizontal_draws

# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def _mixed_stack(example_id):
    """Frames of a moved ruling slice of a default family, with the leaf
    part U of A xi and a mask pinning it on every other row."""
    spec = example_spec(example_id)
    par = _par(example_id)
    patch = TransformedPatch(ruling_isometry(spec, 0.3), par)
    rows = leaf_coordinate_grid(par, 3, 3)
    frames = hypersurface_frames(patch, rows)
    axi = weingarten_apply(frames, frames.xi)
    mu = np.sum(frames.sig.signs * axi * np.conj(frames.xi), axis=-1).real
    uvec = axi - (frames.epsilon * mu)[:, None] * frames.xi
    return patch, rows, frames, uvec, np.arange(len(rows)) % 2 == 0


def _with_tangents(frames, tangents):
    """The stack with the tangents of some rows replaced: ``tangents`` maps
    a row index to its new tangents."""
    t = frames.tangents.copy()
    for i, rows in tangents.items():
        t[i] = rows
    return replace(frames, tangents=t)


def _degenerate_tangents(frames, i, kind):
    """Tangents of row i that the oracle cannot complete: multiples of one
    leaf tangent (linearly dependent) or xi and multiples of one null
    vector (lightlike pivot)."""
    t = frames.tangents[i]
    if kind == "dependent":
        return np.array([(k + 1.0) * t[1] for k in range(len(t))])
    basis, signs = _oracle_adapted_basis(frames.row([i]))
    null = basis[1 + int(np.argmax(signs[1:] > 0))] + basis[1 + int(np.argmax(signs[1:] < 0))]
    return np.array([frames.xi[i]] + [(k + 1.0) * null for k in range(len(t) - 1)])


# ---------------------------------------------------------------------------
# adapted bases
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("example_id", EXAMPLE_IDS)
def test_adapted_bases_equal_the_list_oracle(example_id):
    """Pinned and unpinned rows of one stacked call equal the one-row
    list-based basis bit for bit."""
    _, _, frames, uvec, pinned = _mixed_stack(example_id)
    assert pinned.any() and not pinned.all()
    bases, signs = adapted_bases(frames, uvec, pinned)
    for i in range(len(pinned)):
        pin = uvec[i] if pinned[i] else None
        want, want_signs = _oracle_adapted_basis(frames.row([i]), first=pin)
        assert np.array_equal(bases[i], want)
        assert np.array_equal(signs[i], want_signs)


@pytest.mark.parametrize("order", [("dependent", "lightlike"), ("lightlike", "dependent")])
def test_first_degenerate_row_decides_the_adapted_basis_error(order):
    """The stack raises at the first Gram-Schmidt step where any row fails:
    the lightlike row fails the first step, the dependent row only runs out
    of candidates at the second, so the lightlike error raises whichever of
    the two rows comes first. One bad row raises its oracle's error."""
    _, _, frames, uvec, pinned = _mixed_stack(1)
    bad = {2: _degenerate_tangents(frames, 2, order[0]), 5: _degenerate_tangents(frames, 5, order[1])}
    stack = _with_tangents(frames, bad)
    messages = {}
    for i, kind in zip((2, 5), order):
        with pytest.raises(FrameError) as info:
            _oracle_adapted_basis(stack.row([i]))
        messages[kind] = str(info.value)
    assert messages["dependent"] != messages["lightlike"]
    with pytest.raises(FrameError) as info:
        adapted_bases(stack, uvec, np.zeros_like(pinned))
    assert str(info.value) == messages["lightlike"]
    # with U pinned on the good even rows, the one bad row raises its error
    ok = _with_tangents(frames, {5: bad[5]})
    with pytest.raises(FrameError) as info:
        adapted_bases(ok, uvec, pinned)
    assert str(info.value) == messages[order[1]]


@pytest.mark.parametrize("example_id", [1, 2])
def test_orthonormalize_real_metric_is_the_one_row_case(example_id):
    frames = _mixed_stack(example_id)[2]
    sig = frames.sig
    for i in range(3):
        want, want_signs = _oracle_orthonormalize(sig, frames.tangents[i])
        got, got_signs = orthonormalize_real_metric(sig, frames.tangents[i])
        assert np.array_equal(got, np.array(want))
        assert np.array_equal(got_signs, np.array(want_signs))
    t = frames.tangents[0][1]
    with pytest.raises(FrameError, match="linearly dependent"):
        _oracle_orthonormalize(sig, [t, 2.0 * t])
    with pytest.raises(FrameError, match="linearly dependent"):
        orthonormalize_real_metric(sig, [t, 2.0 * t])


# ---------------------------------------------------------------------------
# tangent coordinates
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("example_id", EXAMPLE_IDS)
def test_tangent_coords_match_lstsq_and_the_one_point_call(example_id):
    _, _, frames, uvec, _ = _mixed_stack(example_id)
    rng = np.random.default_rng(example_id)
    coeff = rng.standard_normal((len(uvec), 3, frames.tangents.shape[1]))
    xs = np.matmul(coeff, frames.tangents)  # three tangents per point
    for x in (frames.xi, uvec, xs):
        got = frames.tangent_coords(x)
        assert got.shape == x.shape[:-1] + (frames.tangents.shape[1],)
        for i in range(len(x)):
            a, *_ = np.linalg.lstsq(_realify(frames.tangents[i]).T, _realify(x[i]).T, rcond=None)
            assert np.max(np.abs(got[i] - a.T)) < 1e-12
            assert np.array_equal(frames.row([i]).tangent_coords(x[[i]])[0], got[i])
    assert np.max(np.abs(frames.tangent_coords(xs) - coeff)) < 1e-12


# ---------------------------------------------------------------------------
# seeded draws and the almost contact suite
# ---------------------------------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(
    sig=st.sampled_from(ACCEPTANCE_SIGNATURES),
    count=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_horizontal_draws_are_seeded_unit_horizontal_vectors(sig, count, seed):
    """``count`` sphere points with unit horizontal vectors there, spacelike
    at even and timelike at odd k, the same for the same seed."""
    q, x = _horizontal_draws(sig, count, np.random.default_rng(seed))
    assert q.shape == x.shape == (count, sig.ambient_dim)
    assert np.max(np.abs(gdot_rows(sig.signs, q, q) - 1.0)) < 1e-12
    want = np.where(np.arange(count) % 2 == 0, 1.0, -1.0)
    assert np.max(np.abs(gdot_rows(sig.signs, x, x) - want)) < 1e-10
    assert np.max(np.abs(np.sum(sig.signs * x * np.conj(q), axis=-1))) < 1e-10
    again = _horizontal_draws(sig, count, np.random.default_rng(seed))
    assert np.array_equal(again[0], q) and np.array_equal(again[1], x)


def test_almost_contact_lines_equal_the_pointwise_loop():
    """Each family's lines equal the loop of one-row calls at the suite's
    own draws: one frame, two ``random_unit_tangent`` draws and one
    structure identity per point."""
    pars = {ex: _par(ex) for ex in EXAMPLE_IDS}
    rng = np.random.default_rng(verification.ALMOST_CONTACT_SEED)
    want = []
    for par in pars.values():
        worst = np.zeros(4)
        for _ in range(verification.ALMOST_CONTACT_POINTS):
            u = np.zeros(par.n_params)
            u[0] = rng.uniform(-0.35, 0.35)
            c = rng.standard_normal(par.leaf_dim)
            u[1:] = c / np.sqrt(np.sum(c**2)) * rng.uniform(0.02, 0.25)
            fr = hypersurface_frame(par, u)
            x, y = random_unit_tangent(fr, rng), random_unit_tangent(fr, rng)
            res = fr.phi(fr.phi(x)) + x - (fr.epsilon * fr.eta(x))[:, None] * fr.xi
            residuals = [
                np.max(np.abs(fr.phi(fr.xi))),
                abs(fr.eta(fr.xi) - fr.epsilon)[0],
                np.max(np.abs(res)),
                structure_field_identity(fr, y)[0],
            ]
            worst = np.maximum(worst, residuals)
        want.extend(worst.tolist())
    assert [line.residual for line in verification.almost_contact_lines(pars)] == want
