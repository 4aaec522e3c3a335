"""Stacked adapted bases, tangent coordinates, seeded draws and almost
contact lines against the pointwise loops they replaced.

The oracles are the pointwise bodies: the list-based real-metric
Gram-Schmidt and the one-point adapted basis built on it, a least squares
solve per point, the scalar rejection loops of ``random_sphere_point`` and
``horizontal_coefficients`` written out, and the almost contact suite with
one frame, one drawn tangent and one structure identity per point. The stacked kernels run the
same arithmetic row by row, so the comparisons ask for equality; the
tangent coordinates come from another factorization and are compared to
``np.linalg.lstsq`` within a tolerance.
"""

import numpy as np
import pytest

from pseudocp import ruled, verification
from pseudocp.errors import FrameError
from pseudocp.examples import EXAMPLE_IDS, example_integral_curve, example_spec, ruling_isometry
from pseudocp.frames import PIVOT_TOL, orthonormalize_real_metric
from pseudocp.linalg import CausalCharacter, real_metric
from pseudocp.projective import horizontal_coefficients, horizontal_signs, random_sphere_point
from pseudocp.ruled import (
    RHSPatch,
    TransformedPatch,
    adapted_basis,
    adapted_bases,
    hypersurface_frame,
    hypersurface_frames,
    leaf_coordinate_grid,
    structure_field_identity,
    transport_basis,
    weingarten_apply,
)
from pseudocp.verification import ACCEPTANCE_SIGNATURES, NORMAL_BLOCK, _horizontal_draws

# ---------------------------------------------------------------------------
# pointwise oracles
# ---------------------------------------------------------------------------


def _oracle_orthonormalize(sig, vectors, tol=PIVOT_TOL, max_count=None):
    pool = [np.asarray(v, dtype=complex) for v in vectors]
    target = len(pool) if max_count is None else max_count
    out, signs = [], []
    while len(out) < target:
        pool = [c for c in pool if float(np.sum(np.abs(c) ** 2)) >= 1e-18]
        if not pool:
            raise FrameError("linearly dependent input vectors")
        best, best_g = None, 0.0
        for idx, c in enumerate(pool):
            e2 = float(np.sum(np.abs(c) ** 2))
            g = real_metric(sig, c, c)
            if abs(g) <= tol * e2:
                continue
            if abs(g) > best_g:
                best_g, best = abs(g), idx
        if best is None:
            raise FrameError("degenerate span: lightlike pivot")
        u = pool.pop(best)
        g = real_metric(sig, u, u)
        u = u / np.sqrt(abs(g))
        sgn = 1.0 if g > 0 else -1.0
        out.append(u)
        signs.append(sgn)
        pool = [c - sgn * real_metric(sig, c, u) * u for c in pool]
    return out, signs


def _oracle_adapted_basis(frame, first=None):
    sig = frame.sig
    xi = frame.xi
    eps = frame.epsilon
    pool = [t - eps * real_metric(sig, t, xi) * xi for t in frame.tangents]
    head, head_signs = [xi], [eps]
    want = len(frame.tangents) - 1
    if first is not None:
        gf = real_metric(sig, first, first)
        w = first / np.sqrt(abs(gf))
        sgn = 1.0 if gf > 0 else -1.0
        pool = [v - sgn * real_metric(sig, v, w) * w for v in pool]
        head.append(w)
        head_signs.append(sgn)
        want -= 1
    vecs, signs = _oracle_orthonormalize(sig, pool, max_count=want)
    if len(vecs) != want:
        raise FrameError("could not complete the adapted tangent basis")
    return np.array(head + vecs), np.array(head_signs + signs)


def _oracle_draws(sig, count, rng):
    """The draw loop of the one-at-a-time ``_horizontal_draws``, with the
    scalar rejection rules written out."""
    q = np.empty((count, sig.ambient_dim), dtype=complex)
    coeffs = np.empty((count, sig.n), dtype=complex)
    g = np.empty(count)
    signs = horizontal_signs(sig)
    d, n = sig.ambient_dim, len(signs)
    for k in range(count):
        while True:
            z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            gz = real_metric(sig, z, z)
            if gz > 0.2:
                q[k] = z / np.sqrt(gz)
                break
        want = 1.0 if k % 2 == 0 else -1.0  # spacelike, then timelike
        while True:
            coeff = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            gc = float(np.sum(signs * np.abs(coeff) ** 2))
            if want * gc > 0.05 * float(np.sum(np.abs(coeff) ** 2)):
                coeffs[k], g[k] = coeff, gc
                break
    return q, coeffs, g


def _oracle_random_tangent(frame, rng):
    coeff = rng.standard_normal(frame.tangents.shape[0])
    x = coeff @ frame.tangents
    return x / np.sqrt(float(np.sum(np.abs(x) ** 2)))


def _oracle_structure_field_identity(patch, frame, u, x):
    """The one-point structure identity: the moved frames at the four
    offsets along x, one Weingarten image. The coordinates of x come from
    the one-point ``tangent_coords``, which the tests below hold to
    ``np.linalg.lstsq`` (1e-12) and to the stacked call (bit for bit); the
    finite difference amplifies the roundoff of another solver past bit
    equality."""
    h = ruled.OUTER_FD_STEP
    a = frame.tangent_coords(x)
    moved = hypersurface_frames(patch, u + h * ruled._FD_OFFSETS[:, None] * a, ref=frame)
    nxi = frame.tangential(ruled._extrapolated_difference(moved.xi, h))
    return float(np.max(np.abs(nxi - frame.phi(weingarten_apply(patch, frame, u, x)))))


def _oracle_almost_contact(pars):
    """The point-by-point almost contact suite: one frame and one structure
    identity per point, residuals only."""
    rng = np.random.default_rng(verification.ALMOST_CONTACT_SEED)
    out = []
    for par in pars.values():
        patch = RHSPatch(par)
        phi_xi = eta_xi = phi_sq = nabla = 0.0
        for _ in range(verification.ALMOST_CONTACT_POINTS):
            u = np.zeros(patch.n_params)
            u[0] = rng.uniform(-0.35, 0.35)
            c = rng.standard_normal(par.leaf_dim)
            u[1:] = c / np.sqrt(np.sum(c**2)) * rng.uniform(0.02, 0.25)
            fr = hypersurface_frame(patch, u)
            x = _oracle_random_tangent(fr, rng)
            phi_xi = max(phi_xi, float(np.max(np.abs(fr.phi(fr.xi)))))
            eta_xi = max(eta_xi, abs(fr.eta(fr.xi) - fr.epsilon))
            res = fr.phi(fr.phi(x)) + x - fr.epsilon * fr.eta(x) * fr.xi
            phi_sq = max(phi_sq, float(np.max(np.abs(res))))
            y = _oracle_random_tangent(fr, rng)
            nabla = max(nabla, _oracle_structure_field_identity(patch, fr, u, y))
        out.extend([phi_xi, eta_xi, phi_sq, nabla])
    return out


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def _par(example_id):
    return transport_basis(example_integral_curve(example_spec(example_id)).curve)


def _mixed_stack(example_id):
    """Frames of a moved ruling slice of a default family, with the leaf
    part U of A xi and a mask pinning it on every other row."""
    spec = example_spec(example_id)
    par = _par(example_id)
    patch = TransformedPatch(ruling_isometry(spec, 0.3), RHSPatch(par))
    rows = leaf_coordinate_grid(par, 3, 3)
    frames = hypersurface_frames(patch, rows)
    axi = weingarten_apply(patch, frames, rows, frames.xi)
    mu = np.sum(frames.sig.signs * axi * np.conj(frames.xi), axis=-1).real
    uvec = axi - (frames.epsilon * mu)[:, None] * frames.xi
    return patch, rows, frames, uvec, np.arange(len(rows)) % 2 == 0


def _with_tangents(frames, replace):
    """The stack with the tangents of some rows replaced."""
    t = frames.tangents.copy()
    for i, rows in replace.items():
        t[i] = rows
    return ruled.AlmostContactFrame(frames.sig, frames.lift, t, frames.normal, frames.epsilon)


def _degenerate_tangents(frames, i, kind):
    """Tangents of row i that the oracle cannot complete: multiples of one
    leaf tangent (linearly dependent) or xi and multiples of one null
    vector (lightlike pivot)."""
    t = frames.tangents[i]
    if kind == "dependent":
        return np.array([(k + 1.0) * t[1] for k in range(len(t))])
    basis, signs = _oracle_adapted_basis(frames.row(i))
    null = basis[1 + int(np.argmax(signs[1:] > 0))] + basis[1 + int(np.argmax(signs[1:] < 0))]
    return np.array([frames.row(i).xi] + [(k + 1.0) * null for k in range(len(t) - 1)])


# ---------------------------------------------------------------------------
# adapted bases
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("example_id", EXAMPLE_IDS)
def test_adapted_bases_equal_the_list_oracle(example_id):
    """Pinned and unpinned rows of one stacked call equal the one-point
    list-based basis bit for bit, and ``adapted_basis`` is the one-row case."""
    _, _, frames, uvec, pinned = _mixed_stack(example_id)
    assert pinned.any() and not pinned.all()
    bases, signs = adapted_bases(frames, uvec, pinned)
    for i in range(len(pinned)):
        pin = uvec[i] if pinned[i] else None
        want, want_signs = _oracle_adapted_basis(frames.row(i), first=pin)
        assert np.array_equal(bases[i], want)
        assert np.array_equal(signs[i], want_signs)
        one, one_signs = adapted_basis(frames.row(i), first=pin)
        assert np.array_equal(one, want)
        assert np.array_equal(one_signs, want_signs)


@pytest.mark.parametrize("order", [("dependent", "lightlike"), ("lightlike", "dependent")])
def test_first_degenerate_row_decides_the_adapted_basis_error(order):
    """The stack raises the oracle's FrameError of its first bad row."""
    _, _, frames, uvec, pinned = _mixed_stack(1)
    bad = {2: _degenerate_tangents(frames, 2, order[0]), 5: _degenerate_tangents(frames, 5, order[1])}
    stack = _with_tangents(frames, bad)
    messages = []
    for i in (2, 5):
        with pytest.raises(FrameError) as info:
            _oracle_adapted_basis(stack.row(i))
        messages.append(str(info.value))
    assert messages[0] != messages[1]
    with pytest.raises(FrameError) as info:
        adapted_bases(stack, uvec, np.zeros_like(pinned))
    assert str(info.value) == messages[0]
    # with U pinned on the good even rows, the one bad row still decides
    ok = _with_tangents(frames, {5: bad[5]})
    with pytest.raises(FrameError) as info:
        adapted_bases(ok, uvec, pinned)
    assert str(info.value) == messages[1]


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


def _realify(z):
    return np.concatenate([np.real(z), np.imag(z)], axis=-1)


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
            assert np.array_equal(frames.row(i).tangent_coords(x[i]), got[i])
    assert np.max(np.abs(frames.tangent_coords(xs) - coeff)) < 1e-12


# ---------------------------------------------------------------------------
# seeded draws and the almost contact suite
# ---------------------------------------------------------------------------


def test_block_reader_equals_the_scalar_draws():
    """Chained over the four signatures with one generator, as
    ``curvature_lines`` draws; the count exhausts the first block, and the
    generator stream afterwards is the scalar loop's."""
    count = 420
    assert count * min(2 * (s.ambient_dim + s.n) for s in ACCEPTANCE_SIGNATURES) > NORMAL_BLOCK
    rng, ref = np.random.default_rng(7), np.random.default_rng(7)
    for sig in ACCEPTANCE_SIGNATURES:
        q, x = _horizontal_draws(sig, count, rng)
        want_q, coeffs, g = _oracle_draws(sig, count, ref)
        assert np.array_equal(q, want_q)
        bases, _ = verification.horizontal_unitary_bases(sig, want_q)
        assert np.array_equal(x, verification.horizontal_units(bases, coeffs, g))
    assert np.array_equal(rng.standard_normal(5), ref.standard_normal(5))


def test_almost_contact_lines_equal_the_pointwise_loop():
    pars = {ex: _par(ex) for ex in EXAMPLE_IDS}
    got = [line.residual for line in verification.almost_contact_lines(pars)]
    assert got == _oracle_almost_contact(pars)
