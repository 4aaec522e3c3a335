"""Global invariant suites shared by the CLI verifier and the acceptance tests.

Each suite returns identity lines (name, residual, tolerance) so reports can
be assembled uniformly; residuals are worst cases over seeded random draws.

Every suite draws first and then evaluates stacks. The two frame suites
read their sphere points and horizontal coefficients out of blocks of the
generator's normals, in the order of ``random_sphere_point`` followed by
``horizontal_coefficients`` one point after another, then complete every
horizontal basis (and, for the isometries, every frame of one causal type)
in one stacked call and evaluate the curvature tensor, the form and the
determinant over the stack. The almost contact suite draws the points and
tangent directions of a family in the order of a point-by-point loop, then
takes one stacked frame call and one stacked structure identity call per
family. The draws, and so the residuals, are those of the point-by-point
loops.
"""

from __future__ import annotations

import numpy as np

from . import ruled
from .curves import case_c1_curve, case_c2_curve, fd_derivative
from .examples import IdentityLine
from .isometries import frame_to_isometries
from .linalg import CausalCharacter, Signature, gdot_rows, jmul, metric_signs, real_metric
from .projective import (
    canonical_phases,
    coefficient_candidates,
    curvature_tensor_rows,
    horizontal_signs,
    horizontal_unitary_bases,
    horizontal_units,
    sphere_candidates,
)
from .ruled import RHSPatch, hypersurface_frames

ACCEPTANCE_SIGNATURES = (Signature(2, 1), Signature(3, 1), Signature(3, 2), Signature(4, 2))


#: normals of the generator read per block by ``_horizontal_draws``
NORMAL_BLOCK = 4096


def _candidates(normals: np.ndarray, width: int) -> np.ndarray:
    """Complex candidates (L, width) starting at every offset of the normals:
    the first ``width`` normals as real parts, the next as imaginary parts,
    as ``rng.standard_normal(w) + 1j * rng.standard_normal(w)`` draws them."""
    w = np.lib.stride_tricks.sliding_window_view(normals, 2 * width)
    return w[:, :width] + 1j * w[:, width:]


def _horizontal_draws(sig: Signature, count: int, rng: np.random.Generator):
    """``count`` sphere points and unit horizontal vectors there, spacelike
    at even and timelike at odd k.

    The draws are those of ``random_sphere_point`` followed by
    ``horizontal_coefficients``, one k after another, read out of blocks of
    ``NORMAL_BLOCK`` normals: whether a candidate is kept is computed at
    every offset of the blocks as one array, and a Python walk only steps
    from candidate to candidate. A generator's normals do not depend on how
    they are chunked, so these are the draws of the one-at-a-time loop; the
    generator is then reset and advanced past exactly the normals the walk
    used, so its stream afterwards is unchanged too. The horizontal bases of
    all points are completed in one stacked call.
    """
    d, n = sig.ambient_dim, sig.n
    hsigns = horizontal_signs(sig)
    state = rng.bit_generator.state
    normals = rng.standard_normal(NORMAL_BLOCK)
    starts: list[int] = []  # offsets of the kept candidates: point, coefficients, point, ...
    pos = 0
    while True:
        points, coeffs = _candidates(normals, d), _candidates(normals, n)
        keep = (
            sphere_candidates(sig, points)[1].tolist(),
            coefficient_candidates(hsigns, coeffs, CausalCharacter.SPACELIKE)[1].tolist(),
            coefficient_candidates(hsigns, coeffs, CausalCharacter.TIMELIKE)[1].tolist(),
        )
        while len(starts) < 2 * count:
            k, is_coeff = divmod(len(starts), 2)
            width = 2 * n if is_coeff else 2 * d
            flags = keep[1 + k % 2] if is_coeff else keep[0]
            while pos < len(flags) and not flags[pos]:
                pos += width
            if pos >= len(flags):
                break  # the candidate at pos runs past the normals read so far
            starts.append(pos)
            pos += width
        if len(starts) == 2 * count:
            break
        normals = np.concatenate([normals, rng.standard_normal(NORMAL_BLOCK)])
    rng.bit_generator.state = state
    rng.standard_normal(pos)
    at = np.array(starts, dtype=int)
    z = points[at[0::2]]
    g, _ = sphere_candidates(sig, z)
    coeffs = coeffs[at[1::2]]
    gc, _ = coefficient_candidates(hsigns, coeffs, CausalCharacter.SPACELIKE)
    q = z / np.sqrt(g)[:, None]
    bases, _ = horizontal_unitary_bases(sig, q)
    return q, horizontal_units(bases, coeffs, gc)


def curvature_lines(
    count: int = 200,
    tol: float = 1e-10,
    signatures=ACCEPTANCE_SIGNATURES,
    seed: int = 0,
) -> list[IdentityLine]:
    """Normalized holomorphic sectional curvature equals four."""
    rng = np.random.default_rng(seed)
    lines = []
    for sig in signatures:
        q, xv = _horizontal_draws(sig, count, rng)
        x = xv * canonical_phases(q)[:, None]  # the tangents at the canonical representatives
        jx = jmul(x)
        r = curvature_tensor_rows(sig, x, jx, jx)
        gx = gdot_rows(sig.signs, x, x)
        value = gdot_rows(sig.signs, r, x) / (gx * gx)
        worst = float(np.max(np.abs(value - 4.0), initial=0.0))
        lines.append(
            IdentityLine(f"holomorphic_curvature_n{sig.n}_p{sig.p}", worst, tol)
        )
    return lines


def unitary_frame_lines(
    sig: Signature = Signature(3, 1),
    count: int = 100,
    tol: float = 1e-10,
    seed: int = 1,
) -> list[IdentityLine]:
    """Frame completion outputs preserve the form and have determinant one."""
    rng = np.random.default_rng(seed)
    eye = np.diag(metric_signs(sig.p, sig.ambient_dim))
    q, eta = _horizontal_draws(sig, count, rng)
    m = np.array([iso.entries for iso in frame_to_isometries(sig, q, eta)])
    form = np.conj(m).transpose(0, 2, 1) @ eye @ m - eye
    form_worst = float(np.max(np.abs(form), initial=0.0))
    det_worst = float(np.max(np.abs(np.linalg.det(m) - 1.0), initial=0.0))
    return [
        IdentityLine("unitary_frame_form", form_worst, tol),
        IdentityLine("unitary_frame_det", det_worst, tol),
    ]


def case_c_closed_form_lines(tol: float = 1e-6) -> list[IdentityLine]:
    """Defining identities of the two non-Frenet closed-form generators."""
    sig1 = Signature(3, 1)
    c1 = case_c1_curve(
        sig1,
        np.array([0, 1, 0, 0], dtype=complex),
        np.array([0, 0, 1, 0], dtype=complex),
        np.array([1, 0, 0, 1], dtype=complex),
    )
    sig2 = Signature(3, 2)
    c2 = case_c2_curve(
        sig2,
        np.array([0, 0, 1, 0], dtype=complex),
        np.array([0, 1, 0, 0], dtype=complex),
        np.array([1, 0, 0, 1], dtype=complex),
    )
    lines = []
    for tag, sig, crv, sgn in (("c1", sig1, c1, 1.0), ("c2", sig2, c2, -1.0)):
        f2 = crv.acc(0.0) + sgn * crv.point(0.0)
        point_worst = 0.0
        speed_worst = 0.0
        ode_worst = 0.0
        jerk_worst = 0.0
        for s in np.linspace(-1.5, 1.5, 11):
            a = crv.point(s)
            v = crv.vel(s)
            point_worst = max(point_worst, abs(real_metric(sig, a, a) - 1.0))
            speed_worst = max(speed_worst, abs(real_metric(sig, v, v) - sgn))
            ode_worst = max(
                ode_worst, float(np.max(np.abs(crv.acc(s) + sgn * a - f2)))
            )
            jerk = fd_derivative(crv.acc, s, 1e-3) + sgn * v
            jerk_worst = max(jerk_worst, float(np.max(np.abs(jerk))))
        lines.append(IdentityLine(f"{tag}_on_quadric", point_worst, tol))
        lines.append(IdentityLine(f"{tag}_unit_speed", speed_worst, tol))
        lines.append(IdentityLine(f"{tag}_accel_offset_constant", ode_worst, tol))
        lines.append(IdentityLine(f"{tag}_third_derivative", jerk_worst, tol))
    return lines


ALMOST_CONTACT_POINTS = 25  # random hypersurface points per family
ALMOST_CONTACT_SEED = 2  # seed of the points and tangents
ALGEBRAIC_TOL = 1e-8  # tolerance of the algebraic almost contact identities
DERIVATIVE_TOL = 1e-4  # tolerance of the structure derivative identity


def almost_contact_lines(pars) -> list[IdentityLine]:
    """Structure identities at random hypersurface points of each family:
    ``pars`` maps example ids to parametrizations, checked in order.

    Per point the generator gives the point, the coefficients of the tangent
    of the algebraic identities, then those of the tangent of the structure
    derivative, as ``random_tangent`` draws them. The frames of a family's
    points come from one stacked call, and the structure derivative of all
    of them from one ``structure_field_identity`` call.
    """
    rng = np.random.default_rng(ALMOST_CONTACT_SEED)
    lines = []
    for ex, par in pars.items():
        patch = RHSPatch(par)
        rows = np.zeros((ALMOST_CONTACT_POINTS, patch.n_params))
        coeffs = np.empty((2, ALMOST_CONTACT_POINTS, patch.n_params))
        for k in range(ALMOST_CONTACT_POINTS):
            rows[k, 0] = rng.uniform(-0.35, 0.35)
            c = rng.standard_normal(par.leaf_dim)
            rows[k, 1:] = c / np.sqrt(np.sum(c**2)) * rng.uniform(0.02, 0.25)
            coeffs[:, k] = rng.standard_normal((2, patch.n_params))
        fr = hypersurface_frames(patch, rows)
        x = fr.unit_tangents(coeffs[0])
        phi_xi = float(np.max(np.abs(fr.phi(fr.xi))))
        eta_xi = float(np.max(np.abs(fr.eta(fr.xi) - fr.epsilon)))
        res = fr.phi(fr.phi(x)) + x - (fr.epsilon * fr.eta(x))[:, None] * fr.xi
        phi_sq = float(np.max(np.abs(res)))
        nabla = float(np.max(ruled.structure_field_identity(patch, fr, rows, fr.unit_tangents(coeffs[1]))))
        lines.append(IdentityLine(f"example{ex}_phi_xi", phi_xi, ALGEBRAIC_TOL))
        lines.append(IdentityLine(f"example{ex}_eta_xi", eta_xi, ALGEBRAIC_TOL))
        lines.append(IdentityLine(f"example{ex}_phi_square", phi_sq, ALGEBRAIC_TOL))
        lines.append(IdentityLine(f"example{ex}_structure_derivative", nabla, DERIVATIVE_TOL))
    return lines
