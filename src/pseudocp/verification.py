"""Global invariant suites shared by the CLI verifier and the acceptance tests.

Each suite returns identity lines (name, residual, tolerance) so reports can
be assembled uniformly; residuals are worst cases over seeded random draws.

The two frame suites draw their points and coefficients one at a time, in
the order of the generator stream of ``random_sphere_point`` and
``random_horizontal_unit``, then complete every horizontal basis (and, for
the isometries, every frame of one causal type) in one stacked call and
evaluate the curvature tensor row-wise. The draws, and so the residuals,
are those of the point-by-point loop.
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
    curvature_tensor_rows,
    horizontal_coefficients,
    horizontal_signs,
    horizontal_unitary_bases,
    horizontal_units,
    random_sphere_point,
)
from .ruled import RHSPatch, hypersurface_frame

ACCEPTANCE_SIGNATURES = (Signature(2, 1), Signature(3, 1), Signature(3, 2), Signature(4, 2))


def _horizontal_draws(sig: Signature, count: int, rng: np.random.Generator):
    """``count`` sphere points and unit horizontal vectors there, spacelike
    at even and timelike at odd k.

    The draws are those of ``random_sphere_point`` followed by
    ``random_horizontal_unit``, one k after another, so the stream of the
    generator is unchanged; the horizontal bases of all points are then
    completed in one stacked call.
    """
    q = np.empty((count, sig.ambient_dim), dtype=complex)
    coeffs = np.empty((count, sig.n), dtype=complex)
    g = np.empty(count)
    signs = horizontal_signs(sig)
    for k in range(count):
        q[k] = random_sphere_point(sig, rng)
        character = CausalCharacter.SPACELIKE if k % 2 == 0 else CausalCharacter.TIMELIKE
        coeffs[k], g[k] = horizontal_coefficients(signs, rng, character)
    bases, _ = horizontal_unitary_bases(sig, q)
    return q, horizontal_units(bases, coeffs, g)


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
    form_worst = 0.0
    det_worst = 0.0
    q, eta = _horizontal_draws(sig, count, rng)
    for iso in frame_to_isometries(sig, q, eta):
        m = iso.entries
        form_worst = max(
            form_worst, float(np.max(np.abs(m.conj().T @ eye @ m - eye)))
        )
        det_worst = max(det_worst, abs(np.linalg.det(m) - 1.0))
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
    ``pars`` maps example ids to parametrizations, checked in order."""
    rng = np.random.default_rng(ALMOST_CONTACT_SEED)
    lines = []
    for ex, par in pars.items():
        patch = RHSPatch(par)
        phi_xi = 0.0
        eta_xi = 0.0
        phi_sq = 0.0
        nabla = 0.0
        for _ in range(ALMOST_CONTACT_POINTS):
            u = np.zeros(patch.n_params)
            u[0] = rng.uniform(-0.35, 0.35)
            c = rng.standard_normal(par.leaf_dim)
            u[1:] = c / np.sqrt(np.sum(c**2)) * rng.uniform(0.02, 0.25)
            fr = hypersurface_frame(patch, u)
            x = fr.random_tangent(rng)
            phi_xi = max(phi_xi, float(np.max(np.abs(fr.phi(fr.xi)))))
            eta_xi = max(eta_xi, abs(fr.eta(fr.xi) - fr.epsilon))
            res = fr.phi(fr.phi(x)) + x - fr.epsilon * fr.eta(x) * fr.xi
            phi_sq = max(phi_sq, float(np.max(np.abs(res))))
            nabla = max(nabla, ruled.structure_field_identity(patch, fr, u, rng))
        lines.append(IdentityLine(f"example{ex}_phi_xi", phi_xi, ALGEBRAIC_TOL))
        lines.append(IdentityLine(f"example{ex}_eta_xi", eta_xi, ALGEBRAIC_TOL))
        lines.append(IdentityLine(f"example{ex}_phi_square", phi_sq, ALGEBRAIC_TOL))
        lines.append(IdentityLine(f"example{ex}_structure_derivative", nabla, DERIVATIVE_TOL))
    return lines
