"""Circle quotient of the pseudo-sphere: points, horizontal lifts, geodesics.

Points of the quotient are stored through a canonical unit-sphere
representative whose largest-modulus entry is real and positive. Tangent
vectors are horizontal lifts at that representative, i.e. orthogonal to both
the representative q and the fiber direction iq.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    BasePointError,
    LogMapError,
    NotProjectablePoint,
)
from .frames import complete_unitary_frames
from .linalg import (
    LIGHT_TOL,
    CausalCharacter,
    Signature,
    as_ambient,
    check_sphere_point,
    check_sphere_rows,
    hermitian_product,
    jmul,
)

#: tolerance used when checking that two tangents share a base point
BASE_POINT_TOL = 1e-8
#: canonical-coordinate residual accepted by the log map round trip
LOG_ROUND_TRIP_TOL = 1e-8


@dataclass(frozen=True)
class ProjectivePoint:
    """Point class of the quotient, held by its canonical sphere representative."""

    sig: Signature
    rep: np.ndarray

    def __post_init__(self):
        rep = as_ambient(self.sig, self.rep)
        rep.setflags(write=False)
        object.__setattr__(self, "rep", rep)

    def gap(self, other: "ProjectivePoint") -> float:
        """Sup-norm distance between canonical representatives."""
        return float(np.max(np.abs(self.rep - other.rep)))

    def close_to(self, other: "ProjectivePoint", tol: float = 1e-9) -> bool:
        return self.gap(other) <= tol


@dataclass(frozen=True)
class ProjectiveTangent:
    """Horizontal lift of a tangent vector at a point of the quotient."""

    at: ProjectivePoint
    vec: np.ndarray

    def __post_init__(self):
        vec = as_ambient(self.at.sig, self.vec)
        vec.setflags(write=False)
        object.__setattr__(self, "vec", vec)

    def scaled(self, factor: float) -> "ProjectiveTangent":
        return ProjectiveTangent(self.at, factor * self.vec)


def canonical_phase(z: np.ndarray):
    """Unit phase factor making the largest-modulus entry real positive.

    Ties break toward the lowest index, so equality testing of canonical
    representatives is componentwise.
    """
    return canonical_phases(np.asarray(z)[None])[0]


def canonical_phases(z: np.ndarray) -> np.ndarray:
    """``canonical_phase`` of each row of z (..., d); 1 for a zero row."""
    j = np.argmax(np.abs(z), axis=-1)[..., None]
    zj = np.take_along_axis(z, j, axis=-1)[..., 0]
    # rounds like abs() of a complex scalar; np.abs can differ by an ulp
    mod = np.hypot(zj.real, zj.imag)
    zero = mod == 0.0
    return np.where(zero, 1.0 + 0.0j, np.conj(zj) / np.where(zero, 1.0, mod))


def canonical_rows(sig: Signature, z) -> np.ndarray:
    """Canonical representatives of stacked spacelike rows z (..., d): each
    row normalized to g = 1, then turned by its ``canonical_phases``.

    Raises NotProjectablePoint when some g(z,z) <= 0: only spacelike
    position vectors define point classes of the quotient.
    """
    z = np.asarray(z, dtype=complex)
    g = linalg.gdot_rows(sig.signs, z, z)
    if np.any(g <= 0.0):
        raise NotProjectablePoint(f"g(z,z) = {float(np.min(g)):.3e} is not positive")
    rep = z / np.sqrt(g)[..., None]
    return rep * canonical_phases(rep)[..., None]


def canonicalize(sig: Signature, z) -> ProjectivePoint:
    """Point class of a spacelike ambient vector: the one-row case of
    ``canonical_rows``."""
    return ProjectivePoint(sig, canonical_rows(sig, as_ambient(sig, z)[None])[0])


def horizontal_rows(signs: np.ndarray, q: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Horizontal part at the unit spacelike lifts q of the vectors x: the
    components along q and along the fiber direction iq removed, in that
    order. Broadcasts over leading axes.
    """
    x = x - linalg.gdot_rows(signs, x, q)[..., None] * q
    iq = 1j * q
    return x - linalg.gdot_rows(signs, x, iq)[..., None] * iq


def horizontal_project(sig: Signature, q, x) -> np.ndarray:
    """Horizontal part of an ambient vector at the sphere point q: the
    one-row case of ``horizontal_rows``."""
    return horizontal_rows(sig.signs, as_ambient(sig, q), as_ambient(sig, x))


def tangent_from_lift(sig: Signature, lift, vec) -> ProjectiveTangent:
    """Attach a horizontal vector given at an arbitrary representative.

    Rotates both the representative and the vector by the canonical phase, so
    the stored tangent lives at the canonical representative.
    """
    lv = check_sphere_point(sig, as_ambient(sig, lift), tol=1e-8)
    phase = canonical_phase(lv)
    point = ProjectivePoint(sig, lv * phase)
    return ProjectiveTangent(point, as_ambient(sig, vec) * phase)


def sphere_geodesic(sig: Signature, q, v, t) -> np.ndarray:
    """Closed-form geodesic of the pseudo-sphere from q with velocity v, at
    the parameter t or at each entry of an array of parameters."""
    return quadric_geodesic(sig.signs, as_ambient(sig, q), as_ambient(sig, v), t)


def quadric_geodesic(signs: np.ndarray, q, v, t) -> np.ndarray:
    """Geodesics of the unit quadric {g(x,x) = 1} of the flat space whose
    metric has the diagonal ``signs``, from the rows of q with the velocities
    v at the parameters t; q, v (..., d) and t (...) broadcast.

    Each row is trigonometric for spacelike v, hyperbolic for timelike v and
    affine for lightlike v (zero v included); the split uses the relative
    lightlike threshold.
    """
    q = np.asarray(q, dtype=complex)
    v = np.asarray(v, dtype=complex)
    t = np.asarray(t, dtype=float)
    g = linalg.gdot_rows(signs, v, v)
    light = np.abs(g) <= LIGHT_TOL * np.sum(np.abs(v) ** 2, axis=-1)
    w = np.where(light, 1.0, np.sqrt(np.abs(g)))
    wt = w * t
    with np.errstate(over="ignore"):  # cosh of a long spacelike ray; not selected
        cos = np.where(light, 1.0, np.where(g > 0, np.cos(wt), np.cosh(wt)))
        sin = np.where(light, t, np.where(g > 0, np.sin(wt), np.sinh(wt)))
    return cos[..., None] * q + sin[..., None] * v / w[..., None]


def exp_map(x: ProjectivePoint, v: ProjectiveTangent, t: float = 1.0) -> ProjectivePoint:
    """Exponential map of the quotient via the horizontal sphere geodesic.

    The geodesic of a unit point with a horizontal velocity stays on the
    sphere, so only the canonical phase is applied: renormalizing by
    sqrt(g(z,z)) would cancel catastrophically at strongly boosted points.
    """
    if not v.at.close_to(x, BASE_POINT_TOL):
        raise BasePointError("tangent is not based at the given point")
    z = sphere_geodesic(x.sig, x.rep, v.vec, t)
    return ProjectivePoint(x.sig, z * canonical_phase(z))


def log_in_leaf(x: ProjectivePoint, y: ProjectivePoint) -> ProjectiveTangent:
    """Inverse of the exponential map, valid inside a totally geodesic leaf.

    Gauges the phase of y's representative so its Hermitian product with x's
    is real positive, splits off the component along x, and solves the
    closed-form geodesic for the parameter. Raises LogMapError at the cut
    locus (vanishing Hermitian product) or when the round trip check fails.
    """
    sig = x.sig
    q = x.rep
    a = hermitian_product(sig, y.rep, q)
    if abs(a) < 1e-9:
        raise LogMapError("points are g_C-orthogonal: log is not unique here")
    w = y.rep * (np.conj(a) / abs(a))
    b = float(np.real(hermitian_product(sig, w, q)))
    m = w - b * q
    if float(np.max(np.abs(m))) < 1e-14:
        return ProjectiveTangent(x, np.zeros_like(q))
    gm = 1.0 - b * b
    eunorm2 = float(np.sum(np.abs(m) ** 2))
    if abs(gm) <= LIGHT_TOL * eunorm2:
        vec = m
    elif gm > 0:
        vec = np.arccos(np.clip(b, -1.0, 1.0)) * m / np.sqrt(gm)
    else:
        vec = np.arccosh(b) * m / np.sqrt(-gm)
    out = ProjectiveTangent(x, vec)
    if exp_map(x, out, 1.0).gap(y) > LOG_ROUND_TRIP_TOL:
        raise LogMapError("round trip residual exceeds tolerance")
    return out


def curvature_tensor(
    sig: Signature,
    x_t: ProjectiveTangent,
    y_t: ProjectiveTangent,
    z_t: ProjectiveTangent,
) -> ProjectiveTangent:
    """Curvature tensor of the quotient applied to horizontal lifts: the
    one-row case of ``curvature_tensor_rows``."""
    base = x_t.at
    for other in (y_t, z_t):
        if not other.at.close_to(base, BASE_POINT_TOL):
            raise BasePointError("curvature tensor arguments at different points")
    out = curvature_tensor_rows(sig, x_t.vec[None], y_t.vec[None], z_t.vec[None])[0]
    return ProjectiveTangent(base, out)


def curvature_tensor_rows(sig: Signature, u: np.ndarray, v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """R(X, Y)Z for stacked horizontal lifts (N, d) at common base points.

    Evaluates g(Y,Z)X - g(X,Z)Y + g(JY,Z)JX - g(JX,Z)JY + 2g(X,JY)JZ, the
    constant holomorphic sectional curvature 4 tensor, with J acting as
    multiplication by i inside the horizontal space. Row i of the inputs
    must share a base point; the caller guarantees it.
    """
    signs = sig.signs
    ju, jv, jw = jmul(u), jmul(v), jmul(w)

    def g(a, b):
        return linalg.gdot_rows(signs, a, b)[:, None]

    return (
        g(v, w) * u
        - g(u, w) * v
        + g(jv, w) * ju
        - g(ju, w) * jv
        + (2.0 * g(u, jv)) * jw
    )


# ---------------------------------------------------------------------------
# random sampling helpers (used by tests, verification suites and leaves)
# ---------------------------------------------------------------------------


def sphere_candidates(sig: Signature, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Square norms g(z,z) (...) of candidate points z (..., d) and whether
    ``random_sphere_point`` keeps each: g(z,z) > 0.2, which keeps the
    normalized point away from the null cone."""
    g = linalg.gdot_rows(sig.signs, z, z)
    return g, g > 0.2


def random_sphere_point(sig: Signature, rng: np.random.Generator) -> np.ndarray:
    """Random point of the pseudo-sphere: complex normal candidates, kept by
    ``sphere_candidates``, then normalized."""
    d = sig.ambient_dim
    while True:
        z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        g, keep = sphere_candidates(sig, z)
        if keep:
            return z / np.sqrt(g)


def random_horizontal(sig: Signature, q, rng: np.random.Generator) -> np.ndarray:
    """Random horizontal vector at a sphere point q."""
    qv = as_ambient(sig, q)
    z = rng.standard_normal(sig.ambient_dim) + 1j * rng.standard_normal(sig.ambient_dim)
    return z - complex(hermitian_product(sig, z, qv)) * qv


def horizontal_unitary_bases(sig: Signature, q) -> tuple[np.ndarray, np.ndarray]:
    """Complex g_C-orthonormal bases (N, n, d) of the horizontal spaces at
    the sphere points q (N, d), with their common signs.

    All frames come from one stacked completion with q in slot n-1.
    """
    qv = check_sphere_rows(sig, q, tol=1e-8)
    mats = complete_unitary_frames(sig, {sig.n - 1: qv})
    cols = [c for c in range(sig.ambient_dim) if c != sig.n - 1]
    return mats[:, :, cols].transpose(0, 2, 1), horizontal_signs(sig)


def horizontal_signs(sig: Signature) -> np.ndarray:
    """Signs of every horizontal unitary basis: the frame columns other than
    the spacelike slot n-1, so -1 on the first p."""
    return np.array([-1.0 if c < sig.p else 1.0 for c in range(sig.ambient_dim) if c != sig.n - 1])


def horizontal_unitary_basis(sig: Signature, q) -> tuple[np.ndarray, np.ndarray]:
    """Complex g_C-orthonormal basis of the horizontal space at q, with
    signs: the one-row case of ``horizontal_unitary_bases``."""
    bases, signs = horizontal_unitary_bases(sig, as_ambient(sig, q)[None])
    return bases[0], signs


def coefficient_candidates(
    signs: np.ndarray, coeff: np.ndarray, character: CausalCharacter
) -> tuple[np.ndarray, np.ndarray]:
    """Square norms g (...) of candidate coefficients (..., n) over a
    horizontal basis with these signs, and whether
    ``horizontal_coefficients`` keeps each for the wanted causal character:
    g of its sign, with |g| above 0.05 of the Euclidean square norm."""
    want = 1.0 if character is CausalCharacter.SPACELIKE else -1.0
    g = np.sum(signs * np.abs(coeff) ** 2, axis=-1)
    return g, want * g > 0.05 * np.sum(np.abs(coeff) ** 2, axis=-1)


def horizontal_coefficients(
    signs: np.ndarray,
    rng: np.random.Generator,
    character: CausalCharacter = CausalCharacter.SPACELIKE,
) -> tuple[np.ndarray, float]:
    """Coefficients over a horizontal basis with these signs, drawn until
    ``coefficient_candidates`` keeps them, and their square norm g.

    The draws depend on the signs alone, not on the basis, so a caller can
    draw first and complete many bases at once.
    """
    while True:
        coeff = rng.standard_normal(len(signs)) + 1j * rng.standard_normal(len(signs))
        g, keep = coefficient_candidates(signs, coeff, character)
        if keep:
            return coeff, float(g)


def horizontal_units(bases: np.ndarray, coeffs: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Unit horizontal vectors (N, d) from bases (N, n, d) and drawn
    coefficients (N, n) with their square norms g (N,)."""
    return np.matmul(coeffs[:, None, :], bases)[:, 0] / np.sqrt(np.abs(g))[:, None]


def random_horizontal_unit(
    sig: Signature,
    q,
    rng: np.random.Generator,
    character: CausalCharacter = CausalCharacter.SPACELIKE,
) -> np.ndarray:
    """Random unit horizontal vector of prescribed causal character.

    Draws coefficients over a g-orthonormal horizontal basis, so the
    acceptance probability does not degrade for boosted base points.
    """
    basis, signs = horizontal_unitary_basis(sig, q)
    coeff, g = horizontal_coefficients(signs, rng, character)
    return horizontal_units(basis[None], coeff[None], np.array([g]))[0]
