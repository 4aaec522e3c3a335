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
from .errors import NotProjectablePoint
from .frames import complete_unitary_frames
from .linalg import (
    LIGHT_TOL,
    Signature,
    as_ambient,
    check_sphere_rows,
    jmul,
)


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


def canonical_phases(z: np.ndarray) -> np.ndarray:
    """Unit phase factors (...) making the largest-modulus entry of each row
    of z (..., d) real positive; 1 for a zero row.

    Ties break toward the lowest index, so equality testing of canonical
    representatives is componentwise.
    """
    j = np.argmax(np.abs(z), axis=-1)[..., None]
    zj = np.take_along_axis(z, j, axis=-1)[..., 0]
    # rounds like abs() of a complex scalar; np.abs can differ by an ulp
    mod = np.hypot(zj.real, zj.imag)
    zero = mod == 0.0
    return np.where(zero, 1.0 + 0.0j, np.conj(zj) / np.where(zero, 1.0, mod))


def canonical_rows(sig: Signature, z) -> np.ndarray:
    """Canonical representatives of stacked spacelike rows z (..., d): each
    row normalized to g = 1, then turned by its ``canonical_phases``.

    Raises NotProjectablePoint, before dividing, when some g(z,z) is not
    finite and positive: only spacelike position vectors define point
    classes of the quotient, and a NaN or infinite row defines none. A row
    with a non-finite entry is refused before g is formed, since the
    product of an infinite entry with its conjugate is itself invalid. Finite
    entries whose squares overflow give an infinite or NaN g (inf - inf when
    both signs overflow), refused the same way.
    """
    z = np.asarray(z, dtype=complex)
    finite = np.isfinite(z)
    if not np.all(finite):
        raise NotProjectablePoint(f"a row holds the non-finite entry {z[~finite][0]}")
    with np.errstate(over="ignore", invalid="ignore"):
        g = linalg.gdot_rows(sig.signs, z, z)
    bad = ~(np.isfinite(g) & (g > 0.0))
    if np.any(bad):
        raise NotProjectablePoint(f"g(z,z) = {float(g[bad][0]):.3e} is not finite and positive")
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


def curvature_tensor(sig: Signature, u: np.ndarray, v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Curvature tensor R(X, Y)Z of the quotient, applied to the rows of
    stacked horizontal lifts u, v, w (N, d); one row is a stack of one.

    Evaluates g(Y,Z)X - g(X,Z)Y + g(JY,Z)JX - g(JX,Z)JY + 2g(X,JY)JZ, the
    constant holomorphic sectional curvature 4 tensor, with J acting as
    multiplication by i inside the horizontal space. Row i of the three
    inputs must be lifted at one base point; nothing checks it, so the
    caller guarantees it.
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
# rejection sampling of random points and unit horizontal vectors
# ---------------------------------------------------------------------------


def _accepted(keep, width: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """The first ``count`` complex normal candidates (count, width) that
    ``keep`` accepts, drawn in batches of ``count``."""
    out = np.empty((0, width), dtype=complex)
    while len(out) < count:
        z = rng.standard_normal((count, width)) + 1j * rng.standard_normal((count, width))
        out = np.concatenate([out, z[keep(z)]])
    return out[:count]


def random_sphere_points(sig: Signature, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` random points (count, d) of the pseudo-sphere: the complex
    normal candidates z with g(z,z) > 0.2, which keeps the normalized point
    away from the null cone, normalized."""
    g = lambda z: linalg.gdot_rows(sig.signs, z, z)
    z = _accepted(lambda c: g(c) > 0.2, sig.ambient_dim, count, rng)
    return z / np.sqrt(g(z))[:, None]


def random_horizontal_units(
    sig: Signature, q: np.ndarray, rng: np.random.Generator, timelike: np.ndarray
) -> np.ndarray:
    """Random unit horizontal vectors (N, d) at the sphere points q (N, d),
    timelike where ``timelike`` (N,) is set and spacelike elsewhere.

    Each vector is drawn by its complex coefficients over the g-orthonormal
    horizontal basis at its point: the frame columns other than slot n-1 of
    one stacked completion with q in that slot, whose signs are -1 on the
    first p. A candidate is kept when its square norm g has the wanted sign
    and |g| is above 0.05 of its Euclidean square norm. The spacelike rows
    are drawn first, so the acceptance probability does not degrade for
    boosted points; the draws depend on the signs alone, not on the bases.
    """
    qv = check_sphere_rows(sig, q, tol=1e-8)
    cols = [c for c in range(sig.ambient_dim) if c != sig.n - 1]
    bases = complete_unitary_frames(sig, {sig.n - 1: qv})[:, :, cols].transpose(0, 2, 1)
    signs = sig.signs[cols]
    timelike = np.asarray(timelike, dtype=bool)
    coeffs = np.empty(bases.shape[:2], dtype=complex)
    g = lambda c: np.sum(signs * np.abs(c) ** 2, axis=-1)
    for want, rows in ((1.0, ~timelike), (-1.0, timelike)):
        keep = lambda c: want * g(c) > 0.05 * np.sum(np.abs(c) ** 2, axis=-1)
        coeffs[rows] = _accepted(keep, sig.n, int(np.sum(rows)), rng)
    return np.matmul(coeffs[:, None, :], bases)[:, 0] / np.sqrt(np.abs(g(coeffs)))[:, None]
