"""Frame-built holomorphic isometries.

Holomorphic isometries of the quotient come from indefinite unitary matrices
acting on the pseudo-sphere. A unit sphere point together with a unit
horizontal vector determines such a matrix by frame completion; it carries
the standard base point and marked direction to them. Stacked completions
raise by the error policy of ``frames``: the checks run in the order of a
one-row call, and the first that any row fails raises.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CausalCharacterError, FrameError
from .frames import complete_unitary_frames
from .linalg import (
    CausalCharacter,
    Signature,
    as_ambient,
    causal_characters,
    check_sphere_rows,
    gdot_rows,
    hermitian_rows,
    metric_signs,
)

UNITARY_TOL = 1e-10


@dataclass(frozen=True)
class IndefiniteUnitaryMatrix:
    """Matrix preserving the indefinite Hermitian form, with determinant one."""

    sig: Signature
    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=complex)
        d = self.sig.ambient_dim
        if m.shape != (d, d):
            raise FrameError(f"expected {(d, d)} matrix, got {m.shape}")
        eye = np.diag(metric_signs(self.sig.p, d))
        defect = np.max(np.abs(m.conj().T @ eye @ m - eye))
        if defect > UNITARY_TOL:
            raise FrameError(f"form defect {defect:.3e} exceeds {UNITARY_TOL:.1e}")
        det = np.linalg.det(m)
        if abs(det - 1.0) > UNITARY_TOL:
            raise FrameError(f"determinant {det} is not 1 within {UNITARY_TOL:.1e}")
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)


def boost(sig: Signature, t: float) -> IndefiniteUnitaryMatrix:
    """exp(t B), with B mixing slot 0 and the last slot: a boost of rapidity
    t. Every signature has p >= 1 timelike slots first and n - p >= 1
    spacelike slots last, so the pair is always one timelike, one spacelike."""
    m = np.eye(sig.ambient_dim, dtype=complex)
    m[0, 0] = m[-1, -1] = np.cosh(t)
    m[0, -1] = m[-1, 0] = np.sinh(t)
    return IndefiniteUnitaryMatrix(sig, m)


def frame_to_isometry(sig: Signature, q, eta_hat) -> IndefiniteUnitaryMatrix:
    """Frame completion sending the standard base point to q and the marked
    direction to eta_hat: the one-row case of ``frame_to_isometries``."""
    m = frame_to_isometries(sig, as_ambient(sig, q)[None], as_ambient(sig, eta_hat)[None])[0]
    return IndefiniteUnitaryMatrix(sig, m)


def frame_to_isometries(sig: Signature, q, eta_hat) -> np.ndarray:
    """Frame completions (N, d, d) sending the standard base point to each
    row of q (N, d) and the marked direction to the same row of eta_hat
    (N, d). Their form and determinant are left to the caller to judge;
    the one-row ``frame_to_isometry`` checks them.

    The sphere point lands in column n-1; a spacelike eta_hat lands in the
    last column and a timelike one in column 0, matching the causal type of
    each column slot. Lightlike eta_hat is rejected. The checks run in the
    order of a one-row call, each over every row, and the first that fails
    raises (the error policy of ``frames``): the sphere, the causal type,
    horizontality, then one stacked completion per causal type.
    """
    q = check_sphere_rows(sig, np.asarray(q, dtype=complex), tol=1e-8)
    ev = np.asarray(eta_hat, dtype=complex)
    chars = causal_characters(sig, ev)
    if any(c in (CausalCharacter.LIGHTLIKE, CausalCharacter.ZERO) for c in chars):
        raise CausalCharacterError("marked direction must be spacelike or timelike")
    ev = ev / np.sqrt(np.abs(gdot_rows(sig.signs, ev, ev)))[:, None]
    hp = hermitian_rows(sig.signs, ev, q)
    if np.any(np.hypot(hp.real, hp.imag) > 1e-8):
        raise FrameError("marked direction is not horizontal at q")
    spacelike = np.array([c is CausalCharacter.SPACELIKE for c in chars], dtype=bool)
    mats = np.empty((len(q), sig.ambient_dim, sig.ambient_dim), dtype=complex)
    for rows, slot in ((np.flatnonzero(spacelike), sig.n), (np.flatnonzero(~spacelike), 0)):
        if rows.size:
            mats[rows] = complete_unitary_frames(sig, {sig.n - 1: q[rows], slot: ev[rows]})
    return mats
