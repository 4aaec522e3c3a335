"""Frame-built isometries and the catalogue of totally geodesic leaves.

Holomorphic isometries of the quotient come from indefinite unitary matrices
acting on the pseudo-sphere. A unit sphere point together with a unit
horizontal vector determines such a matrix, which transports the standard
models (hyperplane slices, constant curvature surfaces, index 1 or 2
threefolds) onto leaves through arbitrary points.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import CausalCharacterError, FrameError, PlaneError, PlaneIndexError, SpherePointError
from .frames import (
    FirstFailure,
    complete_leading_frames,
    complete_unitary_frame,
    orthonormalize_real_metric,
)
from .linalg import (
    CausalCharacter,
    Signature,
    as_ambient,
    causal_character,
    causal_characters,
    check_sphere_point,
    gdot_rows,
    jmul,
    metric_signs,
    real_metric,
)
from .projective import (
    ProjectivePoint,
    ProjectiveTangent,
    canonicalize,
    canonical_phase,
    quadric_geodesic,
)

UNITARY_TOL = 1e-10


class LeafKind(Enum):
    COMPLEX_HYPERPLANE = "complex_hyperplane"
    RP2 = "rp2"
    H2_2 = "h2_2"
    S2_1 = "s2_1"
    B3_1 = "b3_1"
    B3_2 = "b3_2"


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

    def apply(self, z) -> np.ndarray:
        return self.entries @ np.asarray(z, dtype=complex)

    def inverse(self) -> "IndefiniteUnitaryMatrix":
        eye = np.diag(metric_signs(self.sig.p, self.sig.ambient_dim))
        return IndefiniteUnitaryMatrix(self.sig, eye @ self.entries.conj().T @ eye)

    def compose(self, other: "IndefiniteUnitaryMatrix") -> "IndefiniteUnitaryMatrix":
        return IndefiniteUnitaryMatrix(self.sig, self.entries @ other.entries)

    def project_point(self, x: ProjectivePoint) -> ProjectivePoint:
        return canonicalize(self.sig, self.apply(x.rep))


def frame_to_isometry(sig: Signature, q, eta_hat) -> IndefiniteUnitaryMatrix:
    """Frame completion sending the standard base point to q and the marked
    direction to eta_hat: the one-row case of ``frame_to_isometries``."""
    return frame_to_isometries(sig, as_ambient(sig, q)[None], as_ambient(sig, eta_hat)[None])[0]


def frame_to_isometries(sig: Signature, q, eta_hat) -> list[IndefiniteUnitaryMatrix]:
    """Frame completions sending the standard base point to each row of q
    (N, d) and the marked direction to the same row of eta_hat (N, d).

    The sphere point lands in column n-1; a spacelike eta_hat lands in the
    last column and a timelike one in column 0, matching the causal type of
    each column slot. Lightlike eta_hat is rejected. The rows of each causal
    type are completed in one stacked call. Each row runs the checks of a
    one-row call in its order, and the first row that fails decides the
    error raised.
    """
    q = np.asarray(q, dtype=complex)
    ev = np.asarray(eta_hat, dtype=complex)
    found = FirstFailure(len(q))

    def sphere_error(i):
        try:
            check_sphere_point(sig, q[i], tol=1e-8)
        except SpherePointError as exc:
            return exc

    found.check(np.abs(gdot_rows(sig.signs, q, q) - 1.0) > 1e-8, sphere_error)
    chars = causal_characters(sig, ev[: found.rows])
    found.check(
        [c in (CausalCharacter.LIGHTLIKE, CausalCharacter.ZERO) for c in chars],
        lambda i: CausalCharacterError("marked direction must be spacelike or timelike"),
    )
    q, ev = q[: found.rows], ev[: found.rows]
    ev = ev / np.sqrt(np.abs(gdot_rows(sig.signs, ev, ev)))[:, None]
    hp = np.sum(sig.signs * ev * np.conj(q), axis=-1)
    found.check(
        np.hypot(hp.real, hp.imag) > 1e-8,
        lambda i: FrameError("marked direction is not horizontal at q"),
    )
    spacelike = np.array([c is CausalCharacter.SPACELIKE for c in chars[: found.rows]], dtype=bool)
    mats = np.empty((found.rows, sig.ambient_dim, sig.ambient_dim), dtype=complex)
    for rows, slot in ((np.flatnonzero(spacelike), sig.n), (np.flatnonzero(~spacelike), 0)):
        if rows.size == 0:
            continue
        group = FirstFailure(len(rows))
        done = complete_leading_frames(sig, {sig.n - 1: q[rows], slot: ev[rows]}, group)
        mats[rows[: len(done)]] = done
        if group.error is not None:
            found.fail(int(rows[group.rows]), group.error)
    out = [IndefiniteUnitaryMatrix(sig, m) for m in mats[: found.rows]]
    found.raise_first()
    return out


def _random_model_point(signs: np.ndarray, rng: np.random.Generator, complex_model: bool):
    dim = len(signs)
    while True:
        if complex_model:
            z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        else:
            z = rng.standard_normal(dim)
        g = float(np.real(np.sum(signs * z * np.conj(z))))
        if g > 0.2:
            return z / np.sqrt(g)


@dataclass(frozen=True)
class TotallyGeodesicLeaf:
    """A totally geodesic submanifold realized as isometry(model slice).

    ``slots`` lists the ambient coordinate slots carrying the model
    coordinates; ``model_signs`` is the metric of the model's flat container.
    Real models (surfaces and threefolds) have real coordinates; the
    hyperplane model is a complex sphere slice of index ``t``.
    """

    kind: LeafKind
    sig: Signature
    isometry: IndefiniteUnitaryMatrix
    base: ProjectivePoint
    slots: tuple[int, ...]
    model_signs: np.ndarray = field(repr=False)
    complex_model: bool
    t: int | None = None

    def embed_model(self, m) -> np.ndarray:
        """Ambient sphere lift of a model point (or model tangent vector)."""
        out = np.zeros(self.sig.ambient_dim, dtype=complex)
        out[list(self.slots)] = np.asarray(m, dtype=complex)
        return self.isometry.apply(out)

    def sample_points(self, k: int, rng: np.random.Generator) -> list[ProjectivePoint]:
        return [
            canonicalize(
                self.sig,
                self.embed_model(
                    _random_model_point(self.model_signs, rng, self.complex_model)
                ),
            )
            for _ in range(k)
        ]

    def random_model_state(self, rng: np.random.Generator):
        """Random model point together with a unit model tangent there."""
        signs = self.model_signs
        m0 = _random_model_point(signs, rng, self.complex_model)
        while True:
            if self.complex_model:
                v = rng.standard_normal(len(signs)) + 1j * rng.standard_normal(len(signs))
            else:
                v = rng.standard_normal(len(signs))
            g0 = np.sum(signs * v * np.conj(m0))
            v = v - (np.real(g0) if not self.complex_model else g0) * m0
            gv = float(np.real(np.sum(signs * v * np.conj(v))))
            if abs(gv) > 0.05 * float(np.sum(np.abs(v) ** 2)):
                return m0, v / np.sqrt(abs(gv))

    def model_geodesic(self, m0, mv, t: float) -> np.ndarray:
        """Ambient lift of the model geodesic through (m0, mv) at time t."""
        return self.embed_model(quadric_geodesic(self.model_signs, m0, mv, t))

    def membership_residual(self, point: ProjectivePoint) -> float:
        """How far a point is from lying on this leaf (phase invariant)."""
        w = self.isometry.inverse().apply(point.rep)
        outside = [k for k in range(self.sig.ambient_dim) if k not in self.slots]
        res = float(np.max(np.abs(w[outside]))) if outside else 0.0
        if not self.complex_model:
            inside = w[list(self.slots)]
            phase = canonical_phase(inside)
            res = max(res, float(np.max(np.abs(np.imag(inside * phase)))))
        return res


def _leaf_constraint(kind: LeafKind, sig: Signature):
    n, p = sig.n, sig.p
    need = {
        LeafKind.RP2: (n >= 3 and p <= n - 2, "needs n >= 3 and p <= n-2"),
        LeafKind.H2_2: (n >= 3 and p >= 2, "needs n >= 3 and p >= 2"),
        LeafKind.S2_1: (n >= 2, "needs n >= 2"),
        LeafKind.B3_1: (n >= 3 and p <= n - 2, "needs n >= 3 and p <= n-2"),
        LeafKind.B3_2: (n >= 3 and p >= 2, "needs n >= 3 and p >= 2"),
    }
    ok, msg = need[kind]
    if not ok:
        raise PlaneError(f"{kind.value} model not available in signature (n={n}, p={p}): {msg}")


def complex_hyperplane_leaf(x: ProjectivePoint, eta: ProjectiveTangent) -> TotallyGeodesicLeaf:
    """Totally geodesic hyperplane leaf through x tangent to (span{eta, J eta})^perp.

    A spacelike normal direction gives the slice omitting the last slot and
    leaf index t = p; a timelike one omits the first slot and drops the index
    to t = p-1.
    """
    sig = x.sig
    iso = frame_to_isometry(sig, x.rep, eta.vec)
    char = causal_character(sig, eta.vec)
    if char is CausalCharacter.SPACELIKE:
        t = sig.p
        slots = tuple(range(sig.n))
    else:
        t = sig.p - 1
        slots = tuple(range(1, sig.n + 1))
    return TotallyGeodesicLeaf(
        kind=LeafKind.COMPLEX_HYPERPLANE,
        sig=sig,
        isometry=iso,
        base=x,
        slots=slots,
        model_signs=metric_signs(t, sig.n),
        complex_model=True,
        t=t,
    )


def real_model_slots(kind: LeafKind, sig: Signature) -> tuple[int, ...]:
    n = sig.n
    table = {
        LeafKind.RP2: (n - 2, n - 1, n),
        LeafKind.H2_2: (0, 1, n),
        LeafKind.S2_1: (0, n - 1, n),
        LeafKind.B3_1: (0, n - 2, n - 1, n),
        LeafKind.B3_2: (0, 1, n - 1, n),
    }
    return table[kind]


def _totally_real_leaf(x: ProjectivePoint, tangents, kinds_by_index) -> TotallyGeodesicLeaf:
    sig = x.sig
    vecs = [np.asarray(t.vec, dtype=complex) for t in tangents]
    for t in tangents:
        if not t.at.close_to(x, 1e-8):
            raise PlaneError("plane tangents are not based at the given point")
    for i, a in enumerate(vecs):
        for b in vecs[i + 1 :]:
            if abs(real_metric(sig, a, jmul(b))) > 1e-8:
                raise PlaneError("plane is not totally real: g(u, Jw) != 0")
    try:
        ortho, o_signs = orthonormalize_real_metric(sig, vecs)
    except FrameError as exc:
        raise PlaneError(str(exc)) from exc
    order = np.argsort(o_signs)  # timelike vectors first
    ortho = [ortho[i] for i in order]
    o_signs = [o_signs[i] for i in order]
    index = sum(1 for s in o_signs if s < 0)
    kind = kinds_by_index.get(index)
    if kind is None:
        raise PlaneIndexError(f"plane of index {index} has no model here")
    _leaf_constraint(kind, sig)
    slots = real_model_slots(kind, sig)
    fixed = {sig.n: x.rep}
    for slot, vec in zip(slots[:-1], ortho):
        fixed[slot] = vec
    mat = complete_unitary_frame(sig, fixed)
    det = np.linalg.det(mat)
    if abs(det - 1.0) > 1e-12:
        # fully pinned frame: absorb the phase globally, which induces the
        # same projective isometry but lands in the determinant-one group
        mat = mat * det ** (-1.0 / sig.ambient_dim)
    iso = IndefiniteUnitaryMatrix(sig, mat)
    signs_model = np.array([-1.0] * index + [1.0] * (len(vecs) + 1 - index))
    return TotallyGeodesicLeaf(
        kind=kind,
        sig=sig,
        isometry=iso,
        base=x,
        slots=slots,
        model_signs=signs_model,
        complex_model=False,
    )


def totally_real_surface(x: ProjectivePoint, plane) -> TotallyGeodesicLeaf:
    """Totally geodesic totally real surface tangent to a non-degenerate 2-plane.

    The Gram signature of the plane picks the model: (+,+) the round sphere
    quotient, mixed the de Sitter plane quotient, (-,-) the negative definite
    one (which needs p >= 2).
    """
    plane = list(plane)
    if len(plane) != 2:
        raise PlaneError("expected two spanning tangent vectors")
    return _totally_real_leaf(
        x, plane, {0: LeafKind.RP2, 1: LeafKind.S2_1, 2: LeafKind.H2_2}
    )


def totally_real_threefold(x: ProjectivePoint, plane) -> TotallyGeodesicLeaf:
    """Totally geodesic totally real threefold of index 1 or 2.

    Index 1 gives the de Sitter model, index 2 the index-two quadric.
    Definite 3-planes (index 0 or 3) are rejected.
    """
    plane = list(plane)
    if len(plane) != 3:
        raise PlaneError("expected three spanning tangent vectors")
    return _totally_real_leaf(x, plane, {1: LeafKind.B3_1, 2: LeafKind.B3_2})
