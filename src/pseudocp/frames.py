"""Indefinite orthonormalization and completion of unitary frames.

Columns of a frame are complex vectors, orthonormal for the indefinite
Hermitian product, with timelike columns (square norm -1) occupying the
first p slots and spacelike columns (+1) the rest. Completion uses modified
Gram-Schmidt with pivoting on |g(v,v)| and perturbed restarts, so near-null
pivots cannot destabilize the normalization.

Completion is stacked: ``complete_unitary_frames`` runs the pivoted
Gram-Schmidt of many rows (the same fixed slots, different columns) as array
operations, with per-row pivots and slot counters, and reruns only the rows
that need a restart. ``complete_unitary_frame`` is its one-row case. A row's
frame does not depend on the other rows of the stack, and the perturbation of
each restart is the one a one-row call draws, so stacking changes no result.

The real-metric Gram-Schmidt is stacked the same way:
``orthonormalize_real_rows`` runs the pivoted process over the candidate
vectors of many rows at once (the adapted tangent bases of a stack of
hypersurface points), and ``orthonormalize_real_metric`` is its one-row
case.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, FrameError
from .linalg import Signature, as_ambient, gdot_rows

#: a pivot with |g(u,u)| below this (relative to the Euclidean norm) triggers a restart
PIVOT_TOL = 1e-10
_MAX_RESTARTS = 8


class FirstFailure:
    """The first row of a stack that fails a check, and its error.

    Callers run the checks in the order a one-row call runs them. Each check
    only looks at the rows before the first failure so far (``rows``), so
    the error kept is the one a row-by-row loop would raise first.
    """

    def __init__(self, count: int):
        self.rows = count
        self.error = None

    def check(self, bad, make_error) -> None:
        """Record the first row flagged by ``bad`` (one flag, or one per
        row); ``make_error(i)`` builds the error of row i."""
        bad = np.asarray(bad, dtype=bool)
        bad = np.full(self.rows, bool(bad)) if bad.ndim == 0 else bad[: self.rows]
        if np.any(bad):
            i = int(np.argmax(bad))
            self.fail(i, make_error(i))

    def fail(self, row: int, error: Exception) -> None:
        if row < self.rows:
            self.rows, self.error = row, error

    def raise_first(self) -> None:
        if self.error is not None:
            raise self.error


def _validate_fixed(sig: Signature, fixed: dict[int, np.ndarray], found: FirstFailure, tol: float = 1e-8):
    """Check the fixed columns of every row, ``fixed`` mapping slot -> (N, d):
    per slot in sorted order its range, then its square norm; then every
    pair for g_C-orthogonality."""
    items = sorted(fixed.items())
    for slot, vec in items:
        found.check(not 0 <= slot < sig.ambient_dim, lambda i: FrameError(f"slot {slot} out of range"))
        want = -1.0 if slot < sig.p else 1.0
        g = _hermitian_rows(sig.signs, vec[: found.rows], vec[: found.rows])
        found.check(
            np.hypot(g.real - want, g.imag) > tol,
            lambda i: FrameError(
                f"fixed column for slot {slot} has g(v,v) = {complex(g[i]):.3e}, expected {want:+.0f}"
            ),
        )
    for i, (_, a) in enumerate(items):
        for _, b in items[i + 1 :]:
            g = _hermitian_rows(sig.signs, a[: found.rows], b[: found.rows])
            found.check(
                np.hypot(g.real, g.imag) > tol,
                lambda i: FrameError("fixed columns are not mutually g_C-orthogonal"),
            )


def _hermitian_rows(signs: np.ndarray, z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Row-wise ``hermitian_product``; broadcasts over leading axes."""
    return np.sum(signs * z * np.conj(w), axis=-1)


def _pivot_steps(sig: Signature, fixed: dict[int, np.ndarray], start: np.ndarray, count: int):
    """One completion attempt for ``count`` rows: the candidates ``start``
    made orthogonal to the fixed columns, then pivoted Gram-Schmidt on
    |g(c,c)|; the largest free slot absorbs the determinant's phase.

    Returns the frames (count, d, d) and which rows succeeded. A row fails
    when no candidate is eligible for a remaining slot or its determinant
    is off the unit circle.
    """
    dim = sig.ambient_dim
    signs = sig.signs
    mats = np.empty((count, dim, dim), dtype=complex)
    cand = np.repeat(start[None], count, axis=0)  # row k of cand[i] is candidate k
    for slot, v in fixed.items():
        mats[:, :, slot] = v
        hp = _hermitian_rows(signs, cand, v[:, None, :])
        cand = cand - (signs[slot] * hp)[..., None] * v[:, None, :]
    minus = [c for c in range(sig.p) if c not in fixed]
    plus = [c for c in range(sig.p, dim) if c not in fixed]
    free = minus + plus  # in increasing order
    slot_of = (np.array(minus + [-1]), np.array(plus + [-1]))
    live = np.arange(count)  # rows whose pivots have all been found so far
    used = np.zeros((count, dim), dtype=bool)
    taken = np.zeros((2, count), dtype=int)  # timelike, spacelike slots filled
    for _ in range(len(free)):
        e2 = np.sum(np.abs(cand) ** 2, axis=-1)
        g = gdot_rows(signs, cand, cand)
        eligible = (
            ~used
            & (e2 >= 1e-20)
            & (np.abs(g) > PIVOT_TOL * e2)
            & ((g >= 0) | (taken[0] < len(minus))[:, None])
            & ((g <= 0) | (taken[1] < len(plus))[:, None])
        )
        score = np.where(eligible, np.abs(g), 0.0)
        best = np.argmax(score, axis=1)  # lowest index on ties, like a strict > scan
        rows = np.arange(len(live))
        has_pivot = score[rows, best] > 0
        if not np.all(has_pivot):
            live, cand, used = live[has_pivot], cand[has_pivot], used[has_pivot]
            taken, best, g = taken[:, has_pivot], best[has_pivot], g[has_pivot]
            rows = np.arange(len(live))
        gu = g[rows, best]
        u = cand[rows, best] / np.sqrt(np.abs(gu))[:, None]
        side = (gu > 0).astype(int)
        mats[live, :, np.choose(side, (slot_of[0][taken[0]], slot_of[1][taken[1]]))] = u
        taken[side, rows] += 1
        used[rows, best] = True
        hp = _hermitian_rows(signs, cand, u[:, None, :])
        cand = cand - (np.where(side == 1, 1.0, -1.0)[:, None] * hp)[..., None] * u[:, None, :]
    det = np.linalg.det(mats[live])
    on_circle = ~(np.abs(np.hypot(det.real, det.imag) - 1.0) > 1e-9)
    live, det = live[on_circle], det[on_circle]
    if free:
        mats[live, :, free[-1]] = mats[live, :, free[-1]] / det[:, None]
    ok = np.zeros(count, dtype=bool)
    ok[live] = True
    return mats, ok


def complete_leading_frames(sig: Signature, fixed: dict[int, np.ndarray], found: FirstFailure) -> np.ndarray:
    """``complete_unitary_frames`` without the raise: the frames of the rows
    before the first failing row, which ``found`` (made for all N rows)
    records with its error.

    For callers that run further checks per row and must raise the error of
    the first failing row of them all.
    """
    dim = sig.ambient_dim
    fixed = {slot: np.asarray(v, dtype=complex) for slot, v in fixed.items()}
    count = len(next(iter(fixed.values()))) if fixed else 1
    for v in fixed.values():
        if v.shape != (count, dim):
            raise DimensionError(f"expected fixed columns of shape {(count, dim)}, got {v.shape}")
    _validate_fixed(sig, fixed, found)
    fixed = {slot: v[: found.rows] for slot, v in fixed.items()}
    mats = np.empty((found.rows, dim, dim), dtype=complex)
    todo = np.arange(found.rows)
    start = np.eye(dim, dtype=complex)
    rng = np.random.default_rng(0)
    for attempt in range(_MAX_RESTARTS):
        if todo.size == 0:
            break
        if attempt > 0:
            # one perturbation per attempt for every row, drawn as a one-row call draws it
            noise = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            start = np.eye(dim, dtype=complex) + 1e-3 * noise
        rows = {slot: v[todo] for slot, v in fixed.items()}
        got, ok = _pivot_steps(sig, rows, start, todo.size)
        mats[todo[ok]] = got[ok]
        todo = todo[~ok]
    if todo.size:
        found.fail(int(todo[0]), FrameError("frame completion failed: degenerate complement"))
    return mats[: found.rows]


def complete_unitary_frames(sig: Signature, fixed: dict[int, np.ndarray]) -> np.ndarray:
    """Complete stacked fixed columns to full frames with determinant one.

    ``fixed`` maps slot -> (N, d), the same slots for every row; the result
    is (N, d, d). Free slots are filled from the standard basis by modified
    Gram-Schmidt with pivoting on |g(c,c)|, run on all rows as stacked array
    operations; a row whose pivot degenerates is rerun with perturbed
    candidates, the same perturbation per attempt for every row. The column
    of largest free index absorbs a unit phase so the determinant is
    exactly one, which generalizes flipping the sign of one column. The
    first bad row in row order decides the FrameError raised.
    """
    found = FirstFailure(len(next(iter(fixed.values()))) if fixed else 1)
    mats = complete_leading_frames(sig, fixed, found)
    found.raise_first()
    return mats


def complete_unitary_frame(sig: Signature, fixed: dict[int, np.ndarray]) -> np.ndarray:
    """One frame: the one-row case of ``complete_unitary_frames``."""
    rows = {slot: as_ambient(sig, v)[None] for slot, v in fixed.items()}
    return complete_unitary_frames(sig, rows)[0]


def orthonormalize_real_rows(
    sig: Signature,
    pool: np.ndarray,
    count: int,
    pin: np.ndarray | None = None,
    pinned: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Gram-Schmidt over the real span of each row's candidates, pivoting on
    |g(v,v)|, run on all rows as stacked array operations.

    ``pool`` (N, m, d) holds the candidates of each row. Each step first
    drops the candidates of Euclidean square norm below 1e-18, then takes
    the one of largest |g(v,v)| above ``PIVOT_TOL`` times its Euclidean square
    norm (the lowest index on ties), normalizes it and projects it out of
    the others. A row with ``pinned`` set takes its row of ``pin`` (N, d),
    normalized, as its first vector instead, with no drop before it.
    Returns ``count`` unit vectors per row (N, count, d) with their signs
    g(v,v) = +-1 (N, count). Raises FrameError when a row runs out of
    candidates (linearly dependent input) or finds no non-null pivot
    (degenerate span); the first such row decides the error.
    """
    signs = sig.signs
    cand = np.array(pool, dtype=complex)
    rows, width, dim = cand.shape
    out = np.empty((rows, count, dim), dtype=complex)
    out_signs = np.empty((rows, count))
    found = FirstFailure(rows)
    live = np.arange(rows)  # rows with no failure so far
    gone = np.zeros((rows, width), dtype=bool)  # candidates taken or dropped
    for step in range(count):
        forced = pinned[live] if step == 0 and pinned is not None else np.zeros(len(live), dtype=bool)
        free = ~forced
        e2 = np.sum(np.abs(cand) ** 2, axis=-1)
        gone |= free[:, None] & ~(e2 >= 1e-18)
        g = gdot_rows(signs, cand, cand)
        score = np.where(~gone & (np.abs(g) > PIVOT_TOL * e2), np.abs(g), 0.0)
        best = np.argmax(score, axis=1)  # lowest index on ties, like a strict > scan
        at = np.arange(len(live))
        empty = free & np.all(gone, axis=1)
        no_pivot = free & ~empty & ~(score[at, best] > 0)
        bad = np.flatnonzero(empty | no_pivot)
        if bad.size:
            i = bad[0]
            message = "linearly dependent input vectors" if empty[i] else "degenerate span: lightlike pivot"
            found.fail(int(live[i]), FrameError(message))
        ok = ~(empty | no_pivot) & (live < found.rows)
        if not np.all(ok):
            live, cand, gone = live[ok], cand[ok], gone[ok]
            forced, best, at = forced[ok], best[ok], np.arange(int(np.sum(ok)))
        u = cand[at, best]
        if np.any(forced):
            u[forced] = pin[live[forced]]
        gu = gdot_rows(signs, u, u)
        u = u / np.sqrt(np.abs(gu))[:, None]
        sgn = np.where(gu > 0, 1.0, -1.0)
        out[live, step] = u
        out_signs[live, step] = sgn
        gone[at[~forced], best[~forced]] = True
        cand = cand - (sgn[:, None] * gdot_rows(signs, cand, u[:, None]))[..., None] * u[:, None]
    found.raise_first()
    return out, out_signs


def orthonormalize_real_metric(sig: Signature, vectors) -> tuple[np.ndarray, np.ndarray]:
    """Gram-Schmidt over the real span of ambient vectors, pivoting on
    |g(v,v)|: the one-row case of ``orthonormalize_real_rows``.

    Returns the unit vectors (count, d) together with their signs
    g(v,v) = +-1. Raises FrameError when the span is degenerate (a pivot is
    relatively lightlike) or the input is linearly dependent.
    """
    pool = np.array([as_ambient(sig, v) for v in vectors], dtype=complex).reshape(-1, sig.ambient_dim)
    vecs, signs = orthonormalize_real_rows(sig, pool[None], len(pool))
    return vecs[0], signs[0]
