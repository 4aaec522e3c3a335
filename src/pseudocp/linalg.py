"""Indefinite complex linear algebra on C^{n+1}_p and pseudo-sphere membership.

Complex vectors are numpy arrays of dtype complex128, which stores each entry
as an interleaved (re, im) pair. The ambient Hermitian product carries minus
signs on the first p slots; every routine reads the signature instead of
hard-coding p, so one code path serves all (n, p).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import DimensionError, SpherePointError

#: relative threshold separating lightlike from space/timelike vectors
LIGHT_TOL = 1e-8
#: absolute tolerance on |g(q,q) - 1| for pseudo-sphere membership
SPHERE_TOL = 1e-10


def metric_signs(p: int, dim: int) -> np.ndarray:
    """Sign vector (-1 on the first p slots, +1 after) of length ``dim``."""
    s = np.ones(dim)
    s[:p] = -1.0
    return s


@dataclass(frozen=True)
class Signature:
    """Ambient signature: complex projective dimension n and index parameter p.

    The ambient complex space is C^{n+1} with p timelike slots, so the real
    metric has index 2p. Requires n >= 2 and 1 <= p <= n-1, which keeps the
    projective quotient from being Riemannian or negative definite.
    """

    n: int
    p: int

    def __post_init__(self):
        if int(self.n) != self.n or int(self.p) != self.p:
            raise ValueError("signature entries must be integers")
        if self.n < 2:
            raise ValueError(f"need n >= 2, got n={self.n}")
        if not 1 <= self.p <= self.n - 1:
            raise ValueError(f"need 1 <= p <= n-1, got p={self.p}, n={self.n}")

    @property
    def ambient_dim(self) -> int:
        return self.n + 1

    @cached_property
    def signs(self) -> np.ndarray:
        s = metric_signs(self.p, self.n + 1)
        s.setflags(write=False)
        return s


class CausalCharacter(Enum):
    SPACELIKE = "spacelike"
    TIMELIKE = "timelike"
    LIGHTLIKE = "lightlike"
    ZERO = "zero"


def as_ambient(sig: Signature, z) -> np.ndarray:
    """Coerce ``z`` to a complex ambient vector of length n+1."""
    v = np.asarray(z, dtype=complex)
    if v.shape != (sig.ambient_dim,):
        raise DimensionError(
            f"expected vector of length {sig.ambient_dim}, got shape {v.shape}"
        )
    return v


def hermitian_rows(signs: np.ndarray, z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Row-wise indefinite Hermitian product sum signs z conj(w) of stacked
    vectors; broadcasts over leading axes. Every Hermitian product and
    metric below is built on it."""
    return np.sum(signs * z * np.conj(w), axis=-1)


def hermitian_product(sig: Signature, z, w) -> complex:
    """Indefinite Hermitian product: minus on the first p slots, plus after.

    Conjugate symmetric: ``hermitian_product(z, w) == conj(hermitian_product(w, z))``.
    """
    return complex(hermitian_rows(sig.signs, as_ambient(sig, z), as_ambient(sig, w)))


def real_metric(sig: Signature, z, w) -> float:
    """Real part of the Hermitian product: the ambient semi-Riemannian metric."""
    return float(gdot_rows(sig.signs, as_ambient(sig, z), as_ambient(sig, w)))


def gdot_rows(signs: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise real metric for stacked vectors; broadcasts over leading axes."""
    return np.real(hermitian_rows(signs, a, b))


def jmul(z) -> np.ndarray:
    """Multiplication by i, the ambient complex structure."""
    return 1j * np.asarray(z, dtype=complex)


def causal_character(sig: Signature, v, tol: float = LIGHT_TOL) -> CausalCharacter:
    """Classify a vector as spacelike, timelike, lightlike or zero.

    Zero means the Euclidean norm is below ``tol``; lightlike means
    |g(v,v)| <= tol * ||v||_E^2, a scale-invariant test.
    """
    return causal_characters(sig, as_ambient(sig, v)[None], tol)[0]


def causal_characters(sig: Signature, v, tol: float = LIGHT_TOL) -> list[CausalCharacter]:
    """``causal_character`` of each row of v (N, d)."""
    v = np.asarray(v, dtype=complex)
    eunorm2 = np.sum(np.abs(v) ** 2, axis=-1)
    g = gdot_rows(sig.signs, v, v)
    code = np.where(
        np.sqrt(eunorm2) <= tol,
        0,
        np.where(np.abs(g) <= tol * eunorm2, 1, np.where(g > 0, 2, 3)),
    )
    return [_CHARACTER_BY_CODE[c] for c in code.tolist()]


_CHARACTER_BY_CODE = (
    CausalCharacter.ZERO,
    CausalCharacter.LIGHTLIKE,
    CausalCharacter.SPACELIKE,
    CausalCharacter.TIMELIKE,
)


def check_sphere_rows(sig: Signature, q, tol: float = SPHERE_TOL) -> np.ndarray:
    """Stacked rows q (N, d) as a complex array, raising unless every
    g(q,q) = 1 within tol; the first row off the sphere raises."""
    qv = np.asarray(q, dtype=complex)
    residual = np.abs(gdot_rows(sig.signs, qv, qv) - 1.0)
    bad = residual > tol
    if np.any(bad):
        r = float(residual[int(np.argmax(bad))])
        raise SpherePointError(f"|g(q,q) - 1| = {r:.3e} exceeds {tol:.1e}")
    return qv
