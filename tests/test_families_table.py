"""The family table against the hand-written closed forms it replaced.

The reference below is the per-family code that ``examples.FAMILIES`` and
its derived forms replaced: one branch per family for the default seed,
the signature limits, the slice map, the ruling isometry, the structure
field, the acceleration of the structure flow and the case prediction.
Everything derived from the table matches it bit for bit, except the shape
image of family 4: its hand-written form had the wrong sign in slot 0 for
t != 0, and the table's is the ruling isometry's image of the one at t = 0.
"""

import numpy as np
import pytest

from pseudocp.errors import DomainError
from pseudocp.examples import (
    EXAMPLE_IDS,
    S_RANGE,
    T0,
    example_fields,
    example_integral_curve,
    example_leaf_tangent,
    example_map,
    example_spec,
    gamma_seed,
    ruling_isometry,
    seed_sphere_index,
)
from pseudocp.linalg import Signature, metric_signs
from pseudocp.ruled import MinimalCase

T_VALUES = (-0.4, 0.0, 0.17, 0.33)

# ---------------------------------------------------------------------------
# per-family reference
# ---------------------------------------------------------------------------


def _ref_default_seed(example_id, sig):
    n = sig.n
    z = np.zeros(n, dtype=complex)
    if example_id == 1:
        return gamma_seed(sig, np.pi / 8)
    if example_id == 2:
        z[0] = 1.0
        z[1] = 1.25
        z[2] = np.sqrt(2.0 - 1.25**2)
        return z
    if example_id == 3:
        z[0] = 0.5
        z[1] = 1.0
        z[n - 1] = 0.5
        return z
    z[0] = 1.0
    z[1] = 1.25
    z[n - 1] = np.sqrt(2.0 - 1.25**2)
    return z


def _ref_limits_ok(example_id, n, p):
    return {
        1: n >= 3 and 1 <= p <= n - 2,
        2: n >= 4 and 1 <= p <= n - 2,
        3: n >= 3 and 2 <= p <= n - 1,
        4: n >= 3 and 2 <= p <= n - 1,
    }[example_id]


def _ref_seed_sphere_index(example_id, sig):
    return sig.p if example_id in (1, 2) else sig.p - 1


def _ref_omega_slot(example_id, n):
    return n - 1 if example_id in (1, 3) else 0


def _ref_seed_ok(example_id, sig, z):
    signs = metric_signs(_ref_seed_sphere_index(example_id, sig), sig.n)
    g = float(np.real(np.sum(signs * z * np.conj(z))))
    return abs(g - 1.0) <= 1e-10 and abs(z[_ref_omega_slot(example_id, sig.n)]) >= 1e-12


def _ref_accepts(example_id, n, p):
    """Whether the hand-written code built a default instance at (n, p)."""
    try:
        sig = Signature(n, p)
        z = _ref_default_seed(example_id, sig)
    except (ValueError, IndexError):
        return False
    return _ref_limits_ok(example_id, n, p) and _ref_seed_ok(example_id, sig, z)


def _ref_slice_map(example_id, n, t, x):
    out = np.zeros(n + 1, dtype=complex)
    if example_id == 1:
        out[: n - 1] = x[: n - 1]
        out[n - 1] = np.cos(t) * x[n - 1]
        out[n] = np.sin(t) * x[n - 1]
    elif example_id == 2:
        out[0] = np.cosh(t) * x[0]
        out[1:n] = x[1:n]
        out[n] = np.sinh(t) * x[0]
    elif example_id == 3:
        out[0] = np.sinh(t) * x[n - 1]
        out[1:n] = x[: n - 1]
        out[n] = np.cosh(t) * x[n - 1]
    else:
        out[0] = np.sin(t) * x[0]
        out[1] = np.cos(t) * x[0]
        out[2:] = x[1:n]
    return out


def _ref_ruling_isometry(example_id, n, t):
    m = np.eye(n + 1, dtype=complex)
    if example_id == 1:
        m[n - 1, n - 1] = np.cos(t)
        m[n - 1, n] = -np.sin(t)
        m[n, n - 1] = np.sin(t)
        m[n, n] = np.cos(t)
    elif example_id in (2, 3):
        m[0, 0] = np.cosh(t)
        m[0, n] = np.sinh(t)
        m[n, 0] = np.sinh(t)
        m[n, n] = np.cosh(t)
    else:
        m[0, 0] = np.cos(t)
        m[0, 1] = np.sin(t)
        m[1, 0] = -np.sin(t)
        m[1, 1] = np.cos(t)
    return m


def _ref_fields(example_id, n, t, z):
    """(xi_hat, a_xi_hat, epsilon); family 4's a_xi_hat is the faulty one."""
    out = np.zeros(n + 1, dtype=complex)
    axi = np.zeros(n + 1, dtype=complex)
    if example_id == 1:
        zl = z[n - 1]
        u = abs(zl) ** 2
        out[n - 1] = -np.sin(t) * zl
        out[n] = np.cos(t) * zl
        axi[n - 1] = 1j * np.cos(t) * zl / u
        axi[n] = 1j * np.sin(t) * zl / u
        eps = 1.0
    elif example_id == 2:
        zl = z[0]
        u = abs(zl) ** 2
        out[0] = np.sinh(t) * zl
        out[n] = np.cosh(t) * zl
        axi[0] = -1j * np.cosh(t) * zl / u
        axi[n] = -1j * np.sinh(t) * zl / u
        eps = 1.0
    elif example_id == 3:
        zl = z[n - 1]
        u = abs(zl) ** 2
        out[0] = np.cosh(t) * zl
        out[n] = np.sinh(t) * zl
        axi[0] = -1j * np.sinh(t) * zl / u
        axi[n] = -1j * np.cosh(t) * zl / u
        eps = -1.0
    else:
        zl = z[0]
        u = abs(zl) ** 2
        out[0] = np.cos(t) * zl
        out[1] = -np.sin(t) * zl
        axi[0] = -1j * np.sin(t) * zl / u
        axi[1] = 1j * np.cos(t) * zl / u
        eps = -1.0
    return out / abs(zl), axi, eps


def _ref_accel(example_id, n, z, t0, s):
    slot = _ref_omega_slot(example_id, n)
    mod = abs(z[slot])
    u = mod * mod
    tau = t0 + s / mod
    out = np.zeros(n + 1, dtype=complex)
    if example_id == 1:
        out[: n - 1] = z[: n - 1]
        out[n - 1] = (1.0 - 1.0 / u) * np.cos(tau) * z[n - 1]
        out[n] = (1.0 - 1.0 / u) * np.sin(tau) * z[n - 1]
    elif example_id == 2:
        out[0] = (1.0 + 1.0 / u) * np.cosh(tau) * z[0]
        out[1:n] = z[1:n]
        out[n] = (1.0 + 1.0 / u) * np.sinh(tau) * z[0]
    elif example_id == 3:
        out[0] = (1.0 / u - 1.0) * np.sinh(tau) * z[n - 1]
        out[1:n] = -z[: n - 1]
        out[n] = (1.0 / u - 1.0) * np.cosh(tau) * z[n - 1]
    else:
        out[0] = -(1.0 / u + 1.0) * np.sin(tau) * z[0]
        out[1] = -(1.0 / u + 1.0) * np.cos(tau) * z[0]
        out[2:] = -z[1:n]
    return out


def _ref_ruling_slots(example_id, n):
    if example_id == 1:
        return [n - 1, n]
    if example_id in (2, 3):
        return [0, n]
    return [0, 1]


def _ref_predict(example_id, n, z):
    """(ff, eps1, case, kind, kappa1) as the per-family code predicted them."""
    u = abs(z[_ref_omega_slot(example_id, n)]) ** 2
    eps1 = 1.0 if example_id in (1, 2) else -1.0
    if example_id in (1, 3):
        ff = 1.0 / u - 1.0
        if abs(ff) < 1e-8:
            case, kind, kappa1 = MinimalCase.CASE_C_NON_FRENET, None, None
        elif ff > 0:
            case, kind, kappa1 = (
                MinimalCase.CASE_B_TOTALLY_REAL_CIRCLE,
                "rp2" if eps1 > 0 else "s2_1",
                np.sqrt(ff),
            )
        else:
            case, kind, kappa1 = (
                MinimalCase.CASE_B_TOTALLY_REAL_CIRCLE,
                "s2_1" if eps1 > 0 else "h2_2",
                np.sqrt(-ff),
            )
    else:
        ff = -1.0 - 1.0 / u
        kind = "s2_1" if eps1 > 0 else "h2_2"
        case, kappa1 = MinimalCase.CASE_B_TOTALLY_REAL_CIRCLE, np.sqrt(-ff)
    if case is MinimalCase.CASE_C_NON_FRENET:
        still = _ref_slice_map(example_id, n, 0.0, z)
        others = np.delete(np.abs(still), _ref_ruling_slots(example_id, n))
        if float(np.max(others)) < 1e-6:
            case = MinimalCase.CASE_A_GEODESIC
        else:
            kind = "b3_1" if eps1 > 0 else "b3_2"
    return ff, eps1, case, kind, kappa1


# ---------------------------------------------------------------------------
# instances
# ---------------------------------------------------------------------------


def _accepted_default_instances():
    return [
        (ex, n, p)
        for ex in EXAMPLE_IDS
        for n in (3, 4)
        for p in range(1, n)
        if _ref_accepts(ex, n, p)
    ]


def _family_one_seeds():
    sig = Signature(3, 1)
    geod = np.zeros(3, dtype=complex)
    geod[2] = np.exp(0.4j)
    return [
        ("r=pi/8", gamma_seed(sig, np.pi / 8)),
        ("r=pi/4", gamma_seed(sig, np.pi / 4)),
        ("geodesic", geod),
    ]


def _instances():
    out = [
        pytest.param(example_spec(ex, sig=Signature(n, p)), id=f"ex{ex}-n{n}p{p}")
        for ex, n, p in _accepted_default_instances()
    ]
    out += [
        pytest.param(example_spec(1, seed_z=z), id=f"ex1-{tag}")
        for tag, z in _family_one_seeds()
    ]
    return out


def test_instances_cover_every_family():
    assert {ex for ex, _, _ in _accepted_default_instances()} == set(EXAMPLE_IDS)


@pytest.mark.parametrize("ex", EXAMPLE_IDS)
def test_accepts_and_rejects_as_before(ex):
    for n in range(2, 7):
        for p in range(0, n + 1):
            try:
                spec = example_spec(ex, sig=Signature(n, p))
            except (DomainError, ValueError):
                accepted = False
            else:
                accepted = True
                want = _ref_default_seed(ex, spec.sig)
                assert np.array_equal(spec.seed_z, want)
                assert seed_sphere_index(ex, spec.sig) == _ref_seed_sphere_index(ex, spec.sig)
            assert accepted == _ref_accepts(ex, n, p), (ex, n, p)


@pytest.mark.parametrize("spec", _instances())
def test_slice_map_and_isometry_bit_equal(spec):
    ex, n, z = spec.example_id, spec.sig.n, spec.seed_z
    rng = np.random.default_rng(5)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    for t in T_VALUES:
        assert np.array_equal(example_map(spec, t), _ref_slice_map(ex, n, t, z))
        assert np.array_equal(example_leaf_tangent(spec, t, x), _ref_slice_map(ex, n, t, x))
        assert np.array_equal(ruling_isometry(spec, t).entries, _ref_ruling_isometry(ex, n, t))


@pytest.mark.parametrize("spec", _instances())
def test_fields_match(spec):
    ex, n, z = spec.example_id, spec.sig.n, spec.seed_z
    for t in T_VALUES:
        fields = example_fields(spec, t)
        xi, axi, eps = _ref_fields(ex, n, t, z)
        assert np.array_equal(fields.xi_hat, xi)
        assert np.array_equal(fields.n_hat, 1j * xi)
        assert fields.epsilon == eps
        if ex != 4:
            assert np.array_equal(fields.a_xi_hat, axi)
        else:
            moved = _ref_ruling_isometry(ex, n, t) @ _ref_fields(ex, n, 0.0, z)[1]
            assert np.max(np.abs(fields.a_xi_hat - moved)) <= 1.1e-16


@pytest.mark.parametrize("spec", _instances())
def test_integral_curve_closed_forms_match(spec):
    ex, n, z = spec.example_id, spec.sig.n, spec.seed_z
    data = example_integral_curve(spec)
    ff, eps1, case, kind, kappa1 = _ref_predict(ex, n, z)
    assert data.accel_square == ff
    assert data.eps1 == eps1
    assert data.predicted_case is case
    assert data.kind == kind
    assert data.kappa1 == kappa1
    for s in np.linspace(S_RANGE[0], S_RANGE[1], 7):
        ref = _ref_accel(ex, n, z, T0, float(s))
        assert np.array_equal(data.accel(float(s)), ref)


def test_family_one_seeds_reach_every_case():
    cases = {
        tag: example_integral_curve(example_spec(1, seed_z=z)).predicted_case
        for tag, z in _family_one_seeds()
    }
    assert cases == {
        "r=pi/8": MinimalCase.CASE_B_TOTALLY_REAL_CIRCLE,
        "r=pi/4": MinimalCase.CASE_C_NON_FRENET,
        "geodesic": MinimalCase.CASE_A_GEODESIC,
    }
