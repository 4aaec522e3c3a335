"""The family table against the hand-written closed forms it replaced.

The reference (``oracles._ref_*``) is the per-family code that
``examples.FAMILIES`` and its derived forms replaced: one branch per family
for the default seed, the signature limits, the slice map, the ruling
isometry, the structure field, the acceleration of the structure flow and
the case prediction.
Everything derived from the table matches it bit for bit, except the shape
image of family 4: its hand-written form had the wrong sign in slot 0 for
t != 0, and the table's is the ruling isometry's image of the one at t = 0.
"""

import numpy as np
import pytest

from oracles import (
    _ref_accel,
    _ref_accepts,
    _ref_default_seed,
    _ref_fields,
    _ref_predict,
    _ref_ruling_isometry,
    _ref_seed_sphere_index,
    _ref_slice_map,
)
from pseudocp.errors import DomainError
from pseudocp.examples import (
    EXAMPLE_IDS,
    S_RANGE,
    T0,
    example_fields,
    example_integral_curve,
    example_map,
    example_spec,
    gamma_seed,
    ruling_isometry,
)
from pseudocp.linalg import Signature, metric_signs
from pseudocp.ruled import MinimalCase

T_VALUES = (-0.4, 0.0, 0.17, 0.33)

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
                want_signs = metric_signs(_ref_seed_sphere_index(ex, spec.sig), spec.sig.n)
                assert np.array_equal(spec.ruling.seed_signs, want_signs)
            assert accepted == _ref_accepts(ex, n, p), (ex, n, p)


@pytest.mark.parametrize("spec", _instances())
def test_slice_map_and_isometry_bit_equal(spec):
    ex, n, z = spec.example_id, spec.sig.n, spec.seed_z
    rng = np.random.default_rng(5)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    for t in T_VALUES:
        assert np.array_equal(example_map(spec, t), _ref_slice_map(ex, n, t, z))
        assert np.array_equal(spec.ruling.slice_map(t, x), _ref_slice_map(ex, n, t, x))
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
