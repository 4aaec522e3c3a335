"""Closed-form lifts over arrays of parameters, the sampled-curve
interpolant against the closed forms, and a start-up free of scipy.

Every closed-form lift takes a scalar s to one row and an array of s to
rows, each row bit for bit the scalar call. A curve held by samples alone is
interpolated by ``curves.hermite_rows``; transporting it, or lifting
sampled representatives, must stay close to the closed-form result.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oracles import _e
import pseudocp
from pseudocp.curves import (
    SampledCurve,
    case_c1_curve,
    case_c2_curve,
    horizontal_lift,
    model_circle_curve,
)
from pseudocp.examples import EXAMPLE_IDS, example_integral_curve, example_spec, gamma_seed
from pseudocp.linalg import Signature
from pseudocp.projective import sphere_geodesic
from pseudocp.ruled import transport_basis

S = np.linspace(-0.5, 0.5, 37)


def _family_curve(ex):
    return example_integral_curve(example_spec(ex)).curve


def _closed_forms():
    """(label, callable) for every closed-form lift the package builds."""
    sig31, sig32, sig42 = Signature(3, 1), Signature(3, 2), Signature(4, 2)
    forms = [(f"family{ex}", _family_curve(ex).lift_fn) for ex in EXAMPLE_IDS]
    spec = example_spec(1, sig=sig42, seed_z=gamma_seed(sig42, 1.05))
    forms.append(("family1_4_2", example_integral_curve(spec).curve.lift_fn))
    c1 = case_c1_curve(sig31, _e(1), _e(2), _e(0) + _e(3))
    c2 = case_c2_curve(sig32, _e(2), _e(1), _e(0) + _e(3))
    for crv in (c1, c2):
        label = crv.label
        forms += [(label, crv.point), (f"{label}_vel", crv.vel), (f"{label}_acc", crv.acc)]
    for model, kappa, timelike, sig in (
        ("rp2", 1.3, False, sig31),
        ("s2_1", 0.6, False, sig31),
        ("s2_1", 1.7, True, sig31),
        ("h2_2", 1.9, False, sig32),
    ):
        crv = model_circle_curve(sig, model, kappa, timelike)
        label = crv.label + ("_timelike" if timelike else "")
        forms += [(label, crv.point), (f"{label}_vel", crv.vel), (f"{label}_acc", crv.acc)]
    forms.append(("geodesic", lambda s: sphere_geodesic(sig31, _e(3), _e(2), s)))
    return forms


CLOSED_FORMS = dict(_closed_forms())


@pytest.mark.parametrize("label", sorted(CLOSED_FORMS))
def test_closed_form_lift_broadcasts_bit_for_bit(label):
    fn = CLOSED_FORMS[label]
    rows = fn(S)
    want = np.stack([fn(s) for s in S])
    assert rows.shape == want.shape == (S.shape[0], want.shape[1])
    assert np.array_equal(rows, want)
    assert fn(float(S[3])).shape == want.shape[1:]


@pytest.mark.parametrize("ex", EXAMPLE_IDS)
def test_sampled_transport_matches_closed_form(ex):
    """A family curve held by its samples alone is transported through the
    Hermite interpolant; the frames stay within 1e-8 of the closed-form
    transport and their derivatives within 1e-5 (measured: 2.7e-9 and
    2.8e-6 at most)."""
    curve = _family_curve(ex)
    closed = transport_basis(curve)
    bare = SampledCurve(curve.sig, curve.params, curve.lifts, curve.step)
    sampled = transport_basis(bare)
    assert np.max(np.abs(sampled.frame_samples - closed.frame_samples)) < 1e-8
    assert np.max(np.abs(sampled.frame_derivs - closed.frame_derivs)) < 1e-5


@pytest.mark.parametrize("ex", EXAMPLE_IDS)
def test_sampled_representatives_lift_to_closed_form(ex):
    """Phase-drifted sampled representatives lift back onto the closed-form
    horizontal lift to 1e-10 (measured: 2.6e-11 at most)."""
    curve = _family_curve(ex)
    reps = np.exp(0.7j * curve.params)[:, None] * curve.lifts
    mid = len(curve) // 2
    lifted = horizontal_lift(curve.sig, reps, curve.lifts[mid], params=curve.params, anchor=mid)
    assert np.max(np.abs(lifted.lifts - curve.lifts)) < 1e-10


GEODESIC_DOC = {
    "signature": {"n": 3, "p": 1},
    "kind": "closed_form",
    "data": {
        "family": "geodesic",
        "point": [[0, 0], [0, 0], [0, 0], [1, 0]],
        "velocity": [[0, 0], [0, 0], [1, 0], [0, 0]],
    },
}

_FRESH_RUN = """
import io, json, sys
from contextlib import redirect_stdout
from pseudocp.cli import main

def loaded(top):
    return sorted(m for m in sys.modules if m == top or m.startswith(top + "."))

seen = {"import": (loaded("scipy"), loaded("numpy.ma"))}
with redirect_stdout(io.StringIO()):
    assert main(["verify", "1"]) == 0
seen["verify"] = (loaded("scipy"), loaded("numpy.ma"))
assert main(["sample", "2", "--grid", "8x4x4", "--out", sys.argv[1]]) == 0
seen["sample"] = (loaded("scipy"), loaded("numpy.ma"))
assert main(["classify", sys.argv[2], "--out", sys.argv[3]]) == 0
seen["classify"] = (loaded("scipy"), loaded("numpy.ma"))
print(json.dumps(seen))
"""


@pytest.fixture(scope="module")
def fresh_run_modules(tmp_path_factory) -> dict:
    """The scipy and ``numpy.ma`` modules loaded after ``import
    pseudocp.cli``, then after a ``verify``, a ``sample`` and a
    ``classify`` command, in a fresh interpreter, so that nothing else
    imported them."""
    tmp_path = tmp_path_factory.mktemp("fresh_run")
    doc = tmp_path / "geodesic.json"
    doc.write_text(json.dumps(GEODESIC_DOC))
    env = dict(os.environ)
    src = str(Path(pseudocp.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    outs = [str(tmp_path / "cloud.json"), str(doc), str(tmp_path / "case.json")]
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", _FRESH_RUN, *outs],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_cli_runs_without_importing_scipy(fresh_run_modules):
    """``import pseudocp.cli`` and every command load no scipy module."""
    seen = fresh_run_modules
    assert {stage: scipy for stage, (scipy, _) in seen.items()} == dict.fromkeys(seen, [])


def test_cli_runs_without_importing_numpy_ma(fresh_run_modules):
    """No command loads ``numpy.ma``: ``np.median`` would, on its first call
    (``curves.median_is_positive`` decides the sign in its place)."""
    seen = fresh_run_modules
    assert {stage: ma for stage, (_, ma) in seen.items()} == dict.fromkeys(seen, [])
