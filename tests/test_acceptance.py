"""Acceptance gate: every stated criterion at its stated tolerance.

Each test prints one pass/fail line (visible with ``pytest -s`` or on
failure). Shared heavy objects (parametrizations, grid sweeps) live in
session fixtures so the whole module stays inside the desk-scale runtime
budget.
"""

import subprocess
import sys

import numpy as np
import pytest

from pseudocp import verification
from pseudocp.curves import covariant_derivative, frenet_apparatus
from pseudocp.examples import (
    EXAMPLE_IDS,
    T0,
    example_fields,
    example_integral_curve,
    example_map,
    example_spec,
    gamma_seed,
    ruling_sweep,
    seed_sphere_index,
)
from pseudocp.linalg import Signature, gdot_rows, metric_signs, real_metric
from pseudocp.projective import canonicalize, log_in_leaf
from pseudocp.ruled import (
    GeodesicSpherePatch,
    MinimalCase,
    classify_minimal_ruled,
    leaf_coordinate_grid,
    rhs_evaluate,
    shape_operator_at,
    transport_basis,
)

GRID_S, GRID_T, GRID_LEAF = 5, 5, 4


def _report(number: int, ok: bool, text: str) -> None:
    print(f"ACCEPTANCE-{number:02d} {'PASS' if ok else 'FAIL'} {text}")


@pytest.fixture(scope="module")
def family_pars():
    out = {}
    for ex in EXAMPLE_IDS:
        spec = example_spec(ex)
        out[ex] = (spec, transport_basis(example_integral_curve(spec).curve))
    return out


@pytest.fixture(scope="module")
def grid_sweep(family_pars):
    """Worst leaf-block entry and structure diagonal over 5x5x4 grids: the
    sweep of the cross check."""
    return {
        ex: ruling_sweep(spec, par, leaf_coordinate_grid(par, GRID_S, GRID_LEAF), GRID_T)
        for ex, (spec, par) in family_pars.items()
    }


def test_criterion_01_curvature_normalization():
    """Normalized holomorphic sectional curvature equals four."""
    lines = verification.curvature_lines()
    worst = max(line.residual for line in lines)
    ok = all(line.passed for line in lines)
    _report(1, ok, f"holomorphic sectional curvature: worst residual {worst:.3e} <= 1e-10")
    assert ok


def test_criterion_02_unitary_frames():
    """Completed frames preserve the form and have unit determinant."""
    lines = verification.unitary_frame_lines()
    worst = max(line.residual for line in lines)
    ok = all(line.passed for line in lines)
    _report(2, ok, f"frame form and determinant: worst residual {worst:.3e} <= 1e-10")
    assert ok


def test_criterion_03_transport_conservation():
    """Frame transport over |s| <= 1 conserves the Gram matrix."""
    data = example_integral_curve(example_spec(1), s_range=(-1.0, 1.0))
    par = transport_basis(data.curve)
    drift = par.gram_drift()
    ov, ojv = par.orthogonality_defect()
    ok = drift <= 1e-6 and ov <= 1e-6 and ojv <= 1e-6
    _report(
        3,
        ok,
        f"transport: gram drift {drift:.3e}, defects ({ov:.3e}, {ojv:.3e}) <= 1e-6",
    )
    assert ok


def test_criterion_04_ruled_characterization(grid_sweep):
    """The leaf block of the shape operator vanishes on all four families."""
    worst = max(dd for dd, _ in grid_sweep.values())
    control = GeodesicSpherePatch(
        canonicalize(Signature(3, 1), np.array([0, 0, 0, 1], dtype=complex)), 0.7
    )
    ctrl_rep = shape_operator_at(control, np.zeros(control.n_params))
    ok = worst <= 1e-4 and ctrl_rep.dd_block_max > 1e-1
    _report(
        4,
        ok,
        f"leaf block: families {worst:.3e} <= 1e-4, control {ctrl_rep.dd_block_max:.3e} > 1e-1",
    )
    assert ok


def test_criterion_05_minimality(grid_sweep):
    """The structure diagonal of the shape operator vanishes."""
    worst = max(mu for _, mu in grid_sweep.values())
    closed = 0.0
    for ex in EXAMPLE_IDS:
        spec = example_spec(ex)
        for t in (-0.3, 0.0, 0.4):
            fields = example_fields(spec, t)
            closed = max(
                closed, abs(real_metric(spec.sig, fields.a_xi_hat, fields.xi_hat))
            )
    ok = worst <= 1e-4 and closed <= 1e-12
    _report(5, ok, f"minimality: numeric {worst:.3e} <= 1e-4, closed form {closed:.3e} <= 1e-12")
    assert ok


def test_criterion_06_trichotomy():
    """The three distinguished seeds hit the three classifier cases."""
    sig = example_spec(1).sig
    expectations = [
        (np.pi / 8, MinimalCase.CASE_B_TOTALLY_REAL_CIRCLE, 1.5537739740300374, (1.0, 1.0), None),
        (np.pi / 4, MinimalCase.CASE_C_NON_FRENET, None, None, "b3_1"),
        (np.pi / 2, MinimalCase.CASE_B_TOTALLY_REAL_CIRCLE, 0.7071067811865476, (1.0, -1.0), None),
    ]
    ok = True
    details = []
    for r, case, kappa, signs, kind in expectations:
        spec = example_spec(1, seed_z=gamma_seed(sig, r))
        par = transport_basis(example_integral_curve(spec).curve)
        report = classify_minimal_ruled(par)
        good = report.case is case
        if kappa is not None:
            good = good and abs(report.kappa1 - kappa) <= 1e-4
            good = good and (report.eps1, report.eps2) == signs
            details.append(f"r={r:.3f}: case {report.case.value}, kappa1 {report.kappa1:.5f}")
        else:
            good = good and report.kind == kind
            good = good and report.detail["parallel_defect"] <= 1e-6
            details.append(
                f"r={r:.3f}: case {report.case.value}, kind {report.kind}, "
                f"parallel {report.detail['parallel_defect']:.2e}"
            )
        ok = ok and good
    _report(6, ok, "; ".join(details))
    assert ok


def test_criterion_07_timelike_family_invariants():
    """Families 2 and 4 carry a unit timelike second Frenet vector and the
    curvature formula sqrt(1/|z|^2 + 1)."""
    ok = True
    details = []
    for ex in (2, 4):
        spec = example_spec(ex)
        data = example_integral_curve(spec)
        sig = spec.sig
        # closed form: unit timelike second Frenet vector everywhere
        f2_unit = max(
            abs(real_metric(sig, data.frenet_f2(s), data.frenet_f2(s)) + 1.0)
            for s in np.linspace(-0.45, 0.45, 9)
        )
        # numeric acceleration against the closed-form square
        rows = covariant_derivative(data.curve, data.curve.velocity)
        g_num = gdot_rows(sig.signs, rows, rows)[8:-8]
        ff_gap = float(np.max(np.abs(g_num - data.accel_square)))
        fr = frenet_apparatus(data.curve)
        kappa_num = float(np.mean(fr.curvatures[0][8:-8]))
        kappa_gap = abs(kappa_num - data.kappa1)
        good = (
            f2_unit <= 1e-8
            and ff_gap <= 1e-8
            and kappa_gap <= 1e-5
            and fr.signs[1] == -1.0
        )
        if ex == 2:
            good = good and abs(data.kappa1 - np.sqrt(2.0)) <= 1e-12
        details.append(
            f"family {ex}: unit F2 {f2_unit:.2e}, accel square gap {ff_gap:.2e}, "
            f"kappa gap {kappa_gap:.2e}"
        )
        ok = ok and good
    _report(7, ok, "; ".join(details))
    assert ok


def test_criterion_08_case_c_closed_forms():
    """Defining identities of the two non-Frenet generators at 1e-6."""
    lines = verification.case_c_closed_form_lines()
    worst = max(line.residual for line in lines)
    ok = all(line.passed for line in lines)
    _report(8, ok, f"non-Frenet closed forms: worst residual {worst:.3e} <= 1e-6")
    assert ok


def test_criterion_09_almost_contact_identities(family_pars):
    """Structure identities at 100 random hypersurface points."""
    lines = verification.almost_contact_lines({ex: par for ex, (_, par) in family_pars.items()})
    algebraic = max(l.residual for l in lines if not l.name.endswith("derivative"))
    derivative = max(l.residual for l in lines if l.name.endswith("derivative"))
    ok = all(line.passed for line in lines)
    _report(
        9,
        ok,
        f"almost contact: algebraic {algebraic:.3e} <= 1e-8, derivative {derivative:.3e} <= 1e-4",
    )
    assert ok


def test_criterion_10_round_trip_and_determinism(family_pars, tmp_path):
    """Generic evaluation reproduces the closed form; CSV export is stable."""
    spec, par = family_pars[1]
    sig = spec.sig
    idx = seed_sphere_index(1, sig)
    signs_seed = metric_signs(idx, sig.n)
    rng = np.random.default_rng(17)
    z0 = np.asarray(spec.seed_z)
    mod = abs(z0[-1])

    def seed_sphere_neighbor():
        v = rng.standard_normal(sig.n) + 1j * rng.standard_normal(sig.n)
        g0 = complex(np.sum(signs_seed * v * np.conj(z0)))
        v = v - g0 * z0
        gv = float(np.real(np.sum(signs_seed * v * np.conj(v))))
        v = v / np.sqrt(abs(gv))
        # walk along the seed sphere by a short closed-form geodesic
        r = rng.uniform(0.05, 0.2)
        if gv > 0:
            return np.cos(r) * z0 + np.sin(r) * v
        return np.cosh(r) * z0 + np.sinh(r) * v

    worst = 0.0
    for s in np.linspace(-0.35, 0.35, 10):
        frame = par.frames_at(s)
        x_s = canonicalize(sig, par.base.lift_fn(float(s)))
        done = 0
        while done < 10:
            z = seed_sphere_neighbor()
            target = canonicalize(sig, example_map(spec, T0 + s / mod, z))
            vec = log_in_leaf(x_s, target)
            coords = par.frame_signs * gdot_rows(sig.signs, frame, vec.vec)
            if float(np.sqrt(np.sum(coords**2))) > 1.2:
                continue  # stay inside the evaluation chart
            got = rhs_evaluate(par, float(s), coords)
            worst = max(worst, got.gap(target))
            done += 1
    round_ok = worst <= 1e-6

    outputs = []
    for name in ("first.csv", "second.csv"):
        target = tmp_path / name
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "pseudocp",
                "sample",
                "1",
                "--grid",
                "3x3x2",
                "--format",
                "csv",
                "--out",
                str(target),
            ],
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append(target.read_bytes())
    stable = outputs[0] == outputs[1]
    ok = round_ok and stable
    _report(
        10,
        ok,
        f"round trip worst gap {worst:.3e} <= 1e-6; CSV byte-identical: {stable}",
    )
    assert ok
