"""Command line front end: verify families, classify curves, export points.

Exit codes: 0 pass, 1 verification failure, 2 usage or parse error (a bad
``--signature`` or a non-finite configuration value included), 3
precondition violation (lightlike data, a seed outside its family's domain,
a curve grid without a finite positive step, a finite range or 3 samples),
4 I/O failure.

Curve files for ``classify`` are JSON objects::

    {"signature": {"n": 3, "p": 1},
     "kind": "closed_form" | "samples",
     "s_range": [-0.5, 0.5],        # optional, default [-0.5, 0.5]
     "step": 0.001,                 # optional, default 1e-3
     "data": ...}

For ``closed_form`` the data block selects a family:

    {"family": "geodesic", "point": [[re, im], ...], "velocity": [[re, im], ...]}
    {"family": "case_c1", "p0": [...], "v0": [...], "f2": [...]}
    {"family": "case_c2", "p0": [...], "v0": [...], "f2": [...]}
    {"family": "circle", "model": "rp2"|"s2_1"|"h2_2", "kappa1": 1.2,
     "timelike": false}
    {"family": "builtin_flow", "example": 1, "seed_r": 0.5, "t0": 0.0}

For ``samples`` the data block carries the grid and phase-coherent
horizontal lifts: {"s": [...], "lifts": [[[re, im], ...], ...]}.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import tempfile

import numpy as np

from . import verification
from .config import RunConfig
from .curves import (
    SampledCurve,
    case_c1_curve,
    case_c2_curve,
    model_circle_curve,
    sampled_curve_from_fn,
)
from .errors import (
    CausalCharacterError,
    ChartError,
    ClassificationError,
    DomainError,
    FrameError,
    GeometryError,
    LiftError,
    PlaneError,
    SamplingError,
    SpeedError,
)
from .examples import (
    EXAMPLE_IDS,
    T_RANGE,
    example_cross_check,
    example_integral_curve,
    example_spec,
    gamma_seed,
    ruling_isometry,
)
from .linalg import (
    CausalCharacter,
    Signature,
    causal_character,
    hermitian_product,
    real_metric,
)
from .projective import canonical_rows, sphere_geodesic
from .ruled import (  # noqa: F401  (rhs_lift: perfbench/selftest.py traces this binding)
    classify_generating_curve,
    leaf_coordinate_axes,
    rhs_lift,
    rhs_lift_grid,
    transport_basis,
)

EXIT_PASS = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_PRECONDITION = 3
EXIT_IO = 4

_PRECONDITION_ERRORS = (
    CausalCharacterError,
    SpeedError,
    FrameError,
    PlaneError,
    DomainError,
    LiftError,
    SamplingError,
    ChartError,
)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process: parsing leaves it
    unchanged, so every ``main`` call shares it."""
    parser = argparse.ArgumentParser(
        prog="pseudocp",
        description="Verification and sampling tools for ruled hypersurfaces "
        "in indefinite complex projective space.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # each subcommand takes only the flags it reads
    pv = sub.add_parser("verify", help="run the identity suites")
    pv.add_argument("target", help="example id 1-4 or 'all'")
    pv.add_argument("--seed-r", type=float, default=None,
                    help="seed parameter for family 1's distinguished curve")
    pv.add_argument("--signature", default=None, help="override signature, e.g. 3,1")
    pv.add_argument("--verify-tol", type=float, default=None)

    pc = sub.add_parser("classify", help="classify a generating curve file")
    pc.add_argument("curve_file")

    ps = sub.add_parser("sample", help="export a hypersurface point cloud")
    ps.add_argument("example_id", help="example id 1-4")
    ps.add_argument("--seed-r", type=float, default=None)
    ps.add_argument("--format", default=None, choices=("json", "csv"))

    for p in (pv, pc, ps):
        p.add_argument("--out", default=None, help="write the report to this path")
    for p in (pv, ps):
        p.add_argument("--grid", default=None, help="grid densities, e.g. 5x5x4")
    return parser


def _parse_grid(text: str):
    try:
        parts = [int(x) for x in text.lower().replace("×", "x").split("x")]
    except ValueError as exc:
        raise ValueError(f"bad grid spec {text!r}") from exc
    if len(parts) != 3:
        raise ValueError(f"grid spec needs three entries, got {text!r}")
    return parts


def _config_from_args(args) -> RunConfig:
    overrides = {
        "verify_tol": getattr(args, "verify_tol", None),
        "out_path": getattr(args, "out", None),
        "fmt": getattr(args, "format", None),
    }
    if getattr(args, "grid", None):
        s, t, leaf = _parse_grid(args.grid)
        overrides.update({"grid_s": s, "grid_t": t, "grid_leaf": leaf})
    return RunConfig.load(overrides)


def _atomic_write(path: str, text: str) -> None:
    target = os.path.abspath(path)
    directory = os.path.dirname(target)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".pseudocp_")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, target)
    except OSError:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(text: str, out_path) -> None:
    if out_path:
        _atomic_write(out_path, text)
    else:
        sys.stdout.write(text + "\n")


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(args) -> int:
    try:
        cfg = _config_from_args(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.target == "all":
        targets = list(EXAMPLE_IDS)
    elif args.target.isdigit() and int(args.target) in EXAMPLE_IDS:
        targets = [int(args.target)]
    else:
        print(f"error: unknown verify target {args.target!r}", file=sys.stderr)
        return EXIT_USAGE

    sig = None
    if args.signature:
        try:
            n, p = (int(x) for x in args.signature.split(","))
            sig = Signature(n, p)
        except ValueError as exc:
            print(f"error: bad signature {args.signature!r}: {exc}", file=sys.stderr)
            return EXIT_USAGE

    groups = []  # (group name, identity lines) in report order
    classifications = {}
    pars = {}
    try:
        for ex in targets:
            seed = None
            if ex == 1 and args.seed_r is not None:
                seed = gamma_seed(sig or example_spec(1).sig, args.seed_r)
            report = example_cross_check(
                example_spec(ex, sig=sig, seed_z=seed),
                grid_s=cfg.grid_s,
                grid_t=cfg.grid_t,
                grid_leaf=cfg.grid_leaf,
                verify_tol=cfg.verify_tol,
                leaf_radius=cfg.leaf_radius,
            )
            groups.append((f"example{ex}", report.lines))
            classifications[str(ex)] = f"case_{report.classification}"
            pars[ex] = report.par
        groups += [
            ("curvature", verification.curvature_lines()),
            ("frames", verification.unitary_frame_lines()),
            ("case_c_forms", verification.case_c_closed_form_lines()),
            ("almost_contact", verification.almost_contact_lines(pars)),
        ]
    except (DomainError, ChartError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION

    identities = [{"group": group, **line.to_dict()} for group, lines in groups for line in lines]
    ok = all(item["pass"] for item in identities)
    doc = {
        "schema": 1,
        "command": "verify",
        "targets": targets,
        "config": cfg.to_dict(),
        "classifications": classifications,
        "identities": identities,
        "pass": ok,
    }
    try:
        _emit(json.dumps(doc, indent=2, sort_keys=True), cfg.out_path)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_PASS if ok else EXIT_VERIFY_FAIL


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------


def _complex_vector(raw, dim: int, rows: bool = False) -> np.ndarray:
    """Complex vector (dim,) from [re, im] pairs; with ``rows``, a list of
    such vectors as rows (m, dim), converted in one array operation."""
    try:
        arr = np.asarray(raw, dtype=float)
    except ValueError as exc:  # ragged nesting is a wrong shape too
        raise ValueError(f"expected {dim} [re, im] pairs") from exc
    if arr.ndim != (3 if rows else 2) or arr.shape[-2:] != (dim, 2):
        raise ValueError(f"expected {dim} [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]


def _curve_from_file(doc: dict) -> SampledCurve:
    sig = Signature(int(doc["signature"]["n"]), int(doc["signature"]["p"]))
    s_lo, s_hi = doc.get("s_range", (-0.5, 0.5))
    step = float(doc.get("step", 1e-3))
    kind = doc["kind"]
    if kind == "samples":
        params = np.asarray(doc["data"]["s"], dtype=float)
        lifts = _complex_vector(doc["data"]["lifts"], sig.ambient_dim, rows=True)
        return SampledCurve(sig, params, lifts, float(params[1] - params[0]))
    if kind != "closed_form":
        raise ValueError(f"unknown curve kind {doc['kind']!r}")
    data = doc["data"]
    family = data["family"]
    if family == "geodesic":
        q = _complex_vector(data["point"], sig.ambient_dim)
        v = _complex_vector(data["velocity"], sig.ambient_dim)
        if abs(real_metric(sig, q, q) - 1.0) > 1e-8:
            raise FrameError("geodesic start point is not on the sphere")
        if abs(hermitian_product(sig, v, q)) > 1e-8:
            raise FrameError("geodesic velocity is not horizontal")
        char = causal_character(sig, v)
        if char in (CausalCharacter.LIGHTLIKE, CausalCharacter.ZERO):
            raise CausalCharacterError("geodesic velocity must not be lightlike")
        v = v / np.sqrt(abs(real_metric(sig, v, v)))
        return sampled_curve_from_fn(sig, lambda s: sphere_geodesic(sig, q, v, s), s_lo, s_hi, step)
    if family in ("case_c1", "case_c2"):
        builder = case_c1_curve if family == "case_c1" else case_c2_curve
        crv = builder(
            sig,
            _complex_vector(data["p0"], sig.ambient_dim),
            _complex_vector(data["v0"], sig.ambient_dim),
            _complex_vector(data["f2"], sig.ambient_dim),
        )
        return crv.sample(s_lo, s_hi, step)
    if family == "circle":
        crv = model_circle_curve(
            sig,
            data["model"],
            float(data["kappa1"]),
            bool(data.get("timelike", False)),
        )
        return crv.sample(s_lo, s_hi, step)
    if family == "builtin_flow":
        ex = int(data["example"])
        seed = None
        if "seed_r" in data:
            seed = gamma_seed(sig, float(data["seed_r"]))
        elif "z" in data:
            seed = _complex_vector(data["z"], sig.n)
        spec = example_spec(ex, sig=sig, seed_z=seed)
        return example_integral_curve(
            spec, t=float(data.get("t0", 0.0)), step=step, s_range=(s_lo, s_hi)
        ).curve
    raise ValueError(f"unknown closed form family {family!r}")


def cmd_classify(args) -> int:
    try:
        cfg = _config_from_args(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        with open(args.curve_file, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        curve = _curve_from_file(doc)
    except (KeyError, ValueError, TypeError, IndexError, json.JSONDecodeError) as exc:
        print(f"error: cannot parse curve file: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _PRECONDITION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO

    char = causal_character(curve.sig, curve.velocity[len(curve) // 2])
    if char in (CausalCharacter.LIGHTLIKE, CausalCharacter.ZERO):
        print("error: curve velocity is lightlike", file=sys.stderr)
        return EXIT_PRECONDITION
    try:
        report = classify_generating_curve(curve)
    except _PRECONDITION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except ClassificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAIL

    doc = {
        "schema": 1,
        "command": "classify",
        "case": report.case.value,
        "kappa1": report.kappa1,
        "signs": {"eps1": report.eps1, "eps2": report.eps2},
        "kind": report.kind,
        "detail": {k: float(v) for k, v in report.detail.items() if np.isscalar(v)},
    }
    try:
        _emit(json.dumps(doc, indent=2, sort_keys=True), cfg.out_path)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_PASS


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------


def _slice_rows(sig, iso, tv: float, s_values, coords, lifts) -> list:
    """Export rows of one ruling slice t, in (s, c) order: s, t, the leaf
    coordinates, then the (re, im) pairs of the canonical representative."""
    reps = canonical_rows(sig, lifts @ iso.entries.T)
    leaf_dim = coords.shape[1]
    table = np.empty(reps.shape[:2] + (2 + leaf_dim + 2 * reps.shape[-1],))
    table[..., 0] = s_values[:, None]
    table[..., 1] = tv
    table[..., 2 : 2 + leaf_dim] = coords
    table[..., 2 + leaf_dim :: 2] = reps.real
    table[..., 3 + leaf_dim :: 2] = reps.imag
    return table.reshape(-1, table.shape[-1]).tolist()


def cmd_sample(args) -> int:
    try:
        cfg = _config_from_args(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if not (args.example_id.isdigit() and int(args.example_id) in EXAMPLE_IDS):
        print(f"error: unknown example id {args.example_id!r}", file=sys.stderr)
        return EXIT_USAGE
    ex = int(args.example_id)
    try:
        seed = None
        if ex == 1 and args.seed_r is not None:
            seed = gamma_seed(example_spec(1).sig, args.seed_r)
        spec = example_spec(ex, seed_z=seed)
        par = transport_basis(example_integral_curve(spec).curve)
        s_values, coords = leaf_coordinate_axes(
            par, cfg.grid_s, cfg.grid_leaf, radius=cfg.leaf_radius
        )
        lifts = rhs_lift_grid(par, s_values, coords)
    except _PRECONDITION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION

    t_values = np.linspace(T_RANGE[0], T_RANGE[1], cfg.grid_t)
    rows = []
    for tv in t_values.tolist():
        rows.extend(_slice_rows(par.sig, ruling_isometry(spec, tv), tv, s_values, coords, lifts))

    leaf_dim, dim = par.leaf_dim, par.sig.ambient_dim
    header = (
        ["s", "t"]
        + [f"c{k + 1}" for k in range(leaf_dim)]
        + [x for k in range(dim) for x in (f"re_z{k + 1}", f"im_z{k + 1}")]
    )
    if cfg.fmt == "csv":
        lines = [",".join(header)]
        lines.extend(",".join(repr(v) for v in row) for row in rows)
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps(
            {"schema": 1, "command": "sample", "example": ex, "header": header, "rows": rows},
            sort_keys=True,
        )
    try:
        _emit(text, cfg.out_path)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_PASS


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    handlers = {"verify": cmd_verify, "classify": cmd_classify, "sample": cmd_sample}
    try:
        return handlers[args.command](args)
    except GeometryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAIL


if __name__ == "__main__":
    sys.exit(main())
