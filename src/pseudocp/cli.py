"""Command line front end: verify families, classify curves, export points.

Commands raise, and ``main`` alone maps the failure to its exit code and
prints ``error: ...``, the same for every command: 0 pass; 1 verification
failure (a failing report line, or a ``GeometryError`` that is no
precondition, such as a curve that matches no minimal case); 2 a
``UsageError`` (a bad target or ``--signature``, ``--seed-r``, or a
``builtin_flow`` curve file's ``seed_r``, with a family other than 1, a
configuration that cannot be read or holds a non-finite or
mistyped value, a curve file that cannot be parsed, whose ``n``, ``p`` or
``example`` is no JSON integer, whose ``example`` is no family id, whose
circle ``timelike`` is no JSON boolean, whose ``s_range`` is no list of
two JSON numbers, whose ``step``, ``kappa1``, ``seed_r`` or ``t0`` is no
JSON number, or whose ``samples`` ``s`` is no flat list of numbers,
``lifts`` no rows of [re, im] pairs, or ``lifts`` a row count other than
that of ``s``, the message naming the field); 3 one
of ``_PRECONDITION_ERRORS`` (lightlike data, a seed or ``t0`` outside its
family's domain, a seed whose open slot is below
``examples.OPEN_SLOT_FLOOR`` included, a circle curvature that is not
positive or has no finite square, a curve grid without a finite
positive step, a finite range, 3 samples or at most ``curves.MAX_SAMPLES``
samples, a ``samples`` document with a non-finite s or lift entry, a
patch lift that is not finite); 4 an ``OSError`` (a curve file that
cannot be opened, an output that cannot be written).

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

``seed_r`` (family 1 only) or ``z`` (any family) sets the seed.

For ``samples`` the data block carries the grid and phase-coherent
horizontal lifts: {"s": [...], "lifts": [[[re, im], ...], ...]}.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import stat
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
    DomainError,
    FrameError,
    GeometryError,
    LiftError,
    SamplingError,
    SpeedError,
)
from .examples import (
    EXAMPLE_IDS,
    FAMILIES,
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
    leaf_coordinate_grid,
    rhs_lift,
    transport_basis,
)

EXIT_PASS = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_PRECONDITION = 3
EXIT_IO = 4

SEED_R_USAGE = "--seed-r applies to family 1 only"

_PRECONDITION_ERRORS = (
    CausalCharacterError,
    SpeedError,
    FrameError,
    DomainError,
    LiftError,
    SamplingError,
    ChartError,
)


class UsageError(Exception):
    """A bad command line, configuration or curve file: exit 2."""


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
        p.add_argument("--grid", default=None,
                       help="grid densities SxTxLEAF, e.g. 5x5x4; T, the ruling slices "
                            "(at least 2), is read by sample only")
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
    """The run configuration; a bad grid spec, or a config file that cannot
    be read or holds a bad value, raises UsageError."""
    overrides = {
        "verify_tol": getattr(args, "verify_tol", None),
        "out_path": getattr(args, "out", None),
        "fmt": getattr(args, "format", None),
    }
    try:
        if getattr(args, "grid", None):
            s, t, leaf = _parse_grid(args.grid)
            overrides.update({"grid_s": s, "grid_t": t, "grid_leaf": leaf})
        return RunConfig.load(overrides)
    except (ValueError, OSError) as exc:
        raise UsageError(str(exc)) from exc


def _emit(pieces, out_path) -> None:
    """Write the output text, given as an iterable of pieces, in order.

    With ``out_path`` the pieces go to a temp file in the target's
    directory, which replaces the target only once every piece is written;
    on any exception the temp file is removed and the target is left as it
    was. The file gets the mode a plain ``open(out_path, "w")`` leaves:
    the existing target's, else 0o666 less the umask. Without ``out_path``
    the pieces go to standard output, followed by a newline.
    """
    if not out_path:
        sys.stdout.writelines(pieces)
        sys.stdout.write("\n")
        return
    target = os.path.abspath(out_path)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".pseudocp_")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)
        os.chmod(tmp, _open_mode(target))
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _open_mode(target: str) -> int:
    """Permission bits of ``target`` when it exists, else those a new file
    gets from ``open``: 0o666 less the process umask."""
    try:
        return stat.S_IMODE(os.stat(target).st_mode)
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        return 0o666 & ~umask


def _seeds(targets, sig, seed_r) -> dict:
    """Seed of each target family that ``seed_r`` sets: family 1's
    ``gamma_seed`` at ``sig`` (None: family 1's default signature). Every
    other family keeps its default seed, and ``seed_r`` without family 1
    among the targets raises UsageError."""
    if seed_r is None:
        return {}
    if 1 not in targets:
        raise UsageError(SEED_R_USAGE)
    return {1: gamma_seed(sig or FAMILIES[1].signature, seed_r)}


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(args) -> int:
    cfg = _config_from_args(args)
    if args.target == "all":
        targets = list(EXAMPLE_IDS)
    elif args.target.isdigit() and int(args.target) in EXAMPLE_IDS:
        targets = [int(args.target)]
    else:
        raise UsageError(f"unknown verify target {args.target!r}")
    sig = None
    if args.signature:
        try:
            n, p = (int(x) for x in args.signature.split(","))
            sig = Signature(n, p)
        except ValueError as exc:
            raise UsageError(f"bad signature {args.signature!r}: {exc}") from exc
    seeds = _seeds(targets, sig, args.seed_r)

    groups = []  # (group name, identity lines) in report order
    classifications = {}
    pars = {}
    for ex in targets:
        spec = example_spec(ex, sig=sig, seed_z=seeds.get(ex))
        lines, case, pars[ex] = example_cross_check(spec, cfg)
        groups.append((f"example{ex}", lines))
        classifications[str(ex)] = f"case_{case.value}"
    groups += [
        ("curvature", verification.curvature_lines()),
        ("frames", verification.unitary_frame_lines()),
        ("case_c_forms", verification.case_c_closed_form_lines()),
        ("almost_contact", verification.almost_contact_lines(pars)),
    ]

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
    _emit([json.dumps(doc, indent=2, sort_keys=True)], cfg.out_path)
    return EXIT_PASS if ok else EXIT_VERIFY_FAIL


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------


def _complex_vector(raw, dim: int, name: str, rows: bool = False) -> np.ndarray:
    """Complex vector (dim,) from [re, im] pairs; with ``rows``, a list of
    such vectors as rows (m, dim), converted in one array operation. A
    wrong shape raises ValueError naming the field ``name``."""
    try:
        arr = np.asarray(raw, dtype=float)
    except ValueError as exc:  # ragged nesting is a wrong shape too
        raise ValueError(f"{name}: expected {dim} [re, im] pairs") from exc
    if arr.ndim != (3 if rows else 2) or arr.shape[-2:] != (dim, 2):
        raise ValueError(f"{name}: expected {dim} [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]


def _flat_numbers(raw, name: str) -> np.ndarray:
    """A field that must be a flat list of numbers, as a float array: a
    number, a nested list or a non-number entry raises ValueError."""
    try:
        arr = np.asarray(raw, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name} must be a flat list of numbers") from exc
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a flat list of numbers")
    return arr


def _json_int(value, name: str) -> int:
    """A field that must be a JSON integer: a number with a fraction or an
    exponent, a string or a boolean raises ValueError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def _json_bool(value, name: str) -> bool:
    """A field that must be a JSON boolean: any other value, such as the
    string "false" or the number 0, raises ValueError."""
    if not isinstance(value, bool):
        raise ValueError(f"{name} must be a boolean, got {value!r}")
    return value


def _json_number(value, name: str) -> float:
    """A field that must be a JSON number, as a float: a string, a boolean,
    a list, null or an integer beyond the float range raises ValueError.
    NaN and the infinities pass, for the grid and family checks to refuse."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:
        raise ValueError(f"{name} is beyond the float range") from exc


def _curve_from_file(doc: dict) -> SampledCurve:
    sig = Signature(_json_int(doc["signature"]["n"], "n"), _json_int(doc["signature"]["p"], "p"))
    s_range = doc.get("s_range", [-0.5, 0.5])
    if not (isinstance(s_range, list) and len(s_range) == 2):
        raise ValueError(f"s_range must be a list of two numbers, got {s_range!r}")
    s_lo, s_hi = (_json_number(x, "s_range") for x in s_range)
    step = _json_number(doc.get("step", 1e-3), "step")
    kind = doc["kind"]
    if kind == "samples":
        params = _flat_numbers(doc["data"]["s"], "s")
        lifts = _complex_vector(doc["data"]["lifts"], sig.ambient_dim, "lifts", rows=True)
        if lifts.shape[0] != params.shape[0]:
            raise ValueError(f"lifts holds {lifts.shape[0]} rows for the {params.shape[0]} entries of s")
        if not (np.all(np.isfinite(params)) and np.all(np.isfinite(lifts))):
            raise SamplingError("samples document holds a non-finite s or lift entry")
        if params.shape[0] < 2:  # no step to read; SampledCurve checks every other grid
            raise SamplingError("need at least 3 samples")
        return SampledCurve(sig, params, lifts, float(params[1] - params[0]))
    if kind != "closed_form":
        raise ValueError(f"unknown curve kind {doc['kind']!r}")
    data = doc["data"]
    family = data["family"]
    if family == "geodesic":
        q = _complex_vector(data["point"], sig.ambient_dim, "point")
        v = _complex_vector(data["velocity"], sig.ambient_dim, "velocity")
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
            _complex_vector(data["p0"], sig.ambient_dim, "p0"),
            _complex_vector(data["v0"], sig.ambient_dim, "v0"),
            _complex_vector(data["f2"], sig.ambient_dim, "f2"),
        )
        return crv.sample(s_lo, s_hi, step)
    if family == "circle":
        crv = model_circle_curve(
            sig,
            data["model"],
            _json_number(data["kappa1"], "kappa1"),
            _json_bool(data.get("timelike", False), "timelike"),
        )
        return crv.sample(s_lo, s_hi, step)
    if family == "builtin_flow":
        ex = _json_int(data["example"], "example")
        if ex not in EXAMPLE_IDS:
            raise ValueError(f"unknown example id {ex}")
        seed_r = _json_number(data["seed_r"], "seed_r") if "seed_r" in data else None
        seed = _seeds([ex], sig, seed_r).get(ex)
        if seed is None and "z" in data:
            seed = _complex_vector(data["z"], sig.n, "z")
        spec = example_spec(ex, sig=sig, seed_z=seed)
        return example_integral_curve(
            spec, t=_json_number(data.get("t0", 0.0), "t0"), step=step, s_range=(s_lo, s_hi)
        ).curve
    raise ValueError(f"unknown closed form family {family!r}")


def cmd_classify(args) -> int:
    cfg = _config_from_args(args)
    try:
        with open(args.curve_file, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        curve = _curve_from_file(doc)
    except (KeyError, ValueError, TypeError, IndexError) as exc:
        raise UsageError(f"cannot parse curve file: {exc}") from exc

    char = causal_character(curve.sig, curve.velocity[len(curve) // 2])
    if char in (CausalCharacter.LIGHTLIKE, CausalCharacter.ZERO):
        raise CausalCharacterError("curve velocity is lightlike")
    report = classify_generating_curve(curve)

    doc = {
        "schema": 1,
        "command": "classify",
        "case": report.case.value,
        "kappa1": report.kappa1,
        "signs": {"eps1": report.eps1, "eps2": report.eps2},
        "kind": report.kind,
        "detail": {k: float(v) for k, v in report.detail.items() if np.isscalar(v)},
    }
    _emit([json.dumps(doc, indent=2, sort_keys=True)], cfg.out_path)
    return EXIT_PASS


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------


def _slice_lines(prefixes: list, reps, sep: str) -> list:
    """Export lines of one ruling slice, in (s, c) order: each row's prefix
    text, then the (re, im) pairs of its canonical representative in
    ``reps``, every cell written by ``repr`` and joined by ``sep``."""
    cells = np.ascontiguousarray(reps).view(float)  # re, im interleaved
    return [
        prefix + sep.join(map(repr, row))
        for prefix, row in zip(prefixes, cells.reshape(len(prefixes), -1).tolist())
    ]


def cmd_sample(args) -> int:
    """Export the point cloud of a family as CSV or JSON text.

    A row is s, t, the leaf coordinates, then the (re, im) pairs of the
    canonical representative, in (t, s, c) order. The grid values repeat on
    many rows, so each is formatted once; every cell is the ``repr`` text of
    its float, which is also what ``json.dumps`` writes for a finite float,
    so the JSON text is the bytes of ``json.dumps(doc, sort_keys=True)``.

    The representatives of every ruling slice are computed before the first
    byte is written, so a failure there writes nothing; the transported
    frame and the grid lifts they come from are dropped before the write.
    The text is then written one ruling slice at a time: only one slice's
    text is held at once, whatever the number of slices.
    """
    cfg = _config_from_args(args)
    if cfg.grid_t < 2:
        raise UsageError("grid_t must be at least 2")
    if not (args.example_id.isdigit() and int(args.example_id) in EXAMPLE_IDS):
        raise UsageError(f"unknown example id {args.example_id!r}")
    ex = int(args.example_id)
    spec = example_spec(ex, seed_z=_seeds([ex], None, args.seed_r).get(ex))
    par = transport_basis(example_integral_curve(spec).curve)
    rows = leaf_coordinate_grid(par, cfg.grid_s, cfg.grid_leaf, radius=cfg.leaf_radius)
    lifts = par.lifts_at(rows).reshape(cfg.grid_s, cfg.grid_leaf, -1)
    t_values = np.linspace(T_RANGE[0], T_RANGE[1], cfg.grid_t).tolist()
    slice_reps = [
        canonical_rows(par.sig, lifts @ ruling_isometry(spec, tv).entries.T) for tv in t_values
    ]
    leaf_dim, dim = par.leaf_dim, par.sig.ambient_dim
    del par, lifts

    header = (
        ["s", "t"]
        + [f"c{k + 1}" for k in range(leaf_dim)]
        + [x for k in range(dim) for x in (f"re_z{k + 1}", f"im_z{k + 1}")]
    )
    if cfg.fmt == "csv":
        sep, row_sep, head, tail = ",", "\n", ",".join(header) + "\n", "\n"
    else:
        sep, row_sep, tail = ", ", "], [", ']], "schema": 1}'
        head = f'{{"command": "sample", "example": {ex}, "header": {json.dumps(header)}, "rows": [['
    s_text = [repr(s) + sep for s in rows[:: cfg.grid_leaf, 0].tolist()]
    c_text = [sep.join(map(repr, c)) + sep for c in rows[: cfg.grid_leaf, 1:].tolist()]

    def pieces():
        yield head
        for k, (tv, reps) in enumerate(zip(t_values, slice_reps)):
            t_text = repr(tv) + sep
            prefixes = [s + t_text + c for s in s_text for c in c_text]
            if k:
                yield row_sep
            yield row_sep.join(_slice_lines(prefixes, reps, sep))
        yield tail

    _emit(pieces(), cfg.out_path)
    return EXIT_PASS


def main(argv=None) -> int:
    """Run one command; the one place that maps a failure to its exit code
    and prints it (see the module docstring)."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    handlers = {"verify": cmd_verify, "classify": cmd_classify, "sample": cmd_sample}
    try:
        return handlers[args.command](args)
    except UsageError as exc:
        failure, code = exc, EXIT_USAGE
    except _PRECONDITION_ERRORS as exc:
        failure, code = exc, EXIT_PRECONDITION
    except GeometryError as exc:
        failure, code = exc, EXIT_VERIFY_FAIL
    except OSError as exc:
        failure, code = exc, EXIT_IO
    print(f"error: {failure}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
