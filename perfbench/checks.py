"""Per-command output checkers.

Each checker takes the command, its exit code, its captured standard
output and error, and a ``rerun`` function that runs another CLI command
and returns (exit, stdout, stderr); it returns an :class:`Outcome`. A
command fails when its exit code differs from the generator's expectation
or its output breaks a rule listed in the checker. The benchmark calls the
checkers after the last timed command of the run.

A failure is marked ``known_defect`` only when it matches one of the
program defects documented in NOTES.md, inside the range of inputs where
that defect was measured. Any other failure makes the run incorrect.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from workloads import Command, signs_of

#: largest allowed |g(z, z) - 1| of an exported point
SPHERE_TOL = 1e-9

#: verify identity lines that fail through the documented family-1 defect
KNOWN_VERIFY_FAILURES = {("example1", "codazzi_residual")}
#: signature and seed_r bound below which that Codazzi failure was measured
CODAZZI_DEFECT_SIG = [3, 1]
CODAZZI_DEFECT_MAX_R = 0.3

#: stderr of the classifier when a curve matches no case; documented for
#: family 1 near seed_r = pi/4 (verify) and for non-Frenet curves sampled
#: finer than the default step (classify)
NO_CASE_ERROR = "curve matches no minimal case"
#: half-width of the seed_r window around pi/4 where verify 1 has no report
NO_CASE_R_WINDOW = 0.025

#: coarser step at which every measured case-c document classifies; the
#: step defect shows below it (about 1% of case_c2 documents still fail at
#: the default 1e-3, none at 1.25e-3)
CONFIRM_STEP = 2e-3


@dataclass
class Outcome:
    ok: bool
    work: int = 0
    margin: float = 0.0
    known_defect: bool = False
    reason: str = ""


def _fail(reason: str, **kw) -> Outcome:
    return Outcome(False, reason=reason, **kw)


def check_verify(cmd: Command, code: int, out: str, err: str, rerun=None) -> Outcome:
    """Report schema, per-line pass flags, the overall flag, exit code, and
    the family's classification. Work is the number of identity lines;
    margin is the largest residual/tolerance."""
    family = cmd.expect["family"]
    seed_r = cmd.expect.get("seed_r")
    if not out.strip():
        known = (
            family == 1
            and code == 1
            and NO_CASE_ERROR in err
            and abs(seed_r - math.pi / 4) <= NO_CASE_R_WINDOW
        )
        return _fail(f"no report (exit {code}): {err.strip()[:120]}", known_defect=known)
    try:
        doc = json.loads(out)
        lines = doc["identities"]
        margin = max(line["residual"] / line["tolerance"] for line in lines)
        failing = [(line["group"], line["name"]) for line in lines if not line["pass"]]
        flags_ok = all(
            line["pass"] == (line["residual"] <= line["tolerance"]) for line in lines
        )
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        return _fail(f"malformed report: {exc!r}")
    if doc.get("schema") != 1 or doc.get("command") != "verify":
        return _fail("wrong schema or command")
    if doc.get("targets") != [family] or not flags_ok:
        return _fail("targets or pass flags inconsistent", work=len(lines), margin=margin)
    if doc["pass"] != (not failing) or code != (0 if doc["pass"] else 1):
        return _fail("overall pass flag or exit code inconsistent", work=len(lines), margin=margin)
    if doc.get("classifications", {}).get(str(family)) != cmd.expect["case"]:
        return _fail("wrong classification", work=len(lines), margin=margin)
    if failing:
        known = (
            family == 1
            and cmd.expect["sig"] == CODAZZI_DEFECT_SIG
            and seed_r < CODAZZI_DEFECT_MAX_R
            and set(failing) <= KNOWN_VERIFY_FAILURES
        )
        return _fail(
            f"identities failed: {failing}", work=len(lines), margin=margin, known_defect=known
        )
    return Outcome(True, work=len(lines), margin=margin)


def _sample_rows(fmt: str, text: str):
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))
        return rows[0], [[float(x) for x in row] for row in rows[1:]]
    doc = json.loads(text)
    if doc.get("schema") != 1 or doc.get("command") != "sample":
        raise ValueError("wrong schema or command")
    return doc["header"], doc["rows"]


def check_sample(cmd: Command, code: int, out: str, err: str, rerun=None) -> Outcome:
    """Header, row count, and every row on the unit pseudo-sphere. Work is
    the number of rows."""
    exp = cmd.expect
    if code != exp["exit"]:
        return _fail(f"exit {code}: {err.strip()[:120]}")
    n, p = exp["sig"]
    header_want = (
        ["s", "t"]
        + [f"c{k + 1}" for k in range(2 * n - 2)]
        + [x for k in range(n + 1) for x in (f"re_z{k + 1}", f"im_z{k + 1}")]
    )
    try:
        header, rows = _sample_rows(exp["format"], Path(exp["out"]).read_text())
        arr = np.asarray(rows, dtype=float)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return _fail(f"unreadable output: {exc!r}")
    if list(header) != header_want:
        return _fail("wrong header")
    if arr.shape != (exp["rows"], len(header_want)):
        return _fail(f"got {arr.shape} values, want {exp['rows']} rows", work=len(rows))
    z = arr[:, 2 * n :: 2] + 1j * arr[:, 2 * n + 1 :: 2]
    gap = float(np.max(np.abs(np.real(np.sum(signs_of(n, p) * z * np.conj(z), axis=1)) - 1.0)))
    if not gap <= SPHERE_TOL:
        return _fail(f"row off the sphere by {gap:.3e}", work=len(rows))
    return Outcome(True, work=len(rows))


def _classify_report(out: str):
    """(case, kind) of a successful classify report; raises on a malformed one."""
    doc = json.loads(out)
    if doc.get("schema") != 1 or doc.get("command") != "classify":
        raise ValueError("wrong schema or command")
    return doc["case"], doc["kind"]


def _case_c_at_confirm_step(cmd: Command, rerun) -> bool:
    """Whether the command's case-c document classifies as expected when
    sampled at :data:`CONFIRM_STEP`. Runs ``classify`` on a copy."""
    path = Path(cmd.argv[1])
    copy = path.with_name(path.stem + "_confirm_step.json")
    doc = json.loads(path.read_text())
    doc["step"] = CONFIRM_STEP
    copy.write_text(json.dumps(doc))
    try:
        code, out, _ = rerun(["classify", str(copy)])
        return code == 0 and _classify_report(out) == ("c", cmd.expect["kind"])
    except (ValueError, KeyError, TypeError):
        return False
    finally:
        copy.unlink(missing_ok=True)


def check_classify(cmd: Command, code: int, out: str, err: str, rerun=None) -> Outcome:
    """Exit code, then case and kind against the generator's. Work is one
    curve per command.

    A case-c curve that matches no case is the documented step defect only
    when the same document, rerun at the coarser :data:`CONFIRM_STEP`,
    classifies as expected."""
    exp = cmd.expect
    if code != exp["exit"]:
        known = (
            exp["case"] == "c"
            and code == 1
            and NO_CASE_ERROR in err
            and exp["step"] < CONFIRM_STEP
            and rerun is not None
            and _case_c_at_confirm_step(cmd, rerun)
        )
        return _fail(f"exit {code}, want {exp['exit']}: {err.strip()[:120]}", known_defect=known)
    if code != 0:
        return Outcome(True, work=1)
    try:
        case, kind = _classify_report(out)
    except (ValueError, KeyError, TypeError) as exc:
        return _fail(f"malformed report: {exc!r}")
    if case != exp["case"] or kind != exp["kind"]:
        return _fail(f"got case {case!r} kind {kind!r}, want {exp['case']!r} {exp['kind']!r}")
    return Outcome(True, work=1)


CHECKERS = {"verify": check_verify, "sample": check_sample, "classify": check_classify}
