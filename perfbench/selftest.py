"""Self-test of the benchmark, at tiny command counts.

    python3 perfbench/selftest.py          # or: python3 -m pytest perfbench/selftest.py

Checks that every metric named in BENCHMARK.json appears with its unit,
that each checker rejects a deliberately corrupted output, that the tracer
patches and restores every binding, that the yardstick samples and
rescales as documented, and that the benchmark refuses to run without the
program's source. Takes about half a minute.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (sets the BLAS thread variables before numpy loads)
from checks import check_classify, check_sample, check_verify  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import Command, _classify_doc, cycles  # noqa: E402
from yardstick import MIN_SAMPLES, NOMINAL_S, Yardstick  # noqa: E402

CLI = run.import_program()
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int) -> dict:
    """Run the benchmark in this process on the first command of each cycle."""

    def first_only(*args):
        for cycle in cycles(*args):
            yield cycle[:1]

    saved = run.cycles, run.SETUP_REPEATS
    run.cycles, run.SETUP_REPEATS = first_only, 1
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = run.main(["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace)])
    finally:
        run.cycles, run.SETUP_REPEATS = saved
    assert code == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


def scratch_dir():
    """Temporary directory inside the checkout, as the benchmark itself uses."""
    parent = run.ROOT / ".bench_work"
    parent.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=parent)


def run_cli(argv):
    return run.run_command(CLI, argv)[:3]


def verify_doc(family: int, lines: list) -> str:
    return json.dumps({
        "schema": 1, "command": "verify", "targets": [family],
        "classifications": {str(family): "case_b"}, "identities": lines,
        "pass": all(line["pass"] for line in lines),
    })


NO_CASE = "error: curve matches no minimal case (frenet: other)"


class MetricsAppear(unittest.TestCase):
    def assert_metrics(self, result, spec_key):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertGreaterEqual(result["attempted"], 1)
        want = {m["name"]: m["unit"] for m in SPEC[spec_key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, want)
        for m in result["metrics"].values():
            self.assertIsInstance(m["value"], (int, float))

    def test_end_to_end_every_workload(self):
        for workload in ("verify", "sample", "classify"):
            with self.subTest(workload=workload):
                result = bench(workload, 0)
                self.assert_metrics(result, "end_to_end")
                for m in result["metrics"].values():
                    self.assertGreater(m["value"], 0)

    def test_per_layer(self):
        result = bench("classify", 1)
        self.assert_metrics(result, "per_layer")
        self.assertGreater(result["metrics"]["cli.main.calls"]["value"], 0)
        self.assertGreater(result["metrics"]["curves.frenet_apparatus.calls"]["value"], 0)
        self.assertEqual(result["metrics"]["ruled.shape_operator_at.calls"]["value"], 0)


class CheckersRejectCorruption(unittest.TestCase):
    def test_sample_row_off_sphere(self):
        with scratch_dir() as tmp:
            out = Path(tmp) / "cloud.csv"
            cmd = Command(
                ["sample", "1", "--grid", "2x2x2", "--format", "csv", "--out", str(out)],
                {"exit": 0, "family": 1, "sig": [3, 1], "rows": 8, "format": "csv", "out": str(out)},
            )
            code, _, err = run_cli(cmd.argv)
            self.assertTrue(check_sample(cmd, code, "", err).ok)
            lines = out.read_text().splitlines()
            row = lines[3].split(",")
            row[-2] = repr(float(row[-2]) + 1e-6)
            out.write_text("\n".join(lines[:3] + [",".join(row)] + lines[4:]) + "\n")
            bad = check_sample(cmd, code, "", err)
            self.assertFalse(bad.ok)
            self.assertIn("off the sphere", bad.reason)
            out.write_text("\n".join(lines[:-1]) + "\n")
            self.assertFalse(check_sample(cmd, code, "", err).ok)

    def test_classify_wrong_case(self):
        with scratch_dir() as tmp:
            path = Path(tmp) / "circle.json"
            path.write_text(json.dumps({
                "signature": {"n": 3, "p": 1},
                "kind": "closed_form",
                "data": {"family": "circle", "model": "rp2", "kappa1": 1.25},
            }))
            cmd = Command(["classify", str(path)], {"exit": 0, "case": "b", "kind": "rp2", "step": 1e-3})
            code, out, err = run_cli(cmd.argv)
            self.assertTrue(check_classify(cmd, code, out, err).ok)
            doc = json.loads(out)
            doc["case"] = "a"
            self.assertFalse(check_classify(cmd, code, json.dumps(doc), err).ok)
            self.assertFalse(check_classify(cmd, 3, "", err).ok)

    def test_verify_one_failing_line(self):
        lines = [
            {"group": "example2", "name": "codazzi_residual", "residual": 1e-6, "tolerance": 1e-4, "pass": True},
            {"group": "curvature", "name": "holomorphic_curvature_n3_p1", "residual": 1e-12, "tolerance": 1e-10, "pass": True},
        ]
        doc = {
            "schema": 1, "command": "verify", "targets": [2],
            "classifications": {"2": "case_b"}, "identities": lines, "pass": True,
        }
        cmd = Command(["verify", "2"], {"exit": 0, "family": 2, "case": "case_b"})
        good = check_verify(cmd, 0, json.dumps(doc), "")
        self.assertTrue(good.ok)
        self.assertEqual(good.work, 2)
        self.assertAlmostEqual(good.margin, 0.01)

        lines[1].update(residual=1e-9, **{"pass": False})
        doc["pass"] = False
        bad = check_verify(cmd, 1, json.dumps(doc), "")
        self.assertFalse(bad.ok)
        self.assertFalse(bad.known_defect)
        self.assertAlmostEqual(bad.margin, 10.0)
        # a failing line that still claims to pass is caught as well
        lines[1]["pass"] = True
        doc["pass"] = True
        self.assertFalse(check_verify(cmd, 0, json.dumps(doc), "").ok)

    def test_codazzi_defect_only_where_measured(self):
        line = {"group": "example1", "name": "codazzi_residual", "residual": 6e-3, "tolerance": 1e-4, "pass": False}
        report = verify_doc(1, [line])
        for sig, r, known in (([3, 1], 0.15, True), ([3, 1], 0.5, False), ([4, 1], 0.15, False)):
            with self.subTest(sig=sig, seed_r=r):
                cmd = Command(["verify", "1"], {"exit": 0, "family": 1, "case": "case_b", "sig": sig, "seed_r": r})
                outcome = check_verify(cmd, 1, report, "")
                self.assertFalse(outcome.ok)
                self.assertEqual(outcome.known_defect, known)

    def test_missing_report_only_near_quarter_pi(self):
        for r, known in ((math.pi / 4 + 0.005, True), (0.5, False), (1.2, False)):
            with self.subTest(seed_r=r):
                cmd = Command(["verify", "1"], {"exit": 0, "family": 1, "case": "case_b", "sig": [3, 1], "seed_r": r})
                outcome = check_verify(cmd, 1, "", NO_CASE)
                self.assertFalse(outcome.ok)
                self.assertEqual(outcome.known_defect, known)


class CaseCStepDefect(unittest.TestCase):
    """A case-c curve that matches no case is excused only when the same
    document classifies as expected at the coarser confirm step."""

    def command(self, tmp, step, kind="case_c1"):
        import numpy as np

        doc, code, case, kind_ = _classify_doc(kind, np.random.default_rng(3), step)
        path = Path(tmp) / "c.json"
        path.write_text(json.dumps(doc))
        return Command(["classify", str(path)], {"exit": code, "case": case, "kind": kind_, "step": step})

    def test_confirmed_at_coarser_step(self):
        with scratch_dir() as tmp:
            outcome = check_classify(self.command(tmp, 6e-4), 1, "", NO_CASE, run_cli)
        self.assertFalse(outcome.ok)
        self.assertTrue(outcome.known_defect)

    def test_not_confirmed_is_unexpected(self):
        def broken(argv):
            return 1, "", NO_CASE

        with scratch_dir() as tmp:
            outcome = check_classify(self.command(tmp, 1e-3), 1, "", NO_CASE, broken)
        self.assertFalse(outcome.ok)
        self.assertFalse(outcome.known_defect)

    def test_wrong_kind_at_coarser_step_is_unexpected(self):
        # the document is a case_c2 curve, but the command expects case_c1's kind
        with scratch_dir() as tmp:
            cmd = self.command(tmp, 1e-3, kind="case_c2")
            cmd.expect["kind"] = "b3_1"
            outcome = check_classify(cmd, 1, "", NO_CASE, run_cli)
        self.assertFalse(outcome.ok)
        self.assertFalse(outcome.known_defect)

    def test_other_error_is_unexpected(self):
        with scratch_dir() as tmp:
            outcome = check_classify(self.command(tmp, 6e-4), 3, "", "error: lightlike", run_cli)
        self.assertFalse(outcome.ok)
        self.assertFalse(outcome.known_defect)


class TracerBindings(unittest.TestCase):
    def test_install_and_uninstall(self):
        import pseudocp.cli
        import pseudocp.ruled

        original = pseudocp.ruled.rhs_lift
        tracer = Tracer()
        tracer.install()
        try:
            self.assertIsNot(pseudocp.ruled.rhs_lift, original)
            self.assertIs(pseudocp.cli.rhs_lift, pseudocp.ruled.rhs_lift)
        finally:
            tracer.uninstall()
        self.assertIs(pseudocp.ruled.rhs_lift, original)
        self.assertIs(pseudocp.cli.rhs_lift, original)


class YardstickScale(unittest.TestCase):
    def test_samples_inside_then_nearest(self):
        ys = Yardstick()
        # kernel twice as slow as nominal from t = 10 on
        ys.samples = [(t / 5, NOMINAL_S * (2 if t >= 50 else 1)) for t in range(100)]
        self.assertAlmostEqual(ys.scale(1.0, 9.0), 1.0)
        self.assertAlmostEqual(ys.scale(11.0, 19.0), 0.5)
        # shorter than MIN_SAMPLES periods: the nearest samples, all slow
        self.assertEqual(MIN_SAMPLES, 4)
        self.assertAlmostEqual(ys.scale(15.01, 15.02), 0.5)

    def test_start_samples_and_stop(self):
        import signal
        import time

        ys = Yardstick()
        ys.start()
        try:
            t0 = time.perf_counter()
            while time.perf_counter() - t0 < 1.0:
                sum(range(1000))
        finally:
            ys.stop()
        self.assertGreaterEqual(len(ys.samples), 3)
        self.assertGreater(ys.busy, 0.0)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))


class RefusesWithoutProgram(unittest.TestCase):
    def test_exit_without_result(self):
        with scratch_dir() as tmp:
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, f"{HERE.name}/run.py", "--workload", "classify", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=120,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
