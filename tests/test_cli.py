"""Command line interface: exit codes, report schemas, determinism."""

import json
import subprocess
import sys

import numpy as np
import pytest

from pseudocp.cli import main
from pseudocp.linalg import Signature, metric_signs


def run_cli(*argv):
    return main(list(argv))


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


GEODESIC_DOC = {
    "signature": {"n": 3, "p": 1},
    "kind": "closed_form",
    "data": {
        "family": "geodesic",
        "point": [[0, 0], [0, 0], [0, 0], [1, 0]],
        "velocity": [[0, 0], [0, 0], [1, 0], [0, 0]],
    },
}

CASE_C1_DOC = {
    "signature": {"n": 3, "p": 1},
    "kind": "closed_form",
    "data": {
        "family": "case_c1",
        "p0": [[0, 0], [1, 0], [0, 0], [0, 0]],
        "v0": [[0, 0], [0, 0], [1, 0], [0, 0]],
        "f2": [[1, 0], [0, 0], [0, 0], [1, 0]],
    },
}

CIRCLE_DOC = {
    "signature": {"n": 3, "p": 1},
    "kind": "closed_form",
    "data": {"family": "circle", "model": "rp2", "kappa1": 1.25},
}


class TestUsageErrors:
    def test_unknown_verify_target(self, capsys):
        assert run_cli("verify", "9") == 2

    def test_unknown_sample_id(self, capsys):
        assert run_cli("sample", "7") == 2

    def test_bad_grid_spec(self, capsys):
        assert run_cli("sample", "1", "--grid", "5x5") == 2

    def test_missing_subcommand(self, capsys):
        assert run_cli() == 2

    def test_bad_signature(self, capsys):
        """p = n is not a signature: a usage error, not a precondition."""
        assert run_cli("verify", "1", "--signature", "3,4") == 2
        assert "bad signature" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "1", "--format", "csv"),
            ("verify", "1", "--tol-light", "1e-6"),
            ("classify", "curve.json", "--grid", "2x2x2"),
            ("classify", "curve.json", "--format", "csv"),
            ("classify", "curve.json", "--verify-tol", "1e-3"),
            ("sample", "1", "--verify-tol", "1e-3"),
            ("sample", "1", "--tol-light", "1e-6"),
        ],
    )
    def test_flag_the_subcommand_does_not_read(self, argv, tmp_path, capsys):
        """Each subcommand parses only the flags it reads: any other flag is
        a usage error, and nothing runs."""
        assert run_cli(*argv, "--out", str(tmp_path / "out.txt")) == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "out.txt").exists()


class TestClassify:
    def test_geodesic_file(self, tmp_path, capsys):
        path = write_json(tmp_path / "geo.json", GEODESIC_DOC)
        assert run_cli("classify", path) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == 1
        assert doc["case"] == "a"

    def test_case_c1_file(self, tmp_path, capsys):
        path = write_json(tmp_path / "c1.json", CASE_C1_DOC)
        assert run_cli("classify", path) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["case"] == "c"
        assert doc["kind"] == "b3_1"

    def test_circle_file(self, tmp_path, capsys):
        path = write_json(tmp_path / "circ.json", CIRCLE_DOC)
        assert run_cli("classify", path) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["case"] == "b"
        assert doc["kappa1"] == pytest.approx(1.25, abs=1e-6)
        assert doc["signs"] == {"eps1": 1.0, "eps2": 1.0}

    def test_nan_circle_curvature_is_a_precondition(self, tmp_path, capsys):
        """A NaN curvature is refused like a non-positive one: exit 3."""
        doc = {**CIRCLE_DOC, "data": {**CIRCLE_DOC["data"], "kappa1": float("nan")}}
        path = write_json(tmp_path / "circ.json", doc)
        assert run_cli("classify", path) == 3
        captured = capsys.readouterr()
        assert "curvature must be positive" in captured.err
        assert captured.out == ""

    def test_builtin_flow_file(self, tmp_path, capsys):
        doc = {
            "signature": {"n": 3, "p": 1},
            "kind": "closed_form",
            "data": {"family": "builtin_flow", "example": 1, "seed_r": 0.7853981634},
        }
        path = write_json(tmp_path / "flow.json", doc)
        assert run_cli("classify", path) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["case"] == "c"

    def test_parse_failure(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run_cli("classify", str(bad)) == 2

    def test_missing_field(self, tmp_path, capsys):
        path = write_json(tmp_path / "missing.json", {"kind": "closed_form"})
        assert run_cli("classify", path) == 2

    def test_lightlike_velocity_rejected(self, tmp_path, capsys):
        doc = {
            "signature": {"n": 3, "p": 1},
            "kind": "closed_form",
            "data": {
                "family": "geodesic",
                "point": [[0, 0], [0, 0], [0, 0], [1, 0]],
                "velocity": [[1, 0], [0, 0], [1, 0], [0, 0]],
            },
        }
        path = write_json(tmp_path / "null.json", doc)
        assert run_cli("classify", path) == 3

    def test_sampled_lifts_input(self, tmp_path, capsys):
        from pseudocp.examples import example_integral_curve, example_spec

        curve = example_integral_curve(example_spec(1)).curve
        rows = [
            [[float(np.real(x)), float(np.imag(x))] for x in lift]
            for lift in curve.lifts[::1]
        ]
        doc = {
            "signature": {"n": 3, "p": 1},
            "kind": "samples",
            "data": {"s": [float(s) for s in curve.params], "lifts": rows},
        }
        path = write_json(tmp_path / "samples.json", doc)
        assert run_cli("classify", path) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["case"] == "b"

    def test_sampled_lifts_parse_bit_for_bit(self):
        """The lifts of a samples document are read back exactly."""
        from pseudocp.cli import _curve_from_file
        from pseudocp.examples import example_integral_curve, example_spec

        curve = example_integral_curve(example_spec(3)).curve
        doc = {
            "signature": {"n": 3, "p": 2},
            "kind": "samples",
            "data": {
                "s": curve.params.tolist(),
                "lifts": np.stack([curve.lifts.real, curve.lifts.imag], axis=-1).tolist(),
            },
        }
        assert np.array_equal(_curve_from_file(doc).lifts, curve.lifts)

    @pytest.mark.parametrize("bad", ["short_row", "triple"])
    def test_sampled_lifts_of_wrong_shape_are_a_usage_error(self, tmp_path, capsys, bad):
        rows = [[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]] for _ in range(5)]
        if bad == "short_row":
            rows[2] = rows[2][:3]
        else:
            rows = [[pair + [0.0] for pair in row] for row in rows]
        doc = {
            "signature": {"n": 3, "p": 1},
            "kind": "samples",
            "data": {"s": [0.0, 0.1, 0.2, 0.3, 0.4], "lifts": rows},
        }
        path = write_json(tmp_path / "bad.json", doc)
        assert run_cli("classify", path) == 2
        assert "expected 4 [re, im] pairs" in capsys.readouterr().err

    def test_non_uniform_samples_are_a_precondition(self, tmp_path, capsys):
        """Sampled lifts whose s grid is not uniform exit 3 and say so,
        before any stencil reads them as uniform."""
        from pseudocp.examples import example_integral_curve, example_spec

        curve = example_integral_curve(example_spec(1)).curve
        s_grid = curve.params + 0.1 * curve.step * np.sin(np.arange(len(curve)))
        rows = [[[float(np.real(x)), float(np.imag(x))] for x in lift] for lift in curve.lifts]
        doc = {
            "signature": {"n": 3, "p": 1},
            "kind": "samples",
            "data": {"s": [float(s) for s in s_grid], "lifts": rows},
        }
        path = write_json(tmp_path / "samples.json", doc)
        assert run_cli("classify", path) == 3
        captured = capsys.readouterr()
        assert "not spaced uniformly" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "change,message",
        [
            ({"step": 0}, "step must be finite and positive"),
            ({"step": -1e-3}, "step must be finite and positive"),
            ({"step": float("inf")}, "step must be finite and positive"),
            ({"step": float("nan")}, "step must be finite and positive"),
            ({"s_range": [0.5, -0.5]}, "need at least 3 samples"),
            ({"s_range": [float("-inf"), float("inf")]}, "curve range must be finite"),
            ({"s_range": [float("nan"), 0.5]}, "curve range must be finite"),
            ("repeated_s", "step must be finite and positive"),
        ],
        ids=[
            "zero_step",
            "negative_step",
            "infinite_step",
            "nan_step",
            "reversed_range",
            "infinite_range",
            "nan_range",
            "repeated_s",
        ],
    )
    def test_malformed_grid_is_a_precondition(self, tmp_path, capsys, change, message):
        """A curve grid without a finite positive step or 3 samples exits 3
        and says so, before any stencil divides by the step."""
        if change == "repeated_s":
            from pseudocp.examples import example_integral_curve, example_spec

            curve = example_integral_curve(example_spec(1)).curve
            rows = [[[float(np.real(x)), float(np.imag(x))] for x in lift] for lift in curve.lifts]
            doc = {
                "signature": {"n": 3, "p": 1},
                "kind": "samples",
                "data": {"s": [0.0] * len(curve), "lifts": rows},
            }
        else:
            doc = {**GEODESIC_DOC, **change}
        path = write_json(tmp_path / "grid.json", doc)
        assert run_cli("classify", path) == 3
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""

    def test_unclassifiable_curve_reports_failure(self, tmp_path, capsys):
        """A two-curvature helix matches no minimal case: exit code one."""
        a, p = 0.3, 1.0
        b = np.sqrt(1 - a * a)
        q = np.sqrt((1 + a * a * p * p) / (b * b))
        s_grid = np.arange(-0.5, 0.5 + 1e-12, 1e-3)
        rows = []
        for s in s_grid:
            lift = [a * np.sinh(p * s), a * np.cosh(p * s), b * np.cos(q * s), b * np.sin(q * s)]
            rows.append([[float(x), 0.0] for x in lift])
        doc = {
            "signature": {"n": 3, "p": 1},
            "kind": "samples",
            "data": {"s": [float(s) for s in s_grid], "lifts": rows},
        }
        path = write_json(tmp_path / "helix.json", doc)
        assert run_cli("classify", path) == 1


class TestSample:
    def test_row_count_and_header(self, tmp_path):
        out = tmp_path / "cloud.csv"
        assert run_cli("sample", "1", "--grid", "3x3x2", "--format", "csv", "--out", str(out)) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("s,t,c1,c2,c3,c4,re_z1,im_z1")
        assert len(lines) == 1 + 3 * 3 * 2

    def test_rows_on_sphere(self, tmp_path):
        """Re-read the file and confirm every row is a unit sphere point."""
        out = tmp_path / "cloud.csv"
        assert run_cli("sample", "1", "--grid", "2x3x2", "--format", "csv", "--out", str(out)) == 0
        sig = Signature(3, 1)
        signs = metric_signs(sig.p, sig.ambient_dim)
        lines = out.read_text().strip().split("\n")[1:]
        for line in lines:
            vals = [float(x) for x in line.split(",")]
            z = np.array(vals[6::2]) + 1j * np.array(vals[7::2])
            g = float(np.real(np.sum(signs * z * np.conj(z))))
            assert abs(g - 1.0) < 1e-9

    def test_deterministic_output(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for target in (a, b):
            assert run_cli(
                "sample", "1", "--grid", "2x2x2", "--format", "csv", "--out", str(target)
            ) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_json_format(self, tmp_path):
        out = tmp_path / "cloud.json"
        assert run_cli("sample", "2", "--grid", "2x2x2", "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        assert doc["schema"] == 1
        assert len(doc["rows"]) == 8
        assert len(doc["header"]) == 2 + 6 + 2 * 5

    def test_io_failure(self, tmp_path, capsys):
        missing = tmp_path / "no" / "such" / "dir" / "x.csv"
        assert run_cli("sample", "1", "--grid", "2x2x2", "--out", str(missing)) == 4


class TestConfig:
    def test_env_config_is_picked_up(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid_s": 2, "grid_t": 2, "grid_leaf": 2, "fmt": "csv"}))
        monkeypatch.setenv("PSEUDOCP_CONFIG", str(cfg))
        out = tmp_path / "cloud.csv"
        assert run_cli("sample", "1", "--out", str(out)) == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 1 + 2 * 2 * 2

    def test_retired_keys_are_ignored(self, tmp_path, monkeypatch, capsys):
        """A config file that still holds the retired sphere_tol, ode_tol
        and tau_light keys loads and runs: unknown keys are ignored."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {"sphere_tol": 1e-10, "ode_tol": 1e-3, "tau_light": 1e-8, "grid_s": 2, "grid_t": 2, "grid_leaf": 2, "fmt": "csv"}
            )
        )
        monkeypatch.setenv("PSEUDOCP_CONFIG", str(cfg))
        out = tmp_path / "cloud.csv"
        assert run_cli("sample", "1", "--out", str(out)) == 0
        assert len(out.read_text().strip().split("\n")) == 1 + 2 * 2 * 2

    def test_out_of_chart_leaf_radius_is_a_precondition(self, tmp_path, monkeypatch, capsys):
        """A leaf radius beyond the chart exits 3 and writes nothing."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"leaf_radius": 2.0}))
        monkeypatch.setenv("PSEUDOCP_CONFIG", str(cfg))
        out = tmp_path / "cloud.csv"
        assert run_cli("sample", "1", "--grid", "2x2x2", "--out", str(out)) == 3
        assert "chart" in capsys.readouterr().err
        assert not out.exists()

    def test_leaf_radius_reaches_the_verify_grid(self, tmp_path, monkeypatch, capsys):
        """The configured leaf radius sets the leaf coordinates of the
        cross check's grid, so the grid residuals move with it."""

        def residuals(name, radius):
            out = tmp_path / f"{name}.json"
            if radius is not None:
                cfg = tmp_path / f"{name}_cfg.json"
                cfg.write_text(json.dumps({"leaf_radius": radius}))
                monkeypatch.setenv("PSEUDOCP_CONFIG", str(cfg))
            assert run_cli("verify", "3", "--grid", "2x2x2", "--out", str(out)) == 0
            doc = json.loads(out.read_text())
            assert doc["config"]["leaf_radius"] == (0.25 if radius is None else radius)
            return {
                item["name"]: item["residual"]
                for item in doc["identities"]
                if item["group"] == "example3"
            }

        default, narrow = residuals("default", None), residuals("narrow", 0.1)
        for name in ("ruled_leaf_block", "minimality_mu", "codazzi_residual"):
            assert narrow[name] != default[name]

    def test_out_of_chart_leaf_radius_fails_verify_as_a_precondition(
        self, tmp_path, monkeypatch, capsys
    ):
        """A verify grid leaf radius beyond the chart exits 3, as in sample."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"leaf_radius": 2.0}))
        monkeypatch.setenv("PSEUDOCP_CONFIG", str(cfg))
        out = tmp_path / "report.json"
        assert run_cli("verify", "3", "--grid", "2x2x2", "--out", str(out)) == 3
        assert "chart" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_seed_parameter_is_a_precondition(self, tmp_path, capsys):
        """seed_r = 0 empties family one's open slot: exit 3, not a crash."""
        out = tmp_path / "cloud.csv"
        assert run_cli("sample", "1", "--seed-r", "0", "--grid", "2x2x2", "--out", str(out)) == 3
        assert "open-slot" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["verify", "sample"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_seed_parameter_is_a_precondition(self, tmp_path, capsys, command, value):
        """A non-finite seed_r has no seed point: exit 3 with that reason."""
        argv = [command, "1", "--seed-r", value, "--grid", "2x2x2"]
        if command == "sample":
            argv += ["--out", str(tmp_path / "cloud.csv")]
        assert run_cli(*argv) == 3
        assert "must be finite" in capsys.readouterr().err

    def test_invalid_config_rejected(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid_s": 1}))
        monkeypatch.setenv("PSEUDOCP_CONFIG", str(cfg))
        assert run_cli("sample", "1") == 2

    @pytest.mark.parametrize("key", ["verify_tol", "leaf_radius"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_non_finite_config_value_rejected(self, tmp_path, monkeypatch, capsys, key, value):
        """A non-finite tolerance or leaf radius from the config file is a
        usage error: exit 2, nothing run."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        monkeypatch.setenv("PSEUDOCP_CONFIG", str(cfg))
        assert run_cli("verify", "3", "--grid", "2x2x2") == 2
        captured = capsys.readouterr()
        assert f"{key} must be finite and positive" in captured.err
        assert captured.out == ""

    def test_nan_verify_tol_flag_rejected(self, capsys):
        assert run_cli("verify", "3", "--grid", "2x2x2", "--verify-tol", "nan") == 2
        assert "verify_tol must be finite and positive" in capsys.readouterr().err


class TestVerify:
    def test_single_example_report(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = run_cli("verify", "3", "--grid", "2x2x2", "--out", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["schema"] == 1
        assert doc["pass"] is True
        assert doc["classifications"]["3"] == "case_b"
        assert len(doc["identities"]) >= 18
        assert all(item["pass"] for item in doc["identities"])

    def test_seed_parameter_switches_the_case(self, tmp_path, capsys):
        """The unit-modulus seed turns family one into the non-Frenet case."""
        out = tmp_path / "report.json"
        code = run_cli(
            "verify", "1", "--seed-r", "0.7853981634", "--grid", "2x2x2",
            "--out", str(out),
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["classifications"]["1"] == "case_c"

    def test_small_seed_parameter_passes_every_line(self, tmp_path):
        """At seed_r = 0.1 (kappa1 about 7) the Codazzi and structure
        identities pass: their differences are extrapolated, not O(h^2)."""
        out = tmp_path / "report.json"
        code = run_cli(
            "verify", "1", "--signature", "3,1", "--seed-r", "0.1", "--out", str(out)
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert all(item["pass"] for item in doc["identities"])

    def test_almost_contact_lines_check_the_requested_instance(self, tmp_path):
        """The almost contact suite runs on the family instance of the
        command, not on the default one."""

        def almost_contact(*argv):
            out = tmp_path / "report.json"
            assert run_cli("verify", "1", "--grid", "2x2x2", *argv, "--out", str(out)) == 0
            doc = json.loads(out.read_text())
            return [item for item in doc["identities"] if item["group"] == "almost_contact"]

        default = almost_contact()
        requested = almost_contact("--signature", "4,2", "--seed-r", "1.2")
        assert [item["name"] for item in requested] == [item["name"] for item in default]
        assert [item["residual"] for item in requested] != [
            item["residual"] for item in default
        ]

    @pytest.fixture(scope="class")
    def verify_all(self, tmp_path_factory):
        """One ``verify all`` run shared by the tests of its report."""
        out = tmp_path_factory.mktemp("verify_all") / "all.json"
        code = run_cli("verify", "all", "--out", str(out))
        return code, json.loads(out.read_text())

    def test_verify_all_line_count(self, verify_all):
        """The full run reports well over forty identity lines and passes."""
        code, doc = verify_all
        assert code == 0
        assert doc["pass"] is True
        assert len(doc["identities"]) >= 40
        assert set(doc["classifications"]) == {"1", "2", "3", "4"}

    def test_verify_all_worst_margin(self, verify_all):
        """Accuracy guard: every one of the 102 lines passes with its
        residual at most 1/100 of its tolerance (the worst, a Codazzi
        residual, reads about 0.0078), so a faster kernel cannot trade
        accuracy unseen."""
        code, doc = verify_all
        assert code == 0
        assert len(doc["identities"]) == 102
        worst = max(item["residual"] / item["tolerance"] for item in doc["identities"])
        assert worst <= 0.01

    def test_one_process_answers_like_fresh_processes(self, tmp_path, capsys):
        """A usage error, a verify and a classify in one process (sharing
        one parser) give the exit codes and outputs of fresh processes."""
        curve = write_json(tmp_path / "geodesic.json", GEODESIC_DOC)
        commands = [
            ["verify", "1", "--format", "csv"],
            ["verify", "3", "--grid", "2x2x2"],
            ["classify", curve],
        ]
        in_process = []
        for argv in commands:
            code = main(argv)
            out, err = capsys.readouterr()
            in_process.append((code, out, err))
        fresh = []
        for argv in commands:
            proc = subprocess.run(
                [sys.executable, "-m", "pseudocp", *argv], capture_output=True, text=True
            )
            fresh.append((proc.returncode, proc.stdout, proc.stderr))
        assert [c for c, _, _ in in_process] == [2, 0, 0]
        assert in_process == fresh

    def test_console_script_entry(self):
        """The installed entry point answers with the usage exit code."""
        proc = subprocess.run(
            [sys.executable, "-m", "pseudocp", "verify", "9"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
