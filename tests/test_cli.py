"""Command line interface: exit codes, report schemas, determinism."""

import json
import os
import stat
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from oracles import _ref_sample_text, helix_lift
from pseudocp import cli, ruled, verification
from pseudocp.cli import main
from pseudocp.curves import model_circle_curve, sample_params
from pseudocp.errors import ChartError, NotProjectablePoint
from pseudocp.examples import EXAMPLE_IDS
from pseudocp.frames import complete_unitary_frames
from pseudocp.linalg import Signature, gdot_rows, jmul, metric_signs
from pseudocp.verification import ACCEPTANCE_SIGNATURES


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

CASE_C2_DOC = {
    "signature": {"n": 3, "p": 2},
    "kind": "closed_form",
    "data": {
        "family": "case_c2",
        "p0": [[0, 0], [0, 0], [1, 0], [0, 0]],
        "v0": [[0, 0], [1, 0], [0, 0], [0, 0]],
        "f2": [[1, 0], [0, 0], [0, 0], [1, 0]],
    },
}

FLOW_SEED_DOC = {
    "signature": {"n": 3, "p": 1},
    "kind": "closed_form",
    "data": {"family": "builtin_flow", "example": 1, "z": [[0, 0], [0, 0], [1, 0]]},
}

#: the identity lines of one family's cross check: the generating curve's,
#: then the closed forms'
CROSS_CHECK_NAMES = {
    "curve_horizontal",
    "curve_unit_speed",
    "transport_orth_velocity",
    "transport_orth_j_velocity",
    "transport_gram_drift",
    "evaluate_recovers_base",
    "ruled_leaf_block",
    "minimality_mu",
    "isometry_invariance",
    "codazzi_residual",
    "classification_case",
    "classification_kind",
    "classification_kappa1",
    "lift_on_sphere",
    "normal_unit",
    "normal_horizontal",
    "shape_xi_component",
    "accel_square_constant",
    "shape_xi_matches_closed_form",
}

#: five samples of the constant curve e3 of (3,1), a well-formed document
SAMPLES_DOC = {
    "signature": {"n": 3, "p": 1},
    "kind": "samples",
    "data": {"s": [1e-3 * k for k in range(5)], "lifts": [[[0, 0], [0, 0], [0, 0], [1, 0]]] * 5},
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
        """A grid spec without three entries, or with fewer than two ruling
        slices for ``sample`` (the one reader of T), exits 2."""
        assert run_cli("sample", "1", "--grid", "5x5") == 2
        assert run_cli("sample", "1", "--grid", "2x1x2") == 2
        captured = capsys.readouterr()
        assert "grid_t must be at least 2" in captured.err
        assert captured.out == ""

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
        assert set(doc["detail"]) == {"residual"}

    def test_case_c1_file(self, tmp_path, capsys):
        path = write_json(tmp_path / "c1.json", CASE_C1_DOC)
        assert run_cli("classify", path) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["case"] == "c"
        assert doc["kind"] == "b3_1"
        assert set(doc["detail"]) == {
            "f2_min_norm", "g(F2,F2)", "parallel_defect", "g(F1,F2)", "g(F1,JF2)"
        }

    def test_case_c2_file(self, tmp_path, capsys):
        """The timelike non-Frenet generator at (3,2) reads case c, kind
        b3_2, with a timelike velocity."""
        path = write_json(tmp_path / "c2.json", CASE_C2_DOC)
        assert run_cli("classify", path) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["case"] == "c"
        assert doc["kind"] == "b3_2"
        assert doc["signs"]["eps1"] == -1.0

    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
    @pytest.mark.parametrize(
        "base,field",
        [
            (GEODESIC_DOC, "point"),
            (GEODESIC_DOC, "velocity"),
            (CASE_C1_DOC, "p0"),
            (CASE_C1_DOC, "v0"),
            (CASE_C1_DOC, "f2"),
            (CASE_C2_DOC, "p0"),
            (CASE_C2_DOC, "v0"),
            (CASE_C2_DOC, "f2"),
            (FLOW_SEED_DOC, "z"),
        ],
        ids=lambda x: x if isinstance(x, str) else x["data"]["family"],
    )
    def test_non_finite_closed_form_vector_is_a_precondition(self, tmp_path, capsys, base, field, value):
        """A NaN or infinite entry in a vector of a closed-form curve file
        is refused before any check does arithmetic on it: exit 3, the
        message naming the field."""
        doc = json.loads(json.dumps(base))
        doc["data"][field][-1][0] = value
        path = write_json(tmp_path / "curve.json", doc)
        assert run_cli("classify", path) == 3
        captured = capsys.readouterr()
        assert f"error: {field} holds a non-finite entry" in captured.err
        assert captured.out == ""

    def test_circle_file(self, tmp_path, capsys):
        path = write_json(tmp_path / "circ.json", CIRCLE_DOC)
        assert run_cli("classify", path) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["case"] == "b"
        assert doc["kappa1"] == pytest.approx(1.25, abs=1e-6)
        assert doc["signs"] == {"eps1": 1.0, "eps2": 1.0}
        assert set(doc["detail"]) == {"order", "kappa1", "kappa1_rel_spread", "torsion_max"}

    def test_nan_circle_curvature_is_a_precondition(self, tmp_path, capsys):
        """A NaN curvature, or one whose square is not finite, is refused
        like a non-positive one: exit 3. (The string "inf" is no JSON
        number: ``test_numeric_fields_must_be_json_numbers``.)"""
        for kappa1 in (float("nan"), 1e300, float("inf")):
            doc = {**CIRCLE_DOC, "data": {**CIRCLE_DOC["data"], "kappa1": kappa1}}
            path = write_json(tmp_path / "circ.json", doc)
            assert run_cli("classify", path) == 3, kappa1
            captured = capsys.readouterr()
            assert "curvature must be positive" in captured.err
            assert captured.out == ""

    @pytest.mark.parametrize(
        "field,value",
        [("n", 3.7), ("p", 1.0), ("n", "3"), ("p", True), ("example", 1.9), ("example", "1")],
    )
    def test_integer_fields_must_be_json_integers(self, tmp_path, capsys, field, value):
        """``n``, ``p`` and ``example`` are never rounded or parsed: anything
        but a JSON integer is a parse error, exit 2."""
        doc = {
            "signature": {"n": 3, "p": 1},
            "kind": "closed_form",
            "data": {"family": "builtin_flow", "example": 1},
        }
        if field == "example":
            doc["data"]["example"] = value
        else:
            doc["signature"][field] = value
        path = write_json(tmp_path / "flow.json", doc)
        assert run_cli("classify", path) == 2
        captured = capsys.readouterr()
        assert f"{field} must be an integer" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "field,value",
        [
            ("kappa1", True),
            ("kappa1", "1.25"),
            ("kappa1", "inf"),
            ("seed_r", "0.5"),
            ("t0", "0.0"),
            ("step", "0.001"),
            ("step", True),
            ("step", 10**400),
            ("s_range", 5),
            ("s_range", [0, 1, 2]),
            ("s_range", ["-0.5", "0.5"]),
        ],
        ids=[
            "kappa1_true",
            "kappa1_string",
            "kappa1_string_inf",
            "seed_r_string",
            "t0_string",
            "step_string",
            "step_true",
            "step_beyond_float",
            "s_range_number",
            "s_range_three",
            "s_range_strings",
        ],
    )
    def test_numeric_fields_must_be_json_numbers(self, tmp_path, capsys, field, value):
        """``s_range`` (a list of exactly two), ``step``, ``kappa1``,
        ``seed_r`` and ``t0`` are never coerced: a string, a boolean, a
        list of another length or an integer beyond the float range is a
        parse error, exit 2, whose message names the field."""
        if field in ("seed_r", "t0"):
            doc = {
                "signature": {"n": 3, "p": 1},
                "kind": "closed_form",
                "data": {"family": "builtin_flow", "example": 1, field: value},
            }
        elif field == "kappa1":
            doc = {**CIRCLE_DOC, "data": {**CIRCLE_DOC["data"], "kappa1": value}}
        else:
            doc = {**CIRCLE_DOC, field: value}
        path = write_json(tmp_path / "numbers.json", doc)
        assert run_cli("classify", path) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot parse curve file: {field} ")
        assert captured.out == ""

    @pytest.mark.parametrize("t0", [float("inf"), float("-inf"), float("nan")], ids=str)
    def test_non_finite_t0_is_a_precondition(self, tmp_path, capsys, t0):
        doc = {
            "signature": {"n": 3, "p": 1},
            "kind": "closed_form",
            "data": {"family": "builtin_flow", "example": 1, "t0": t0},
        }
        path = write_json(tmp_path / "flow.json", doc)
        assert run_cli("classify", path) == 3
        captured = capsys.readouterr()
        assert "t0 must be finite" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("t0", [1000.0, -1000.0, 400.0, -400.0, 700.0, 350.0, -350.0])
    def test_overflowing_t0_is_a_precondition(self, tmp_path, capsys, t0):
        """A boost flow whose lifts, their squares g(z, z) and |z|_E^2, or
        the curve's horizontal velocities overflow over the curve range at
        t0 is refused with exit 3, naming t0, and warns nothing on the way."""
        doc = {
            "signature": {"n": 4, "p": 1},
            "kind": "closed_form",
            "data": {"family": "builtin_flow", "example": 2, "t0": t0},
        }
        path = write_json(tmp_path / "flow.json", doc)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run_cli("classify", path) == 3
        captured = capsys.readouterr()
        assert "t0" in captured.err
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
        "field,value",
        [("lifts", float("nan")), ("lifts", float("inf")), ("s", float("nan")), ("s", float("inf"))],
        ids=["nan_lift", "infinite_lift", "nan_s", "infinite_s"],
    )
    def test_non_finite_samples_are_a_precondition(self, tmp_path, capsys, field, value):
        """A samples document with a NaN or infinite s or lift entry exits 3
        and says so, before the spacing check compares it or any metric
        product forms it (a RuntimeWarning would be an error here)."""
        s_grid = np.arange(-0.01, 0.01 + 1e-12, 1e-3)
        rows = [[[0.0, 0.0], [0.0, 0.0], [np.sin(s), 0.0], [np.cos(s), 0.0]] for s in s_grid]
        doc = {
            "signature": {"n": 3, "p": 1},
            "kind": "samples",
            "data": {"s": s_grid.tolist(), "lifts": rows},
        }
        if field == "s":
            doc["data"]["s"][7] = value
        else:
            doc["data"]["lifts"][7][2][0] = value
        path = write_json(tmp_path / "samples.json", doc)
        assert run_cli("classify", path) == 3
        captured = capsys.readouterr()
        assert "non-finite s or lift entry" in captured.err
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
            ({"s_range": [-1e9, 1e9]}, "exceeds 100000"),
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
            "runaway_range",
        ],
    )
    def test_malformed_grid_is_a_precondition(self, tmp_path, capsys, change, message):
        """A curve grid without a finite positive step, 3 samples or at most
        ``MAX_SAMPLES`` samples exits 3 and says so, before any stencil
        divides by the step or any sample is allocated."""
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

    @pytest.mark.parametrize("count", [1, 2])
    def test_samples_document_of_fewer_than_3_samples_is_a_precondition(self, tmp_path, capsys, count):
        """A ``samples`` document of 1 or 2 samples exits 3 like any curve
        grid of fewer than 3 samples, though 1 sample gives no step."""
        doc = {
            "signature": {"n": 3, "p": 1},
            "kind": "samples",
            "data": {"s": [1e-3 * k for k in range(count)], "lifts": [[[0, 0], [0, 0], [0, 0], [1, 0]]] * count},
        }
        path = write_json(tmp_path / "samples.json", doc)
        assert run_cli("classify", path) == 3
        captured = capsys.readouterr()
        assert "need at least 3 samples" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("s", 0.5, "s must be a flat list of numbers"),
            ("s", [[1e-3 * k] for k in range(5)], "s must be a flat list of numbers"),
            ("s", [0.0, [1e-3], 2e-3, 3e-3, 4e-3], "s must be a flat list of numbers"),
            ("s", ["0", "a", "b", "c", "d"], "s must be a flat list of numbers"),
            ("lifts", [[0, 0], [0, 0], [0, 0], [1, 0]], "lifts: expected 4 [re, im] pairs"),
            ("lifts", [[[0, 0], [0, 0], [1, 0]]] * 5, "lifts: expected 4 [re, im] pairs"),
            ("lifts", [[[0, 0], [0, 0], [0, 0], [1, 0]]] * 7, "lifts holds 7 rows for the 5 entries of s"),
            ("lifts", [[[0, 0], [0, 0], [0, 0], [1, 0]]] * 4, "lifts holds 4 rows for the 5 entries of s"),
            ("s", [1e-3 * k for k in range(2)], "lifts holds 5 rows for the 2 entries of s"),
        ],
        ids=[
            "s_number",
            "s_nested",
            "s_ragged",
            "s_strings",
            "lifts_one_row",
            "lifts_short_rows",
            "lifts_more_rows",
            "lifts_fewer_rows",
            "s_fewer_entries",
        ],
    )
    def test_malformed_samples_field_is_named(self, tmp_path, capsys, field, value, message):
        """A ``samples`` document whose ``s`` is no flat list of numbers,
        whose ``lifts`` are no rows of [re, im] pairs, or whose ``lifts``
        row count differs from the count of ``s``, is a parse error, exit 2,
        whose message names the field."""
        data = {"s": [1e-3 * k for k in range(5)], "lifts": [[[0, 0], [0, 0], [0, 0], [1, 0]]] * 5}
        doc = {"signature": {"n": 3, "p": 1}, "kind": "samples", "data": {**data, field: value}}
        path = write_json(tmp_path / "samples.json", doc)
        assert run_cli("classify", path) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: cannot parse curve file: {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "value,message",
        [
            ("text", "holds an entry that is no JSON number"),
            ("bool", "holds an entry that is no JSON number"),
            (None, "holds an entry that is no JSON number"),
            (10**400, "holds an entry beyond the float range"),
        ],
        ids=["string", "boolean", "null", "beyond_float"],
    )
    @pytest.mark.parametrize(
        "base,field",
        [
            (SAMPLES_DOC, "s"),
            (SAMPLES_DOC, "lifts"),
            (GEODESIC_DOC, "point"),
            (GEODESIC_DOC, "velocity"),
            (CASE_C1_DOC, "p0"),
            (CASE_C1_DOC, "v0"),
            (CASE_C1_DOC, "f2"),
            (CASE_C2_DOC, "p0"),
            (CASE_C2_DOC, "v0"),
            (CASE_C2_DOC, "f2"),
            (FLOW_SEED_DOC, "z"),
        ],
        ids=lambda x: x if isinstance(x, str) else x["kind"] if "family" not in x["data"] else x["data"]["family"],
    )
    def test_array_entries_must_be_json_numbers(self, tmp_path, capsys, base, field, value, message):
        """An entry of a curve-file array that is no JSON number is a parse
        error, exit 2, whose message names the field. The string and the
        boolean read as the entry they replace ("1" for 1, false for 0),
        which an array conversion would accept; null would read as NaN."""
        doc = json.loads(json.dumps(base))
        entries = doc["data"][field] if field == "s" else doc["data"][field][-1]
        if field == "lifts":
            entries = entries[-1]
        old = entries[0]
        entries[0] = {"text": str(old), "bool": bool(old)}.get(value, value)
        path = write_json(tmp_path / "curve.json", doc)
        assert run_cli("classify", path) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: cannot parse curve file: {field} {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("w", [0.3, 1.0, 5.0])
    @pytest.mark.parametrize("kappa1,step", [(1.25, 1e-3), (0.6, 5e-4)])
    def test_phase_rotated_lifts_classify_like_horizontal_ones(self, tmp_path, capsys, kappa1, step, w):
        """The case is a property of the projective curve: an rp2 circle
        held by the lifts e^{iws} alpha(s), which are not horizontal, reads
        case b, kind rp2 and the kappa1 of its horizontal lifts alpha(s)."""
        crv = model_circle_curve(Signature(3, 1), "rp2", kappa1)
        s_grid = sample_params(-0.5, 0.5, step)
        out = []
        for phase in (0.0, w):
            lifts = np.exp(1j * phase * s_grid)[:, None] * crv.point(s_grid)
            doc = {
                "signature": {"n": 3, "p": 1},
                "kind": "samples",
                "data": {"s": s_grid.tolist(), "lifts": np.stack([lifts.real, lifts.imag], axis=-1).tolist()},
            }
            assert run_cli("classify", write_json(tmp_path / f"circle_{phase}.json", doc)) == 0
            out.append(json.loads(capsys.readouterr().out))
        horizontal, rotated = out
        assert (rotated["case"], rotated["kind"]) == ("b", "rp2")
        assert abs(rotated["kappa1"] - horizontal["kappa1"]) <= 1e-10

    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
    def test_circle_timelike_must_be_a_json_boolean(self, tmp_path, capsys, value):
        """``timelike`` is never coerced: the string "false" would read as
        true. Anything but a JSON boolean is a parse error, exit 2."""
        doc = {**CIRCLE_DOC, "data": {**CIRCLE_DOC["data"], "timelike": value}}
        path = write_json(tmp_path / "circ.json", doc)
        assert run_cli("classify", path) == 2
        captured = capsys.readouterr()
        assert "timelike must be a boolean" in captured.err
        assert captured.out == ""

    def test_unclassifiable_curve_reports_failure(self, tmp_path, capsys):
        """A two-curvature helix matches no minimal case: exit code one."""
        s_grid = np.arange(-0.5, 0.5 + 1e-12, 1e-3)
        rows = [[[float(x.real), 0.0] for x in lift] for lift in helix_lift(s_grid)]
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

    @pytest.mark.parametrize(
        "example_id, seed_r",
        [(1, None), (2, None), (3, None), (4, None), (1, 0.3)],
        ids=["1", "2", "3", "4", "1-r0.3"],
    )
    @pytest.mark.parametrize("grid", ["2x2x2", "5x3x4", "3x12x2"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_export_bytes_match_the_float_table_path(
        self, tmp_path, capsys, example_id, seed_r, grid, fmt
    ):
        """The file and the standard output of ``sample`` are byte for byte
        the float-table path's text (``json.dumps`` or a ``repr`` join)."""
        want = _ref_sample_text(example_id, *(int(x) for x in grid.split("x")), fmt, seed_r)
        argv = ["sample", str(example_id), "--grid", grid, "--format", fmt]
        if seed_r is not None:
            argv += ["--seed-r", repr(seed_r)]
        out = tmp_path / f"cloud.{fmt}"
        assert run_cli(*argv, "--out", str(out)) == 0
        assert out.read_bytes() == want.encode()
        assert run_cli(*argv) == 0
        assert capsys.readouterr().out == want + "\n"

    @pytest.mark.parametrize("example_id", EXAMPLE_IDS)
    def test_csv_and_json_exports_hold_the_same_floats(self, tmp_path, example_id):
        """Both formats of one grid parse back to bit-equal float arrays."""
        paths = {fmt: tmp_path / f"cloud.{fmt}" for fmt in ("csv", "json")}
        for fmt, path in paths.items():
            argv = ["sample", str(example_id), "--grid", "3x4x2", "--format", fmt, "--out", str(path)]
            assert run_cli(*argv) == 0
        header, *lines = paths["csv"].read_text().splitlines()
        from_csv = np.array([[float(x) for x in line.split(",")] for line in lines])
        doc = json.loads(paths["json"].read_text())
        assert doc["header"] == header.split(",")
        from_json = np.array(doc["rows"], dtype=float)
        assert from_csv.shape == (3 * 4 * 2, len(doc["header"]))
        assert np.array_equal(from_csv.view(np.uint64), from_json.view(np.uint64))

    @pytest.mark.parametrize(
        "umask, existing, want",
        [(0o022, None, 0o644), (0o077, None, 0o600), (0o077, 0o644, 0o644)],
        ids=["new-022", "new-077", "existing-0644"],
    )
    def test_out_file_gets_the_mode_of_a_plain_open(self, tmp_path, umask, existing, want):
        """An ``--out`` file has the mode ``open(path, "w")`` would give it:
        a new one 0o666 less the umask, an existing one its own mode."""
        out = tmp_path / "cloud.csv"
        if existing is not None:
            out.write_text("old")
            out.chmod(existing)
        old = os.umask(umask)
        try:
            assert run_cli("sample", "2", "--grid", "2x2x2", "--out", str(out)) == 0
        finally:
            os.umask(old)
        assert stat.S_IMODE(out.stat().st_mode) == want

    def test_io_failure(self, tmp_path, capsys):
        missing = tmp_path / "no" / "such" / "dir" / "x.csv"
        assert run_cli("sample", "1", "--grid", "2x2x2", "--out", str(missing)) == 4

    @pytest.mark.parametrize(
        "error, code", [(NotProjectablePoint, 1), (ChartError, 3)], ids=["not_projectable", "chart"]
    )
    def test_a_failure_on_the_last_slice_writes_nothing(
        self, tmp_path, monkeypatch, capsys, error, code
    ):
        """Every slice is projected before the first byte: a failure on the
        last one exits with its code, standard output stays empty and no
        file is left."""
        canonical_rows = cli.canonical_rows
        calls = []

        def failing_last(sig, rows):
            calls.append(1)
            if len(calls) % 4 == 0:
                raise error("the last slice fails")
            return canonical_rows(sig, rows)

        monkeypatch.setattr(cli, "canonical_rows", failing_last)
        argv = ["sample", "1", "--grid", "2x4x2", "--format", "csv"]
        assert run_cli(*argv, "--out", str(tmp_path / "cloud.csv")) == code
        assert run_cli(*argv) == code
        assert len(calls) == 8
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: the last slice fails\n" * 2
        assert list(tmp_path.iterdir()) == []

    def test_a_failure_while_writing_leaves_no_file(self, tmp_path, monkeypatch):
        """An exception raised between two slices propagates, the target is
        not created and the temp file is removed."""
        slice_lines = cli._slice_lines
        calls = []

        def failing_second(*args):
            calls.append(1)
            if len(calls) == 2:
                raise RuntimeError("interrupted")
            return slice_lines(*args)

        monkeypatch.setattr(cli, "_slice_lines", failing_second)
        out = tmp_path / "cloud.json"
        with pytest.raises(RuntimeError, match="interrupted"):
            run_cli("sample", "2", "--grid", "2x3x2", "--out", str(out))
        assert len(calls) == 2
        assert not out.exists()
        assert list(tmp_path.glob(".pseudocp_*")) == []

    def test_peak_memory_does_not_grow_with_the_ruling_slices(self, tmp_path):
        """The export holds the text of one ruling slice at a time: the
        40x12x12 JSON export (2.2 MB) peaks less than 1 MB above the same
        grid with 2 ruling slices instead of 12."""
        out = str(tmp_path / "cloud.json")

        def traced_peak(grid):
            tracemalloc.start()
            try:
                assert run_cli("sample", "2", "--grid", grid, "--format", "json", "--out", out) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert run_cli("sample", "2", "--grid", "40x2x12", "--format", "json", "--out", out) == 0
        few, many = traced_peak("40x2x12"), traced_peak("40x12x12")
        assert many - few < 1_000_000, (few, many)


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
        """A config value out of range or of the wrong type, or a document
        that is not a JSON object, is a usage error: exit 2, nothing run.
        The grid cases pass no --grid, which would override them."""
        cfg = tmp_path / "cfg.json"
        monkeypatch.setenv("PSEUDOCP_CONFIG", str(cfg))
        verify = ("verify", "1", "--grid", "2x2x2")
        cases = [
            ({"grid_s": 1}, ("sample", "1"), "grid_s must be at least 2"),
            ({"verify_tol": "x"}, verify, "verify_tol must be of type float"),
            ({"out_path": 5}, verify, "out_path must be of type str | None"),
            ([1, 2], verify, "must hold a JSON object"),
            ({"grid_s": "5"}, ("sample", "1"), "grid_s must be of type int"),
            ({"grid_s": 2.5}, ("sample", "1"), "grid_s must be of type int"),
            ({"grid_t": 1e9}, ("sample", "1"), "grid_t must be of type int"),
            ({"grid_t": 1}, ("sample", "1"), "grid_t must be at least 2"),
        ]
        for doc, argv, reason in cases:
            cfg.write_text(json.dumps(doc))
            assert run_cli(*argv) == 2, doc
            captured = capsys.readouterr()
            assert reason in captured.err
            assert captured.out == ""

    @pytest.mark.parametrize("command", ["verify", "sample", "classify"])
    @pytest.mark.parametrize("family", ["2", "3", "4"])
    def test_seed_parameter_of_another_family_is_a_usage_error(self, tmp_path, capsys, command, family):
        """--seed-r, or a ``builtin_flow`` curve file's ``seed_r``, sets
        family 1's seed; with another family it is a usage error, not
        silently ignored."""
        if command == "classify":
            n, p = (4, 1) if family == "2" else (3, 2)
            data = {"family": "builtin_flow", "example": int(family), "seed_r": 0.3}
            doc = {"signature": {"n": n, "p": p}, "kind": "closed_form", "data": data}
            assert run_cli("classify", write_json(tmp_path / "flow.json", doc)) == 2
        else:
            assert run_cli(command, family, "--seed-r", "0.3", "--grid", "2x2x2") == 2
        captured = capsys.readouterr()
        assert "--seed-r applies to family 1 only" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("extra", [{}, {"seed_r": 0.3}], ids=["default_seed", "seed_r"])
    def test_unknown_example_is_a_usage_error_in_every_command(self, tmp_path, capsys, extra):
        """An example id outside ``EXAMPLE_IDS`` exits 2 whether it comes
        from a ``builtin_flow`` curve file or from ``verify``/``sample``."""
        data = {"family": "builtin_flow", "example": 7, **extra}
        doc = {"signature": {"n": 3, "p": 1}, "kind": "closed_form", "data": data}
        assert run_cli("classify", write_json(tmp_path / "flow.json", doc)) == 2
        captured = capsys.readouterr()
        assert "cannot parse curve file: unknown example id 7" in captured.err
        assert captured.out == ""
        assert run_cli("verify", "7") == 2
        assert run_cli("sample", "7") == 2

    def test_seed_parameter_reaches_family_one_of_verify_all(self, tmp_path):
        """``verify all --seed-r`` seeds family 1 and leaves the others."""
        out = tmp_path / "report.json"
        assert run_cli("verify", "all", "--seed-r", "0.7853981634", "--grid", "2x2x2", "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        assert doc["classifications"] == {"1": "case_c", "2": "case_b", "3": "case_b", "4": "case_b"}

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
        """``verify`` does not read the T entry of ``--grid``: one ruling
        slice is accepted and reports the same lines as two."""
        identities = {}
        for grid in ("2x2x2", "2x1x2"):
            out = tmp_path / f"report_{grid}.json"
            code = run_cli("verify", "3", "--grid", grid, "--out", str(out))
            assert code == 0
            doc = json.loads(out.read_text())
            assert doc["schema"] == 1
            assert doc["pass"] is True
            assert doc["classifications"]["3"] == "case_b"
            assert len(doc["identities"]) >= 18
            assert all(item["pass"] for item in doc["identities"])
            identities[grid] = doc["identities"]
        assert identities["2x1x2"] == identities["2x2x2"]

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

    @pytest.mark.parametrize("command", ["verify", "sample"])
    def test_lightlike_seed_is_a_precondition(self, capsys, command):
        """seed_r = 1e-12, whose base curve the 1e-3 curve grid sees as
        lightlike, is refused before any curve is sampled: its open slot is
        below the floor. Both commands exit 3 with that reason and print no
        report."""
        assert run_cli(command, "1", "--seed-r", "1e-12", "--grid", "2x2x2") == 3
        captured = capsys.readouterr()
        assert captured.err == (
            "error: seed violates the family's open-slot condition: "
            "|z_omega| = 1.414e-12 is below 0.0904\n"
        )
        assert captured.out == ""

    @pytest.mark.parametrize("signature", ["3,1", "4,2", "5,1"])
    @pytest.mark.parametrize(
        "seed_r, code",
        [
            ("1e-9", 3),
            ("1e-6", 3),
            ("1e-3", 3),
            ("0.02", 3),
            ("0.05", 3),
            ("3.14159", 3),
            ("-3.14159", 3),
            ("0.08", 0),
            ("0.1", 0),
        ],
    )
    def test_small_open_slot_seeds_are_refused(self, tmp_path, capsys, signature, seed_r, code):
        """Family-1 seeds with |z_omega| = sqrt2 |sin r| below the open-slot
        floor, which a 1e-3 curve grid cannot resolve, exit 3 in ``verify``
        and ``sample`` and write nothing; r = 0.08 and 0.1 pass."""
        out = tmp_path / "cloud.csv"
        sample = ["sample", "1", "--seed-r", seed_r, "--grid", "2x2x2", "--out", str(out)]
        if signature == "3,1":  # the signature sample uses
            assert run_cli(*sample) == code
            assert out.exists() == (code == 0)
        report = tmp_path / "report.json"
        argv = ["verify", "1", "--signature", signature, "--seed-r", seed_r, "--grid", "2x2x2"]
        assert run_cli(*argv, "--out", str(report)) == code
        assert report.exists() == (code == 0)
        if code == 3:
            assert "open-slot condition" in capsys.readouterr().err

    def test_frame_suite_failure_is_reported(self, monkeypatch, capsys):
        """Frame completions off the form fail the suite's own lines in a
        full report (exit 1); no earlier check pre-empts them. Only stacks
        are scaled, so the one-row frames of the transport stay clean."""

        def scaled(sig, fixed):
            mats = complete_unitary_frames(sig, fixed)
            return mats * (1 + 1e-9) if len(mats) > 1 else mats

        monkeypatch.setattr("pseudocp.isometries.complete_unitary_frames", scaled)
        assert run_cli("verify", "2", "--grid", "2x2x2") == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["pass"] is False
        failing = {item["name"]: item["residual"] for item in doc["identities"] if not item["pass"]}
        assert set(failing) == {"unitary_frame_form", "unitary_frame_det"}
        assert failing["unitary_frame_form"] == pytest.approx(2e-9, rel=0.01)
        assert failing["unitary_frame_det"] == pytest.approx(4e-9, rel=0.01)

    @staticmethod
    def _failing_lines(capsys, verify_all):
        """The (group, name) of each failing line of a ``verify all`` report
        that kept every line of the passing run."""
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["identities"]) == len(verify_all[1]["identities"])
        return {(item["group"], item["name"]) for item in doc["identities"] if not item["pass"]}

    def test_a_mixed_term_slip_fails_its_lines(self, monkeypatch, capsys, verify_all):
        """Off-diagonal second-form entries scaled by 1.002 (the mixed-term
        factor 0.501 for 0.5) fail the Codazzi and shape-of-xi lines of every
        family and the structure derivative lines, and no other line."""
        second_forms = ruled.second_forms

        def slipped(frames):
            forms = second_forms(frames)
            return np.where(np.eye(forms.shape[-1], dtype=bool), forms, 1.002 * forms)

        monkeypatch.setattr(ruled, "second_forms", slipped)
        assert run_cli("verify", "all") == 1
        want = {(f"example{ex}", "codazzi_residual") for ex in EXAMPLE_IDS}
        want |= {(f"example{ex}", "shape_xi_matches_closed_form") for ex in EXAMPLE_IDS}
        want |= {("almost_contact", f"example{ex}_structure_derivative") for ex in EXAMPLE_IDS}
        assert self._failing_lines(capsys, verify_all) == want

    def test_a_curvature_slip_fails_its_lines(self, monkeypatch, capsys, verify_all):
        """The last term of the curvature tensor at 1.0 instead of 2.0 fails
        the four holomorphic curvature lines, and no other line."""
        curvature = verification.curvature_tensor

        def slipped(sig, u, v, w):
            return curvature(sig, u, v, w) - gdot_rows(sig.signs, u, jmul(v))[:, None] * jmul(w)

        monkeypatch.setattr(verification, "curvature_tensor", slipped)
        assert run_cli("verify", "all") == 1
        want = {("curvature", f"holomorphic_curvature_n{sig.n}_p{sig.p}") for sig in ACCEPTANCE_SIGNATURES}
        assert self._failing_lines(capsys, verify_all) == want

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
        """The full run reports well over forty identity lines and passes;
        each family group holds exactly the lines of the generic cross check
        and of its closed forms, so a line lost between the two halves
        fails here."""
        code, doc = verify_all
        assert code == 0
        assert doc["pass"] is True
        assert len(doc["identities"]) >= 40
        assert set(doc["classifications"]) == {"1", "2", "3", "4"}
        for ex in EXAMPLE_IDS:
            names = [item["name"] for item in doc["identities"] if item["group"] == f"example{ex}"]
            assert len(names) == len(CROSS_CHECK_NAMES)
            assert set(names) == CROSS_CHECK_NAMES

    def test_verify_all_worst_margin(self, verify_all):
        """Accuracy guard: every one of the 106 lines passes with its
        residual at most 1/200 of its tolerance (the worst, ``minimality_mu``
        of example 3, reads about 0.0021), so a faster kernel cannot trade
        accuracy unseen."""
        code, doc = verify_all
        assert code == 0
        assert len(doc["identities"]) == 106
        worst = max(item["residual"] / item["tolerance"] for item in doc["identities"])
        assert worst <= 0.005

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
