"""Per-layer tracing from outside the program.

:class:`Tracer` replaces the public functions listed in :data:`LAYERS` with
wrappers wherever a ``pseudocp`` module binds them, so calls through
``from .x import f`` names are seen too. Each wrapped call records one span
(function, start, end, parent span, command id) in flat arrays kept in
memory; :meth:`Tracer.write` saves them when the run ends. Calls and self
time (a span's duration minus the time covered by its wrapped children)
are accumulated as the spans close.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from pathlib import Path

import numpy as np

#: layer (package module) -> public functions wrapped in traced runs
LAYERS = {
    "cli": ("main",),
    "verification": (
        "curvature_lines",
        "unitary_frame_lines",
        "case_c_closed_form_lines",
        "almost_contact_lines",
    ),
    "examples": ("example_cross_check", "example_integral_curve", "example_map", "ruling_isometry"),
    "ruled": (
        "transport_basis",
        "rhs_lift",
        "hypersurface_frame",
        "weingarten_apply",
        "shape_operator_at",
        "codazzi_residual",
        "structure_field_identity",
        "regenerate_integral_curve",
        "classify_minimal_ruled",
        "classify_generating_curve",
    ),
    "curves": ("sampled_curve_from_fn", "frenet_apparatus", "horizontal_lift", "case_c_verify"),
    "projective": ("canonicalize", "sphere_geodesic", "curvature_tensor"),
    "isometries": ("frame_to_isometry",),
    "frames": ("orthonormalize_real_metric",),
    "linalg": ("real_metric", "causal_character"),
}

SPAN_NAMES = [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]
PACKAGE = "pseudocp"


class Tracer:
    """Wraps the layer functions of the imported ``pseudocp`` package."""

    def __init__(self):
        self.calls = [0] * len(SPAN_NAMES)
        self.self_s = [0.0] * len(SPAN_NAMES)
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.command = array("i")
        self.command_id = -1  # index of the traced command in progress
        self._stack = []  # [span index, time covered by wrapped children]
        self._patched = []  # (module, attribute, original)

    def _wrap(self, fn, nid: int):
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1][0] if stack else -1)
            self.command.append(self.command_id)
            self.end.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = clock()
            self.start.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                self.end[idx] = t1
                self.calls[nid] += 1
                self.self_s[nid] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur

        return traced

    def install(self) -> None:
        """Start the next traced command: wrap every binding of the layer functions."""
        self.command_id += 1
        wrappers = {}
        for nid, name in enumerate(SPAN_NAMES):
            mod, fn = name.split(".")
            original = getattr(importlib.import_module(f"{PACKAGE}.{mod}"), fn)
            wrappers[id(original)] = (original, self._wrap(original, nid))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def metrics(self) -> dict:
        """Per-function calls and self time, per-module self time."""
        commands = self.command_id + 1
        out = {}
        by_module = {}
        for nid, name in enumerate(SPAN_NAMES):
            out[f"{name}.calls"] = (self.calls[nid], "count")
            out[f"{name}.self_s"] = (self.self_s[nid], "s")
            mod = name.split(".")[0]
            by_module[mod] = by_module.get(mod, 0.0) + self.self_s[nid]
        for mod, value in by_module.items():
            out[f"{mod}.self_s"] = (value, "s")
        tid = SPAN_NAMES.index("ruled.transport_basis")
        out["ruled.transport_basis.calls_per_cmd"] = (self.calls[tid] / max(commands, 1), "calls/cmd")
        return out

    def write(self, path: Path) -> None:
        """Save every span as arrays, with the function names."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(SPAN_NAMES),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            command=np.frombuffer(self.command, dtype=np.int32),
        )
