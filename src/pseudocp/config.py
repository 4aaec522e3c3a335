"""Run configuration for the command line front end.

Values come from defaults, then an optional JSON file pointed to by the
PSEUDOCP_CONFIG environment variable, then command line flags (strongest).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, fields

CONFIG_ENV = "PSEUDOCP_CONFIG"


@dataclass
class RunConfig:
    verify_tol: float = 1e-4
    grid_s: int = 5
    grid_t: int = 5
    grid_leaf: int = 4
    leaf_radius: float = 0.25
    out_path: str | None = None
    fmt: str = "json"

    def validate(self) -> None:
        for name in ("verify_tol", "leaf_radius"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
        for name in ("grid_s", "grid_t", "grid_leaf"):
            if getattr(self, name) < 2:
                raise ValueError(f"{name} must be at least 2")
        if self.fmt not in ("json", "csv"):
            raise ValueError(f"unknown format {self.fmt!r}")

    @classmethod
    def load(cls, overrides: dict | None = None) -> "RunConfig":
        values: dict = {}
        path = os.environ.get(CONFIG_ENV)
        if path:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
            known = {f.name for f in fields(cls)}
            values.update({k: v for k, v in raw.items() if k in known})
        if overrides:
            values.update({k: v for k, v in overrides.items() if v is not None})
        cfg = cls(**values)
        cfg.validate()
        return cfg

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}
