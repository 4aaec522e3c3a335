#!/usr/bin/env python3
"""Run the full identity suite over all built-in families and print a table:
each line's residual, tolerance and margin (residual/tolerance), then the
worst margin with its group and name.

Writes the machine-readable report next to this script unless --out is given.
"""

import argparse
import json
import sys
from pathlib import Path

from pseudocp.cli import main as cli_main


def run(out_path: str) -> int:
    code = cli_main(["verify", "all", "--out", out_path])
    doc = json.loads(Path(out_path).read_text())
    width = max(len(item["name"]) for item in doc["identities"]) + 2
    margins = [item["residual"] / item["tolerance"] for item in doc["identities"]]
    current = None
    for item, margin in zip(doc["identities"], margins):
        if item["group"] != current:
            current = item["group"]
            print(f"\n[{current}]")
        status = "pass" if item["pass"] else "FAIL"
        print(
            f"  {item['name']:<{width}} {item['residual']:10.3e} <= "
            f"{item['tolerance']:.1e}  margin {margin:.2e}  {status}"
        )
    worst = max(range(len(margins)), key=margins.__getitem__)
    item = doc["identities"][worst]
    print("\nclassifications:", doc["classifications"])
    print(f"worst margin (residual/tolerance): {margins[worst]:.2g} ({item['group']}/{item['name']})")
    print("overall:", "PASS" if doc["pass"] else "FAIL")
    return code


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out",
        default=str(Path(__file__).resolve().parent / "verification_report.json"),
    )
    args = parser.parse_args()
    sys.exit(run(args.out))
