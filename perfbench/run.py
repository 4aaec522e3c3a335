"""Benchmark of the pseudocp command line, run from the root of a checkout.

    python3 perfbench/run.py --workload verify|sample|classify \\
        --seed N --seconds S --trace 0|1

One client in this process calls ``pseudocp.cli.main(argv)`` one command
after another (a closed loop), on commands generated from ``--seed`` by
``workloads.py``. A run is a fixed number of whole cycles of the workload's
mix, sized from ``--seconds`` (``CYCLES_PER_S``), so the commands of a run,
and with them ``attempted`` and ``failed``, depend on the seed alone. Every command's output is kept and checked by ``checks.py``
after the last timed command, once the peak memory has been read, so the
checkers add to neither the times nor the peak. The end-to-end times are
rescaled to a nominal machine speed by the yardstick of ``yardstick.py``,
sampled while they are measured; the measured times are printed beside
them.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` every command runs under the
wrappers of ``tracing.py`` (the first ones also untraced, as the reference
of ``trace_overhead``), and the object holds the per-layer metrics. A fuller
result, with provenance and every command, is written to ``.bench_out/``
in the checkout.

The program is imported from ``src/`` of the checkout; without it the run
exits with code 2 and prints no result.
"""

from __future__ import annotations

import os

# The program's matrices are at most 10x10: one BLAS thread avoids thread
# start-up and contention on small machines. Set before numpy is imported.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from checks import CHECKERS
from tracing import Tracer
from workloads import cycles
from yardstick import NOMINAL_IMPORT_S, REFERENCE_IMPORT, Yardstick

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: fresh interpreters started to measure set-up time, this many before the
#: commands and as many after them, so the samples are spread over the run
#: (each with a reference interpreter, so about 2 s apiece)
SETUP_REPEATS = 2
#: whole cycles run per second of --seconds. Sized so that a run's commands
#: take about --seconds on a 2-core x86_64 VM: a verify cycle (five commands)
#: takes about 55 s, so a verify run is always one cycle; a sample cycle about
#: 6 s; a classify cycle (fifteen commands) about 0.5 s.
CYCLES_PER_S = {"verify": 1 / 55, "sample": 1 / 6, "classify": 2.0}
#: first commands of a traced run that also run untraced, as the reference of
#: trace_overhead (about 2 s of commands on sample and classify)
OVERHEAD_REFERENCE_CMDS = {"verify": 1, "sample": 3, "classify": 90}
#: end-to-end metrics of the result line, as BENCHMARK.json lists them
GATED = ("setup_s", "cmd_s_p50", "work_per_s", "peak_rss_mb")
#: workload -> name of its work_per_s in the printed table
WORK_NAMES = {"verify": "identities_per_s", "sample": "points_per_s", "classify": "curves_per_s"}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=tuple(WORK_NAMES))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def import_program():
    """Import ``pseudocp.cli`` from this checkout's ``src/``, or exit 2."""
    if not (SRC / "pseudocp" / "cli.py").is_file():
        print(f"error: no program source at {SRC / 'pseudocp'}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import pseudocp.cli

    where = Path(pseudocp.cli.__file__).resolve()
    if SRC.resolve() not in where.parents:
        print(f"error: pseudocp imported from {where}, not from {SRC}", file=sys.stderr)
        sys.exit(2)
    return pseudocp.cli


def measure_setup(repeats: int) -> list:
    """(measured, nominal) seconds from a fresh interpreter until
    ``pseudocp.cli`` is imported, once per repeat. Reference interpreters
    run REFERENCE_IMPORT before the first and after each one; each is
    rescaled by the mean of the two references around it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))

    def interpreter(code: str) -> float:
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
        )
        seconds = time.perf_counter() - t0
        if proc.returncode != 0:
            print(f"error: {code!r} failed:\n{proc.stderr}", file=sys.stderr)
            sys.exit(2)
        return seconds

    before = interpreter(REFERENCE_IMPORT)
    times = []
    for _ in range(repeats):
        setup = interpreter("import pseudocp.cli")
        after = interpreter(REFERENCE_IMPORT)
        times.append((setup, setup * NOMINAL_IMPORT_S / ((before + after) / 2)))
        before = after
    return times


def provenance(args) -> dict:
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "pseudocp").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    head = ROOT / ".git" / "HEAD"
    git_rev = "unavailable: not a git checkout"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            git_rev = ref_file.read_text().strip() if ref_file.is_file() else ref
        else:
            git_rev = ref
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "platform": platform.platform(),
        "git_rev": git_rev,
        "src_sha256": digest.hexdigest(),
    }


def run_command(cli, argv, yardstick=None):
    """Run one CLI command in this process; return (exit, stdout, stderr,
    seconds, (start, end)). The seconds leave out the yardstick's samples
    taken during the command."""
    out, err = io.StringIO(), io.StringIO()
    busy = yardstick.busy if yardstick else 0.0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(list(argv))
        except Exception:  # a crash is a failed command, not a failed run
            code = -1
            err.write(traceback.format_exc())
        t1 = time.perf_counter()
    if yardstick:
        busy = yardstick.busy - busy
    return code, out.getvalue(), err.getvalue(), t1 - t0 - busy, (t0, t1)


def run_traced(cli, argv, tracer):
    """:func:`run_command` with the tracer's wrappers installed."""
    tracer.install()
    try:
        return run_command(cli, argv)
    finally:
        tracer.uninstall()


def cycle_count(workload: str, seconds: int) -> int:
    """Whole cycles in a run of ``seconds``: at least one."""
    return max(1, round(seconds * CYCLES_PER_S[workload]))


def drive(args, cli, workdir: Path, tracer=None, yardstick=None):
    """Closed loop over :func:`cycle_count` whole cycles.

    Traced runs trace every command. The first OVERHEAD_REFERENCE_CMDS
    commands also run untraced just before, as the reference of
    ``trace_overhead``. Returns the records (command, exit, stdout, stderr,
    seconds, interval) and the (untraced, traced) seconds of those paired
    commands.
    """
    rng = np.random.default_rng(args.seed)
    records, paired, done = [], [0.0, 0.0], 0
    stream = cycles(args.workload, rng, workdir)
    for _ in range(cycle_count(args.workload, args.seconds)):
        for cmd in next(stream):
            if tracer is None:
                records.append((cmd, *run_command(cli, cmd.argv, yardstick)))
                continue
            pair = done < OVERHEAD_REFERENCE_CMDS[args.workload]
            done += 1
            if pair:
                records.append((cmd, *run_command(cli, cmd.argv)))
                paired[0] += records[-1][4]
            records.append((cmd, *run_traced(cli, cmd.argv, tracer)))
            if pair:
                paired[1] += records[-1][4]
    return records, paired


def check_all(workload, cli, records) -> list:
    """Check every record; return (command, exit, seconds, interval, outcome) tuples."""
    check = CHECKERS[workload]

    def rerun(argv):
        return run_command(cli, argv)[:3]

    return [
        (cmd, code, dt, span, check(cmd, code, out, err, rerun))
        for cmd, code, out, err, dt, span in records
    ]


def end_to_end(records, setup, peak_rss_mb, scale=lambda t0, t1: 1.0) -> dict:
    """Every end-to-end metric, from the set-up seconds ``setup`` and the
    commands' times, each multiplied by ``scale`` of its interval.
    ``cmd_s_p95`` only with at least 200 commands, so that ten of them lie
    beyond it."""
    times = [dt * scale(*span) for _, _, dt, span, _ in records]
    work = sum(o.work for *_, o in records)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "cmd_s_p50": (statistics.median(times), "s"),
        "work_per_s": (work / sum(times), "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    if len(times) >= 200:
        metrics["cmd_s_p95"] = (statistics.quantiles(times, n=20)[18], "s")
    return metrics


def table(args, records, metrics, measured) -> list:
    """Human-readable lines: every end-to-end metric under the workload's
    names, at nominal speed and as measured."""
    failed = sum(not o.ok for *_, o in records)
    lines = [f"{'':<24} {'nominal speed':>14}      {'measured':>14}"]
    for name, (value, unit) in metrics.items():
        shown = WORK_NAMES[args.workload] if name == "work_per_s" else name
        extra = f"  (n={len(records)} commands)" if name.startswith("cmd_s_") else ""
        lines.append(f"{shown:<24} {value:>14.6g} {unit:<4} {measured[name][0]:>14.6g} {unit}{extra}")
    lines.append(f"{'fail_frac':<24} {failed / len(records):>14.6g} 1  ({failed}/{len(records)})")
    if args.workload == "verify":
        worst = max(o.margin for *_, o in records)
        lines.append(f"{'worst_margin':<24} {worst:>14.6g} residual/tolerance")
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    cli = import_program()
    prov = provenance(args)
    out_dir = ROOT / ".bench_out"
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    extra = {}
    try:
        if args.trace:
            tracer = Tracer()
            raw, (untraced_s, traced_s) = drive(args, cli, workdir, tracer)
            records = check_all(args.workload, cli, raw)
            metrics = tracer.metrics()
            metrics["trace_overhead"] = (traced_s / untraced_s - 1.0, "ratio")
            lines = [f"{name:<52} {value:>14.6g} {unit}" for name, (value, unit) in metrics.items()]
            tracer.write(out_dir / f"spans_{args.workload}.npz")
            reported = metrics
        else:
            setup = measure_setup(SETUP_REPEATS)
            yardstick = Yardstick()
            yardstick.start()
            try:
                raw, _ = drive(args, cli, workdir, yardstick=yardstick)
            finally:
                yardstick.stop()
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            setup += measure_setup(SETUP_REPEATS)
            records = check_all(args.workload, cli, raw)
            metrics = end_to_end(records, [n for _, n in setup], peak_rss_mb, yardstick.scale)
            measured = end_to_end(records, [m for m, _ in setup], peak_rss_mb)
            lines = table(args, records, metrics, measured)
            reported = {name: metrics[name] for name in GATED}
            extra["measured"] = {name: value for name, (value, _) in measured.items()}
            extra["yardstick_kernel_s"] = [dt for _, dt in yardstick.samples]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [
        {"argv": c.argv, "exit": code, "known_defect": o.known_defect, "reason": o.reason}
        for c, code, *_, o in records
        if not o.ok
    ]
    unexpected = [f for f in failures if not f["known_defect"]]
    result = {
        "correct": not unexpected,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in reported.items()},
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    full = dict(result, provenance=prov, failures=failures, **extra, commands=[
        dict(c.to_dict(), exit=code, seconds=dt, ok=o.ok, margin=o.margin)
        for c, code, dt, _, o in records
    ])
    suffix = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    (out_dir / f"result_{suffix}.json").write_text(json.dumps(full, indent=1))

    print("provenance " + json.dumps(prov, sort_keys=True))
    for line in lines:
        print(line)
    for f in failures:
        tag = "known defect" if f["known_defect"] else "UNEXPECTED"
        print(f"failed ({tag}): {' '.join(f['argv'])}: {f['reason']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
