"""Benchmark runner for the collatz_stopping package.

    python3 perfbench/run.py --workload structure --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seconds 25

One run measures one workload (see workloads.py) in this process, after
timing the package's start-up in fresh interpreters.  With --trace 0 it
reports the end-to-end metrics; with --trace 1 it makes one traced pass over
every workload's operation and reports the per-layer metrics of
BENCHMARK.json.  Human-readable lines go first; the last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  The full
record (environment, every repetition, spans) goes to perfbench/out/.

Standard library only.  The package is imported from src/ of the checkout
this file sits in, never from an installed copy; without it the run fails
with exit code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, error_rate
from yardstick import CAL_REF_S, Yardstick, at_reference_speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"
TARGETS = HERE / "targets.json"

SETUP_SPAWNS = 15
MIN_REPS = 3

class MissingPackage(RuntimeError):
    pass


def import_package():
    init = SRC / "collatz_stopping" / "__init__.py"
    if not init.is_file():
        raise MissingPackage(f"no package source at {init}")
    sys.path.insert(0, str(SRC))
    import collatz_stopping

    if Path(collatz_stopping.__file__).resolve() != init.resolve():
        raise MissingPackage(f"imported {collatz_stopping.__file__}, not {init}")
    return collatz_stopping


def environment(seed: int) -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        commit = proc.stdout.strip() or commit
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "commit": commit,
        "seed": seed,
    }


def measure_setup(spawns: int) -> dict:
    """Import and CLI-parser set-up time, each measured inside a fresh
    interpreter (setup_probe.py).  One unrecorded spawn first writes the
    bytecode cache."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC)]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}

    def spawn() -> tuple[float, float, float]:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60, env=env)
        if proc.returncode != 0:
            raise MissingPackage(f"set-up interpreter failed (exit {proc.returncode}): {proc.stderr[-500:]}")
        seconds, cal_before, cal_after = map(float, proc.stdout.split())
        return seconds, cal_before, cal_after

    spawn()
    probes = [spawn() for _ in range(spawns)]
    return {
        "times": [p[0] for p in probes],
        "reference_times": [at_reference_speed(*p) for p in probes],
        "calibration_s": [p[1:] for p in probes],
    }


def spread(values: list[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measured_run(wl, seconds: float) -> tuple[Yardstick, int, list[str]]:
    """Repeat the workload's operation until `seconds` have passed (at least
    MIN_REPS times), checking every output.  Returns (timings, operations
    failed, failure messages)."""
    ys, failures, failed = Yardstick(), [], 0
    start = time.perf_counter()
    rep = 0
    while rep < MIN_REPS or time.perf_counter() - start < seconds:
        out = ys.measure(lambda: wl.run(rep))
        bad = wl.check(out)
        del out
        failed += bool(bad)
        failures.extend(f"rep {rep}: {msg}" for msg in bad)
        rep += 1
    return ys, failed, failures


def text_line(workload: str, name: str, value, unit: str, note: str = "") -> str:
    shown = f"{value:.6g}" if isinstance(value, float) else str(value)
    return f"{workload:<14} {name:<30} {shown:>14} {unit:<6} {note}".rstrip()


def run_untraced(wl, setup: dict, seconds: float, record: dict) -> dict:
    run, failed, failures = measured_run(wl, seconds)
    items = wl.items()
    op_ref = statistics.median(run.reference_times())
    setup_ref = statistics.median(setup["reference_times"])
    metrics = {
        "items_per_s": (items / op_ref, "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "setup_s": (setup_ref, "s"),
    }
    speed = CAL_REF_S / statistics.median(run.cals)
    record.update(
        items_per_op=items,
        rep_times_s=run.times,
        rep_reference_times_s=run.reference_times(),
        rep_calibration_s=run.cals,
        setup_times_s=setup["times"],
        setup_reference_times_s=setup["reference_times"],
        setup_calibration_s=setup["calibration_s"],
        failures=failures,
    )
    n = len(run.times)
    raw = statistics.median(run.times)
    lines = [
        text_line(wl.name, wl.throughput, items / op_ref, "1/s",
                  f"items_per_s: {items} {wl.item}/op, median of {n} ops at reference speed "
                  f"(spread {spread(run.reference_times()):.1%})"),
        text_line(wl.name, f"{wl.throughput} (raw)", items / raw, "1/s",
                  f"wall median {raw:.4f} s (spread {spread(run.times):.1%}), best {min(run.times):.4f} s; "
                  f"machine ran at {speed:.2f} x reference speed"),
        text_line(wl.name, "setup_s", setup_ref, "s",
                  f"median of {len(setup['times'])} fresh interpreters at reference speed; "
                  f"raw median {statistics.median(setup['times']):.4f} s"),
        text_line(wl.name, "peak_rss_mb", metrics["peak_rss_mb"][0], "MB", "ru_maxrss of this process"),
        text_line(wl.name, "error_rate", error_rate(failed, n), "ratio", f"{failed} failed / {n} checked ops"),
    ]
    return {"metrics": metrics, "attempted": n, "failed": failed, "lines": lines}


def run_traced(cs, name: str, size: str, seed: int, reference: dict, record: dict) -> dict:
    from layers import trace_run

    values, attempted, failed, failures, spans = trace_run(cs, name, size, seed, reference)
    targets = json.loads(TARGETS.read_text())["per_layer"]
    metrics = {k: (v, targets[k]["unit"]) for k, v in values.items()}
    lines = [
        text_line(name, k, v, unit, f"-> {targets[k]['target']} on {targets[k]['workload']}")
        for k, (v, unit) in metrics.items()
    ]
    mismatches = sum(s.get("mismatches", 0) for s in spans if s["run"] == "verify-window")
    lines.append(text_line(name, "verify.mismatches", mismatches, "count",
                           "-> error_rate, summed over passes (not a metric: 0 when correct)"))
    record.update(spans=spans, failures=failures)
    return {"metrics": metrics, "attempted": attempted, "failed": failed, "lines": lines}


def run_all(args) -> int:
    """Each workload in its own fresh process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        out = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not out:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(out[:-1]), flush=True)
        result = json.loads(out[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input sizes; tiny is for the smoke tests")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    try:
        env = environment(args.seed)
        spawns = SETUP_SPAWNS if args.size == "full" else 2
        setup = None if args.trace else measure_setup(spawns)
        cs = import_package()
    except MissingPackage as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    reference = json.loads(REFERENCE.read_text())
    record = {"workload": args.workload, "size": args.size, "seconds": args.seconds,
              "trace": args.trace, "env": env}
    print(f"# perfbench workload={args.workload} size={args.size} seed={args.seed} "
          f"python={env['python']} nproc={env['nproc']} commit={env['commit']}", flush=True)

    if args.trace:
        result = run_traced(cs, args.workload, args.size, args.seed, reference, record)
    else:
        wl = WORKLOADS[args.workload](cs, args.size, args.seed, reference)
        result = run_untraced(wl, setup, args.seconds, record)
    for line in result["lines"]:
        print(line)
    for msg in record["failures"][:20]:
        print(f"# FAILED {msg}")

    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
