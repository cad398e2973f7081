#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload web|hostile|archive-serve \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. It builds perfbench (Release, into
.bench_build/perfbench), generates the workload's inputs from the seed,
makes the reference outputs in a process of their own, then measures
in a fresh process that only sees the generated files. The set-up
runs several times, in batches before and after those phases; the
median of all its times is setup_s. Times are CPU seconds scaled by
calibration passes to a reference box (perfbench/README.md).
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer
metrics of the traced run. Every metric is printed by name and unit;
the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Any output mismatch makes the
command exit 1.

perfbench/README.md describes the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"
WORKLOADS = ("web", "hostile", "archive-serve")
# Set-ups per batch. A run makes three batches, before the reference
# phase, before measuring and after it, so setup_s samples the box's
# speed across the whole run like the other metrics do, not one
# moment of it.
SETUP_REPEATS = 4
BUILD_TIMEOUT_S = 850
SETUP_TIMEOUT_S = 15
REFERENCE_TIMEOUT_S = 30
MEASURE_TIMEOUT_S = 100


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build():
    """Configure and build perfbench; returns the binary's path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise RuntimeError(f"{ROOT} holds no source tree to build")
    BUILD.mkdir(parents=True, exist_ok=True)
    steps = [
        ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD), "-j", str(min(nproc(), 4))],
    ]
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only results.
        subprocess.run(cmd, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    cache = (BUILD / "CMakeCache.txt").read_text()
    if "CMAKE_BUILD_TYPE:STRING=Release\n" not in cache:
        raise RuntimeError("refusing to report from a non-Release build")
    return BUILD / "perfbench"


def run_json(cmd, timeout):
    """Run @cmd from the checkout root; returns (rc, stdout lines)."""
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=timeout)
    return proc.returncode, proc.stdout.splitlines()


def set_up(binary, args, work, describe=False):
    """Generate the inputs SETUP_REPEATS times in one process and write
    them into @work. Returns the set-up's JSON."""
    cmd = [str(binary), "setup", "--workload", args.workload,
           "--seed", str(args.seed), "--dir", str(work),
           "--repeats", str(SETUP_REPEATS)]
    if describe:
        cmd.append("--describe")  # untimed extra: H and T
    rc, lines = run_json(cmd, SETUP_TIMEOUT_S)
    if rc != 0 or not lines:
        raise RuntimeError(f"setup exited with {rc}")
    return json.loads(lines[-1])


def setup_summary(batches):
    """(set-up seconds, mismatches) over every batch: the median CPU
    seconds of a set-up, scaled by the run's calibration passes to the
    reference box (perfbench/README.md). The same seed must give the
    same bytes every time."""
    wall = [x for b in batches for x in b["samples"]]
    cpu = [x for b in batches for x in b["cpu_samples"]]
    passes = [x for b in batches for x in b["calibration_samples"]]
    factor = batches[0]["calibration_reference"] / statistics.median(passes)
    print("# setup wall s       " + " ".join(f"{x:.4f}" for x in wall))
    print("# setup cpu s        " + " ".join(f"{x:.4f}" for x in cpu))
    print("# setup calibration  " + " ".join(f"{x:.4f}" for x in passes))
    print(f"# setup speed factor {factor:.4f}")
    inputs = {(b["hash"], b["packets"], b["flows"]) for b in batches}
    mismatches = int(len(inputs) != 1 or
                     not all(b["identical"] for b in batches))
    if mismatches:
        log("MISMATCH: one seed generated different inputs")
    return statistics.median(cpu) * factor, mismatches


def reference(binary, args, work, threads_mt):
    """Make the outputs the measured phase is checked against, in a
    process of its own. Returns (attempted, failed)."""
    rc, lines = run_json(
        [str(binary), "reference", "--workload", args.workload,
         "--seed", str(args.seed), "--dir", str(work),
         "--threads-mt", str(threads_mt)],
        REFERENCE_TIMEOUT_S)
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"reference exited with {rc} and no result")
    res = json.loads(lines[-1])
    return res["attempted"], res["failed"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    binary = build()
    threads_mt = min(nproc(), 4)
    # A relative work directory keeps the fccserve socket path short.
    work = Path(".bench_work") / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(ROOT / work, ignore_errors=True)
    (ROOT / work).mkdir(parents=True)
    try:
        batches = [set_up(binary, args, work, describe=bool(args.trace))]
        ref_attempted, ref_failed = reference(binary, args, work,
                                              threads_mt)
        batches.append(set_up(binary, args, work))
        rc, lines = run_json(
            [str(binary), "measure", "--workload", args.workload,
             "--seed", str(args.seed), "--dir", str(work),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--threads-mt", str(threads_mt)],
            MEASURE_TIMEOUT_S)
        if not lines or not lines[-1].startswith("{"):
            raise RuntimeError(f"measure exited with {rc} and no result")
        for line in lines[:-1]:
            print(line)
        result = json.loads(lines[-1])
        batches.append(set_up(binary, args, work))
        if args.trace:
            spans = ROOT / work / "spans.jsonl"
            OUT.mkdir(exist_ok=True)
            shutil.copyfile(
                spans, OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    finally:
        shutil.rmtree(ROOT / work, ignore_errors=True)

    setup_s, setup_failed = setup_summary(batches)
    describe = batches[0]
    result["attempted"] += 1 + ref_attempted
    result["failed"] += setup_failed + ref_failed
    result["correct"] = (result["correct"] and rc == 0
                         and result["failed"] == 0)
    metrics = result["metrics"]
    if args.trace:
        metrics["workload.complexity_H"] = {
            "value": describe["H"], "unit": "bit/pkt"}
        metrics["workload.complexity_T"] = {
            "value": describe["T"], "unit": "bit/pkt"}
    else:
        result["metrics"] = metrics = {
            "setup_s": {"value": setup_s, "unit": "s"}, **metrics}
    for name in ("setup_s", "workload.complexity_H",
                 "workload.complexity_T"):
        if name in metrics:
            print(f"{name:<40} {metrics[name]['value']:.6g} "
                  f"{metrics[name]['unit']}")
    print(f"{'failed_ops_ratio':<40} "
          f"{result['failed'] / result['attempted']:.6g} ratio")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as exc:
        log(f"error: {exc}")
        sys.exit(1)
