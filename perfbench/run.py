#!/usr/bin/env python3
"""Build the program from this checkout and run one benchmark workload.

    python3 perfbench/run.py --workload sweep|fleet|store --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Builds perfbench/ (which pulls in the program's own sources) into
.bench_build/, runs the self-tests, measures set-up in separate processes,
then runs the measuring process. Prints every metric with its unit, and as
the last line one JSON object: correct, attempted, failed, metrics. The
full report (fingerprint, digests, medians, tails, sample counts) goes to
.bench_out/. Exits non-zero, printing no result, if anything fails to
build or run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORK = os.path.join(ROOT, ".bench_work")
OUT = os.path.join(ROOT, ".bench_out")

# Set-up is measured in this many set-up-only processes plus the measuring
# one; the median is reported.
SETUP_PROCESSES = 8
CHILD_TIMEOUT_S = 150


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                   check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target",
                    "perfbench", "perfbench_selftest"],
                   check=True, stdout=sys.stderr)


def selftest():
    subprocess.run([os.path.join(BUILD, "perfbench_selftest")], check=True,
                   stdout=sys.stderr, timeout=CHILD_TIMEOUT_S, cwd=ROOT)


def measure(argv):
    """Run the benchmark binary; return its one-line JSON report."""
    t0 = time.monotonic_ns()
    proc = subprocess.run([os.path.join(BUILD, "perfbench"), *argv,
                           "--t0-ns", str(t0), "--work-dir", WORK,
                           "--out-dir", OUT],
                          check=True, stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_pins(report):
    """Digests at the pinned seed must match perfbench/pins.json."""
    with open(os.path.join(HERE, "pins.json")) as f:
        pins = json.load(f)
    if report["seed"] != pins["seed"]:
        return True
    want = pins["digests"][report["workload"]]
    if report["digests"] == want:
        return True
    log(f"perfbench: digests {report['digests']} != pinned {want}")
    return False


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=["sweep", "fleet", "store"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")

    try:
        build()
        selftest()
        if args.selftest:
            return 0
        argv = ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        setups = [measure(argv + ["--setup-only"])["setup_s"]
                  for _ in range(SETUP_PROCESSES)]
        report = measure(argv)
    except (subprocess.SubprocessError, OSError, ValueError, KeyError) as e:
        log(f"perfbench: {e}")
        return 1

    setups.append(report["setup_s"])
    metrics = report["metrics"]
    if "setup_s" in metrics:
        metrics["setup_s"]["value"] = statistics.median(setups)
        metrics["setup_s"]["samples_s"] = setups
    correct = report["failed"] == 0 and check_pins(report)

    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}"
                             f"-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump({**report, "correct": correct}, f, indent=1)

    fp = report["fingerprint"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"rounds={report['rounds']} nproc={fp['nproc']} "
          f"workers={fp['workers']} isa={fp['isa']} "
          f"build={fp['build_type']} compiler={fp['compiler']}")
    for name, m in metrics.items():
        tail = ""
        if "samples" in m:
            tail = (f"  (median {m['median']:.6g}, p{m['tail_pct']:g} "
                    f"{m['tail']:.6g}, n={m['samples']})")
        print(f"  {name:<34} {m['value']:>16.6g} {m['unit']:<6}{tail}")
    print(f"  report: {os.path.relpath(path, ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
