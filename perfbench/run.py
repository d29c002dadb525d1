#!/usr/bin/env python3
"""End-to-end benchmark of a deployed TEEMon host.

Run from the root of the repository:

    python3 perfbench/run.py --workload host_small --seed 1 --seconds 30 --trace 0

builds the benchmark (a package of its own in this directory, against the
repository's crates) and runs one workload in a fresh process.  The last line
of standard output is one JSON object: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`.  The exit status is
non-zero when any correctness check fails or the build does.

Two more modes serve the benchmark itself:

    python3 perfbench/run.py --self-check [--seconds 30]
        runs every workload traced twice with one seed and once with another,
        and checks that one seed gives identical inputs and exact counts and
        that another seed changes the inputs;

    python3 perfbench/run.py --spread --runs 10 [--workload W] [--seconds 30]
        runs untraced with seeds 1..runs and prints, per end-to-end metric,
        the median and the quartile spread as a share of the median.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["host_small", "host_churn", "serve_dashboard"]
RUN_TIMEOUT_S = 170
# Exact counts that may differ in their last digits between runs with one
# seed, with the relative tolerance allowed and why.
NEAR_EXACT = {
    "storage_bytes_per_sample": (
        1e-3,
        "the compressed size of measured wall-clock values (scrape_duration_seconds, "
        "the engine's own timing histograms) varies from run to run",
    ),
}


def build():
    """Builds the release binary; returns its path or exits non-zero."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    manifest = os.path.join(HERE, "Cargo.toml")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    try:
        built = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--manifest-path", manifest],
            cwd=ROOT,
            env=env,
            stdout=sys.stderr,
            timeout=850,
        )
    except (OSError, subprocess.TimeoutExpired) as err:
        sys.exit(f"build failed: {err}")
    if built.returncode != 0:
        sys.exit(f"build failed with status {built.returncode}")
    return os.path.join(target, "release", "teemon-perfbench")


def invoke(binary, workload, seed, seconds, trace):
    """Runs one workload in a fresh process; returns (status, stdout)."""
    args = [binary, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(args, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    sys.stderr.write(done.stderr)
    return done.returncode, done.stdout


def exact_counts(stdout):
    counts = {}
    for line in stdout.splitlines():
        if line.startswith("exact: "):
            name, value = line[len("exact: "):].split(" = ", 1)
            counts[name] = value
    return counts


def self_check(seconds):
    binary = build()
    ok = True
    for workload in WORKLOADS:
        runs = []
        for seed in (1, 1, 2):
            status, stdout = invoke(binary, workload, seed, seconds, 1)
            if status != 0:
                print(stdout)
                print(f"{workload} seed {seed}: exit status {status}")
                ok = False
            runs.append(exact_counts(stdout))
        first, again, other = runs
        for name in sorted(first):
            same = first[name] == again.get(name)
            verdict = "same" if same else "DIFFERS"
            if not same and name in NEAR_EXACT:
                tolerance, _ = NEAR_EXACT[name]
                a, b = float(first[name]), float(again.get(name, "nan"))
                same = abs(a - b) <= tolerance * abs(a)
                verdict = f"within {tolerance:.1%}" if same else verdict
            print(f"{workload:16} {name:38} seed 1: {first[name]:>22} "
                  f"again: {again.get(name, '?'):>22} seed 2: {other.get(name, '?'):>22}"
                  f"  {verdict}")
            ok &= same
        if first.get("input_digest") == other.get("input_digest"):
            print(f"{workload}: another seed did not change the inputs")
            ok = False
    for name, (tolerance, why) in NEAR_EXACT.items():
        print(f"{name} may differ by {tolerance:.1%}: {why}")
    print("self-check", "passed" if ok else "FAILED")
    return 0 if ok else 1


def spread(workloads, runs, seconds):
    binary = build()
    for workload in workloads:
        values = {}
        units = {}
        for seed in range(1, runs + 1):
            status, stdout = invoke(binary, workload, seed, seconds, 0)
            result = json.loads(stdout.strip().splitlines()[-1])
            if status != 0 or not result["correct"]:
                print(stdout)
                return 1
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
        print(f"{workload} ({runs} runs of {seconds} s)")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            share = (q3 - q1) / med if med else float("nan")
            print(f"  {name:26} median {med:14.4f} {units[name]:6} spread {share:7.2%}"
                  f"  [{min(vals):.4f} .. {max(vals):.4f}]")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--spread", action="store_true")
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()

    if args.self_check:
        return self_check(args.seconds)
    if args.spread:
        return spread([args.workload] if args.workload else WORKLOADS, args.runs, args.seconds)
    if not args.workload:
        parser.error("--workload is required")
    binary = build()
    status, stdout = invoke(binary, args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(stdout)
    return status


if __name__ == "__main__":
    sys.exit(main())
