#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds `javaflow-serve` (repository
workspace) and the `perfbench` measuring binary (its own workspace) in
release mode into $CARGO_TARGET_DIR (default `.bench_build`), then runs
the workload. The last stdout line is the JSON result; the full result,
with the host block, goes to `.bench_out/`. Exits nonzero, printing no
result, if the build or the run fails. See perfbench/README.md.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

WORKLOADS = ("sweep-1500", "serve-distinct", "serve-hot")


def run_timeout_s(seconds):
    """How long a run may take: set-up, the measured seconds with their
    overruns (a step or round that started before the end finishes), a
    traced run's two open-loop phases, and draining."""
    return 60 + 3 * seconds


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build(target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    for cmd in (
        ["cargo", "build", "--release", "--quiet", "-p", "javaflow-server", "--bin", "javaflow-serve"],
        ["cargo", "build", "--release", "--quiet", "--manifest-path", "perfbench/Cargo.toml"],
    ):
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def output_of(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def host_block():
    nproc = len(os.sched_getaffinity(0))
    return {
        "nproc": nproc,
        "commit": output_of(["git", "rev-parse", "HEAD"]) or "unknown (not a git checkout)",
        "rustc": output_of(["rustc", "--version"]) or "unknown",
        "thread_scaling": "unmeasured (nproc is 1)" if nproc == 1 else "measured",
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int, choices=range(1, 601), metavar="1..600")
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    if not os.path.isfile("BENCHMARK.json"):
        fail("run from the repository root (BENCHMARK.json not found)")
    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build(target_dir)

    cmd = [
        os.path.join(target_dir, "release", "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--server-bin", os.path.join(target_dir, "release", "javaflow-serve"),
        "--out-dir", ".bench_out",
        "--host", json.dumps(host_block()),
    ]
    # Its own process group, so a timeout also stops the server it spawned.
    # perfbench checks its metrics against BENCHMARK.json itself.
    timeout = run_timeout_s(args.seconds)
    run = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, _ = run.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(run.pid, signal.SIGKILL)
        run.wait()
        fail(f"run exceeded {timeout} s")
    lines = stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        fail(f"perfbench exited with {run.returncode}")
    print(lines[-1])


if __name__ == "__main__":
    main()
