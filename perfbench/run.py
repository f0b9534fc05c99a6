#!/usr/bin/env python3
"""Build and run the serving-overlay benchmark.

    python3 perfbench/run.py --workload hot_zipf --seed 1 --seconds 22 --trace 0
    python3 perfbench/run.py --workload all          # every workload, default seed

Run from the root of a source checkout. The benchmark is a Cargo package
of its own (perfbench/Cargo.toml) that builds against the checkout's
crates by path, into $CARGO_TARGET_DIR (default: .bench_build). Each
workload runs in a fresh process, so its peak memory is its own.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; the line before it is the run's
provenance. Results and, for --trace 1, the recorded spans are also
written under <target dir>/perfbench-results/. A failed build, a failed
correctness check or an invalid run exits non-zero and prints no result.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

WORKLOADS = ["hot_zipf", "scale_10k", "churn"]
# The seed runs use by default, and a seed held out for confirming a
# claimed gain on inputs the change was not tuned on.
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919
DEFAULT_SECONDS = 22
# One workload run must end well inside the three minutes it is allowed.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def target_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def source_digest():
    """SHA-256 over the sources the benchmark builds, so a result names
    the code it measured even where there is no git metadata."""
    digest = hashlib.sha256()
    tops = ["Cargo.toml", "Cargo.lock", "crates", "shims", os.path.basename(HERE)]
    files = []
    for top in tops:
        path = os.path.join(ROOT, top)
        if os.path.isfile(path):
            files.append(top)
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            for name in filenames:
                if name.endswith((".rs", ".toml")):
                    files.append(os.path.relpath(os.path.join(dirpath, name), ROOT))
    for rel in sorted(files):
        digest.update(rel.encode())
        with open(os.path.join(ROOT, rel), "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()[:16]


def git_commit():
    """The checked-out commit, read from .git without running git;
    'unknown' outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def build():
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    manifest = os.path.join(HERE, "Cargo.toml")
    proc = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
        timeout=BUILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.exit("error: the benchmark did not build (is this a full source checkout?)")
    return os.path.join(target_dir(), "release", "perfbench")


def run_one(binary, workload, seed, seconds, trace, provenance):
    """Runs one workload in a fresh process; returns its provenance and
    its result."""
    cmd = [
        binary,
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--commit", provenance["commit"],
        "--source-digest", provenance["source_digest"],
        "--out", os.path.join(target_dir(), "perfbench-results"),
    ]
    # Its own process group, so a timeout also stops the child processes
    # the benchmark starts for its further set-ups and control rounds.
    proc = subprocess.Popen(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        sys.exit(f"error: {workload} ran longer than {RUN_TIMEOUT_S} s")
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        sys.exit(f"error: {workload} failed (exit {proc.returncode}); no result")
    lines = stdout.strip().splitlines()
    if len(lines) < 2:
        sys.exit(f"error: {workload} printed no result")
    return json.loads(lines[-2]), json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    # A terminated launcher stops the benchmark's processes on its way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not 1 <= args.seconds <= 600:
        parser.error("--seconds must be between 1 and 600")

    binary = build()
    provenance = {"commit": git_commit(), "source_digest": source_digest()}
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        run_provenance, result = run_one(
            binary, workload, args.seed, args.seconds, args.trace, provenance
        )
        print(json.dumps(run_provenance))
        if len(workloads) == 1:
            print(json.dumps(result))
            return
        print(json.dumps({"workload": workload, **result}))
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))


if __name__ == "__main__":
    main()
