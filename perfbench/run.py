#!/usr/bin/env python3
"""Builds the volcast benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload classroom --seed 1 --seconds 10 --trace 0

`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
breakdown; the last line of standard output is the JSON result. The build
goes to `$CARGO_TARGET_DIR` (default `perfbench/target`). Exits non-zero
without a result when the build or the run fails.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def build():
    """Builds both benchmark binaries; returns their directory or None."""
    if not os.path.isdir(os.path.join(HERE, "..", "crates")):
        print("error: the volcast crates are not next to perfbench/", file=sys.stderr)
        return None
    target = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    )
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, env=env)
    except OSError as e:
        print(f"error: cannot run cargo: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print("error: benchmark build failed", file=sys.stderr)
        return None
    return os.path.join(target, "release")


def trace_flag(args):
    for key, value in zip(args, args[1:]):
        if key == "--trace":
            return value
    return None


def run(bin_dir, args):
    """Runs one workload; returns (exit code, stdout lines)."""
    name = "perfbench_traced" if trace_flag(args) == "1" else "perfbench"
    try:
        done = subprocess.run(
            [os.path.join(bin_dir, name)] + args,
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"error: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, []
    return done.returncode, done.stdout.splitlines()


def parse_result(lines):
    """The JSON result on the last line, or None."""
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    if not isinstance(result, dict):
        return None
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return None
    return result


def main():
    args = sys.argv[1:]
    bin_dir = build()
    if bin_dir is None:
        return 2
    code, lines = run(bin_dir, args)
    result = parse_result(lines)
    if result is None:
        sys.stderr.write("".join(line + "\n" for line in lines))
        print("error: the run printed no result", file=sys.stderr)
        return code or 1
    sys.stdout.write("".join(line + "\n" for line in lines))
    return code


if __name__ == "__main__":
    sys.exit(main())
