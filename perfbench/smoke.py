#!/usr/bin/env python3
"""Smoke test of the benchmark itself: a tiny-size pass of every workload.

Run from the repository root:

    python3 perfbench/smoke.py

For each workload in BENCHMARK.json it runs `--trace 0` and `--trace 1` at
`--size tiny` and asserts that the run is correct and prints exactly the
metrics BENCHMARK.json names for that mode, each with its declared unit.
Takes about a minute, most of it the build.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

ROOT = os.path.join(run.HERE, "..")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bin_dir = run.build()
    if bin_dir is None:
        return 2
    failures = []
    for workload in spec["workloads"]:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            label = f"{workload['name']} --trace {trace}"
            before = len(failures)
            code, lines = run.run(bin_dir, [
                "--workload", workload["name"], "--seed", "1",
                "--seconds", "1", "--trace", trace, "--size", "tiny",
            ])
            result = run.parse_result(lines)
            if code != 0 or result is None:
                failures.append(f"{label}: exit {code}, result {result}")
                continue
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                failures.append(f"{label}: not correct: {lines[-1]}")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {n: v.get("unit") for n, v in result["metrics"].items()}
            if got != want:
                missing = sorted(set(want) - set(got))
                extra = sorted(set(got) - set(want))
                units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
                failures.append(
                    f"{label}: missing {missing}, unexpected {extra}, wrong unit {units}"
                )
            bad = [n for n, v in result["metrics"].items()
                   if not isinstance(v.get("value"), (int, float))]
            if bad:
                failures.append(f"{label}: non-numeric values {bad}")
            print(("ok   " if len(failures) == before else "FAIL ") + label)
    for f in failures:
        print(f"FAIL {f}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
