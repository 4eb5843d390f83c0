#!/usr/bin/env python3
"""Build and run the revtr 2.0 wall-clock benchmark.

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 40 --trace 0

Builds `perfbench/` (its own Cargo package, with the repository's crates as
path dependencies) into `$CARGO_TARGET_DIR` (default `.bench_build`, relative
to the repository root) and runs one workload in a fresh process from the
repository root. That process writes the run's record (host tag, repeats,
fingerprints, spans) under `perfbench/results/`. The last line of standard
output is the result JSON; its metric names and units are checked against
BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run measures for about --seconds; the limit keeps a stuck one from
# outliving the 180 s a run may take.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    args = sys.argv[1:]
    flags = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    flags.add_argument("--trace", default="0")
    expected = expected_metrics(flags.parse_known_args(args)[0].trace == "1")
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env,
    )
    if build.returncode != 0:
        fail("build failed")
    binary = os.path.join(target, "release", "revtr-perfbench")
    try:
        run = subprocess.run(
            [binary, *args],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        sys.stdout.write(run.stdout)
        fail(f"benchmark exited with code {run.returncode}")
    result = json.loads(lines[-1])
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if result["correct"] and got != expected:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail(f"metrics do not match BENCHMARK.json: got {sorted(got.items())}")
    sys.stdout.write(run.stdout)


if __name__ == "__main__":
    main()
