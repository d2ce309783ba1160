#!/usr/bin/env python3
"""Host-speed benchmark of the optiplet simulator stack.

Run from the repository root:

    python3 perfbench/run.py --workload pipeline_open --seed 1 \
        --seconds 10 --trace 0

The first run configures and builds perfbench/CMakeLists.txt (the library
from src/ plus the stack_bench program) into $CARGO_TARGET_DIR/perfbench,
default .bench_build/perfbench. Later runs only check that the build is up
to date. stack_bench measures one workload and prints a JSON report; this
script checks the report's scenario fingerprints against the values
recorded in perfbench/expected.json when the seed is the default seed,
and prints the result as the last line of stdout:

    {"correct": true, "attempted": 6, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer metrics, and writes the run's spans to
<build dir>/traces/<workload>-seed<seed>.json. --smoke runs a single
round with a single cold set-up. Human-readable detail goes to stderr.
"""

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
DEFAULT_SEED = 1
NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")
FINGERPRINT_FIELDS = (
    "offered",
    "completed",
    "shed",
    "abandoned",
    "sim_events",
    "p99_s",
    "energy_per_request_j",
    "transfers",
)
BUILD_TIMEOUT_S = 840


def run_timeout_s(seconds):
    """How long stack_bench may take: its timed loop, plus the set-up, the
    last repetition past the deadline and the traced run's layer probes."""
    return 2 * seconds + 120


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(root):
    """Configure (once) and build stack_bench; return the binary's path."""
    if not (root / "CMakeLists.txt").is_file() or not (root / "src").is_dir():
        fail(f"{root} is not an optiplet checkout (no CMakeLists.txt or src/)")
    build_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = build_dir / "perfbench"
    build_dir.mkdir(parents=True, exist_ok=True)
    # Keep the compiler's temporary files inside the checkout too.
    env = dict(os.environ, TMPDIR=str(build_dir))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"]
        )
    steps.append(
        ["cmake", "--build", str(build_dir), "--target", "stack_bench",
         "-j", jobs]
    )
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  env=env, timeout=BUILD_TIMEOUT_S,
                                  check=False)
        except (OSError, subprocess.TimeoutExpired) as error:
            fail(f"build step {step[:2]} failed: {error}")
        if done.returncode != 0:
            fail(f"build step {step[:2]} exited with {done.returncode}")
    return build_dir, build_dir / "stack_bench"


def fingerprint_failures(report, expected):
    """Failed operations due to fingerprints that differ from `expected`.

    Each scenario's fingerprint stands for every run of it that passed the
    stack_bench checks (report["fingerprints"][label]["runs"]), so a
    mismatch fails all of them.
    """
    failed = 0
    errors = []
    for label, got in report["fingerprints"].items():
        want = expected.get(label)
        if want is None:
            failed += got["runs"]
            errors.append(f"{label}: no recorded fingerprint")
            continue
        diff = [f for f in FINGERPRINT_FIELDS if got.get(f) != want.get(f)]
        if diff:
            failed += got["runs"]
            errors.append(f"{label}: fingerprint differs in {', '.join(diff)}")
    return failed, errors


def check_metric_names(metrics, declared):
    """Exit unless the printed metrics are exactly the declared ones."""
    for name, entry in metrics.items():
        if not NAME_RE.match(name) or not entry.get("unit"):
            fail(f"metric {name!r} has a bad name or no unit")
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: entry["unit"] for name, entry in metrics.items()}
    if got != want:
        fail(f"printed metrics {sorted(got)} do not match BENCHMARK.json")


def git_sha(root):
    if not (root / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, check=False)
    except OSError:
        return "unknown"
    return done.stdout.strip() or "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="a single round with a single cold set-up")
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    root = Path.cwd()
    build_dir, binary = build(root)
    declared = json.loads((root / "BENCHMARK.json").read_text())
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.trace:
        traces = build_dir / "traces"
        traces.mkdir(exist_ok=True)
        command += ["--trace-out",
                    str(traces / f"{args.workload}-seed{args.seed}.json")]
    if args.smoke:
        command.append("--smoke")
    timeout_s = run_timeout_s(args.seconds)
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=timeout_s, check=False)
    except subprocess.TimeoutExpired:
        fail(f"stack_bench ran past {timeout_s:g} s")
    if done.returncode != 0:
        fail(f"stack_bench exited with {done.returncode}")
    report = json.loads(done.stdout.strip().splitlines()[-1])

    failed = report["failed"]
    errors = list(report["errors"])
    if args.seed == DEFAULT_SEED:
        expected = json.loads((BENCH_DIR / "expected.json").read_text())
        extra, why = fingerprint_failures(
            report, expected["workloads"].get(args.workload, {}))
        failed += extra
        errors += why

    metrics = report["metrics"]
    check_metric_names(
        metrics, declared["per_layer" if args.trace else "end_to_end"])
    provenance = dict(report["provenance"], git_sha=git_sha(root))
    print(f"provenance: {json.dumps(provenance)}", file=sys.stderr)
    for name, entry in metrics.items():
        print(f"  {name:36s} {entry['value']:<16.6g} {entry['unit']}",
              file=sys.stderr)
    for error in errors:
        print(f"FAILED {error}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": report["attempted"],
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
