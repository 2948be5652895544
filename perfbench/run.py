#!/usr/bin/env python3
"""One benchmark run: build the runner if needed, run one workload, check
its output, and print the result as the last line of stdout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The runner is built from ../src into
.bench_build/ (CMake, RelWithDebInfo). The result line holds exactly
`correct`, `attempted`, `failed` and `metrics`; with --trace 0 the metrics
are BENCHMARK.json's end_to_end set, with --trace 1 its per_layer set. The
line before it, `context: {...}`, records how the run was made.

Exit codes: 0 with a result printed; 1 when the build or the run failed
or printed something malformed; 2 on a usage error or when the library
sources are missing.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RUNNER = os.path.join(BUILD_DIR, "perfbench_runner")
# Every run must end within 180 s; keep a margin for start-up and checks.
RUN_TIMEOUT_S = 170
BUILD_JOBS = max(1, min(4, os.cpu_count() or 1))


def fail(message, code=1):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build(target="perfbench_runner"):
    """Configure once, then let the build tool bring `target` up to date.
    Compiler temporaries go under the build tree, not the system temp dir."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources not found next to perfbench/ (expected src/)", 2)
    tmp = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure + generator, stdout=sys.stderr, env=env).returncode != 0:
            fail("cmake configure failed")
    step = ["cmake", "--build", BUILD_DIR, "--target", target, "-j", str(BUILD_JOBS)]
    if subprocess.run(step, stdout=sys.stderr, env=env).returncode != 0:
        fail("build failed")


def git_commit():
    """The checked-out commit, read from .git without leaving the tree."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec, {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(result, expected):
    """Problems with the runner's result line, as a list of messages."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
        return problems
    if not isinstance(result["correct"], bool):
        problems.append("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            problems.append(f"{key} is not a whole number")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("nothing attempted")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        problems.append(f"metric names differ (missing {missing}, unexpected {extra})")
    for name, metric in metrics.items():
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name} has no finite value")
        if name in expected and metric.get("unit") != expected[name]:
            problems.append(f"{name} unit {metric.get('unit')!r} != {expected[name]!r}")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0", 2)

    spec, expected = expected_metrics(args.trace)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}", 2)
    build()

    command = [RUNNER, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--reference", os.path.join(HERE, "reference")]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"runner exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2 or not lines[-2].startswith("context: "):
        sys.stderr.write(proc.stdout)
        fail(f"runner exited with {proc.returncode} and no result")

    try:
        context = json.loads(lines[-2][len("context: "):])
        result = json.loads(lines[-1])
    except json.JSONDecodeError as err:
        fail(f"malformed runner output: {err}")
    problems = check_result(result, expected)
    if problems:
        fail("; ".join(problems))

    context["nproc"] = os.cpu_count()
    context["git_commit"] = git_commit()
    print("\n".join(lines[:-2]))
    print("context: " + json.dumps(context))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
