#!/usr/bin/env python3
"""Same-code (A/A) steadiness check for the benchmark.

Runs two sets of runs of the current tree and prints for every workload x
end-to-end metric the median and quartiles of each set. Both sets use
seeds 1..runs, one run per seed, as both sides of a comparison must. A row
is flagged when a set's spread ((q3 - q1) / median) is over the metric's
bound, or when set B's median is worse than set A's by more than the
bound. A spread over a third of the bound is marked as a warning. Exit
code 1 when any row is flagged, or when a run was incorrect or failed ops.

    python3 perfbench/aa.py [--runs 10] [--out runs.jsonl]
    python3 perfbench/aa.py --analyze runs.jsonl

Runs go one at a time, workload by workload, set A before set B. Every
result line is appended to --out as it arrives, so an interrupted check
can still be analyzed.
"""

import argparse
import json
import os
import subprocess
import sys

from benchstats import quartiles, spread, worse_by

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(spec, workload, seed):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"aa.py: {workload} seed {seed} exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def collect(spec, runs, out_path):
    records = []
    out = open(out_path, "a") if out_path else None
    for workload in (w["name"] for w in spec["workloads"]):
        for run_set in ("A", "B"):
            for seed in range(1, runs + 1):
                result = run_once(spec, workload, seed)
                record = {"workload": workload, "set": run_set, "seed": seed, "result": result}
                records.append(record)
                if out:
                    out.write(json.dumps(record) + "\n")
                    out.flush()
                print(f"{workload} {run_set} seed {seed}: " + ", ".join(
                    f"{name}={m['value']:.6g}" for name, m in result["metrics"].items()),
                    file=sys.stderr)
    if out:
        out.close()
    return records


def analyze(spec, records):
    """Print the table; return the number of flagged rows."""
    bad_runs = [r for r in records if not r["result"]["correct"] or r["result"]["failed"]]
    for r in bad_runs:
        print(f"run {r['workload']} {r['set']} seed {r['seed']}: correct="
              f"{r['result']['correct']} failed={r['result']['failed']}")
    flagged = len(bad_runs)
    header = (f"{'workload':<20} {'metric':<12} {'bound':>5}  {'A median':>12} {'A q1..q3':>25}"
              f" {'A spr':>6}  {'B median':>12} {'B spr':>6} {'B-A':>7}  verdict")
    print(header)
    print("-" * len(header))
    workloads = [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sets = {}
            for run_set in ("A", "B"):
                sets[run_set] = [r["result"]["metrics"][name]["value"] for r in records
                                 if r["workload"] == workload and r["set"] == run_set]
            if not sets["A"]:
                continue
            qa = quartiles(sets["A"])
            sa = spread(sets["A"])
            notes = []
            verdict = "ok"
            spreads = [sa]
            line = (f"{workload:<20} {name:<12} {bound:>5.2f}  {qa[1]:>12.6g}"
                    f" {f'{qa[0]:.6g}..{qa[2]:.6g}':>25} {sa:>6.3f}")
            if sets["B"]:
                qb = quartiles(sets["B"])
                sb = spread(sets["B"])
                spreads.append(sb)
                shift = worse_by(qa[1], qb[1], metric["better"])
                line += f"  {qb[1]:>12.6g} {sb:>6.3f} {shift:>+7.3f}"
                if shift > bound:
                    notes.append("B median worse than A by more than the bound")
            if max(spreads) > bound:
                notes.append("spread over the bound")
            elif max(spreads) > bound / 3:
                verdict = "warn: spread over a third of the bound"
            if notes:
                verdict = "FLAG: " + "; ".join(notes)
                flagged += 1
            print(f"{line}  {verdict}")
    return flagged


def main():
    parser = argparse.ArgumentParser(description="Same-code steadiness check")
    parser.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    parser.add_argument("--out", help="append every run's result to this JSON-lines file")
    parser.add_argument("--analyze", help="only analyze a JSON-lines file written by --out")
    args = parser.parse_args()
    spec = load_spec()
    if args.analyze:
        with open(args.analyze) as f:
            records = [json.loads(line) for line in f if line.strip()]
    else:
        records = collect(spec, args.runs, args.out)
    sys.exit(1 if analyze(spec, records) else 0)


if __name__ == "__main__":
    main()
