#!/usr/bin/env python3
"""Records the benchmark's steadiness: two sets of ten runs per workload.

    python3 servebench/steadiness.py --out servebench/results

Run it from the repository root. It reads the workloads, run_seconds and
end-to-end bounds from BENCHMARK.json and, for set 1 (seeds 1-10) and then
set 2 (seeds 11-20), runs every workload once per seed with
`bash servebench/run.sh --workload W --seed S --seconds <run_seconds> --trace 0`,
appending each run's JSON result line to OUT/set<k>/<workload>.jsonl. It
writes OUT/STEADINESS.md: per set, workload and metric the median, the
quartiles (as statistics.quantiles(values, n=4) gives them) and the
interquartile range as a share of the median, naming every metric whose
share exceeds 0.1; then, per workload and metric, whether each spread stays
within the metric's bound (setup_s exempt) and whether the set-2 median is
worse than the set-1 median by more than the bound. It exits 1 when either
does not hold.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

RUNS = 10
SETS = [range(1, RUNS + 1), range(RUNS + 1, 2 * RUNS + 1)]


def run_once(workload, seed, seconds):
    cmd = ["bash", "servebench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}")
    return json.loads(lines[-1])


def summarize(results):
    """Maps each metric to (unit, median, Q1, Q3, (Q3-Q1)/median)."""
    out = {}
    for name in sorted({k for r in results for k in r["metrics"]}):
        values = [r["metrics"][name]["value"] for r in results if name in r["metrics"]]
        unit = next(r["metrics"][name]["unit"] for r in results if name in r["metrics"])
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[name] = (unit, med, q1, q3, (q3 - q1) / med if med else 0.0)
    return out


def worse_by(first, second, better):
    """How much worse second is than first, as a share of first."""
    if not first:
        return 0.0
    change = (second - first) / first
    return change if better == "lower" else 0.0 - change


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--out", default="servebench/results", help="directory the record is written to")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    for k, seeds in enumerate(SETS, 1):
        setdir = os.path.join(args.out, f"set{k}")
        os.makedirs(setdir, exist_ok=True)
        for workload in [w["name"] for w in bench["workloads"]]:
            with open(os.path.join(setdir, f"{workload}.jsonl"), "w") as f:
                for seed in seeds:
                    res = run_once(workload, seed, bench["run_seconds"])
                    f.write(json.dumps(res, sort_keys=True) + "\n")
                    f.flush()
    return write_report(args.out, bench)


def write_report(out, bench):
    """Writes OUT/STEADINESS.md from the recorded sets; returns the exit code."""
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    summaries = []  # per set: {workload: summary}
    for k in range(1, len(SETS) + 1):
        per_workload = {}
        for workload in workloads:
            with open(os.path.join(out, f"set{k}", f"{workload}.jsonl")) as f:
                per_workload[workload] = summarize([json.loads(line) for line in f])
        summaries.append(per_workload)

    report = [f"# Steadiness: two sets of {RUNS} runs per workload, --seconds {seconds} --trace 0", "",
              f"Set 1 uses seeds {SETS[0][0]}-{SETS[0][-1]}, set 2 seeds {SETS[1][0]}-{SETS[1][-1]}, "
              "run one after the other on the same commit and host. Raw results: set1/, set2/.", ""]
    for k, per_workload in enumerate(summaries, 1):
        for workload in workloads:
            report += [f"## Set {k}: {workload}", "",
                       "| metric | unit | median | Q1 | Q3 | (Q3-Q1)/median |",
                       "| --- | --- | ---: | ---: | ---: | ---: |"]
            loose = []
            for name, (unit, med, q1, q3, share) in per_workload[workload].items():
                report.append(f"| {name} | {unit} | {med:.6g} | {q1:.6g} | {q3:.6g} | {share:.4f} |")
                if share > 0.1:
                    loose.append(name)
            report += ["", "Not within a tenth: " + (", ".join(loose) if loose else "none") + ".", ""]

    report += ["## Agreement of the two sets", "",
               "Spread is (Q3-Q1)/median; it must stay within the bound, except for setup_s. "
               "Worse by is how much worse the set-2 median is than the set-1 median; "
               "it must stay within the bound.", "",
               "| workload | metric | bound | spread 1 | spread 2 | worse by | holds |",
               "| --- | --- | ---: | ---: | ---: | ---: | --- |"]
    ok = True
    for workload in workloads:
        first, second = summaries[0][workload], summaries[1][workload]
        for name, m in bounds.items():
            s1, s2 = first[name][4], second[name][4]
            worse = worse_by(first[name][1], second[name][1], m["better"])
            holds = worse <= m["bound"] and (name == "setup_s" or max(s1, s2) <= m["bound"])
            ok = ok and holds
            report.append(f"| {workload} | {name} | {m['bound']} | {s1:.4f} | {s2:.4f} | {worse:+.4f} | "
                          f"{'yes' if holds else 'NO'} |")
    report += ["", "Every bound holds." if ok else "Some bound does not hold.", ""]
    with open(os.path.join(out, "STEADINESS.md"), "w") as f:
        f.write("\n".join(report))
    print("\n".join(report))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
