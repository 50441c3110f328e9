#!/usr/bin/env python3
"""Steadiness report for the end-to-end benchmark.

Runs the command of BENCHMARK.json on every workload it lists, for
run_seconds each, RUNS times per set with a distinct seed each time, in two
sets. For each set it reports each end-to-end metric's median, quartiles and
spread (interquartile distance as a share of the median) against the
metric's bound; then it compares the medians of set A and set B (an A/A
comparison: same code, fresh runs). Run it from the repository root:

    python3 perfbench/steadiness.py > perfbench/STEADINESS.md

Quartiles are Python's statistics.quantiles(values, n=4). Every spread must
stay within its bound; below a third of the bound counts as steady. The two
sets' medians may differ by at most the bound, in either direction. The
exit code is 1 if any of this fails.
"""

import json
import statistics
import subprocess
import sys
import time

RUNS = 10
SETS = 2
FIRST_SEED = 101  # run i of set s uses seed FIRST_SEED + 1000*s + i


def run_once(cmd, workload, seed, seconds):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    t0 = time.monotonic()
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), wall


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def worse_share(metric, a, b):
    """How much worse median b is than median a, as a share of a."""
    if metric["better"] == "lower":
        return (b - a) / a
    return (a - b) / a


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    cmd = bench["command"]
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]

    # results[set][workload] -> list of result objects
    results = [{n: [] for n in names} for _ in range(SETS)]
    walls = []
    for s in range(SETS):
        for i in range(RUNS):
            for n in names:
                seed = FIRST_SEED + 1000 * s + i
                res, wall = run_once(cmd, n, seed, seconds)
                walls.append(wall)
                results[s][n].append(res)
                print(f"set {s} run {i} {n} seed {seed}: {wall:.1f}s "
                      + " ".join(f"{k}={v['value']:.6g}" for k, v in sorted(res["metrics"].items())),
                      file=sys.stderr)

    def values(s, n, m):
        return [r["metrics"][m["name"]]["value"] for r in results[s][n]]

    out = ["# Steadiness report\n",
           f"{SETS} sets x {RUNS} runs per workload, run_seconds {seconds}, "
           f"seeds {FIRST_SEED}+1000*set+run; run wall time median {statistics.median(walls):.1f}s, "
           f"max {max(walls):.1f}s.\n"]
    verdicts = []
    for n in names:
        out.append(f"\n## {n}\n")
        out.append("| set | metric | median | q1 | q3 | spread | bound | verdict |")
        out.append("|---|---|---|---|---|---|---|---|")
        for s in range(SETS):
            for m in metrics:
                med, q1, q3, sp = spread(values(s, n, m))
                if sp <= m["bound"] / 3:
                    v = "steady"
                elif sp <= m["bound"]:
                    v = "within bound"
                else:
                    v = "TOO NOISY"
                    verdicts.append(f"{n} set {chr(65 + s)} {m['name']} spread {sp:.4f} > bound {m['bound']}")
                out.append(f"| {chr(65 + s)} | {m['name']} | {med:.6g} | {q1:.6g} | {q3:.6g} | "
                           f"{sp:.4f} | {m['bound']} | {v} |")
        out.append("\nA/A: set B median against set A median (positive = worse).\n")
        out.append("| metric | A | B | worse by | bound | verdict |")
        out.append("|---|---|---|---|---|---|")
        for m in metrics:
            a = statistics.median(values(0, n, m))
            b = statistics.median(values(1, n, m))
            w = worse_share(m, a, b)
            ok = abs(w) <= m["bound"]
            if not ok:
                verdicts.append(f"{n} A/A {m['name']} differs by {w:+.4f}, beyond bound {m['bound']}")
            out.append(f"| {m['name']} | {a:.6g} | {b:.6g} | {w:+.4f} | {m['bound']} | "
                       f"{'ok' if ok else 'FAIL'} |")
        runs = [r for s in range(SETS) for r in results[s][n]]
        fails = sum(r["failed"] for r in runs)
        att = sum(r["attempted"] for r in runs)
        wrong = sum(not r["correct"] for r in runs)
        if wrong:
            verdicts.append(f"{n}: {wrong} runs reported correct=false")
        out.append(f"\nOperations failed {fails} of {att}; runs with correct=false: {wrong}.")
    out.append("\n## Verdict\n")
    out.append("\n".join(f"- {v}" for v in verdicts) if verdicts else
               "Every spread within its bound, every A/A difference within its bound, every run correct.")
    print("\n".join(out))
    return 1 if verdicts else 0


if __name__ == "__main__":
    sys.exit(main())
