#!/usr/bin/env bash
# repeat.sh N [--seed S] [--vary-seed] [--seconds T] [--workload W]...
#
# Runs N full sets of the same binary — every workload, tracing off — and
# prints, per workload and end-to-end metric, min / median / max over the N
# runs, their spread as a share of the median, and whether the spread stays
# inside the metric's bound in BENCHMARK.json. The spread is the distance
# between the quartiles (statistics.quantiles, n=4) when N >= 4, else
# max - min. --vary-seed gives run i the seed S+i-1 (the acceptance check of
# the benchmark itself: ten runs, ten seeds); without it every run uses S.
#
# If a metric misses its bound, lengthen the run (run_seconds) — do not
# widen the bound.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"
exec python3 - "$@" <<'EOF'
import json, statistics, subprocess, sys

args = sys.argv[1:]
if not args:
    sys.exit("usage: bench/repeat.sh N [--seed S] [--vary-seed] [--seconds T] [--workload W]...")
n = int(args.pop(0))
spec = json.load(open("BENCHMARK.json"))
seed, vary, seconds, only = 1, False, spec["run_seconds"], []
while args:
    a = args.pop(0)
    if a == "--seed": seed = int(args.pop(0))
    elif a == "--vary-seed": vary = True
    elif a == "--seconds": seconds = float(args.pop(0))
    elif a == "--workload": only.append(args.pop(0))
    else: sys.exit("unknown argument " + a)
workloads = [w["name"] for w in spec["workloads"] if not only or w["name"] in only]
bounds = {m["name"]: m for m in spec["end_to_end"]}
values = {w: {m: [] for m in bounds} for w in workloads}
failed = 0
for i in range(n):
    s = seed + i if vary else seed
    for w in workloads:
        cmd = spec["command"] + ["--workload", w, "--seed", str(s), "--seconds", str(seconds), "--trace", "0"]
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        if p.returncode != 0:
            sys.exit("%s seed %d: exit code %d" % (w, s, p.returncode))
        r = json.loads(p.stdout.strip().splitlines()[-1])
        failed += r["failed"] + (0 if r["correct"] else 1)
        for m in bounds:
            values[w][m].append(r["metrics"][m]["value"])
        print("set %d/%d %-14s seed=%d %s" % (i + 1, n, w, s,
              "  ".join("%s=%.5g" % (m, r["metrics"][m]["value"]) for m in bounds)), flush=True)
print()
print("%-14s %-15s %12s %12s %12s %9s %7s  %s" % ("workload", "metric", "min", "median", "max", "spread", "bound", ""))
bad = 0
for w in workloads:
    for m, b in bounds.items():
        v = values[w][m]
        med = statistics.median(v)
        if len(v) >= 4:
            q = statistics.quantiles(v, n=4)
            spread = (q[2] - q[0]) / med
        else:
            spread = (max(v) - min(v)) / med
        # setup_s is gated on its median moving, not on its spread.
        ok = spread <= b["bound"] or m == "setup_s"
        bad += not ok
        print("%-14s %-15s %12.6g %12.6g %12.6g %8.1f%% %6.0f%%  %s" % (
            w, m, min(v), med, max(v), 100 * spread, 100 * b["bound"],
            "inside" if spread <= b["bound"] else ("wide (not gated)" if ok else "OUTSIDE")))
print("\nfailed ops or oracle violations: %d" % failed)
sys.exit(1 if bad or failed else 0)
EOF
