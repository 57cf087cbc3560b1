#!/usr/bin/env python3
"""Run the benchmark on several seeds and summarise each end-to-end metric.

    python3 perfbench/steadiness.py --runs 10 --first-seed 1000 --second-seed 5000
    python3 perfbench/steadiness.py --runs 10 --first-seed 1000 --write perfbench/baseline.json
    python3 perfbench/steadiness.py --runs 10 --first-seed 5000 --compare perfbench/baseline.json

Run from the repository root. For every workload of BENCHMARK.json it runs
perfbench/run.py once per seed (untraced, BENCHMARK.json's run_seconds) and
prints, per metric, the median, the first and third quartiles
(statistics.quantiles(n=4)) and the spread (q3 - q1) / median next to the
metric's bound. A spread above the bound fails, setup_s included.

--second-seed runs a second set of seeds, interleaved run by run with the
first (A B B A A B ...), so both sets see the same host and neither always
runs first; a metric whose median differs between the two sets by more
than its bound, in either direction, fails. --write stores the first set's
summary with its provenance (git commit, compiler, nproc, substrate,
seeds); --compare checks the first set's medians against a stored summary,
again in both directions. Exits 1 when anything failed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
    lines = out.strip().split("\n")
    # The header line ends with "compiler=<id> <version>".
    head = lines[0]
    compiler = head.split("compiler=", 1)[1] if "compiler=" in head else "unknown"
    return json.loads(lines[-1]), compiler


def summarise(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf"), "values": values}


def git(*args):
    try:
        return subprocess.run(["git", "-C", ROOT, *args], stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


class SeedSet:
    """One set of seeded runs of every workload."""

    def __init__(self, label, seeds):
        self.label = label
        self.seeds = seeds
        self.values = {}  # workload -> metric -> [values]
        self.failed = {}
        self.attempted = {}

    def add(self, workload, res):
        self.failed[workload] = self.failed.get(workload, 0) + res["failed"]
        self.attempted[workload] = self.attempted.get(workload, 0) + res["attempted"]
        per_metric = self.values.setdefault(workload, {})
        for name, m in res["metrics"].items():
            per_metric.setdefault(name, []).append(m["value"])

    def rows(self, workload):
        return {name: summarise(v) for name, v in self.values[workload].items()}


def report_spreads(s, workload, bounds):
    """Prints one set's summary of a workload; returns False if a spread is over its bound."""
    ok = True
    print(f"\n{workload} [{s.label}, seeds {s.seeds[0]}..{s.seeds[-1]}]: "
          f"failed {s.failed[workload]} of {s.attempted[workload]}")
    print(f"  {'metric':24} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
    for name, r in s.rows(workload).items():
        bound = bounds[name]["bound"]
        within = r["spread"] <= bound
        ok = ok and within
        flag = "" if r["spread"] <= bound / 3 else ("  (> bound/3)" if within else "  WIDER THAN BOUND")
        print(f"  {name:24} {r['median']:14.6g} {r['q1']:14.6g} {r['q3']:14.6g} "
              f"{r['spread']:8.4f} {bound:6.2f}{flag}")
    return ok and s.failed[workload] == 0


def report_moves(label, workload, base, now, bounds):
    """Prints the median moves from `base` to `now`; returns False if one exceeds its bound."""
    ok = True
    for name, med in now.items():
        b = base[name]
        change = (med - b) / b
        verdict = "MOVED" if abs(change) > bounds[name]["bound"] else "ok"
        ok = ok and verdict == "ok"
        print(f"{label:10} {workload:12} {name:24} base {b:14.6g} now {med:14.6g} "
              f"change {change:+8.4f} {verdict}")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1000)
    ap.add_argument("--second-seed", type=int, help="interleave a second set from this seed")
    ap.add_argument("--workloads", nargs="*", help="default: every workload of BENCHMARK.json")
    ap.add_argument("--write", help="store the first set's summary here")
    ap.add_argument("--compare", help="check the first set's medians against this stored summary")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    sets = [SeedSet("A", list(range(args.first_seed, args.first_seed + args.runs)))]
    if args.second_seed is not None:
        sets.append(SeedSet("B", list(range(args.second_seed, args.second_seed + args.runs))))

    compiler = "unknown"
    ok = True
    for w in workloads:
        for i in range(args.runs):
            for s in (sets if i % 2 == 0 else sets[::-1]):
                res, compiler = run_once(w, s.seeds[i], bench["run_seconds"])
                s.add(w, res)
                print(f"{w} [{s.label}] seed {s.seeds[i]}: correct={res['correct']} "
                      f"failed={res['failed']}", flush=True)
        for s in sets:
            ok = report_spreads(s, w, bounds) and ok
        if len(sets) == 2:
            medians = [{n: r["median"] for n, r in s.rows(w).items()} for s in sets]
            ok = report_moves("A -> B", w, medians[0], medians[1], bounds) and ok
        print(flush=True)

    first = sets[0]
    if args.write:
        # git_dirty: the measured tree had changes not yet committed on top of git_commit.
        status = git("status", "--porcelain", "--untracked-files=no")
        summary = {"provenance": {"git_commit": git("rev-parse", "HEAD") or "unknown",
                                  "git_dirty": bool(status) if status is not None else None,
                                  "compiler": compiler,
                                  "nproc": os.cpu_count(), "substrate": "sim", "threads": 2,
                                  "run_seconds": bench["run_seconds"], "seeds": first.seeds},
                   "workloads": {w: {"failed": first.failed[w], "attempted": first.attempted[w],
                                     "metrics": first.rows(w)} for w in workloads}}
        with open(args.write, "w") as f:
            json.dump(summary, f, indent=1)
            f.write("\n")
    if args.compare:
        with open(args.compare) as f:
            base = json.load(f)
        for w in workloads:
            stored = {n: m["median"] for n, m in base["workloads"][w]["metrics"].items()}
            now = {n: r["median"] for n, r in first.rows(w).items()}
            ok = report_moves("stored", w, stored, now, bounds) and ok
    print("steadiness:", "PASS" if ok else "FAIL")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
