#!/usr/bin/env python3
"""Regression gate over two directories of BENCH_<scenario>.json reports.

Compares the *ratio of two series* (default: RH1-Fast / TL2) per
(scenario, table, x) between a baseline run and a fresh run, and fails when
the fresh ratio has moved the bad way by more than THRESHOLD (25%). Each
table says which way is bad: its "better" field ("higher" or "lower") names
the direction in which its primary metric improves. The gate reads that
field from the FRESH report, so a baseline written before the field existed
still gates; a fresh table without it is not gated, visibly. Ratios between
series measured in the same process are robust to runner noise where
absolute ops/sec are not — both series speed up or slow down together on a
cold/hot runner, their quotient does not (see docs/BENCHMARKS.md, "Diffing
two runs").

Usage:
    check_regression.py OLD_DIR NEW_DIR [--numerator RH1-Fast]
                        [--denominator TL2]
    check_regression.py --self-test

Exit status: 0 = no gated regression (including "nothing comparable", e.g.
the very first CI run has no baseline artifact); 1 = regression beyond the
threshold; 2 = usage error.
"""

import argparse
import glob
import io
import json
import os
import sys
import tempfile

# A ratio regresses when it falls below (1 - THRESHOLD) of its baseline for a
# higher-is-better table, or rises past 1 / (1 - THRESHOLD) for a
# lower-is-better one, so the gate is symmetric either way.
THRESHOLD = 0.25
DIRECTIONS = ("higher", "lower")


def series_points(table, name):
    """{x: primary-metric value} for one named series of a table."""
    for series in table["series"]:
        if series["name"] == name:
            out = {}
            for point in series["points"]:
                value = point["metrics"].get(table["primary_metric"])
                if isinstance(value, (int, float)):
                    out[point["x"]] = float(value)
            return out
    return None


def ratios(report, titles, numerator, denominator):
    """{(title, x): num/den} over the report's tables named in `titles`, for
    every x where both series have positive data, in table then x order."""
    out = {}
    for table in report.get("tables", []):
        if table["title"] not in titles:
            continue
        num = series_points(table, numerator)
        den = series_points(table, denominator)
        if num is None or den is None:
            continue
        for x in sorted(num.keys() & den.keys(), key=str):
            if den[x] > 0 and num[x] > 0:
                out[(table["title"], x)] = num[x] / den[x]
    return out


class Verdict:
    """What one comparison found: the gated point count, the (report, title)
    pairs that contributed points, the regressions, and the single point
    whose ratio moved furthest the bad way, as (severity, report, title, x,
    change) where severity > 1 means movement toward regression."""

    def __init__(self):
        self.points = 0
        self.tables = set()
        self.regressions = []
        self.worst = None

    def line(self):
        """The machine-greppable one-line verdict the CI log ends on."""
        worst_txt = "no movement"
        if self.worst is not None:
            _, name, title, x, change = self.worst
            worst_txt = f"worst {change:.2f}x at {name} | {title} | x={x}"
        verdict = (
            f"FAIL ({len(self.regressions)} regression(s))" if self.regressions else "PASS"
        )
        return (
            f"summary: {self.points} points across {len(self.tables)} "
            f"tables gated; {worst_txt}; {verdict}"
        )


def compare(old_dir, new_dir, numerator, denominator, out=sys.stdout):
    """Gates every report both directories hold and returns a Verdict.

    Reports, gated tables and points present in only one of {baseline,
    fresh} surface as explicit info lines: a new scenario is visibly ungated
    until its first baseline lands, it never silently dodges the gate; a
    vanished one is visible too.
    """
    verdict = Verdict()

    def names(d):
        return {os.path.basename(p) for p in glob.glob(os.path.join(d, "BENCH_*.json"))}

    def say(*parts):
        print("  " + " | ".join(str(p) for p in parts), file=out)

    new_names = names(new_dir)
    old_names = names(old_dir)
    for name in sorted(old_names - new_names):
        say(f"{name}: removed (present in baseline only, nothing to gate)")
    for name in sorted(new_names):
        if name not in old_names:
            say(f"{name}: new report (no baseline yet, ungated this run)")
            continue
        with open(os.path.join(old_dir, name)) as f:
            old_report = json.load(f)
        with open(os.path.join(new_dir, name)) as f:
            new_report = json.load(f)
        direction = {}
        for t in new_report.get("tables", []):
            if t.get("better") in DIRECTIONS:
                direction[t["title"]] = t["better"]
            else:
                say(name, f"{t['title']}: no \"better\" direction for primary metric "
                          f"'{t['primary_metric']}'; table not gated")
        old_titles = {t["title"] for t in old_report.get("tables", [])}
        new_titles = {t["title"] for t in new_report.get("tables", [])}
        for title in sorted(direction.keys() - old_titles):
            say(name, f"{title}: new table (no baseline yet, ungated this run)")
        for title in sorted(old_titles - new_titles):
            say(name, f"{title}: table removed (present in baseline only)")

        old_ratios = ratios(old_report, direction, numerator, denominator)
        new_ratios = ratios(new_report, direction, numerator, denominator)
        for (title, x), new_ratio in new_ratios.items():
            old_ratio = old_ratios.get((title, x))
            if old_ratio is None:
                # Whole-table novelty is already reported above.
                if title in old_titles:
                    say(name, title, f"x={x}: new point (no baseline ratio, ungated this run)")
                continue
            change = new_ratio / old_ratio
            # Severity puts both directions on one scale: > 1 means the ratio
            # moved toward regression, whichever way "bad" is for the table.
            higher = direction[title] == "higher"
            severity = 1.0 / change if higher else change
            verdict.points += 1
            verdict.tables.add((name, title))
            if verdict.worst is None or severity > verdict.worst[0]:
                verdict.worst = (severity, name, title, x, change)
            regressed = (change < 1.0 - THRESHOLD) if higher else (change > 1.0 / (1.0 - THRESHOLD))
            marker = ""
            if regressed:
                marker = "  <-- REGRESSION"
                verdict.regressions.append((name, title, x, old_ratio, new_ratio, change))
            tag = "" if higher else " [lower-is-better]"
            say(name, title,
                f"x={x}: {numerator}/{denominator} {old_ratio:.3f} -> {new_ratio:.3f} "
                f"({change:.2f}x){tag}{marker}")
        for title, x in sorted(old_ratios.keys() - new_ratios.keys(), key=str):
            say(name, title, f"x={x}: point removed (present in baseline only, nothing to gate)")
    return verdict


def self_test():
    def table(title, rh1, tl2, better="higher", xs=(1, 2, 4)):
        t = {
            "title": title,
            "style": "sweep",
            "x": "threads",
            "primary_metric": "m",
            "series": [
                {"name": name, "points": [{"x": x, "metrics": {"m": v * x}} for x in xs]}
                for name, v in (("RH1-Fast", rh1), ("TL2", tl2))
            ],
        }
        if better is not None:
            t["better"] = better
        return t

    def report(rh1, tl2, ungated_rh1=10, extra=()):
        return {
            "schema": "rhtm-bench-report/v1",
            "scenario": "fig1_rbtree",
            "substrate": "emul",
            "tables": [
                table("Figure 1", rh1, tl2),
                # No "better" field: must never be gated, whichever way its
                # ratio moves.
                table("ungated table", ungated_rh1, 100, better=None),
                *extra,
            ],
        }

    def write(dirname, rep, name="BENCH_fig1_rbtree.json"):
        os.makedirs(dirname, exist_ok=True)
        with open(os.path.join(dirname, name), "w") as f:
            json.dump(rep, f)

    def run(old, new):
        log = io.StringIO()
        return compare(old, new, "RH1-Fast", "TL2", log), log.getvalue()

    with tempfile.TemporaryDirectory() as tmp:
        old_dir, ok_dir, bad_dir = (os.path.join(tmp, d) for d in ("old", "ok", "bad"))
        # Baseline ratio 5.0; "ok" run is globally 3x slower but keeps the
        # ratio (the robustness the gate relies on); "bad" halves the ratio.
        # Both runs swing the ungated table's ratio wildly in both
        # directions — it must stay invisible to the gate.
        write(old_dir, report(rh1=500, tl2=100, ungated_rh1=100))
        write(ok_dir, report(rh1=167, tl2=33, ungated_rh1=10))
        write(bad_dir, report(rh1=250, tl2=100, ungated_rh1=1000))

        v, text = run(old_dir, ok_dir)
        assert v.points == 3 and not v.regressions, text
        assert "ungated table: no \"better\" direction" in text, text
        # The "ok" run keeps the ratio up to integer rounding of 500/3, well
        # inside the threshold's trip point.
        assert v.worst[0] < 1.0 / (1.0 - THRESHOLD), v.worst
        assert v.line().endswith("PASS"), v.line()

        v, text = run(old_dir, bad_dir)
        assert v.points == 3 and len(v.regressions) == 3, text
        assert v.tables == {("BENCH_fig1_rbtree.json", "Figure 1")}, v.tables
        severity, name, _, _, change = v.worst
        assert abs(change - 0.5) < 1e-9 and abs(severity - 2.0) < 1e-9, v.worst
        line = v.line()
        assert "3 points across 1 tables gated" in line, line
        assert "worst 0.50x" in line and "FAIL (3 regression(s))" in line, line

        # A missing baseline file is a skip, not a failure.
        empty = os.path.join(tmp, "empty")
        os.mkdir(empty)
        v, _ = run(empty, ok_dir)
        assert v.points == 0 and not v.regressions

        # A baseline written before tables carried "better" still gates: the
        # direction comes from the fresh report.
        legacy = report(rh1=500, tl2=100)
        for t in legacy["tables"]:
            t.pop("better", None)
        write(os.path.join(tmp, "legacy"), legacy)
        v, text = run(os.path.join(tmp, "legacy"), bad_dir)
        assert v.points == 3 and len(v.regressions) == 3, text
        assert "new table" not in text, text

        # A lower-is-better table (latency, fences, wasted speculation,
        # placement penalty): a rising RH1/TL2 ratio must fail, a falling
        # one (RH1 got cheaper) must pass — the inverse of throughput.
        def cost(rh1):
            return report(rh1=500, tl2=100, extra=[table("cost", rh1, 100, better="lower")])

        write(os.path.join(tmp, "cost_old"), cost(50))
        write(os.path.join(tmp, "cost_bad"), cost(100))
        write(os.path.join(tmp, "cost_good"), cost(25))
        v, text = run(os.path.join(tmp, "cost_old"), os.path.join(tmp, "cost_bad"))
        assert v.points == 6 and len(v.regressions) == 3, text
        assert all(r[1] == "cost" for r in v.regressions), v.regressions
        assert "[lower-is-better]" in text, text
        v, text = run(os.path.join(tmp, "cost_old"), os.path.join(tmp, "cost_good"))
        assert v.points == 6 and not v.regressions, text

        # New / removed reports and tables surface as info lines, never as
        # regressions.
        write(old_dir, report(rh1=500, tl2=100), "BENCH_gone_scenario.json")
        write(ok_dir, report(rh1=500, tl2=100), "BENCH_fresh_scenario.json")
        write(ok_dir, report(rh1=167, tl2=33, extra=[table("brand-new table", 5, 1)]))
        write(old_dir, report(rh1=500, tl2=100, extra=[table("retired table", 5, 1)]))
        v, text = run(old_dir, ok_dir)
        assert v.points == 3 and not v.regressions, text
        assert "BENCH_gone_scenario.json: removed" in text, text
        assert "BENCH_fresh_scenario.json: new report" in text, text
        assert "brand-new table: new table" in text, text
        assert "retired table: table removed" in text, text

        # A point present in only one run of a table both runs share surfaces
        # as "new point" / "point removed" and does not count as compared.
        trimmed = report(rh1=500, tl2=100)
        trimmed["tables"][0] = table("Figure 1", 500, 100, xs=(1, 2))
        write(os.path.join(tmp, "sparse"), trimmed)
        v, text = run(os.path.join(tmp, "sparse"), ok_dir)
        assert v.points == 2 and "x=4: new point (no baseline ratio" in text, text
        v, text = run(old_dir, os.path.join(tmp, "sparse"))
        assert v.points == 2 and "x=4: point removed (present in baseline only" in text, text
    print("self-test passed")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("old_dir", nargs="?", help="baseline bench-reports directory")
    parser.add_argument("new_dir", nargs="?", help="fresh bench-reports directory")
    parser.add_argument("--numerator", default="RH1-Fast")
    parser.add_argument("--denominator", default="TL2")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        return self_test()
    if not args.old_dir or not args.new_dir:
        parser.print_usage(sys.stderr)
        return 2
    if not os.path.isdir(args.old_dir):
        # First run ever / expired artifact: nothing to gate against.
        print(f"no baseline directory '{args.old_dir}'; skipping gate")
        return 0

    print(
        f"gating {args.numerator}/{args.denominator} per (scenario, table, x), "
        f"threshold {THRESHOLD:.0%}:"
    )
    verdict = compare(args.old_dir, args.new_dir, args.numerator, args.denominator)
    if verdict.points == 0:
        print("summary: 0 points gated (no overlapping tables/series); PASS")
        return 0
    if verdict.regressions:
        print(f"\n{len(verdict.regressions)} gated regression(s) of "
              f"{verdict.points} compared points:")
        for name, title, x, old_r, new_r, change in verdict.regressions:
            print(f"  {name} | {title} | x={x}: {old_r:.3f} -> {new_r:.3f} ({change:.2f}x)")
    print(verdict.line())
    return 1 if verdict.regressions else 0


if __name__ == "__main__":
    sys.exit(main())
