#!/usr/bin/env python3
"""Bench smoke check for the compiled simulation core.

Reads one or more Google Benchmark JSON reports (bench binaries run with
--benchmark_format=json; a leading text banner is tolerated), merges their
medians and compares them against the medians checked into a BENCH_*.json
baseline:

  * every benchmark listed under "smoke_medians" must be present and at most
    --tolerance (default 25%) slower than its checked-in median; an entry may
    carry its own "tolerance" (fractional, e.g. 0.35) overriding the flag —
    macro benches wobble more than the micro ones;
  * every pair under "smoke_min_speedups" (AST-vs-bytecode expression
    evaluation, bytecode-vs-native) must keep at least its
    minimum speedup — this is machine-independent, so it holds even when
    the runner is faster or slower than the box that produced the absolute
    numbers. A pair may carry an optional "tolerance" (fractional): the
    enforced floor becomes min * (1 - tolerance), for pairs whose ratio
    wobbles on a shared box (e.g. e2e campaign sweeps where the per-step
    win is diluted by kernel and reduction time).

Exit status: 0 ok, 1 regression, 2 usage/parse error.
"""

import argparse
import json
import sys


def load_report(path):
    """Parses benchmark JSON, skipping any banner lines before the '{'."""
    with open(path) as f:
        lines = f.read().splitlines()
    for i, line in enumerate(lines):
        if line.lstrip().startswith("{"):
            return json.loads("\n".join(lines[i:]))
    raise ValueError(f"{path}: no JSON object found")


UNIT_NS = {"ns": 1, "us": 1e3, "ms": 1e6, "s": 1e9}


def medians_ns(report):
    """run_name -> median real_time in ns (single runs count as medians)."""
    out = {}
    singles = {}
    for b in report.get("benchmarks", []):
        scale = UNIT_NS[b.get("time_unit", "ns")]
        name = b.get("run_name", b.get("name", ""))
        if b.get("aggregate_name") == "median":
            out[name] = b["real_time"] * scale
        elif "aggregate_name" not in b:
            singles.setdefault(name, []).append(b["real_time"] * scale)
    for name, times in singles.items():
        if name not in out:
            times.sort()
            out[name] = times[len(times) // 2]
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("report", nargs="+",
                    help="benchmark JSON output(s), merged by benchmark name")
    ap.add_argument("--baseline", default="BENCH_sim.json")
    ap.add_argument("--tolerance", type=float, default=0.25,
                    help="allowed fractional slowdown vs checked-in medians")
    args = ap.parse_args()

    # Failure modes carry stable "[rule]" tags so CI log greps and humans
    # can tell a missing artifact from a corrupted one at a glance.
    try:
        with open(args.baseline) as f:
            baseline = json.load(f)
    except OSError as e:
        print(f"check_bench_smoke: [bench.baseline.missing] cannot read "
              f"baseline '{args.baseline}': {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"check_bench_smoke: [bench.baseline.malformed] "
              f"'{args.baseline}' is not valid JSON: {e}", file=sys.stderr)
        return 2
    if not isinstance(baseline, dict):
        print(f"check_bench_smoke: [bench.baseline.malformed] "
              f"'{args.baseline}' must be a JSON object, got "
              f"{type(baseline).__name__}", file=sys.stderr)
        return 2

    measured = {}
    for report in args.report:
        try:
            measured.update(medians_ns(load_report(report)))
        except OSError as e:
            print(f"check_bench_smoke: [bench.report.missing] cannot read "
                  f"report '{report}': {e}", file=sys.stderr)
            return 2
        except (ValueError, KeyError, TypeError) as e:
            print(f"check_bench_smoke: [bench.report.malformed] "
                  f"'{report}' is not a benchmark JSON report: {e}",
                  file=sys.stderr)
            return 2

    failures = []
    try:
        median_specs = list(baseline.get("smoke_medians", {}).items())
        speedup_specs = list(baseline.get("smoke_min_speedups", {}).items())
    except AttributeError as e:
        print(f"check_bench_smoke: [bench.baseline.malformed] smoke sections "
              f"of '{args.baseline}' must be objects: {e}", file=sys.stderr)
        return 2
    for name, spec in median_specs:
        try:
            expected = spec["real_time"] * UNIT_NS[spec["time_unit"]]
            tolerance = float(spec.get("tolerance", args.tolerance))
        except (KeyError, TypeError, ValueError) as e:
            print(f"check_bench_smoke: [bench.baseline.malformed] "
                  f"smoke_medians['{name}'] needs real_time, a known "
                  f"time_unit and an optional numeric tolerance: {e}",
                  file=sys.stderr)
            return 2
        got = measured.get(name)
        if got is None:
            failures.append(f"{name}: missing from report (crashed or renamed?)")
            continue
        ratio = got / expected
        mark = "FAIL" if ratio > 1 + tolerance else "ok"
        print(f"{mark:4s} {name:42s} {got:12.1f} ns  vs {expected:12.1f} ns "
              f"({ratio - 1:+.0%} vs baseline)")
        if ratio > 1 + tolerance:
            failures.append(f"{name}: {ratio - 1:.0%} slower than checked-in "
                            f"median (tolerance {tolerance:.0%})")

    for key, spec in speedup_specs:
        try:
            before = measured.get(spec["before"])
            after = measured.get(spec["after"])
            minimum = spec["min"] * (1.0 - float(spec.get("tolerance", 0.0)))
        except (KeyError, TypeError, ValueError) as e:
            print(f"check_bench_smoke: [bench.baseline.malformed] "
                  f"smoke_min_speedups['{key}'] needs before/after/min and "
                  f"an optional numeric tolerance: {e}", file=sys.stderr)
            return 2
        if before is None or after is None or after <= 0:
            failures.append(f"{key}: pair {spec['before']} / {spec['after']} "
                            "not measured")
            continue
        speedup = before / after
        mark = "ok" if speedup >= minimum else "FAIL"
        print(f"{mark:4s} speedup {key:34s} {speedup:5.2f}x "
              f"(min {minimum:.2f}x)")
        if speedup < minimum:
            failures.append(f"{key}: speedup {speedup:.2f}x below minimum "
                            f"{minimum:.2f}x")

    if failures:
        print("\nbench smoke FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print("\nbench smoke ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
