#!/usr/bin/env python3
"""Bench-regression gate: compare a BENCH_hotpath.json run against the
committed baseline and fail when any lane regressed beyond tolerance.

Usage:
    tools/check_bench.py --baseline bench/baseline/BENCH_hotpath.baseline.json \
                         --current build-release/bench/BENCH_hotpath.json \
                         [--tolerance 0.25] [--lane-tolerance net_loopback=0.5]

Every numeric leaf in the JSON is classified by key name as
higher-is-better (throughput, speedups) or lower-is-better (latencies,
overhead); counters that only describe the workload (events, records,
host_hw_threads, ...) are ignored. A metric regresses when it moves in
the bad direction by more than the lane's tolerance (default +/-25%).
Improvements never fail the gate.

Wall-clock numbers are compared only between runs whose host
fingerprints (host_hw_threads and host_cpu_model) match; a run or
baseline that records no CPU model matches nothing. Across fingerprints
such a row is printed as "not comparable", with both fingerprints, and
never fails the gate. Ratios taken within one run and deterministic
values (HOST_INDEPENDENT) are gated on every host.

Prints a diff table to stdout, appends the same table as Markdown to
$GITHUB_STEP_SUMMARY when set, optionally writes it to --diff-out for
upload as a CI artifact, and exits 1 on any regression (2 on bad input).
"""

import argparse
import json
import os
import sys

# Key-name suffix -> direction. "up" = higher is better, "down" = lower.
HIGHER_IS_BETTER = (
    "events_per_sec",
    "records_per_sec",
    "rows_per_sec",
    "replay_per_sec",
    "mb_per_sec",
    "speedup",
    "speedup_vs_batch1",
    "compression_ratio",
)
LOWER_IS_BETTER = (
    "_ns",
    "_ms",
    "overhead_pct",
)
# Workload descriptors, not measurements.
IGNORED_KEYS = {
    "host_hw_threads", "quick", "producers", "clients", "window", "batch",
    "events", "records", "fsync_policy",
}
# Key-name suffixes of rows that do not depend on the host: ratios of two
# numbers from the same run, and values the workload determines.
HOST_INDEPENDENT = (
    "speedup_vs_batch1",
    "compression_ratio",
    "overhead_pct",
)

# Lanes where the default tolerance is too tight for a noisy shared
# runner. Latency percentiles and loopback TCP lanes jitter far more than
# in-process throughput does; overhead_pct hovers near zero so relative
# comparison is meaningless without a wide band.
DEFAULT_TOLERANCE = 0.25
LANE_TOLERANCE = {
    "query_latency_ns": 0.60,
    "net_loopback": 0.60,
    "observability_overhead": 1.50,
    "archive_recovery": 0.60,
    # Compaction is fsync-bound (tmp write + rename + manifest commit per
    # block), so its rates jitter like the other disk lanes. The
    # compression ratio itself is deterministic and stays inside the
    # default band regardless.
    "cold_tier": 0.60,
    # CQ fan-out runs thousands of loopback TCP clients against a shared
    # runner's scheduler; push rates and gap percentiles jitter like the
    # other net lanes. The shed lane compares two ~microsecond RTTs, so
    # its overhead percentage needs the same wide band as the
    # observability lane.
    "cq_fanout": 0.60,
    "cq_shed": 1.50,
}


def direction_for(key):
    if key in IGNORED_KEYS:
        return None
    for suffix in HIGHER_IS_BETTER:
        if key == suffix or key.endswith(suffix):
            return "up"
    for suffix in LOWER_IS_BETTER:
        if key.endswith(suffix):
            return "down"
    return None


def host_independent(key):
    return any(key.endswith(suffix) for suffix in HOST_INDEPENDENT)


def fingerprint(doc):
    """(hardware threads, CPU model) of the host a run came from."""
    return (doc.get("host_hw_threads"), doc.get("host_cpu_model"))


def fingerprint_text(fp):
    threads, model = fp
    return "%s hw threads, %s" % (
        "?" if threads is None else threads,
        "CPU model not recorded" if model is None else model)


def same_host(baseline, current):
    base_fp = fingerprint(baseline)
    return None not in base_fp and base_fp == fingerprint(current)


def row_label(item):
    """Discriminator for a list entry, e.g. 'batch=256' or 'producers=4'."""
    for k in ("producers", "clients", "window", "batch", "fsync_policy"):
        if isinstance(item, dict) and k in item:
            return "%s=%s" % (k, item[k])
    return None


def flatten(doc):
    """Yield (lane, metric_path, key, value) for every numeric leaf."""
    for lane, node in doc.items():
        if direction_for(lane) is None and not isinstance(node, (dict, list)):
            continue
        if isinstance(node, dict):
            for k, v in node.items():
                if isinstance(v, (int, float)) and not isinstance(v, bool):
                    yield lane, "%s.%s" % (lane, k), k, float(v)
        elif isinstance(node, list):
            for i, item in enumerate(node):
                if not isinstance(item, dict):
                    continue
                label = row_label(item) or str(i)
                for k, v in item.items():
                    if isinstance(v, (int, float)) and not isinstance(v, bool):
                        yield lane, "%s[%s].%s" % (lane, label, k), k, float(v)
        elif isinstance(node, (int, float)) and not isinstance(node, bool):
            yield lane, lane, lane, float(node)


def compare(baseline, current, default_tol, lane_tols):
    comparable_host = same_host(baseline, current)
    base = {path: (lane, key, v) for lane, path, key, v in flatten(baseline)}
    cur = {path: (lane, key, v) for lane, path, key, v in flatten(current)}
    rows = []          # (path, base, cur, delta_pct, tol_pct, verdict)
    regressions = []
    # A lane that exists in the baseline but not in the run at all is a
    # hard failure, not a skip: a bench that silently stopped emitting a
    # lane (renamed, crashed mid-run, compiled out) would otherwise pass
    # the gate with a shrinking surface. Checked at the lane level so even
    # lanes whose keys are all workload descriptors are covered.
    for lane in sorted(set(baseline) - set(current)):
        path = "%s (lane missing from run)" % lane
        rows.append((path, None, None, None, None, "LANE MISSING"))
        regressions.append(path)
    for path in sorted(base):
        lane, key, bval = base[path]
        dirn = direction_for(key)
        if dirn is None:
            continue
        if path not in cur:
            rows.append((path, bval, None, None, None, "MISSING"))
            regressions.append(path)
            continue
        cval = cur[path][2]
        tol = lane_tols.get(lane, default_tol)
        if bval == 0.0:
            delta = 0.0 if cval == 0.0 else float("inf")
        else:
            delta = (cval - bval) / abs(bval)
        if not comparable_host and not host_independent(key):
            rows.append((path, bval, cval, delta * 100.0, None,
                         "not comparable"))
            continue
        # Regression = moved in the bad direction past tolerance.
        bad = delta < -tol if dirn == "up" else delta > tol
        verdict = "REGRESSED" if bad else "ok"
        if bad:
            regressions.append(path)
        rows.append((path, bval, cval, delta * 100.0, tol * 100.0, verdict))
    for path in sorted(set(cur) - set(base)):
        lane, key, cval = cur[path]
        if direction_for(key) is None:
            continue
        rows.append((path, None, cval, None, None, "new"))
    return rows, regressions


def fmt(v):
    if v is None:
        return "-"
    if abs(v) >= 1000:
        return "%.0f" % v
    return "%.3g" % v


def host_lines(baseline, current):
    return ["baseline host: %s" % fingerprint_text(fingerprint(baseline)),
            "current host:  %s" % fingerprint_text(fingerprint(current))]


def render_text(rows, hosts):
    lines = hosts + ["%-52s %14s %14s %9s %6s %14s" % (
        "metric", "baseline", "current", "delta", "tol", "verdict")]
    for path, b, c, d, t, verdict in rows:
        lines.append("%-52s %14s %14s %9s %6s %14s" % (
            path, fmt(b), fmt(c),
            "-" if d is None else "%+.1f%%" % d,
            "-" if t is None else "%.0f%%" % t, verdict))
    return "\n".join(lines)


def render_markdown(rows, regressed, hosts):
    out = ["## Bench regression gate: %s" %
           ("FAIL" if regressed else "PASS"), ""]
    out += ["- %s" % line for line in hosts]
    out += ["",
            "| metric | baseline | current | delta | tol | verdict |",
            "|---|---:|---:|---:|---:|---|"]
    for path, b, c, d, t, verdict in rows:
        mark = "**%s**" % verdict if verdict == "REGRESSED" else verdict
        out.append("| `%s` | %s | %s | %s | %s | %s |" % (
            path, fmt(b), fmt(c),
            "-" if d is None else "%+.1f%%" % d,
            "-" if t is None else "%.0f%%" % t, mark))
    return "\n".join(out) + "\n"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--baseline", required=True)
    ap.add_argument("--current", required=True)
    ap.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                    help="default fractional tolerance (0.25 = 25%%)")
    ap.add_argument("--lane-tolerance", action="append", default=[],
                    metavar="LANE=FRAC",
                    help="override tolerance for one top-level lane")
    ap.add_argument("--diff-out", help="also write the Markdown table here")
    args = ap.parse_args()

    try:
        with open(args.baseline) as f:
            baseline = json.load(f)
        with open(args.current) as f:
            current = json.load(f)
    except (OSError, ValueError) as e:
        print("check_bench: cannot load inputs: %s" % e, file=sys.stderr)
        return 2

    lane_tols = dict(LANE_TOLERANCE)
    for spec in args.lane_tolerance:
        lane, _, frac = spec.partition("=")
        try:
            lane_tols[lane] = float(frac)
        except ValueError:
            print("check_bench: bad --lane-tolerance %r" % spec,
                  file=sys.stderr)
            return 2

    rows, regressions = compare(baseline, current, args.tolerance, lane_tols)
    if not rows:
        print("check_bench: no comparable metrics found", file=sys.stderr)
        return 2

    hosts = host_lines(baseline, current)
    print(render_text(rows, hosts))
    md = render_markdown(rows, bool(regressions), hosts)
    summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary:
        with open(summary, "a") as f:
            f.write(md)
    if args.diff_out:
        with open(args.diff_out, "w") as f:
            f.write(md)

    if regressions:
        print("\ncheck_bench: %d regression(s):" % len(regressions))
        for path in regressions:
            print("  " + path)
        return 1
    skipped = sum(1 for row in rows if row[5] == "not comparable")
    if skipped:
        print("\ncheck_bench: all comparable lanes within tolerance; %d "
              "wall-clock row(s) not comparable across hosts" % skipped)
    else:
        print("\ncheck_bench: all lanes within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
