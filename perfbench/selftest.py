#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark.

For every workload, at a tiny size:
  - an untraced run agrees with the reference model and prints exactly the
    end-to-end metrics BENCHMARK.json names;
  - a traced run prints exactly the per-layer metrics, its summed replayed
    stage medians stay within the traced RTT median for every operation
    type, and it writes a Chrome trace that parses;
  - the same seed gives the same input digest, another seed another one;
  - a run that corrupts one answer (or one acked count) before checking it
    is rejected: correct=false, a failed operation, non-zero exit.

    python3 perfbench/selftest.py        # from the repository root
"""
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ingest", "query", "monitor")


def run(workload, seed, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "1", "--trace",
           str(trace), "--tiny"] + list(extra)
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=170)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stdout


def digest(stdout):
    m = re.search(r"^input_digest=(\w+)$", stdout, re.M)
    return m.group(1) if m else None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    e2e = {m["name"] for m in bench["end_to_end"]}
    layer = {m["name"] for m in bench["per_layer"]}
    failures = []

    def check(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    for w in WORKLOADS:
        rc, res, out = run(w, 7, 0)
        check(rc == 0 and res and res["correct"] and res["failed"] == 0,
              f"{w}: tiny run agrees with the reference model")
        check(res is not None and set(res["metrics"]) == e2e,
              f"{w}: --trace 0 prints every end-to-end metric")
        first_digest = digest(out)

        rc, res, out = run(w, 7, 1)
        check(rc == 0 and res and res["correct"],
              f"{w}: traced tiny run agrees with the reference model")
        check(res is not None and set(res["metrics"]) == layer,
              f"{w}: --trace 1 prints every per-layer metric")
        stages = re.findall(r"^stages \w+: rtt_p50=.*$", out, re.M)
        check(stages and not any("STAGES EXCEED RTT" in s for s in stages),
              f"{w}: replayed stages sum within the traced RTT median")
        check(first_digest is not None and digest(out) == first_digest,
              f"{w}: same seed, same input digest")
        m = re.search(r"^trace (\S+) ", out, re.M)
        parsed = False
        if m:
            with open(m.group(1)) as f:
                parsed = len(json.load(f)["traceEvents"]) > 0
        check(parsed, f"{w}: Chrome trace parses")

        rc, res, out = run(w, 8, 0)
        check(digest(out) not in (None, first_digest),
              f"{w}: another seed, another input digest")

        rc, res, out = run(w, 7, 0, "--corrupt")
        check(rc != 0 and res is not None and not res["correct"] and
              res["failed"] >= 1,
              f"{w}: a corrupted answer is rejected")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
