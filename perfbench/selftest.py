#!/usr/bin/env python3
"""Self-test of the Graft benchmark.

Runs every workload of BENCHMARK.json at tiny scale, untraced and traced, and
asserts that each run passes its output checks and prints exactly the metric
names BENCHMARK.json lists, in order. Then runs each workload once with one
checked output deliberately corrupted and asserts that the run reports the
failure and exits non-zero: on debug-run a flipped trace digest and a flipped
rank bit, on debug-read a wrong expected vertex value and a wrong expected
search total. Run from the repository root:

    python3 perfbench/selftest.py
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CORRUPTIONS = {"debug-run": ("digest", "ranks"),
               "debug-read": ("lookup", "search")}


def run(workload, trace, corrupt=None):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"]
    if corrupt:
        cmd += ["--corrupt", corrupt]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, cwd=ROOT, timeout=900)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return proc, result


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {0: [m["name"] for m in spec["end_to_end"]],
             1: [m["name"] for m in spec["per_layer"]]}
    failures = []

    def expect(ok, what):
        print("%s  %s" % ("ok  " if ok else "FAIL", what))
        if not ok:
            failures.append(what)

    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc, result = run(workload, trace)
            label = "%s trace=%d" % (workload, trace)
            expect(proc.returncode == 0 and result is not None,
                   "%s exits 0 with a result" % label)
            if result is None:
                print(proc.stderr[-2000:], file=sys.stderr)
                continue
            expect(result["correct"] and result["failed"] == 0
                   and result["attempted"] > 0,
                   "%s passes its checks" % label)
            expect(list(result["metrics"]) == names[trace],
                   "%s prints the BENCHMARK.json metrics" % label)
        for corrupt in CORRUPTIONS[workload]:
            proc, result = run(workload, 0, corrupt)
            expect(proc.returncode != 0 and result is not None
                   and not result["correct"] and result["failed"] >= 1,
                   "%s reports a corrupted %s as a failure"
                   % (workload, corrupt))

    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
