#!/usr/bin/env python3
"""Graft benchmark entry point.

Builds graft_perfbench from the repository's sources (Release), runs one
workload in its own process, checks that the result line names exactly the
metrics BENCHMARK.json lists, and relays the output. Run from the repository
root:

    python3 perfbench/run.py --workload debug-run --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench,
relative to the repository root). The exit status is 0 only for a correct,
well-formed result.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("debug-run", "debug-read")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not path.is_absolute():
        path = ROOT / path
    return path / "perfbench"


def run_group(cmd, timeout, **kwargs):
    """Runs `cmd` in its own process group; on timeout kills the whole group
    and waits for it, so no compiler or benchmark process outlives the run."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out


def build(bdir):
    """Configures once, then (re)builds graft_perfbench; output goes to stderr.
    Compiler temporaries stay inside the build tree."""
    tmp = bdir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    steps = [["cmake", "--build", str(bdir), "--target", "graft_perfbench",
              "-j", "3"]]
    if not (bdir / "CMakeCache.txt").exists():
        steps.insert(0, ["cmake", "-S", str(HERE), "-B", str(bdir),
                         "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        code, _ = run_group(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr,
                            stderr=sys.stderr, env=env)
        if code != 0:
            raise subprocess.CalledProcessError(code, cmd)
    return bdir / "graft_perfbench"


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    """Returns an error string, or None when the result line is well formed."""
    try:
        result = json.loads(line)
    except ValueError:
        return "last line is not JSON"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys are %s" % sorted(result)
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    want = expected_metrics(trace)
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        return "metrics differ from BENCHMARK.json: missing %s, extra %s, " \
               "units %s" % (missing, extra,
                             sorted(n for n in want
                                    if n in got and got[n] != want[n]))
    if not all(isinstance(m.get("value"), (int, float))
               for m in result["metrics"].values()):
        return "a metric value is not a number"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test scale (small graphs)")
    parser.add_argument("--corrupt", metavar="OUTPUT",
                        help="self-test: corrupt one checked output "
                             "(debug-run: digest, ranks; "
                             "debug-read: lookup, search)")
    args = parser.parse_args()

    bdir = build_dir()
    try:
        binary = build(bdir)
    except (subprocess.SubprocessError, OSError) as err:
        print("perfbench: build failed: %s" % err, file=sys.stderr)
        return 1

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = bdir / "spans"
        spans.mkdir(exist_ok=True)
        cmd += ["--spans-out",
                str(spans / ("%s-%d.json" % (args.workload, args.seed)))]
    if args.tiny:
        cmd.append("--tiny")
    if args.corrupt:
        cmd += ["--corrupt", args.corrupt]
    try:
        code, stdout = run_group(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE,
                                 text=True, cwd=ROOT)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %ds" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    lines = stdout.splitlines()
    error = check_result(lines[-1], args.trace) if lines else "no output"
    if error is not None:
        sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
        print("perfbench: %s" % error, file=sys.stderr)
        return 1
    sys.stdout.write(stdout)
    return code


if __name__ == "__main__":
    sys.exit(main())
