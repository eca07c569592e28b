#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny size.

Run from the repository root:

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it checks that
  - an untraced run prints every end-to-end metric exactly once, with the
    unit BENCHMARK.json gives, and a traced run every per-layer metric;
  - every job and session matches its FastSim reference (failed == 0,
    ok_pct == 100) and the traced run's determinism checks pass;
  - a deliberately corrupted reference digest is counted as a failed
    operation (the correctness gate bites);
and that the benchmark refuses to run, printing no result, in a directory
holding only BENCHMARK.json and perfbench/.
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join("perfbench", "run.py")]

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def no_dup_keys(pairs):
    keys = [k for k, _ in pairs]
    if len(keys) != len(set(keys)):
        raise ValueError("duplicate keys: %s" % keys)
    return dict(pairs)


def run(args, cwd=ROOT, timeout=300):
    p = subprocess.run(RUN + args, cwd=cwd, capture_output=True, text=True,
                       timeout=timeout)
    lines = p.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1], object_pairs_hook=no_dup_keys)
        except ValueError:
            result = None
    return p, result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    lists = {0: bench["end_to_end"], 1: bench["per_layer"]}
    for w in bench["workloads"]:
        name = w["name"]
        for trace in (0, 1):
            p, r = run(["--workload", name, "--seed", "1", "--seconds", "1",
                        "--trace", str(trace), "--tiny"])
            tag = "%s trace=%d" % (name, trace)
            check(p.returncode == 0 and r is not None,
                  tag + ": exits 0 with a result line")
            if r is None:
                sys.stderr.write(p.stderr[-2000:])
                continue
            check(set(r) == {"correct", "attempted", "failed", "metrics"},
                  tag + ": result has exactly the four keys")
            want = {m["name"]: m["unit"] for m in lists[trace]}
            got = r["metrics"]
            check(set(got) == set(want),
                  tag + ": every listed metric, no other "
                  "(missing %s, extra %s)" % (sorted(set(want) - set(got)),
                                              sorted(set(got) - set(want))))
            check(all(got[k]["unit"] == want[k] for k in got if k in want),
                  tag + ": units match BENCHMARK.json")
            check(all(isinstance(v["value"], (int, float)) and
                      math.isfinite(v["value"]) for v in got.values()),
                  tag + ": values are finite numbers")
            check(r["correct"] is True and r["failed"] == 0 and
                  r["attempted"] >= 1,
                  tag + ": correct, %d attempted, %d failed"
                  % (r["attempted"], r["failed"]))
            if trace == 0:
                check(got["ok_pct"]["value"] == 100,
                      tag + ": ok_pct is 100 (failed_pct 0)")
        p, r = run(["--workload", name, "--seed", "1", "--seconds", "1",
                    "--trace", "0", "--tiny", "--corrupt-ref"])
        check(r is not None and r["failed"] >= 1 and r["correct"] is False,
              name + ": a corrupted reference digest counts as failed (%s)"
              % (None if r is None else "%d of %d failed"
                 % (r["failed"], r["attempted"])))

    # A directory with only BENCHMARK.json and perfbench/ must be refused.
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    p, r = run(["--workload", bench["workloads"][0]["name"], "--seed", "1",
                "--seconds", "1", "--trace", "0"], cwd=bare, timeout=180)
    check(p.returncode != 0 and r is None,
          "bare directory: non-zero exit (%d), no result" % p.returncode)
    shutil.rmtree(bare, ignore_errors=True)

    print("%d check(s) failed" % len(failures) if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
