#!/usr/bin/env python3
"""The benchmark's own test: short runs that check its contract.

    python3 perfbench/smoke.py

For every workload it checks that
  - an untraced run exits 0 and its last stdout line is the JSON result,
    with exactly the end-to-end metric names and units of BENCHMARK.json;
  - a traced run emits exactly the per-layer metric names and units;
  - a run whose references are deliberately corrupted
    (--corrupt-reference) reports failures (failed > 0, correct false)
    and exits non-zero.
It also checks that the benchmark fails cleanly (non-zero exit, no JSON
result) in a directory holding only BENCHMARK.json and perfbench/.
The daemon workload is not in BENCHMARK.json (see README.md) but is run
here too, so that it keeps working. Exits 0 when every check passes.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = "2"

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(args):
    p = subprocess.run([sys.executable, os.path.join(HERE, "run.py")] + args,
                       cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = p.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return p.returncode, result, p.stdout + p.stderr


def names(entries):
    return {e["name"]: e["unit"] for e in entries}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    e2e, layers = names(bench["end_to_end"]), names(bench["per_layer"])
    workloads = [w["name"] for w in bench["workloads"]] + ["daemon"]
    for wl in workloads:
        base = ["--workload", wl, "--seed", "7", "--seconds", SECONDS]
        for trace, expect in (("0", e2e), ("1", layers)):
            rc, res, out = run(base + ["--trace", trace])
            tag = "%s --trace %s" % (wl, trace)
            check(rc == 0, tag + ": exit 0")
            if res is None:
                check(False, tag + ": JSON result on the last line\n" +
                      out[-2000:])
                continue
            check(set(res) == {"correct", "attempted", "failed", "metrics"},
                  tag + ": result keys")
            check(res["correct"] is True and res["failed"] == 0 and
                  res["attempted"] >= 1, tag + ": correct, nothing failed")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if wl == "daemon" and trace == "0":
                ok = all(got.get(k) == u for k, u in expect.items())
            else:
                ok = got == expect
            check(ok, tag + ": metric names and units "
                  "(missing %s, extra %s)" % (sorted(set(expect) - set(got)),
                                             sorted(set(got) - set(expect))))
        rc, res, _ = run(base + ["--trace", "0", "--corrupt-reference"])
        check(rc != 0, wl + " corrupted reference: non-zero exit")
        check(res is not None and res["failed"] > 0 and
              res["correct"] is False,
              wl + " corrupted reference: failures counted")

    # A directory with only BENCHMARK.json and perfbench/ cannot build.
    bare = os.path.join(ROOT, ".bench_build", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    env_dir = os.path.join(bare, ".bench_build")
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                        workloads[0], "--seed", "1", "--seconds", "1",
                        "--trace", "0"], cwd=bare, capture_output=True,
                       text=True, timeout=180,
                       env=dict(os.environ, CARGO_TARGET_DIR=env_dir))
    last = p.stdout.strip().splitlines()[-1:] or [""]
    check(p.returncode != 0 and not last[0].startswith("{"),
          "bare directory: non-zero exit without a result")
    shutil.rmtree(bare, ignore_errors=True)

    print("%d check(s) failed" % len(failures) if failures
          else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
