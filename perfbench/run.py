#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a source checkout.  The first form builds
perfbench/perfbench.exe with dune (into _build/), runs it with the given
arguments and passes its output through: the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  Temporary crash images go to .perfbench/ inside the checkout,
and a traced run writes its spans to .perfbench/spans-NAME.jsonl.

--selftest runs every workload at quick size, traced and untraced, and
checks the output against BENCHMARK.json (names, units, correctness,
and repeatable virtual metrics and allocation on a repeated seed).
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
WORK = os.path.join(ROOT, ".perfbench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
# Metrics that must repeat at one seed: virtual ones bit for bit,
# allocation to within a few words (temporary file names and host-clock
# readings vary).
REPEAT = {"virtual_ops_per_s": 0.0, "alloc_words_per_op": 1e-4}


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("no %s in %s: run from the root of a full source checkout" % (need, ROOT))
    # Keep the compiler's temporary files and dune's cache inside the
    # checkout.
    tmp = os.path.join(WORK, "build-tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp,
               XDG_CACHE_HOME=os.path.join(WORK, "cache"))
    try:
        proc = subprocess.run(
            ["dune", "build", "--root", ROOT, "./perfbench/perfbench.exe"],
            cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except FileNotFoundError:
        fail("dune is not installed")
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if proc.returncode != 0 or not os.path.exists(EXE):
        fail("build failed")


def run(args, workload=None, trace=False):
    """Run the benchmark binary; return (exit code, stdout text)."""
    tmp = os.path.join(WORK, "tmp-%d" % os.getpid())
    os.makedirs(tmp, exist_ok=True)
    cmd = [EXE] + args
    if trace and workload:
        cmd += ["--spans", os.path.join(WORK, "spans-%s.jsonl" % workload)]
    env = dict(os.environ, TMPDIR=tmp)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S, text=True)
        return proc.returncode, proc.stdout
    except subprocess.TimeoutExpired:
        fail("benchmark run timed out")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def last_json(out):
    lines = [l for l in out.splitlines() if l.strip()]
    if not lines:
        raise ValueError("no output")
    return json.loads(lines[-1])


def selftest():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for w in spec["workloads"]:
        name = w["name"]
        seen = []
        for trace in (False, False, True):
            args = ["--workload", name, "--seed", "1", "--seconds", "1",
                    "--trace", "1" if trace else "0", "--quick"]
            code, out = run(args, name, trace)
            try:
                res = last_json(out)
            except ValueError as e:
                problems.append("%s trace=%d: unreadable result (%s)" % (name, trace, e))
                continue
            if code != 0 or sorted(res) != ["attempted", "correct", "failed", "metrics"]:
                problems.append("%s trace=%d: exit %d, keys %s" % (name, trace, code, sorted(res)))
                continue
            if not res["correct"] or res["failed"] != 0 or res["attempted"] < 1:
                problems.append("%s trace=%d: correct=%s failed=%s" % (name, trace, res["correct"], res["failed"]))
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want[trace]:
                problems.append("%s trace=%d: metric names/units differ from BENCHMARK.json" % (name, trace))
            if not trace:
                seen.append({k: res["metrics"][k]["value"] for k in REPEAT})
        if len(seen) == 2 and any(abs(seen[0][k] - seen[1][k]) > tol * abs(seen[0][k]) for k, tol in REPEAT.items()):
            problems.append("%s: metrics differ between runs at one seed: %s" % (name, seen))
        print("selftest %s: %s" % (name, "ok" if not problems else "problems so far"), file=sys.stderr)
    if problems:
        for p in problems:
            print("SELFTEST FAIL: " + p, file=sys.stderr)
        sys.exit(1)
    print("SELFTEST OK")


def main():
    argv = sys.argv[1:]
    if argv == ["--selftest"]:
        build()
        selftest()
        return
    opts = dict(zip(argv[0::2], argv[1::2]))
    if len(argv) % 2 or set(opts) != {"--workload", "--seed", "--seconds", "--trace"}:
        fail("usage: run.py --workload NAME --seed N --seconds S --trace 0|1 (or --selftest)")
    build()
    code, out = run(argv, opts["--workload"], opts["--trace"] == "1")
    sys.stdout.write(out)
    sys.stdout.flush()
    sys.exit(code)


if __name__ == "__main__":
    main()
