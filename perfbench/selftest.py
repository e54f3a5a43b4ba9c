#!/usr/bin/env python3
"""Self-test of the benchmark: golden checks, exact counts, bare tree.

    python3 perfbench/selftest.py

Run from the repository root. Checks, on short runs:
  1. every workload verifies all its ops (ok_op_ratio = 1, correct);
  2. one corrupted expected value drops ok_op_ratio below 1;
  3. the exact counts (simulated cycles and instructions, MAC stall
     NOPs, library calls per op, field ops per ECDSA op) repeat bit
     for bit at one seed, and the traced run reproduces them;
  4. a second seed changes only the data-dependent Kaliski-inverse
     cycles of iss_ladder;
  5. in a directory holding only BENCHMARK.json and perfbench/, run.py
     exits nonzero without printing a result.
Exits nonzero on the first failed check.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("iss_ladder", "svc_sign_closed", "svc_mixed_paced")


def run(workload, seed, trace=0, seconds=1, extra=(), cwd=None):
    cmd = [sys.executable, os.path.join(cwd or os.getcwd(), "perfbench",
                                        "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), *extra]
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True, cwd=cwd)
    return r


def result(workload, seed, trace=0, extra=()):
    r = run(workload, seed, trace, extra=extra)
    if r.returncode != 0:
        sys.exit(f"FAIL: {workload} seed {seed} exited {r.returncode}\n"
                 f"{r.stderr}")
    lines = r.stdout.strip().splitlines()
    exact = next(json.loads(l[len("exact "):]) for l in lines
                 if l.startswith("exact "))
    return json.loads(lines[-1]), exact


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        sys.exit(1)


def main():
    for w in WORKLOADS:
        res, _ = result(w, 11)
        check(res["correct"] and res["metrics"]["ok_op_ratio"]["value"] == 1,
              f"{w}: all {res['attempted']} ops verified")
        bad, _ = result(w, 11, extra=["--corrupt-golden"])
        ratio = bad["metrics"]["ok_op_ratio"]["value"]
        check(not bad["correct"] and ratio < 1,
              f"{w}: a corrupted expected value gives ok_op_ratio {ratio:.6f}")

    _, a = result("iss_ladder", 21)
    _, b = result("iss_ladder", 21)
    check(a == b and a, "iss_ladder: exact counts repeat bit for bit")
    traced, t = result("iss_ladder", 21, trace=1)
    check(traced["correct"] and all(t[k] == a[k] for k in a),
          "iss_ladder: the traced run reproduces the simulated counts")
    _, c = result("iss_ladder", 22)
    changed = sorted(k for k in a if a[k] != c[k])
    inv_only = all(".inv." in k or k.startswith("sim_kcycles_") or
                   k.startswith("avr.sim_kinstr_per_op.") for k in changed)
    check(inv_only and any(".inv." in k for k in changed),
          "iss_ladder: a second seed changes only the inverse share "
          f"({', '.join(changed)})")

    for w in ("svc_sign_closed", "svc_mixed_paced"):
        r1, e1 = result(w, 31, trace=1)
        r2, e2 = result(w, 31, trace=1)
        check(r1["correct"] and r2["correct"] and e1 == e2 and e1,
              f"{w}: field.ops counts repeat bit for bit")

    bare = os.path.join(os.getcwd(), ".bench_build", "selftest_bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    r = run("iss_ladder", 1, cwd=bare)
    check(r.returncode != 0 and not r.stdout.strip(),
          "bare tree: run.py exits nonzero without a result")
    shutil.rmtree(bare)
    print("selftest passed")


if __name__ == "__main__":
    main()
