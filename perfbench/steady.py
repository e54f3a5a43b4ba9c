#!/usr/bin/env python3
"""Steadiness tool: run one workload N times and summarise each metric.

    python3 perfbench/steady.py --workload svc_mixed_paced --runs 10

Each run uses its own seed (--seed-base, --seed-base + 1, ...). For
every metric the tool prints the median, the first and third quartile
(statistics.quantiles(values, n=4)) and the spread (Q3 - Q1) / median.
For end-to-end metrics it compares the spread with the bound in
BENCHMARK.json: "ok" below a third of the bound, "wide" up to the
bound, "TOO WIDE" beyond it (setup_s is judged by its median alone, so
its spread is informational). The last line is a JSON summary that
carries the first run's stamp.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if r.returncode != 0:
        sys.exit(f"steady: run failed (exit {r.returncode}): {' '.join(cmd)}")
    lines = r.stdout.strip().splitlines()
    stamp = next((json.loads(l[len("stamp "):]) for l in lines
                  if l.startswith("stamp ")), {})
    return stamp, json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seed-base", type=int, default=1)
    a = ap.parse_args()
    if a.runs < 2:
        sys.exit("steady: need at least 2 runs")

    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    seconds = a.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    values, stamp, correct = {}, None, True
    for i in range(a.runs):
        s, res = run_once(a.workload, a.seed_base + i, seconds, a.trace)
        stamp = stamp or s
        correct = correct and res["correct"]
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"run {i + 1}/{a.runs} seed {a.seed_base + i}: "
              f"correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}", file=sys.stderr)

    summary = {}
    print(f"{'metric':44} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>8}  verdict")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / abs(med) if med else 0.0
        bound = bounds.get(name)
        verdict = ""
        if bound is not None and name != "setup_s":
            verdict = ("ok" if spread < bound / 3 else
                       "wide" if spread <= bound else "TOO WIDE")
        print(f"{name:44} {med:14.6g} {q1:14.6g} {q3:14.6g} "
              f"{spread:8.4f}  {verdict}")
        summary[name] = {"median": med, "q1": q1, "q3": q3,
                         "spread": spread, "values": vals}
    print(json.dumps({"stamp": stamp, "runs": a.runs, "correct": correct,
                      "metrics": summary}))


if __name__ == "__main__":
    main()
