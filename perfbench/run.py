#!/usr/bin/env python3
"""Repository benchmark: one workload, one run, one JSON result line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload iss_ladder --seed 1 --seconds 10 --trace 0

The first run configures and builds perfbench/CMakeLists.txt (the
unmodified libraries from src/ plus the driver) under .bench_build/.
--trace 0 prints every end-to-end metric of BENCHMARK.json, --trace 1
every per-layer metric. The last line of standard output is the result
record; the lines before it are notes (run stamp, paper axis, checks).
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("iss_ladder", "svc_sign_closed", "svc_mixed_paced")
# Set-up is repeated in this many extra processes; setup_s is the
# median over them and the measured run.
SETUP_REPEATS = 6
BUILD_JOBS = "3"
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(root):
    src = os.path.join(root, "src", "CMakeLists.txt")
    if not os.path.isfile(src):
        fail(f"library sources not found ({src}); run from a repository checkout")
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if _have("ninja") else []
        _run_quiet(["cmake", "-S", HERE, "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + gen)
    _run_quiet(["cmake", "--build", build_dir, "--target", "perfbench_driver",
                "-j", BUILD_JOBS])
    return os.path.join(build_dir, "perfbench_driver")


def _have(tool):
    return any(os.access(os.path.join(d, tool), os.X_OK)
               for d in os.environ.get("PATH", "").split(os.pathsep))


def _run_quiet(cmd):
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                       text=True)
    if r.returncode != 0:
        sys.stderr.write(r.stdout)
        fail(f"build step failed: {' '.join(cmd)}")


def drive(binary, args):
    r = subprocess.run([binary] + args, stdout=subprocess.PIPE, text=True,
                       timeout=RUN_TIMEOUT_S)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        fail(f"driver exited with {r.returncode}: {' '.join(args)}")
    return lines[:-1], json.loads(lines[-1])


def source_digest(root):
    h = hashlib.sha256()
    for top in ("src", os.path.relpath(HERE, root)):
        for d, dirs, files in os.walk(os.path.join(root, top)):
            dirs.sort()
            for f in sorted(files):
                p = os.path.join(d, f)
                h.update(os.path.relpath(p, root).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def git_sha(root):
    try:
        r = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                           text=True)
        return r.stdout.strip() if r.returncode == 0 else "unknown"
    except OSError:
        return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt-golden", action="store_true",
                    help="self-test: corrupt one expected value")
    a = ap.parse_args()

    root = os.getcwd()
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        fail("BENCHMARK.json not found; run from the repository root")
    with open(spec_path) as fh:
        spec = json.load(fh)
    binary = build(root)

    common = ["--workload", a.workload, "--seed", str(a.seed)]
    setup = []
    if not a.trace:
        for _ in range(SETUP_REPEATS):
            _, res = drive(binary, common + ["--seconds", "1", "--setup-only"])
            setup.append(res["setup_s"])
    args = common + ["--seconds", repr(a.seconds), "--trace", str(a.trace)]
    if a.corrupt_golden:
        args.append("--corrupt-golden")
    notes, res = drive(binary, args)
    setup.append(res["setup_s"])

    stamp = {
        "git_sha": git_sha(root),
        "source_sha256": source_digest(root),
        "build_type": res["build_type"],
        "compiler": res["compiler"],
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "workload": a.workload,
        "seed": a.seed,
        "seconds": a.seconds,
        "trace": a.trace,
        "params": dict(res["params"], setup_processes=len(setup)),
    }
    print("stamp " + json.dumps(stamp, sort_keys=True))
    for line in notes:
        print(line)
    print("exact " + json.dumps(res["exact"], sort_keys=True))

    wanted = spec["per_layer" if a.trace else "end_to_end"]
    measured = dict(res["metrics"])
    if not a.trace:
        measured["setup_s"] = statistics.median(setup)
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if not a.trace and missing:
        fail(f"end-to-end metrics not measured: {missing}")
    if missing:
        print(f"not exercised by {a.workload} (reported as 0): "
              + ", ".join(missing))
    extra = sorted(set(measured) - {m["name"] for m in wanted})
    if extra:
        fail(f"metrics missing from BENCHMARK.json: {extra}")
    metrics = {m["name"]: {"value": measured.get(m["name"], 0.0),
                           "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": bool(res["correct"]),
                      "attempted": int(res["attempted"]),
                      "failed": int(res["failed"]),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
