#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds the
simulator and both benchmark binaries from source into $CARGO_TARGET_DIR
(default .bench_build); later runs only re-check the build.

--trace 0 runs the untraced binary (five deployments, pooled) and reports
every end-to-end metric of BENCHMARK.json. --trace 1 runs the untraced and
the traced binary over the same shorter window and reports every per-layer
metric, including obs.trace_overhead_ratio (traced wall / untraced wall).

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. A failed correctness check, build or run exits non-zero
without printing it.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Deployments per untraced run: set-up time and the wall cost per
# transaction are medians over them; counts and histograms are pooled.
E2E_REPS = 5
# Share of the --seconds window each binary of a traced run measures.
TRACE_WINDOW_SCALE = 0.4
# Wall-clock metrics the traced run takes from its untraced twin, since the
# traced binary's own timings include span overhead.
UNTRACED_LAYERS = ("bench.sim_speed_x", "workload.batch_us_per_tx",
                   "core.submit_us_per_tx")
# Worker threads of the simulator's compute pool. The driver fixes the same
# value; pinning the environment override keeps a stray PORYGON_THREADS
# from changing what is measured.
WORKER_THREADS = "0"
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    path = os.path.realpath(os.path.join(ROOT, target, "perfbench"))
    if os.path.commonpath([path, os.path.realpath(ROOT)]) != os.path.realpath(ROOT):
        path = os.path.join(ROOT, ".bench_build", "perfbench")
    return path


def build(out):
    for needed in ("src/core/system.h", "bench/bench_util.h"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail(f"{needed} not found: run from a checkout of the repository")
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target",
                  "perfbench_driver", "perfbench_traced"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))


def run_binary(path, args):
    env = dict(os.environ, PORYGON_THREADS=WORKER_THREADS)
    try:
        proc = subprocess.run([path] + args, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{os.path.basename(path)} timed out")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{os.path.basename(path)} exited {proc.returncode}")
    return json.loads(lines[-1])


def describe(spec, value):
    arrow = "higher is better" if spec["better"] == "higher" else "lower is better"
    return f"  {spec['name']:<42} {value:>16.6g} {spec['unit']:<12} ({arrow})"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    out = build_dir()
    build(out)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", repr(args.seconds)]

    if args.trace == 0:
        res = run_binary(os.path.join(out, "perfbench_driver"),
                         common + ["--reps", str(E2E_REPS)])
        values = res["e2e"]
        specs = bench["end_to_end"]
    else:
        window = ["--reps", "1", "--window-scale", repr(TRACE_WINDOW_SCALE)]
        base = run_binary(os.path.join(out, "perfbench_driver"), common + window)
        res = run_binary(os.path.join(out, "perfbench_traced"), common + window)
        values = dict(res["layers"])
        for name in UNTRACED_LAYERS:
            values[name] = base["layers"][name]
        values["obs.trace_overhead_ratio"] = (res["window_wall_s"] /
                                              base["window_wall_s"])
        specs = bench["per_layer"]

    missing = [s["name"] for s in specs if s["name"] not in values]
    if missing:
        fail("driver did not report: " + ", ".join(missing))

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} worker_threads={res['worker_threads']} "
          f"window_sim_s={res['window_sim_s']:.6g}")
    print(f"  latency samples {res['latency_samples']}, "
          f"rejected at submission {res['rejected']}")
    for s in specs:
        print(describe(s, values[s["name"]]))
    result = {
        "correct": True,
        "attempted": res["attempted"],
        "failed": res["rejected"],
        "metrics": {s["name"]: {"value": values[s["name"]], "unit": s["unit"]}
                    for s in specs},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
