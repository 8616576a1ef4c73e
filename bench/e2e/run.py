#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (bench_e2e) of this checkout.

The build is Release with lockdep off (the ci.sh production
configuration), made from source into .bench_build/ at the checkout root.

One run (the last stdout line is the result JSON):
  python3 bench/e2e/run.py --workload cliques_orkut --seed 1 --seconds 20 --trace 0

Modes over every workload:
  --smoke             5 queries per workload; oracles and exact counts checked
  --check-layers      traced run of each workload; fails when the profiler
                      layer table misattributes samples (see LAYER_CHECKS)
  --set DIR           a run set: --runs runs per workload and seed, written to
                      DIR/runs.jsonl and DIR/BENCH_e2e.json (the schema
                      tools/bench_compare.py reads); with --against ROOT the
                      runs alternate with the checkout at ROOT, whose runs go
                      to DIR/base.jsonl (compare them with compare.py)
  --price-build       the default-build pricing table: lockdep on and the
                      alloc guard compiled out against the release build, and
                      salvage against from-scratch retry, alternating runs
"""
import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

WORKLOADS = ["cliques_orkut", "motifs_youtube", "fsm_mico",
             "queries_concurrent", "keyword_wikidata"]

# Build variants: the release build the ledger gates, and the two compiled-in
# defaults of the tier-1 build that --price-build prices against it.
VARIANTS = {
    "release": {},
    "lockdep-on": {"FRACTAL_ENABLE_LOCKDEP": "ON"},
    "alloc-guard-off": {"FRACTAL_ENABLE_ALLOC_GUARD": "OFF"},
}

# Profiler buckets of the traced run (layers.cc kBucketNames); every sample
# lands in exactly one, so their sum is the sampled time per query.
PROFILER_BUCKETS = [
    "graph.kernels_s", "enumerate.strategy_s", "enumerate.claim_s",
    "pattern.canonical_s", "core.aggregate_s", "core.task_s", "core.driver_s",
    "runtime.codec_s", "runtime.bus_s", "runtime.dispatch_s",
    "runtime.idle_s", "runtime.gate_wait_s", "libc_s", "other_s",
]

# --check-layers: buckets each workload must fill (a renamed symbol would
# silently empty them), and metrics that must read 0 off the only workload
# that crosses the worker boundary.
LAYER_CHECKS = {
    "cliques_orkut": ["graph.kernels_s", "enumerate.strategy_s"],
    "motifs_youtube": ["pattern.canonical_s", "core.aggregate_s",
                       "enumerate.strategy_s"],
    "fsm_mico": ["runtime.codec_s", "runtime.bus_s", "pattern.canonical_s",
                 "core.aggregate_s"],
    "queries_concurrent": ["graph.kernels_s", "runtime.gate_wait_s"],
    "keyword_wikidata": ["graph.reduce_s", "graph.index_s",
                         "runtime.dispatch_s"],
}
CROSS_WORKER_ONLY = ["runtime.codec_s", "runtime.bus_s",
                     "runtime.external_steals", "runtime.bytes_shipped",
                     "runtime.steal_rtt_p50_us"]
MAX_OTHER_SHARE = 0.10
MAX_COVERAGE_ERROR = 0.10

RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build(variant="release"):
    """Configures (once) and builds bench_e2e; returns the binary path."""
    if not (ROOT / "CMakeLists.txt").is_file():
        fail(f"{ROOT} holds no fractal sources to build against")
    build_dir = ROOT / ".bench_build" / variant
    log_path = ROOT / ".bench_build" / f"{variant}.log"
    build_dir.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        defines = {"CMAKE_BUILD_TYPE": "Release",
                   "FRACTAL_ENABLE_LOCKDEP": "OFF",
                   "FRACTAL_ENABLE_ALLOC_GUARD": "ON"}
        defines.update(VARIANTS[variant])
        steps.append(["cmake", "-S", str(ROOT / "bench" / "e2e"),
                      "-B", str(build_dir)] +
                     [f"-D{k}={v}" for k, v in defines.items()])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(build_dir), "--target", "bench_e2e",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log.close()
                sys.stderr.write(Path(log_path).read_text()[-4000:])
                fail(f"build of {variant} failed; see {log_path}", 3)
    return build_dir / "bench_e2e"


def child_env():
    # FRACTAL_* variables switch code paths and outputs (reference
    # extensions, alloc-guard mode, trace export, dataset scale); a run
    # measures the defaults.
    return {k: v for k, v in os.environ.items() if not k.startswith("FRACTAL_")}


def run_binary(binary, args, echo):
    """Runs bench_e2e once; returns (result dict or None, stdout)."""
    try:
        proc = subprocess.run([str(binary)] + args, stdout=subprocess.PIPE,
                              text=True, env=child_env(), cwd=ROOT,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"bench_e2e {' '.join(args)} timed out after {RUN_TIMEOUT_S} s", 4)
    if echo:
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    if proc.returncode != 0 or result is None:
        return None, proc.stdout
    return result, proc.stdout


def bench_args(workload, seed, seconds, trace, extra=()):
    args = ["--workload", workload, "--seed", str(seed), "--seconds",
            str(seconds), "--trace", str(trace)] + list(extra)
    if trace:
        # The traced run's Chrome trace (bench spans) and collapsed profile.
        out_dir = ROOT / ".bench_build" / "traces" / f"{workload}-seed{seed}"
        out_dir.mkdir(parents=True, exist_ok=True)
        args += ["--out-dir", str(out_dir)]
    return args


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def host_context():
    mhz = 0.0
    try:
        for line in open("/proc/cpuinfo"):
            if line.startswith("cpu MHz"):
                mhz = float(line.split(":")[1])
                break
    except OSError:
        pass
    return {"date": datetime.datetime.now().isoformat(timespec="seconds"),
            "host_name": platform.node(), "num_cpus": os.cpu_count(),
            "mhz_per_cpu": round(mhz), "library_build_type": "release"}


def bench_json(records):
    """google-benchmark-shaped medians of the timing metrics, so
    tools/bench_compare.py can diff two run sets unchanged."""
    timings = ["query_p50_s", "query_p90_s", "cpu_per_query_s", "setup_s"]
    benchmarks = []
    for workload in WORKLOADS:
        runs = [r["result"] for r in records if r["workload"] == workload]
        for name in timings:
            values = [r["metrics"][name]["value"] for r in runs
                      if name in r["metrics"]]
            if values:
                benchmarks.append({
                    "name": f"e2e/{workload}/{name}", "run_type": "iteration",
                    "repetitions": len(values),
                    "real_time": statistics.median(values) * 1e3,
                    "time_unit": "ms"})
    return {"context": host_context(), "benchmarks": benchmarks}


# --- modes ----------------------------------------------------------------


def mode_single(args):
    binary = build()
    result, _ = run_binary(binary, bench_args(
        args.workload, args.seed, args.seconds, args.trace), echo=True)
    return 0 if result is not None and result["correct"] else 1


def mode_smoke(args):
    binary = build()
    ok = True
    for workload in WORKLOADS:
        result, out = run_binary(binary, bench_args(
            workload, args.seed, 0, 0, ["--smoke"]), echo=False)
        good = result is not None and result["correct"]
        ok &= good
        summary = (f"attempted={result['attempted']} failed={result['failed']}"
                   if result else "no result")
        print(f"smoke {workload}: {'OK' if good else 'FAIL'} {summary}")
        if not good:
            sys.stdout.write(out)
    return 0 if ok else 1


def mode_check_layers(args):
    binary = build()
    problems = []
    for workload in WORKLOADS:
        result, out = run_binary(binary, bench_args(
            workload, args.seed, args.seconds, 1), echo=False)
        if result is None or not result["correct"]:
            problems.append(f"{workload}: traced run failed")
            sys.stdout.write(out)
            continue
        m = {k: v["value"] for k, v in result["metrics"].items()}
        sampled = sum(m[b] for b in PROFILER_BUCKETS)
        other = m["other_s"] / sampled if sampled > 0 else 1.0
        coverage = m["obs.sample_coverage"]
        print(f"{workload}: other {other:.1%} of samples, coverage "
              f"{coverage:.3f}, " + ", ".join(
                  f"{b}={m[b]:.3g}" for b in LAYER_CHECKS[workload]))
        if other > MAX_OTHER_SHARE:
            problems.append(f"{workload}: other_s is {other:.1%} of samples")
        if abs(coverage - 1) > MAX_COVERAGE_ERROR:
            problems.append(f"{workload}: profiler buckets cover {coverage:.3f}"
                            " of registered threads x traced wall")
        for name in LAYER_CHECKS[workload]:
            if not m[name] > 0:
                problems.append(f"{workload}: {name} got no samples")
        if workload != "fsm_mico":
            for name in CROSS_WORKER_ONLY:
                if m[name] != 0:
                    problems.append(f"{workload}: {name} reads {m[name]}, "
                                    "must read 0 on one worker")
    for problem in problems:
        print(f"check-layers FAIL: {problem}")
    if not problems:
        print("check-layers OK")
    return 1 if problems else 0


def mode_set(args):
    out_dir = Path(args.set)
    out_dir.mkdir(parents=True, exist_ok=True)
    binary = build()
    other = Path(args.against).resolve() if args.against else None
    seeds = [int(s) for s in args.seeds.split(",")]
    records = {"this": [], "base": []}
    ok = True

    def one(side, workload, seed, index):
        nonlocal ok
        cmd_args = bench_args(workload, seed, args.seconds, 0)
        started = datetime.datetime.now().isoformat(timespec="milliseconds")
        if side == "this":
            result, out = run_binary(binary, cmd_args, echo=False)
        else:
            proc = subprocess.run(
                [sys.executable, str(other / "bench" / "e2e" / "run.py")] +
                cmd_args, stdout=subprocess.PIPE, text=True, cwd=other,
                env=child_env(), timeout=RUN_TIMEOUT_S + 900)
            out = proc.stdout
            try:
                result = json.loads(out.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                result = None
        if result is None or not result["correct"]:
            ok = False
            sys.stdout.write(out)
            print(f"{side} {workload} seed {seed} run {index}: FAILED")
            return
        records[side].append({"workload": workload, "seed": seed,
                              "index": index, "started": started,
                              "result": result})
        p50 = result["metrics"]["query_p50_s"]["value"]
        print(f"{side} {workload} seed {seed} run {index}: p50 {p50:.4f} s",
              flush=True)

    for index in range(args.runs):
        for workload in WORKLOADS:
            for seed in seeds:
                sides = ["this"] if other is None else (
                    ["base", "this"] if index % 2 == 0 else ["this", "base"])
                for side in sides:
                    one(side, workload, seed, index)

    for side, name in (("this", "runs.jsonl"), ("base", "base.jsonl")):
        if records[side]:
            with open(out_dir / name, "w") as f:
                for record in records[side]:
                    f.write(json.dumps(record) + "\n")
    with open(out_dir / "BENCH_e2e.json", "w") as f:
        json.dump(bench_json(records["this"]), f, indent=1)
    if other is not None:
        with open(out_dir / "BENCH_e2e.base.json", "w") as f:
            json.dump(bench_json(records["base"]), f, indent=1)
    print(f"wrote {out_dir}/")
    return 0 if ok else 1


def mode_price_build(args):
    binaries = {variant: build(variant) for variant in VARIANTS}
    configs = [(v, b, []) for v, b in binaries.items()]
    configs += [("salvage", binaries["release"], ["--retry-mode", "salvage"])]
    salvage_workloads = {"fsm_mico", "motifs_youtube"}
    rows = {}
    for index in range(args.runs):
        for workload in WORKLOADS:
            order = configs[index % len(configs):] + configs[:index % len(configs)]
            for name, binary, extra in order:
                if name == "salvage" and workload not in salvage_workloads:
                    continue
                result, out = run_binary(binary, bench_args(
                    workload, args.seed, args.seconds, 0, extra), echo=False)
                if result is None or not result["correct"]:
                    sys.stdout.write(out)
                    fail(f"{name} {workload} run {index} failed", 1)
                m = result["metrics"]
                rows.setdefault((workload, name), []).append(
                    (m["query_p50_s"]["value"], m["cpu_per_query_s"]["value"]))
                print(f"{name} {workload} run {index}: "
                      f"p50 {m['query_p50_s']['value']:.4f} s", flush=True)
    print("\n| workload | build | runs | p50 s (q1-q3) | vs release | "
          "cpu/query s | vs release |")
    print("|---|---|---|---|---|---|---|")
    for workload in WORKLOADS:
        base = rows[(workload, "release")]
        base_p50 = statistics.median(x[0] for x in base)
        base_cpu = statistics.median(x[1] for x in base)
        for name, _, _ in configs:
            values = rows.get((workload, name))
            if not values:
                continue
            q1, p50, q3 = quartiles([x[0] for x in values])
            cpu = statistics.median(x[1] for x in values)
            print(f"| {workload} | {name} | {len(values)} | {p50:.4f} "
                  f"({q1:.4f}-{q3:.4f}) | {p50 / base_p50 - 1:+.1%} | "
                  f"{cpu:.4f} | {cpu / base_cpu - 1:+.1%} |")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--check-layers", action="store_true")
    parser.add_argument("--set", metavar="DIR")
    parser.add_argument("--against", metavar="ROOT",
                        help="with --set: alternate with this checkout")
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--seeds", default="1",
                        help="with --set: comma-separated seeds")
    parser.add_argument("--price-build", action="store_true")
    args = parser.parse_args()

    modes = [args.workload is not None, args.smoke, args.check_layers,
             args.set is not None, args.price_build]
    if sum(modes) != 1:
        parser.error("give exactly one of --workload, --smoke, --check-layers, "
                     "--set, --price-build")
    if args.workload:
        return mode_single(args)
    if args.smoke:
        return mode_smoke(args)
    if args.check_layers:
        return mode_check_layers(args)
    if args.set:
        return mode_set(args)
    return mode_price_build(args)


if __name__ == "__main__":
    sys.exit(main())
