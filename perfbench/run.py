#!/usr/bin/env python3
"""ROS benchmark runner.

Builds perfbench/ (and the ROS libraries under src/) from source into
.bench_build/perfbench, then runs one workload:

  python3 perfbench/run.py --workload ingest|cold_read --seed N \
      --seconds S --trace 0|1

--trace 0 runs a fixed number of repetitions (scaled by --seconds), each
a fresh process on its own sub-seed derived from --seed, and reports the
end-to-end metrics named in BENCHMARK.json: sim-clock metrics as the mean
over the repetitions (each is exact for its sub-seed, so what varies is
the seed, and a mean averages seed effects best even when they are
bimodal), host-clock metrics as the median over all processes. The first sub-seed is run twice and must reproduce its sim
metrics and sim::EventHasher digest exactly; every sub-seed must produce
different inputs.

--trace 1 alternates untraced and traced repetitions of the first
sub-seed, checks that tracing leaves sim metrics and the digest unchanged,
and reports the per-layer metrics named in BENCHMARK.json (host probes as
medians), plus the tracing overhead. The spans of the last traced run are
written to .bench_build/perfbench/trace-<workload>-<seed>.json.

The last line of stdout is {"correct", "attempted", "failed", "metrics"};
the line before it holds provenance and details. Exit code 0 only if every
operation succeeded and every check passed.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")

# Nominal host seconds of one repetition: the repetition count is
# seconds / nominal, so it (and every sim median) is fixed for a given
# --seconds regardless of how fast the host runs.
NOMINAL_REP_S = {"ingest": 1.6, "cold_read": 2.2, "namespace": 3.0}
MIN_REPS, MAX_REPS = 3, 15
REP_TIMEOUT_S = 150


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def sub_seed(seed, rep):
    return (seed * 1000 + rep) % (1 << 63)


def rep_count(workload, seconds):
    n = int(seconds / NOMINAL_REP_S[workload])
    return max(MIN_REPS, min(MAX_REPS, n))


def median(values):
    return statistics.median(values)


def mean(values):
    return statistics.fmean(values)


def build():
    """Configures and builds the benchmark binary; raises on failure."""
    os.makedirs(BUILD, exist_ok=True)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr,
                   stderr=sys.stderr)


def run_rep(workload, seed, trace=False, trace_file=None, corrupt=False):
    """Runs one repetition; returns its parsed JSON (None on a crash)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--trace", "1" if trace else "0"]
    if trace_file:
        cmd += ["--trace-file", trace_file]
    if corrupt:
        cmd.append("--inject-corruption")
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=REP_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        log(f"perfbench {workload} seed {seed} exited {proc.returncode}")
        log(proc.stderr[-2000:])
        return None
    result = json.loads(lines[-1])
    if proc.returncode == 1:
        log(f"perfbench {workload} seed {seed}: {result['failures']}")
    return result


def sim_view(rep):
    """Everything that must repeat exactly for one seed."""
    sim = {name: m["value"] for name, m in rep["end_to_end"].items()
           if m["clock"] == "sim"}
    return sim, rep["digest"], rep["events"], rep["input_digest"]


def source_digest():
    """sha256 over the sources the benchmark builds (src/ and perfbench/)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cc", ".h", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def declared(kind):
    """(name, unit) pairs of BENCHMARK.json's `kind` metric list."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [(m["name"], m["unit"]) for m in spec[kind]]


def result_line(correct, attempted, failed, values, units):
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units}
    return json.dumps({"correct": bool(correct), "attempted": int(attempted),
                       "failed": int(failed), "metrics": metrics})


def aggregate(reps, every):
    """Run values of the end-to-end metrics: sim-clock ones are the mean
    over the sub-seeds `reps`, the rest the median over all processes
    `every`. Also returns the per-repetition values."""
    values, per_rep = {}, {}
    for name, m in reps[0]["end_to_end"].items():
        pool = reps if m["clock"] == "sim" else every
        per_rep[name] = [rep["end_to_end"][name]["value"] for rep in pool]
        combine = mean if m["clock"] == "sim" else median
        values[name] = combine(per_rep[name])
    return values, per_rep


def run_untraced(args, problems):
    reps = []
    n = rep_count(args.workload, args.seconds)
    for r in range(n):
        rep = run_rep(args.workload, sub_seed(args.seed, r),
                      corrupt=args.inject_corruption and r == 0)
        if rep is None:
            return None, None
        reps.append(rep)
    again = run_rep(args.workload, sub_seed(args.seed, 0),
                    corrupt=args.inject_corruption)
    if again is None:
        return None, None
    if sim_view(again) != sim_view(reps[0]):
        problems.append("same seed gave different sim metrics or digest")
    if len({rep["input_digest"] for rep in reps}) != len(reps):
        problems.append("different seeds gave identical inputs")
    every = reps + [again]
    values, per_rep = aggregate(reps, every)
    details = {
        "reps": len(reps),
        "sub_seeds": [rep["seed"] for rep in reps],
        "per_rep": per_rep,
        "digests": [rep["digest"] for rep in reps],
        "tails": reps[0]["tails"],
        "sources": reps[0]["sources"],
        "params": reps[0]["params"],
        "build": reps[0]["build"],
        "all_end_to_end": values,
    }
    return every, (values, details)


def run_traced(args, problems):
    seed = sub_seed(args.seed, 0)
    trace_file = os.path.join(
        BUILD, f"trace-{args.workload}-{args.seed}.json")
    plain, traced = [], []
    start = time.monotonic()
    while True:
        p = run_rep(args.workload, seed)
        t = run_rep(args.workload, seed, trace=True, trace_file=trace_file)
        if p is None or t is None:
            return None, None
        plain.append(p)
        traced.append(t)
        if sim_view(t) != sim_view(p) or sim_view(p) != sim_view(plain[0]):
            problems.append("tracing changed sim metrics or the digest")
        if (time.monotonic() - start >= args.seconds or
                len(traced) >= MAX_REPS):
            break
    values = {}
    for name, m in traced[0]["per_layer"].items():
        samples = [rep["per_layer"][name]["value"] for rep in traced]
        if m["clock"] != "host" and len(set(samples)) != 1:
            problems.append(f"per-layer {name} differs between runs")
        values[name] = median(samples)
    host = lambda reps: median(
        [rep["end_to_end"]["host_s"]["value"] for rep in reps])
    values["trace.overhead_host_s"] = host(traced) - host(plain)
    details = {"pairs": len(traced), "sub_seed": seed,
               "trace_file": os.path.relpath(trace_file, ROOT),
               "digest": traced[0]["digest"], "params": traced[0]["params"],
               "build": traced[0]["build"]}
    return plain + traced, (values, details)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(NOMINAL_REP_S))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject-corruption", action="store_true",
                        help="self-check: flip one read-back byte in the "
                        "first repetition; the run must then fail")
    args = parser.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 3
    units = declared("per_layer" if args.trace else "end_to_end")

    problems = []
    started = time.monotonic()
    runner = run_traced if args.trace else run_untraced
    reps, outcome = runner(args, problems)
    if reps is None:
        log("a repetition crashed; no result")
        return 4
    values, details = outcome
    missing = [name for name, _ in units if name not in values]
    if missing:
        log(f"metrics missing from the run: {missing}")
        return 5

    attempted = sum(rep["attempted"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    correct = failed == 0 and not problems
    details.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds_run": round(time.monotonic() - started, 3),
        "op_fail_frac": failed / attempted if attempted else 0.0,
        "problems": problems, "git_sha": git_sha(),
        "source_sha256": source_digest(),
    })
    print(json.dumps({"details": details}))
    print(result_line(correct, attempted, failed, values, units))
    for p in problems:
        log(f"check failed: {p}")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
