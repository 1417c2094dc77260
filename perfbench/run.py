#!/usr/bin/env python3
"""Benchmark driver: build the repository's perfbench binary and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 20 --trace 0

The binary is built from source (Release) under .bench_build/. The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: with --trace 0 every end_to_end metric of
BENCHMARK.json, with --trace 1 every per_layer metric. The lines before it
describe the run for a human reader: host and build context, the
workload's own metric names with units and sample counts, and for traced
runs each span's self time and the path of the Chrome trace file.

    python3 perfbench/run.py --write-reference [--workload W] --seed 1 [--seed 2 ...]

records the output digest of every workload (or of W) for the given seeds
into perfbench/reference.json; a measured run must reproduce it.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("campaign", "study", "serve", "longitudinal")
PREPARED = ("study", "serve")  # inputs made before timing, in their own process
BUILD_DIR = os.path.join(".bench_build", "perfbench")
WORK_DIR = os.path.join(".bench_build", "perfbench-work")
TRACE_DIR = os.path.join(".bench_build", "perfbench-traces")
REFERENCE = os.path.join(HERE, "reference.json")
# The exec pool width. On a shared 4-vCPU VM a pool waits on whichever
# lane the hypervisor has descheduled, and every busy lane invites more
# of that: one seed's campaign read 6.2, 17.7, 20.2 and 8.5 s at width 4
# against 8.1, 8.5, 7.0 and 7.4 s at width 2; at width 2 another seed's
# campaigns read 1.73-1.82 s with 9-13% of the VM's CPU time stolen,
# against 1.48-1.69 s and 1-3% stolen at width 1.
WIDTH = 1
# Parallel jobs for the build and for making the untimed inputs.
MAX_JOBS = 4
RUN_TIMEOUT_S = 170
# Prepared campaigns are kept between runs (one entry per seed) under
# this budget; the cache's own LRU eviction enforces it.
CACHE_BUDGET_BYTES = 256 << 20


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def jobs():
    return max(1, min(MAX_JOBS, os.cpu_count() or 1))


def build(jobs):
    """Configure (once) and build the perfbench target; returns the binary path."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(".bench_build", "perfbench-build.log")
    with open(log_path, "a") as log:
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                shutil.rmtree(BUILD_DIR, ignore_errors=True)
                fail("configure failed; see " + log_path, 1)
        cmd = ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", str(jobs)]
        if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
            fail("build failed; see " + log_path, 1)
    return os.path.join(BUILD_DIR, "perfbench")


def source_digest():
    """sha256 over the program's sources, standing in for a commit id."""
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for p in sorted(paths):
            h.update(p.encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    if not os.path.isdir(".git") or not shutil.which("git"):
        return "none (not a git checkout)"
    r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
    return r.stdout.strip() or "unknown"


def run_binary(binary, workload, seed, seconds, trace):
    work = os.path.join(WORK_DIR, workload)
    base = [binary, "--workload", workload, "--seed", str(seed), "--work-dir", work,
            "--seconds", str(seconds)]
    if workload in PREPARED:
        # Inputs are untimed and the same at any width: make them on every CPU.
        env = dict(os.environ, DFV_CACHE_MAX_BYTES=str(CACHE_BUDGET_BYTES))
        r = subprocess.run(base + ["--width", str(jobs()), "--prepare"], env=env,
                           timeout=RUN_TIMEOUT_S)
        if r.returncode:
            fail("preparing %s inputs failed (exit %d)" % (workload, r.returncode), 1)
    out = os.path.join(work, "result-trace%d.json" % trace)
    cmd = base + ["--width", str(WIDTH), "--trace", str(trace), "--out", out]
    trace_path = None
    if trace:
        os.makedirs(TRACE_DIR, exist_ok=True)
        trace_path = os.path.join(TRACE_DIR, "%s-seed%d.json" % (workload, seed))
        cmd += ["--trace-out", trace_path]
    if os.path.exists(out):
        os.remove(out)
    r = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    if r.returncode:
        fail("%s run failed (exit %d)" % (workload, r.returncode), 1)
    with open(out) as f:
        return json.load(f), trace_path


def cpu_ticks():
    """(steal, total) ticks of all CPUs from /proc/stat, or None."""
    try:
        with open("/proc/stat") as f:
            ticks = [int(x) for x in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return (ticks[7] if len(ticks) > 7 else 0), sum(ticks)


def load_json(path, default):
    if not os.path.exists(path):
        return default
    with open(path) as f:
        return json.load(f)


def describe(res, args, trace_path, ref_note):
    ctx = res["context"]
    print("workload %s  seed %d  seconds %s  trace %d" % (
        args.workload, args.seed, args.seconds, args.trace))
    print("context: nproc %d, cpu %s, compiler %s, build %s, pool width %d, git %s, source %s" % (
        ctx["nproc"], ctx["cpu_model"], ctx["compiler"], ctx["build_type"], ctx["pool_width"],
        git_sha(), source_digest()))
    print("digest %s (%s)" % (res["digest"], ref_note))
    for name, m in res["named"].items():
        print("  %-24s %14.6g %-5s n=%d" % (name, m["value"], m["unit"], m["samples"]))
    detail = res.get("detail")
    if detail and "campaign_s" in detail:
        print("  each campaign (s): " + " ".join("%.3f" % w for w in detail["campaign_s"]))
    if detail and "steps" in detail:
        print("  open-loop ladder (%d shards, %d connections):" % (
            detail["shards"], detail["connections"]))
        print("    %3s %9s %7s %7s %6s %9s %9s %9s %9s %6s %5s" % (
            "cpu", "rate/s", "sent", "ok", "failed", "p50_us", "p99_us", "slice_p99", "late_us",
            "growth", "pass"))
        for s in detail["steps"]:
            print("    %3d %9.0f %7d %7d %6d %9.1f %9.1f %9.1f %9.1f %6s %5s" % (
                s["cpu"], s["rate"], s["sent"], s["succeeded"], s["failed"], s["p50_us"], s["p99_us"],
                s["window_p99_us"], s["late_p99_us"], "yes" if s["backlog_grew"] else "no",
                "yes" if s["passes"] else "no"))
    if args.trace:
        for name, m in res["layers"].items():
            print("  %-24s %14.6g %s" % (name, m["value"], m["unit"]))
        print("  span self time (s):")
        for name, t in sorted(res["spans"].items()):
            print("    %-24s self %10.6f  total %10.6f  count %d" % (
                name, t["self_s"], t["total_s"], t["count"]))
        print("  chrome trace: " + trace_path)
    for f in res["failures"]:
        print("  CHECK FAILED: " + f)


def write_reference(binary, workloads, seeds, seconds):
    refs = load_json(REFERENCE, {})
    for workload in workloads:
        for seed in seeds:
            res, _ = run_binary(binary, workload, seed, seconds, 0)
            if res["failures"] or res["failed"]:
                fail("%s seed %d failed its checks: %s" % (workload, seed, res["failures"]), 1)
            refs.setdefault(workload, {})[str(seed)] = res["digest"]
            print("%s seed %d: %s" % (workload, seed, res["digest"]), flush=True)
    with open(REFERENCE, "w") as f:
        json.dump(refs, f, indent=2, sort_keys=True)
        f.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, action="append")
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args()

    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")
            and os.path.isfile("BENCHMARK.json")):
        fail("run from the root of a checkout of the repository "
             "(CMakeLists.txt, src/ and BENCHMARK.json not found)")
    binary = build(jobs())
    if args.write_reference:
        write_reference(binary, [args.workload] if args.workload else WORKLOADS,
                        args.seed or [1], args.seconds)
        return
    if not args.workload:
        fail("--workload is required")
    args.seed = (args.seed or [1])[-1]

    start, ticks0 = time.time(), cpu_ticks()
    res, trace_path = run_binary(binary, args.workload, args.seed, args.seconds,
                                 args.trace)
    ticks1 = cpu_ticks()
    correct = not res["failures"]
    ref = load_json(REFERENCE, {}).get(args.workload, {}).get(str(args.seed))
    if ref is None:
        ref_note = "no committed reference for this seed; repetitions checked against each other"
    elif ref == res["digest"]:
        ref_note = "matches the committed reference"
    else:
        ref_note = "DIFFERS from the committed reference %s" % ref
        correct = False
    describe(res, args, trace_path, ref_note)

    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = {}
    for m in spec["per_layer" if args.trace else "end_to_end"]:
        got = res["layers" if args.trace else "metrics"].get(m["name"])
        if got is None and not args.trace:
            fail("workload did not report end-to-end metric " + m["name"], 1)
        # A layer the workload never calls did no work: it reports 0.
        metrics[m["name"]] = {"value": got["value"] if got else 0.0, "unit": m["unit"]}
    print("wall %.1f s" % (time.time() - start))
    if ticks0 and ticks1 and ticks1[1] > ticks0[1]:
        # Time the hypervisor gave this VM's vCPUs to others: a run with
        # much of it read slow for reasons outside the program.
        print("host steal %.1f%% of CPU time during the run" % (
            100.0 * (ticks1[0] - ticks0[0]) / (ticks1[1] - ticks0[1])))
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
