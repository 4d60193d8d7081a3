#!/usr/bin/env python3
"""Host-time benchmark for dvx (see README.md in this directory).

Builds dvx_perfbench from the checkout's sources, runs one workload and
prints, as the last line of stdout, one JSON object with the keys
correct, attempted, failed and metrics.

    python3 perfbench/run.py --workload bfs|fft|serving --seed N \
        --seconds S --trace 0|1

--trace 0 runs timed processes (end-to-end metrics); --trace 1 runs the
traced process (per-layer metrics). The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), outputs to
its out/ directory.
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

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
WORKLOADS = ("bfs", "fft", "serving")
SETUP_LAUNCHES = 9        # set-up-only launches per timed run (plus each timed one)
PROCESS_TIMEOUT_S = 170   # a run must end within the contract's 180 s


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def binary_path():
    return os.path.join(build_dir(), "dvx_perfbench")


def out_dir():
    return os.path.join(build_dir(), "out")


def build():
    """Configures (once) and builds dvx_perfbench; build output to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("dvx sources (src/CMakeLists.txt) not found next to perfbench/")
    bdir = build_dir()
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, cwd=ROOT)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", bdir, "--target", "dvx_perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr, cwd=ROOT)


def run_setup(opts):
    """Seconds from launching dvx_perfbench until its first point would start."""
    doc, launch_ns = run_binary(["--mode", "setup"] + common_args(opts))
    return (doc["setup_end_monotonic_ns"] - launch_ns) * 1e-9


def run_binary(args):
    """Runs dvx_perfbench; returns (its JSON document, launch instant in ns)."""
    launch_ns = time.monotonic_ns()
    proc = subprocess.run([binary_path()] + args, stdout=subprocess.PIPE, cwd=ROOT,
                          timeout=PROCESS_TIMEOUT_S, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"dvx_perfbench {' '.join(args)} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), launch_ns


def source_digest():
    """sha256 over the sources the benchmark builds (src/ and perfbench/)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    return proc.stdout.strip() or "unknown"


def common_args(opts):
    args = ["--workload", opts.workload, "--seed", str(opts.seed), "--out", out_dir()]
    if opts.fast:
        args.append("--fast")
    if opts.nodes:
        args += ["--nodes", opts.nodes]
    return args


def timed(opts):
    """End-to-end metrics. Every timed pass runs in a fresh process: on this
    kind of host a process's speed depends on where its memory lands, and
    that holds for the life of the process, so samples are only independent
    across processes.

    Set-up only runs first. Then rounds, each of one t2 process and as many
    t1 processes as take about as long (at least one): serving's t1 pass is
    ten times shorter than its t2 pass, so it gets about ten t1 samples per
    round. The order flips every round. A new round starts while 1.2 times
    the longest round so far still fits in --seconds.
    """
    setups = [run_setup(opts) for _ in range(SETUP_LAUNCHES)]
    samples = {1: [], 2: []}
    detail = {"attempted": 0, "failed": 0, "errors": [], "rounds": 0}
    reference = []  # the first process's dvx-bench/v1 document

    def run_pass(threads):
        doc, launch_ns = run_binary(["--mode", "timed", "--threads", str(threads)]
                                    + common_args(opts))
        setups.append((doc["setup_end_monotonic_ns"] - launch_ns) * 1e-9)
        if not reference:
            reference.append(doc["document"])
            detail["fingerprint"] = doc["fingerprint"]
        failed = doc["failed"]
        if doc["document"] != reference[0]:
            failed = doc["attempted"]
            detail["errors"].append(f"t{threads} process {len(samples[1]) + len(samples[2])}: "
                                    "dvx-bench/v1 document differs from the first process")
        detail["attempted"] += doc["attempted"]
        detail["failed"] += failed
        detail["errors"] += doc["errors"]
        samples[threads].append({k: doc[k] for k in ("wall_s", "cpu_s", "peak_rss_mb",
                                                     "point_s")})
        return doc["wall_s"]

    # One untimed pass first: the first pass after a pause runs slower (on
    # this VM, likely memory the guest handed back to the host), and no
    # round should pay for that.
    run_binary(["--mode", "timed", "--threads", "1"] + common_args(opts))
    start = time.monotonic()
    longest = 0.0
    t1_per_round = 1
    while True:
        round_start = time.monotonic()
        t2_s = run_pass(2) if detail["rounds"] % 2 else 0.0
        t1_s = sum(run_pass(1) for _ in range(t1_per_round))
        if detail["rounds"] % 2 == 0:
            t2_s = run_pass(2)
        ratio = t2_s * t1_per_round / t1_s
        t1_per_round = int(min(ratio, 64)) if ratio >= 2 else 1
        detail["rounds"] += 1
        longest = max(longest, time.monotonic() - round_start)
        if time.monotonic() - start + 1.2 * longest > opts.seconds:
            break

    def mean(threads, key):
        return statistics.fmean(s[key] for s in samples[threads])

    metrics = {
        "wall_s.t1": {"value": mean(1, "wall_s"), "unit": "s"},
        "wall_s.t2": {"value": mean(2, "wall_s"), "unit": "s"},
        "cpu_s.t2": {"value": mean(2, "cpu_s"), "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": max(s["peak_rss_mb"] for t in (1, 2) for s in samples[t]),
                        "unit": "MB"},
    }
    detail.update(samples=samples, setup_samples_s=setups)
    return detail, metrics


def traced(opts):
    """Per-layer metrics from the traced process (its own process, so its
    replays never warm a cache a timed pass reads)."""
    doc, _ = run_binary(["--mode", "traced"] + common_args(opts))
    return doc, doc["metrics"]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    # Smaller runs for the self-tests; not used by the benchmark itself.
    p.add_argument("--fast", action="store_true", help="fast-mode problem sizes")
    p.add_argument("--nodes", help="override the node sweep, e.g. 2,3")
    opts = p.parse_args(argv)
    if opts.seed < 1:
        p.error("--seed must be a positive integer")
    if opts.seconds < 0:
        p.error("--seconds must not be negative")
    return opts


def main(argv):
    opts = parse_args(argv)
    try:
        build()
        os.makedirs(out_dir(), exist_ok=True)
        doc, metrics = traced(opts) if opts.trace else timed(opts)
    except (RuntimeError, OSError, subprocess.SubprocessError, ValueError, KeyError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    fingerprint = dict(doc["fingerprint"], commit=commit(), source_sha256=source_digest(),
                       workload=opts.workload, trace=opts.trace)
    for err in doc["errors"]:
        print(f"perfbench: {err}", file=sys.stderr)
    result = {
        "correct": doc["failed"] == 0 and not doc["errors"],
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": metrics,
    }
    path = os.path.join(out_dir(), f"result_{opts.workload}_s{opts.seed}_t{opts.trace}.json")
    with open(path, "w") as f:
        json.dump({"fingerprint": fingerprint, "result": result, "detail": doc}, f, indent=1)
    print("fingerprint: " + json.dumps(fingerprint, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
