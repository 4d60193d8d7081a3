#!/usr/bin/env python3
"""Determinism matrix: execution settings never change dvx_bench output.

    python3 tools/determinism_matrix.py BENCH [--full] [--other-binary BIN]...

Runs BENCH at `--jobs 1 --engine-threads 1`, for `--all` and for the
three-way backend selection, and checks that `--jobs 4`, `--engine-threads`
2 and 4, `DVX_ENGINE_THREADS=4` and each --other-binary (CI: the builds at
DVX_CHECK_LEVEL 0 and 2) write byte-identical JSON, metrics and traces.
Fast size unless --full; the window width has its own test (test_exp).
Exit status: 0 all identical, 1 some output differs, 2 a run failed.
"""

import argparse
import filecmp
import os
import pathlib
import subprocess
import sys
import tempfile

SELECTIONS = (["--all"], ["--figure", "traffic,ablation_fabric,serving",
                          "--backends", "dv,mpi-ib,mpi-torus"])
REFERENCE = ["--jobs", "1", "--engine-threads", "1"]


def run(binary, out, selection, settings, full, env_threads=None):
    """Runs one sweep with `out` as its working directory."""
    out.mkdir()
    env = {k: v for k, v in os.environ.items()
           if k not in ("DVX_BENCH_FAST", "DVX_ENGINE_THREADS")}
    if env_threads:
        env["DVX_ENGINE_THREADS"] = env_threads
    cmd = [binary, *selection, *settings, "--no-figure-json", "--json", "bench.json",
           "--metrics-out", "metrics", "--trace-out", "traces"] + ([] if full else ["--fast"])
    try:
        proc = subprocess.run(cmd, cwd=out, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)
        failure = f"exited {proc.returncode}:\n{proc.stderr[-2000:]}" if proc.returncode else ""
    except OSError as err:
        failure = str(err)
    if failure:
        print(f"determinism_matrix: {' '.join(cmd)} {failure}", file=sys.stderr)
        sys.exit(2)
    return out


def differences(ref, other):
    """Output files that differ between two sweeps, or exist in only one."""
    diffs = [] if filecmp.cmp(ref / "bench.json", other / "bench.json", shallow=False) \
        else ["bench.json"]
    for sub in ("metrics", "traces"):
        names = sorted(p.name for p in (ref / sub).iterdir())
        if names != sorted(p.name for p in (other / sub).iterdir()):
            diffs.append(f"{sub}/ (file sets differ)")
            continue
        _, mismatch, errors = filecmp.cmpfiles(ref / sub, other / sub, names, shallow=False)
        diffs += [f"{sub}/{name}" for name in mismatch + errors]
    return diffs


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("bench")
    parser.add_argument("--full", action="store_true")
    parser.add_argument("--other-binary", action="append", default=[])
    args = parser.parse_args()
    variants = [  # (name, binary, settings, DVX_ENGINE_THREADS)
        ("jobs 4", args.bench, ["--jobs", "4", "--engine-threads", "1"], None),
        ("engine threads 2", args.bench, ["--jobs", "2", "--engine-threads", "2"], None),
        ("engine threads 4", args.bench, ["--jobs", "2", "--engine-threads", "4"], None),
        ("DVX_ENGINE_THREADS=4", args.bench, ["--jobs", "2"], "4"),
    ] + [(f"binary {b}", b, REFERENCE, None) for b in args.other_binary]
    failed = 0
    with tempfile.TemporaryDirectory(prefix="dvx_determinism_") as tmp:
        for s, selection in enumerate(SELECTIONS):
            ref = run(args.bench, pathlib.Path(tmp, f"s{s}"), selection, REFERENCE,
                      args.full)
            for v, (name, binary, settings, env_threads) in enumerate(variants):
                if s > 0 and binary != args.bench:
                    continue  # other builds are compared on the whole sweep only
                out = run(binary, pathlib.Path(tmp, f"s{s}v{v}"), selection, settings,
                          args.full, env_threads)
                diffs = differences(ref, out)
                print(f"[{'full' if args.full else 'fast'}] {' '.join(selection)} / "
                      f"{name}: {'DIFFERS: ' + ', '.join(diffs[:8]) if diffs else 'identical'}")
                failed += bool(diffs)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
