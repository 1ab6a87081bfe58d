#!/usr/bin/env python3
"""sdnet benchmark: one workload per run, or all of them in turn.

Run from the repository root:

    python3 perfbench/run.py --workload pretrain --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1

`--trace 0` times the workload untraced and reports the end-to-end metrics;
`--trace 1` runs a fixed amount of the workload untraced and then traced,
checks that both give the same output bytes, and reports the per-layer
metrics. Before the result the run prints one JSON line with the environment
record and one with the workload's metrics under their own names. The last
line of standard output is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
The exit code is 0 only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("pretrain", "kshot-episodes", "data-prep")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "sdnet" / "__init__.py").is_file():
        print(f"error: no sdnet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        status = 0
        for name in WORKLOAD_NAMES:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            print(f"== {name}", flush=True)
            status = max(status, subprocess.run(cmd, cwd=ROOT).returncode)
        return status

    # BLAS may not use more threads than this process may run on
    nproc = len(os.sched_getaffinity(0))
    requested = os.environ.get("OPENBLAS_NUM_THREADS", "")
    threads = min(int(requested), nproc) if requested.isdigit() and int(requested) > 0 else nproc
    os.environ["OPENBLAS_NUM_THREADS"] = str(threads)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import envinfo
    import workloads

    env = envinfo.environment(ROOT, args.workload, args.seed)
    if env["blas_threads"] is not None and env["blas_threads"] > env["nproc"]:
        print(f"error: BLAS uses {env['blas_threads']} threads on {env['nproc']} CPUs", file=sys.stderr)
        return 2
    workdir = ROOT / ".bench_build" / "perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.trace:
            result, info = workloads.run_traced(args.workload, args.seed, workdir)
        else:
            result, info = workloads.run_timed(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"environment": env}))
    print(json.dumps({"workload": args.workload, "trace": args.trace, **info}))
    for err in info["errors"]:
        print(f"check failed: {err}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
