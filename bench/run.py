"""Benchmark of the gridres CLI, end to end and layer by layer.

Run from the repository root:

    python3 bench/run.py --workload seed-pipeline --seed 1 --seconds 20 --trace 0

Workloads: seed-pipeline, dirty-weather, whatif (see bench/README.md).
--trace 0 runs the real CLI as child processes, one at a time, and reports
the end-to-end metrics. --trace 1 runs the traced pass instead and reports
the per-layer metrics. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. Every correctness check
counts as one attempted operation.

Numbers are warm-cache on a shared host: the benchmark neither drops the
page cache nor pins CPUs. Scratch files go to .bench_work/ in the checkout;
each run's full record is kept in .bench_work/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

from common import SRC, WORK, WORKLOADS, Checks, Spawner


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(workload: str, seed: int, seconds: float, trace: int) -> dict:
    import numpy
    wl = WORKLOADS[workload]
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "synth_seed": wl.synth["seed"] if wl.synth else None,
        "nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(), "python": platform.python_version(),
        "numpy": numpy.__version__, "platform": platform.platform(),
        "cache": "warm page cache, no cache drop, no CPU pinning, shared host",
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="least time whatif keeps repeating its sessions")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gridres" / "cli.py").is_file():
        print(f"bench: no gridres sources under {SRC}; run from a checkout of "
              f"the repository", file=sys.stderr)
        return 2
    spawner = Spawner()  # started while this process is still small
    try:
        return _run(args, spawner)
    finally:
        spawner.close()


def _run(args: argparse.Namespace, spawner: Spawner) -> int:
    sys.path.insert(0, str(SRC))
    import gridres
    if Path(gridres.__file__).resolve().parent != SRC / "gridres":
        print(f"bench: imported gridres from {gridres.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from traced import traced_pass
    from workloads import timed_pass

    wl = WORKLOADS[args.workload]
    work = WORK / f"{wl.name}-{args.seed}-trace{args.trace}"
    results = WORK / "results"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    results.mkdir(parents=True, exist_ok=True)
    checks = Checks()
    env = environment(wl.name, args.seed, args.seconds, args.trace)
    try:
        # compile and cache gridres bytecode before anything is timed
        checks.exited_ok(spawner.run(["-c", "import gridres.cli"], work / "warm.log"),
                         "warm-up import")
        if args.trace:
            metrics, detail = traced_pass(wl, args.seed, spawner, work, checks)
            for name in detail["missing"]:
                print(f"bench: traced name missing: {name}", file=sys.stderr)
        else:
            metrics, detail = timed_pass(wl, args.seed, args.seconds, spawner, work,
                                         checks)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {"correct": not checks.failures, "attempted": checks.attempted,
              "failed": len(checks.failures), "metrics": metrics}
    record = {"environment": env, "result": result, "failures": checks.failures,
              "detail": detail}
    name = f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1) + "\n")
    print("bench environment: " + json.dumps(env))
    if not args.trace:
        print("bench samples: " + json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
