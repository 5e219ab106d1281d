#!/usr/bin/env python3
"""taldet benchmark: run one workload (or all) and print its metrics.

    python3 perfbench/run.py --workload toy-train --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the repository root. Inputs are generated from --seed under
.perfbench_work/; each workload then runs in a worker process of its own
(perfbench/worker.py) with a capped address space and one BLAS thread. The
last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}, where the metrics are the
end-to-end ones with --trace 0 and the per-layer ones with --trace 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER_TIMEOUT_S = 170
# one BLAS thread, within the cap of nproc: the model's matrices are small
# enough that a second thread made the long workload slower (13 s against
# 10 s a pass on 2 vCPUs at T=512), and threads that wait on each other turn
# every stall of a shared machine's CPUs into a stall of the whole product
BLAS_THREADS = 1


def stamp(workload, seed: int, seconds: int, trace: int, nproc: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"workload": workload.name, "seed": seed, "seconds": seconds,
            "trace": trace, "sizes": workload.sizes, "nproc": nproc,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": BLAS_THREADS}


def run_workload(name: str, seed: int, seconds: int, trace: int) -> dict:
    """Prepare inputs, run the worker, return its result plus the stamp."""
    from workloads import LIMIT_PER_THREAD_MB, WORKLOADS, prepare
    workload = WORKLOADS[name]
    work = ROOT / ".perfbench_work" / f"{name}-seed{seed}-trace{trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    nproc = len(os.sched_getaffinity(0))
    job = {"commands": prepare(workload, seed, work),
           "seconds": seconds, "trace": trace,
           "limit_mb": workload.limit_mb + BLAS_THREADS * LIMIT_PER_THREAD_MB,
           "result": str(work / "result.json"),
           "spans": str(work / "spans.jsonl")}
    (work / "job.json").write_text(json.dumps(job, indent=1) + "\n")
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"),
                           str(work / "job.json")], env=env, cwd=ROOT,
                          timeout=WORKER_TIMEOUT_S, stdout=subprocess.DEVNULL)
    if proc.returncode != 0:
        raise RuntimeError(f"{name}: worker exited with {proc.returncode}")
    result = json.loads((work / "result.json").read_text())
    result["stamp"] = stamp(workload, seed, seconds, trace, nproc) | {
        "pass_s": result["pass_s"], "vm_peak_mb": result["vm_peak_mb"],
        "address_limit_mb": job["limit_mb"]}
    shutil.rmtree(work / "data", ignore_errors=True)
    return result


def report(name: str, result: dict, wanted: list[str], units: dict) -> dict:
    """Print the human-readable lines; return the metrics as {name: {value, unit}}."""
    print(f"== {name}  {json.dumps(result['stamp'])}")
    for msg in result["failures"]:
        print(f"   FAILED {msg}")
    metrics = {}
    for key in wanted:
        value = result["metrics"][key]
        metrics[key] = {"value": value, "unit": units[key]}
        print(f"   {key:<36} {value:>14.6g} {units[key]}")
    for key, value in result.get("wall", {}).items():
        print(f"   {key:<36} {value:>14.6g} s")
    for cmd, spans in result.get("self_time_s", {}).items():
        total = sum(spans.values())
        print(f"   self time under {cmd} ({total:.4g} s):")
        for span, sec in sorted(spans.items(), key=lambda kv: -kv[1]):
            print(f"      {span:<33} {sec:>14.6g} s {sec / total:6.1%}")
    rate = result["failed"] / result["attempted"]
    print(f"   {'error_rate':<36} {rate:>14.6g} ratio "
          f"({result['failed']}/{result['attempted']} commands)")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "taldet" / "__init__.py").is_file():
        print(f"error: no taldet sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    units = {m["name"]: m["unit"] for m in spec["per_layer"] + spec["end_to_end"]}
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    names = [w["name"] for w in spec["workloads"]]
    chosen = names if args.workload == "all" else [args.workload]
    if not set(chosen) <= set(names):
        print(f"error: unknown workload {args.workload!r}; one of {names} "
              f"or 'all'", file=sys.stderr)
        return 2
    attempted = failed = 0
    metrics = {}
    for name in chosen:
        result = run_workload(name, args.seed, seconds, args.trace)
        shown = report(name, result, wanted, units)
        attempted += result["attempted"]
        failed += result["failed"]
        if len(chosen) == 1:
            metrics = shown
        else:
            metrics |= {f"{name}/{k}": v for k, v in shown.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
