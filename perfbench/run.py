"""Run one mmtrack benchmark workload and print its metrics.

    python3 perfbench/run.py --workload nominal_static --seed 1 \\
        --seconds 30 --trace 0

Workloads: nominal_static, base_sinusoid (closed loops) and qp_batch.
With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it first runs untraced for half the time, then traced, and
reports the per-layer metrics and the tracing overhead.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.  Machine facts, the result and (traced) the spans go
to .perfbench_out/<workload>-seed<seed>-trace<t>/ under the checkout.
"""
from __future__ import annotations

import os

# One BLAS thread, set before numpy loads, so the numbers measure the
# program and not the scheduler.
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def machine_facts(load_at_start) -> dict:
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "loadavg_at_start": load_at_start,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("nominal_static", "base_sinusoid",
                                 "qp_batch"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    load_at_start = list(os.getloadavg())
    missing = [p for p in ("src/mmtrack/__init__.py", "configs")
               if not (ROOT / p).exists()]
    if missing:
        print(f"perfbench: not an mmtrack checkout, missing "
              f"{', '.join(missing)} under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import workloads
    import_s = time.perf_counter() - t0

    out_dir = (ROOT / ".perfbench_out"
               / f"{args.workload}-seed{args.seed}-trace{args.trace}")
    out_dir.mkdir(parents=True, exist_ok=True)
    traced = bool(args.trace)
    if args.workload == "qp_batch":
        tally, values, tracer = workloads.qp_batch(
            args.seed, args.seconds, traced, out_dir, import_s)
    else:
        tally, values, tracer = workloads.closed_loop(
            args.workload, args.seed, args.seconds, traced, out_dir,
            import_s)

    units = workloads.PER_LAYER if traced else workloads.END_TO_END
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    result = {"correct": tally["failed"] == 0 and tally["attempted"] > 0,
              "attempted": tally["attempted"], "failed": tally["failed"],
              "metrics": metrics}
    facts = machine_facts(load_at_start)
    if traced:
        tracer.write_jsonl(out_dir / "spans.jsonl")
    (out_dir / "result.json").write_text(
        json.dumps({"workload": args.workload, "seed": args.seed,
                    "seconds": args.seconds, "trace": args.trace,
                    "machine": facts, **result,
                    "samples": tally["samples"]}, indent=2) + "\n",
        encoding="utf-8")

    print("machine " + json.dumps(facts))
    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:.6g} {m['unit']}")
    print(f"attempted {tally['attempted']}, failed {tally['failed']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
