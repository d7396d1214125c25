#!/usr/bin/env python3
"""quadcover benchmark: runs one workload in this process and reports JSON.

Run from the repository root:

    python3 bench/run.py --workload census-q8 --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10 --trace 0

``--workload all`` runs every workload, each in a fresh process.  The last
line of standard output of a single workload is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones of BENCHMARK.json; with ``--trace 1`` the
per-layer ones, and the spans and counts go to ``.bench_out/``.

A run is one process with a single closed-loop caller: the next round starts
when the previous one has returned.  BLAS pools are capped at the CPUs this
process may use before numpy loads.
"""

import time

ENTRY = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
NAMES = ("census-q8", "verify-q8", "figures-q4", "cli-q4")
# The variables `quadcover --threads` sets to cap BLAS thread pools.
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="length of the timed phase")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smallest field sizes; for the benchmark's own test")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def run_all(args):
    """Every workload in a fresh process; one result line per workload."""
    ok = True
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(json.dumps({"workload": name, "exit": proc.returncode}))
            ok = False
            continue
        result = json.loads(lines[-1])
        ok &= result["correct"]
        print(json.dumps({"workload": name, **result}), flush=True)
    return 0 if ok else 1


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "quadcover" / "__init__.py").is_file():
        print(f"error: quadcover sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    nproc = str(len(os.sched_getaffinity(0)))
    for var in THREAD_ENV:
        os.environ[var] = nproc
    sys.path.insert(0, str(ROOT / "src"))
    OUT_DIR.mkdir(exist_ok=True)
    args.out_dir = str(OUT_DIR)
    import runner
    from workloads import WORKLOADS

    import_s = time.perf_counter() - ENTRY
    cls = WORKLOADS[args.workload]
    if args.trace:
        attempted, failed, metrics = runner.traced(cls, args)
    else:
        attempted, failed, metrics = runner.untraced(cls, args, import_s)
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
