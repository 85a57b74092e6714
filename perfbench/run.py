"""geodisc benchmark: one caller, closed loop, one library call per op.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload ball_shell --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all        # every workload, in turn

Workloads (see workloads.py): ``ball_shell``, ``perturbed_shell`` and
``geodesics``.  A run sets up several times, runs one untimed warm-up op
per set-up, then runs ops back to back until ``--seconds`` have passed,
checks every op's output against the acceptance tolerances, and runs
``counterexample_harness(64, 512)`` as a correctness gate.

With ``--trace 0`` it reports the end-to-end metrics, measured with
tracing off.  With ``--trace 1`` it runs a fixed number of ops twice,
untraced and then traced, so every count repeats exactly for a seed,
and reports the per-layer metrics and the tracing overhead.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give
machine information and every metric in readable form.

The benchmark pins BLAS to BLAS_THREADS threads for its own process.
Seed 90210 is held out for confirming claims: tune nothing on it.
"""

import json
import os
import sys
import time

T_START = time.perf_counter()

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

SETUP_REPEATS = 3
OUT_DIR = os.path.join(HERE, "out")


def _load_library():
    """Import geodisc from the checkout's src/, or exit without a result."""
    if not os.path.isfile(os.path.join(SRC, "geodisc", "__init__.py")):
        sys.stderr.write(f"perfbench: no geodisc sources under {SRC}; run "
                         "from the root of a geodisc checkout\n")
        sys.exit(2)
    sys.path.insert(0, SRC)
    import geodisc  # noqa: F401


def machine_info():
    import platform

    import numpy as np

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count()
    return {"nproc": nproc, "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": BLAS_THREADS}


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="ball_shell, perturbed_shell, geodesics or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload == "all":
        return run_all(args)
    _load_library()
    import bench
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    workload = WORKLOADS[args.workload]
    import_s = time.perf_counter() - T_START
    print("machine", json.dumps(machine_info()))
    print(f"workload {workload.name} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}")
    if args.trace:
        result = bench.traced_run(workload, args.seed, OUT_DIR)
    else:
        result = bench.timed_run(workload, args.seed, args.seconds, import_s,
                                 SETUP_REPEATS)
    for line in result.pop("lines"):
        print(line)
    print(json.dumps(result))
    return 0


def run_all(args):
    """Each workload in its own process, so set-up and memory are its own."""
    import subprocess

    status = 0
    for name in ("ball_shell", "perturbed_shell", "geodesics"):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)])
        status = status or proc.returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
