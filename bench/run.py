"""speclp benchmark entry point.

    python3 bench/run.py --workload sqfun|kernel|operators|all [--seed N] --seconds S --trace 0|1

Run it from the root of a source checkout; it imports ``speclp`` from
``src`` and builds nothing.  With ``--trace 0`` it starts two set-up-only
worker processes and one measuring worker, one after another, and reports
the end-to-end metrics named in ``BENCHMARK.json``.  ``run_ref_s``,
``op_p50_ref_ms`` and ``op_tail_ref_ms`` are CPU time of the measuring
worker scaled to the machine's reference speed by a fixed numpy probe run
between its ops (see ``probe.py``); the same figures in plain CPU time
(``run_cpu_s``, ...) and in wall time (``run_s``, ``op_p50_ms``,
``op_tail_ms``) are in the report.  ``setup_s`` is the median of the three
set-up times, each the CPU seconds from process start to the worker's ready
line, scaled the same way.  With ``--trace 1`` a single worker alternates
untraced and traced passes and reports the per-layer metrics.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it is the report (machine, op
kinds and why they are in the benchmark, tail percentile and sample count,
fail_frac, summary.json digests).  ``--workload all`` runs the three
workloads in turn and prints one table line per metric instead, the CPU-time
and wall-time figures and fail_frac included.

Exit status 0 means results were printed; whether every op passed its
check is in ``correct`` (or the fail_frac line).  A worker that fails or
overruns gives status 1 and no result; without ``src/speclp`` under the
current directory the status is 2.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("sqfun", "kernel", "operators")
SETUP_ONLY_WORKERS = 2
WORKER_LIMIT_S = 170.0  # a worker still running then is killed and the run fails
# OpenBLAS would start one thread per CPU at the first large enough call (the
# polyfit of the kernel audits, a norm in a check) and keep them spinning
# after it returns, charging their CPU time to whatever op runs next and
# taking the second CPU from it.  The load is one thread, or two in the
# GFUN_RATIO op at workers=2, so the workers get one BLAS thread.
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1"}


class WorkerError(RuntimeError):
    pass


def spawn(workload: str, seed: int, seconds: float, mode: str, smoke: bool, deadline: float):
    """Run one worker; returns (set-up wall seconds, set-up figures, result
    dict or None)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode]
    if smoke:
        cmd.append("--smoke")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env=dict(os.environ, **WORKER_ENV))
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    setup_s, setup, result = None, None, None
    try:
        for line in proc.stdout:
            if line.startswith("BENCH-READY"):
                setup_s = time.perf_counter() - t0
            elif line.startswith("BENCH-SETUP "):
                setup = json.loads(line[len("BENCH-SETUP "):])
            elif line.startswith("BENCH-RESULT "):
                result = json.loads(line[len("BENCH-RESULT "):])
                setup = result["report"].pop("setup", None)
            else:
                sys.stderr.write(line)
        status = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if status != 0 or setup_s is None or (mode != "trace" and setup is None) \
            or (mode != "setup" and result is None):
        raise WorkerError(f"{mode} worker for {workload} exited with status {status}")
    return setup_s, setup, result


def run_workload(workload: str, seed: int, seconds: float, trace: bool, smoke: bool,
                 spec: dict) -> dict:
    deadline = time.monotonic() + WORKER_LIMIT_S
    if trace:
        _, _, result = spawn(workload, seed, seconds, "trace", smoke, deadline)
        names = spec["per_layer"]
    else:
        runs = [spawn(workload, seed, seconds, "setup", smoke, deadline)
                for _ in range(SETUP_ONLY_WORKERS)]
        runs.append(spawn(workload, seed, seconds, "run", smoke, deadline))
        result = runs[-1][2]
        # set-up CPU seconds at reference speed, as the run figures (probe.py)
        setups = [s["cpu_s"] * s["reference_s"] / s["probe_s"] for _, s, _ in runs]
        result["metrics"]["setup_s"] = statistics.median(setups)
        result["report"]["setup_samples_s"] = setups
        result["report"]["setup_cpu_samples_s"] = [s["cpu_s"] for _, s, _ in runs]
        result["report"]["setup_wall_samples_s"] = [w for w, _, _ in runs]
        names = spec["end_to_end"]
    values = result["metrics"]
    if set(values) != {m["name"] for m in names}:
        raise WorkerError(f"metrics {sorted(values)} differ from BENCHMARK.json")
    report = result["report"]
    report["why"] = next(w["why"] for w in spec["workloads"] if w["name"] == workload)
    report["fail_frac"] = {"value": result["failed"] / result["attempted"], "unit": "fraction"}
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names},
        "report": report,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="speclp benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="small inputs, for the self-test")
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "speclp", "__init__.py")):
        print(f"error: no src/speclp under {root}; run from a speclp source checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    todo = WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in todo:
        try:
            out = run_workload(workload, args.seed, args.seconds, bool(args.trace), args.smoke,
                               spec)
        except WorkerError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        report = out.pop("report")
        if args.workload == "all":
            extra = (list(report.get("cpu_time", {}).items())
                     + list(report.get("wall_clock", {}).items())
                     + [("fail_frac", report["fail_frac"])])
            for name, m in list(out["metrics"].items()) + extra:
                print(f"{workload:10s} {name:40s} {m['value']:>16.6g} {m['unit']}")
        else:
            print(json.dumps({"report": report}))
            print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
