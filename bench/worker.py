"""One fresh benchmark process: set up one workload, then run and measure it.

    python3 bench/worker.py --workload NAME --seed N --seconds S --mode setup|run|trace [--smoke]

Run from the root of a source checkout; ``speclp`` is imported from its
``src``.  The worker prints ``BENCH-READY`` when set-up is done (import,
every input generated, one warm-up call per op kind), so that the parent can
time set-up from process start.  In ``setup`` mode it then runs its probe a
few times, prints ``BENCH-SETUP <json>`` with the set-up's CPU seconds and
the probe's median, and exits.  In
``run`` mode it runs whole passes over the ops, untraced, for about S
seconds, with the workload's speed probe between ops; in ``trace`` mode it
alternates untraced and traced passes.  The last line is
``BENCH-RESULT <json>`` with the metrics and a report.

The load is one closed loop: one op at a time, the next one starting when
the previous returned, in one process (the GFUN_RATIO op at workers=2 runs
two threads).  Nothing waits in a queue, so there is no wait metric.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict

from probe import Probe
from tracing import Tracer, self_times

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))

# whole passes each run makes at least; the tail percentile is fixed from
# them, so that every run reports the same percentile
MIN_PASSES = {"sqfun": 2, "kernel": 3, "operators": 3}
PROBE_EVERY_S = 0.5  # least wall time between two probes within a pass
SETUP_PROBES = 5  # probes a set-up-only worker runs after set-up
GFUN_CRITERIA = (1, 2, 10)  # criteria whose ifftn counts are reported

# traced functions reported with call counts and self time, and with self time only
COUNTED = ("gfunction.g_function", "spectral.forward_transform", "spectral.inverse_transform",
           "lp_decomp.block", "evolution.multiplier_values", "evolution.integrate_symbol",
           "symbols.eval_symbol")
SELF_TIMED = ("gfunction.build_time_window", "corpus.generate_corpus",
              "kernel_audit.hormander_report", "kernel_audit.fractional_laplacian_pv",
              "kernel_audit.dyadic_l1_envelope", "kernel_audit.gradient_kernel",
              "spectral.lp_norm", "spectral.refine_field", "lp_decomp.bump_profile",
              "harness.run_scenario")
FFT_MODULES = ("gfunction", "kernel_audit", "spectral")  # FFT counts reported per module


def percentile(values, pct: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(samples: int) -> int:
    """Highest whole percentile with at least ten of ``samples`` beyond it."""
    return max(50, math.floor(100.0 * (1.0 - 10.0 / samples)))


def run_pass(ops, tracer=None, probe=None, probe_times=None):
    """Run every op once, in order.  Returns (kind, criterion, wall seconds,
    error, CPU seconds) per op; an op that raises or fails its check is
    recorded and the pass goes on.  CPU seconds are the whole process's
    (every thread, user and system).  With a probe, it runs before the first
    op and then between ops at most once per PROBE_EVERY_S, and its CPU times
    are appended to probe_times."""
    out = []
    last_probe = None
    for i, op in enumerate(ops):
        if probe is not None and (last_probe is None
                                  or time.perf_counter() - last_probe >= PROBE_EVERY_S):
            probe_times.append(probe.run())
            last_probe = time.perf_counter()
        if tracer is not None:
            tracer.op = i
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            value = op.run()
        except Exception as exc:  # the op failed; count it and keep running
            seconds, cpu = time.perf_counter() - t0, time.process_time() - c0
            error = f"raised {type(exc).__name__}: {exc}"
        else:
            seconds, cpu = time.perf_counter() - t0, time.process_time() - c0
            if tracer is not None:
                tracer.op = None  # spans of the benchmark's own checks are dropped
            try:
                error = op.check(value)
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        out.append((op.kind, op.criterion, seconds, error, cpu))
    if tracer is not None:
        tracer.op = None
    return out


WALL, CPU = 2, 4  # where run_pass puts an op's wall and CPU seconds


def _median_of(passes, pick, col=WALL) -> float:
    return statistics.median(sum(r[col] for r in p if pick(r)) for p in passes)


def op_medians(passes, col=WALL) -> list:
    """Each op's median latency across the passes.  A slowdown of the
    machine lasting a few seconds hits a few ops of one pass, and each op's
    median over the passes discards it."""
    return [statistics.median(p[i][col] for p in passes) for i in range(len(passes[0]))]


def pass_time(passes, col=WALL) -> float:
    """Time of one pass: the sum of the op medians."""
    return sum(op_medians(passes, col))


def end_to_end(workload: str, ops, passes, probe_times, reference_s: float) -> tuple:
    """The gated figures are CPU seconds at the machine's reference speed.

    CPU time, because the hypervisor of a shared virtual machine hands its
    CPUs to other guests for whole seconds (steal time), which stretches wall
    time but is not charged to the process.  At reference speed, because the
    machine's speed itself drifts: the CPU figures are multiplied by
    reference_s over the median CPU time of all the probes of the run.  The
    same figures in plain CPU time and in wall time go to the report."""
    probe_s = statistics.median(probe_times)
    scale = reference_s / probe_s
    pct = tail_percentile(len(ops) * MIN_PASSES[workload])
    tail = {"tail_percentile": pct, "samples": sum(len(p) for p in passes)}
    for col, clock in ((CPU, "_cpu"), (WALL, "")):
        # the median op is taken over the op medians, like run_s; the tail
        # needs ten samples beyond it, so it pools the passes
        typical = op_medians(passes, col)
        latencies = [r[col] for p in passes for r in p]
        tail_value = percentile(latencies, pct)
        tail["cpu_time" if clock else "wall_clock"] = {
            f"run{clock}_s": {"value": sum(typical), "unit": "s"},
            f"op_p50{clock}_ms": {"value": percentile(typical, 50) * 1e3, "unit": "ms"},
            f"op_tail{clock}_ms": {"value": tail_value * 1e3, "unit": "ms"}}
        tail[f"samples_beyond_tail{clock}"] = sum(1 for x in latencies if x > tail_value)
    cpu = tail["cpu_time"]
    figures = {"run_ref_s": cpu["run_cpu_s"]["value"] * scale,
               "op_p50_ref_ms": cpu["op_p50_cpu_ms"]["value"] * scale,
               "op_tail_ref_ms": cpu["op_tail_cpu_ms"]["value"] * scale,
               "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    tail["probe"] = {"reference_s": reference_s, "median_s": probe_s, "probes": len(probe_times)}
    return figures, tail


def per_layer(ops, tracer, untraced, traced) -> tuple:
    """Per-layer figures: traced set-up plus the mean of the traced passes.
    Criterion and scenario times come from the untraced passes."""
    spans = [s for s in tracer.spans if s.op is not None]
    self_s = self_times(spans)
    n = len(traced)
    # each figure is summed apart for set-up and for the passes, then
    # set-up + passes / n
    setup, passes = defaultdict(float), defaultdict(float)
    crit_fft = defaultdict(float)  # (criterion, "module.entry") -> calls over the passes
    largest = 0
    for s in spans:
        acc = setup if s.op == "setup" else passes
        acc[s.name + ".calls"] += 1
        acc[s.name + ".self_s"] += self_s[id(s)]
        acc[s.name + ".work"] += s.work
        if s.name == "symbols.eval_symbol" and s.parent is not None \
                and s.parent.name == "evolution.integrate_symbol":
            acc["evolution.integral_evals"] += 1
        if s.fft:
            module = s.name.split(".", 1)[0]
            crit = ops[s.op].criterion if isinstance(s.op, int) else None
            for entry, (c, pts) in s.fft.items():
                acc[module + ".fft_calls"] += c
                acc[module + ".fft_points"] += pts
                if crit is not None:
                    crit_fft[crit, f"{module}.{entry}"] += c
            largest = max(largest, max(pts // c for c, pts in s.fft.values()))

    def val(key):
        return setup[key] + passes[key] / n

    def per(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    m = {f"{name}.calls": val(f"{name}.calls") for name in COUNTED}
    m.update({f"{name}.self_s": val(f"{name}.self_s") for name in COUNTED + SELF_TIMED})
    for module in FFT_MODULES:
        m[f"{module}.fft_calls"] = val(f"{module}.fft_calls")
        m[f"{module}.fft_points"] = val(f"{module}.fft_points")
    m["gfunction.nodes"] = val("gfunction.g_function.work")
    m["gfunction.node_us"] = per(val("gfunction.g_function.self_s"), m["gfunction.nodes"], 1e6)
    m["kernel_audit.node_shift_us"] = per(val("kernel_audit.hormander_report.self_s"),
                                          val("kernel_audit.hormander_report.work"), 1e6)
    m["evolution.symbol_evals_per_integral"] = per(val("evolution.integral_evals"),
                                                   m["evolution.integrate_symbol.calls"])

    w1 = _median_of(untraced, lambda r: r[0] == "harness.gfun_w1")
    w2 = _median_of(untraced, lambda r: r[0] == "harness.gfun_w2")
    m["harness.gfun_workers1_s"] = w1
    m["harness.gfun_workers2_s"] = w2
    m["harness.gfun_workers2_over_workers1"] = per(w2, w1)
    for c in range(1, 12):
        m[f"acceptance.c{c:02d}_s"] = _median_of(untraced, lambda r, c=c: r[1] == c)
    for c in GFUN_CRITERIA:
        m[f"acceptance.c{c:02d}_ifftn_calls"] = sum(v for (crit, k), v in crit_fft.items()
                                                    if crit == c and k.endswith(".ifftn")) / n
    traced_s = pass_time(traced)
    untraced_s = pass_time(untraced)
    m["trace.traced_run_s"] = traced_s
    m["trace.untraced_run_s"] = untraced_s
    m["trace.overhead_s"] = traced_s - untraced_s
    detail = {
        "criterion_fft_calls_per_pass": {f"c{c:02d}.{k}": v / n
                                         for (c, k), v in sorted(crit_fft.items())},
        "largest_fft_input_mib": largest * 16 / 2**20,
        "traced_passes": n,
        "untraced_passes": len(untraced),
    }
    return m, detail


def machine() -> dict:
    import numpy
    import scipy

    info = {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset")}
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu_model"] = next((line.split(":", 1)[1].strip() for line in fh
                                      if line.startswith("model name")), "unknown")
    except OSError:
        info["cpu_model"] = "unknown"
    info["caches"] = _caches()
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy has no dict form; the field is informational
        info["blas"] = "unknown"
    info["git_commit"] = _git_commit()
    return info


def _caches() -> dict:
    """Cache levels of cpu0 as size and sharing CPUs, e.g. L3: 107520K shared by 0-1."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    out = {}
    try:
        for index in sorted(os.listdir(base)):
            def read(name):
                with open(os.path.join(base, index, name)) as fh:
                    return fh.read().strip()
            kind = {"Data": "d", "Instruction": "i"}.get(read("type"), "")
            out[f"L{read('level')}{kind}"] = \
                f"{read('size')} shared by cpus {read('shared_cpu_list')}"
    except OSError:
        pass
    return out


def _dram_note(largest_mib: float, info: dict) -> str:
    l3 = info["caches"].get("L3", "")
    if not l3.split(" ")[0].endswith("K"):
        return "L3 size unknown; no statement on DRAM bandwidth"
    four_l3 = 4 * int(l3.split("K")[0]) / 1024
    if largest_mib < four_l3:
        return (f"largest transform input {largest_mib:g} MiB < 4 x L3 = {four_l3:g} MiB: "
                "no op here is a DRAM-bandwidth measurement")
    return f"largest transform input {largest_mib:g} MiB reaches 4 x L3 = {four_l3:g} MiB"


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--smoke", action="store_true", help="small inputs (self-test)")
    args = ap.parse_args(argv)

    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    import speclp
    if not os.path.abspath(speclp.__file__).startswith(src + os.sep):
        raise SystemExit(f"speclp imported from {speclp.__file__}, not from {src}")
    import workloads

    out_dir = os.path.join(HERE, ".out", f"{args.workload}-{os.getpid()}")
    tracer = Tracer() if args.mode == "trace" else None
    try:
        if tracer is not None:
            tracer.install()
        ops = workloads.build(args.workload, args.seed, args.smoke, out_dir)
        if tracer is not None:
            tracer.uninstall()
        warm = {}
        for op in workloads.build(args.workload, args.seed, True, os.path.join(out_dir, "warm")):
            warm.setdefault(op.kind, op)
        warm_errors = [r for r in run_pass(list(warm.values())) if r[3]]
        setup_cpu_s = time.process_time()  # CPU seconds since the process started
        print("BENCH-READY", flush=True)
        probe = Probe(args.workload) if tracer is None else None
        if probe is not None:
            probe.run()  # warm-up
        if args.mode == "setup":
            setup = {"cpu_s": setup_cpu_s, "reference_s": probe.reference_s,
                     "probe_s": statistics.median(probe.run() for _ in range(SETUP_PROBES))}
            print("BENCH-SETUP " + json.dumps(setup), flush=True)
            return 0

        untraced, traced, probe_times = [], [], []
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            untraced.append(run_pass(ops, probe=probe, probe_times=probe_times))
            if tracer is not None:
                tracer.install()
                traced.append(run_pass(ops, tracer))
                tracer.uninstall()
            cycle = time.perf_counter() - t0
            elapsed = time.perf_counter() - start
            enough = len(untraced) >= (1 if tracer is not None else MIN_PASSES[args.workload])
            if enough and elapsed + cycle > args.seconds:
                break

        all_passes = untraced + traced
        errors = [r for p in all_passes for r in p if r[3]]
        report = {
            "workload": args.workload,
            "seed": args.seed,
            "ops_per_pass": len(ops),
            "passes": len(untraced),
            "op_kinds": {
                kind: {"count_per_pass": sum(1 for op in ops if op.kind == kind),
                       "median_ms": 1e3 * statistics.median(r[WALL] for p in untraced
                                                            for r in p if r[0] == kind),
                       "median_cpu_ms": 1e3 * statistics.median(r[CPU] for p in untraced
                                                                for r in p if r[0] == kind),
                       "why": workloads.WHY[kind]}
                for kind in dict.fromkeys(op.kind for op in ops)},
            "errors": [f"{r[0]}: {r[3]}" for r in errors[:20]],
            "warm_up_errors": [f"{r[0]}: {r[3]}" for r in warm_errors],
            "summary_sha256": {op.kind: op.summary_sha256 for op in ops if op.summary_sha256},
            "left_out": workloads.LEFT_OUT,
            "machine": machine(),
        }
        if tracer is None:
            metrics, tail = end_to_end(args.workload, ops, untraced, probe_times,
                                       probe.reference_s)
            report.update(tail)
            report["setup"] = {"cpu_s": setup_cpu_s, "reference_s": probe.reference_s,
                               "probe_s": tail["probe"]["median_s"]}
        else:
            metrics, detail = per_layer(ops, tracer, untraced, traced)
            report.update(detail)
            report["computed_not_measured"] = (
                "fft_points: elements of each transform's input, summed over calls; "
                "largest_fft_input_mib: 16 B per complex128 element of the largest input")
            report["dram"] = _dram_note(detail["largest_fft_input_mib"], report["machine"])
        result = {"attempted": sum(len(p) for p in all_passes), "failed": len(errors),
                  "metrics": metrics, "report": report}
        print("BENCH-RESULT " + json.dumps(result), flush=True)
        return 0
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(out_dir))
        except OSError:  # another worker's output is still there
            pass


if __name__ == "__main__":
    sys.exit(main())
