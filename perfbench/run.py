"""rfw benchmark: one command, every workload in one process.

    python3 perfbench/run.py --workload certify-sphere --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py                  # every workload, seed 0, 10 s each

Run from the root of a source checkout; rfw is imported from its src/
directory, never from an installed copy.  BLAS is pinned to one thread
and nothing runs in a pool.  With --trace 0 each workload prints its
end-to-end metrics; with --trace 1 it prints per-layer metrics from a
traced pass over a fixed amount of work, and writes the spans to
.perfbench-out/.  The last line of output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  The exit code is 0 even
when operations fail; it is 2 when rfw cannot be found.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import math
import platform
import resource
import statistics
import sys
import time
from collections import namedtuple
from pathlib import Path

import numpy as np

import tracing
from workloads import ALL_NOTIONS, MEMBERSHIP_NOTIONS, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
SETUP_REPEATS = 21
# A shared host slows every process on it by up to ~50% for spells of
# a fraction of a second to many seconds, CPU time as much as wall time.
# A fixed reference loop timed before and after each operation and each
# set-up measures the speed of the moment, and times are reported in
# seconds at a nominal speed: raw * NOMINAL_REF_S / (mean of the two
# reference times).  NOMINAL_REF_S is the loop's median time in
# benchmark runs on a 2-vCPU Intel Xeon at 2.1 GHz (Python 3.11, numpy
# 2.4).
NOMINAL_REF_S = 0.0023

# ref_s: mean time of the reference loops just before and just after
Record = namedtuple("Record", "index raw_s ref_s work result error")

END_TO_END = (("setup_s", "s"), ("op_s.p50", "s"), ("op_s.tail", "s"),
              ("work_per_s", "1/s"), ("peak_rss_mb", "MiB"))


def per_layer_units():
    """Name -> unit of every per-layer metric, in report order.  Self
    times are shares of the traced operations' time, so the host's
    speed of the moment cancels; a layer a workload never calls reads 0."""
    m = {"balls.lmo.calls": "count", "balls.lmo.self_share": "ratio",
         "balls.lmo.p50_ref": "ref", "balls.alpha_evals_per_lmo": "count/call"}
    for fn in ("minimize_1d", "bisect_root"):
        m[f"scalars.{fn}.calls"] = "count"
        m[f"scalars.{fn}.self_share"] = "ratio"
    for kern in tracing.KERNELS:
        for op in tracing.KERNEL_OPS:
            m[f"manifolds.{kern}.{op}.calls"] = "count"
            m[f"manifolds.{kern}.{op}.self_share"] = "ratio"
    for op in ("membership", "sample"):
        m[f"balls.{op}.calls"] = "count"
        m[f"balls.{op}.self_share"] = "ratio"
    for kern, notions in (("sphere", ALL_NOTIONS), ("spd", MEMBERSHIP_NOTIONS)):
        for notion in notions:
            m[f"convexity.{kern}.{notion}.samples"] = "count"
            m[f"convexity.{kern}.{notion}.self_share"] = "ratio"
    m["convexity.membership_probes_per_sample"] = "count/sample"
    m["objectives.value_grad.calls"] = "count"
    m["objectives.value_grad.self_share"] = "ratio"
    m["solver.rfw_run.self_share"] = "ratio"
    m["solver.to_csv.self_share"] = "ratio"
    m["solver.iters_per_solve"] = "count/solve"
    m["trace.overhead_frac"] = "ratio"
    return m


def environment(seed):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__,
            "blas_threads": {v: os.environ[v] for v in (
                "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
            "seed": seed}


def import_rfw():
    """A fresh import of rfw from this checkout's src/."""
    for name in [m for m in sys.modules if m == "rfw" or m.startswith("rfw.")]:
        del sys.modules[name]
    rfw = importlib.import_module("rfw")
    if SRC not in Path(rfw.__file__).resolve().parents:
        raise ImportError(f"rfw imported from {rfw.__file__}, not {SRC}")
    return rfw


def reference_loop():
    """Fixed work in the mix rfw runs: bytecode and 3x3 LAPACK calls."""
    total = 0
    for i in range(25000):
        total += i * i
    a = np.eye(3)
    for _ in range(75):
        a = np.linalg.eigh(a + a.T)[1]
    return total


def time_reference():
    t0 = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t0


def timed_calls(calls):
    """Run each call of an iterable of (index, fn, args) between two
    timings of the reference loop; returns Records with work and
    result from the (work, result) a call returns.  A call that raises
    is recorded with its error and counts as failed."""
    records = []
    ref = time_reference()
    for i, fn, args in calls:
        err, work, result = None, 0, None
        t0 = time.perf_counter()
        try:
            work, result = fn(*args)
        except Exception as exc:
            err = f"raised {type(exc).__name__}: {exc}"
        raw = time.perf_counter() - t0
        ref_after = time_reference()
        records.append(Record(i, raw, 0.5 * (ref + ref_after), work, result,
                              err))
        ref = ref_after
    return records


def scaled_times(records):
    """Operation times in seconds at the nominal reference speed."""
    return [r.raw_s * NOMINAL_REF_S / r.ref_s for r in records]


def setup(workload, seed, repeats):
    """Import rfw and build the workload's inputs `repeats` times;
    returns the last (rfw, inputs) and the median set-up time."""
    built = []

    def once():
        rfw = import_rfw()
        built[:] = [rfw, workload.build(rfw, seed, OUT_DIR)]  # keep the last
        return 0, None

    records = timed_calls((j, once, ()) for j in range(repeats))
    errors = [r.error for r in records if r.error]
    if errors:
        raise RuntimeError(f"set-up failed: {errors[0]}")
    return built[0], built[1], statistics.median(scaled_times(records))


def run_ops(workload, rfw, inputs, n_ops=None, deadline=None, tracer=None):
    """Operations 0, 1, ... until n_ops are done or, in whole rounds,
    until the deadline."""
    def calls():
        i = 0
        while (i < n_ops if n_ops is not None else
               i % workload.round_size or time.perf_counter() < deadline):
            if tracer is not None:
                tracer.op = i
            yield i, workload.run, (rfw, inputs, i)
            i += 1
    return timed_calls(calls())


def failures(workload, rfw, inputs, records):
    """Reason -> count over the records that fail their check."""
    reasons = {}
    for r in records:
        why = r.error or workload.check(rfw, inputs, r.index, r.result)
        if why is not None:
            reasons[why] = reasons.get(why, 0) + 1
    return reasons


def tail(values):
    """Highest whole percentile with at least ten samples beyond it
    (nearest rank); (value, percentile, samples beyond)."""
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100, 0
    pct = math.floor(100.0 * (n - 10) / n)
    rank = max(1, math.ceil(pct * n / 100.0))
    return xs[rank - 1], pct, n - rank


def end_to_end(workload, seed, seconds):
    rfw, inputs, setup_s = setup(workload, seed, SETUP_REPEATS)
    run_ops(workload, rfw, inputs, n_ops=1)  # warm-up, not counted
    records = run_ops(workload, rfw, inputs,
                      deadline=time.perf_counter() + seconds)
    durations = scaled_times(records)
    size = workload.round_size
    rates = [sum(r.work for r in records[j:j + size])
             / sum(durations[j:j + size])
             for j in range(0, len(records), size)]
    value, pct, beyond = tail(durations)
    raw_p50 = statistics.median(r.raw_s for r in records)
    ref_ms = 1e3 * statistics.median(r.ref_s for r in records)
    metrics = {
        "setup_s": (setup_s, f"median of {SETUP_REPEATS} imports + builds"),
        "op_s.p50": (statistics.median(durations),
                     f"{workload.op_label}, {len(records)} ops, "
                     f"unscaled {raw_p50:.4g} s, reference loop {ref_ms:.3g} ms"),
        "op_s.tail": (value, f"p{pct}, {beyond} of {len(records)} ops beyond"),
        "work_per_s": (statistics.median(rates),
                       f"{workload.work_label}, median of {len(rates)} rounds"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "process peak RSS"),
    }
    units = dict(END_TO_END)
    return records, failures(workload, rfw, inputs, records), {
        name: (v, units[name], note) for name, (v, note) in metrics.items()}


def per_layer(workload, seed, seconds):
    """Untraced then traced pass over the same fixed number of
    operations; the count of operations depends only on the workload
    and --seconds, so count metrics repeat exactly for a given seed."""
    rounds = max(1, round(seconds * workload.trace_rounds_per_s))
    n_ops = rounds * workload.round_size
    rfw, inputs, _ = setup(workload, seed, 1)
    run_ops(workload, rfw, inputs, n_ops=1)
    plain = run_ops(workload, rfw, inputs, n_ops=n_ops)

    tracer = tracing.Tracer()
    tracer.install(rfw)
    try:
        inputs = workload.build(rfw, seed, OUT_DIR)
        traced = run_ops(workload, rfw, inputs, n_ops=n_ops, tracer=tracer)
    finally:
        tracer.uninstall()
    tracer.write(OUT_DIR / f"spans-{workload.name}-seed{seed}.npz",
                 json.dumps({"workload": workload.name, "ops": n_ops,
                             "env": environment(seed)}))

    traced_s = sum(r.raw_s for r in traced)
    values = {}
    for name in per_layer_units():
        base, _, field = name.rpartition(".")
        if field in ("calls", "self_share"):
            calls, self_s = tracer.stat(base)
            values[name] = calls if field == "calls" else self_s / traced_s
        elif field == "samples":
            values[name] = tracer.counts.get(name, 0)
    # one LMO call in units of the reference loop, timed around the same ops
    lmo = tracer.durations("balls.lmo")
    lmo_calls = len(lmo)
    values["balls.lmo.p50_ref"] = (
        float(np.median(lmo)) / statistics.median(r.ref_s for r in traced)
        if lmo_calls else 0.0)
    evals = (tracer.counts.get("balls.alpha_phi_sphere", 0)
             + tracer.stat("scalars.bisect_root")[0])
    values["balls.alpha_evals_per_lmo"] = evals / lmo_calls if lmo_calls else 0.0
    samples = sum(v for k, v in tracer.counts.items() if k.endswith(".samples"))
    values["convexity.membership_probes_per_sample"] = (
        tracer.stat("balls.membership")[0] / samples if samples else 0.0)
    solves = tracer.stat("solver.rfw_run")[0]
    values["solver.iters_per_solve"] = (
        sum(r.work for r in traced) / solves if solves else 0.0)
    values["trace.overhead_frac"] = (sum(scaled_times(traced))
                                     / sum(scaled_times(plain)) - 1.0)

    records = plain + traced
    units = per_layer_units()
    return records, failures(workload, rfw, inputs, records), {
        name: (values[name], units[name], "") for name in units}


def report(workload, records, reasons, metrics):
    failed = sum(reasons.values())
    for name, (value, unit, note) in metrics.items():
        print(f"{workload.name:16s} {name:42s} {value:14.6g} {unit:12s} {note}")
    print(f"{workload.name:16s} {'fail_frac':42s} "
          f"{failed / len(records):14.6g} {'ratio':12s} "
          f"{failed} of {len(records)} failed")
    for why, n in sorted(reasons.items()):
        print(f"{workload.name:16s}   failure: {why} ({n})")
    print(json.dumps({"correct": failed == 0, "attempted": len(records),
                      "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit, _) in metrics.items()}}))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all",
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    if not (SRC / "rfw" / "__init__.py").is_file():
        print(f"perfbench: no rfw sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT_DIR.mkdir(exist_ok=True)
    print("env " + json.dumps(environment(args.seed)))
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    measure = per_layer if args.trace else end_to_end
    for name in names:
        workload = WORKLOADS[name]
        print(f"{name}: {workload.why}")
        report(workload, *measure(workload, args.seed, args.seconds))
    return 0


if __name__ == "__main__":
    sys.exit(main())
