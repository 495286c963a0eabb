#!/usr/bin/env python3
"""Benchmark of nahm-forge: four seeded workloads through the public API.

    python3 perfbench/run.py --workload {sweep,hunt,modular,ct} --seed N \
        --seconds S --trace {0,1}

Run from anywhere inside a checkout; the library is imported from the
checkout's src/ directory (there is nothing to build).  The workload runs in
this one process with jobs=1: no pools, and numpy's BLAS pinned to one
thread.  Passes over the same seeded inputs repeat for --seconds, but at
least once; each pass starts from cold caches (see workloads.clear_caches).

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced passes and prints the per-layer metrics of the traced ones, plus the
tracing overhead.  The last line of standard output is the result object;
the line before it records provenance, the inputs and any failures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 7
HD_GRID = 1 << 16
SETUP_CODE = ("import nahm_forge\n"
              "from nahm_forge import registry\n"
              "registry.registry()\n"
              "print('ready', flush=True)\n")
CACHE_POLICY = ("component_series_u/v cache_clear() before every pass; "
                "registry() memo kept, its build is in setup_s; "
                "setup_s probes are fresh interpreters")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("sweep", "hunt", "modular", "ct"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def setup_seconds() -> list:
    """Time from starting a fresh interpreter until the first operation is
    ready (import nahm_forge + registry()), once per probe."""
    env = dict(os.environ, PYTHONPATH=str(SRC), **ONE_THREAD)
    out = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", SETUP_CODE], cwd=ROOT,
                              env=env, stdout=subprocess.PIPE) as proc:
            line = proc.stdout.readline()
            out.append(time.perf_counter() - t0)
            proc.stdout.read()
            proc.wait(timeout=120)
        if line.strip() != b"ready" or proc.returncode != 0:
            raise RuntimeError("set-up probe did not become ready")
    return out


def git_revision():
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True, timeout=30)
    return done.stdout.strip() or None


def src_sha256() -> str:
    h = hashlib.sha256()
    for p in sorted((SRC / "nahm_forge").glob("*.py")):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def os_threads():
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return None


def op_latencies(passes: list) -> list:
    """Each operation's latency: its median over the passes.  Every pass
    runs the same operations in the same order, so a short slow spell of a
    shared host moves one sample of an operation, not its median."""
    return [statistics.median(lat) for lat in zip(*(r.op_s for r in passes))]


def hd_quantile(xs: list, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile of xs: a mean of all order
    statistics, the i-th of n weighted by the Beta(p(n+1), (1-p)(n+1)) mass
    on ((i-1)/n, i/n].  The sample quantile is one or two operations, so the
    noise of those few moves it; here it is spread over the neighbours.
    The Beta CDF is integrated on a fixed grid of HD_GRID midpoints, so the
    buffers stay small whatever n is."""
    import numpy  # after run() has pinned BLAS to one thread
    xs = numpy.sort(xs)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    x = (numpy.arange(HD_GRID) + 0.5) / HD_GRID
    log_pdf = (a - 1) * numpy.log(x) + (b - 1) * numpy.log1p(-x)
    cdf = numpy.cumsum(numpy.exp(log_pdf - log_pdf.max()))
    cdf = numpy.concatenate(([0.0], cdf / cdf[-1]))
    grid = numpy.arange(HD_GRID + 1) / HD_GRID
    w = numpy.diff(numpy.interp(numpy.arange(n + 1) / n, grid, cdf))
    return float(w @ xs)


def run(args) -> tuple[dict, dict]:
    load_start = os.getloadavg()
    setup = setup_seconds() if not args.trace else []

    os.environ.update(ONE_THREAD)
    sys.path.insert(0, str(SRC))
    import nahm_forge
    if SRC not in Path(nahm_forge.__file__).resolve().parents:
        raise RuntimeError(f"nahm_forge imported from {nahm_forge.__file__}, not src/")
    import numpy
    from nahm_forge import registry
    import tracer
    import workloads

    registry.registry()
    work = workloads.WORKLOADS[args.workload]
    items = work.items(work.inputs(args.seed))
    pinned = workloads.PINNED_DIGESTS.get(args.workload)

    tr = tracer.Tracer()
    untraced, traced, layers = [], [], []
    t_start = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        tracing = bool(args.trace) and len(untraced) > len(traced)
        workloads.clear_caches()
        if tracing:
            tr.reset()
            tr.install()
        try:
            res = workloads.run_ops(work.op, items)
        finally:
            tr.uninstall()
        work.check(res)
        res.outputs.clear()  # keep peak_rss_mb independent of the pass count
        if tracing:
            traced.append(res)
            layer = tr.layer_metrics()
            layer.update(workloads.cache_metrics())
            layers.append(layer)
        else:
            untraced.append(res)
        # stop when one more pass like this one would overrun --seconds; a
        # trace run stops only after a traced pass
        now = time.perf_counter()
        full = now + (now - t_pass) - t_start > args.seconds
        if full and (not args.trace or len(traced) == len(untraced)):
            break

    # read before the statistics below allocate their buffers
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    passes = untraced + traced
    attempted = sum(r.attempted for r in passes)
    failures = [f for r in passes for f in r.failures]
    digests = sorted({r.digest for r in passes})
    leftovers = tracer.leftover_wrappers()
    correct = (not failures and len(digests) == 1 and not leftovers
               and (pinned is None or digests == [pinned]))
    lat = op_latencies(untraced)
    wall = sum(lat)

    if args.trace:
        metrics = {k: {"value": statistics.median(m[k] for m in layers),
                       "unit": tracer.unit(k)} for k in layers[0]}
        metrics["trace.overhead_s"] = {
            "value": sum(op_latencies(traced)) - wall, "unit": "s"}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "op_p50_ms": {"value": hd_quantile(lat, 0.5) * 1e3, "unit": "ms"},
            "op_p80_ms": {"value": hd_quantile(lat, 0.8) * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }

    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "inputs": workloads.inputs_json(args.workload, args.seed),
        "nproc": os.cpu_count(), "cpu_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "git_revision": git_revision(), "src_sha256": src_sha256(),
        "loadavg_start": load_start,
        "processes": "one workload process, jobs=1, no pools; setup_s probes "
                     "are sequential child interpreters, each waited for",
        "python_threads": threading.active_count(), "os_threads": os_threads(),
        "cache_policy": CACHE_POLICY,
        "setup_samples_s": setup,
        "passes_untraced": len(untraced), "passes_traced": len(traced),
        "pass_wall_s": [r.wall_s for r in untraced],
        "traced_pass_wall_s": [r.wall_s for r in traced],
        "op_samples": len(lat),
        "fail_ratio": len(failures) / attempted,
        "failures": failures[:20],
        "output_digests": digests, "pinned_digest": pinned,
        "wrappers_left": leftovers,
    }
    result = {"correct": correct, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    return provenance, result


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "nahm_forge" / "__init__.py").is_file():
        print(f"perfbench: no src/nahm_forge under {ROOT}; run it inside a "
              f"full checkout", file=sys.stderr)
        return 2
    provenance, result = run(args)
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
