"""The process that runs one workload's steps for bench/run.py.

    python3 bench/worker.py WORKLOAD SEED WORKDIR TRACE

run.py starts it with ``src`` on PYTHONPATH and pinned to run.py's CPU,
writes one JSON request a line to its standard input and reads one JSON
reply a line; while a step runs here, run.py probes the machine's speed on
the same CPU.  The first reply, sent once the package is imported, is
``{"n_inputs": ...}``.  Replies go to the original standard output;
anything else printed goes to standard error.

Requests (``do``):

- ``construct``: make the inputs of the seed; replies its seconds.
- ``warmup`` (``j``): prepare input j and run op j, the last step of
  set-up; replies its seconds.  With TRACE 1 the spans recorded until then
  are kept as the set-up's.
- ``prepare`` (``j``): ready input j (outside the op's timing).
- ``op`` (``j``, ``traced``): run op j; replies its seconds, the estimates
  (``values``), the failed checks (``errors``) and, traced, its spans.
- ``finish``: replies the peak resident memory of the process(es) that ran
  the ops, the input sizes, the machine record and, with TRACE 1, the
  set-up spans and the likelihood microbenchmark.
"""

import json
import os
import platform
import resource
import statistics
import sys
import time

REPLY = os.fdopen(os.dup(1), "w", encoding="utf-8")
sys.stdout = sys.stderr

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import ccepanel as cp  # noqa: E402
from tracing import Tracer, difference, trace_ccepanel  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MICRO_REPEATS = 25


def run_op(workload, j, tracer=None):
    """One checked operation; an exception is a failed operation."""
    try:
        return workload.op(j, tracer)
    except Exception as exc:  # every failure is counted, none stops the run
        return {}, [f"{type(exc).__name__}: {exc}"]


def machine_record():
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(), "cpu_pin": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu, "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_thread_pin": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def likelihood_micro(workload, seed):
    """ns per cell of the public log_density / index_derivative (orders 1, 2)
    at the workload's N x T and family; bytes per cell are computed from the
    arrays each call reads (y, z) and writes (one result), 8 bytes each."""
    rng = np.random.default_rng([seed, 7])
    shape = workload.shape
    y = (rng.random(shape) < 0.5).astype(float)
    z = rng.normal(0.0, 2.0, shape)
    kernels = {
        "likelihood.density_ns_per_cell": lambda: cp.log_density(workload.family, y, z),
        "likelihood.deriv1_ns_per_cell": lambda: cp.index_derivative(workload.family, y, z, 1),
        "likelihood.deriv2_ns_per_cell": lambda: cp.index_derivative(workload.family, y, z, 2),
    }
    out = {}
    for name, kernel in kernels.items():
        kernel()
        times = []
        for _ in range(MICRO_REPEATS):
            t0 = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - t0)
        out[name] = statistics.median(times) * 1e9 / y.size
    out["likelihood.bytes_per_cell"] = 3 * 8.0
    return out


def main():
    name, seed, workdir, trace = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4] == "1"
    workload = WORKLOADS[name](workdir)
    tracer = setup_spans = None
    if trace:
        tracer = Tracer()
        trace_ccepanel(tracer)

    def timed(step, *args):
        t0 = time.perf_counter()
        result = step(*args)
        return time.perf_counter() - t0, result

    def op(j, traced):
        if not traced:
            dt, (values, errors) = timed(run_op, workload, j)
            return {"s": dt, "values": values, "errors": errors}
        trace_ccepanel(tracer)
        tracer.full_cells = workload.shape[0] * workload.shape[1]
        before = tracer.snapshot()
        tracer.start("op")
        dt, (values, errors) = timed(run_op, workload, j, tracer)
        tracer.stop()
        spans = difference(tracer.snapshot(), before)
        tracer.restore()
        return {"s": dt, "values": values, "errors": errors, "spans": spans}

    def warmup(j):
        nonlocal setup_spans
        dt, _ = timed(lambda: (workload.prepare(j), run_op(workload, j)))
        if tracer:
            setup_spans = tracer.snapshot()
            tracer.restore()
        return {"s": dt}

    def finish():
        usage = resource.RUSAGE_CHILDREN if workload.ops_in_child else resource.RUSAGE_SELF
        out = {"peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024.0,
               "sizes": workload.sizes(), "machine": machine_record()}
        if trace:
            out.update(setup_spans=setup_spans, micro=likelihood_micro(workload, seed))
        return out

    steps = {
        "construct": lambda r: {"s": timed(workload.construct, seed)[0]},
        "warmup": lambda r: warmup(r["j"]),
        "prepare": lambda r: {"s": timed(workload.prepare, r["j"])[0]},
        "op": lambda r: op(r["j"], r["traced"]),
        "finish": lambda r: finish(),
    }

    def reply(obj):
        REPLY.write(json.dumps(obj) + "\n")
        REPLY.flush()

    reply({"n_inputs": workload.n_inputs, "ccepanel": os.path.abspath(cp.__file__)})
    for line in sys.stdin:
        request = json.loads(line)
        reply(steps[request["do"]](request))


if __name__ == "__main__":
    main()
