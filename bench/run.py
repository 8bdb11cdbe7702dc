#!/usr/bin/env python3
"""ccepanel benchmark.

    python3 bench/run.py --workload mc_logit_ar1 --seed 1 --seconds 32 --trace 0

Runs one workload (see bench/workloads.py) from the root of a source
checkout, using the package under ``src/``.  The workload's steps run in a
worker process (bench/worker.py), pinned with this one to one CPU.
Set-up (the worker's import, input construction, one warm-up op) is timed
on its own; then operations run one after another for ``--seconds`` and
each is checked for correctness.  Reported times are wall times scaled to
a nominal machine speed, measured by a probe this process runs on the same
CPU while each step runs (see ``Worker``); the raw wall times are printed
beside them.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced runs of the same operations and prints the per-layer
metrics, from spans around the package's public functions, plus a
likelihood microbenchmark.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it is the run's record (machine, settings,
sample counts, failures).

``--record-reference`` runs every input of the shipped seed and stores its
estimates in bench/reference.json; runs at that seed are compared with it.
"""

import os

# One BLAS thread, here and (through the environment) in every child process.
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PIN)

import argparse  # noqa: E402
import json  # noqa: E402
import select  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(HERE, "reference.json")
SHIPPED_SEED = 1  # the seed with recorded reference estimates
RECHECK_SEED = 2  # a second seed, for re-checking a claim made on the first
REFERENCE_TOL = 1e-6
SETUP_REPEATS = 3
TAIL_BEYOND = 10
# The machine's speed drifts: on the 2-vCPU VM the baseline was recorded on,
# a fixed loop switches between two speeds about 1.5x apart, each vCPU on
# its own, for a fraction of a second to minutes at a time.  So every step
# is scaled to the speed at which the probe loop takes LOOP_NOMINAL_MS (its
# time on that VM at the faster speed), from probes taken every
# LOOP_PERIOD_S on the step's CPU while the step runs.  The raw wall times
# are kept in the run record.
LOOP_NOMINAL_MS = 0.62
LOOP_PERIOD_S = 0.1
STEP_TIMEOUT_S = 120


def tail(times):
    """(value, percentile, samples beyond) at the highest percentile with
    at least TAIL_BEYOND samples above it.  With fewer than
    2 * TAIL_BEYOND + 1 samples that percentile would fall below the median,
    and no sample above the median has TAIL_BEYOND beyond it, so the upper
    median is reported (its percentile and count say so)."""
    s = sorted(times)
    k = max(len(s) - TAIL_BEYOND - 1, len(s) // 2)
    return s[k], 100.0 * (k + 1) / len(s), len(s) - 1 - k


def compare(values, expected):
    errors = []
    for key, ref in expected.items():
        got = values.get(key)
        if got is None or len(got) != len(ref):
            errors.append(f"{key}: missing or wrong length")
        elif any(abs(a - b) > REFERENCE_TOL for a, b in zip(got, ref)):
            errors.append(f"{key}: {got} deviates from reference {ref}")
    return errors


def loop_ms():
    """Best of two runs of a 20k-step interpreted loop.  Its working set is
    a few cache lines, so the worker sharing the CPU does not slow it
    through the caches; only the CPU's speed does."""
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        s = 0
        for i in range(20_000):
            s += i
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


class Worker:
    """A worker process (bench/worker.py) and its steps.

    While a step runs, this process, on the same CPU, times the probe loop
    every LOOP_PERIOD_S; each reply carries the mean probe time as
    ``probe_ms`` and, in ``scaled``, the step's seconds at the nominal
    speed.  Probes taken throughout a step follow the speed switches within
    it, which a kernel timed before and after the step misses.  They take
    about 1.5% of the CPU from the step, on every commit alike."""

    def __init__(self, workload, seed, workdir, trace):
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed), workdir,
             str(trace)], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            start_new_session=True)  # its own process group, with its children
        try:
            self.ready = self._reply()
        except BaseException:
            self.close()
            raise
        self.ready["s"] = time.perf_counter() - t0
        self.ready["scaled"] = self.ready["s"] * LOOP_NOMINAL_MS / self.ready["probe_ms"]

    def _reply(self):
        probes = []
        deadline = time.perf_counter() + STEP_TIMEOUT_S
        while not select.select([self.proc.stdout], [], [], 0)[0]:
            if time.perf_counter() > deadline:
                raise TimeoutError(f"no reply from the worker in {STEP_TIMEOUT_S} s")
            probes.append(loop_ms())
            select.select([self.proc.stdout], [], [], LOOP_PERIOD_S)
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"the worker exited with code {self.proc.wait()}")
        reply = json.loads(line)
        reply["probe_ms"] = statistics.mean(probes) if probes else loop_ms()
        if "s" in reply:
            reply["scaled"] = reply["s"] * LOOP_NOMINAL_MS / reply["probe_ms"]
        return reply

    def __call__(self, do, **args):
        self.proc.stdin.write(json.dumps({"do": do, **args}) + "\n")
        self.proc.stdin.flush()
        return self._reply()

    def close(self):
        """End the worker; if it does not end when told, kill it and its
        children."""
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=5)
        except (OSError, subprocess.TimeoutExpired):
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.wait()


def set_up(start_worker):
    """SETUP_REPEATS rounds, each in a fresh worker: import, input
    construction, one warm-up op (round r on input r), each phase
    speed-scaled on its own.  Returns the last round's worker, the median
    round's scaled seconds and every phase's wall seconds."""
    phases = {"import_s": [], "construct_s": [], "warmup_s": []}
    rounds = []
    worker = None
    for r in range(SETUP_REPEATS):
        if worker is not None:
            worker.close()
        worker = start_worker()
        try:
            steps = [worker.ready, worker("construct"), worker("warmup", j=r)]
        except BaseException:
            worker.close()
            raise
        for name, step in zip(phases, steps):
            phases[name].append(step["s"])
        rounds.append(sum(step["scaled"] for step in steps))
    return worker, statistics.median(rounds), phases


# per-layer metric -> span whose self time (ms per op) it reports
SELF_MS = {
    "panel.read_ms": "panel.read",
    "cli.import_ms": "cli.import",
    "cli.self_ms": "cli.main",
    "simulate.generate_ms": "simulate.generate",
    "simulate.self_ms": "simulate.run_grid",
    "factors.estimate_ms": "factors.estimate",
    "estimation.fit_ms_full": "estimation.fit_full",
    "estimation.fit_ms_half": "estimation.fit_half",
    "jackknife.spj_beta_ms": "jackknife.spj_beta",
    "jackknife.spj_ape_ms": "jackknife.spj_ape",
    "jackknife.split_ms": "jackknife.split",
    "bias.beta_ms": "bias.beta",
    "bias.ape_ms": "bias.ape",
    "inference.beta_cov_ms": "inference.beta_cov",
    "inference.ape_var_ms": "inference.ape_var",
    "ape.estimate_ms": "ape.estimate",
    "trace.unattributed_ms": "op",
}
# per-layer count -> counter (per op)
COUNTS = ["estimation.fit_calls", "estimation.iterations", "estimation.phases",
          "estimation.not_converged", "estimation.bound_hits", "jackknife.fit_calls"]


def unit_of(name):
    if name in SELF_MS or name == "panel.write_ms":
        return "ms"
    if name in COUNTS or name == "factors.calls":
        return "count"
    return next(u for suffix, u in (("ns_per_cell", "ns/cell"), ("bytes_per_cell", "B/cell"),
                                    ("rows_per_s", "1/s"), ("frac", "ratio"))
                if name.endswith(suffix))


def layer_metrics(per_op, setup_spans):
    """Per-op means of the traced operations' span self times and counts."""
    n = len(per_op)
    m = {name: sum(d["self_ms"].get(span, 0.0) for d in per_op) / n
         for name, span in SELF_MS.items()}
    for name in COUNTS:
        m[name] = sum(d["counts"].get(name, 0) for d in per_op) / n
    m["factors.calls"] = sum(d["calls"].get("factors.estimate", 0) for d in per_op) / n
    read_ms = sum(d["self_ms"].get("panel.read", 0.0) for d in per_op)
    cells = sum(d["counts"].get("panel.cells", 0) for d in per_op)
    m["panel.read_rows_per_s"] = cells / (read_ms / 1e3) if read_ms else 0.0
    writes = setup_spans["calls"].get("panel.write", 0)
    m["panel.write_ms"] = setup_spans["self_ms"].get("panel.write", 0.0) / writes if writes else 0.0
    return m


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=SHIPPED_SEED)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    # One CPU for this process and, by inheritance, the worker and its
    # children: the VM's vCPUs change speed each on its own, so the probe
    # must run on the CPU the steps run on.
    usable = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {usable[0]})

    if not os.path.isfile(os.path.join(SRC, "ccepanel", "__init__.py")):
        print(f"error: no ccepanel package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    from workloads import WORKLOADS

    names = [args.workload] if args.workload else list(WORKLOADS)
    if args.workload not in WORKLOADS and not (args.record_reference and args.workload is None):
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")

    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=os.path.join(ROOT, ".bench_work"))
    worker = None
    try:
        if args.record_reference:
            return record_reference(names, workdir)
        expected = None
        if args.seed == SHIPPED_SEED and os.path.exists(REFERENCE):
            with open(REFERENCE, encoding="utf-8") as fh:
                expected = json.load(fh)["workloads"].get(args.workload)

        worker, setup_s, setup_phases = set_up(
            lambda: Worker(args.workload, args.seed, workdir, args.trace))
        if not os.path.abspath(worker.ready["ccepanel"]).startswith(SRC + os.sep):
            print(f"error: the worker imported ccepanel from {worker.ready['ccepanel']}, "
                  f"not {SRC}", file=sys.stderr)
            return 2

        # wall and speed-scaled seconds of the untraced and the traced ops
        times, scaled, traced_scaled, per_op, failures, probe_ms = [], [], [], [], [], []
        attempted = failed = 0
        start = time.perf_counter()
        j = 0
        while True:
            worker("prepare", j=j)  # outside every timed step
            # With --trace 1 every input runs untraced and traced, in
            # alternating order, so the overhead is measured on equal inputs.
            modes = [False] if not args.trace else ([False, True] if j % 2 == 0 else [True, False])
            for traced in modes:
                reply = worker("op", j=j, traced=traced)
                probe_ms.append(reply["probe_ms"])
                if traced:
                    per_op.append(reply["spans"])
                    traced_scaled.append(reply["scaled"])
                else:
                    times.append(reply["s"])
                    scaled.append(reply["scaled"])
                errors = reply["errors"]
                if expected is not None and not errors:
                    errors = compare(reply["values"], expected[j % len(expected)])
                attempted += 1
                if errors:
                    failed += 1
                    failures.append({"op": j, "traced": traced, "errors": errors[:3]})
            j += 1
            if time.perf_counter() - start >= args.seconds:
                break
        elapsed = time.perf_counter() - start
        final = worker("finish")
        worker.close()

        record = {
            "workload": args.workload, "seed": args.seed, "shipped_seed": SHIPPED_SEED,
            "recheck_seed": RECHECK_SEED, "seconds": args.seconds, "trace": args.trace,
            "load": "closed loop, one worker process, one op at a time",
            "machine": {**final["machine"], "cpus_usable": len(usable)},
            "sizes": final["sizes"], "reference_checked": expected is not None,
            "speed_scale": {"loop_nominal_ms": LOOP_NOMINAL_MS,
                            "probe_ms_quartiles": statistics.quantiles(probe_ms, n=4)
                            if len(probe_ms) > 1 else probe_ms},
            "setup_phases_wall_s": setup_phases,
            "ops": len(times), "fail_frac": failed / attempted, "failures": failures[:5],
            "elapsed_s": elapsed, "op_ms_wall": [round(t * 1e3, 3) for t in times],
        }
        if args.trace:
            metrics = layer_metrics(per_op, final["setup_spans"])
            metrics["trace.overhead_frac"] = (
                statistics.median(traced_scaled) / statistics.median(scaled) - 1.0)
            metrics.update(final["micro"])
            record["traced_ops"] = len(per_op)
            units = {k: unit_of(k) for k in metrics}
        else:
            value, pct, beyond = tail(scaled)
            metrics = {
                "ops_per_s": len(scaled) / sum(scaled),
                "op_ms_p50": statistics.median(scaled) * 1e3,
                "op_ms_tail": value * 1e3,
                "peak_rss_mb": final["peak_rss_mb"],
                "setup_s": setup_s,
            }
            units = {"ops_per_s": "1/s", "op_ms_p50": "ms", "op_ms_tail": "ms",
                     "peak_rss_mb": "MB", "setup_s": "s"}
            record.update({
                "op_ms_p50_samples": len(scaled), "op_ms_tail_percentile": pct,
                "op_ms_tail_beyond": beyond,
                "wall": {"ops_per_s": len(times) / sum(times),
                         "op_ms_p50": statistics.median(times) * 1e3,
                         "op_ms_tail": tail(times)[0] * 1e3,
                         "setup_s": statistics.median(map(sum, zip(*setup_phases.values())))},
            })
        for name, v in metrics.items():
            print(f"{name:32s} {v:14.6g} {units[name]}")
        for name, v in record.get("wall", {}).items():
            print(f"{name + ' (raw wall)':32s} {v:14.6g} {units[name]}")
        print(f"{'fail_frac':32s} {record['fail_frac']:14.6g} ratio")
        print(json.dumps({"record": record}))
        print(json.dumps({
            "correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }))
        return 0
    finally:
        if worker is not None:
            worker.close()
        shutil.rmtree(workdir, ignore_errors=True)


def record_reference(names, workdir):
    """Store every input's estimates at the shipped seed in reference.json."""
    ref = {"seed": SHIPPED_SEED, "tolerance": REFERENCE_TOL, "workloads": {}}
    if os.path.exists(REFERENCE):
        with open(REFERENCE, encoding="utf-8") as fh:
            ref = json.load(fh)
    for name in names:
        worker = Worker(name, SHIPPED_SEED, workdir, 0)
        try:
            worker("construct")
            ops = []
            for j in range(worker.ready["n_inputs"]):
                worker("prepare", j=j)
                reply = worker("op", j=j, traced=False)
                if reply["errors"]:
                    print(f"error: {name} op {j}: {reply['errors']}", file=sys.stderr)
                    return 1
                ops.append(reply["values"])
        finally:
            worker.close()
        ref["workloads"][name] = ops
        print(f"{name}: {len(ops)} reference ops", file=sys.stderr)
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
