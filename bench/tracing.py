"""Spans around calls into ccepanel's layers, for the traced run.

The tracer replaces a public function at the name its caller looks it up
by (``ccepanel.jackknife.fit_cce``, ``ccepanel.cli.read_panel_csv``, ...)
with a wrapper that opens a span; no timer lives inside the package.  A
span's self time is its duration minus the time its child spans cover, so
the self times of all spans opened during an operation add up to the
operation's wall time.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.self_ms = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self.full_cells = None
        self._open = []  # child time (s) accumulated by each open span
        self._patches = []

    def start(self, name):
        self._open.append((name, time.perf_counter(), [0.0]))

    def stop(self):
        name, t0, child = self._open.pop()
        dur = time.perf_counter() - t0
        self.self_ms[name] += (dur - child[0]) * 1e3
        self.calls[name] += 1
        if self._open:
            self._open[-1][2][0] += dur

    def wrap(self, module, attr, name, on_result=None):
        """Trace ``module.attr``; ``name`` may be a function of the call's
        arguments, and ``on_result(result, args)`` sees every return value."""
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            self.start(name(*args, **kwargs) if callable(name) else name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.stop()
            if on_result is not None:
                on_result(result, args)
            return result

        setattr(module, attr, traced)
        self._patches.append((module, attr, original))

    def restore(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def snapshot(self):
        return {
            "self_ms": dict(self.self_ms),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
        }

    def absorb(self, snapshot):
        """Add the spans another process recorded while the innermost open
        span waited for it; they count as that span's children."""
        covered = 0.0
        for name, ms in snapshot["self_ms"].items():
            self.self_ms[name] += ms
            covered += ms
        for name, n in snapshot["calls"].items():
            self.calls[name] += n
        for name, v in snapshot["counts"].items():
            self.counts[name] += v
        if self._open:
            self._open[-1][2][0] += covered / 1e3


def difference(after: dict, before: dict) -> dict:
    """Per-key difference of two snapshots (what one operation added)."""
    return {
        kind: {k: v - before[kind].get(k, 0) for k, v in after[kind].items()}
        for kind in after
    }


def binders(attr: str) -> list:
    """The loaded ccepanel modules whose namespace binds ``attr``: every
    name a caller can look the function up by (the defining module for its
    own calls, ``ccepanel.simulate``, ``ccepanel.jackknife``, ... for the
    modules that import it, ``ccepanel`` for the benchmark's direct calls),
    so that calls are still seen after they move between modules."""
    return [module for name, module in sorted(sys.modules.items())
            if (name == "ccepanel" or name.startswith("ccepanel."))
            and callable(vars(module).get(attr))]


# Public functions by the layer their spans are named after.  Each is
# wrapped in every module that binds it (see ``binders``).
LAYER_OF = {
    "read_panel_csv": "panel.read",
    "write_panel_csv": "panel.write",
    "generate": "simulate.generate",
    "run_grid": "simulate.run_grid",
    "estimate_factors": "factors.estimate",
    "estimate_rank_threshold": "factors.estimate",
    "estimate_rank_ratio": "factors.estimate",
    "compute_beta_bias": "bias.beta",
    "correct_beta": "bias.beta",
    "compute_ape_bias": "bias.ape",
    "correct_ape": "bias.ape",
    "beta_covariance": "inference.beta_cov",
    "ape_variance": "inference.ape_var",
    "ape_estimate": "ape.estimate",
    "spj_correct_beta": "jackknife.spj_beta",
    "spj_correct_ape": "jackknife.spj_ape",
    "split_half_panels": "jackknife.split",
}


def trace_ccepanel(tracer: Tracer):
    """Wrap ccepanel's layer entry points; undo with ``tracer.restore()``.

    ``tracer.full_cells`` (N*T of the operation's panel, or None when any
    panel counts as full) tells full-panel fits from SPJ half-panel fits.
    """
    import ccepanel.cli  # noqa: F401  (loads every module a caller may import from)

    counts = tracer.counts

    def fit_span(panel, *args, **kwargs):
        full = tracer.full_cells in (None, panel.outcomes.size)
        return "estimation.fit_full" if full else "estimation.fit_half"

    def record_fit(fit, args):
        counts["estimation.fit_calls"] += 1
        counts["estimation.iterations"] += fit.iterations
        counts["estimation.phases"] += len(fit.objective_path)
        counts["estimation.not_converged"] += not fit.converged
        counts["estimation.bound_hits"] += fit.bound_hits

    def record_jackknife_fit(fit, args):
        record_fit(fit, args)
        counts["jackknife.fit_calls"] += 1

    def record_read(panel, args):
        tracer.full_cells = panel.outcomes.size
        counts["panel.cells"] += panel.outcomes.size

    for attr, layer in LAYER_OF.items():
        for module in binders(attr):
            tracer.wrap(module, attr, layer, record_read if attr == "read_panel_csv" else None)
    for module in binders("fit_cce"):
        tracer.wrap(module, "fit_cce", fit_span,
                    record_jackknife_fit if module.__name__ == "ccepanel.jackknife" else record_fit)
