"""Spans and counts at the program's layer boundaries, recorded from outside.

Each boundary is a module attribute through which one layer calls the
next (``piezobeam.cli.simulate`` is how the CLI calls the simulator).  The
traced pass replaces those attributes with timing wrappers and restores
them afterwards; no file of the program changes.  Spans live in memory as
(name, start, end, parent index, job id) and are written out at the end.

A layer metric is the *self* time of its spans: span duration minus the
time covered by its direct child spans.  Self times of all spans of a job
therefore add up to the job's traced time.
"""

import importlib
import json
import os
import time

# (module, attribute) -> span name.  The span name is the attribute path.
BOUNDARIES = (
    ("piezobeam.cli", "main"),
    ("piezobeam.cli", "load_config"),
    ("piezobeam.config", "assemble"),
    ("piezobeam.config", "tune_gains"),
    ("piezobeam.cli", "check_placement"),
    ("piezobeam.cli", "simulate"),
    ("piezobeam.simulate", "stability_cap"),
    ("piezobeam.simulate", "CoupledDynamics"),
    ("piezobeam.simulate", "residual_block"),
    ("piezobeam.simulate", "modal_force"),
    ("piezobeam.simulate", "noise_samples"),
    ("piezobeam.analysis", "simulate_residual_mode"),
    ("piezobeam.cli", "residual_bounds"),
    ("piezobeam.cli", "build_bound_report"),
    ("piezobeam.cli", "performance_metrics"),
    ("piezobeam.cli", "write_csv"),
)

# Boundaries that only count calls: a span per pole placement would cost
# more than the call it measures.  Its time stays in the calling span.
COUNTED = {("piezobeam.synthesis", "place_poles"): "synthesis.place_calls"}

# Per-layer time metric -> spans whose self time it sums.
TIME_METRICS = {
    "config.load_s": ("piezobeam.cli.load_config",),
    "modal.assemble_s": ("piezobeam.config.assemble",),
    "modal.residual_block_s": ("piezobeam.simulate.residual_block",),
    "synthesis.check_s": ("piezobeam.cli.check_placement",),
    "synthesis.tune_s": ("piezobeam.config.tune_gains",),
    "simulate.cap_s": ("piezobeam.simulate.stability_cap",),
    "simulate.operator_s": ("piezobeam.simulate.CoupledDynamics",),
    "simulate.propagate_s": ("piezobeam.cli.simulate",),
    "simulate.residual_mode_s": ("piezobeam.analysis.simulate_residual_mode",),
    "signals.channels_s": ("piezobeam.simulate.modal_force",
                           "piezobeam.simulate.noise_samples"),
    "analysis.metrics_s": ("piezobeam.cli.performance_metrics",),
    "analysis.bound_report_s": ("piezobeam.cli.build_bound_report",),
    "analysis.residual_bounds_s": ("piezobeam.cli.residual_bounds",),
    "cli.csv_write_s": ("piezobeam.cli.write_csv",),
    "cli.self_s": ("piezobeam.cli.main",),
}

COUNT_METRICS = ("synthesis.place_calls", "simulate.steps",
                 "simulate.residual_mode_calls", "signals.noise_samples",
                 "cli.csv_rows", "cli.csv_bytes")


# Which end-to-end metric each layer metric should move, on which workload.
MOVES = {
    "config.load_s": "job_p50_cal_s on design_scan",
    "modal.assemble_s": "job_p50_cal_s on design_scan; "
                        "wall_cal_s on sim_wide",
    "modal.residual_block_s": "job_p50_cal_s on design_scan; "
                              "wall_cal_s on sim_wide",
    "synthesis.check_s": "job_p50_cal_s, job_p95_cal_s on design_scan",
    "synthesis.tune_s": "job_p50_cal_s, job_p95_cal_s on design_scan; "
                        "no move on sim_long",
    "synthesis.place_calls": "job_p50_cal_s, job_p95_cal_s on design_scan",
    "simulate.cap_s": "wall_cal_s on sim_wide",
    "simulate.operator_s": "wall_cal_s on sim_wide",
    "simulate.propagate_s": "rk4_steps_per_s on sim_long, sim_wide",
    "simulate.steps": "rk4_steps_per_s on sim_long, sim_wide",
    "simulate.step_us": "rk4_steps_per_s on sim_long, sim_wide",
    "simulate.residual_mode_s": "wall_cal_s on bounds_residual",
    "simulate.residual_mode_calls": "wall_cal_s on bounds_residual",
    "signals.channels_s": "wall_cal_s on sim_long",
    "signals.noise_samples": "wall_cal_s on sim_long",
    "analysis.metrics_s": "wall_cal_s on sim_long",
    "analysis.bound_report_s": "wall_cal_s on bounds_residual",
    "analysis.residual_bounds_s": "wall_cal_s on bounds_residual",
    "cli.csv_write_s": "wall_cal_s on sim_long",
    "cli.csv_rows": "wall_cal_s on sim_long",
    "cli.csv_bytes": "wall_cal_s on sim_long",
    "cli.self_s": "wall_cal_s on sim_long",
    "trace.overhead_frac": "traced wall_cal_s / untraced wall_cal_s - 1",
}


class _CountingRows:
    """Iterable that counts the rows the program consumes from it."""

    def __init__(self, rows, tracer):
        self._rows = rows
        self._tracer = tracer

    def __iter__(self):
        n = 0
        for row in self._rows:
            n += 1
            yield row
        self._tracer.add("cli.csv_rows", n)


class Tracer:
    """In-memory span and counter store plus the attribute patching."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent, job]
        self.counts = []         # [metric, value, job]
        self.job = None
        self._stack = []
        self._saved = []

    def add(self, metric, value):
        self.counts.append([metric, int(value), self.job])

    def _span(self, name, fn, before=None, after=None):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if before is not None:
                args = before(args)
            idx = len(spans)
            spans.append([name, time.perf_counter(), None,
                          stack[-1] if stack else None, self.job])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
            if after is not None:
                after(args, out)
            return out

        return wrapper

    def _hooks(self, name):
        """Count hooks for one boundary: (before(args) -> args, after)."""
        if name == "piezobeam.cli.simulate":
            return None, lambda a, out: self.add("simulate.steps",
                                                 len(out.t) - 1)
        if name == "piezobeam.simulate.noise_samples":
            def before(args):
                self.add("signals.noise_samples", args[1].size)
                return args
            return before, None
        if name == "piezobeam.analysis.simulate_residual_mode":
            return None, lambda a, out: self.add(
                "simulate.residual_mode_calls", 1)
        if name == "piezobeam.cli.write_csv":
            def before(args):
                return args[:2] + (_CountingRows(args[2], self),) + args[3:]
            return before, lambda a, out: self.add(
                "cli.csv_bytes", os.path.getsize(out))
        return None, None

    def install(self):
        for mod_name, attr in BOUNDARIES:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            before, after = self._hooks(f"{mod_name}.{attr}")
            setattr(mod, attr, self._span(f"{mod_name}.{attr}", fn,
                                          before, after))
        for (mod_name, attr), metric in COUNTED.items():
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._counter(metric, fn))

    def _counter(self, metric, fn):
        def wrapper(*args, **kwargs):
            self.add(metric, 1)
            return fn(*args, **kwargs)
        return wrapper

    def uninstall(self):
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)

    def self_times(self):
        """Self time of every span, in span order."""
        out = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                out[parent] -= end - start
        return out

    def layer_totals(self, jobs):
        """Per-layer self times and counts summed over spans of ``jobs``."""
        jobs = set(jobs)
        times = dict.fromkeys(TIME_METRICS, 0.0)
        by_span = {s: m for m, names in TIME_METRICS.items() for s in names}
        for span, self_t in zip(self.spans, self.self_times()):
            if span[4] in jobs:
                times[by_span[span[0]]] += self_t
        counts = dict.fromkeys(COUNT_METRICS, 0)
        for metric, value, job in self.counts:
            if job in jobs:
                counts[metric] += value
        return times, counts

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "job"],
                       "spans": self.spans,
                       "counts": self.counts}, fh)
