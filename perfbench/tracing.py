"""Per-layer spans recorded from outside the package.

The tracer replaces each listed function by a wrapper in the namespace its
caller looks it up in (``leakscope.cli.run_aes_batch``, ``Machine.run_program``
on the class, ``leakscope.sim.machine.obfuscate64_vec``, ...), so the package
itself is unchanged. A span records name, start, end, parent and counts; spans
stay in memory until the run ends. Self time is a span's duration minus the
time its child spans cover. Flows are single-threaded (``analyze`` runs with
``--threads 1``), so one span stack suffices.
"""

from __future__ import annotations

import functools
import resource
import statistics
import time

import numpy as np


def peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Span:
    __slots__ = ("name", "start", "end", "parent", "child_time", "counts", "rss_mb")

    def __init__(self, name: str, parent: int | None):
        self.name = name
        self.parent = parent
        self.child_time = 0.0
        self.counts: dict[str, int] = {}

    def to_json(self) -> list:
        return [self.name, self.start, self.end, self.parent, self.counts]


class Tracer:
    """Installs span wrappers for the duration of a ``with`` block."""

    def __init__(self, hooks):
        self.hooks = hooks
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved = []

    def _wrap(self, fn, name, count):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, stack[-1] if stack else None)
            spans.append(span)
            stack.append(len(spans) - 1)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                span.rss_mb = peak_rss_mb()
                if span.parent is not None:
                    spans[span.parent].child_time += span.end - span.start
            if count is not None:
                span.counts = count(args, kwargs, result)
            return result

        return wrapper

    def __enter__(self):
        for owner, attr, name, count in self.hooks:
            fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, count))
        return self

    def __exit__(self, *exc):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()
        return False


def leakscope_hooks():
    """(namespace, attribute, span name, count function) for every layer."""
    from leakscope import cli, cpa, metrics, vcd
    from leakscope.sim import machine, run

    M = machine.Machine

    def n_pairs(runs):
        return runs.n_runs * (runs.n_runs - 1) // 2

    hooks = [
        (cli, "cmd_simulate", "cli.simulate", None),
        (cli, "cmd_analyze", "cli.analyze", None),
        (cli, "cmd_dpa", "cli.dpa", None),
        (cli, "cmd_ttest", "cli.ttest", None),
        (cli, "run_aes_batch", "sim.run_aes_batch", None),
        (cli, "cache_set_experiment", "sim.cache_set_experiment", None),
        (cli, "save_traces_npz", "sim.save_traces_npz", None),
        (cli, "load_traces_npz", "sim.load_traces_npz", None),
        (cli, "emit_vcd", "sim.emit_vcd", lambda a, k, r: {"bytes": len(r)}),
        (cli, "load_run_set", "vcd.load_run_set", None),
        (run, "epoch_keys", "sim.epoch_keys", lambda a, k, r: {"epochs": len(r)}),
        (run, "extract_cycle_log", "sim.extract_cycle_log", None),
        (M, "__init__", "sim.Machine.__init__", None),
        (M, "poke_bytes", "sim.Machine.poke_bytes", None),
        (M, "run_program", "sim.Machine.run_program",
         lambda a, k, r: {"lane_cycles": int(r[0].shape[0] * r[0].shape[1])}),
        (vcd, "parse_vcd", "vcd.parse_vcd",
         lambda a, k, r: {"bytes": len(a[0]), "changes": len(r.changes)}),
        (vcd, "resample_per_cycle", "vcd.resample_per_cycle", None),
        (metrics, "read_oracle_csv", "metrics.read_oracle_csv", None),
        (metrics, "svf_all", "metrics.svf_all",
         lambda a, k, r: {"modules": len(r.results),
                          "pairs": len(r.results) * n_pairs(a[0])}),
        (metrics, "permutation_floor", "metrics.permutation_floor",
         lambda a, k, r: {"shuffles": k.get("shuffles", 1000)}),
        (metrics, "pairwise_ttest_matrix", "metrics.pairwise_ttest_matrix", None),
        (metrics, "welch_t", "metrics.welch_t", None),
        (cpa, "cpa_attack", "cpa.cpa_attack",
         lambda a, k, r: {"trace_rows": int(r.n_traces)}),
        (cpa, "mtd", "cpa.mtd", None),
        (cpa, "correlation_evolution", "cpa.correlation_evolution", None),
        (cpa, "write_evolution_csv", "cpa.write_evolution_csv", None),
    ]
    # The simulator calls the vector Feistel through names bound in its module.
    for fn in ("obfuscate32_vec", "deobfuscate32_vec", "obfuscate64_vec", "deobfuscate64_vec"):
        hooks.append((machine, fn, "feistel.vec",
                      lambda a, k, r: {"words": int(np.size(a[0]))}))
    return hooks


# Per-layer metric -> (unit, how it is computed from one flow's spans).
# "self" is summed self time, "calls" the span count, ("count", span, key) a
# summed count, "rss" the peak RSS when the last such span closed; the two
# rates divide a count by the span's inclusive time. "untraced" metrics come
# from the run's untraced flows instead (see run.trace_metrics).
LAYER_METRICS = {
    "sim.Machine.run_program.s": ("s", "self"),
    "sim.lane_cycles": ("count", ("count", "sim.Machine.run_program", "lane_cycles")),
    "sim.lane_cycles_per_s": ("1/s", ("rate", "sim.Machine.run_program", "lane_cycles")),
    "sim.machines": ("count", ("calls", "sim.Machine.__init__")),
    "sim.run_aes_batch.s": ("s", "self"),
    "sim.save_traces_npz.s": ("s", "self"),
    "sim.load_traces_npz.s": ("s", "self"),
    "sim.Machine.poke_bytes.s": ("s", "self"),
    "sim.Machine.poke_bytes.calls": ("count", "calls"),
    "sim.epoch_keys.s": ("s", "self"),
    "sim.epoch_keys.epochs": ("count", ("count", "sim.epoch_keys", "epochs")),
    "sim.cache_set_experiment.s": ("s", "self"),
    "sim.extract_cycle_log.s": ("s", "self"),
    "sim.emit_vcd.s": ("s", "self"),
    "sim.emit_vcd.bytes": ("count", ("count", "sim.emit_vcd", "bytes")),
    "feistel.vec.s": ("s", "self"),
    "feistel.vec.calls": ("count", "calls"),
    "feistel.vec.words": ("count", ("count", "feistel.vec", "words")),
    "vcd.parse_vcd.s": ("s", "self"),
    "vcd.parse_vcd.bytes": ("count", ("count", "vcd.parse_vcd", "bytes")),
    "vcd.parse_mb_per_s": ("MB/s", ("rate", "vcd.parse_vcd", "bytes")),
    "vcd.changes": ("count", ("count", "vcd.parse_vcd", "changes")),
    "vcd.resample_per_cycle.s": ("s", "self"),
    "vcd.load_run_set.s": ("s", "self"),
    "vcd.load_run_set.rss_mb": ("MB", "rss"),
    "metrics.svf_all.s": ("s", "self"),
    "metrics.svf_all.modules": ("count", ("count", "metrics.svf_all", "modules")),
    "metrics.svf_all.pairs": ("count", ("count", "metrics.svf_all", "pairs")),
    "metrics.svf_all.rss_mb": ("MB", "rss"),
    "metrics.permutation_floor.s": ("s", "self"),
    "metrics.permutation_floor.shuffles": (
        "count", ("count", "metrics.permutation_floor", "shuffles")),
    "metrics.read_oracle_csv.s": ("s", "self"),
    "metrics.pairwise_ttest_matrix.s": ("s", "self"),
    "metrics.welch_t.s": ("s", "self"),
    "metrics.welch_t.calls": ("count", "calls"),
    "cpa.cpa_attack.s": ("s", "self"),
    "cpa.cpa_attack.calls": ("count", "calls"),
    "cpa.cpa_attack.trace_rows": ("count", ("count", "cpa.cpa_attack", "trace_rows")),
    "cpa.mtd.s": ("s", "self"),
    "cpa.correlation_evolution.s": ("s", "self"),
    "cpa.write_evolution_csv.s": ("s", "self"),
    "cli.simulate.s": ("s", "self"),
    "cli.analyze.s": ("s", "self"),
    "cli.dpa.s": ("s", "self"),
    "cli.ttest.s": ("s", "self"),
    "cli.simulate.wall_s": ("s", "untraced"),
    "cli.analyze.wall_s": ("s", "untraced"),
    "cli.dpa.wall_s": ("s", "untraced"),
    "cli.ttest.wall_s": ("s", "untraced"),
    "trace.overhead_pct": ("%", "untraced"),
}


def layer_values(spans: list[Span]) -> dict[str, float]:
    """One flow's per-layer values (everything but the tracing overhead)."""
    agg: dict[str, dict] = {}
    for s in spans:
        a = agg.setdefault(s.name, {"self": 0.0, "incl": 0.0, "calls": 0, "rss": 0.0})
        a["self"] += s.end - s.start - s.child_time
        a["incl"] += s.end - s.start
        a["calls"] += 1
        a["rss"] = s.rss_mb
        for k, v in s.counts.items():
            a[k] = a.get(k, 0) + v
    empty = {"self": 0.0, "incl": 0.0, "calls": 0, "rss": 0.0}
    out = {}
    for metric, (_, how) in LAYER_METRICS.items():
        if how == "untraced":
            continue
        if isinstance(how, str):
            span = metric.rsplit(".", 1)[0]
            out[metric] = agg.get(span, empty)[how]
            continue
        kind, span, *key = how
        a = agg.get(span, empty)
        if kind == "calls":
            out[metric] = a["calls"]
        elif kind == "count":
            out[metric] = a.get(key[0], 0)
        else:  # rate
            scale = 1e-6 if metric.endswith("mb_per_s") else 1.0
            out[metric] = a.get(key[0], 0) * scale / a["incl"] if a["incl"] else 0.0
    return out


def median_values(per_flow: list[dict[str, float]]) -> dict[str, float]:
    """Per-metric median over flows; the low median keeps counts whole."""
    return {k: statistics.median_low(f[k] for f in per_flow) for k in per_flow[0]}
