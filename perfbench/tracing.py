"""Spans around the public calls of each ``blocklearn`` layer.

The program is not changed: a traced round temporarily replaces module
attributes with wrappers that record a span (name, start, end, parent) and
layer counters, and puts the originals back afterwards.  Each wrapper is
installed in the namespace the caller looks the name up in, e.g.
``blocklearn.harness.run`` for the ``run`` calls that ``run_experiment``
makes.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

from blocklearn import cli, harness, inverse, learning

ROOT_SPAN = "round"


def _tree_bytes(root):
    return sum(p.stat().st_size for p in Path(root).rglob("*") if p.is_file())


def _count_retries(network, args):
    return {"graphs.redraws": network.retries}


# (owner, attribute, span name, counter); the owner is the namespace the
# caller resolves the name in.
TARGETS = [
    (harness, "run_experiment", "harness.run_experiment", None),
    (cli, "run_experiment", "harness.run_experiment", None),
    (harness, "sample_sbm", "graphs.sample_sbm", _count_retries),
    (cli, "sample_sbm", "graphs.sample_sbm", _count_retries),
    (harness, "run", "learning.run", lambda trace, args: {"learning.steps": trace.horizon}),
    (learning, "observation_matrix", "models.observation_matrix",
     lambda symbols, args: {"models.symbols": symbols.size}),
    (harness.ExperimentResult, "write_outputs", "harness.write_outputs",
     lambda outputs, args: {"harness.bytes_written": _tree_bytes(args[1])}),
    (cli, "expected_log_ratio", "theory.expected_log_ratio",
     lambda prediction, args: {"theory.series_terms": prediction.truncation_steps}),
    (cli, "scan_delta", "inverse.scan_delta", None),
]


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None, round]
        self.counts = {}  # round -> Counter
        self.round = None
        self._stack = []

    @contextmanager
    def span(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent, self.round]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, fn, count=None):
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                self.counts.setdefault(self.round, Counter()).update(count(result, args))
            return result

        return traced

    @contextmanager
    def traced_round(self, index):
        """Install the layer wrappers and open the round's root span."""
        self.round = index
        saved = []
        try:
            for owner, attr, name, count in TARGETS:
                saved.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, self.wrap(name, getattr(owner, attr), count))
            series = inverse.BeliefSeries
            saved.append((series, "from_trace_csv", series.__dict__["from_trace_csv"]))
            load = self.wrap("inverse.from_trace_csv", series.from_trace_csv,
                             lambda s, args: {"inverse.rows_loaded": s.values.size})
            series.from_trace_csv = classmethod(lambda cls, *a, **k: load(*a, **k))
            with self.span(ROOT_SPAN):
                yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
            self.round = None

    def nesting_error(self):
        """None if every span ended inside its parent, else a reason."""
        for name, start, end, parent, _ in self.spans:
            if end is None or end < start:
                return f"span {name} did not end"
            if parent is not None:
                p = self.spans[parent]
                if start < p[1] or end > p[2]:
                    return f"span {name} is not inside its parent {p[0]}"
        return None

    def round_totals(self, round_index):
        """(calls, total seconds, self seconds) per span name in one round."""
        spans = [(i, s) for i, s in enumerate(self.spans) if s[4] == round_index]
        child_time = Counter()
        for _, (_, start, end, parent, _) in spans:
            if parent is not None:
                child_time[parent] += end - start
        calls, total, self_time = Counter(), Counter(), Counter()
        for i, (name, start, end, _, _) in spans:
            calls[name] += 1
            total[name] += end - start
            self_time[name] += end - start - child_time[i]
        return calls, total, self_time

    def write(self, path, machine):
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        records = [{"name": n, "start": s, "end": e, "parent": p, "round": r}
                   for n, s, e, p, r in self.spans]
        path.write_text(json.dumps({"machine": machine, "spans": records}))


def layer_metrics(tracer, traced_rounds, replicate_steps, untraced_walls, import_s):
    """Per-layer metrics: medians over traced rounds of per-round totals.

    Counters repeat exactly from round to round, so they come from the first
    traced round.  A layer a workload never calls reads 0.
    """
    totals = [tracer.round_totals(r) for r in traced_rounds]
    counts = tracer.counts.get(traced_rounds[0], Counter())

    def med(kind, name):
        return statistics.median(t[kind][name] for t in totals)

    calls, total, self_ = 0, 1, 2
    samples = med(calls, "graphs.sample_sbm")
    run_s = med(total, "learning.run")
    observation_s = med(total, "models.observation_matrix")
    wall = med(total, ROOT_SPAN)
    untraced = statistics.median(untraced_walls)
    # the round of median wall time, split into layer self times and the rest
    mid = sorted(totals, key=lambda t: t[total][ROOT_SPAN])[(len(totals) - 1) // 2]
    return {
        "graphs.sample_calls": (samples, "count"),
        "graphs.sample_s": (med(total, "graphs.sample_sbm"), "s"),
        "graphs.redraws": (counts["graphs.redraws"], "count"),
        "graphs.draws_per_network": ((samples + counts["graphs.redraws"]) / samples if samples else 0.0,
                                     "ratio"),
        "models.observation_calls": (med(calls, "models.observation_matrix"), "count"),
        "models.observation_s": (observation_s, "s"),
        "models.symbols_per_s": (counts["models.symbols"] / observation_s if observation_s else 0.0, "1/s"),
        "learning.run_calls": (med(calls, "learning.run"), "count"),
        "learning.run_s": (run_s, "s"),
        "learning.self_s": (med(self_, "learning.run"), "s"),
        "learning.us_per_replicate_step": (1e6 * run_s / replicate_steps, "us"),
        "harness.run_experiment_s": (med(total, "harness.run_experiment"), "s"),
        "harness.self_s": (med(self_, "harness.run_experiment"), "s"),
        "harness.write_s": (med(total, "harness.write_outputs"), "s"),
        "harness.bytes_written": (counts["harness.bytes_written"], "bytes"),
        "theory.predict_calls": (med(calls, "theory.expected_log_ratio"), "count"),
        "theory.predict_s": (med(total, "theory.expected_log_ratio"), "s"),
        "theory.series_terms": (counts["theory.series_terms"], "count"),
        "inverse.load_s": (med(total, "inverse.from_trace_csv"), "s"),
        "inverse.rows_loaded": (counts["inverse.rows_loaded"], "count"),
        "inverse.scan_s": (med(total, "inverse.scan_delta"), "s"),
        "cli.import_s": (import_s, "s"),
        "cli.generate_s": (med(total, "cli.generate"), "s"),
        "cli.simulate_s": (med(total, "cli.simulate"), "s"),
        "cli.predict_s": (med(total, "cli.predict"), "s"),
        "cli.fit_delta_s": (med(total, "cli.fit_delta"), "s"),
        "trace.wall_s": (wall, "s"),
        "trace.mid_wall_s": (mid[total][ROOT_SPAN], "s"),
        "trace.mid_spans_self_s": (sum(mid[self_].values()) - mid[self_][ROOT_SPAN], "s"),
        "trace.mid_remainder_s": (mid[self_][ROOT_SPAN], "s"),
        "trace.untraced_wall_s": (untraced, "s"),
        "trace.overhead_s": (wall - untraced, "s"),
    }
