"""In-memory spans around the calls into each senseplan layer.

A span is recorded by replacing a function at the module attribute its
caller looks it up by (``senseplan.planner.edg_exact``, not
``senseplan.infogain.edg_exact``), the same seam the planner tests patch.
The program itself is unchanged.  Spans stay in memory until the run ends;
:func:`layer_report` turns them into per-name and per-layer self times.
"""

from __future__ import annotations

import functools
import gzip
import importlib
from contextlib import contextmanager
from time import perf_counter

import numpy as np

#: (module whose attribute is replaced, attribute, span name).  The span
#: name's first component is the layer: the senseplan module that owns
#: the function.  ``planner._greedy_choice`` is the greedy step
#: ``run_episode`` and ``greedy_select`` both call, so its span is named
#: after the public entry point.
SEAMS = (
    ("senseplan.harness", "run_trial", "harness.run_trial"),
    ("senseplan.harness", "build_mask", "harness.build_mask"),
    ("senseplan.harness", "place_scenario", "environment.place_scenario"),
    ("senseplan.harness", "sample_field", "environment.sample_field"),
    ("senseplan.harness", "run_episode", "planner.run_episode"),
    ("senseplan.harness", "aggregate_series", "metrics.aggregate_series"),
    ("senseplan.harness", "render_series_csv", "harness.render_series_csv"),
    ("senseplan.planner", "_greedy_choice", "planner.greedy_select"),
    ("senseplan.planner", "edg_exact", "infogain.edg_exact"),
    ("senseplan.planner", "posterior", "gp.posterior"),
    ("senseplan.planner", "measure", "environment.measure"),
    ("senseplan.planner", "field_value", "environment.field_value"),
    ("senseplan.planner", "estimating_error", "metrics.estimating_error"),
    ("senseplan.planner", "estimating_variance", "metrics.estimating_variance"),
    ("senseplan.planner", "rmse", "metrics.rmse"),
    ("senseplan.planner", "intersection_indices", "metrics.intersection_indices"),
    ("senseplan.infogain", "posterior", "gp.posterior"),
    ("senseplan.infogain", "predictive_measurement", "gp.predictive_measurement"),
    ("senseplan.infogain", "kernel_matrix", "gp.kernel_matrix"),
    ("senseplan.infogain", "jittered_cholesky", "gp.jittered_cholesky"),
    ("senseplan.gp", "kernel_matrix", "gp.kernel_matrix"),
    ("senseplan.gp", "jittered_cholesky", "gp.jittered_cholesky"),
    ("senseplan.environment", "sample_prior_field", "gp.sample_prior_field"),
)

# Span record fields, kept as lists for a low per-call cost.
NAME, START, END, PARENT, TRIAL, TAG = range(6)


class Tracer:
    """Records nested spans: name, start, end, parent, trial id and a tag.

    The trial id is taken from the ``run_trial`` call the span runs under;
    ``run_episode`` spans are tagged with their planner kind.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._trial = -1

    def wrap(self, name, fn):
        """``fn`` recording one span per call."""
        spans, stack = self.spans, self._stack
        set_trial = name == "harness.run_trial"
        tag_planner = name == "planner.run_episode"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if set_trial:
                self._trial = int(args[1])
            tag = args[0].planner_kind if tag_planner else ""
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self._trial, tag]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
                if set_trial:
                    self._trial = -1

        return traced

    @contextmanager
    def installed(self):
        """Replace every seam in :data:`SEAMS` for the duration of the block.

        A seam the program no longer has is listed in ``missing``.
        """
        saved = []
        try:
            for module_name, attr, name in SEAMS:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr, None)
                if fn is None:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                saved.append((module, attr, fn))
                setattr(module, attr, self.wrap(name, fn))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def write_spans(self, path, origin: float) -> None:
        """Spans as gzipped CSV; times in seconds from ``origin``."""
        with gzip.open(path, "wt", newline="") as fh:
            fh.write("id,name,start_s,end_s,parent,trial,tag\n")
            for i, s in enumerate(self.spans):
                fh.write(
                    f"{i},{s[NAME]},{s[START] - origin:.9f},{s[END] - origin:.9f},"
                    f"{s[PARENT]},{s[TRIAL]},{s[TAG]}\n"
                )


def layer_report(spans: list[list], wall_s: float) -> dict:
    """Per-name and per-layer call counts, inclusive and self times.

    A span's self time is its duration minus the time its child spans
    cover; children of one span never overlap because the program runs
    them one after another.  ``share`` is self time over ``wall_s``.
    """
    n = len(spans)
    start = np.fromiter((s[START] for s in spans), float, n)
    end = np.fromiter((s[END] for s in spans), float, n)
    parent = np.fromiter((s[PARENT] for s in spans), int, n)
    dur = end - start
    covered = np.zeros(n)
    nested = parent >= 0
    np.add.at(covered, parent[nested], dur[nested])
    self_s = dur - covered

    rows: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        rows.setdefault(s[NAME], []).append(i)
    names = {}
    for name, idx in rows.items():
        idx = np.array(idx)
        names[name] = {
            "calls": len(idx),
            "s": float(dur[idx].sum()),
            "self_s": float(self_s[idx].sum()),
            "durations": dur[idx],
        }
    layers: dict[str, dict] = {}
    for name, row in names.items():
        layer = layers.setdefault(name.split(".")[0], {"calls": 0, "self_s": 0.0})
        layer["calls"] += row["calls"]
        layer["self_s"] += row["self_s"]
    for layer in layers.values():
        layer["share"] = layer["self_s"] / wall_s
    return {"names": names, "layers": layers, "self_total_s": float(self_s.sum())}


def count_under(spans: list[list], name: str, ancestor: str) -> int:
    """Number of ``name`` spans that run inside an ``ancestor`` span."""
    inside = [False] * len(spans)
    count = 0
    for i, s in enumerate(spans):
        p = s[PARENT]
        inside[i] = s[NAME] == ancestor or (p >= 0 and inside[p])
        if s[NAME] == name and p >= 0 and inside[p]:
            count += 1
    return count
