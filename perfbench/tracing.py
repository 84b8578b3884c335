"""Spans and counters recorded around calls into the resolvent_lab layers.

Nothing inside the package is edited: ``installed(tracer)`` rebinds the
module and class attributes through which callers reach each layer's public
functions, and restores them on exit.  A span records its name, start, end,
parent span, operation id and thread id; spans stay in memory until the run
writes them out.  A layer is the first dotted component of a span name.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import threading
import time
from collections import defaultdict

import numpy as np

LAYERS = ("potentials", "carleman", "radial", "scaling", "cli")


class Tracer:
    """In-memory span and counter store for one traced pass."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, op, thread, error]
        self.counters = defaultdict(int)
        self.maxima = {}
        self.op = None
        self._local = threading.local()

    def _stack(self):
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextlib.contextmanager
    def span(self, name, op=None):
        stack = self._stack()
        parent = stack[-1] if stack else None
        outer_op = self.op
        if op is not None:
            self.op = op
        record = [name, time.perf_counter(), None, parent, self.op,
                  threading.get_ident(), False]
        self.spans.append(record)
        stack.append(len(self.spans) - 1)
        try:
            yield record
        except BaseException:
            record[6] = True
            raise
        finally:
            record[2] = time.perf_counter()
            stack.pop()
            self.op = outer_op

    def count(self, name, amount=1):
        self.counters[name] += amount

    def maximum(self, name, value):
        self.maxima[name] = max(self.maxima.get(name, value), value)

    def span_dicts(self):
        keys = ("name", "start", "end", "parent", "op", "thread", "error")
        return [dict(zip(keys, s)) for s in self.spans]


def layer_of(name):
    return name.split(".", 1)[0]


def summarize(spans, wall):
    """Per-name inclusive time and count, per-layer self time, uncovered time.

    A span nested in a span of the same name adds to the count but not to
    the inclusive time.  Self time is a span's duration minus the durations
    of its direct children; the time no top-level span covers is reported
    as uncovered, so the layer self times plus the uncovered time add up to
    ``wall``.
    """
    child_time = defaultdict(float)
    for s in spans:
        if s[3] is not None:
            child_time[s[3]] += s[2] - s[1]
    total = defaultdict(float)
    calls = defaultdict(int)
    self_time = {layer: 0.0 for layer in LAYERS}
    covered = 0.0
    for i, s in enumerate(spans):
        dur = s[2] - s[1]
        calls[s[0]] += 1
        if not _has_ancestor(spans, i, s[0]):
            total[s[0]] += dur
        self_time[layer_of(s[0])] += dur - child_time[i]
        if s[3] is None:
            covered += dur
    return total, calls, self_time, wall - covered


def _has_ancestor(spans, i, name):
    parent = spans[i][3]
    while parent is not None:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(tracer, wall):
    """Per-layer metrics of one traced pass that took ``wall`` seconds."""
    spans = tracer.spans
    total, calls, self_time, uncovered = summarize(spans, wall)
    c = tracer.counters
    searches = [i for i, s in enumerate(spans) if s[0] == "carleman.search"]
    attempts = sum(1 for i, s in enumerate(spans) if s[0] == "carleman.certify"
                   and _has_ancestor(spans, i, "carleman.search"))
    passed = sum(1 for i in searches if not spans[i][6])
    matvecs = c["radial.matvecs"]
    m = {
        "potentials.build_s": total["potentials.build"],
        "potentials.mollify_s": total["potentials.mollify"],
        "potentials.mollify_calls": calls["potentials.mollify"],
        "potentials.ratio_s": total["potentials.ratio"],
        "potentials.eval_s": total["potentials.eval"],
        "potentials.eval_points": c["potentials.eval_points"],
        "carleman.certify_s": total["carleman.certify"],
        "carleman.certify_calls": calls["carleman.certify"],
        "carleman.grid_points": c["carleman.grid_points"],
        "carleman.search_attempts": attempts,
        "carleman.search_pass_ratio": passed / attempts if attempts else 0.0,
        "radial.assemble_s": total["radial.assemble"],
        "radial.norm_s": total["radial.norm"],
        "radial.norm_calls": calls["radial.norm"],
        "radial.unknowns": c["radial.unknowns"],
        "radial.matvecs": matvecs,
        "radial.s_per_matvec": total["radial.norm"] / matvecs if matvecs else 0.0,
        "radial.residual_max": tracer.maxima.get("radial.residual_max", 0.0),
        "radial.dense_s": total["radial.dense"],
        "radial.dense_calls": calls["radial.dense"],
        "radial.conj_solve_s": total["radial.conj_solve"],
        "radial.audit_s": total["radial.audit"],
        "scaling.sweep_s": total["scaling.sweep"],
        "scaling.rows": c["scaling.rows"],
        "scaling.rows_failed": c["scaling.rows_failed"],
        "scaling.row_s_max": tracer.maxima.get("scaling.row_s_max", 0.0),
        "scaling.bound_s": total["scaling.bound"],
        "scaling.fit_s": total["scaling.fit"],
        "scaling.write_s": total["scaling.write"],
        "scaling.redundant_rows": c["scaling.redundant_rows"],
        "cli.main_s": total["cli.main"],
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_time[layer]
    m["trace.wall_s"] = wall
    m["trace.uncovered_s"] = uncovered
    m["trace.spans"] = len(spans)
    return m


def setup_metrics(tracer, wall):
    """Metrics of a traced workload set-up that took ``wall`` seconds.

    The set-up runs after the package is imported, so import time is part of
    ``setup_s`` but not of ``setup.wall_s``.
    """
    total, calls, self_time, uncovered = summarize(tracer.spans, wall)
    m = {f"setup.{layer}.self_s": self_time[layer] for layer in LAYERS}
    m.update({
        "setup.wall_s": wall,
        "setup.uncovered_s": uncovered,
        "setup.potentials.build_s": total["potentials.build"],
        "setup.potentials.mollify_s": total["potentials.mollify"],
        "setup.potentials.mollify_calls": calls["potentials.mollify"],
        "setup.carleman.certify_s": total["carleman.certify"],
        "setup.carleman.certify_calls": calls["carleman.certify"],
    })
    return m


def _query_op(bound):
    q = bound.arguments["query"]
    return f"h={q.h!r} eps={q.eps!r} sign={q.sign:+d}"


def _count_norm(tracer, bound, est):
    tracer.count("radial.matvecs", est.iterations)
    sectors = bound.arguments["l_max"] + 1
    tracer.count("radial.unknowns",
                 sectors * bound.arguments["grid_spec"].points().size)
    tracer.maximum("radial.residual_max", est.residual)


def _count_sweep(tracer, bound, result):
    measured = set()
    for row in result.rows:
        tracer.count("scaling.rows")
        if row.status != "ok":
            tracer.count("scaling.rows_failed")
        key = (row.h, row.eps)
        if key in measured:
            tracer.count("scaling.redundant_rows")
        measured.add(key)
        tracer.maximum("scaling.row_s_max", row.runtime_ms / 1000.0)


def _count_certify(tracer, bound, cert):
    tracer.count("carleman.grid_points", cert.grid.size)


def _count_eval(tracer, bound, value):
    tracer.count("potentials.eval_points", np.size(value))


def _targets():
    """(owner, attribute, span name, counter hook, op labeller) per call site."""
    from resolvent_lab import carleman, cli, potentials, radial, scaling
    return [
        (potentials.PotentialModel, "__call__", "potentials.eval", _count_eval, None),
        (potentials, "build_potential", "potentials.build", None, None),
        (cli, "build_potential", "potentials.build", None, None),
        (potentials, "mollify", "potentials.mollify", None, None),
        (potentials.MollifiedPotential, "error_ratio", "potentials.ratio", None, None),
        (potentials.MollifiedPotential, "deriv_ratio", "potentials.ratio", None, None),
        (cli, "mollify", "potentials.mollify", None, None),
        (carleman, "certify", "carleman.certify", _count_certify, None),
        (carleman, "search_tau0", "carleman.search", None, None),
        (cli, "search_tau0", "carleman.search", None, None),
        (carleman, "search_tau0_with_fallback", "carleman.search_fallback", None, None),
        (cli, "search_tau0_with_fallback", "carleman.search_fallback", None, None),
        (radial, "assemble", "radial.assemble", None, None),
        (radial, "weighted_resolvent_norm", "radial.norm", _count_norm, None),
        (scaling, "weighted_resolvent_norm", "radial.norm", _count_norm, _query_op),
        (radial, "dense_weighted_norm", "radial.dense", None, None),
        (radial, "assemble_conjugated", "radial.conj_assemble", None, None),
        (radial.ConjugatedOperator, "solve", "radial.conj_solve", None, None),
        (radial, "energy_audit", "radial.audit", None, None),
        (scaling, "sweep", "scaling.sweep", _count_sweep, None),
        (cli, "sweep", "scaling.sweep", _count_sweep, None),
        (scaling, "bound_from_certificate", "scaling.bound", None, None),
        (scaling.CertifiedBound, "g_bound", "scaling.bound", None, None),
        (scaling, "fit_models", "scaling.fit", None, None),
        (cli, "fit_models", "scaling.fit", None, None),
        (cli, "write_sweep_csv", "scaling.write", None, None),
        (cli, "write_summary_json", "scaling.write", None, None),
        (cli, "write_plotdata_tsv", "scaling.write", None, None),
        (cli, "main", "cli.main", None, None),
    ]


def _wrap(tracer, fn, name, hook, op_of):
    sig = inspect.signature(fn) if hook or op_of else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        bound = None
        if sig is not None:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
        op = op_of(bound) if op_of else None
        with tracer.span(name, op):
            result = fn(*args, **kwargs)
        if hook:
            hook(tracer, bound, result)
        return result

    return wrapper


@contextlib.contextmanager
def installed(tracer):
    """Route every traced call site through ``tracer`` until exit."""
    saved = []
    try:
        for owner, attr, name, hook, op_of in _targets():
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(tracer, original, name, hook, op_of))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
