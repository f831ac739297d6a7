"""Traced runs: spans around the program's public functions, from outside.

:class:`Tracer` replaces each function in :data:`TARGETS` by a wrapper in
every ``linkgamma`` module namespace that binds it (``det`` is bound in
``polylin``, ``gamma`` and the package itself, and calls made through any of
those names must be seen).  Each wrapper appends a span -- id, parent id,
name, start, end, and one optional number taken from the call -- to a list
in memory; nothing is written until the run ends.  The program's code is not
changed, and when no tracer is installed nothing of this runs.

Self time is a span's duration minus the durations of its direct children.
Calls are strictly nested (one thread), so the children never overlap.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# The public functions a traced run wraps; a span's name is "module.function".
TARGETS = (
    ("polylin", "det"),
    ("polylin", "adjugate"),
    ("polylin", "int_inverse"),
    ("exactnum", "poly_exact_div"),
    ("exactnum", "poly_gcd"),
    ("exactnum", "ratfn_reduce"),
    ("exactnum", "series_expand_at_one"),
    ("gamma", "h_closed_form"),
    ("gamma", "validate"),
    ("gamma", "gamma_seq"),
    ("transforms", "swap_seq"),
    ("transforms", "mixed_gamma0"),
    ("transforms", "beta_from_gamma"),
    ("transforms", "apply_shift"),
    ("equivalence", "are_equivalent"),
    ("equivalence", "canonicalize"),
    ("milnor", "milnor_residues"),
    ("fileformat", "load_text"),
    ("cli", "main"),
)

# One number recorded on a span, from the call's arguments and result.
SPAN_VALUES = {
    # denominator degree in minus denominator degree out
    "exactnum.ratfn_reduce": lambda args, result: args[1].degree() - result.den.degree(),
    # bit length of the largest entry
    "gamma.gamma_seq": lambda args, result: max(abs(e).bit_length() for e in result.entries),
    # |n|, the number of operator steps the shift takes
    "transforms.apply_shift": lambda args, result: abs(args[1]),
}

ITEM_SPAN = "bench.item"
NO_PARENT = -1

# Per-layer metrics of a traced run, in BENCHMARK.json order, with units.
# Counts and times are per item of the traced run.
PER_LAYER_UNITS = {
    "polylin.det.calls": "calls/item",
    "polylin.det.self_ms": "ms/item",
    "polylin.adjugate.calls": "calls/item",
    "polylin.adjugate.self_ms": "ms/item",
    "polylin.int_inverse.self_ms": "ms/item",
    "exactnum.poly_exact_div.calls": "calls/item",
    "exactnum.poly_exact_div.self_ms": "ms/item",
    "exactnum.poly_gcd.self_ms": "ms/item",
    "exactnum.ratfn_reduce.self_ms": "ms/item",
    "exactnum.ratfn_reduce.deg_drop": "deg/item",
    "exactnum.series_expand_at_one.self_ms": "ms/item",
    "gamma.h_closed_form.self_ms": "ms/item",
    "gamma.validate.calls": "calls/item",
    "gamma.validate.self_ms": "ms/item",
    "gamma.gamma_seq.self_ms": "ms/item",
    "gamma.max_bits": "bits",
    "transforms.swap_seq.self_ms": "ms/item",
    "transforms.mixed_gamma0.self_ms": "ms/item",
    "transforms.beta_from_gamma.self_ms": "ms/item",
    "transforms.apply_shift.calls": "calls/item",
    "transforms.apply_shift.self_ms": "ms/item",
    "equivalence.are_equivalent.self_ms": "ms/item",
    "equivalence.canonicalize.self_ms": "ms/item",
    "equivalence.shift_abs_total": "steps/item",
    "milnor.milnor_residues.self_ms": "ms/item",
    "fileformat.load_text.calls": "calls/item",
    "fileformat.load_text.self_ms": "ms/item",
    "cli.interp_ms": "ms",
    "cli.import_ms": "ms",
    "cli.main.self_ms": "ms/item",
    "bench.trace_overhead_frac": "ratio",
}


class Tracer:
    """Context manager that wraps :data:`TARGETS` while it is active."""

    def __init__(self):
        self.spans = []  # (id, parent, name, start_ns, end_ns, value)
        self._stack = [NO_PARENT]
        self._saved = []

    def __enter__(self):
        modules = [m for k, m in list(sys.modules.items())
                   if k == "linkgamma" or k.startswith("linkgamma.")]
        for module_name, func_name in TARGETS:
            original = getattr(sys.modules[f"linkgamma.{module_name}"], func_name)
            name = f"{module_name}.{func_name}"
            wrapper = self._wrap(name, original, SPAN_VALUES.get(name))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, attr, original))
                        setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False

    def _wrap(self, name, fn, value_of):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (sid, parent, name, start, end, None)
            if value_of is not None:
                spans[sid] = (sid, parent, name, start, end, value_of(args, result))
            return result

        return wrapper

    def item(self, fn):
        """Run one benchmark item inside a root span."""
        return self._wrap(ITEM_SPAN, fn, None)()

    def write(self, path):
        """Write the spans as JSON lines, after a header naming the fields."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["id", "parent", "name", "start_ns", "end_ns", "value"]}))
            fh.write("\n")
            for span in self.spans:
                fh.write(json.dumps(span))
                fh.write("\n")


def summarize(spans):
    """Per span name: calls, self and inclusive nanoseconds, and the sum and
    maximum of the recorded values; plus the sum of |n| over shifts called
    directly from the equivalence module."""
    child_ns = [0] * len(spans)
    for _, parent, _, start, end, _ in spans:
        if parent != NO_PARENT:
            child_ns[parent] += end - start
    stats = {}
    shift_under_equivalence = 0
    for sid, parent, name, start, end, value in spans:
        s = stats.setdefault(name, {"calls": 0, "self_ns": 0, "incl_ns": 0,
                                    "value_sum": 0, "value_max": 0})
        s["calls"] += 1
        s["self_ns"] += end - start - child_ns[sid]
        s["incl_ns"] += end - start
        if value is not None:
            s["value_sum"] += value
            s["value_max"] = max(s["value_max"], value)
            if name == "transforms.apply_shift" and parent != NO_PARENT \
                    and spans[parent][2].startswith("equivalence."):
                shift_under_equivalence += value
    return stats, shift_under_equivalence


def layer_metrics(spans, items, interp_ms, import_ms, overhead_frac, scale):
    """Every per-layer metric of :data:`PER_LAYER_UNITS`, as ``{name: value}``;
    times are multiplied by ``scale`` (see ``run.HostSpeed``)."""
    stats, shift_total = summarize(spans)
    empty = {"calls": 0, "self_ns": 0, "value_sum": 0, "value_max": 0}
    values = {}
    for metric in PER_LAYER_UNITS:
        span_name, _, field = metric.rpartition(".")
        s = stats.get(span_name, empty)
        if field == "calls":
            values[metric] = s["calls"] / items
        elif field == "self_ms":
            values[metric] = s["self_ns"] / 1e6 / items * scale
    values["exactnum.ratfn_reduce.deg_drop"] = stats.get("exactnum.ratfn_reduce", empty)["value_sum"] / items
    values["gamma.max_bits"] = stats.get("gamma.gamma_seq", empty)["value_max"]
    values["equivalence.shift_abs_total"] = shift_total / items
    values["cli.interp_ms"] = interp_ms * scale
    values["cli.import_ms"] = import_ms * scale
    values["bench.trace_overhead_frac"] = overhead_frac
    return values
