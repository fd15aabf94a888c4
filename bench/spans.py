"""Spans around the public functions of the torusns layer modules.

``Tracer.install`` replaces every public module-level function and every
public method of the classes defined in the layer modules with a wrapper
that records one span per call: ``[name, start, end, parent]``, where
``parent`` is the index of the enclosing span or -1.  Names imported into
other modules (``from .fespace import velocity_l2``) are rebound to the
same wrapper, so a call is recorded whichever module makes it.  The
package source is not modified.

``layer_metrics`` turns one sample's spans into the per-layer metrics.
A span's self time is its duration minus the durations of its direct
children, so the self times of all spans add up to the time covered by
the root spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("mesh", "fespace", "forms", "linsolve", "steppers", "diagnostics",
          "interpolants", "cli")

#: Constructing a Factorization is the LU factorization; the only dunder
#: method that gets a span.
FACTORIZE = "linsolve.Factorization.__init__"

SETUP_SPANS = frozenset({"mesh.build_torus_mesh", "fespace.build_spaces",
                         "forms.assemble_operators"})

#: metric -> spans whose inclusive durations it sums
TOTALS = {
    "mesh.build_torus_mesh.s": ("mesh.build_torus_mesh",),
    "fespace.build_spaces.s": ("fespace.build_spaces",),
    "forms.assemble_operators.s": ("forms.assemble_operators",),
    "forms.project_div_free.s": ("forms.project_div_free",),
    "forms.convection_matrix.s": ("forms.convection_matrix",),
    "forms.bernoulli_rhs_matrix.s": ("forms.bernoulli_rhs_matrix",),
    "forms.convection_rhs.s": ("forms.convection_rhs",),
    "linsolve.factorize.s": (FACTORIZE,),
    "linsolve.solve.s": ("linsolve.Factorization.solve",),
    "steppers.run.s": ("steppers.run",),
    "diagnostics.build_report.s": ("diagnostics.build_report",),
    "diagnostics.local_energy_residuals.s":
        ("diagnostics.local_energy_residuals",),
    "diagnostics.pressure_ratios.s": ("diagnostics.pressure_ratios",),
    "interpolants.increment_sum.s": ("interpolants.increment_sum",),
}

#: metric -> spans whose calls it counts
CALLS = {
    "forms.convection_matrix.calls": ("forms.convection_matrix",),
    "forms.bernoulli_rhs_matrix.calls": ("forms.bernoulli_rhs_matrix",),
    "forms.convection_rhs.calls": ("forms.convection_rhs",),
    "linsolve.factorize.calls": (FACTORIZE,),
    "linsolve.solve.calls": ("linsolve.Factorization.solve",),
    "fespace.norm.calls": ("fespace.velocity_l2", "fespace.velocity_h1_semi",
                           "fespace.velocity_l3"),
}

#: metric -> spans whose self times it sums.  The step functions' self
#: time is the saddle-matrix ``bmat`` and the Picard bookkeeping; the
#: solve_saddle self time is its residual guard.
SELF = {
    "linsolve.solve_saddle.self_s": ("linsolve.solve_saddle",),
    "steppers.step.self_s": ("steppers.step_cn", "steppers.step_cnle",
                             "steppers.step_cnab",
                             "steppers.cnab_factorization"),
}

SPAN_NAMES = frozenset(n for table in (TOTALS, CALLS, SELF)
                       for names in table.values() for n in names)


class Tracer:
    """Records spans in memory; the caller writes them out at the end.

    With ``only`` set, just the named spans are recorded (the untraced
    samples use this for the set-up calls).
    """

    def __init__(self, only=None):
        self.only = only
        self.spans = []
        self.fills = []      # SuperLU's L+U entry count per factorization
        self.installed = set()
        self._stack = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        if name != FACTORIZE:
            return traced

        @functools.wraps(fn)
        def factorize(factorization, *args, **kwargs):
            traced(factorization, *args, **kwargs)
            self.fills.append(int(factorization._lu.nnz))

        return factorize

    def _traceable(self, name, fn):
        public = not name.rsplit(".", 1)[1].startswith("_")
        return (inspect.isfunction(fn) and (public or name == FACTORIZE)
                and (self.only is None or name in self.only))

    def install(self):
        """Wrap the layer modules' public functions and methods."""
        wrappers = {}   # id(original) -> (original, wrapper)
        for layer in LAYERS:
            mod = importlib.import_module(f"torusns.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__",
                                                   None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        name = f"{layer}.{attr}.{meth}"
                        if self._traceable(name, fn):
                            setattr(obj, meth, self._wrap(name, fn))
                            self.installed.add(name)
                elif self._traceable(f"{layer}.{attr}", obj):
                    name = f"{layer}.{attr}"
                    wrappers[id(obj)] = (obj, self._wrap(name, obj))
                    self.installed.add(name)
        for modname, mod in list(sys.modules.items()):
            if modname != "torusns" and not modname.startswith("torusns."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])

    def missing(self):
        """Span names the metrics rely on that no function provided."""
        wanted = SPAN_NAMES if self.only is None else self.only
        return sorted(wanted - self.installed)


def span_totals(spans):
    """Inclusive time, self time and call count per span name."""
    dur = [end - start for _, start, end, _ in spans]
    child = [0.0] * len(spans)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]
    total, self_time, calls = defaultdict(float), defaultdict(float), Counter()
    for i, (name, _, _, _) in enumerate(spans):
        total[name] += dur[i]
        self_time[name] += dur[i] - child[i]
        calls[name] += 1
    root = sum(d for d, s in zip(dur, spans) if s[3] < 0)
    return total, self_time, calls, root


def setup_seconds(record):
    """Import plus mesh, spaces and operators, from any sample's record."""
    total = span_totals(record["spans"])[0]
    return record["import_s"] + sum(total[n] for n in SETUP_SPANS)


def layer_metrics(record, wall_s):
    """Per-layer metrics of one traced sample.

    The ``<layer>.self_s`` values, ``import.s`` and
    ``trace.unattributed_s`` add up to ``wall_s``, the traced sample's
    process lifetime; the remainder is interpreter start-up, the sample
    wrapper and writing the span record.
    """
    total, self_time, calls, root = span_totals(record["spans"])
    out = {}
    for metric, names in TOTALS.items():
        out[metric] = sum(total[n] for n in names)
    for metric, names in CALLS.items():
        out[metric] = sum(calls[n] for n in names)
    for metric, names in SELF.items():
        out[metric] = sum(self_time[n] for n in names)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(v for n, v in self_time.items()
                                     if n.split(".", 1)[0] == layer)
    out["linsolve.lu_fill_nnz"] = max(record["fills"], default=0)
    out["import.s"] = record["import_s"]
    out["trace.unattributed_s"] = wall_s - record["import_s"] - root
    out["trace.spans"] = len(record["spans"])
    return out
