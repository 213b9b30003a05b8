"""Span tracing for the traced benchmark run.

``Tracer.install()`` replaces the public functions and methods of every
jacgraph module (but the lookups in ``NOT_WRAPPED``) with wrappers, from
the benchmark's side: the package itself is not edited.  Only the traced
process calls it; untraced runs patch nothing.

A wrapper always counts its call.  It records a span (name, start, end,
parent span, request id) when the call crosses into another layer, or
when the function is named in ``ALWAYS_SPAN`` because a metric needs its
own time.  Calls inside one layer (``induced_subgraph`` building a
``Multigraph``) add no span, so a layer's time is not split into pieces
too small to time.  Spans stay in flat arrays in memory; ``write`` puts
them on disk at the end and ``layer_metrics`` derives busy and self
times from the same arrays.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from array import array
from collections import Counter

LAYERS = ("cli", "quasistable", "strata", "graph", "polarization", "lattice", "kernel")

# module -> layer; both kernels are one layer, whichever select() picks
MODULE_LAYER = {
    "jacgraph.cli": "cli",
    "jacgraph.quasistable": "quasistable",
    "jacgraph.strata": "strata",
    "jacgraph.graph": "graph",
    "jacgraph.polarization": "polarization",
    "jacgraph.lattice": "lattice",
    "jacgraph._kernel_py": "kernel",
    "jacgraph._speedups": "kernel",
}

ALWAYS_SPAN = {
    "cli.main",
    "cli.load_problem",
    "cli.cmd_complexity",
    "cli.cmd_enum",
    "cli.cmd_reduce",
    "cli.cmd_check_pol",
    "cli.cmd_strata",
    "cli.cmd_blowup_check",
    "lattice.smith_normal_form",
}

SURGERY = ("delete_edges", "remove_loops", "subdivide_edges", "induced_subgraph")

# lookups of a dict entry or two, called per matrix entry or per subset:
# a wrapper would cost more than they do, so their time stays with the caller
NOT_WRAPPED = {
    "Multigraph.adjacency",
    "Multigraph.complement",
    "Multigraph.edge",
    "Multigraph.edge_ids",
    "Multigraph.edge_subset",
    "Multigraph.genus_of",
    "Multigraph.genus_map",
    "Multigraph.loops_at",
    "Multigraph.vertex_subset",
}


def _public_callables(mod):
    """(owner, attribute, qualified name) for every public function and
    method defined in ``mod``, plus constructors."""
    layer = MODULE_LAYER[mod.__name__]
    found = []
    for name, obj in vars(mod).items():
        if name.startswith("_"):
            continue
        if inspect.isclass(obj) and obj.__module__ == mod.__name__:
            if issubclass(obj, (tuple, BaseException)) or hasattr(obj, "__dataclass_fields__"):
                continue  # records and errors: constructed everywhere, no work
            for attr, fn in vars(obj).items():
                if inspect.isfunction(fn) and (attr == "__init__" or not attr.startswith("_")):
                    label = name if attr == "__init__" else f"{name}.{attr}"
                    if label not in NOT_WRAPPED:
                        found.append((obj, attr, f"{layer}.{label}"))
        elif callable(obj) and getattr(obj, "__module__", None) == mod.__name__:
            # plain, builtin and Cython functions alike
            found.append((mod, name, f"{layer}.{name}"))
    return found


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_layer = array("b")
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_request = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls = Counter()
        self.counts = Counter()
        self.request = -1
        self.max_value_bound = 0
        self._stack: list[int] = []
        self._layer_stack: list[int] = []

    # -- installation ----------------------------------------------------

    def _name_id(self, qualname: str) -> int:
        self.names.append(qualname)
        self.name_layer.append(LAYERS.index(qualname.split(".", 1)[0]))
        return len(self.names) - 1

    def _wrap(self, fn, qualname: str):
        tracer = self
        nid = self._name_id(qualname)
        layer = self.name_layer[nid]
        always = qualname in ALWAYS_SPAN
        calls = self.calls
        stack = self._stack
        layers = self._layer_stack
        names, parents, reqs = self.span_name, self.span_parent, self.span_request
        starts, ends = self.span_start, self.span_end
        clock = time.perf_counter
        observe = _OBSERVERS.get(qualname.split(".", 1)[1])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[qualname] += 1
            if not always and layers and layers[-1] == layer:
                result = fn(*args, **kwargs)
            else:
                sid = len(starts)
                names.append(nid)
                parents.append(stack[-1] if stack else -1)
                reqs.append(tracer.request)
                ends.append(0.0)
                stack.append(sid)
                layers.append(layer)
                starts.append(clock())
                try:
                    result = fn(*args, **kwargs)
                finally:
                    ends[sid] = clock()
                    stack.pop()
                    layers.pop()
            if observe is not None:
                observe(tracer, args, result)
            return result

        return wrapper

    def install(self):
        """Wrap every public callable of the jacgraph modules in place."""
        import sys

        from jacgraph import _kernel

        mods = [sys.modules[name] for name in MODULE_LAYER if name in sys.modules]
        package_mods = [m for n, m in sys.modules.items() if n == "jacgraph" or n.startswith("jacgraph.")]
        for mod in mods:
            for owner, attr, qualname in _public_callables(mod):
                original = getattr(owner, attr)
                wrapped = self._wrap(original, qualname)
                setattr(owner, attr, wrapped)
                if owner is mod:
                    # names imported elsewhere with ``from .x import f``
                    for other in package_mods:
                        if getattr(other, attr, None) is original:
                            setattr(other, attr, wrapped)

        select = _kernel.select

        def observed_select(value_bound):
            self.max_value_bound = max(self.max_value_bound, value_bound)
            return select(value_bound)

        _kernel.select = observed_select

    # -- output ----------------------------------------------------------

    def write(self, prefix: str):
        """``<prefix>.spans.bin``: the span columns one after another, as
        native arrays (int32 name, parent, request; float64 start, end);
        ``<prefix>.spans.json`` names the columns and the span names."""
        cols = ("span_name", "span_parent", "span_request", "span_start", "span_end")
        with open(prefix + ".spans.bin", "wb") as fh:
            for col in cols:
                getattr(self, col).tofile(fh)
        header = {
            "spans": len(self.span_start),
            "columns": [[c, getattr(self, c).typecode] for c in cols],
            "names": self.names,
        }
        with open(prefix + ".spans.json", "w") as fh:
            json.dump(header, fh)

    def layer_metrics(self) -> dict:
        """Per-layer calls, busy time and self time, plus named counts."""
        n = len(self.span_start)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        anc = [0] * n  # bitmask of the layers on the path above a span
        span_layer = [self.name_layer[k] for k in self.span_name]
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += dur[i]
                anc[i] = anc[p] | (1 << span_layer[p])
        busy = Counter()
        self_t = Counter()
        by_name = Counter()
        self_by_name = Counter()
        for i in range(n):
            lay = LAYERS[span_layer[i]]
            name = self.names[self.span_name[i]]
            self_t[lay] += dur[i] - child[i]
            if not anc[i] >> span_layer[i] & 1:
                busy[lay] += dur[i]
            by_name[name] += dur[i]
            self_by_name[name] += dur[i] - child[i]
        layer_calls = Counter()
        for qualname, c in self.calls.items():
            layer_calls[qualname.split(".", 1)[0]] += c

        def calls_of(*names):
            return sum(self.calls[q] for q in names)

        out = {}
        for lay in LAYERS:
            out[f"{lay}.calls"] = layer_calls[lay]
            out[f"{lay}.busy_s"] = busy[lay]
            out[f"{lay}.self_s"] = self_t[lay]
        # scans made by reductions: defect_scan spans opened right under
        # reduce_report (either kernel; each has its own name ids)
        names = self.names
        reduce_scans = sum(
            1
            for i in range(n)
            if self.span_parent[i] >= 0
            and names[self.span_name[i]] == "kernel.defect_scan"
            and names[self.span_name[self.span_parent[i]]] == "quasistable.StratumContext.reduce_report"
        )
        reduces = self.calls["quasistable.StratumContext.reduce_report"]
        scans = calls_of("kernel.defect_scan")
        steps = self.counts["reduce_steps"]
        out.update({
            "kernel.build_tables_calls": calls_of("kernel.build_tables"),
            "kernel.build_tables_s": by_name["kernel.build_tables"],
            "kernel.box_enumerate_s": by_name["kernel.box_enumerate"],
            "kernel.emitted": self.counts["emitted"],
            "kernel.defect_scan_calls": scans,
            "kernel.defect_scan_s": by_name["kernel.defect_scan"],
            "kernel.subsets_scanned": self.counts["subsets_scanned"],
            "kernel.scans_per_reduce": reduce_scans / reduces if reduces else 0.0,
            "kernel.steps_per_scan": steps / reduce_scans if reduce_scans else 0.0,
            "quasistable.contexts": self.calls["quasistable.StratumContext"],
            "quasistable.reduce_steps": steps,
            "strata.rows": self.counts["strata_rows"],
            "graph.surgery_calls": calls_of(*(f"graph.Multigraph.{s}" for s in SURGERY)),
            "graph.components_calls": calls_of("graph.Multigraph.components"),
            "graph.is_spine_calls": calls_of("graph.Multigraph.is_spine"),
            "polarization.subsets_tested": calls_of("polarization.Polarization.is_integral_at"),
            "lattice.complexity_calls": calls_of("lattice.complexity"),
            "lattice.snf_calls": calls_of("lattice.smith_normal_form"),
            "lattice.snf_s": by_name["lattice.smith_normal_form"],
            "cli.load_s": by_name["cli.load_problem"],
            # main minus load and handler: argument parsing and JSON output
            "cli.output_s": self_by_name["cli.main"],
        })
        return out


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_frac", "_per_reduce", "_per_scan")):
        return "ratio"
    return "count"


def _observe_defect_scan(tracer, args, result):
    tracer.counts["subsets_scanned"] += 1 << len(args[1])  # args: tables, d, v0


def _observe_box_enumerate(tracer, args, result):
    tracer.counts["emitted"] += len(result)


def _observe_reduce_report(tracer, args, result):
    tracer.counts["reduce_steps"] += result.steps


def _observe_strata_report(tracer, args, result):
    tracer.counts["strata_rows"] += len(result.rows)


_OBSERVERS = {
    "defect_scan": _observe_defect_scan,
    "box_enumerate": _observe_box_enumerate,
    "StratumContext.reduce_report": _observe_reduce_report,
    "strata_report": _observe_strata_report,
}
