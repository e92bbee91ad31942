"""Outside-in tracer for sparsedom's layer functions.

`install` rebinds each function in LAYERS, in its own module and in every
sparsedom module that imported it by name (`weights.maximal`,
`sparse_engine.grand_maximal_truncated`, ...), with a timing wrapper.  The
program itself is not changed.

Spans are aggregated per calling context: one node per (function, parent
node) holds the call count, the total time and the time covered by child
spans, so the ~590k `apply_windowed` calls of the full released sweep share
a few nodes instead of each holding a span.  Node 0 is the root span, opened and closed
by the benchmark around the timed run.  The tracer assumes one thread, which
holds while LAB_THREADS is at its default of 1.
"""

from __future__ import annotations

import atexit
import functools
import importlib
import json
import sys
import time
import types

# The layer boundaries, by module.  Small helpers called millions of times
# (cube_slices, Cube methods) are left out: wrapping them would cost more
# than the work they do.
LAYERS = {
    "young": ("kappa_phi", "luxemburg_norm", "luxemburg_norm_batch"),
    "dyadic": ("cz_decompose", "check_sparse", "scope_cubes"),
    "weights": ("weight_constant", "bmo_norm", "parse_profile"),
    "operators": ("apply_operator", "apply_windowed", "commutator_apply",
                  "grand_maximal_truncated", "maximal", "operator_norm_l2",
                  "hormander_estimate"),
    "sparse_engine": ("estimate_ct", "build_sparse_family",
                      "sparse_form_eval", "domination_report"),
    "bench": ("run_scenario",),
    "cli": ("cmd_battery", "cmd_run"),
}

# Functions whose self time is the rest of the run around the named layers:
# helpers that no layer wraps run in them, so their self time is not
# attributed to a layer.
ENTRIES = ("cli.cmd_battery", "cli.cmd_run", "bench.run_scenario",
           "sparse_engine.domination_report")

NAME, PARENT, CALLS, TOTAL, CHILD = range(5)


class Tracer:
    def __init__(self, ct_cache: dict):
        self.nodes = [["root", -1, 1, 0.0, 0.0]]
        self.counters = {"sparse_engine.nodes": 0,
                         "sparse_engine.ct_misses": 0}
        self._ct_cache = ct_cache
        self._ids = {}
        self._stack = [0]
        self._t_root = None

    def wrap(self, name: str, fn):
        nodes, ids, stack = self.nodes, self._ids, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            parent = stack[-1]
            nid = ids.get((name, parent))
            if nid is None:
                nid = ids[(name, parent)] = len(nodes)
                nodes.append([name, parent, 0, 0.0, 0.0])
            stack.append(nid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                node = nodes[nid]
                node[CALLS] += 1
                node[TOTAL] += dt
                nodes[parent][CHILD] += dt
            return result
        return span

    def count_nodes(self, build):
        """build_sparse_family, adding the cubes of each family it builds
        to the node count."""
        @functools.wraps(build)
        def counted(*args, **kwargs):
            form = build(*args, **kwargs)
            self.counters["sparse_engine.nodes"] += len(form.family.cubes)
            return form
        return counted

    def open_root(self):
        self._ct_size = len(self._ct_cache)
        self._t_root = time.perf_counter()

    def close_root(self):
        self.nodes[0][TOTAL] = time.perf_counter() - self._t_root
        # the ct cache only grows, by one entry per estimate_ct miss
        self.counters["sparse_engine.ct_misses"] = \
            len(self._ct_cache) - self._ct_size

    def to_json(self) -> dict:
        return {
            "nodes": [{"id": i, "name": n[NAME], "parent": n[PARENT],
                       "calls": n[CALLS], "total_s": n[TOTAL],
                       "self_s": n[TOTAL] - n[CHILD]}
                      for i, n in enumerate(self.nodes)],
            "counters": dict(self.counters),
        }

    def dump(self, path: str):
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=1)


def install(trace_path: str) -> Tracer:
    """Wrap every LAYERS function, rebind it wherever it is bound by name,
    and write the trace to trace_path when the interpreter exits."""
    from sparsedom import sparse_engine
    tracer = Tracer(sparse_engine._ct_cache)
    wrapped = {}
    for mod, names in LAYERS.items():
        module = importlib.import_module(f"sparsedom.{mod}")
        for fname in names:
            fn = getattr(module, fname)
            inner = (tracer.count_nodes(fn)
                     if fn is sparse_engine.build_sparse_family else fn)
            wrapped[id(fn)] = (fn, tracer.wrap(f"{mod}.{fname}", inner))
    for modname, module in list(sys.modules.items()):
        if modname != "sparsedom" and not modname.startswith("sparsedom."):
            continue
        for attr, val in list(vars(module).items()):
            if isinstance(val, types.FunctionType) and id(val) in wrapped:
                setattr(module, attr, wrapped[id(val)][1])
    atexit.register(tracer.dump, trace_path)
    return tracer


def layer_totals(trace: dict) -> dict:
    """Per function: calls, self_s and total_s (outermost spans only, so a
    function nested under itself is not counted twice)."""
    nodes = trace["nodes"]
    out = {}
    for node in nodes[1:]:
        name = node["name"]
        agg = out.setdefault(name, {"calls": 0, "self_s": 0.0,
                                    "total_s": 0.0})
        agg["calls"] += node["calls"]
        agg["self_s"] += node["self_s"]
        p = node["parent"]
        while p > 0 and nodes[p]["name"] != name:
            p = nodes[p]["parent"]
        if p <= 0:
            agg["total_s"] += node["total_s"]
    return out


def calls_under(trace: dict, name: str, parent_name: str) -> int:
    """Calls of `name` made directly from `parent_name`."""
    nodes = trace["nodes"]
    return sum(n["calls"] for n in nodes[1:]
               if n["name"] == name and nodes[n["parent"]]["name"]
               == parent_name)
