"""Span tracing of `susyqm` from outside the package.

`Tracer.install()` replaces every public function of the susyqm layers
(the names in each module's `__all__`, plus `cli.main` and
`Superpotential.__call__`) by a wrapper, in every susyqm module namespace that
binds it, so calls between layers are traced too. `uninstall()` restores the
originals. No file of the package changes.

Each span is named `<module>.<function>` and records its start, end, parent
and a size taken from its result where a metric needs one. A memory tracer
(`Tracer(memory=True)`) also records the tracemalloc peak above each span's
entry level; tracemalloc slows allocation-heavy Python code by up to 40%, so
times come from tracers without it. `layer_metrics(spans)` reduces the spans of one pass
to the per-layer metrics; a `_s` metric is a sum of self times (span minus
the child spans it covers), so the self times of all layers add up to the
time spent inside `cli.main`.
"""

import functools
import importlib
import inspect
import time
import tracemalloc

LAYERS = ("superpotentials", "grid", "operators", "spectral", "entanglement",
          "jaynescummings", "cli")

MB = 1024.0 * 1024.0
ALLOC_METRICS = ("operators.alloc_peak_mb", "jaynescummings.alloc_peak_mb", "cli.alloc_peak_mb")


def _system_bytes(system):
    return sum(m.nbytes for m in (system.B, system.B_adj, system.H_plus, system.H_minus))


# span name -> size recorded from its result
SIZES = {
    "operators.build_susy_system": _system_bytes,
    "spectral.solve_spectrum": len,
    "jaynescummings.build_jc": lambda jc: jc.H.shape[0],
}

# per-layer `_s` metric -> span names whose self times it sums
SELF_TIMES = {
    "superpotentials.eval_s": ("superpotentials.Superpotential.__call__",),
    "grid.make_grid_s": ("grid.make_grid",),
    "grid.csv_s": ("grid.wavefunction_to_csv",),
    "operators.build_s": ("operators.build_susy_system", "operators.build_annihilator"),
    "operators.dense_blocks_s": ("operators.build_supercharges",
                                 "operators.build_susy_hamiltonian",
                                 "operators.witten_parity"),
    "spectral.solve_s": ("spectral.solve_spectrum",),
    "spectral.pair_s": ("spectral.pair_partner_levels",),
    "spectral.zero_mode_s": ("spectral.zero_mode",),
    "spectral.intertwine_s": ("spectral.intertwine_down", "spectral.intertwine_up",
                              "spectral.align_phase"),
    "spectral.operator_norm_s": ("spectral.operator_norm",),
    "entanglement.apply_q_s": ("entanglement.apply_q1", "entanglement.apply_q2"),
    "entanglement.residual_s": ("entanglement.supercharge_residual",),
    "entanglement.concurrence_s": ("entanglement.concurrence_from_spin",
                                   "entanglement.concurrence_overlap",
                                   "entanglement.concurrence_svd",
                                   "entanglement.schmidt_svd_oracle",
                                   "entanglement.spin_expectation",
                                   "entanglement.schmidt_coefficients",
                                   "entanglement.analyze"),
    "jaynescummings.build_s": ("jaynescummings.build_jc",),
    "jaynescummings.match_s": ("jaynescummings.numeric_vs_analytic",),
    "jaynescummings.algebra_s": ("jaynescummings.verify_susy_algebra",),
}

# per-layer count metric -> span names whose calls it counts
CALLS = {
    "superpotentials.calls": ("superpotentials.Superpotential.__call__",),
    "grid.inner_product_calls": ("grid.inner_product",),
    "operators.build_calls": ("operators.build_susy_system",),
    "spectral.solve_calls": ("spectral.solve_spectrum",),
    "spectral.intertwine_calls": ("spectral.intertwine_down", "spectral.intertwine_up"),
    "entanglement.apply_q_calls": ("entanglement.apply_q1", "entanglement.apply_q2"),
    "entanglement.concurrence_calls": ("entanglement.concurrence_from_spin",
                                       "entanglement.concurrence_overlap",
                                       "entanglement.concurrence_svd"),
}


class Span:
    __slots__ = ("name", "parent", "start", "end", "base", "peak", "size")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.base = self.peak = 0
        self.size = None


class Tracer:
    """Collects spans in memory while installed."""

    def __init__(self, memory=False):
        self.memory = memory
        self.spans = []
        self._stack = []
        self._originals = []

    def _enter(self, name):
        parent = self._stack[-1] if self._stack else None
        span = Span(name, parent)
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if parent is not None:
                parent.peak = max(parent.peak, peak)
            tracemalloc.reset_peak()
            span.base = span.peak = current
        self._stack.append(span)
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _exit(self, span, result):
        span.end = time.perf_counter()
        self._stack.pop()
        if self.memory:
            span.peak = max(span.peak, tracemalloc.get_traced_memory()[1])
            if span.parent is not None:
                span.parent.peak = max(span.parent.peak, span.peak)
        measure = SIZES.get(span.name)
        if measure is not None and result is not None:
            span.size = measure(result)

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._enter(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._exit(span, result)
        return traced

    def install(self):
        """Wrap the public functions of every layer."""
        modules = {layer: importlib.import_module(f"susyqm.{layer}") for layer in LAYERS}
        package = importlib.import_module("susyqm")
        wrappers = {}
        for layer, module in modules.items():
            names = ("main",) if layer == "cli" else module.__all__
            for attr in names:
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        for module in (package, *modules.values()):
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._originals.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)][1])
        cls = modules["superpotentials"].Superpotential
        self._originals.append((cls, "__call__", cls.__call__))
        cls.__call__ = self._wrap("superpotentials.Superpotential.__call__", cls.__call__)
        if self.memory:
            tracemalloc.start()

    def uninstall(self):
        if self.memory:
            tracemalloc.stop()
        for owner, attr, value in reversed(self._originals):
            setattr(owner, attr, value)
        self._originals.clear()

    def take(self):
        """Spans recorded since the last call."""
        spans, self.spans = self.spans, []
        return spans


def self_times(spans):
    """Self time of each span, in the order given."""
    child = {id(s): 0.0 for s in spans}
    for s in spans:
        if s.parent is not None and id(s.parent) in child:
            child[id(s.parent)] += s.end - s.start
    return [s.end - s.start - child[id(s)] for s in spans]


def layer_metrics(spans):
    """Per-layer metrics of the spans of one pass (sums per pass)."""
    selfs = self_times(spans)
    by_name = {}
    for s, t in zip(spans, selfs):
        entry = by_name.setdefault(s.name, {"self": 0.0, "calls": 0, "sizes": []})
        entry["self"] += t
        entry["calls"] += 1
        if s.size is not None:
            entry["sizes"].append(s.size)

    def total(names, key):
        return sum(by_name[n][key] for n in names if n in by_name)

    def sizes(name):
        return by_name.get(name, {"sizes": []})["sizes"]

    def peak_mb(layer):
        return max((s.peak - s.base for s in spans if s.name.split(".")[0] == layer),
                   default=0) / MB

    out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for s, t in zip(spans, selfs):
        out[s.name.split(".")[0] + ".self_s"] += t
    out.update({m: total(names, "self") for m, names in SELF_TIMES.items()})
    out.update({m: total(names, "calls") for m, names in CALLS.items()})
    out["operators.system_bytes"] = sum(sizes("operators.build_susy_system"))
    out["spectral.eigenpairs"] = sum(sizes("spectral.solve_spectrum"))
    out["jaynescummings.dim"] = max(sizes("jaynescummings.build_jc"), default=0)
    out["operators.alloc_peak_mb"] = peak_mb("operators")
    out["jaynescummings.alloc_peak_mb"] = peak_mb("jaynescummings")
    out["cli.alloc_peak_mb"] = peak_mb("cli")
    return out
