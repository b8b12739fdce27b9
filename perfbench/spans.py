"""Traced runs: spans around calls into qfourier's public functions.

The tracer replaces each listed function, in every qfourier module namespace
that binds it, with a wrapper that records a span (name, start, end, parent)
in memory.  Nothing inside the library changes; a call one module makes to
another is caught because it goes through the caller's namespace binding
(``heat`` imports ``qexp_mp`` by name, ``translation`` imports ``jv_table``).
Self time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import operator
import sys
import time
import tracemalloc

# The per-layer functions: <module>.<function> for each layer module.
LAYERS: dict[str, tuple[str, ...]] = {
    "qseries": ("qpoch_inf_mp", "qexp_mp", "c_qv_mp", "gauss_amplitude_mp"),
    "lattice": ("norm_p", "inner"),
    "bessel": ("jv_table", "eigen_residual"),
    "transform": ("build_transform", "trusted_window", "forward",
                  "basis_completeness_defect"),
    "translation": ("kernel", "translate", "convolve", "markov_check",
                    "markov_check_convolution", "hypergroup_expansion_defect",
                    "positivity_min"),
    "heat": ("gauss_kernel", "heat_apply", "heat_residual", "heat_spectral_defect",
             "gauss_crosscheck", "gauss_crosscheck_hp", "heat_markov_check",
             "composition_defect"),
    "report": ("run_cell",),
    "probes": ("seeded_probes",),
}

FUNCTIONS = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)

# Sizes recorded next to the call counts.
SIZES = (
    "heat.gauss_kernel.distinct_t",
    "bessel.jv_table.entries",
    "translation.kernel.cube_entries",
    "translation.kernel.block_mb",
    "transform.trusted_window.peak_mb",
)


def per_layer_names() -> list[str]:
    return [f"{f}.{kind}" for f in FUNCTIONS for kind in ("calls", "self_ms")] + list(SIZES)


class Tracer:
    """Records spans of library calls made while a phase is open."""

    def __init__(self) -> None:
        self.spans: list[list] = []       # [name, start_ns, end_ns, parent, phase]
        self._stack: list[int] = []
        self._phase: str | None = None
        self._patched: list[tuple[object, str, object]] = []
        self.gauss_keys: set = set()
        self.sizes: dict[str, dict[str, float]] = {"setup": {}, "pass": {}}

    # ---- installation ----

    def install(self) -> None:
        """Wrap every listed function in every qfourier namespace binding it."""
        import qfourier  # noqa: F401  (loads every layer module)

        wrappers = {}
        for name in FUNCTIONS:
            mod, fn = name.split(".")
            original = getattr(sys.modules[f"qfourier.{mod}"], fn)
            wrappers[id(original)] = (original, self._wrap(name, original))
        for modname, module in list(sys.modules.items()):
            if modname != "qfourier" and not modname.startswith("qfourier."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def phase(self, name: str | None) -> None:
        """Open phase ``name`` ("setup" or "pass"); None stops recording."""
        self._phase = name

    # ---- spans ----

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            phase = tracer._phase
            if phase is None:
                return fn(*args, **kwargs)
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name, 0, 0, parent, phase]
            tracer.spans.append(span)
            tracer._stack.append(idx)
            measure_mem = name == "transform.trusted_window"
            if measure_mem:
                tracemalloc.start()
            span[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                tracer._stack.pop()
                if measure_mem:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    tracer._size(phase, "transform.trusted_window.peak_mb",
                                 peak / 1e6, max)
            tracer._record_sizes(name, phase, args, kwargs, result)
            return result

        return traced

    def _size(self, phase: str, key: str, value: float, combine) -> None:
        sizes = self.sizes[phase]
        sizes[key] = combine(sizes[key], value) if key in sizes else value

    def _record_sizes(self, name, phase, args, kwargs, result) -> None:
        if name == "heat.gauss_kernel":
            t = kwargs.get("t", args[0] if args else None)
            grid = kwargs.get("grid", args[1] if len(args) > 1 else None)
            self.gauss_keys.add((float(t), grid))
        elif name == "bessel.jv_table":
            self._size(phase, "bessel.jv_table.entries", float(result.values.size),
                       operator.add)
        elif name == "translation.kernel":
            w, n = result.width, result.grid.size
            self._size(phase, "translation.kernel.cube_entries",
                       float(w * (w + 1) * (w + 2) // 6), operator.add)
            self._size(phase, "translation.kernel.block_mb", w * n * n * 8 / 1e6, max)

    # ---- summaries ----

    def self_times(self) -> dict[tuple[str, str], list[float]]:
        """(function, phase) -> [calls, self time in ns]."""
        child = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[tuple[str, str], list[float]] = {}
        for i, (name, start, end, _, phase) in enumerate(self.spans):
            acc = out.setdefault((name, phase), [0, 0])
            acc[0] += 1
            acc[1] += end - start - child[i]
        return out

    def metrics(self, setup_reps: int, passes: int) -> dict[str, dict]:
        """Per-layer metrics for one set-up plus one pass."""
        times = self.self_times()
        out = {}
        for f in FUNCTIONS:
            s_calls, s_ns = times.get((f, "setup"), (0, 0))
            p_calls, p_ns = times.get((f, "pass"), (0, 0))
            calls = s_calls / setup_reps + p_calls / passes
            self_ms = (s_ns / setup_reps + p_ns / passes) / 1e6
            out[f"{f}.calls"] = {"value": calls, "unit": "count"}
            out[f"{f}.self_ms"] = {"value": self_ms, "unit": "ms"}
        # Sums were accumulated over every set-up and every pass; maxima and
        # distinct arguments are already per set-up plus pass, since each
        # repetition makes the same calls.
        setup, per_pass = self.sizes["setup"], self.sizes["pass"]
        summed = ("bessel.jv_table.entries", "translation.kernel.cube_entries")
        for key in SIZES[1:]:
            if key in summed:
                value = setup.get(key, 0.0) / setup_reps + per_pass.get(key, 0.0) / passes
            else:
                value = max(setup.get(key, 0.0), per_pass.get(key, 0.0))
            unit = "MB" if key.endswith("_mb") else "count"
            out[key] = {"value": value, "unit": unit}
        out["heat.gauss_kernel.distinct_t"] = {"value": float(len(self.gauss_keys)),
                                               "unit": "count"}
        return {name: out[name] for name in per_layer_names()}

    def dump(self, path, extra: dict) -> None:
        """Write the spans, one row each, and a summary as JSON."""
        with open(path, "w") as fh:
            json.dump({"summary": extra,
                       "fields": ["name", "start_ns", "end_ns", "parent", "phase"],
                       "spans": self.spans}, fh, separators=(",", ":"))
