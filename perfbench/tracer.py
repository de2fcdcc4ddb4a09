"""Span tracing of fusionsim's layers from outside the package.

`Tracer.install` wraps every public module-level function of the five
layer modules and rebinds the wrapper in every module namespace that holds
the original, because the package resolves names in several places:
`experiment` imports `apply_network`, `compose` and `pattern_distribution`
by name, `detection` imports `run_fusion` by name, and `fock.apply_network`
looks `apply_op` up as a module global.  Methods are left alone, so the
per-element union-find calls inside `run_trial` pay no tracing cost.

Spans are kept in memory; `Tracer.metrics` folds them into the per-layer
numbers the benchmark reports.
"""

from __future__ import annotations

import functools
import importlib
import time
import types

LAYERS = ("fock", "experiment", "detection", "percolation", "cli")

#: Per-layer metrics that must repeat exactly between two traced runs.
COUNT_METRICS = (
    "fock.apply_op.calls",
    "fock.apply_op.terms_out",
    "fock.terms_peak",
    "fock.pattern_distribution.calls",
    "experiment.run_fusion.calls",
    "experiment.run_fusion.distinct_ratio",
    "detection.ideal_table.calls",
    "percolation.run_trial.calls",
    "percolation.elements_swept",
    "percolation.sweeps_per_result",
    "percolation.records_bytes_peak",
)


class Tracer:
    def __init__(self):
        # One span per call: [name, start, end, parent index].
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.terms_out = 0
        self.terms_peak = 0
        self.fusion_keys: list[tuple[str, str]] = []
        self.elements_swept = 0
        self.records_bytes_peak = 0
        self._fock_state = None  # fusionsim.fock.FockState, bound by install()

    def _state_size(self, result) -> int:
        """Term count of a returned Fock state (alone or first in a tuple)."""
        if isinstance(result, tuple) and result:
            result = result[0]
        return len(result) if isinstance(result, self._fock_state) else 0

    # -- counters recorded at the layer boundaries -------------------------

    def _count(self, name: str, args, kwargs, result) -> None:
        size = self._state_size(result)
        if size:
            self.terms_peak = max(self.terms_peak, size)
        if name == "fock.apply_op":
            self.terms_out += size
        elif name == "experiment.run_fusion":
            fusion_input = args[0] if args else kwargs["fusion_input"]
            config = args[1] if len(args) > 1 else kwargs["config"]
            self.fusion_keys.append((repr(fusion_input), repr(config)))
        elif name == "percolation.run_trial":
            self.elements_swept += len(result) - 1  # record holds M + 1 entries
        elif name == "percolation.convolve_binomial":
            records = args[0] if args else kwargs["records"]
            live = sum(record.nbytes for record in records)
            self.records_bytes_peak = max(self.records_bytes_peak, live)

    def _wrap(self, name: str, fn):
        spans, stack, count = self.spans, self._stack, self._count
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else None]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            count(name, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap the public functions of every layer in every namespace."""
        modules = [importlib.import_module("fusionsim")]
        modules += [importlib.import_module(f"fusionsim.{layer}") for layer in LAYERS]
        self._fock_state = modules[1].FockState
        wrappers: dict[int, object] = {}
        for layer, module in zip(LAYERS, modules[1:]):
            for attr, obj in vars(module).items():
                if (
                    isinstance(obj, types.FunctionType)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        for module in modules:
            for attr, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    setattr(module, attr, wrapper)

    # -- folding spans into metrics -----------------------------------------

    def _self_times(self) -> list[float]:
        """Each span's duration minus the part its direct children cover."""
        children: dict[int, list[tuple[float, float]]] = {}
        for name, start, end, parent in self.spans:
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        out = []
        for index, (name, start, end, parent) in enumerate(self.spans):
            covered = 0.0
            reach = start
            for c_start, c_end in sorted(children.get(index, ())):
                c_start, c_end = max(c_start, reach), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            out.append(end - start - covered)
        return out

    def metrics(self, results_per_sweep: int) -> dict[str, float]:
        """Per-layer numbers; ``results_per_sweep`` is trials x sizes of
        the percolation workload (0 where it runs no sweep)."""
        calls: dict[str, int] = {}
        total: dict[str, float] = {}
        self_s: dict[str, float] = {}
        layer_self = {layer: 0.0 for layer in LAYERS}
        for (name, start, end, _), own in zip(self.spans, self._self_times()):
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + (end - start)
            self_s[name] = self_s.get(name, 0.0) + own
            layer_self[name.split(".", 1)[0]] += own

        def ratio(num, den, scale=1.0):
            return num / den * scale if den else 0.0

        apply_op_s = total.get("fock.apply_op", 0.0)
        run_trial_s = total.get("percolation.run_trial", 0.0)
        fusion_calls = calls.get("experiment.run_fusion", 0)
        trial_calls = calls.get("percolation.run_trial", 0)
        return {
            "fock.apply_op.calls": calls.get("fock.apply_op", 0),
            "fock.apply_op.s": apply_op_s,
            "fock.apply_op.terms_out": self.terms_out,
            "fock.terms_peak": self.terms_peak,
            "fock.apply_op.ns_per_term": ratio(apply_op_s, self.terms_out, 1e9),
            "fock.pattern_distribution.calls": calls.get("fock.pattern_distribution", 0),
            "fock.pattern_distribution.s": total.get("fock.pattern_distribution", 0.0),
            "fock.compose.s": total.get("fock.compose", 0.0),
            "experiment.run_fusion.calls": fusion_calls,
            "experiment.run_fusion.distinct_ratio": ratio(
                len(set(self.fusion_keys)), fusion_calls
            ),
            "experiment.run_fusion.s": total.get("experiment.run_fusion", 0.0),
            "experiment.run_fusion.self_s": self_s.get("experiment.run_fusion", 0.0),
            "detection.ideal_table.calls": calls.get("detection.ideal_table", 0),
            "detection.ideal_table.s": total.get("detection.ideal_table", 0.0),
            "detection.success_probability.s": total.get(
                "detection.success_probability", 0.0
            ),
            "percolation.run_trial.calls": trial_calls,
            "percolation.run_trial.s": run_trial_s,
            "percolation.elements_swept": self.elements_swept,
            "percolation.ns_per_element": ratio(run_trial_s, self.elements_swept, 1e9),
            "percolation.sweeps_per_result": ratio(trial_calls, results_per_sweep),
            "percolation.convolve_binomial.s": total.get(
                "percolation.convolve_binomial", 0.0
            ),
            "percolation.records_bytes_peak": self.records_bytes_peak,
            "cli.main.s": total.get("cli.main", 0.0),
            "cli.self_s": layer_self["cli"],
        }
