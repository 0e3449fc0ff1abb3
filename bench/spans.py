"""In-process span tracing around the layers that `topo-thermo sweep` calls.

Timing wrappers replace the public functions at the names the caller looks
them up under (the `topo_thermo.sweep` and `topo_thermo.cli` namespaces,
the `topo_thermo.io` renderers, and the `_POLARIZATION_DISPATCH` table,
which captures its functions at import). Each call records a span (name,
start, end, parent) in memory; nothing under src/ changes. A seam that
no longer exists is reported with zero calls and a note instead of
failing the run.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

# (layer name, module, attribute, key when the attribute is a dispatch
# table). Two seams with one layer name add into that layer.
SEAMS = (
    ("lattice.build_hamiltonian", "topo_thermo.sweep", "build_hamiltonian", None),
    ("lattice.position_phase_operator", "topo_thermo.sweep", "position_phase_operator", None),
    ("thermal.diagonalize", "topo_thermo.sweep", "diagonalize", None),
    ("thermal.gibbs_weights", "topo_thermo.sweep", "gibbs_weights", None),
    ("thermal.ensemble_diagnostics", "topo_thermo.sweep", "ensemble_diagnostics", None),
    ("qfi.transformed_paulis", "topo_thermo.sweep", "transformed_paulis", None),
    ("qfi.qfi_matrix_from_weights", "topo_thermo.sweep", "qfi_matrix_from_weights", None),
    ("qfi.interferometric_power", "topo_thermo.sweep", "interferometric_power", None),
    ("polarization.determinant", "topo_thermo.sweep", "thermal_polarization_determinant", None),
    ("polarization.literal", "topo_thermo.sweep", "_POLARIZATION_DISPATCH", "literal"),
    ("polarization.weighted", "topo_thermo.sweep", "_POLARIZATION_DISPATCH", "weighted"),
    ("io.render", "topo_thermo.io", "render_csv", None),
    ("io.render", "topo_thermo.io", "render_json", None),
    ("io.write_text", "topo_thermo.io", "write_text", None),
    ("sweep.run_sweep", "topo_thermo.cli", "run_sweep", None),
)

# The compute layers: their spans are the direct children of run_sweep's.
LAYERS = tuple(dict.fromkeys(name for name, module, _, _ in SEAMS if module == "topo_thermo.sweep"))

# Result sizes recorded as counters next to the span.
RESULT_COUNTERS = {
    "io.render": ("io.render.bytes", lambda text: len(text.encode("utf-8"))),
    "sweep.run_sweep": ("sweep.points", len),
}


class Tracer:
    """Installs timing wrappers and keeps the spans of the current run."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index or None)
        self.counters = defaultdict(int)
        self.missing = []
        self._stack = []
        self._installed = []

    def wrap(self, name, fn):
        tracer = self
        counter = RESULT_COUNTERS.get(name)

        def traced(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            tracer.spans.append(None)
            tracer._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[index] = (name, start, end, parent)
            if counter is not None:
                tracer.counters[counter[0]] += counter[1](result)
            return result

        return traced

    def install(self):
        for name, module_name, attr, key in SEAMS:
            container = importlib.import_module(module_name)
            if key is not None:
                container, attr = getattr(container, attr, {}), key
            original = container.get(attr) if key is not None else getattr(container, attr, None)
            if original is None:
                self.missing.append(f"{name}: {module_name}.{attr} not found")
                continue
            self._set(container, attr, self.wrap(name, original))
            self._installed.append((container, attr, original))

    def uninstall(self):
        for container, attr, original in reversed(self._installed):
            self._set(container, attr, original)
        self._installed = []

    @staticmethod
    def _set(container, attr, value):
        if isinstance(container, dict):
            container[attr] = value
        else:
            setattr(container, attr, value)

    def reset(self):
        self.spans = []
        self.counters = defaultdict(int)

    def summary(self) -> dict:
        """Calls, busy time and child-covered time per layer for the current spans."""
        calls = defaultdict(int)
        busy = defaultdict(float)
        covered = defaultdict(float)
        for name, start, end, parent in self.spans:
            calls[name] += 1
            busy[name] += end - start
            if parent is not None:
                covered[self.spans[parent][0]] += end - start
        return {"calls": calls, "busy": busy, "covered": covered, "counters": dict(self.counters)}

    def dump(self) -> list[dict]:
        origin = self.spans[0][1] if self.spans else 0.0
        return [
            {"id": i, "name": name, "start": start - origin, "end": end - origin, "parent": parent}
            for i, (name, start, end, parent) in enumerate(self.spans)
        ]
