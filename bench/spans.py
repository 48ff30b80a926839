"""Out-of-program span tracing for the per-layer bench run.

``Tracer.installed()`` replaces each traced library function on *every*
photonflux module attribute that refers to it (``density.synthesize_fields``
as well as ``spectral.synthesize_fields``, ``circuit.photon_number`` as well
as ``spectral.photon_number``), plus the ``FieldSet.write_csv`` method, so
nested calls get spans too.  Spans are kept in memory as
``(op, name, parent, start_ns, end_ns)`` and reduced to per-layer self times
(duration minus the direct children's durations) only when the run ends.
The private ``circuit._topological_order`` is deliberately not wrapped: its
cost stays inside ``validate``/``run_circuit`` self time.
"""

import functools
import os
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from importlib import import_module
from time import perf_counter_ns


def _fft_points(args, kwargs, result) -> dict:
    # synthesize_fields runs one inverse FFT of length N per field (A+, E+, B+)
    return {"spectral.fft_points": 3 * args[0].grid.n}


def _bytes_written(path_arg: int, name: str):
    def count(args, kwargs, result) -> dict:
        path = kwargs["path"] if "path" in kwargs else args[path_arg]
        return {f"{name}.bytes": os.path.getsize(path)}
    return count


def _elements(args, kwargs, result) -> dict:
    return {"circuit.elements": len(result.elements)}


# (module, function, counter run after the span closes)
FUNCTIONS = (
    ("spectral", "synthesize_fields", _fft_points),
    ("spectral", "make_gaussian_state", None),
    ("spectral", "photon_number", None),
    ("density", "density_field", None),
    ("density", "current_field", None),
    ("density", "continuity_residual", None),
    ("density", "localized_density_1d", None),
    ("density", "localized_density_3d_profile", None),
    ("density", "tail_mass", None),
    ("density", "shell_mass_fraction", None),
    ("density", "write_density_csv", _bytes_written(0, "density.write_density_csv")),
    ("circuit", "load_netlist", _elements),
    ("circuit", "validate", None),
    ("circuit", "run_circuit", None),
    ("circuit", "sample_outcomes", None),
    ("optics", "refractive_index", None),
    ("optics", "fresnel_interface", None),
)
METHODS = (("spectral", "FieldSet", "write_csv", _bytes_written(1, "spectral.FieldSet.write_csv")),)


class Tracer:
    """Collects spans and counts for the ops it is told about via ``op``."""

    def __init__(self):
        self.op = -1
        self.spans = []
        self.stack = []
        self.counts = defaultdict(Counter)  # op -> counter name -> value

    def wrap(self, name: str, fn, counter=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else -1
            tracer.spans.append(None)
            tracer.stack.append(sid)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                tracer.stack.pop()
                tracer.spans[sid] = (tracer.op, name, parent, start, end)
            if counter is not None:
                tracer.counts[tracer.op].update(counter(args, kwargs, result))
            return result

        return traced

    @contextmanager
    def installed(self):
        """Patch every photonflux attribute that refers to a traced function.

        A function the library no longer has is skipped; its metrics read 0.
        """
        modules = [m for n, m in list(sys.modules.items())
                   if n == "photonflux" or n.startswith("photonflux.")]
        saved = []
        try:
            for mod_name, fn_name, counter in FUNCTIONS:
                original = getattr(import_module(f"photonflux.{mod_name}"), fn_name, None)
                if original is None:
                    continue
                wrapper = self.wrap(f"{mod_name}.{fn_name}", original, counter)
                for mod in modules:
                    for attr in [a for a, v in vars(mod).items() if v is original]:
                        saved.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
            for mod_name, cls_name, meth, counter in METHODS:
                cls = getattr(import_module(f"photonflux.{mod_name}"), cls_name, None)
                original = vars(cls).get(meth) if cls is not None else None
                if original is None:
                    continue
                saved.append((cls, meth, original))
                setattr(cls, meth, self.wrap(f"{mod_name}.{cls_name}.{meth}", original, counter))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def self_times(self) -> dict:
        """op -> span name -> (calls, self time in ns)."""
        child = [0] * len(self.spans)
        for op, name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: defaultdict(lambda: [0, 0]))
        for sid, (op, name, parent, start, end) in enumerate(self.spans):
            entry = out[op][name]
            entry[0] += 1
            entry[1] += end - start - child[sid]
        return out
