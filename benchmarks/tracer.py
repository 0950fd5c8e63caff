"""Span tracer that instruments the fss package from outside.

Every traced function is replaced at each of its module bindings (``fss``,
``fss.core``, ``fss.sequences`` ... all hold their own references after a
``from ... import``), so a call is recorded whichever module makes it.  A
span is (name, parent, thread, start, end, value); ``value`` carries the one
count a span reports, such as a solver result's ``nfev``.  Spans live in flat
arrays until :meth:`Tracer.metrics` turns them into per-layer figures and
:meth:`Tracer.dump` writes them out.

Callbacks that a layer hands to ``ensemble_average`` are wrapped too, and
their spans are attributed to the layer of the caller that supplied them, so
the per-node closure of ``fss.sequences`` counts as sequences time.

A name missing from the package (``evolve_batch`` and the batched ensemble
helper are slated for removal) is recorded as absent; its metrics read 0.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from array import array

# (span name, module, attribute, what the span's value records)
FUNCTIONS = (
    ("core.evolve", "fss.core", "evolve", None),
    ("core.evolve_batch", "fss.core", "evolve_batch", None),
    ("core.solve_ivp", "fss.core", "solve_ivp", "nfev"),
    ("core.liouvillian", "fss.core", "liouvillian", None),
    ("core.expectation", "fss.core", "expectation", None),
    ("core.steady_state", "fss.core", "steady_state", None),
    ("models.build", "fss.models", "build_two_level", None),
    ("models.build", "fss.models", "build_cpt_three_level", None),
    ("models.build", "fss.models", "build_faraday_four_level", None),
    ("models.cpt_spectrum", "fss.models", "cpt_spectrum", None),
    ("models.calibrate", "fss.models", "calibrate_faraday_drive", None),
    ("ensemble.average", "fss.ensemble", "ensemble_average", None),
    ("ensemble.quadrature", "fss.ensemble", "quadrature_nodes", "nodes"),
    ("ensemble.weighted_average", "fss.ensemble", "weighted_average", None),
    ("sequences.simulate", "fss.sequences", "simulate_protocol", "points"),
    ("sequences.batched_average", "fss.sequences", "_avg_population_batched", None),
    ("sequences.pi_contrast", "fss.sequences", "two_level_pi_contrast", None),
    ("sequences.pi_contrast", "fss.sequences", "faraday_pi_contrast", None),
    ("fitting.fit", "fss.fitting", "fit", "n_eval"),
    ("fitting.rabi_me", "fss.fitting", "fit_rabi_master_equation", "rabi_n_eval"),
    ("fitting.fft", "fss.fitting", "fft_spectrum", None),
    ("fitting.read_csv", "fss.fitting", "read_data_csv", None),
    ("scenario.load", "fss.scenario", "load_scenario", None),
    ("scenario.load", "fss.scenario", "parse_scenario", None),
    ("scenario.run_product", "fss.scenario", "run_scenario", None),
    ("scenario.run_product", "fss.scenario", "run_product", None),
    ("scenario.csv", "fss.scenario", "result_to_csv", "bytes"),
    ("scenario.csv", "fss.scenario", "summary_to_csv", "bytes"),
    ("scenario.csv", "fss.scenario", "fft_to_csv", "bytes"),
    ("cli.main", "fss.cli", "main", None),
)

# every public function of fss.raman is one "raman" span
RAMAN_MODULE = "fss.raman"

# per-layer metrics in output order, with units
METRICS = (
    ("core.evolve.calls", "count"),
    ("core.evolve.self_s", "s"),
    ("core.evolve_batch.calls", "count"),
    ("core.evolve_batch.self_s", "s"),
    ("core.solve_ivp.calls", "count"),
    ("core.solve_ivp.s", "s"),
    ("core.rhs_evals", "count"),
    ("core.liouvillian.calls", "count"),
    ("core.expectation.calls", "count"),
    ("core.density_matrix.count", "count"),
    ("core.density_matrix.s", "s"),
    ("core.steady_state.calls", "count"),
    ("core.steady_state.s", "s"),
    ("models.build.calls", "count"),
    ("models.build.s", "s"),
    ("models.cpt_spectrum.s", "s"),
    ("raman.calls", "count"),
    ("raman.s", "s"),
    ("ensemble.average.calls", "count"),
    ("ensemble.nodes", "count"),
    ("ensemble.self_s", "s"),
    ("sequences.simulate.calls", "count"),
    ("sequences.self_s", "s"),
    ("sequences.scan_points", "count"),
    ("fitting.fit.calls", "count"),
    ("fitting.fit.nfev", "count"),
    ("fitting.fit.self_s", "s"),
    ("fitting.rabi_me.nfev", "count"),
    ("fitting.rabi_me.self_s", "s"),
    ("fitting.fft.s", "s"),
    ("fitting.read_csv.s", "s"),
    ("scenario.load.s", "s"),
    ("scenario.run_product.self_s", "s"),
    ("scenario.csv.s", "s"),
    ("scenario.csv_bytes", "count"),
    ("cli.self_s", "s"),
    ("proc.cpu_s", "s"),
    ("trace.overhead_frac", "ratio"),
)


def _value_of(kind, out) -> float:
    if kind == "nfev":
        return float(getattr(out, "nfev", 0))
    if kind == "nodes":
        return float(len(out[0]))
    if kind == "points":
        return float(getattr(out.signal, "size", 0))
    if kind == "n_eval":
        return float(out.n_eval)
    if kind == "rabi_n_eval":
        return float(out[0].n_eval)
    if kind == "bytes":
        return float(len(out.encode("utf-8")))
    return 0.0


class Tracer:
    """Records spans for the functions in :data:`FUNCTIONS` while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("q")
        self.parent = array("q")
        self.thread = array("q")
        self.start = array("d")
        self.end = array("d")
        self.value = array("d")
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main_thread = threading.get_ident()
        self._threads: dict[int, int] = {}
        self._restore: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    # --- recording -------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name_id: int, stack: list[int]) -> int:
        # a worker thread's outermost span hangs under the main thread's
        # innermost open span, the call that handed out the work
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else -1
        ident = threading.get_ident()
        with self._lock:
            tid = self._threads.setdefault(ident, len(self._threads))
            idx = len(self.start)
            self.name.append(name_id)
            self.parent.append(parent)
            self.thread.append(tid)
            self.value.append(0.0)
            self.end.append(0.0)
            self.start.append(time.perf_counter())
        stack.append(idx)
        return idx

    def _close(self, idx: int, stack: list[int]) -> None:
        self.end[idx] = time.perf_counter()
        stack.pop()

    def _wrap(self, name: str, fn, value_kind=None):
        name_id = self._name_id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            idx = tracer._open(name_id, stack)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx, stack)
            if value_kind is not None:
                tracer.value[idx] = _value_of(value_kind, out)
            return out

        return traced

    def _wrap_callback_taker(self, name: str, fn):
        """Wrap ``ensemble_average``: its simulator callback gets a span in the
        layer of whoever called it."""
        traced_outer = self._wrap(name, fn)
        tracer = self

        @functools.wraps(fn)
        def traced(simulator, *args, **kwargs):
            stack = tracer._stack()
            caller = stack[-1] if stack else -1
            layer = tracer.names[tracer.name[caller]].split(".")[0] if caller >= 0 else "user"
            callback = tracer._wrap(f"{layer}.callback", simulator)
            return traced_outer(callback, *args, **kwargs)

        return traced

    # --- installation ----------------------------------------------------

    def install(self) -> None:
        """Patch every binding of the traced names in the loaded fss modules."""
        import importlib
        import inspect

        fss_modules = [m for n, m in sorted(sys.modules.items())
                       if m is not None and (n == "fss" or n.startswith("fss."))]
        plan = list(FUNCTIONS)
        raman = importlib.import_module(RAMAN_MODULE)
        for attr, obj in sorted(vars(raman).items()):
            if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == RAMAN_MODULE:
                plan.append(("raman", RAMAN_MODULE, attr, None))

        for name, module_name, attr, value_kind in plan:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(f"{module_name}.{attr}")
                self._name_id(name)
                continue
            if attr == "ensemble_average":
                wrapper = self._wrap_callback_taker(name, original)
            else:
                wrapper = self._wrap(name, original, value_kind)
            for mod in fss_modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._restore.append((mod, key, val))
                        setattr(mod, key, wrapper)

        core = importlib.import_module("fss.core")
        dm = getattr(core, "DensityMatrix", None)
        if dm is None:
            self.absent.append("fss.core.DensityMatrix")
            self._name_id("core.density_matrix")
        else:
            init = dm.__init__
            self._restore.append((dm, "__init__", init))
            dm.__init__ = self._wrap("core.density_matrix", init)

    def uninstall(self) -> None:
        for obj, key, val in reversed(self._restore):
            setattr(obj, key, val)
        self._restore.clear()

    # --- analysis --------------------------------------------------------

    def arrays(self):
        import numpy as np

        n = len(self.start)
        return (np.frombuffer(self.name, dtype=np.int64, count=n).copy(),
                np.frombuffer(self.parent, dtype=np.int64, count=n).copy(),
                np.frombuffer(self.thread, dtype=np.int64, count=n).copy(),
                np.frombuffer(self.start, dtype=np.float64, count=n).copy(),
                np.frombuffer(self.end, dtype=np.float64, count=n).copy(),
                np.frombuffer(self.value, dtype=np.float64, count=n).copy())

    def self_times(self, parent, thread, start, end):
        """Span duration minus the part of it that child spans cover.

        Children in one thread run one after another, so their durations add
        up; where children of one span ran in several threads, their
        intervals are merged first so overlap is counted once."""
        import numpy as np

        dur = end - start
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        lo_thread = np.full(dur.size, np.iinfo(np.int64).max)
        hi_thread = np.full(dur.size, -1)
        np.minimum.at(lo_thread, parent[has_parent], thread[has_parent])
        np.maximum.at(hi_thread, parent[has_parent], thread[has_parent])
        for p in np.flatnonzero((hi_thread >= 0) & (lo_thread != hi_thread)):
            kids = np.flatnonzero(parent == p)
            order = kids[np.argsort(start[kids])]
            total, reach = 0.0, start[p]
            for k in order:
                lo, hi = max(start[k], reach), min(end[k], end[p])
                if hi > lo:
                    total += hi - lo
                reach = max(reach, end[k])
            covered[p] = total
        return np.maximum(dur - covered, 0.0)

    def metrics(self) -> dict[str, float]:
        """Per-layer figures computed from the recorded spans."""
        import numpy as np

        name, parent, thread, start, end, value = self.arrays()
        dur = end - start
        self_t = self.self_times(parent, thread, start, end)
        name_of = np.array(self.names)[name] if name.size else np.array([], dtype=str)
        layer_of = np.array([n.split(".")[0] for n in name_of], dtype=object)

        def sel(*span_names):
            return np.isin(name_of, span_names)

        def outermost(mask):
            """Spans in ``mask`` with no ancestor in ``mask`` (no double count)."""
            nested = np.zeros(mask.size, dtype=bool)
            anc = parent.copy()
            while np.any(anc >= 0):
                live = anc >= 0
                nested[live] |= mask[anc[live]]
                anc[live] = parent[anc[live]]
            return mask & ~nested

        def count(*span_names):
            return float(np.count_nonzero(sel(*span_names)))

        def inclusive(*span_names):
            return float(dur[outermost(sel(*span_names))].sum())

        def self_of(mask):
            return float(self_t[mask].sum())

        # nodes: each simulator evaluation inside ensemble_average, plus the
        # quadrature nodes requested outside it (batched node integration)
        under_avg = (parent >= 0) & sel("ensemble.average")[np.maximum(parent, 0)]
        quad_outside = sel("ensemble.quadrature") & ~under_avg
        callbacks = np.array([n.endswith(".callback") for n in name_of], dtype=bool)

        return {
            "core.evolve.calls": count("core.evolve"),
            "core.evolve.self_s": self_of(sel("core.evolve")),
            "core.evolve_batch.calls": count("core.evolve_batch"),
            "core.evolve_batch.self_s": self_of(sel("core.evolve_batch")),
            "core.solve_ivp.calls": count("core.solve_ivp"),
            "core.solve_ivp.s": inclusive("core.solve_ivp"),
            "core.rhs_evals": float(value[sel("core.solve_ivp")].sum()),
            "core.liouvillian.calls": count("core.liouvillian"),
            "core.expectation.calls": count("core.expectation"),
            "core.density_matrix.count": count("core.density_matrix"),
            "core.density_matrix.s": inclusive("core.density_matrix"),
            "core.steady_state.calls": count("core.steady_state"),
            "core.steady_state.s": inclusive("core.steady_state"),
            "models.build.calls": count("models.build"),
            "models.build.s": inclusive("models.build"),
            "models.cpt_spectrum.s": inclusive("models.cpt_spectrum"),
            "raman.calls": count("raman"),
            "raman.s": inclusive("raman"),
            "ensemble.average.calls": count("ensemble.average"),
            "ensemble.nodes": float(np.count_nonzero(callbacks & under_avg)
                                    + value[quad_outside].sum()),
            "ensemble.self_s": self_of(layer_of == "ensemble"),
            "sequences.simulate.calls": count("sequences.simulate"),
            "sequences.self_s": self_of(layer_of == "sequences"),
            "sequences.scan_points": float(value[sel("sequences.simulate")].sum()),
            "fitting.fit.calls": count("fitting.fit"),
            "fitting.fit.nfev": float(value[sel("fitting.fit")].sum()),
            "fitting.fit.self_s": self_of(sel("fitting.fit")),
            "fitting.rabi_me.nfev": float(value[sel("fitting.rabi_me")].sum()),
            "fitting.rabi_me.self_s": self_of(sel("fitting.rabi_me")),
            "fitting.fft.s": inclusive("fitting.fft"),
            "fitting.read_csv.s": inclusive("fitting.read_csv"),
            "scenario.load.s": inclusive("scenario.load"),
            "scenario.run_product.self_s": self_of(sel("scenario.run_product")),
            "scenario.csv.s": inclusive("scenario.csv"),
            "scenario.csv_bytes": float(value[sel("scenario.csv")].sum()),
            "cli.self_s": self_of(sel("cli.main")),
        }

    def layer_self_times(self) -> dict[str, float]:
        """Self time summed per layer (the part of the name before the dot)."""
        name, parent, thread, start, end, _ = self.arrays()
        self_t = self.self_times(parent, thread, start, end)
        out: dict[str, float] = {}
        for n, t in zip(name.tolist(), self_t.tolist()):
            layer = self.names[n].split(".")[0]
            out[layer] = out.get(layer, 0.0) + t
        return out

    def dump(self, path) -> None:
        """Write the spans (names, parent, thread, start, end, value) as .npz."""
        import numpy as np

        name, parent, thread, start, end, value = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name=name, parent=parent,
                            thread=thread, start=start, end=end, value=value)
