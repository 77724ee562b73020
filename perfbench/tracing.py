"""In-memory call tracer for the benchmark's traced run.

The tracer wraps public functions and methods of ``braidfoq`` from the
outside; nothing in the library is edited.  Every wrapped call adds to a
per-name aggregate of calls, total seconds and self seconds (its duration
minus the time of traced calls nested inside it on the same thread).
Coarse calls are also kept as spans ``(id, name, start, end, parent, job)``.

State is per thread, because ``well_definedness_check`` may expand rows on
a thread pool: a shared counter would lose updates.  Per-thread records are
merged when the run ends.  In a pool thread nothing encloses the nested
calls, so at ``workers > 1`` the self time of ``well_definedness_check``
includes the time its thread waits for the pool.
"""

from __future__ import annotations

import functools
import threading
import time


class _ThreadState:
    __slots__ = ("stack", "agg", "spans", "current_span", "thread_index", "next_id")

    def __init__(self, thread_index: int):
        self.stack: list[list] = []
        self.agg: dict[str, list] = {}
        self.spans: list[tuple] = []
        self.current_span = None
        self.thread_index = thread_index
        self.next_id = 0


class Tracer:
    """Wraps callables, aggregates their self time and keeps coarse spans."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._restore: list[tuple] = []
        self.job = None  # identifier of the job or instance being run
        self.paused = False  # set while the benchmark checks outputs
        self.result_counts: dict[str, int] = {}

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            with self._lock:
                state = _ThreadState(len(self._states))
                self._states.append(state)
            self._local.state = state
        return state

    def wrap(self, name: str, fn, span: bool, on_result=None):
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            state = tracer._state()
            frame = [0.0]
            state.stack.append(frame)
            if span:
                span_id = (state.thread_index, state.next_id)
                state.next_id += 1
                parent = state.current_span
                state.current_span = span_id
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                state.stack.pop()
                duration = end - start
                if state.stack:
                    state.stack[-1][0] += duration
                agg = state.agg.get(name)
                if agg is None:
                    agg = state.agg[name] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += duration
                agg[2] += duration - frame[0]
                if span:
                    state.current_span = parent
                    state.spans.append((span_id, name, start, end, parent, tracer.job))
            if on_result is not None:
                on_result(tracer, result)
            return result

        return traced

    def patch_function(self, modules, home, attr: str, name: str, span: bool,
                       on_result=None) -> None:
        """Replace ``home.attr`` in every module that bound the same object."""
        original = getattr(home, attr)
        traced = self.wrap(name, original, span, on_result)
        for module in modules:
            if getattr(module, attr, None) is original:
                self._restore.append((module, attr, original))
                setattr(module, attr, traced)

    def patch_method(self, cls, attr: str, name: str, span: bool) -> None:
        original = cls.__dict__[attr]
        self._restore.append((cls, attr, original))
        setattr(cls, attr, self.wrap(name, original, span))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def count(self, key: str, amount: int) -> None:
        with self._lock:
            self.result_counts[key] = self.result_counts.get(key, 0) + amount

    def aggregates(self) -> dict[str, dict]:
        """Merged ``{name: {calls, total_s, self_s}}`` over every thread."""
        merged: dict[str, dict] = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for name, (calls, total, self_s) in state.agg.items():
                entry = merged.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
                entry["calls"] += calls
                entry["total_s"] += total
                entry["self_s"] += self_s
        return merged

    def spans(self) -> list[dict]:
        with self._lock:
            states = list(self._states)
        out = []
        for state in states:
            for span_id, name, start, end, parent, job in state.spans:
                out.append({"id": list(span_id), "name": name, "start": start, "end": end,
                            "parent": None if parent is None else list(parent), "job": job})
        out.sort(key=lambda s: s["start"])
        return out


def _count_welldef(tracer: Tracer, report: dict) -> None:
    in_ideal = 0
    entries = 0
    for record in report["relations"]:
        if record["verdict"] == "in_ideal":
            in_ideal += 1
            entries += len(record["certificate"].combination)
    tracer.count("freealg.in_ideal", in_ideal)
    tracer.count("freealg.cert_entries", entries)


def install(tracer: Tracer, lib) -> None:
    """Wrap the public entry points of every traced layer of ``braidfoq``.

    Hot leaves (scalar, matrix and algebra arithmetic) are aggregated only;
    the coarser calls are also recorded as spans.
    """
    modules = lib.modules
    scalar, freealg = lib.scalar, lib.freealg
    tracer.patch_method(scalar.Scalar, "__mul__", "scalar.mul", span=False)
    tracer.patch_method(scalar.Scalar, "inverse", "scalar.inverse", span=False)
    tracer.patch_method(scalar.Field, "from_rational", "scalar.from_rational", span=False)
    tracer.patch_method(scalar.Matrix, "__matmul__", "matrix.matmul", span=False)
    tracer.patch_method(scalar.Matrix, "rank", "matrix.eliminate", span=False)
    tracer.patch_method(scalar.Matrix, "inverse", "matrix.eliminate", span=False)
    tracer.patch_method(freealg.AlgebraElement, "__mul__", "freealg.element_mul", span=False)
    tracer.patch_method(freealg.TensorElement, "__mul__", "freealg.tensor_mul", span=False)
    tracer.patch_function(modules, freealg, "apply_comult", "freealg.apply_comult", span=False)
    tracer.patch_function(modules, freealg, "coassociativity_check", "freealg.coassoc", span=True)
    tracer.patch_function(modules, freealg, "well_definedness_check", "freealg.welldef",
                          span=True, on_result=_count_welldef)
    for attr, name in (("validate", "graded.validate"),
                       ("triviality_scan", "graded.triviality_scan"),
                       ("irreducibility_test", "graded.irreducibility_test")):
        tracer.patch_function(modules, lib.graded, attr, name, span=True)
    tracer.patch_function(modules, lib.transform, "reduce_to_degree_zero", "transform.reduce",
                          span=True)
    tracer.patch_function(modules, lib.fusion, "q_parameter", "fusion.q_parameter", span=True)
    tracer.patch_function(modules, lib.fusion, "ring_checks", "fusion.ring_checks", span=True)
    for attr in lib.sampling.__all__:
        tracer.patch_function(modules, lib.sampling, attr, "sampling", span=True)
    for attr in ("braided_presentation", "bosonisation_presentation", "t_form_presentation",
                 "serialize_presentation", "deserialize_presentation"):
        tracer.patch_function(modules, lib.presentation, attr, "presentation.build", span=True)
    tracer.patch_function(modules, lib.suite, "run_suite", "suite.run", span=True)
