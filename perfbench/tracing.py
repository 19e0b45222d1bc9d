"""Spans and counts recorded from the benchmark's own files.

The traced run wraps the public function each layer exposes — the
module attribute or class attribute the job path calls — in a span.
Spans nest by call order; a layer's *self time* is its span's duration
minus the part its child spans cover.  Nothing inside the program is
changed: the wrappers are installed only in the traced run's own
interpreter, and :meth:`Recorder.restore` puts the originals back.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Dict, List, Tuple


class Recorder:
    """Spans of one interpreter, grouped by the job that caused them."""

    def __init__(self) -> None:
        #: (job, name, start, end, parent index or -1)
        self.spans: List[Tuple[object, str, float, float, int]] = []
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []
        self.job: object = None

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((self.job, name, time.perf_counter(), 0.0, parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        job, name, start, _end, parent = self.spans[index]
        self.spans[index] = (job, name, start, time.perf_counter(), parent)
        self._stack.pop()

    def traced(self, original, name: str):
        """``original`` wrapped in a span called ``name``."""

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                return original(*args, **kwargs)
            finally:
                self.close(index)

        return traced

    def wrap(self, owner, attribute: str, name: str) -> None:
        """Replace ``owner.attribute`` by a function recording ``name``."""
        original = getattr(owner, attribute)
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, self.traced(original, name))

    def restore(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    def self_times(self) -> Dict[object, Dict[str, float]]:
        """job -> layer name -> summed self seconds."""
        child_time = defaultdict(float)
        for (_job, _name, start, end, parent) in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: Dict[object, Dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        for index, (job, name, start, end, _parent) in enumerate(self.spans):
            out[job][name] += (end - start) - child_time[index]
        return out


def instrument_analyze(recorder: Recorder, backend: str) -> None:
    """Install the analyze job path's layer spans."""
    from repro.core.analysis import PointerAnalysis
    from repro.core.results import AnalysisResult
    from repro.frontend import factgen, parser

    recorder.wrap(parser, "parse_program", "frontend.parse")
    recorder.wrap(factgen, "generate_facts", "frontend.factgen")
    if backend == "worklist":
        recorder.wrap(PointerAnalysis, "run", "core.solve")
        recorder.wrap(AnalysisResult, "pts_ci", "core.project")
        recorder.wrap(AnalysisResult, "call_graph", "core.project")
        return
    from repro.compile import emit, kernels
    from repro.datalog import kernel

    for name in (
        "compile_transformer_analysis", "compile_context_string_analysis",
    ):
        traced_emit = recorder.traced(getattr(emit, name), "compile.emit")

        def emitting(*args, _emit=traced_emit, **kwargs):
            compiled = _emit(*args, **kwargs)
            # The decoder is a per-analysis closure: wrap it where the
            # emitter hands it out.
            compiled.decoder = recorder.traced(
                compiled.decoder, "datalog.decode"
            )
            return compiled

        recorder._patches.append((emit, name, getattr(emit, name)))
        setattr(emit, name, emitting)
    recorder.wrap(kernel, "intern_program", "datalog.intern")
    recorder.wrap(kernel, "compile_kernels", "compile.codegen")
    recorder.wrap(kernels.KernelProgram, "instantiate", "compile.pycompile")
    recorder.wrap(kernel.KernelEngine, "run", "datalog.solve")
    recorder.wrap(emit.CompiledResult, "pts_ci", "project")
    recorder.wrap(emit.CompiledResult, "call_graph", "project")
