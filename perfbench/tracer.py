"""Spans around the calls into each layer, recorded from outside.

The program is not instrumented.  :class:`Tracer` patches the public
entry points of each layer (module functions and class methods) with
wrappers that time each call as a span, nested by call order, and
restores the originals on exit.  Spans are folded as they close: a
span's self time is its duration minus the time its child spans cover,
so the self times of all spans under one root sum to the root's
duration.

Span names are the layer metric names without their unit suffix, e.g.
``compiler.optimize`` or ``cpu.sim_assist_on/bypass``.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        #: Self seconds per span name, and counts recorded by wrappers.
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # [start, seconds covered by children]
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        frame = [time.perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            yield
        finally:
            duration = time.perf_counter() - frame[0]
            self._stack.pop()
            self.self_s[name] += duration - frame[1]
            if self._stack:
                self._stack[-1][1] += duration

    def total(self, prefix: str = "") -> float:
        """Sum of self times of spans whose name starts with ``prefix``."""
        return sum(
            seconds
            for name, seconds in self.self_s.items()
            if name.startswith(prefix)
        )

    # -- patching ------------------------------------------------------

    def wrap(self, owner, attr: str, name, after=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``name`` is a span name or a function of the call's arguments
        returning one; ``after(result, args, kwargs)`` may add counts.
        """
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            with tracer.span(label):
                result = original(*args, **kwargs)
            if after is not None:
                after(result, args, kwargs)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def instrument(tracer: Tracer) -> Tracer:
    """Patch every layer entry point the workloads reach in-process."""
    import repro.analytic.predict as predict
    import repro.analytic.tiles as tiles
    import repro.compiler.regions.markers as markers
    import repro.core.experiment as experiment
    import repro.core.runner as runner
    import repro.core.versions as versions
    import repro.evaluation.locality as locality
    import repro.evaluation.profile as profile
    from repro.compiler.optimizer import LocalityOptimizer
    from repro.tracegen.interpreter import TraceGenerator

    def sim_name(trace, machine, mechanism=None, initially_on=True, *a, **k):
        if not mechanism:
            return "cpu.sim_assist_off"
        mode = "assist_on" if initially_on else "selective"
        return f"cpu.sim_{mode}/{mechanism}"

    def count_records(result, args, kwargs):
        tracer.counts["tracegen.records"] += len(result)

    def count_simulated(result, args, kwargs):
        tracer.counts["cpu.records"] += len(args[0])
        tracer.counts["cpu.instructions"] += result.instructions
        tracer.counts["cpu.cycles"] += result.cycles
        tracer.counts["memory.l1d_misses"] += result.memory.l1d.misses
        tracer.counts["memory.l2_misses"] += result.memory.l2.misses
        tracer.counts["hwopt.hw_toggles"] += result.hw_toggles

    tracer.wrap(runner, "prepare_codes", "core.prepare")
    tracer.wrap(runner, "run_benchmark", "core.run_benchmark")
    tracer.wrap(locality, "prepare_codes", "core.prepare")
    tracer.wrap(profile, "prepare_codes", "core.prepare")
    tracer.wrap(
        TraceGenerator, "generate_packed", "tracegen.generate", count_records
    )
    tracer.wrap(LocalityOptimizer, "optimize", "compiler.optimize")
    tracer.wrap(versions, "insert_markers", "compiler.markers")
    tracer.wrap(markers, "insert_markers", "compiler.markers")
    tracer.wrap(tiles, "model_tiling", "analytic.tiles")
    tracer.wrap(experiment, "simulate_trace", sim_name, count_simulated)
    tracer.wrap(profile, "simulate_trace", sim_name, count_simulated)
    tracer.wrap(locality, "distance_histogram", "locality.histogram")
    tracer.wrap(locality, "recommend_gating", "locality.gating")
    tracer.wrap(predict, "predict_benchmark", "analytic.predict")
    return tracer
