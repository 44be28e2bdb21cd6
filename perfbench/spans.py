"""Spans around the program's public layer functions, recorded from outside.

The benchmark's traced run wraps the public entry points of each layer
(``layer_targets()`` and ``probe_factories()``) with a recorder;
nothing in the program changes.  A span is ``(name, start, end,
parent)``; spans of one job share the tracer's ``trace_id``.  Spans
are kept in memory and summarised when the unit ends.  A span's *self
time* is its duration minus the time its direct children cover, so the
self times of nested layers add up to the wall time they account for.
"""

from __future__ import annotations

import functools
import sys
import threading
import time


def _count_keys(args, kwargs, result):
    keys = args[1] if len(args) > 1 else kwargs.get("keys", ())
    return len(keys)


def _count_items(args, kwargs, result):
    items = args[1] if len(args) > 1 else kwargs.get("items", ())
    return len(items) if hasattr(items, "__len__") else 0


def _count_hit(args, kwargs, result):
    return 0 if result is None else 1


def _count_iterations(args, kwargs, result):
    return result.n_iterations


def _count_one(args, kwargs, result):
    return 1


def probe_factories():
    """``(span name, module, factory)``: functions returning ``(requests,
    decode)``.  Their decode closures are the DSP the calibration probes
    run outside ``measure_*_batch``; the returned closure is wrapped."""
    from repro.receiver import performance

    return [
        ("dsp.decode", performance, "modulator_snr_probe"),
        ("dsp.decode", performance, "modulator_sfdr_probe"),
    ]


def layer_targets():
    """``(span name, owner, attribute, counter name, counter)`` for every
    wrapped function.  Owners are classes (the method is replaced on the
    class) or modules (the function is replaced in every loaded
    ``repro`` module that imported it by name)."""
    from repro.attacks.oracle import MeasurementOracle
    from repro.attacks.sat_attack import SatAttack
    from repro.calibration import metering
    from repro.calibration.fleet import FleetCalibrator
    from repro.calibration.procedure import Calibrator
    from repro.engine import CalibrationStore, SimulationEngine
    from repro.engine import plan
    from repro.logic.sat import SatSolver
    from repro.receiver import performance
    from repro.service import FoundryService

    return [
        ("service.submit", FoundryService, "submit", None, None),
        ("engine.run_multi", SimulationEngine, "run_multi", None, None),
        ("engine.plan", plan, "build_plan", None, None),
        ("logic.solve", SatSolver, "solve", "logic.solve_calls", _count_one),
        ("attacks.sat", SatAttack, "run", "attacks.sat_iterations",
         _count_iterations),
        ("attacks.oracle", MeasurementOracle, "snr_batch",
         "attacks.oracle_queries", _count_keys),
        ("attacks.oracle", MeasurementOracle, "sfdr_batch",
         "attacks.oracle_queries", _count_keys),
        ("dsp.decode", performance, "measure_modulator_snr_batch", None, None),
        ("dsp.decode", performance, "measure_receiver_snr_batch", None, None),
        ("dsp.decode", performance, "measure_sfdr_batch", None, None),
        ("dsp.decode", metering, "oscillation_frequency_batch", None, None),
        ("dsp.decode", metering, "oscillation_frequency", None, None),
        ("dsp.decode", metering, "is_oscillating", None, None),
        ("calibration.fleet", FleetCalibrator, "calibrate_fleet", None, None),
        ("calibration.single", Calibrator, "calibrate", None, None),
        ("store.read", CalibrationStore, "get", "store.hits", _count_hit),
        ("store.write", CalibrationStore, "put", "store.writes", _count_one),
        ("store.write", CalibrationStore, "put_many", "store.writes",
         _count_items),
    ]


class Tracer:
    """In-memory span recorder.  ``install()`` wraps the layer targets,
    ``uninstall()`` restores the originals."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: dict[str, int] = {}
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, counter=None, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            index = len(self.spans)
            self.spans.append(
                [name, time.perf_counter(), None, stack[-1] if stack else -1]
            )
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                self.spans[index][2] = time.perf_counter()
            if counter is not None:
                self.counts[counter] = (
                    self.counts.get(counter, 0) + count(args, kwargs, result)
                )
            return result

        return traced

    def wrap_factory(self, name, factory):
        @functools.wraps(factory)
        def traced_factory(*args, **kwargs):
            requests, decode = factory(*args, **kwargs)
            return requests, self.wrap(name, decode)

        return traced_factory

    def install(self) -> None:
        for name, owner, attr, counter, count in layer_targets():
            original = getattr(owner, attr)
            traced = self.wrap(name, original, counter, count)
            if isinstance(owner, type):
                self._replace(owner, attr, traced)
            else:
                self._replace_everywhere(attr, original, traced)
        for name, module, attr in probe_factories():
            original = getattr(module, attr)
            self._replace_everywhere(
                attr, original, self.wrap_factory(name, original)
            )

    def _replace_everywhere(self, attr, original, traced) -> None:
        """Replace a module function wherever it was imported by name,
        so callers holding their own reference see the wrapper too."""
        for module in list(sys.modules.values()):
            if (
                module is not None
                and getattr(module, "__name__", "").startswith("repro")
                and getattr(module, attr, None) is original
            ):
                self._replace(module, attr, traced)

    def _replace(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def summary(self) -> dict:
        """Per-span-name call count, total and self seconds, plus the
        number of engine submissions made under the fleet calibrator."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        by_name: dict[str, dict] = {}
        for (name, start, end, _), children in zip(self.spans, child_time):
            entry = by_name.setdefault(
                name, {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            )
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - children
        rounds = 0
        for name, _, _, parent in self.spans:
            if name != "engine.run_multi":
                continue
            while parent >= 0:
                if self.spans[parent][0] == "calibration.fleet":
                    rounds += 1
                    break
                parent = self.spans[parent][3]
        return {
            "trace_id": self.trace_id,
            "spans": by_name,
            "counts": dict(self.counts),
            "calibration_rounds": rounds,
        }
