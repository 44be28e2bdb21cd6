"""The batched simulation engine and its process-wide default instance.

:class:`SimulationEngine` is the one oracle API every layer above the
receiver goes through: ``Chip.simulate_*`` delegates single requests to
it, the performance/measurement layer submits whole key sweeps, and the
attacks query it through the measurement oracle.  See the package
docstring (:mod:`repro.engine`) for the architecture.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro.engine import native
from repro.engine.cache import BoundedCache
from repro.engine.plan import build_plan
from repro.engine.store import CalibrationStore
from repro.engine.reference import simulate_plan
from repro.engine.request import ModulatorRequest, ReceiverRequest
from repro.receiver.chain import DigitalChain, ReceiverResult
from repro.receiver.config import DigitalConfig
from repro.receiver.sdm import ModulatorResult

if TYPE_CHECKING:  # avoid the receiver -> engine -> receiver import cycle
    from repro.receiver.receiver import Chip

#: Selectable integration backends.
BACKENDS = ("auto", "reference", "vectorized")


@dataclass
class EngineStats:
    """Counters for engine instrumentation (reset with the caches)."""

    n_requests: int = 0
    n_batches: int = 0
    n_reference_runs: int = 0
    n_vectorized_runs: int = 0
    integrate_seconds: float = 0.0
    dsp_seconds: float = 0.0


class EngineRun:
    """A submission started by :meth:`SimulationEngine.start_multi`.

    :meth:`result` finishes every time-grid group — the caller works
    through the packs the kernel's helpers have not claimed, then joins
    them — and returns the results in item order.  The caller's time in
    it counts as the engine's integration time.
    """

    def __init__(self, engine: "SimulationEngine", n_items: int, started):
        self._engine = engine
        self._n_items = n_items
        self._started = started
        self._results: list[ModulatorResult] | None = None

    def result(self) -> list[ModulatorResult]:
        """Finish the submission and return its results.  Later calls
        return the same results without touching the kernel or the
        engine's statistics."""
        if self._results is None:
            results: list[ModulatorResult | None] = [None] * self._n_items
            start = time.perf_counter()
            for indices, finish in self._started:
                for i, out in zip(indices, finish()):
                    results[i] = out
            self._engine.stats.integrate_seconds += time.perf_counter() - start
            self._results = results  # type: ignore[assignment]
            self._started = ()
        return self._results


@dataclass
class SimulationEngine:
    """Batched oracle: ``run(chip, requests) -> results``.

    Args:
        backend: ``"reference"`` forces the scalar loop;
            ``"vectorized"`` and ``"auto"`` hand every batch to the
            compiled kernel wherever it is available, and run the
            reference loop where it is not.  Backends are bit-exact, so
            dispatch is purely a throughput decision.
        calibration_cache_size: Bound on the engine-owned calibration
            result cache (replaces the old unbounded module global).
    """

    backend: str = "auto"
    calibration_cache_size: int = 64
    calibration_store: CalibrationStore | None = None
    calibration_cache: BoundedCache = field(init=False, repr=False)
    stats: EngineStats = field(default_factory=EngineStats, init=False)
    #: Finished modulator-SNR measurements, keyed by everything that
    #: determines them (see
    #: :func:`~repro.receiver.performance.measure_modulator_snr_batch`).
    #: An in-process run attaches its memo to the default engine around
    #: each of its tasks
    #: (:meth:`~repro.service.scheduler.TaskContext.applied`); None
    #: otherwise.
    measurement_memo: dict | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r}; choose from {BACKENDS}"
            )
        self.calibration_cache = BoundedCache(self.calibration_cache_size)

    # -- modulator oracle --------------------------------------------------

    def run(
        self, chip: "Chip", requests: Sequence[ModulatorRequest]
    ) -> list[ModulatorResult]:
        """Simulate a batch of configuration words on one chip.

        Requests are grouped by time grid (``n_samples``, ``substeps``);
        each group is integrated by the selected backend.  Results come
        back in request order and are identical whichever backend ran
        them.
        """
        return self.run_multi([(chip, request) for request in requests])

    def run_multi(
        self,
        items: Sequence[tuple["Chip", ModulatorRequest]],
        noise_cache: dict | None = None,
    ) -> list[ModulatorResult]:
        """Simulate a mixed-chip batch: ``(chip, request)`` pairs.

        The key axis is indifferent to *which* die a request probes —
        every per-key input (block constants, discretised tank, noise
        records) is baked into its :class:`~repro.engine.plan.KeyPlan`
        before the backends see it — so requests of *different* chips
        group by time grid exactly like requests of one chip, and each
        result is bit-identical to running its request alone.  This is
        what lets fleet calibration fuse one bisection level of a whole
        lot into a single kernel submission.  Each chip's
        discretisation memo is its own; the sampled-stimulus and
        drawn-record memos are per submission — or, when a driver runs
        a *session* of related submissions (a lockstep fleet
        calibration measures every die under the same few setups,
        round after round), a caller-held ``noise_cache`` dict carries
        the drawn records across calls (deterministic values; see the
        contract in :func:`~repro.engine.plan.build_plan`).  Results
        come back in item order.  The blocking form of
        :meth:`start_multi`.
        """
        return self.start_multi(
            items, noise_cache=noise_cache, overlap=False
        ).result()

    def start_multi(
        self,
        items: Sequence[tuple["Chip", ModulatorRequest]],
        noise_cache: dict | None = None,
        overlap: bool = True,
    ) -> EngineRun:
        """Start a :meth:`run_multi` submission and return at once.

        Builds every plan and starts each time-grid group on the
        kernel, whose helpers integrate while the caller goes on; the
        returned handle's :meth:`EngineRun.result` finishes the groups
        and returns what :meth:`run_multi` would.  ``overlap`` says
        whether the caller does other work before ``result()``: then
        each group's team gets up to one helper per lane pack, so even
        a one-pack group integrates meanwhile; with ``False`` the
        caller is one of the team, as in :meth:`run_multi`.  It sizes
        the team only; no result depends on it.  The reference loop
        (the reference backend, or no kernel) integrates here, before
        returning.
        Two submissions may be in flight at once — the fleet calibrator
        integrates one half-lot while it decodes and plans the other —
        and each result is still a pure function of its request.  A
        handle dropped unfinished finishes its groups before their
        arrays are freed.
        """
        items = list(items)
        groups: dict[tuple[int, int], list[int]] = {}
        for i, (_, request) in enumerate(items):
            groups.setdefault(request.batch_key, []).append(i)
        stim_cache: dict = {}
        if noise_cache is None:
            noise_cache = {}
        started = []
        try:
            for indices in groups.values():
                plans = [
                    build_plan(
                        items[i][0].blocks,
                        items[i][1],
                        disc_cache=items[i][0].discretisation_cache,
                        stim_cache=stim_cache,
                        noise_cache=noise_cache,
                    )
                    for i in indices
                ]
                start = time.perf_counter()
                if self._use_vectorized():
                    finish = native.NativeRun(plans, overlap).finish
                    self.stats.n_vectorized_runs += len(plans)
                else:
                    # Integrated now; finishing only hands them over.
                    finish = [simulate_plan(plan) for plan in plans].copy
                    self.stats.n_reference_runs += len(plans)
                self.stats.integrate_seconds += time.perf_counter() - start
                started.append((indices, finish))
                self.stats.n_batches += 1
        except BaseException:
            # No group started here outlives a failed submission.
            for _, finish in started:
                finish()
            raise
        self.stats.n_requests += len(items)
        return EngineRun(self, len(items), started)

    def run_one(self, chip: "Chip", request: ModulatorRequest) -> ModulatorResult:
        """Single-request convenience wrapper over :meth:`run`."""
        return self.run(chip, [request])[0]

    def _use_vectorized(self) -> bool:
        """Any backend but ``reference`` runs the kernel where it is
        available; elsewhere every backend runs the reference loop."""
        return self.backend != "reference" and native.kernel_available()

    def can_overlap(self) -> bool:
        """Whether a :meth:`start_multi` submission can integrate
        beside its caller: the compiled kernel runs this engine's
        batches, it is built threaded, and its team has room for a
        helper (``REPRO_ENGINE_THREADS`` above 1, or unset on a
        multi-core host).  Otherwise a started submission integrates
        at start or at ``result()`` on the caller alone, so splitting
        work into overlapping submissions gains nothing."""
        if not (self._use_vectorized() and native.kernel_threaded()):
            return False
        return (native.kernel_threads() or os.cpu_count() or 1) > 1

    # -- full-chain oracle -------------------------------------------------

    def run_receiver(
        self, chip: "Chip", requests: Sequence[ReceiverRequest]
    ) -> list[ReceiverResult]:
        """Simulate modulator batches and push the whole batch through
        the digital section (slicer, fs/4 mixer, decimation).

        The modulator outputs are regrouped by record length and each
        group goes through :meth:`DigitalChain.process_matrix` as one
        ``(keys, samples)`` matrix, so the post-integration stage is
        batched exactly like the integration itself.  Per-request
        results are bit-identical to processing each record alone (the
        matrix chain's per-row exactness property); the digital
        programming bits select the standard profile and do not enter
        the arithmetic, so they stay per-request metadata.
        """
        requests = list(requests)
        osr = chip.design.osr
        mod_requests = [
            ModulatorRequest(
                config=r.config,
                stimulus=r.stimulus,
                fs=r.fs,
                n_samples=r.n_baseband * osr,
                seed=r.seed,
                substeps=r.substeps,
            )
            for r in requests
        ]
        mods = self.run(chip, mod_requests)
        groups: dict[tuple, list[int]] = {}
        for i, request in enumerate(requests):
            profile = request.digital_config or DigitalConfig()
            groups.setdefault((request.n_baseband, profile), []).append(i)
        results: list[ReceiverResult | None] = [None] * len(requests)
        for (_, profile), indices in groups.items():
            chain = DigitalChain(
                osr=osr,
                logic_threshold=chip.design.front_end.logic_threshold,
                digital_config=profile,
            )
            start = time.perf_counter()
            outs = chain.process_matrix(
                np.stack([mods[i].output for i in indices]),
                fs=[requests[i].fs for i in indices],
            )
            self.stats.dsp_seconds += time.perf_counter() - start
            for i, out in zip(indices, outs):
                results[i] = out
        return results  # type: ignore[return-value]

    def run_receiver_one(
        self, chip: "Chip", request: ReceiverRequest
    ) -> ReceiverResult:
        """Single-request convenience wrapper over :meth:`run_receiver`."""
        return self.run_receiver(chip, [request])[0]

    # -- engine-owned caches -----------------------------------------------

    def calibrated(
        self,
        chip: "Chip",
        standard,
        factory: Callable | None = None,
        *,
        key: tuple,
    ):
        """Calibration result for ``chip`` at ``standard``, cached
        under ``key``.

        ``key`` must name the die across lots: the campaign layer's
        :func:`~repro.campaigns.scenario.provision_calibration`, the one
        on-demand caller, keys on ``(lot_seed, chip_id,
        standard.index)``, because dies with equal ids from different
        lots are different silicon.  Pass ``factory`` (a zero-argument
        callable) to control how a missing entry is computed; the
        default runs the full paper calibration procedure.

        Lookup order is memory LRU, then the attached
        :class:`~repro.engine.store.CalibrationStore`'s ``get``; a miss
        in both runs ``factory`` and writes its result to the LRU and,
        through ``put`` (the write a provisioning pass makes), to the
        store.  No lock is taken: two processes that miss one key at
        the same moment may both compute it and both put the same
        entry.  Calibration results are deterministic values, so
        neither cache layer can change what callers observe, only who
        pays for the compute.
        """
        if factory is None:
            def factory():  # deferred import: calibration imports the receiver
                from repro.calibration.procedure import Calibrator

                return Calibrator().calibrate(chip, standard)

        store = self.calibration_store
        if store is not None:
            compute = factory

            def factory():
                value = store.get(key)
                if value is None:
                    value = compute()
                    store.put(key, value)
                return value

        return self.calibration_cache.get_or_set(key, factory)

    def clear_caches(self) -> None:
        """Test hook: drop cached calibrations (the attached store's
        entries included) and reset statistics."""
        self.calibration_cache.clear()
        if self.calibration_store is not None:
            self.calibration_store.clear()
        self.stats = EngineStats()


def _resolve_env_backend() -> str:
    """Validate ``REPRO_ENGINE_BACKEND`` up front, with a clear error.

    A typo'd backend name should fail here, naming the variable and the
    valid choices — not surface later as an opaque failure somewhere
    inside the engine (or, worse, silently run the wrong backend).
    """
    backend = os.environ.get("REPRO_ENGINE_BACKEND", "auto")
    if backend not in BACKENDS:
        raise ValueError(
            f"REPRO_ENGINE_BACKEND={backend!r} is not a valid engine "
            f"backend; choose from {', '.join(BACKENDS)}"
        )
    return backend


def _resolve_env_store() -> CalibrationStore | None:
    """Attach the cross-process calibration store named by
    ``REPRO_CALIBRATION_STORE`` (unset: no store)."""
    path = os.environ.get("REPRO_CALIBRATION_STORE")
    return CalibrationStore(path) if path else None


# REPRO_ENGINE_BACKEND forces the default engine's backend for a whole
# process tree — how the CI matrix runs the identical suite on both
# backends without touching any test.
_DEFAULT_ENGINE = SimulationEngine(
    backend=_resolve_env_backend(),
    calibration_store=_resolve_env_store(),
)


def get_default_engine() -> SimulationEngine:
    """The process-wide engine used by ``Chip.simulate_*`` delegation."""
    return _DEFAULT_ENGINE


def set_default_backend(backend: str) -> None:
    """Switch the default engine's backend (CLI ``--backend`` hook)."""
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; "
            f"choose from {', '.join(BACKENDS)}"
        )
    _DEFAULT_ENGINE.backend = backend


def clear_caches() -> None:
    """Test hook: clear every cache on the default engine."""
    _DEFAULT_ENGINE.clear_caches()
