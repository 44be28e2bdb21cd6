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
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro.engine import native
from repro.engine.cache import BoundedCache
from repro.engine.plan import build_plan
from repro.engine.store import CalibrationStore
from repro.engine.reference import simulate_plan
from repro.engine.request import ModulatorRequest, ReceiverRequest
from repro.engine.vectorized import simulate_plans
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


@dataclass
class SimulationEngine:
    """Batched oracle: ``run(chip, requests) -> results``.

    Args:
        backend: ``"reference"`` forces the scalar loop, ``"vectorized"``
            forces the batch backend (any batch size), ``"auto"`` uses
            the batch backend whenever its compiled kernel is available.
            Backends are bit-exact, so dispatch is purely a throughput
            decision.
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
    #: Attached by :meth:`memoising` (an in-process ``ExperimentJob``
    #: runs inside it); None otherwise.
    measurement_memo: dict | None = field(default=None, init=False, repr=False)
    _memo_blocks: int = field(default=0, init=False, repr=False)

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
        come back in item order.
        """
        items = list(items)
        results: list[ModulatorResult | None] = [None] * len(items)
        groups: dict[tuple[int, int], list[int]] = {}
        for i, (_, request) in enumerate(items):
            groups.setdefault(request.batch_key, []).append(i)
        stim_cache: dict = {}
        if noise_cache is None:
            noise_cache = {}
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
                outs = simulate_plans(plans)
                self.stats.n_vectorized_runs += len(plans)
            else:
                outs = [simulate_plan(plan) for plan in plans]
                self.stats.n_reference_runs += len(plans)
            self.stats.integrate_seconds += time.perf_counter() - start
            for i, out in zip(indices, outs):
                results[i] = out
            self.stats.n_batches += 1
        self.stats.n_requests += len(items)
        return results  # type: ignore[return-value]

    def run_one(self, chip: "Chip", request: ModulatorRequest) -> ModulatorResult:
        """Single-request convenience wrapper over :meth:`run`."""
        return self.run(chip, [request])[0]

    def _use_vectorized(self) -> bool:
        if self.backend == "vectorized":
            return True
        if self.backend == "reference":
            return False
        return native.kernel_available()

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
        key: tuple | None = None,
    ):
        """Calibration result for ``chip`` at ``standard``, cached.

        The default cache key is ``(chip_id, standard.index)`` —
        experiments all draw chips from the shared reference lot, so a
        die is identified by its id.  Callers whose chips span several
        lots must pass an explicit ``key`` that includes the lot (the
        campaign layer keys on ``(lot_seed, chip_id, standard.index)``),
        or dies with equal ids would collide.  Pass ``factory`` (a
        zero-argument callable) to control how a missing entry is
        computed; the default runs the full paper calibration procedure.

        Lookup order is memory LRU, then the engine's cross-process
        :class:`~repro.engine.store.CalibrationStore` (when attached),
        then ``factory`` — whose result is written through to both.
        Calibration results are deterministic values, so neither cache
        layer can change what callers observe, only who pays for the
        compute.
        """
        if factory is None:
            def factory():  # deferred import: calibration imports the receiver
                from repro.calibration.procedure import Calibrator

                return Calibrator().calibrate(chip, standard)

        if key is None:
            key = (chip.variations.chip_id, standard.index)
        if self.calibration_store is not None:
            store = self.calibration_store
            inner = factory

            def factory():
                return store.get_or_set(key, inner)

        return self.calibration_cache.get_or_set(key, factory)

    @contextmanager
    def memoising(self):
        """Attach one measurement memo for a block.

        Blocks nest and may interleave, as the generators that drive
        in-process jobs do: the first block to open attaches an empty
        memo, every block open with it shares it, and the last to close
        detaches it — on completion, failure or cancellation alike — so
        no memo outlives the blocks.  Like the job's backend switch, the
        blocks belong to the one thread that drives in-process jobs.
        """
        if self._memo_blocks == 0:
            self.measurement_memo = {}
        self._memo_blocks += 1
        try:
            yield
        finally:
            self._memo_blocks -= 1
            if self._memo_blocks == 0:
                self.measurement_memo = None

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
