"""Batched simulation engine — one oracle API for every experiment.

Every figure, table and attack in this reproduction reduces to the same
operation: *simulate this chip under these N configuration words*.  The
engine makes that the primitive.  Callers build request records and
submit whole sweeps; the engine integrates them with one of two
interchangeable, bit-exact backends.

Architecture
============

::

    experiments / attacks / calibration / locking
            |        (ModulatorRequest / ReceiverRequest batches)
            v
    SimulationEngine.run(chip, requests) ---- engine-owned caches
            |                                 (calibration results,
            |  group by (n_samples, substeps)  per-chip tank
            v                                  discretisations,
       build_plan()                            per-batch stimulus)
            |    per-key setup, exact legacy RNG draw order
            |
            +--> compiled kernel   (key-axis batch, native.NativeRun)
            +--> reference loop    (original scalar loop, ground truth)

Backends
--------

* **reference** — the original per-sample scalar recursion, verbatim
  (:mod:`repro.engine.reference`).  The semantic ground truth.
* **vectorized** — hands the whole batch, with per-key state ``(v,
  i_L)`` and constants laid out over the key axis, to a small compiled
  C kernel (built from ``_kernel.c`` on first use, cached per user;
  :mod:`repro.engine.native`).  One call integrates every key, which
  makes multi-key sweeps an order of magnitude faster.  Without a C
  compiler (or with ``REPRO_ENGINE_DISABLE_KERNEL``) it runs the
  reference loop, and its runs count as ``n_reference_runs``, so
  results never depend on the toolchain.
* **auto** (default) — the same as ``vectorized``.

Threading
---------

The kernel's key loop is its second parallel axis: the build tries
pthreads first (falling back to the identical sequential build on
toolchains without them), and each batch has a worker team that pulls
keys off an atomic counter.  Keys share no mutable state and per-key
arithmetic is untouched, so the thread count cannot change any result
— 1-vs-N-thread runs are bit-identical (guarded in
``tests/test_engine.py``).  A batch is a start/finish pair:
:meth:`SimulationEngine.start_multi` builds the plans, starts each
time-grid group's helpers and returns an
:class:`~repro.engine.engine.EngineRun` at once; its ``result()``
makes the caller one more worker on the same counter, joins the
helpers and returns the results.  Its ``overlap`` flag sizes the team
only: a caller that works elsewhere before ``result()`` gets up to one
helper per lane pack (a one-pack group gets one too), while
``run_multi`` — ``start_multi(..., overlap=False).result()`` — keeps
the caller's share, as a blocking call.  Two submissions may be in
flight at once — the fleet calibrator integrates one half-lot while it
decodes and plans the other, wherever
:meth:`SimulationEngine.can_overlap` says a helper can run beside it —
and each result is still a pure function of its request.  Per-batch
teams are what keeps ``fork()`` safe (the campaign
worker pools fork): no threading runtime outlives a start/finish pair,
and every pair is closed before its driver returns — the reason this
is pthreads, not OpenMP.  ``REPRO_ENGINE_THREADS`` pins the count
(unset = one thread per core, resolved per kernel batch, clamped to
the kernel's 64-helper team bound; ``1`` starts no helper, so a
started batch runs entirely at ``result()``, and the fleet calibrator
then keeps its lot in one submission per round);
``REPRO_ENGINE_DISABLE_KERNEL`` reports the kernel unavailable,
forcing the reference fallback — the CI leg that keeps the
no-compiler path green.  The reference backend and that fallback
integrate inside ``start_multi``.

Within each thread the kernel has a third, SIMD axis: 2/4-wide vector
lanes advance that many uniform-mode keys per time step through a
transposed key-inner layout, with per-lane arithmetic in the exact
reference operand order and the scalar libm ``tanh`` applied per lane
— so lane width, like thread count, is pure throughput policy and
0/2/4-lane runs are bit-identical.  ``REPRO_ENGINE_SIMD`` pins the
width (unset/``auto`` = runtime detection, ``0`` forces the scalar
walk — the CI force-off leg).

The backends are *bit-exact* (same ``ModulatorResult.output``, ``bits``
and ``tank_voltage`` arrays): they read identical precomputed inputs,
keep identical operand order, and share the one in-loop transcendental
— CPython's ``math.tanh`` and the kernel's ``tanh`` are the same libm
symbol, and the kernel is built with FP contraction disabled.
``tests/test_engine.py`` holds the equivalence property over mixed
clocked / buffer-mode / oscillation batches.  The invariants live in
:mod:`repro.engine.plan` and :mod:`repro.engine.native`.

Batching model
--------------

A batch may mix configurations, stimuli, clocks, seeds — and *chips*:
:meth:`SimulationEngine.run_multi` takes ``(chip, request)`` pairs and
groups them exactly like single-chip requests (every per-key input is
baked into the :class:`~repro.engine.plan.KeyPlan` before a backend
sees it, so the key axis is indifferent to which die a request
probes); :meth:`SimulationEngine.run` is its single-chip special case.
Only the *time grid* (record length and substeps) must agree, so
requests group by ``(n_samples, substeps)`` and each group integrates
in one pass, returning results in request order.  Mixed-chip batching
is what lets fleet calibration fuse one search step of a whole lot
into one kernel submission.

Cache semantics
---------------

Every cache below is a deterministic value cache: hitting one cannot
change any result.  Each has its key and its scope:

* **Calibration results**: an engine-owned bounded LRU
  (:class:`~repro.engine.cache.BoundedCache`, replacing the old
  unbounded module-global cache), keyed by ``(lot_seed, chip_id,
  standard_index)``.  A cross-process store may stand behind it
  (below).
* **Standard noise draws**: process-wide, a four-entry LRU of
  read-only arrays in :mod:`repro.engine.plan`, keyed by ``(seed,
  n_samples, substeps)``.  It holds the standard normals and uniforms
  behind every plan's noise records, drawn once per process in the
  generator's stream order, and the two comparator records formed from
  them, which are the same for every die.  Beside it, one read-only
  zeros record per length serves as every Gmin-off shape and every
  dither-off dither.
* **Tank discretisations**: per chip, ZOH discretisations keyed by
  ``(cc, cf, h)``, a bounded LRU held on the
  :class:`~repro.receiver.receiver.Chip`, since they are chip state
  like its block set.
* **Per-die measurement records**: per submission, or per session
  when a driver passes ``run_multi(..., noise_cache=)``, as the fleet
  calibrator does.  An entry holds the Gmin's soft-limiting shape of
  the VGLNA output, the scaled tank current noise and the dither,
  keyed by block set, stimulus, time grid, seed, ``lna_gain`` and
  ``dither_en``; a miss scales the standard draws, it does not draw.
* **Sampled RF stimulus**: per submission, keyed by ``(stimulus, fs,
  n_samples, substeps)``.
* **Finished measurements**: per in-process job run, a
  ``measurement_memo`` of modulator-SNR measurements keyed by die
  content, key, standard, power, record length, seed and substeps (see
  :func:`~repro.receiver.performance.measure_modulator_snr_batch`),
  attached to the default engine around each of the run's tasks only
  (:meth:`~repro.service.scheduler.TaskContext.applied`).

Plans reference the shared records rather than copying them: a key's
only own input-path value is its Gmin current scale ``gm_vlin``, and
each backend forms the input current ``gm_vlin * shape + i_noise``
itself (Gmin-off keys carry ``0.0`` and the zeros record), so the
per-key hand-off scales with the distinct records, not with keys times
record length; :mod:`repro.engine.plan` says why the records are bit
for bit the generator's and why the backends then form ``i_in`` bit
for bit.  ``clear_caches()`` (engine method and module-level hook for
the default engine) empties the calibration LRU and the standard
draws, for tests and long-running sweeps.

Behind the in-memory LRU an engine may attach a cross-process
:class:`~repro.engine.store.CalibrationStore` — a directory of
atomically-written calibration results, keyed like the LRU.
``calibrated()`` reads it with ``get`` after an LRU miss and writes
what it computes with ``put``, the write every provisioning pass
makes; no lock is taken, so two processes that miss one key together
may both compute it and store the same entry.  Campaign worker pools
share one per campaign (each die of a fleet calibrated once
campaign-wide instead of once per worker), and
``REPRO_CALIBRATION_STORE`` attaches one to the default engine for a
whole process tree.  ``clear_caches()`` clears an attached store too.

Batched post-processing
-----------------------

The post-integration stages batch along the key axis as well, so they
cannot become the serial tail of a sweep, and each has one path:
``run_receiver`` regroups modulator outputs into ``(keys, samples)``
matrices for :meth:`~repro.receiver.chain.DigitalChain.process_matrix`
(slicer, fs/4 mixer and decimators in one pass per batch), the
``measure_*_batch``/oracle sweep primitives take their spectra through
:func:`~repro.dsp.spectrum.periodogram_batch` (one windowed FFT over
the whole matrix).  Each single-record call (``process``,
``periodogram``) is the one-row case of its batch, and a row's result
does not depend on the rest of its batch; the calibration layer's
lockstep driver, which advances batched
:func:`~repro.calibration.optimizer.descent_machine` instances, builds
on the same primitives.
"""

from repro.engine.cache import BoundedCache
from repro.engine.engine import (
    BACKENDS,
    EngineStats,
    SimulationEngine,
    clear_caches,
    get_default_engine,
    set_default_backend,
)
from repro.engine.native import (
    kernel_available,
    kernel_max_threads,
    kernel_simd_lanes,
    kernel_simd_width,
    kernel_threaded,
    kernel_threads,
    usable_cpus,
)
from repro.engine.plan import KeyPlan, build_plan, discretise_tank
from repro.engine.request import ModulatorRequest, ReceiverRequest
from repro.engine.store import CalibrationStore

__all__ = [
    "BACKENDS",
    "BoundedCache",
    "CalibrationStore",
    "EngineStats",
    "KeyPlan",
    "ModulatorRequest",
    "ReceiverRequest",
    "SimulationEngine",
    "build_plan",
    "clear_caches",
    "discretise_tank",
    "get_default_engine",
    "kernel_available",
    "kernel_max_threads",
    "kernel_simd_lanes",
    "kernel_simd_width",
    "kernel_threaded",
    "kernel_threads",
    "set_default_backend",
    "usable_cpus",
]
