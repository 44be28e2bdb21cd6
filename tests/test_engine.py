"""Batched simulation engine: backend bit-exactness, batching/grouping,
mixed-chip batches, engine-owned caches (the cross-process store and
its concurrency semantics included), request validation and the runner
registry."""

import dataclasses
import gc
import hashlib
import multiprocessing
import os
import time

import numpy as np
import pytest

from repro.engine import (
    BACKENDS,
    BoundedCache,
    CalibrationStore,
    ModulatorRequest,
    ReceiverRequest,
    SimulationEngine,
    get_default_engine,
    kernel_available,
    kernel_max_threads,
    kernel_simd_lanes,
    kernel_simd_width,
    kernel_threaded,
    kernel_threads,
    set_default_backend,
)
from repro.engine.plan import _standard_draws, _zeros, build_plan
from repro.receiver import (
    Chip,
    ConfigWord,
    STANDARDS,
    ToneStimulus,
    oscillation_config,
    stimulus_frequency,
)

STD = STANDARDS[0]
N = 256


@pytest.fixture(scope="module")
def chip():
    return Chip()


def _stim():
    return ToneStimulus.single(stimulus_frequency(STD, 64, N), -25.0)


def _mixed_mode_requests(rng):
    """Clocked, buffer-mode, open-loop, oscillation and random keys —
    every loop-topology branch of the integrator, across seeds."""
    base = ConfigWord(
        lna_gain=7, cc_coarse=10, cf_fine=128, gmq_code=20, gmin_code=24,
        preamp_code=20, comp_code=31, dac_code=32, delay_code=12,
        buffer_code=4,
    )
    configs = [
        base,  # clocked, loop closed
        base.replace(comp_clk_en=0),  # buffer mode, loop closed
        base.replace(fb_en=0),  # clocked, loop open
        base.replace(comp_clk_en=0, fb_en=0),  # fully open buffer
        oscillation_config(base),  # free-running tank
        base.replace(dither_en=1, chop_en=1, delay_code=3),  # aux paths
        ConfigWord.random(rng),
        ConfigWord.random(rng),
        ConfigWord.random(rng),
    ]
    stim = _stim()
    return [
        ModulatorRequest(
            config=config,
            stimulus=ToneStimulus.off() if i == 4 else stim,
            fs=STD.fs,
            n_samples=N,
            seed=i,
            initial_state=(1e-3, 0.0) if i == 4 else (0.0, 0.0),
        )
        for i, config in enumerate(configs)
    ]


class TestBitExactness:
    def test_vectorized_matches_reference_on_mixed_batch(self, chip, rng):
        requests = _mixed_mode_requests(rng)
        ref = SimulationEngine(backend="reference").run(chip, requests)
        vec = SimulationEngine(backend="vectorized").run(chip, requests)
        for i, (a, b) in enumerate(zip(ref, vec)):
            assert np.array_equal(a.output, b.output), f"output differs at {i}"
            assert np.array_equal(a.bits, b.bits), f"bits differ at {i}"
            assert np.array_equal(
                a.tank_voltage, b.tank_voltage
            ), f"tank_voltage differs at {i}"
            assert a.is_bitstream == b.is_bitstream
            assert a.fs == b.fs

    def test_batch_composition_does_not_change_results(self, chip, rng):
        """A key simulated alone equals the same key inside a batch."""
        requests = _mixed_mode_requests(rng)
        engine = SimulationEngine(backend="vectorized")
        batch = engine.run(chip, requests)
        for request, batched in zip(requests[:4], batch[:4]):
            alone = engine.run(chip, [request])[0]
            assert np.array_equal(alone.output, batched.output)

    def test_chip_entry_point_matches_engine(self, chip):
        """Chip.simulate_modulator goes through the engine unchanged."""
        config = ConfigWord()
        direct = chip.simulate_modulator(config, _stim(), STD.fs, n_samples=N, seed=3)
        via_engine = SimulationEngine(backend="reference").run_one(
            chip,
            ModulatorRequest(
                config=config, stimulus=_stim(), fs=STD.fs, n_samples=N, seed=3
            ),
        )
        assert np.array_equal(direct.output, via_engine.output)

    def test_receiver_chain_matches_across_backends(self, chip):
        request = ReceiverRequest(
            config=ConfigWord(), stimulus=_stim(), fs=STD.fs, n_baseband=16
        )
        ref = SimulationEngine(backend="reference").run_receiver_one(chip, request)
        vec = SimulationEngine(backend="vectorized").run_receiver_one(chip, request)
        assert np.array_equal(ref.baseband, vec.baseband)
        assert ref.fs_out == vec.fs_out


def _pinned_requests():
    """A fixed request set over every input-path variant the plan
    builds: Gmin on and off, clocked / buffer / oscillation loops,
    dither on and off, each under two seeds."""
    base = ConfigWord(
        lna_gain=7, cc_coarse=10, cf_fine=128, gmq_code=20, gmin_code=24,
        preamp_code=20, comp_code=31, dac_code=32, delay_code=12,
        buffer_code=4,
    )
    configs = [
        base,  # clocked, Gmin on, dither off
        base.replace(dither_en=1, gmin_code=40),  # clocked, dither on
        base.replace(gmin_en=0),  # clocked, Gmin off
        base.replace(comp_clk_en=0),  # buffer mode, Gmin on
        base.replace(comp_clk_en=0, gmin_en=0, dither_en=1),  # buffer, off
        oscillation_config(base),  # free-running tank, Gmin off
    ]
    stim = _stim()
    return [
        ModulatorRequest(
            config=config,
            stimulus=ToneStimulus.off() if i == 5 else stim,
            fs=STD.fs,
            n_samples=N,
            seed=seed,
            initial_state=(1e-3, 0.0) if i == 5 else (0.0, 0.0),
        )
        for seed in (7, 8)
        for i, config in enumerate(configs)
    ]


#: sha256 (first 16 hex digits) of each pinned request's ``output``,
#: ``bits`` and ``tank_voltage`` bytes, in that order, on the default
#: chip.  Recorded on x86-64 Linux (glibc libm, NumPy 2.4, SciPy 1.17);
#: the values rest on the platform's libm ``tanh``, NumPy's RNG streams
#: and ``tanh``, and SciPy's ``expm``, like ``perfbench/digests.json``.
PINNED_DIGESTS = (
    "1983a21011f06c98",
    "e18a3d96760ac3b9",
    "e4b3f38521a5ad19",
    "f66fd66a75e4eabf",
    "71310579f2cc921b",
    "85a5b2193ed6481b",
    "c1ce146ac69ae4cc",
    "942444bcf005ac9b",
    "2051c0c3981a81a0",
    "9da2e404b5b53e52",
    "621ba871d86ab800",
    "52f763e5ddd7921c",
)


class TestPinnedOutputs:
    """Absolute outputs, not only backend agreement.

    Every other engine guard is differential — backend against backend,
    batch against lone run — so a change to a plan input that both
    backends read the same way would pass all of them.  These digests
    pin the bytes themselves."""

    @pytest.mark.parametrize("backend", ["reference", "vectorized"])
    def test_outputs_match_pinned_digests(self, chip, backend):
        results = SimulationEngine(backend=backend).run(
            chip, _pinned_requests()
        )
        digests = tuple(
            hashlib.sha256(
                r.output.tobytes() + r.bits.tobytes() + r.tank_voltage.tobytes()
            ).hexdigest()[:16]
            for r in results
        )
        assert digests == PINNED_DIGESTS


class TestStandardDraws:
    """Plans form their noise records from process-wide standard draws.

    That rests on one NumPy fact: ``normal(0.0, s)`` is ``0.0 + s *
    standard_normal`` and ``uniform(-1.0, 1.0)`` is ``-1.0 + 2.0 *
    random``, each consuming the stream draw for draw.  The first guard
    pins it for the installed NumPy against the generator's own calls,
    in the plan's stream order, from the signed-zero corner (scale
    0.0) to huge products; the second pins that a session's plans
    share one draw."""

    SEEDS = (0, 7, 8, 2020)
    GRIDS = ((256, 4), (1024, 4), (4096, 4))
    SCALES = (0.0, 1e-9, 1.0, 1e300)

    @pytest.mark.parametrize("dither_en", [0, 1])
    def test_records_match_generator_calls(self, chip, dither_en):
        config = ConfigWord(lna_gain=7, dither_en=dither_en)
        for scale in self.SCALES:
            blocks = dataclasses.replace(
                chip.blocks, tank_current_noise=scale, dither_amplitude=scale
            )
            for seed in self.SEEDS:
                for n_samples, substeps in self.GRIDS:
                    plan = build_plan(blocks, ModulatorRequest(
                        config=config, stimulus=_stim(), fs=STD.fs,
                        n_samples=n_samples, seed=seed, substeps=substeps,
                    ))
                    z_lna = _standard_draws(seed, n_samples, substeps)[0]
                    n_sub = n_samples * substeps
                    bandwidth = 0.5 / (1.0 / (STD.fs * substeps))
                    sigma_i = scale * np.sqrt(bandwidth)
                    rng = np.random.default_rng(seed)
                    pairs = [
                        # A plan keeps only the Gmin shape the VGLNA
                        # noise drives: its record is checked as
                        # Vglna.process forms it.
                        (0.0 + scale * z_lna, rng.normal(0.0, scale, n_sub)),
                        (plan.i_noise, rng.normal(0.0, sigma_i, n_sub)),
                        (plan.comp_noise, rng.normal(0.0, 1.0, n_samples)),
                        (plan.comp_noise_out, rng.normal(0.0, 1.0, n_samples)),
                        (
                            plan.dither,
                            scale * rng.uniform(-1.0, 1.0, n_samples)
                            if dither_en
                            else np.zeros(n_samples),
                        ),
                    ]
                    for formed, drawn in pairs:
                        assert formed.tobytes() == drawn.tobytes()

    def test_session_plans_share_one_draw(self, monkeypatch):
        from repro.engine import engine as engine_module
        from repro.process import ChipFactory

        plans = []

        def recording_build_plan(*args, **kwargs):
            plans.append(build_plan(*args, **kwargs))
            return plans[-1]

        monkeypatch.setattr(engine_module, "build_plan", recording_build_plan)
        fab = ChipFactory(lot_seed=2020)
        dies = [Chip(variations=fab.draw(die)) for die in range(2)]
        engine = SimulationEngine()
        engine.clear_caches()
        dither_off = []
        for chip in dies:
            for lna_gain in (3, 7, 12):
                for dither_en in (0, 1):
                    config = ConfigWord(lna_gain=lna_gain, dither_en=dither_en)
                    engine.run(chip, [ModulatorRequest(
                        config=config, stimulus=_stim(), fs=STD.fs,
                        n_samples=N, seed=3,
                    )])
                    dither_off.append(not dither_en)
        assert len(plans) == 12
        assert _standard_draws.cache_info().misses == 1
        for plan, off in zip(plans, dither_off):
            assert plan.comp_noise is plans[0].comp_noise
            assert plan.comp_noise_out is plans[0].comp_noise_out
            assert (plan.dither is _zeros(N)) == off
        engine.clear_caches()
        assert _standard_draws.cache_info().currsize == 0


class TestBatching:
    def test_results_in_request_order_across_time_grids(self, chip):
        """Mixed record lengths are grouped yet returned in order."""
        stim = _stim()
        requests = [
            ModulatorRequest(
                config=ConfigWord(), stimulus=stim, fs=STD.fs,
                n_samples=128 if i % 2 else 64, seed=i,
            )
            for i in range(6)
        ]
        results = SimulationEngine(backend="reference").run(chip, requests)
        for request, result in zip(requests, results):
            assert result.output.size == request.n_samples

    def test_stats_count_requests_and_batches(self, chip):
        engine = SimulationEngine(backend="reference")
        stim = _stim()
        engine.run(
            chip,
            [
                ModulatorRequest(
                    config=ConfigWord(), stimulus=stim, fs=STD.fs,
                    n_samples=64, seed=i,
                )
                for i in range(5)
            ],
        )
        assert engine.stats.n_requests == 5
        assert engine.stats.n_batches == 1
        assert engine.stats.n_reference_runs == 5
        assert engine.stats.n_vectorized_runs == 0

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            SimulationEngine(backend="cuda")
        with pytest.raises(ValueError):
            set_default_backend("cuda")
        assert get_default_engine().backend in BACKENDS


class TestRequestValidation:
    def test_modulator_request_guards(self):
        with pytest.raises(ValueError):
            ModulatorRequest(
                config=ConfigWord(), stimulus=_stim(), fs=STD.fs, n_samples=0
            )
        with pytest.raises(ValueError):
            ModulatorRequest(
                config=ConfigWord(), stimulus=_stim(), fs=STD.fs,
                n_samples=16, substeps=1,
            )

    @pytest.mark.parametrize("n_baseband", [0, -5])
    def test_receiver_request_rejects_bad_n_baseband(self, n_baseband):
        with pytest.raises(ValueError, match="n_baseband"):
            ReceiverRequest(
                config=ConfigWord(), stimulus=_stim(), fs=STD.fs,
                n_baseband=n_baseband,
            )

    @pytest.mark.parametrize("n_baseband", [0, -1])
    def test_simulate_receiver_rejects_bad_n_baseband(self, chip, n_baseband):
        """Regression: this used to fail deep inside the decimator."""
        with pytest.raises(ValueError, match="n_baseband"):
            chip.simulate_receiver(
                ConfigWord(), _stim(), STD.fs, n_baseband=n_baseband
            )


class TestBoundedCache:
    def test_eviction_is_lru(self):
        cache = BoundedCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh "a"
        cache.put("c", 3)  # evicts "b"
        assert "b" not in cache
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert len(cache) == 2

    def test_get_or_set_computes_once(self):
        cache = BoundedCache(maxsize=4)
        calls = []
        for _ in range(3):
            value = cache.get_or_set("k", lambda: calls.append(1) or 42)
            assert value == 42
        assert len(calls) == 1
        assert cache.hits == 2
        assert cache.misses == 1

    def test_bad_maxsize_rejected(self):
        with pytest.raises(ValueError):
            BoundedCache(maxsize=0)


class TestEngineCaches:
    def test_calibration_cache_bounded_and_clearable(self, chip):
        engine = SimulationEngine(calibration_cache_size=2)
        calls = []

        def factory_for(tag):
            def factory():
                calls.append(tag)
                return tag

            return factory

        def calibrated(standard, tag):
            return engine.calibrated(
                chip, standard, factory_for(tag), key=(0, 0, standard.index)
            )

        std0, std1, std2 = STANDARDS[0], STANDARDS[1], STANDARDS[2]
        assert calibrated(std0, "a") == "a"
        assert calibrated(std0, "a2") == "a"  # hit
        assert calibrated(std1, "b") == "b"
        assert calibrated(std2, "c") == "c"  # evicts std0
        assert calibrated(std0, "a3") == "a3"
        assert calls == ["a", "b", "c", "a3"]
        engine.clear_caches()
        assert len(engine.calibration_cache) == 0
        assert engine.stats.n_requests == 0

    def test_experiments_calibrated_uses_engine_cache(self):
        from repro.experiments.common import calibrated, clear_caches, hero_chip

        engine = get_default_engine()
        clear_caches()
        chip = hero_chip()
        first = calibrated(chip, STANDARDS[0])
        assert len(engine.calibration_cache) == 1
        assert calibrated(hero_chip(), STANDARDS[0]) is first  # same die -> hit
        clear_caches()
        assert len(engine.calibration_cache) == 0


class TestRunnerRegistry:
    def test_all_artefacts_registered(self):
        from repro.experiments.runner import REGISTRY

        assert list(REGISTRY) == [
            "fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
            "tab-attack", "tab-keys", "tab-ovr", "sweep-std",
            "sat-na", "opt-attack",
        ]

    def test_duplicate_registration_rejected(self):
        from repro.experiments.runner import REGISTRY, register

        with pytest.raises(ValueError):
            register(next(iter(REGISTRY.values())))

    def test_unknown_name_rejected(self):
        from repro.experiments.runner import run_all

        with pytest.raises(KeyError):
            run_all(names=["fig99"])


class TestKernelThreading:
    """The kernel's key axis: thread-count invariance and env plumbing."""

    @pytest.mark.skipif(
        not kernel_available(), reason="no C compiler: nothing to thread"
    )
    def test_thread_count_invariance(self, chip, rng, monkeypatch):
        """1-vs-N threads must be bit-identical over every loop mode."""
        requests = _mixed_mode_requests(rng)
        monkeypatch.setenv("REPRO_ENGINE_THREADS", "1")
        one = SimulationEngine(backend="vectorized").run(chip, requests)
        monkeypatch.setenv("REPRO_ENGINE_THREADS", "4")
        four = SimulationEngine(backend="vectorized").run(chip, requests)
        for a, b in zip(one, four):
            assert np.array_equal(a.output, b.output)
            assert np.array_equal(a.bits, b.bits)
            assert np.array_equal(a.tank_voltage, b.tank_voltage)

    def test_kernel_threads_resolution(self, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE_THREADS", raising=False)
        assert kernel_threads() == 0  # one thread per core
        monkeypatch.setenv("REPRO_ENGINE_THREADS", "3")
        assert kernel_threads() == 3
        for bad in ("0", "-2", "many", "1.5", " "):
            monkeypatch.setenv("REPRO_ENGINE_THREADS", bad)
            if bad.strip() == "":
                assert kernel_threads() == 0
            else:
                with pytest.raises(ValueError, match="REPRO_ENGINE_THREADS"):
                    kernel_threads()

    def test_disable_kernel_env(self, monkeypatch):
        """REPRO_ENGINE_DISABLE_KERNEL forces the reference fallback."""
        monkeypatch.setenv("REPRO_ENGINE_DISABLE_KERNEL", "1")
        assert not kernel_available()
        assert not kernel_threaded()

    @pytest.mark.skipif(
        not kernel_available(), reason="no C compiler: fallback is the norm"
    )
    def test_disabled_kernel_still_bit_identical(self, chip, rng, monkeypatch):
        """The vectorized backend with the kernel disabled must run the
        reference loop per key and produce identical results."""
        requests = _mixed_mode_requests(rng)[:3]
        native_results = SimulationEngine(backend="vectorized").run(chip, requests)
        monkeypatch.setenv("REPRO_ENGINE_DISABLE_KERNEL", "1")
        fallback = SimulationEngine(backend="vectorized").run(chip, requests)
        for a, b in zip(native_results, fallback):
            assert np.array_equal(a.output, b.output)


    @pytest.mark.skipif(
        not kernel_available(), reason="no C compiler: nothing to thread"
    )
    @pytest.mark.skipif(
        "fork" not in __import__("multiprocessing").get_all_start_methods(),
        reason="platform cannot fork",
    )
    def test_fork_after_threaded_batch_is_safe(self, chip, rng, monkeypatch):
        """Forked workers must be able to use the threaded kernel after
        the parent has — the reason the kernel threads with per-call
        pthread teams instead of OpenMP, whose runtime deadlocks in
        forked children.  Regression for the campaign worker pools."""
        import multiprocessing

        monkeypatch.setenv("REPRO_ENGINE_THREADS", "4")
        requests = _mixed_mode_requests(rng)[:4]
        parent = SimulationEngine(backend="vectorized").run(chip, requests)
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(2) as pool:
            sums = pool.map(_threaded_child_checksums, [requests] * 2)
        expected = [float(r.output.sum()) for r in parent]
        assert sums[0] == expected and sums[1] == expected


    @pytest.mark.skipif(
        not kernel_available(), reason="no C compiler: nothing to clamp"
    )
    def test_many_threads_requested_is_clamped_not_broken(
        self, chip, rng, monkeypatch
    ):
        """Requests far beyond the kernel's worker-team bound must be
        clamped up front (never silently truncated mid-spawn) and stay
        bit-identical to the sequential walk."""
        assert kernel_max_threads() == 65
        requests = _mixed_mode_requests(rng)[:4]
        monkeypatch.setenv("REPRO_ENGINE_THREADS", "1")
        one = SimulationEngine(backend="vectorized").run(chip, requests)
        monkeypatch.setenv("REPRO_ENGINE_THREADS", "10000")
        many = SimulationEngine(backend="vectorized").run(chip, requests)
        for a, b in zip(one, many):
            assert np.array_equal(a.output, b.output)
            assert np.array_equal(a.bits, b.bits)
            assert np.array_equal(a.tank_voltage, b.tank_voltage)


#: Kernel settings the started-run contract must hold under: every
#: thread count x forced-scalar and auto lanes, plus the kernel off.
_RUN_ENVS = [
    {"REPRO_ENGINE_THREADS": threads, "REPRO_ENGINE_SIMD": simd}
    for threads in ("1", "2", "4")
    for simd in ("0", "auto")
] + [{"REPRO_ENGINE_DISABLE_KERNEL": "1"}]


def _task_count() -> int:
    return len(os.listdir("/proc/self/task"))


class TestStartedRuns:
    """``start_multi`` handles: runs in flight side by side, finishing
    once, and finishing themselves when dropped."""

    @pytest.mark.parametrize(
        "env", _RUN_ENVS,
        ids=["-".join(f"{k[13:]}={v}" for k, v in e.items()) for e in _RUN_ENVS],
    )
    def test_two_runs_in_flight_match_run_multi(
        self, chip, rng, monkeypatch, env
    ):
        """Start A, start B, finish B, finish A: each result equals
        run_multi's of the same items, bit for bit."""
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        engine = SimulationEngine(backend="vectorized")
        first = [(chip, r) for r in _uniform_mode_requests(rng, 9)]
        second = [(chip, r) for r in _mixed_mode_requests(rng)]
        run_a = engine.start_multi(first)
        run_b = engine.start_multi(second)
        got_b = run_b.result()
        got_a = run_a.result()
        for got, items in ((got_a, first), (got_b, second)):
            for i, (a, b) in enumerate(zip(engine.run_multi(items), got)):
                assert np.array_equal(a.output, b.output), i
                assert np.array_equal(a.bits, b.bits), i
                assert np.array_equal(a.tank_voltage, b.tank_voltage), i

    @pytest.mark.skipif(
        not kernel_available(), reason="no C compiler: nothing to finish"
    )
    def test_result_twice_finishes_once(self, chip, rng, monkeypatch):
        from repro.engine import native

        finishes = []
        real_finish = native._finish_batch
        monkeypatch.setattr(
            native, "_finish_batch",
            lambda *args: (finishes.append(1), real_finish(*args)),
        )
        engine = SimulationEngine(backend="vectorized")
        run = engine.start_multi([(chip, r) for r in _mixed_mode_requests(rng)])
        first = run.result()
        stats = dataclasses.replace(engine.stats)
        again = run.result()
        assert len(finishes) == 1  # one time grid, one kernel batch
        assert again is first
        assert engine.stats == stats

    @pytest.mark.skipif(
        not kernel_available(), reason="no C compiler: no kernel helpers"
    )
    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/task"), reason="no /proc task list"
    )
    def test_dropped_run_finishes_itself(self, chip, rng, monkeypatch):
        """A handle deleted unfinished finishes its batch in a finalizer
        (which holds the batch's arrays), and no helper thread is left."""
        from repro.engine import native

        finishes = []
        real_finish = native._finish_batch
        monkeypatch.setattr(
            native, "_finish_batch",
            lambda *args: (finishes.append(1), real_finish(*args)),
        )
        monkeypatch.setenv("REPRO_ENGINE_THREADS", "4")
        baseline = _task_count()
        run = SimulationEngine(backend="vectorized").start_multi(
            [(chip, r) for r in _uniform_mode_requests(rng, 16)]
        )
        del run
        gc.collect()
        assert finishes == [1]
        # A joined helper's task entry may take a moment to leave /proc.
        deadline = time.monotonic() + 10.0
        while _task_count() > baseline and time.monotonic() < deadline:
            time.sleep(0.01)
        assert _task_count() == baseline


def _uniform_mode_requests(rng, n_keys):
    """One loop topology, per-key data varying — consecutive keys are
    lane-packable, so the SIMD path actually engages (mode changes and
    remainders fall back to the scalar walk)."""
    base = ConfigWord(
        lna_gain=7, cc_coarse=10, cf_fine=128, gmq_code=20, gmin_code=24,
        preamp_code=20, comp_code=31, dac_code=32, delay_code=12,
        buffer_code=4,
    )
    stim = _stim()
    return [
        ModulatorRequest(
            config=base.replace(
                dac_code=int(rng.integers(1, 63)),
                gmq_code=int(rng.integers(1, 40)),
            ),
            stimulus=stim, fs=STD.fs, n_samples=N, seed=k,
        )
        for k in range(n_keys)
    ]


class TestKernelSimd:
    """The kernel's SIMD lane axis: width invariance and env plumbing.

    Lane width is pure throughput policy — per-lane arithmetic keeps
    the reference operand order and tanh is the scalar libm call per
    lane — so every width must reproduce the reference backend bit for
    bit, across thread counts and key counts that do not divide the
    lane width (remainders and mode changes take the scalar walk).
    """

    WIDTHS = ("0", "1", "2", "4", "auto")

    def _run_all_widths(self, chip, requests, monkeypatch):
        results = {}
        for width in self.WIDTHS:
            monkeypatch.setenv("REPRO_ENGINE_SIMD", width)
            results[width] = SimulationEngine(backend="vectorized").run(
                chip, requests
            )
        return results

    @pytest.mark.skipif(
        not kernel_available(), reason="no C compiler: no lane path to test"
    )
    @pytest.mark.parametrize("threads", ["1", "4"])
    def test_lane_width_invariance_mixed_modes(
        self, chip, rng, monkeypatch, threads
    ):
        """Every width x thread count equals the reference backend on a
        batch covering every loop topology."""
        requests = _mixed_mode_requests(rng)
        ref = SimulationEngine(backend="reference").run(chip, requests)
        monkeypatch.setenv("REPRO_ENGINE_THREADS", threads)
        for width, out in self._run_all_widths(
            chip, requests, monkeypatch
        ).items():
            for i, (a, b) in enumerate(zip(ref, out)):
                tag = f"SIMD={width}, threads={threads}, key {i}"
                assert np.array_equal(a.output, b.output), tag
                assert np.array_equal(a.bits, b.bits), tag
                assert np.array_equal(a.tank_voltage, b.tank_voltage), tag

    @pytest.mark.skipif(
        not kernel_available(), reason="no C compiler: no lane path to test"
    )
    @pytest.mark.parametrize("threads", ["1", "4"])
    def test_lane_width_invariance_mixed_gmin(
        self, chip, rng, monkeypatch, threads
    ):
        """The Gmin scale and record are per-lane data, not a mode: one
        lane pack may mix Gmin-on keys of different codes with Gmin-off
        keys, and every width, thread count and the kernel-disabled
        fallback must still equal the reference backend."""
        requests = [
            ModulatorRequest(
                config=r.config.replace(
                    gmin_en=int(on), gmin_code=int(rng.integers(1, 64))
                ),
                stimulus=r.stimulus, fs=r.fs, n_samples=r.n_samples,
                seed=r.seed % 3,
            )
            for r, on in zip(
                _uniform_mode_requests(rng, 10),
                (1, 0, 1, 1, 0, 1, 0, 0, 1, 0),
            )
        ]
        ref = SimulationEngine(backend="reference").run(chip, requests)
        monkeypatch.setenv("REPRO_ENGINE_THREADS", threads)
        runs = self._run_all_widths(chip, requests, monkeypatch)
        monkeypatch.setenv("REPRO_ENGINE_DISABLE_KERNEL", "1")
        runs["no kernel"] = SimulationEngine(backend="vectorized").run(
            chip, requests
        )
        for width, out in runs.items():
            for i, (a, b) in enumerate(zip(ref, out)):
                tag = f"SIMD={width}, threads={threads}, key {i}"
                assert np.array_equal(a.output, b.output), tag
                assert np.array_equal(a.bits, b.bits), tag
                assert np.array_equal(a.tank_voltage, b.tank_voltage), tag

    @pytest.mark.skipif(
        not kernel_available(), reason="no C compiler: no lane path to test"
    )
    @pytest.mark.parametrize("n_keys", [1, 2, 3, 5, 7, 9])
    def test_lane_width_invariance_odd_key_counts(
        self, chip, rng, monkeypatch, n_keys
    ):
        """Key counts that do not divide the lane width: full packs run
        the lane path, stragglers the scalar walk, results identical."""
        requests = _uniform_mode_requests(rng, n_keys)
        monkeypatch.setenv("REPRO_ENGINE_THREADS", "1")
        results = self._run_all_widths(chip, requests, monkeypatch)
        for width in self.WIDTHS[1:]:
            for a, b in zip(results["0"], results[width]):
                assert np.array_equal(a.output, b.output), f"SIMD={width}"
                assert np.array_equal(a.tank_voltage, b.tank_voltage)

    def test_kernel_simd_lanes_resolution(self, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE_SIMD", raising=False)
        assert kernel_simd_lanes() == -1  # auto-detect in the kernel
        for raw, expected in (
            ("auto", -1), ("", -1), ("0", 0), ("1", 0), ("2", 2), ("4", 4),
        ):
            monkeypatch.setenv("REPRO_ENGINE_SIMD", raw)
            assert kernel_simd_lanes() == expected
        for bad in ("3", "8", "-1", "wide", "2.0"):
            monkeypatch.setenv("REPRO_ENGINE_SIMD", bad)
            with pytest.raises(ValueError, match="REPRO_ENGINE_SIMD"):
                kernel_simd_lanes()

    def test_kernel_simd_width_reports_sane_value(self, monkeypatch):
        assert kernel_simd_width() in (0, 2, 4)
        monkeypatch.setenv("REPRO_ENGINE_DISABLE_KERNEL", "1")
        assert kernel_simd_width() == 0
        assert kernel_max_threads() == 1


@pytest.mark.skipif(
    not kernel_available(), reason="no C compiler: no pointer tables"
)
class TestPointerTables:
    """The kernel's record tables check each distinct array before its
    address goes to C."""

    def test_malformed_record_refused(self, chip):
        from repro.engine.native import NativeRun
        from repro.engine.plan import build_plan

        plan = build_plan(chip.blocks, _pinned_requests()[0])
        for bad in (
            plan.i_noise[:-1],  # short
            np.stack([plan.i_noise] * 2, axis=1)[:, 0],  # strided
            plan.i_noise.astype(np.float32),  # single precision
        ):
            with pytest.raises(ValueError, match="kernel records"):
                NativeRun(
                    [dataclasses.replace(plan, i_noise=bad)], overlap=True
                )
        # Two time grids in one batch: a record of the second plan has
        # the wrong length for the first plan's grid.
        other_grid = build_plan(
            chip.blocks, dataclasses.replace(_pinned_requests()[0], substeps=2)
        )
        with pytest.raises(ValueError, match="kernel records"):
            NativeRun([plan, other_grid], overlap=True)


def _threaded_child_checksums(requests):
    """Pool target for the fork-safety test (module-level: picklable)."""
    results = SimulationEngine(backend="vectorized").run(Chip(), requests)
    return [float(r.output.sum()) for r in results]


class TestEnvBackendValidation:
    def test_env_backend_accepts_valid_names(self, monkeypatch):
        from repro.engine.engine import _resolve_env_backend

        for name in BACKENDS:
            monkeypatch.setenv("REPRO_ENGINE_BACKEND", name)
            assert _resolve_env_backend() == name
        monkeypatch.delenv("REPRO_ENGINE_BACKEND", raising=False)
        assert _resolve_env_backend() == "auto"

    def test_env_backend_rejects_unknown_with_choices(self, monkeypatch):
        from repro.engine.engine import _resolve_env_backend

        monkeypatch.setenv("REPRO_ENGINE_BACKEND", "vectorised")
        with pytest.raises(ValueError) as err:
            _resolve_env_backend()
        message = str(err.value)
        assert "REPRO_ENGINE_BACKEND" in message
        for name in BACKENDS:
            assert name in message

    def test_set_default_backend_rejects_with_choices(self):
        with pytest.raises(ValueError) as err:
            set_default_backend("gpu")
        message = str(err.value)
        for name in BACKENDS:
            assert name in message


class TestCalibrationStore:
    def test_roundtrip_and_audit(self, tmp_path):
        store = CalibrationStore(tmp_path / "store")
        assert store.get((2020, 0, 0)) is None
        store.put((2020, 0, 0), {"snr": 61.5})
        assert store.get((2020, 0, 0)) == {"snr": 61.5}
        assert len(store) == 1
        assert len(store.compute_events()) == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        store = CalibrationStore(tmp_path)
        store.put((1, 2, 3), "value")
        entry = next(store.path.glob("cal-*.pkl"))
        entry.write_bytes(b"torn write")
        assert store.get((1, 2, 3)) is None

    def test_clear_empties_store(self, tmp_path):
        store = CalibrationStore(tmp_path)
        store.put((1,), "a")
        store.clear()
        assert len(store) == 0
        assert store.compute_events() == []

    def test_put_many_bulk_write_with_tagged_audit(self, tmp_path):
        store = CalibrationStore(tmp_path)
        store.put_many([((1,), "a"), ((2,), "b")], event="fleet")
        assert store.get((1,)) == "a"
        assert store.get((2,)) == "b"
        events = store.compute_events()
        assert len(events) == 2
        assert all(event.endswith(" fleet") for event in events)

    def test_engine_reads_through_store(self, tmp_path, chip):
        store_path = tmp_path / "shared"
        calls = []

        def factory():
            calls.append(1)
            return "calibration"

        for _ in range(2):  # two engines = two simulated processes
            engine = SimulationEngine(
                calibration_store=CalibrationStore(store_path)
            )
            value = engine.calibrated(
                chip, STD, factory=factory, key=(2020, 0, STD.index)
            )
            assert value == "calibration"
        assert len(calls) == 1

    def test_clear_caches_clears_attached_store(self, tmp_path, chip):
        engine = SimulationEngine(calibration_store=CalibrationStore(tmp_path))
        engine.calibrated(chip, STD, factory=lambda: "v", key=(0, 0))
        assert len(engine.calibration_store) == 1
        engine.clear_caches()
        assert len(engine.calibration_store) == 0


class TestMixedChipBatches:
    """run_multi: requests of different dies fuse into one batch."""

    def _chips(self):
        from repro.process import ChipFactory

        fab = ChipFactory(lot_seed=2020)
        return [Chip(variations=fab.draw(die)) for die in range(3)]

    def test_run_multi_matches_per_chip_runs(self, rng):
        chips = self._chips()
        engine = SimulationEngine()
        per_chip = {
            id(chip): [
                ModulatorRequest(
                    config=config, stimulus=_stim(), fs=STD.fs, n_samples=N,
                    seed=seed,
                )
                for seed, config in enumerate(
                    [ConfigWord.random(rng), ConfigWord.random(rng)]
                )
            ]
            for chip in chips
        }
        # Interleave the dies' requests, round-robin.
        items = [
            (chip, per_chip[id(chip)][position])
            for position in range(2)
            for chip in chips
        ]
        fused = engine.run_multi(items)
        assert engine.stats.n_batches == 1  # one time grid -> one batch
        for die, chip in enumerate(chips):
            alone = SimulationEngine().run(chip, per_chip[id(chip)])
            for position in range(2):
                fused_result = fused[position * len(chips) + die]
                np.testing.assert_array_equal(
                    fused_result.output, alone[position].output
                )
                np.testing.assert_array_equal(
                    fused_result.bits, alone[position].bits
                )

    def test_run_multi_mixed_time_grids(self, rng):
        chips = self._chips()[:2]
        engine = SimulationEngine()
        items = [
            (chips[0], ModulatorRequest(
                config=ConfigWord.random(rng), stimulus=_stim(), fs=STD.fs,
                n_samples=N,
            )),
            (chips[1], ModulatorRequest(
                config=ConfigWord.random(rng), stimulus=_stim(), fs=STD.fs,
                n_samples=N // 2,
            )),
            (chips[1], ModulatorRequest(
                config=ConfigWord.random(rng), stimulus=_stim(), fs=STD.fs,
                n_samples=N,
            )),
        ]
        results = engine.run_multi(items)
        assert engine.stats.n_batches == 2  # grouped by (n_samples, substeps)
        assert [r.output.size for r in results] == [N, N // 2, N]
        for (chip, request), fused in zip(items, results):
            alone = SimulationEngine().run_one(chip, request)
            np.testing.assert_array_equal(fused.output, alone.output)

    def test_run_is_single_chip_run_multi(self, chip, rng):
        requests = [
            ModulatorRequest(
                config=ConfigWord.random(rng), stimulus=_stim(), fs=STD.fs,
                n_samples=N,
            )
            for _ in range(3)
        ]
        via_run = SimulationEngine().run(chip, requests)
        via_multi = SimulationEngine().run_multi(
            [(chip, request) for request in requests]
        )
        for a, b in zip(via_run, via_multi):
            np.testing.assert_array_equal(a.output, b.output)


def _race_factory():
    # Slow enough that both racers miss the store together.
    time.sleep(0.4)
    return {"value": "deterministic-calibration"}


def _race_worker(path, chip, barrier, queue):
    engine = SimulationEngine(calibration_store=CalibrationStore(path))
    barrier.wait()
    queue.put(
        engine.calibrated(chip, STD, factory=_race_factory, key=(2020, 7, 0))
    )


class TestCalibrationStoreConcurrency:
    """Two processes calibrating the same triple on demand race cleanly."""

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="needs fork to run the race without import gymnastics",
    )
    def test_same_triple_race_stores_one_value(self, tmp_path, chip):
        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(2)
        queue = ctx.Queue()
        workers = [
            ctx.Process(
                target=_race_worker,
                args=(str(tmp_path), chip, barrier, queue),
            )
            for _ in range(2)
        ]
        for worker in workers:
            worker.start()
        values = [queue.get(timeout=30) for _ in workers]
        for worker in workers:
            worker.join(timeout=30)
            assert not worker.is_alive()
        # Both racers got the identical value...
        assert values[0] == values[1] == {"value": "deterministic-calibration"}
        store = CalibrationStore(tmp_path)
        assert values[0] == store.get((2020, 7, 0))
        assert len(store) == 1
        # ...and nothing elects one computer: a racer that missed
        # computed and put the same entry, so one or two audit lines.
        assert len(store.compute_events()) in (1, 2)
        # No lock file or stray temp file survives the race.
        assert list(store.path.glob("*.lock")) == []
        assert list(store.path.glob("*.tmp")) == []

    def test_truncated_entry_recomputed_not_crashed(self, tmp_path, chip):
        store = CalibrationStore(tmp_path)
        key = (5, 5, 5)
        store.put(key, {"snr": 60.0, "payload": list(range(64))})
        entry = next(store.path.glob("cal-*.pkl"))
        entry.write_bytes(entry.read_bytes()[: entry.stat().st_size // 2])
        calls = []

        def factory():
            calls.append(1)
            return {"snr": 60.0, "payload": list(range(64))}

        engine = SimulationEngine(calibration_store=store)
        value = engine.calibrated(chip, STD, factory=factory, key=key)
        assert value == {"snr": 60.0, "payload": list(range(64))}
        assert calls == [1]  # recomputed, quietly, exactly once
        # The recompute repaired the entry for later readers.
        assert CalibrationStore(tmp_path).get(key) == value

    def test_failing_factory_stores_nothing(self, tmp_path, chip):
        store = CalibrationStore(tmp_path)
        engine = SimulationEngine(calibration_store=store)
        key = (4, 4, 4)
        with pytest.raises(ValueError):
            engine.calibrated(chip, STD, factory=self._boom, key=key)
        assert store.get(key) is None
        assert len(store) == 0
        assert store.compute_events() == []
        assert engine.calibrated(
            chip, STD, factory=lambda: "second-try", key=key
        ) == "second-try"

    @staticmethod
    def _boom():
        raise ValueError("factory failed")

