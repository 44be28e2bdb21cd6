"""Oracle-throughput benchmarks for the batched simulation engine.

Measures keys/second through ``SimulationEngine.run`` for both backends
at quick-mode sizes (the fig7 sweep: 16 keys, 2048-sample records), so
the batching speedup is tracked in the BENCH trajectory, plus the
speedup ratios themselves as guarded regression tests: vectorized vs
reference at 16 keys, and — wherever enough cores exist — the kernel's
threaded key axis vs its sequential walk at a 64-key batch, and its
SIMD lane axis vs the scalar walk (single-thread, uniform-mode 64-key
batch).  Guards a host cannot run are exported as explicit
``skipped`` records (see conftest).
"""

import time

import numpy as np
import pytest

from repro.engine import (
    ModulatorRequest,
    SimulationEngine,
    kernel_available,
    kernel_simd_width,
    kernel_threaded,
    usable_cpus,
)
from repro.receiver import Chip, ConfigWord, STANDARDS, ToneStimulus, stimulus_frequency

pytestmark = pytest.mark.bench

STD = STANDARDS[0]
BATCH = 16
N_FFT = 2048


def _requests(batch: int = BATCH):
    stim = ToneStimulus.single(stimulus_frequency(STD, 64, N_FFT), -25.0)
    rng = np.random.default_rng(0)
    return [
        ModulatorRequest(
            config=ConfigWord.random(rng), stimulus=stim, fs=STD.fs,
            n_samples=N_FFT, seed=7,
        )
        for _ in range(batch)
    ]


def _uniform_requests(batch: int):
    """One loop topology across the batch, per-key data varying — the
    shape the SIMD lane packer fills completely (random configs mix
    modes and fragment packs, which is the scalar path's job)."""
    stim = ToneStimulus.single(stimulus_frequency(STD, 64, N_FFT), -25.0)
    base = ConfigWord(
        lna_gain=7, cc_coarse=10, cf_fine=128, gmq_code=20, gmin_code=24,
        preamp_code=20, comp_code=31, dac_code=32, delay_code=12,
        buffer_code=4,
    )
    return [
        ModulatorRequest(
            config=base.replace(dac_code=16 + k % 32, gmq_code=10 + k % 20),
            stimulus=stim, fs=STD.fs, n_samples=N_FFT, seed=k,
        )
        for k in range(batch)
    ]


def _throughput(backend: str, chip: Chip, requests) -> float:
    engine = SimulationEngine(backend=backend)
    engine.run(chip, requests)  # warm caches and (for native) the kernel
    start = time.perf_counter()
    engine.run(chip, requests)
    return len(requests) / (time.perf_counter() - start)


def test_bench_oracle_reference_16keys(benchmark):
    chip = Chip()
    requests = _requests()
    engine = SimulationEngine(backend="reference")
    engine.run(chip, requests)
    benchmark.extra_info["backend"] = "reference"
    result = benchmark(engine.run, chip, requests)
    assert len(result) == BATCH


def test_bench_oracle_vectorized_16keys(benchmark):
    chip = Chip()
    requests = _requests()
    engine = SimulationEngine(backend="vectorized")
    engine.run(chip, requests)
    benchmark.extra_info["backend"] = "vectorized"
    result = benchmark(engine.run, chip, requests)
    assert len(result) == BATCH


@pytest.mark.skipif(
    not kernel_available(),
    reason="no C compiler: vectorized backend falls back to the reference loop",
)
def test_vectorized_speedup_at_quick_mode_batch(benchmark):
    """The acceptance ratio: >= 3x over per-key simulation at 16 keys.

    Both backends integrate the identical batch (and produce identical
    results — see tests/test_engine.py); the best of three rounds guards
    against scheduler noise on loaded machines.
    """
    chip = Chip()
    requests = _requests()
    ref = max(_throughput("reference", chip, requests) for _ in range(3))
    vec = max(_throughput("vectorized", chip, requests) for _ in range(3))
    speedup = vec / ref
    benchmark.extra_info["backend"] = "vectorized"
    benchmark.extra_info["reference_keys_per_s"] = round(ref, 1)
    benchmark.extra_info["vectorized_keys_per_s"] = round(vec, 1)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    benchmark(lambda: None)  # ratio computed above; keep the harness happy
    assert speedup >= 3.0, (
        f"vectorized {vec:.0f} keys/s vs reference {ref:.0f} keys/s "
        f"({speedup:.1f}x < 3x)"
    )


@pytest.mark.skipif(
    not kernel_available() or not kernel_threaded(),
    reason="needs the compiled kernel with a threaded key axis",
)
@pytest.mark.skipif(
    usable_cpus() < 4,
    reason="needs >= 4 usable CPUs to demonstrate the key-axis speedup",
)
def test_parallel_kernel_speedup_at_64_keys(benchmark, monkeypatch):
    """The acceptance ratio: >= 2x oracle throughput at a 64-key batch.

    The identical batch is integrated with the key axis pinned to one
    thread and then to one thread per core (REPRO_ENGINE_THREADS is
    read per kernel call, so the pin takes effect immediately).  Thread
    count cannot change results — 1-vs-N bit-identity is guarded in
    tests/test_engine.py — so the ratio is pure throughput.
    """
    chip = Chip()
    requests = _requests(batch=64)

    def throughput(threads: int) -> float:
        monkeypatch.setenv("REPRO_ENGINE_THREADS", str(threads))
        return max(_throughput("vectorized", chip, requests) for _ in range(3))

    sequential = throughput(1)
    threaded = throughput(usable_cpus())
    speedup = threaded / sequential
    benchmark.extra_info["backend"] = "vectorized"
    benchmark.extra_info["threads"] = usable_cpus()
    benchmark.extra_info["sequential_keys_per_s"] = round(sequential, 1)
    benchmark.extra_info["threaded_keys_per_s"] = round(threaded, 1)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    benchmark(lambda: None)  # ratio computed above; keep the harness happy
    assert speedup >= 2.0, (
        f"threaded kernel {threaded:.0f} keys/s vs sequential "
        f"{sequential:.0f} keys/s ({speedup:.1f}x < 2x)"
    )


@pytest.mark.skipif(
    not kernel_available(),
    reason="no C compiler: vectorized backend falls back to the reference loop",
)
@pytest.mark.skipif(
    kernel_available() and kernel_simd_width() < 4,
    reason="host/toolchain supports fewer than 4 SIMD lanes",
)
@pytest.mark.skipif(
    usable_cpus() < 4,
    reason="needs >= 4 usable CPUs for stable single-thread timing",
)
def test_simd_kernel_speedup_at_64_keys(benchmark, monkeypatch):
    """The acceptance ratio: SIMD >= 1.5x the scalar kernel walk.

    A uniform-mode 64-key batch, key axis pinned to ONE thread so the
    ratio isolates the lane axis; REPRO_ENGINE_SIMD=0 forces the scalar
    walk, auto detects the host's lanes.  Lane width cannot change
    results — 0/2/4-lane bit-identity is guarded in
    tests/test_engine.py — so the ratio is pure throughput.  The bound
    sits below the measured ~1.55x: per-lane tanh stays the scalar libm
    call by the exactness contract, which caps the win at the Amdahl
    limit of the non-transcendental work.
    """
    chip = Chip()
    requests = _uniform_requests(64)
    monkeypatch.setenv("REPRO_ENGINE_THREADS", "1")

    def throughput(simd: str) -> float:
        monkeypatch.setenv("REPRO_ENGINE_SIMD", simd)
        return max(_throughput("vectorized", chip, requests) for _ in range(3))

    scalar = throughput("0")
    simd = throughput("auto")
    speedup = simd / scalar
    benchmark.extra_info["backend"] = "vectorized"
    benchmark.extra_info["simd_width"] = kernel_simd_width()
    benchmark.extra_info["scalar_keys_per_s"] = round(scalar, 1)
    benchmark.extra_info["simd_keys_per_s"] = round(simd, 1)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    benchmark(lambda: None)  # ratio computed above; keep the harness happy
    assert speedup >= 1.5, (
        f"SIMD kernel {simd:.0f} keys/s vs scalar {scalar:.0f} keys/s "
        f"({speedup:.1f}x < 1.5x)"
    )
