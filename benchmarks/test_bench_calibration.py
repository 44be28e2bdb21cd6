"""Calibration-latency benchmarks: single dies and lockstep fleets.

Fleet provisioning is one full 14-step calibration per (die, standard).
The lockstep driver (``Calibrator.calibrate_fleet``; ``calibrate`` is
its lot of one) advances every die's procedure together, fusing each
bisection level / back-off probe / descent round of the whole lot into
one mixed-chip engine batch, bit-exactly.  Single-die and 8-die wall
times are tracked here on every machine; the 8-die fleet is guarded as
a >= 3x ratio over the scalar reference wherever the kernel's threaded
key axis has >= 4 cores to absorb the batches.
"""

import time

import pytest

from repro.calibration import Calibrator, FleetCalibrator
from repro.engine import kernel_available, kernel_threaded, usable_cpus
from repro.process import ChipFactory
from repro.receiver import Chip, STANDARDS

pytestmark = pytest.mark.bench

STD = STANDARDS[0]

#: Fleet-benchmark lot size (the acceptance ratio's 8 dies).
N_FLEET = 8


def _hero_chip() -> Chip:
    return Chip(variations=ChipFactory(lot_seed=2020).draw(0))


def _fleet(n_dies: int = N_FLEET) -> list[Chip]:
    fab = ChipFactory(lot_seed=2020)
    return [Chip(variations=fab.draw(die)) for die in range(n_dies)]


def test_bench_calibrate_batched(run_once):
    """Wall time of one full 14-step calibration, batched probing."""
    chip = _hero_chip()
    Calibrator(batch_probing=True).calibrate(chip, STD)  # warm the kernel
    result = run_once(Calibrator(batch_probing=True).calibrate, chip, STD)
    assert result.success


def test_bench_fleet_provisioning(run_once):
    """Wall time of an 8-die lockstep fleet provisioning (any machine)."""
    chips = _fleet()
    calibrator = FleetCalibrator(n_fft=2048, optimizer_passes=1, sfdr_weight=0.0)
    calibrator.calibrate_fleet(chips[:2], STD)  # warm the kernel
    results = run_once(calibrator.calibrate_fleet, chips, STD)
    # Process variation must show through: every die gets its own key.
    assert len({result.config.encode() for result in results}) == N_FLEET


@pytest.mark.skipif(
    not kernel_available() or not kernel_threaded(),
    reason="needs the compiled kernel with a threaded key axis",
)
@pytest.mark.skipif(
    usable_cpus() < 4,
    reason="needs >= 4 usable CPUs for the fused fleet batches to parallelise",
)
def test_fleet_provisioning_speedup(benchmark):
    """The acceptance ratio: >= 3x on 8-die fleet provisioning.

    The baseline is the sequential :class:`Calibrator` mapped over the
    lot die by die (``batch_probing=False`` — the scalar procedure the
    differential harness pins the fleet results against); the measured
    side is one lockstep ``calibrate_fleet`` over the identical lot.
    Results are bit-identical (asserted below, held axis-by-axis in
    ``tests/test_fleet_calibration.py``), so the ratio is pure
    throughput: every bisection level, back-off probe and descent round
    runs as one lot-wide batch on the kernel's threaded key axis
    instead of eight scalar engine calls.
    """
    kw = dict(n_fft=2048, optimizer_passes=1, sfdr_weight=0.0)
    chips = _fleet()
    sequential = Calibrator(batch_probing=False, **kw)
    fleet = FleetCalibrator(**kw)
    fleet_results = fleet.calibrate_fleet(chips, STD)  # warm every cache

    def sequential_seconds() -> float:
        start = time.perf_counter()
        for chip in chips:
            sequential.calibrate(chip, STD)
        return time.perf_counter() - start

    def fleet_seconds() -> float:
        start = time.perf_counter()
        fleet.calibrate_fleet(chips, STD)
        return time.perf_counter() - start

    sequential_results = [sequential.calibrate(chip, STD) for chip in chips]
    assert [r.config for r in fleet_results] == [
        r.config for r in sequential_results
    ]
    t_seq = min(sequential_seconds() for _ in range(2))
    t_fleet = min(fleet_seconds() for _ in range(2))
    speedup = t_seq / t_fleet
    benchmark.extra_info["n_dies"] = N_FLEET
    benchmark.extra_info["sequential_seconds"] = round(t_seq, 3)
    benchmark.extra_info["fleet_seconds"] = round(t_fleet, 3)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    benchmark(lambda: None)  # ratio computed above; keep the harness happy
    assert speedup >= 3.0, (
        f"fleet provisioning {t_fleet:.2f}s vs sequential {t_seq:.2f}s "
        f"({speedup:.1f}x < 3x)"
    )

