"""Measurement oracle: the attacker's only view of a working chip.

The threat model (paper Sec. IV-B) grants the attacker the netlist and
"access to working oracle chips".  Every attack in this package goes
through this oracle, which meters the number of measurements and the
accumulated (simulated) lab or CPU time, so attack cost claims are
backed by actual query counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.attacks.cost import AttackCostModel
from repro.locking.specs import PerformanceSpec
from repro.receiver.config import ConfigWord
from repro.receiver.performance import (
    measure_modulator_snr,
    measure_modulator_snr_batch,
    measure_receiver_snr_batch,
    measure_sfdr_batch,
)
from repro.receiver.receiver import Chip
from repro.receiver.standards import Standard


class QueryBudgetExceeded(RuntimeError):
    """The attack spent its measurement budget without succeeding."""


#: Process-wide tenant meter every oracle charges through (see
#: :func:`install_tenant_meter`).  None outside a tenanted deployment.
_TENANT_METER = None


def install_tenant_meter(meter) -> None:
    """Install (or, with None, remove) the process-wide tenant meter.

    The foundry daemon's fleet workers install their current job's
    :class:`~repro.service.tenants.TenantMeter` before running a task;
    every oracle charge in the process then writes through both the
    oracle's own budget and the tenant's quota — atomically, so a
    refusal by either leaves *both* un-advanced.  Any object with a
    ``charge_batch(n)`` raising :class:`QueryBudgetExceeded` works.
    """
    global _TENANT_METER
    _TENANT_METER = meter


def current_tenant_meter():
    """The installed process-wide tenant meter, or None."""
    return _TENANT_METER


@dataclass
class MeasurementOracle:
    """A working chip on the attacker's bench.

    Args:
        chip: The oracle chip (typically re-fabbed to expose the
            programming bits, per the paper's hardware-attack scenario).
        standard: The operation mode under attack.
        cost_model: Per-measurement time accounting.
        n_fft: Measurement record length (attackers may trade accuracy
            for speed).
        max_queries: Hard query budget; None for unlimited.
        seed: Measurement-noise seed.
    """

    chip: Chip
    standard: Standard
    cost_model: AttackCostModel = field(default_factory=AttackCostModel.hardware)
    n_fft: int = 4096
    max_queries: int | None = None
    seed: int = 0
    n_queries: int = field(default=0, init=False)
    elapsed_seconds: float = field(default=0.0, init=False)

    def charge_batch(self, n: int, seconds_each: float) -> None:
        """Atomically meter ``n`` measurements of ``seconds_each``.

        The whole chunk is checked against the remaining budget before
        any of it is charged: an over-budget submission raises
        :class:`QueryBudgetExceeded` with ``n_queries`` and
        ``elapsed_seconds`` untouched (a mid-chunk raise used to leave
        them partially advanced), at exactly the query count where the
        sequential oracle refuses its first over-budget measurement.

        When a process-wide tenant meter is installed (a multi-tenant
        daemon deployment, :func:`install_tenant_meter`), the chunk is
        additionally checked against the tenant's quota; a refusal by
        either budget leaves both meters un-advanced.
        """
        if n < 0:
            raise ValueError(f"cannot charge a negative batch, got {n}")
        if self.max_queries is not None and self.n_queries + n > self.max_queries:
            raise QueryBudgetExceeded(
                f"budget of {self.max_queries} measurements exhausted "
                f"({self.n_queries} spent, {n} more requested)"
            )
        if _TENANT_METER is not None:
            _TENANT_METER.charge_batch(n)  # raises with both un-advanced
        self.n_queries += n
        self.elapsed_seconds += n * seconds_each

    def remaining_queries(self) -> int | None:
        """Measurements left in the budget (None when unlimited).

        Batch attackers should size their chunks by this: the batched
        probes charge every key of a chunk up front, so submitting a
        chunk larger than the remaining budget raises before any key in
        it is measured.
        """
        if self.max_queries is None:
            return None
        return max(self.max_queries - self.n_queries, 0)

    def snr(self, key: ConfigWord) -> float:
        """Measured modulator-output SNR under ``key``, dB: the one-key
        case of :meth:`snr_batch`."""
        return self.snr_batch([key])[0]

    def snr_batch(self, keys: Sequence[ConfigWord]) -> list[float]:
        """Modulator-output SNR of many keys, in one engine submission.

        Every key is a metered measurement: the whole chunk is charged
        atomically *before* the batch runs, so a budget overrun raises
        without spending simulation time and without partially
        advancing the meters, at the same query count at which a
        sequential search would be refused.  The measurement itself is
        :func:`speculative_snr_batch`.
        """
        self.charge_batch(len(keys), self.cost_model.snr_seconds)
        return speculative_snr_batch(self, keys)

    def sfdr(self, key: ConfigWord) -> float:
        """Measured SFDR under ``key``, dB: the one-key case of
        :meth:`sfdr_batch`."""
        return self.sfdr_batch([key])[0]

    def sfdr_batch(self, keys: Sequence[ConfigWord]) -> list[float]:
        """SFDR of many keys; metering as in :meth:`snr_batch`, the
        measurement is :func:`speculative_sfdr_batch`."""
        self.charge_batch(len(keys), self.cost_model.sfdr_seconds)
        return speculative_sfdr_batch(self, keys)

    def receiver_snr(self, key: ConfigWord, n_baseband: int = 512) -> float:
        """Measured SNR at the receiver output (the functional figure):
        the one-key case of :meth:`receiver_snr_batch`.

        This is the paper's 20-minute measurement: SNR at the output of
        the RF receiver for a given input.
        """
        return self.receiver_snr_batch([key], n_baseband=n_baseband)[0]

    def receiver_snr_batch(
        self, keys: Sequence[ConfigWord], n_baseband: int = 512
    ) -> list[float]:
        """Receiver-output SNR of many keys; metering as in
        :meth:`snr_batch`."""
        self.charge_batch(len(keys), self.cost_model.snr_seconds)
        measurements = measure_receiver_snr_batch(
            self.chip, keys, self.standard, n_baseband=n_baseband, seed=self.seed
        )
        return [m.snr_db for m in measurements]

    def spec(self) -> PerformanceSpec:
        """The public performance specification (datasheet knowledge)."""
        return PerformanceSpec.for_standard(self.standard)

    def unlocks(self, key: ConfigWord) -> bool:
        """Full adjudication of ``key`` against the specification.

        "Locking succeeds when at least one performance violates its
        specification" (Sec. VI-A) — so an unlock claim must survive
        both the full-resolution modulator measurement *and* the
        receiver-output measurement.  The two-stage check is what
        unmasks 'deceptive' keys: an analog-passthrough key can fake a
        high modulator-output SNR (especially on short records) but
        collapses after the digital section, exactly as in Figs. 7-9.
        """
        self.charge_batch(1, self.cost_model.snr_seconds)
        snr_mod = measure_modulator_snr(
            self.chip, key, self.standard, n_fft=8192, seed=self.seed
        ).snr_db
        spec = self.spec()
        if snr_mod < spec.snr_min_db:
            return False
        snr_rx = self.receiver_snr(key)
        return spec.meets(snr_db=snr_mod, snr_rx_db=snr_rx)


# ---------------------------------------------------------------------------
# Speculative measurement (partitioned sub-tasks) and scripted replay
# ---------------------------------------------------------------------------


def speculative_snr_batch(oracle, keys: Sequence[ConfigWord]) -> list[float]:
    """The measurement step of :meth:`MeasurementOracle.snr_batch` —
    its values *without* charging either the oracle budget or an
    installed tenant meter.  Sub-tasks score their slices with this;
    every charge commits later, in replay order, when the parent's
    assembly replays the scalar attack against the script (see
    :class:`ScriptedOracle`)."""
    measurements = measure_modulator_snr_batch(
        oracle.chip, keys, oracle.standard, n_fft=oracle.n_fft,
        seed=oracle.seed,
    )
    return [m.snr_db for m in measurements]


def speculative_sfdr_batch(oracle, keys: Sequence[ConfigWord]) -> list[float]:
    """The unmetered measurement step of
    :meth:`MeasurementOracle.sfdr_batch`; see
    :func:`speculative_snr_batch`."""
    measurements = measure_sfdr_batch(
        oracle.chip, keys, oracle.standard, n_fft=oracle.n_fft,
        seed=oracle.seed,
    )
    return [m.sfdr_db for m in measurements]


class ScriptedOracle:
    """A metering oracle whose batched measurements are served from
    pre-computed scripts — the replay half of speculative sub-tasks.

    Charges are *identical* to the wrapped oracle's: every ``snr_batch``
    / ``sfdr_batch`` call charges the oracle budget and any installed
    tenant meter atomically before serving, so ``n_queries``, meter
    totals and the :class:`QueryBudgetExceeded` refusal point land
    exactly where the unscripted attack's would.  Only the measurement
    *computation* is skipped — the values were produced by sub-tasks
    running the same ``measure_*_batch`` calls on identical inputs.

    The scripts are flat value streams consumed by a cursor: the replay
    makes the same calls in the same order the speculation anticipated,
    so positional serving is exact.  If a script runs dry (speculation
    stopped short — e.g. a deceptive key pushed the search past the
    speculated horizon), the remainder is measured live through the
    same engine calls, preserving bit-exactness.  Everything else
    (``unlocks``, ``receiver_snr``, ``spec``, budget state) delegates
    to the wrapped oracle.
    """

    def __init__(self, oracle: MeasurementOracle, snrs=(), sfdrs=()):
        self._oracle = oracle
        self._snrs = list(snrs)
        self._sfdrs = list(sfdrs)
        self._snr_pos = 0
        self._sfdr_pos = 0

    def snr_batch(self, keys: Sequence[ConfigWord]) -> list[float]:
        self._oracle.charge_batch(len(keys), self._oracle.cost_model.snr_seconds)
        return self._serve(
            keys, self._snrs, "_snr_pos",
            lambda rest: speculative_snr_batch(self._oracle, rest),
        )

    def sfdr_batch(self, keys: Sequence[ConfigWord]) -> list[float]:
        self._oracle.charge_batch(len(keys), self._oracle.cost_model.sfdr_seconds)
        return self._serve(
            keys, self._sfdrs, "_sfdr_pos",
            lambda rest: speculative_sfdr_batch(self._oracle, rest),
        )

    def _serve(self, keys, script, pos_attr, measure):
        pos = getattr(self, pos_attr)
        served = list(script[pos:pos + len(keys)])
        setattr(self, pos_attr, pos + len(served))
        if len(served) < len(keys):
            served.extend(measure(keys[len(served):]))
        return served

    def __getattr__(self, name):
        return getattr(self._oracle, name)
