"""Vectorized backend: one call integrates a whole batch of keys.

The modulator's time recursion is inherently sequential, but different
configuration words are independent — so the backend carries the tank
state ``(v, i_L)``, the comparator decision history and every per-key
constant as arrays over the *key axis* and advances all keys together.
The heavy lifting happens in a small compiled kernel
(:mod:`repro.engine.native`): per-key inputs are handed over as key-axis
pointer arrays and the recursion runs at native speed, which is where
the multi-key throughput comes from (an order of magnitude over the
interpreted per-key loop, on top of batching away Python call overhead).

A NumPy-ufunc formulation of the same key-axis recursion was measured
first and rejected: with ~0.5 µs of dispatch overhead per elementwise
op and ~14 ops per substep, it loses to the scalar loop below ~30 keys
— the regime every quick-mode sweep lives in.  Inside the kernel the
key axis is exploited twice more: pthread workers split keys across
cores, and within each worker 2/4-wide SIMD lanes advance uniform-mode
key packs together (``REPRO_ENGINE_SIMD``; per-lane reference operand
order and per-lane libm ``tanh``, so lane width never changes a bit —
see :mod:`repro.engine.native`).

Bit-exactness with the reference backend is by construction (shared
:class:`~repro.engine.plan.KeyPlan` inputs, identical operand order,
the same libm ``tanh``, FP contraction disabled — see
:mod:`repro.engine.native`), and is enforced by the equivalence suite
in ``tests/test_engine.py``.  On machines without a C compiler the
backend transparently falls back to running the reference loop per key,
which keeps results identical everywhere — only throughput differs.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.engine import native
from repro.engine.plan import KeyPlan
from repro.engine.reference import simulate_plan
from repro.receiver.sdm import ModulatorResult


def start_plans(
    plans: Sequence[KeyPlan], overlap: bool
) -> Callable[[], list[ModulatorResult]]:
    """Start integrating a batch of key plans simultaneously.

    All plans must share ``n_samples`` and ``substeps`` (the engine
    groups requests by that time grid); everything else — configuration,
    stimulus, clock, seed, initial state — may vary per key.  Returns a
    callable that finishes the batch and returns its results: the
    kernel's helpers integrate while the caller goes on until then
    (:class:`~repro.engine.native.NativeRun`, which ``overlap`` sizes:
    whether the caller does other work before finishing).
    """
    plans = list(plans)
    n_samples = plans[0].n_samples
    substeps = plans[0].substeps
    for plan in plans:
        if plan.n_samples != n_samples or plan.substeps != substeps:
            raise ValueError(
                "batch mixes time grids: "
                f"({plan.n_samples}, {plan.substeps}) vs "
                f"({n_samples}, {substeps})"
            )
    if native.kernel_available():
        return native.NativeRun(plans, overlap).finish
    # No compiler on this machine: identical results, scalar speed,
    # integrated here; finishing only hands them over.
    return [simulate_plan(plan) for plan in plans].copy
