"""Shared per-key simulation setup for both engine backends.

Bit-exactness between the reference and vectorized backends rests on
the invariants enforced here and in :mod:`repro.engine.native`:

1. Every input the time recursion consumes — the input-current
   factors, the noise/dither draws, the discretised tank matrices, all
   derived block constants — is computed once, in the exact RNG draw
   order of the original scalar simulator, and stored in a
   :class:`KeyPlan` that every backend reads.  Backends only integrate;
   they never draw randomness or evaluate chip models.
2. The recursion itself is IEEE-754 double add/mul/div (deterministic
   given operand order, which all backends keep identical) plus a
   single transcendental, ``tanh`` — and CPython's ``math.tanh`` and
   the compiled kernel's ``tanh`` are the same libm symbol.  (NumPy's
   SIMD ``np.tanh`` is *not* that function — it differs by an ULP on
   some inputs, enough to eventually flip a comparator decision in a
   feedback loop, which is why the vectorized backend is a compiled
   kernel rather than a ufunc pipeline.)

The tank input current
----------------------

The input current is the Gmin output plus the tank current noise,
``i_in = gm_vlin * shape + i_noise``, where ``shape = tanh(v_lna /
vlin)`` is the Gmin's soft-limiting shape of the VGLNA output and
``gm_vlin = gm(code, bias_scale) * vlin`` its per-key current scale
(:class:`~repro.blocks.transconductor.InputTransconductor`).  Only the
scalar depends on the key; ``shape`` and ``i_noise`` depend on the
drawn records alone, so a plan carries *references* to those shared
records plus ``gm_vlin`` and each backend forms ``i_in`` itself: the
reference loop with NumPy's ``gm_vlin * shape + i_noise``, the kernel
with the same two operations per sample (``-ffp-contract=off`` keeps
them two roundings, never an FMA).  That is bit for bit the block's
``output_current(v_lna) + i_noise``: ``output_current`` evaluates
``(gm * vlin) * tanh(v / vlin)`` — the product of the same scalar and
the same array, each element one IEEE multiply — and the sum is the
same elementwise IEEE add.  With the Gmin off, ``output_current`` is a
zeros array; the plan carries ``gm_vlin = 0.0`` and a shared zeros
record, so each element is ``0.0 * 0.0 = +0.0`` and then ``+0.0 +
i_noise`` — again the same add of the same operands.  (A real shape
would not do: ``0.0 * shape`` is ``-0.0`` wherever the shape is
negative, and ``-0.0 + -0.0`` keeps a sign that ``+0.0 + -0.0``
drops.)  ``tests/test_engine.py`` pins the outputs' bytes on both
backends.

The measurement-noise records
-----------------------------

A plan's five noise streams — the VGLNA input noise, the tank current
noise, the two comparator streams and the dither — come from one
generator seeded with the request's seed, drawn in that order:
``normal(0.0, s, N)`` twice (``N = n_samples * substeps``, ``s`` each
stream's die- and gain-dependent sigma), ``normal(0.0, 1.0,
n_samples)`` twice, then ``uniform(-1.0, 1.0, n_samples)`` when the
dither is on.  NumPy's ``Generator`` computes ``normal(loc, scale)``
as ``loc + scale * standard_normal`` and ``uniform(low, high)`` as
``low + (high - low) * next_double``, and each consumes the stream
exactly as ``standard_normal`` and ``random`` do, one draw per
element.  So the standard draws depend on ``(seed, n_samples,
substeps)`` alone: :func:`_standard_draws` draws them once per process
in that order (the uniforms last, so whether the dither is on cannot
move an earlier stream) and keeps a few in a small LRU of read-only
arrays, and each record is formed with NumPy's own arithmetic — ``0.0
+ sigma * z`` for ``normal(0.0, sigma)`` and ``-1.0 + 2.0 * u`` for
``uniform(-1.0, 1.0)``, the same IEEE multiply and add per element.
The ``0.0 +`` is not decoration: with ``sigma = 0.0`` the product is
``-0.0`` wherever ``z`` is negative, and the add turns it into the
``+0.0`` that ``normal`` returns.  The die, the stimulus, ``lna_gain``
and ``dither_en`` enter only as scale factors, so the comparator
records (``sigma = 1.0`` for every die) are formed once beside the
draws and shared by every plan of that triple, and a dither-off plan
references the shared zeros record of :func:`_zeros`.  The draws are a
pure function of their key, so hitting the LRU cannot change a
result; ``tests/test_engine.py`` checks the formed records byte for
byte against the generator's own calls, for whatever NumPy is
installed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import MutableMapping

import numpy as np
from scipy.linalg import expm

from repro.engine.request import ModulatorRequest
from repro.receiver.sdm import ModulatorBlocks


@lru_cache(maxsize=8)
def _zeros(n: int) -> np.ndarray:
    """The Gmin-off plans' shape record and the dither-off plans'
    dither record: ``n`` zeros, read-only and shared process-wide.  It
    lives outside every session noise cache, whose entries are all per
    die."""
    zeros = np.zeros(n)
    zeros.flags.writeable = False
    return zeros


@lru_cache(maxsize=4)
def _standard_draws(
    seed: int, n_samples: int, substeps: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One seed's standard noise draws, read-only and shared
    process-wide: the VGLNA-input and tank-current standard normals
    (``n_samples * substeps`` each), the two comparator records
    (``0.0 + 1.0 * z``, already formed: they are the same for every
    die) and the dither's ``-1.0 + 2.0 * u`` (``n_samples`` each),
    drawn in the plan's stream order.  The module docstring says why
    forming each record from these is bit for bit the generator's
    ``normal``/``uniform``.  Four entries keep a registry run's repeat
    draws; ``SimulationEngine.clear_caches`` empties it."""
    rng = np.random.default_rng(seed)
    n_sub = n_samples * substeps
    draws = (
        rng.standard_normal(n_sub),
        rng.standard_normal(n_sub),
        0.0 + 1.0 * rng.standard_normal(n_samples),
        0.0 + 1.0 * rng.standard_normal(n_samples),
        -1.0 + 2.0 * rng.random(n_samples),
    )
    for record in draws:
        record.flags.writeable = False
    return draws


def discretise_tank(
    blocks: ModulatorBlocks, cc: int, cf: int, h: float
) -> tuple[np.ndarray, np.ndarray]:
    """Exact ZOH discretisation of the linear tank over step ``h``."""
    a, b = blocks.tank.state_matrices(cc, cf)
    ad = expm(a * h)
    bd = np.linalg.solve(a, (ad - np.eye(2)) @ b)
    return ad, bd


@dataclass
class KeyPlan:
    """Everything one key's transient simulation needs, precomputed.

    Attributes are grouped as: time grid, per-substep/per-sample input
    records (the tank input current's factors, noise, dither), the
    discretised tank update, the loop-topology mode flags, and the
    per-key block constants.  The records are shared between the plans
    of one noise-cache entry (the comparator records and the zeros
    records between every plan of a seed and time grid) and are
    read-only.  A plan is
    backend-agnostic; backends must not draw randomness or evaluate
    chip models — only integrate.
    """

    # -- time grid --------------------------------------------------------
    fs: float
    n_samples: int
    substeps: int
    # -- input records ----------------------------------------------------
    gm_vlin: float  # Gmin current scale gm * vlin (0.0 with the Gmin off)
    gmin_shape: np.ndarray  # (n_samples * substeps,) tanh(v_lna / vlin), or zeros
    i_noise: np.ndarray  # (n_samples * substeps,) tank current noise
    comp_noise: np.ndarray  # (n_samples,) unit-normal decision noise
    comp_noise_out: np.ndarray  # (n_samples,) unit-normal buffer output noise
    dither: np.ndarray  # (n_samples,) dither voltage (zeros when disabled)
    # -- discretised tank -------------------------------------------------
    a11: float
    a12: float
    a21: float
    a22: float
    b1: float
    b2: float
    # -- mode flags -------------------------------------------------------
    clocked: bool
    feedback_on: bool
    chop_en: bool
    # -- loop constants ---------------------------------------------------
    delay_whole: int
    switch_substep: float
    i_dac_unit: float
    chop_offset: float
    decision_sigma: float
    hysteresis: float
    gv: float  # gmq_gm * vsat, the -Gm current scale
    vsat: float
    preamp_gain: float
    v_clip: float
    buf_gain: float
    buffer_gain: float  # un-clocked comparator stage gain
    buffer_clamp: float  # un-clocked comparator output clamp
    buffer_noise: float  # un-clocked comparator output noise, V rms
    v0: float
    il0: float


def build_plan(
    blocks: ModulatorBlocks,
    request: ModulatorRequest,
    disc_cache: MutableMapping | None = None,
    stim_cache: MutableMapping | None = None,
    noise_cache: MutableMapping | None = None,
) -> KeyPlan:
    """Prepare one key's simulation inputs (exact legacy RNG order).

    Args:
        blocks: The chip's analog block set.
        request: The simulation request.
        disc_cache: Optional ``(cc, cf, h) -> (ad, bd)`` memo for the
            matrix-exponential discretisation, shared across a batch or
            owned by a chip.  The discretisation is deterministic, so
            caching cannot change results.
        stim_cache: Optional memo for the sampled RF stimulus waveform,
            keyed by ``(stimulus, fs, n_samples, substeps)``.  Sweeps
            measure many keys under one stimulus, so the engine shares
            the tone evaluation across a batch; sampling is
            deterministic, so caching cannot change results.
        noise_cache: Optional memo for the record tuple
            ``(gmin_shape, i_noise, comp_noise, comp_noise_out,
            dither)`` — the per-die records, with the VGLNA output kept
            only as the Gmin shape ``tanh(v_lna / vlin)``, its one
            consumer — keyed by everything those records depend on:
            the chip's block set, the stimulus/time grid, the
            measurement seed and the two configuration fields that
            enter the input path (``lna_gain`` scales the VGLNA noise;
            ``dither_en`` picks the dither record).  Sweeps measure
            many keys under one seed and one stimulus — a calibration
            probe set, a key sweep, a fleet round — and for all of
            them these records are *the same values*: the cached entry
            is computed by this very code path on its first request,
            so a hit reuses bitwise-identical arrays (backends treat
            plan records as read-only).  Sharing cannot change
            results, it only removes redundant VGLNA evaluations, Gmin
            shapes and noise scalings.  A miss draws nothing when the
            process already holds the seed's standard draws
            (:func:`_standard_draws`, keyed by ``(seed, n_samples,
            substeps)`` alone); the comparator records and the
            dither-off zeros in an entry are those process-wide
            records themselves, shared by every die.  Plans reference
            the cached records; the module docstring says why the
            records are bit for bit the generator's and why the
            backends then form each key's ``i_in`` bit for bit.
    """
    config = request.config
    n_samples = request.n_samples
    substeps = request.substeps
    if n_samples <= 0:
        raise ValueError(f"n_samples must be positive, got {n_samples}")
    if substeps < 2:
        raise ValueError(f"need at least 2 substeps, got {substeps}")
    fs = request.fs
    h = 1.0 / (fs * substeps)

    key = (config.cc_coarse, config.cf_fine, h)
    if disc_cache is not None and key in disc_cache:
        ad, bd = disc_cache[key]
    else:
        ad, bd = discretise_tank(blocks, config.cc_coarse, config.cf_fine, h)
        if disc_cache is not None:
            disc_cache[key] = (ad, bd)

    bias_scale = 1.0 + (config.bias_global - 4) * blocks.bias_global_step

    noise_key = (
        id(blocks),
        request.stimulus,
        fs,
        n_samples,
        substeps,
        request.seed,
        config.lna_gain,
        config.dither_en,
    )
    # The cached value carries the blocks object alongside the records:
    # the key leads with id(blocks), and holding the reference pins the
    # object so a session-held cache can never serve a stale entry to a
    # new die that recycled a garbage-collected blocks' id.
    cached = noise_cache.get(noise_key) if noise_cache is not None else None
    if cached is not None and cached[0] is blocks:
        _, gmin_shape, i_noise, comp_noise, comp_noise_out, dither = cached
    else:
        z_lna, z_tank, comp_noise, comp_noise_out, uniform = _standard_draws(
            request.seed, n_samples, substeps
        )
        # Input path, fully vectorised: RF tones -> VGLNA.
        stim_key = (request.stimulus, fs, n_samples, substeps)
        if stim_cache is not None and stim_key in stim_cache:
            v_rf = stim_cache[stim_key]
        else:
            t = np.arange(n_samples * substeps) * h
            v_rf = request.stimulus.sample(t)
            if stim_cache is not None:
                stim_cache[stim_key] = v_rf
        v_lna = blocks.vglna.process(
            v_rf, config.lna_gain, bandwidth=0.5 / h, noise=z_lna
        )
        gmin_shape = blocks.gmin.limiting_shape(v_lna)
        # Tank current noise, piecewise constant per substep.
        sigma_i = blocks.tank_current_noise * math.sqrt(0.5 / h)
        i_noise = 0.0 + sigma_i * z_tank
        dither = (
            blocks.dither_amplitude * uniform
            if config.dither_en
            else _zeros(n_samples)
        )
        if noise_cache is not None:
            noise_cache[noise_key] = (
                blocks,
                gmin_shape,
                i_noise,
                comp_noise,
                comp_noise_out,
                dither,
            )
    if config.gmin_en:
        gm_vlin = blocks.gmin.gm_vlin(config.gmin_code, bias_scale)
    else:
        gm_vlin, gmin_shape = 0.0, _zeros(i_noise.size)

    feedback_on = bool(config.fb_en) and bool(config.dac_en)
    clocked = bool(config.comp_clk_en)
    tau = blocks.delay.delay_periods(config.delay_code)
    delay_whole = int(tau)
    switch_substep = (tau - delay_whole) * substeps
    # In normal mode the DAC drive is +/-1: precompute the switched current.
    i_dac_unit = blocks.dac.output_current(
        1.0, config.dac_code, enabled=feedback_on, bias_scale=bias_scale
    )

    gmq_gm = blocks.tank.gmq(config.gmq_code)
    vsat = blocks.tank.design.gmq_vsat
    comparator = blocks.comparator
    return KeyPlan(
        fs=fs,
        n_samples=n_samples,
        substeps=substeps,
        gm_vlin=gm_vlin,
        gmin_shape=gmin_shape,
        i_noise=i_noise,
        comp_noise=comp_noise,
        comp_noise_out=comp_noise_out,
        dither=dither,
        a11=float(ad[0, 0]),
        a12=float(ad[0, 1]),
        a21=float(ad[1, 0]),
        a22=float(ad[1, 1]),
        b1=float(bd[0, 0]),
        b2=float(bd[1, 0]),
        clocked=clocked,
        feedback_on=feedback_on,
        chop_en=bool(config.chop_en),
        delay_whole=delay_whole,
        switch_substep=switch_substep,
        i_dac_unit=i_dac_unit,
        chop_offset=comparator.offset(config.comp_code),
        decision_sigma=comparator.decision_noise(config.comp_code),
        hysteresis=comparator.design.comp_hysteresis,
        gv=gmq_gm * vsat,
        vsat=vsat,
        preamp_gain=blocks.preamp.gain(config.preamp_code, bias_scale),
        v_clip=blocks.preamp.design.preamp_v_clip,
        buf_gain=blocks.buffer.gain(config.buffer_code),
        buffer_gain=comparator.BUFFER_GAIN,
        buffer_clamp=comparator.BUFFER_CLAMP,
        buffer_noise=comparator.BUFFER_OUTPUT_NOISE,
        v0=request.initial_state[0],
        il0=request.initial_state[1],
    )
