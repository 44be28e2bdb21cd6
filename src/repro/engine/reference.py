"""Reference backend: the original per-sample scalar integrator.

This is the ground truth the compiled kernel is held bit-exact to, and
what every backend runs where the kernel is unavailable.  The loop is a
faithful transcription of the original single-key modulator recursion —
same ``math.tanh`` transcendental, same operand order, same results to
the last bit — it merely reads its inputs from a precomputed
:class:`~repro.engine.plan.KeyPlan` instead of rebuilding them inline,
so both backends integrate from identical inputs (see the
:mod:`repro.engine.plan` docstring for the exactness contract).
"""

from __future__ import annotations

import math

import numpy as np

from repro.engine.plan import KeyPlan
from repro.receiver.sdm import ModulatorResult


def simulate_plan(plan: KeyPlan) -> ModulatorResult:
    """Integrate one prepared key plan with the scalar recursion."""
    tanh = math.tanh
    n_samples = plan.n_samples
    substeps = plan.substeps
    a11, a12, a21, a22 = plan.a11, plan.a12, plan.a21, plan.a22
    b1, b2 = plan.b1, plan.b2
    clocked = plan.clocked
    feedback_on = plan.feedback_on
    delay_whole = plan.delay_whole
    switch_substep = plan.switch_substep
    i_dac_unit = plan.i_dac_unit
    chop_offset = plan.chop_offset
    decision_sigma = plan.decision_sigma
    hysteresis = plan.hysteresis
    gv, vsat = plan.gv, plan.vsat
    preamp_gain, v_clip = plan.preamp_gain, plan.v_clip
    buf_gain = plan.buf_gain
    buffer_gain, buffer_clamp = plan.buffer_gain, plan.buffer_clamp
    buffer_noise = plan.buffer_noise
    comp_noise = plan.comp_noise
    comp_noise_out = plan.comp_noise_out
    dither = plan.dither

    chop_sign = 1.0
    v, il = plan.v0, plan.il0
    # Decision history d[n], d[n-1], d[n-2]: the programmable delay can
    # reach back almost two clock periods.
    d0 = d1 = d2 = -1.0
    output = np.empty(n_samples)
    bits = np.empty(n_samples)
    tank_v = np.empty(n_samples)
    # The tank input current, formed as in the kernel (see the
    # repro.engine.plan docstring for the exactness argument).
    i_in_list = (plan.gm_vlin * plan.gmin_shape + plan.i_noise).tolist()

    for n in range(n_samples):
        tank_v[n] = v
        v_pre = v_clip * tanh(preamp_gain * v / v_clip)
        if clocked:
            v_eff = (
                v_pre
                + chop_sign * chop_offset
                + comp_noise[n] * decision_sigma
                + dither[n]
                + hysteresis * d0
            )
            d2 = d1
            d1 = d0
            d0 = 1.0 if v_eff >= 0.0 else -1.0
            bits[n] = d0
            output[n] = d0 * buf_gain
        else:
            d2 = d1
            d1 = d0
            bits[n] = 0.0
            # Un-clocked comparator as an open-loop buffer stage.
            v_eff = v_pre + chop_offset + comp_noise[n] * decision_sigma
            y_buf = (
                buffer_clamp * tanh(buffer_gain * v_eff / buffer_clamp)
                + comp_noise_out[n] * buffer_noise
            )
            output[n] = y_buf * buf_gain
        if plan.chop_en:
            chop_sign = -chop_sign

        if delay_whole == 0:
            d_early, d_late = d1, d0
        else:
            d_early, d_late = d2, d1

        base = n * substeps
        for j in range(substeps):
            if clocked:
                drive_bit = d_early if j < switch_substep else d_late
                i_fb = i_dac_unit * drive_bit
            elif feedback_on:
                # Buffer mode with the loop closed: the DAC sees the
                # clipped open-loop comparator output and switches
                # partially.
                v_pre_now = v_clip * tanh(preamp_gain * v / v_clip)
                y_now = buffer_clamp * tanh(
                    buffer_gain
                    * (v_pre_now + chop_offset + 0.0 * decision_sigma)
                    / buffer_clamp
                ) + 0.0 * buffer_noise
                i_fb = i_dac_unit * tanh(y_now / 0.3) / 0.995055
            else:
                i_fb = 0.0
            i_gmq = gv * tanh(v / vsat)
            # The feedback current is injected with positive polarity:
            # around fs/4 the resonator's sampled pulse response supplies
            # the loop inversion (see module docstring of blocks.dac /
            # the z^-2 K/(1+z^-2) analysis), so +i_fb is the stable,
            # noise-shaping polarity.
            u = i_in_list[base + j] + i_gmq + i_fb
            v, il = a11 * v + a12 * il + b1 * u, a21 * v + a22 * il + b2 * u

    return ModulatorResult(
        output=output,
        bits=bits,
        tank_voltage=tank_v,
        fs=plan.fs,
        is_bitstream=clocked,
    )
