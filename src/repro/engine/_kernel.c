/* Batched modulator integrator — compiled fast path of the vectorized
 * backend (see repro/engine/native.py, which builds and loads this).
 *
 * Bit-exactness contract with the Python reference loop
 * (repro/engine/reference.py):
 *
 *   - every expression below is a line-for-line transcription of the
 *     reference recursion with the SAME operand order, so each IEEE-754
 *     add/mul/div rounds identically;
 *   - tanh() here and CPython's math.tanh are the same libm symbol, so
 *     the only transcendental matches exactly;
 *   - the build disables floating-point contraction (-ffp-contract=off),
 *     so the compiler cannot fuse a*b+c into an FMA with different
 *     rounding.
 *
 * The batch ABI carries the per-key state (v, i_L) over the key axis:
 * each input is an array of per-key row pointers, and the outer loop
 * walks keys while the inner recursion walks time.  Keys that share a
 * record share its pointer: the tank input current arrives as two
 * records, the Gmin shape and the current noise, plus the per-key
 * scale P_GM_VLIN, and the kernel forms
 *
 *     i_in[m] = gm_vlin * shape[m] + i_noise[m]
 *
 * itself — the two IEEE operations the reference loop's NumPy
 * expression performs, kept two roundings by -ffp-contract=off (the
 * exactness argument is in repro/engine/plan.py).  Keys are
 * independent — each key reads only its parameter block and input
 * rows (shared rows are read-only) and writes only its own output
 * rows — so the key loop is also the kernel's second axis of
 * parallelism: when the library is built with pthreads, keys are
 * distributed over a per-batch worker team pulling
 * from an atomic counter (dynamic scheduling).  Thread count cannot
 * change any result (per-key arithmetic is untouched and there is no
 * shared mutable state), so 1-vs-N-thread runs are bit-identical;
 * without pthreads the same loop simply runs sequentially.
 *
 * A batch runs in two calls.  repro_simulate_batch_start plans the
 * lane packs, spawns the team's helpers and returns a handle; the
 * caller is then free (the fleet calibrator decodes and plans its
 * other half-lot meanwhile).  repro_simulate_batch_finish makes the
 * caller one more worker on the same atomic counter — it takes the
 * packs still unclaimed — then joins the helpers and frees the handle.
 * Which thread runs a pack cannot change its arithmetic, so the split
 * cannot change a result either.  A team of one spawns nothing, so the
 * batch then runs entirely at finish.
 *
 * Raw pthreads, not OpenMP, deliberately: the workers are created at
 * start and joined at finish, so no threading runtime state outlives
 * a start/finish pair — processes that fork() after using the kernel
 * (the campaign layer's worker pools do) stay safe as long as no pair
 * is open across the fork, where a forked child of an OpenMP parent
 * deadlocks in the orphaned runtime.
 *
 * SIMD time recursion (third axis, per thread)
 * --------------------------------------------
 *
 * The time recursion is inherently sequential per key, but L keys can
 * advance one step together: the lane path below packs consecutive
 * keys whose loop-topology flags agree (clocked / feedback_on /
 * chop_en / delay_whole — everything that picks a branch) into
 * 2- or 4-wide vector lanes, transposes their per-sample input records
 * into a key-inner scratch layout (sample-major, lane-minor, so the
 * hot loop issues contiguous vector loads), and carries (v, i_L) and
 * the decision history as vectors.  The exactness argument extends
 * lane-wise:
 *
 *   - every vector add/mul/div is the per-lane IEEE-754 scalar
 *     operation, applied in the same operand order as the scalar
 *     transcription (the expressions are written identically);
 *   - tanh is applied PER LANE through the very same libm call — no
 *     vectorised math library, no polynomial approximation — so the
 *     transcendental is bitwise the scalar path's;
 *   - -ffp-contract=off covers vector expressions too.
 *
 * Hence lane width cannot change any result: 0/2/4-lane runs are
 * bit-identical (guarded in tests/test_engine.py).  Keys that do not
 * fill a uniform pack (odd remainders, mode changes mid-batch) run the
 * scalar path, which the same guard covers.  The win is instruction-
 * level: one lane's step is latency-bound on tanh plus the tank
 * update's dependency chain, and L independent lanes fill those
 * bubbles.  Lane width is a per-call argument (resolved in native.py
 * from REPRO_ENGINE_SIMD; < 0 asks this library to pick via
 * repro_kernel_simd_width()), and toolchains without GNU vector
 * extensions compile the scalar-only kernel with the identical ABI.
 */

#include <math.h>
#include <stdlib.h>

#ifdef REPRO_USE_PTHREADS
#include <pthread.h>
#include <stdatomic.h>
#include <unistd.h>
#endif

/* Hard cap on the per-batch worker team: 64 helper threads plus the
 * calling thread.  n_threads is clamped to this up front (and then to
 * the number of work items), so requesting more is safe and merely
 * redundant — documented in native.py, covered by a many-threads test. */
#define REPRO_MAX_THREADS 65

int repro_kernel_simd_width(void);

/* Per-key parameter row layout; must match PARAM_FIELDS in native.py. */
enum {
    P_A11, P_A12, P_A21, P_A22, P_B1, P_B2,
    P_CLOCKED, P_FEEDBACK_ON, P_CHOP_EN, P_DELAY_WHOLE, P_SWITCH_SUBSTEP,
    P_I_DAC_UNIT, P_CHOP_OFFSET, P_DECISION_SIGMA, P_HYSTERESIS,
    P_GV, P_VSAT, P_PREAMP_GAIN, P_V_CLIP, P_BUF_GAIN,
    P_BUFFER_GAIN, P_BUFFER_CLAMP, P_BUFFER_NOISE, P_V0, P_IL0,
    P_GM_VLIN,
    N_PARAMS
};

static void simulate_key(
    int n_samples, int substeps,
    const double *shape, const double *i_noise, const double *comp_noise,
    const double *comp_noise_out, const double *dither,
    const double *p,
    double *output, double *bits, double *tank_v)
{
    const double a11 = p[P_A11], a12 = p[P_A12];
    const double a21 = p[P_A21], a22 = p[P_A22];
    const double b1 = p[P_B1], b2 = p[P_B2];
    const int clocked = p[P_CLOCKED] != 0.0;
    const int feedback_on = p[P_FEEDBACK_ON] != 0.0;
    const int chop_en = p[P_CHOP_EN] != 0.0;
    const int delay_whole = (int)p[P_DELAY_WHOLE];
    const double switch_substep = p[P_SWITCH_SUBSTEP];
    const double i_dac_unit = p[P_I_DAC_UNIT];
    const double chop_offset = p[P_CHOP_OFFSET];
    const double decision_sigma = p[P_DECISION_SIGMA];
    const double hysteresis = p[P_HYSTERESIS];
    const double gv = p[P_GV], vsat = p[P_VSAT];
    const double preamp_gain = p[P_PREAMP_GAIN], v_clip = p[P_V_CLIP];
    const double buf_gain = p[P_BUF_GAIN];
    const double buffer_gain = p[P_BUFFER_GAIN];
    const double buffer_clamp = p[P_BUFFER_CLAMP];
    const double buffer_noise = p[P_BUFFER_NOISE];
    const double gm_vlin = p[P_GM_VLIN];

    double chop_sign = 1.0;
    double v = p[P_V0], il = p[P_IL0];
    double d0 = -1.0, d1 = -1.0, d2 = -1.0;

    for (int n = 0; n < n_samples; n++) {
        tank_v[n] = v;
        double v_pre = v_clip * tanh(preamp_gain * v / v_clip);
        if (clocked) {
            double v_eff = v_pre + chop_sign * chop_offset
                + comp_noise[n] * decision_sigma + dither[n]
                + hysteresis * d0;
            d2 = d1;
            d1 = d0;
            d0 = (v_eff >= 0.0) ? 1.0 : -1.0;
            bits[n] = d0;
            output[n] = d0 * buf_gain;
        } else {
            d2 = d1;
            d1 = d0;
            bits[n] = 0.0;
            /* Un-clocked comparator as an open-loop buffer stage. */
            double v_eff = v_pre + chop_offset
                + comp_noise[n] * decision_sigma;
            double y_buf = buffer_clamp
                    * tanh(buffer_gain * v_eff / buffer_clamp)
                + comp_noise_out[n] * buffer_noise;
            output[n] = y_buf * buf_gain;
        }
        if (chop_en)
            chop_sign = -chop_sign;

        double d_early, d_late;
        if (delay_whole == 0) {
            d_early = d1;
            d_late = d0;
        } else {
            d_early = d2;
            d_late = d1;
        }

        int base = n * substeps;
        for (int j = 0; j < substeps; j++) {
            double i_fb;
            if (clocked) {
                double drive_bit = (j < switch_substep) ? d_early : d_late;
                i_fb = i_dac_unit * drive_bit;
            } else if (feedback_on) {
                /* Buffer mode with the loop closed: the DAC sees the
                 * clipped open-loop comparator output and switches
                 * partially. */
                double v_pre_now = v_clip * tanh(preamp_gain * v / v_clip);
                double y_now = buffer_clamp
                        * tanh(buffer_gain
                               * (v_pre_now + chop_offset
                                  + 0.0 * decision_sigma)
                               / buffer_clamp)
                    + 0.0 * buffer_noise;
                i_fb = i_dac_unit * tanh(y_now / 0.3) / 0.995055;
            } else {
                i_fb = 0.0;
            }
            double i_gmq = gv * tanh(v / vsat);
            double i_in = gm_vlin * shape[base + j] + i_noise[base + j];
            /* +i_fb is the stable, noise-shaping polarity — see the
             * reference loop for the fs/4 phasing argument. */
            double u = i_in + i_gmq + i_fb;
            double vn = a11 * v + a12 * il + b1 * u;
            double iln = a21 * v + a22 * il + b2 * u;
            v = vn;
            il = iln;
        }
    }
}

/* ---------------------------------------------------------------------
 * SIMD lane path: L consecutive uniform-mode keys advance together.
 * ------------------------------------------------------------------- */

#if defined(__GNUC__) || defined(__clang__)
#define REPRO_HAVE_SIMD 1
typedef double vd2 __attribute__((vector_size(16)));
typedef double vd4 __attribute__((vector_size(32)));
#endif

struct batch_task {
    int n_keys, n_samples, substeps;
    const double *const *shape;
    const double *const *i_noise;
    const double *const *comp_noise;
    const double *const *comp_noise_out;
    const double *const *dither;
    const double *params;
    double *const *output;
    double *const *bits;
    double *const *tank_v;
    /* Lane packs: pack i covers keys [pack_start[i], pack_start[i] +
     * pack_len[i]); NULL means one implicit single-key pack per key. */
    const int *pack_start;
    const int *pack_len;
    int n_packs;
    int simd;
#ifdef REPRO_USE_PTHREADS
    atomic_int next_pack;
#endif
};

static void run_key(const struct batch_task *t, int k)
{
    simulate_key(t->n_samples, t->substeps, t->shape[k], t->i_noise[k],
                 t->comp_noise[k], t->comp_noise_out[k], t->dither[k],
                 t->params + k * N_PARAMS,
                 t->output[k], t->bits[k], t->tank_v[k]);
}

#ifdef REPRO_HAVE_SIMD

/* One lane function per width, generated from the same transcription.
 * Every arithmetic expression mirrors simulate_key() token for token;
 * vector ops are the per-lane IEEE scalar ops in the same order, and
 * tanh goes through the scalar libm call per lane (LANE_TANH).  The
 * per-sample records are read from a transposed key-inner scratch
 * (sample-major, lane-minor) filled once per pack — the input current
 * formed per lane on the way in, exactly as the scalar walk forms it,
 * so lanes of one pack may mix Gmin codes and Gmin-off keys; failure
 * to allocate it falls back to the scalar walk, results unchanged. */
#define DEFINE_SIMULATE_LANES(L, VD, NAME)                                    \
static void NAME(const struct batch_task *t, int k0)                          \
{                                                                             \
    const int n_samples = t->n_samples, substeps = t->substeps;               \
    const double *p[L];                                                       \
    for (int l = 0; l < L; l++)                                               \
        p[l] = t->params + (k0 + l) * N_PARAMS;                               \
    const int clocked = p[0][P_CLOCKED] != 0.0;                               \
    const int feedback_on = p[0][P_FEEDBACK_ON] != 0.0;                       \
    const int chop_en = p[0][P_CHOP_EN] != 0.0;                               \
    const int delay_whole = (int)p[0][P_DELAY_WHOLE];                         \
    VD a11, a12, a21, a22, b1, b2, switch_substep, i_dac_unit;                \
    VD chop_offset, decision_sigma, hysteresis, gv, vsat;                     \
    VD preamp_gain, v_clip, buf_gain, buffer_gain, buffer_clamp;              \
    VD buffer_noise, v, il;                                                   \
    for (int l = 0; l < L; l++) {                                             \
        a11[l] = p[l][P_A11]; a12[l] = p[l][P_A12];                           \
        a21[l] = p[l][P_A21]; a22[l] = p[l][P_A22];                           \
        b1[l] = p[l][P_B1]; b2[l] = p[l][P_B2];                               \
        switch_substep[l] = p[l][P_SWITCH_SUBSTEP];                           \
        i_dac_unit[l] = p[l][P_I_DAC_UNIT];                                   \
        chop_offset[l] = p[l][P_CHOP_OFFSET];                                 \
        decision_sigma[l] = p[l][P_DECISION_SIGMA];                           \
        hysteresis[l] = p[l][P_HYSTERESIS];                                   \
        gv[l] = p[l][P_GV]; vsat[l] = p[l][P_VSAT];                           \
        preamp_gain[l] = p[l][P_PREAMP_GAIN]; v_clip[l] = p[l][P_V_CLIP];     \
        buf_gain[l] = p[l][P_BUF_GAIN];                                       \
        buffer_gain[l] = p[l][P_BUFFER_GAIN];                                 \
        buffer_clamp[l] = p[l][P_BUFFER_CLAMP];                               \
        buffer_noise[l] = p[l][P_BUFFER_NOISE];                               \
        v[l] = p[l][P_V0]; il[l] = p[l][P_IL0];                               \
    }                                                                         \
    /* Transposed key-inner scratch: [sample][lane] for each record. */       \
    const size_t n_sub = (size_t)n_samples * substeps;                        \
    double *scratch = malloc(                                                 \
        sizeof(double) * L * (n_sub + (size_t)n_samples * 3));                \
    if (scratch == NULL) {                                                    \
        for (int l = 0; l < L; l++)                                           \
            run_key(t, k0 + l);                                               \
        return;                                                               \
    }                                                                         \
    double *iin_t = scratch;                                                  \
    double *cn_t = iin_t + L * n_sub;                                         \
    double *cno_t = cn_t + (size_t)L * n_samples;                             \
    double *dith_t = cno_t + (size_t)L * n_samples;                           \
    for (int l = 0; l < L; l++) {                                             \
        const double gm_vlin = p[l][P_GM_VLIN];                               \
        const double *shape = t->shape[k0 + l];                               \
        const double *i_noise = t->i_noise[k0 + l];                           \
        for (size_t m = 0; m < n_sub; m++)                                    \
            iin_t[m * L + l] = gm_vlin * shape[m] + i_noise[m];               \
        const double *cn = t->comp_noise[k0 + l];                             \
        const double *cno = t->comp_noise_out[k0 + l];                        \
        const double *dith = t->dither[k0 + l];                               \
        for (int n = 0; n < n_samples; n++) {                                 \
            cn_t[n * L + l] = cn[n];                                          \
            cno_t[n * L + l] = cno[n];                                        \
            dith_t[n * L + l] = dith[n];                                      \
        }                                                                     \
    }                                                                         \
    double chop_sign = 1.0;                                                   \
    VD d0, d1, d2;                                                            \
    for (int l = 0; l < L; l++) {                                             \
        d0[l] = -1.0; d1[l] = -1.0; d2[l] = -1.0;                             \
    }                                                                         \
    for (int n = 0; n < n_samples; n++) {                                     \
        for (int l = 0; l < L; l++)                                           \
            t->tank_v[k0 + l][n] = v[l];                                      \
        VD pre_arg = preamp_gain * v / v_clip;                                \
        VD pre_th;                                                            \
        for (int l = 0; l < L; l++)                                           \
            pre_th[l] = tanh(pre_arg[l]);                                     \
        VD v_pre = v_clip * pre_th;                                           \
        VD cn, dith;                                                          \
        for (int l = 0; l < L; l++) {                                         \
            cn[l] = cn_t[n * L + l];                                          \
            dith[l] = dith_t[n * L + l];                                      \
        }                                                                     \
        if (clocked) {                                                        \
            VD v_eff = v_pre + chop_sign * chop_offset                        \
                + cn * decision_sigma + dith                                  \
                + hysteresis * d0;                                            \
            d2 = d1;                                                          \
            d1 = d0;                                                          \
            for (int l = 0; l < L; l++) {                                     \
                d0[l] = (v_eff[l] >= 0.0) ? 1.0 : -1.0;                       \
                t->bits[k0 + l][n] = d0[l];                                   \
            }                                                                 \
            VD out = d0 * buf_gain;                                           \
            for (int l = 0; l < L; l++)                                       \
                t->output[k0 + l][n] = out[l];                                \
        } else {                                                              \
            d2 = d1;                                                          \
            d1 = d0;                                                          \
            VD v_eff = v_pre + chop_offset                                    \
                + cn * decision_sigma;                                        \
            VD y_arg = buffer_gain * v_eff / buffer_clamp;                    \
            VD y_th;                                                          \
            for (int l = 0; l < L; l++)                                       \
                y_th[l] = tanh(y_arg[l]);                                     \
            VD cno;                                                           \
            for (int l = 0; l < L; l++) {                                     \
                t->bits[k0 + l][n] = 0.0;                                     \
                cno[l] = cno_t[n * L + l];                                    \
            }                                                                 \
            VD y_buf = buffer_clamp * y_th + cno * buffer_noise;              \
            VD out = y_buf * buf_gain;                                        \
            for (int l = 0; l < L; l++)                                       \
                t->output[k0 + l][n] = out[l];                                \
        }                                                                     \
        if (chop_en)                                                          \
            chop_sign = -chop_sign;                                           \
        VD d_early, d_late;                                                   \
        if (delay_whole == 0) {                                               \
            d_early = d1;                                                     \
            d_late = d0;                                                      \
        } else {                                                              \
            d_early = d2;                                                     \
            d_late = d1;                                                      \
        }                                                                     \
        int base = n * substeps;                                              \
        for (int j = 0; j < substeps; j++) {                                  \
            VD i_fb;                                                          \
            if (clocked) {                                                    \
                VD drive_bit;                                                 \
                for (int l = 0; l < L; l++)                                   \
                    drive_bit[l] =                                            \
                        (j < switch_substep[l]) ? d_early[l] : d_late[l];     \
                i_fb = i_dac_unit * drive_bit;                                \
            } else if (feedback_on) {                                         \
                VD now_arg = preamp_gain * v / v_clip;                        \
                VD now_th;                                                    \
                for (int l = 0; l < L; l++)                                   \
                    now_th[l] = tanh(now_arg[l]);                             \
                VD v_pre_now = v_clip * now_th;                               \
                VD yn_arg = buffer_gain                                       \
                    * (v_pre_now + chop_offset                                \
                       + 0.0 * decision_sigma)                                \
                    / buffer_clamp;                                           \
                VD yn_th;                                                     \
                for (int l = 0; l < L; l++)                                   \
                    yn_th[l] = tanh(yn_arg[l]);                               \
                VD y_now = buffer_clamp * yn_th + 0.0 * buffer_noise;         \
                VD fb_arg = y_now / 0.3;                                      \
                VD fb_th;                                                     \
                for (int l = 0; l < L; l++)                                   \
                    fb_th[l] = tanh(fb_arg[l]);                               \
                i_fb = i_dac_unit * fb_th / 0.995055;                         \
            } else {                                                          \
                for (int l = 0; l < L; l++)                                   \
                    i_fb[l] = 0.0;                                            \
            }                                                                 \
            VD gm_arg = v / vsat;                                             \
            VD gm_th;                                                         \
            for (int l = 0; l < L; l++)                                       \
                gm_th[l] = tanh(gm_arg[l]);                                   \
            VD i_gmq = gv * gm_th;                                            \
            VD iin;                                                           \
            for (int l = 0; l < L; l++)                                       \
                iin[l] = iin_t[(size_t)(base + j) * L + l];                   \
            VD u = iin + i_gmq + i_fb;                                        \
            VD vn = a11 * v + a12 * il + b1 * u;                              \
            VD iln = a21 * v + a22 * il + b2 * u;                             \
            v = vn;                                                           \
            il = iln;                                                         \
        }                                                                     \
    }                                                                         \
    free(scratch);                                                            \
}

DEFINE_SIMULATE_LANES(2, vd2, simulate_keys_lanes2)
DEFINE_SIMULATE_LANES(4, vd4, simulate_keys_lanes4)

#endif /* REPRO_HAVE_SIMD */

static void run_pack(const struct batch_task *t, int i)
{
    if (t->pack_start == NULL) {
        run_key(t, i);
        return;
    }
    int k0 = t->pack_start[i];
    int len = t->pack_len[i];
#ifdef REPRO_HAVE_SIMD
    if (len == 4) {
        simulate_keys_lanes4(t, k0);
        return;
    }
    if (len == 2) {
        simulate_keys_lanes2(t, k0);
        return;
    }
#endif
    for (int k = k0; k < k0 + len; k++)
        run_key(t, k);
}

#ifdef REPRO_USE_PTHREADS
/* Dynamic scheduling off an atomic counter: record lengths are uniform
 * within a batch but clocked and buffer-mode keys cost differently per
 * sample, so workers pull packs instead of taking fixed slices. */
static void *batch_worker(void *arg)
{
    struct batch_task *t = arg;
    for (;;) {
        int i = atomic_fetch_add_explicit(&t->next_pack, 1,
                                          memory_order_relaxed);
        if (i >= t->n_packs)
            return (void *)0;
        run_pack(t, i);
    }
}

/* The worker team for n_items work items: n_threads (<= 0: one per
 * online core), clamped once, up front, to the fixed-size helper array
 * (64 helpers + the calling thread) and to the item count. */
static int team_size(int n_threads, int n_items)
{
    if (n_threads <= 0) {
        long online = sysconf(_SC_NPROCESSORS_ONLN);
        n_threads = online > 0 ? (int)online : 1;
    }
    if (n_threads > REPRO_MAX_THREADS)
        n_threads = REPRO_MAX_THREADS;
    if (n_threads > n_items)
        n_threads = n_items;
    return n_threads < 1 ? 1 : n_threads;
}
#endif

/* Whether keys a and b may share a lane pack: every parameter that
 * picks a control-flow branch must agree (per-lane data parameters may
 * differ freely — selects and arithmetic handle them lane-wise). */
static int same_mode(const double *params, int a, int b)
{
    const double *pa = params + a * N_PARAMS;
    const double *pb = params + b * N_PARAMS;
    return (pa[P_CLOCKED] != 0.0) == (pb[P_CLOCKED] != 0.0)
        && (pa[P_FEEDBACK_ON] != 0.0) == (pb[P_FEEDBACK_ON] != 0.0)
        && (pa[P_CHOP_EN] != 0.0) == (pb[P_CHOP_EN] != 0.0)
        && (int)pa[P_DELAY_WHOLE] == (int)pb[P_DELAY_WHOLE];
}

/* Group consecutive same-mode keys into lane packs; on success the
 * task points at *packs (start and length arrays), which the caller
 * frees.  Without lanes, or when the allocation fails, the task keeps
 * one implicit pack per key — same results, scalar walk. */
static void plan_packs(struct batch_task *task, int simd_lanes, int **packs)
{
    const int n_keys = task->n_keys;
    *packs = 0;
    if (simd_lanes < 0)
        simd_lanes = repro_kernel_simd_width();
#ifndef REPRO_HAVE_SIMD
    simd_lanes = 0;
#endif
    if (simd_lanes < 2 || n_keys < 2)
        return;
    *packs = malloc(sizeof(int) * 2 * (size_t)n_keys);
    if (*packs == 0)
        return;
    int *start = *packs, *len = *packs + n_keys;
    int n_packs = 0, k = 0;
    while (k < n_keys) {
        int run = 1;
        while (run < simd_lanes && k + run < n_keys
               && same_mode(task->params, k, k + run))
            run++;
        /* Full-width packs only (with a 2-wide tail under 4-wide
         * lanes); stragglers take the scalar walk. */
        if (run == 4 || run == 2) {
            ;
        } else if (run == 3) {
            run = 2;
        } else {
            run = 1;
        }
        start[n_packs] = k;
        len[n_packs] = run;
        n_packs++;
        k += run;
    }
    task->pack_start = start;
    task->pack_len = len;
    task->n_packs = n_packs;
    task->simd = simd_lanes;
}

/* A started batch: the task, its lane packs and the helpers working on
 * it.  The caller's tables stay alive until the matching finish. */
struct batch_run {
    struct batch_task task;
    int *packs;
#ifdef REPRO_USE_PTHREADS
    pthread_t helpers[REPRO_MAX_THREADS - 1];
    int spawned;
#endif
};

/* Start a batch: plan the lane packs and spawn the team's helpers,
 * then return without waiting.  The helpers pull packs off the task's
 * atomic counter; the caller pulls whatever is left at
 * repro_simulate_batch_finish, which joins them.  When the caller goes
 * straight to finish (overlap == 0) it is one of the team: n_threads
 * workers, at most one per pack.  When it does other work first
 * (overlap != 0) it arrives late, so the team gets up to one helper
 * per pack — a one-pack batch gets its helper too — and n_threads - 1
 * at most.  A team of one (REPRO_ENGINE_THREADS=1, a 1-CPU host, the
 * sequential build) spawns nothing, so the whole batch runs at finish.
 * Returns NULL only when the handle cannot be allocated; the batch has
 * then run to completion inside this call, and finish(NULL) is a
 * no-op. */
void *repro_simulate_batch_start(
    int n_keys, int n_samples, int substeps,
    const double *const *shape, const double *const *i_noise,
    const double *const *comp_noise,
    const double *const *comp_noise_out, const double *const *dither,
    const double *params,
    double *const *output, double *const *bits, double *const *tank_v,
    int n_threads, int simd_lanes, int overlap)
{
    struct batch_task task = {
        n_keys, n_samples, substeps,
        shape, i_noise, comp_noise, comp_noise_out, dither, params,
        output, bits, tank_v,
        0, 0, n_keys, 0,
    };
    struct batch_run *run = malloc(sizeof *run);
    if (run == 0) {
        int *packs;
        plan_packs(&task, simd_lanes, &packs);
        for (int i = 0; i < task.n_packs; i++)
            run_pack(&task, i);
        free(packs);
        return 0;
    }
    run->task = task;
    plan_packs(&run->task, simd_lanes, &run->packs);
#ifdef REPRO_USE_PTHREADS
    atomic_init(&run->task.next_pack, 0);
    int n_helpers = team_size(n_threads, run->task.n_packs + !!overlap) - 1;
    run->spawned = 0;
    for (int i = 0; i < n_helpers; i++) {
        if (pthread_create(&run->helpers[run->spawned], 0, batch_worker,
                           &run->task))
            break;  /* fewer workers, same results */
        run->spawned++;
    }
#else
    (void)n_threads;
    (void)overlap;
#endif
    return run;
}

/* Finish a started batch: the calling thread works through the packs
 * no helper has claimed, joins the helpers and frees the handle.  On
 * return every output row is written and no thread of this batch is
 * left. */
void repro_simulate_batch_finish(void *handle)
{
    struct batch_run *run = handle;
    if (run == 0)
        return;
#ifdef REPRO_USE_PTHREADS
    batch_worker(&run->task);
    for (int i = 0; i < run->spawned; i++)
        pthread_join(run->helpers[i], 0);
#else
    for (int i = 0; i < run->task.n_packs; i++)
        run_pack(&run->task, i);
#endif
    free(run->packs);
    free(run);
}

/* ABI sanity hook for the loader. */
int repro_kernel_n_params(void) { return N_PARAMS; }

/* Whether this build can actually thread the key axis. */
int repro_kernel_threaded(void) {
#ifdef REPRO_USE_PTHREADS
    return 1;
#else
    return 0;
#endif
}

/* Best lane width this build + host supports for the SIMD time
 * recursion: 4 where AVX-class 256-bit vectors exist, 2 for baseline
 * 128-bit doubles, 0 when the toolchain had no vector extensions.
 * Width is pure throughput policy — results are bit-identical at any
 * width (including 0). */
int repro_kernel_simd_width(void) {
#ifdef REPRO_HAVE_SIMD
#if defined(__x86_64__) || defined(__i386__)
    return __builtin_cpu_supports("avx") ? 4 : 2;
#else
    return 2;
#endif
#else
    return 0;
#endif
}

/* The helper-team bound (64 helpers + the caller), exported so the
 * loader can document and test the clamp. */
int repro_kernel_max_threads(void) { return REPRO_MAX_THREADS; }
