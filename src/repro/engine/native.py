"""Build, load and drive the compiled batch kernel (``_kernel.c``).

The kernel is compiled on first use with the system C compiler into a
per-user cache directory keyed by a hash of the source and flags, so
editing the source or upgrading the repo transparently rebuilds it.
Machines without a compiler simply report the kernel unavailable and
the vectorized backend falls back to the (bit-identical) reference
loop — nothing is ever ``pip install``-ed.

Why C is bit-exact with the Python reference loop:

* CPython's ``math.tanh`` and the kernel's ``tanh`` resolve to the same
  libm symbol, so the single in-loop transcendental matches bitwise;
* the kernel transcribes the reference expressions with identical
  operand order, and IEEE-754 double add/mul/div are deterministic
  given order;
* the build passes ``-ffp-contract=off`` so the compiler cannot fuse
  multiply-adds into differently-rounded FMAs.

``tests/test_engine.py`` holds the equivalence property over mixed-mode
batches.

Threading model
---------------

Keys are independent, so the kernel's key loop is its second axis of
parallelism: the build first tries pthreads (``-pthread
-DREPRO_USE_PTHREADS``) and, when that works, each batch call spawns a
worker team that pulls keys off an atomic counter and joins before the
call returns.  Per-key arithmetic is untouched and no state is shared,
so the thread count cannot change any result — 1-vs-N-thread runs are
bit-identical (guarded in ``tests/test_engine.py``).  Per-call teams
are also what keeps ``fork()`` safe (campaign worker pools fork): no
threading runtime state outlives a call, where a forked child of an
OpenMP parent would deadlock in the orphaned runtime — which is why
this is pthreads and not OpenMP.  The count is resolved per call from
``REPRO_ENGINE_THREADS`` (unset means one thread per online core,
``1`` forces the sequential walk); toolchains without pthreads compile
the plain sequential kernel with the identical ABI.  The kernel's
worker team is bounded at 64 helper threads plus the calling thread
(``repro_kernel_max_threads``): larger requests are clamped once up
front inside the kernel, never silently dropped mid-spawn, so asking
for 10_000 threads is safe and merely redundant (covered in
``tests/test_engine.py``).  Setting ``REPRO_ENGINE_DISABLE_KERNEL``
reports the kernel unavailable, which forces the no-compiler reference
fallback everywhere — the CI leg that keeps that path green.

SIMD lane axis
--------------

Within one thread, the kernel can advance 2 or 4 uniform-mode keys per
time step with GNU vector extensions (the transposed key-inner layout
in ``_kernel.c``).  Per-lane arithmetic keeps the exact reference
operand order and ``tanh`` is the same scalar libm call applied per
lane, so lane width can never change a result — 0/2/4-lane runs are
bit-identical (guarded in ``tests/test_engine.py``).
``REPRO_ENGINE_SIMD`` picks the width per call: unset (or ``auto``)
lets the kernel detect the widest supported lanes (AVX-class hosts get
4, baseline x86-64 gets 2), ``0`` or ``1`` forces the scalar walk (the
CI force-off leg), ``2``/``4`` force a width.  Anything else raises.

The pinned-order batch FIR (``repro_fir_batch``) shares the cache,
clamped worker-team model and exactness contract; see
:func:`fir_batch_native` and :mod:`repro.dsp.decimate`.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.engine.plan import KeyPlan
from repro.receiver.sdm import ModulatorResult

#: Per-key parameter row; order must match the ``enum`` in _kernel.c.
PARAM_FIELDS = (
    "a11", "a12", "a21", "a22", "b1", "b2",
    "clocked", "feedback_on", "chop_en", "delay_whole", "switch_substep",
    "i_dac_unit", "chop_offset", "decision_sigma", "hysteresis",
    "gv", "vsat", "preamp_gain", "v_clip", "buf_gain",
    "buffer_gain", "buffer_clamp", "buffer_noise", "v0", "il0",
)

_KERNEL_SOURCE = Path(__file__).with_name("_kernel.c")

#: Flags chosen for speed *and* reproducibility: optimisation is fine,
#: value-changing transformations (FMA contraction, fast-math) are not.
_CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")

#: Flag sets to try in order: pthreads (threaded key axis) first, then
#: the plain sequential build for toolchains without pthread support.
_CFLAG_SETS = (_CFLAGS + ("-pthread", "-DREPRO_USE_PTHREADS"), _CFLAGS)

_lib: ctypes.CDLL | None = None
_lib_checked = False

_DOUBLE_P = ctypes.POINTER(ctypes.c_double)
_DOUBLE_PP = ctypes.POINTER(_DOUBLE_P)


def _cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    path = Path(base) / "repro-engine"
    try:
        path.mkdir(parents=True, exist_ok=True)
        return path
    except OSError:
        return Path(tempfile.gettempdir()) / "repro-engine"


def _compiler() -> str | None:
    for name in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if name and shutil.which(name):
            return name
    return None


def _build_one(flags: tuple[str, ...]) -> ctypes.CDLL | None:
    source = _KERNEL_SOURCE.read_bytes()
    tag = hashlib.sha256(source + " ".join(flags).encode()).hexdigest()[:16]
    cache = _cache_dir()
    so_path = cache / f"kernel-{tag}.so"
    if not so_path.exists():
        cc = _compiler()
        if cc is None:
            return None
        cache.mkdir(parents=True, exist_ok=True)
        # Build to a temp name then rename, so concurrent processes
        # never load a half-written library.
        fd, tmp = tempfile.mkstemp(suffix=".so", dir=str(cache))
        os.close(fd)
        cmd = [cc, *flags, "-o", tmp, str(_KERNEL_SOURCE), "-lm"]
        try:
            subprocess.run(
                cmd, check=True, capture_output=True, timeout=120
            )
            os.replace(tmp, so_path)
        except (subprocess.SubprocessError, OSError):
            try:
                os.unlink(tmp)
            except OSError:
                pass
            return None
    try:
        lib = ctypes.CDLL(str(so_path))
    except OSError:
        return None
    if lib.repro_kernel_n_params() != len(PARAM_FIELDS):
        return None  # stale ABI; refuse rather than corrupt results
    lib.repro_simulate_batch.argtypes = [
        ctypes.c_int, ctypes.c_int, ctypes.c_int,
        _DOUBLE_PP, _DOUBLE_PP, _DOUBLE_PP, _DOUBLE_PP,
        _DOUBLE_P,
        _DOUBLE_PP, _DOUBLE_PP, _DOUBLE_PP,
        ctypes.c_int, ctypes.c_int,
    ]
    lib.repro_simulate_batch.restype = None
    lib.repro_fir_batch.argtypes = [
        ctypes.c_int, ctypes.c_int, _DOUBLE_PP,
        ctypes.c_int, _DOUBLE_P,
        _DOUBLE_PP, ctypes.c_int,
    ]
    lib.repro_fir_batch.restype = ctypes.c_int
    return lib


def _build_library() -> ctypes.CDLL | None:
    if not _KERNEL_SOURCE.exists():
        return None
    # Threading changes throughput only, never results, so a toolchain
    # without pthreads quietly gets the sequential build of the same ABI.
    for flags in _CFLAG_SETS:
        lib = _build_one(flags)
        if lib is not None:
            return lib
    return None


def kernel_available() -> bool:
    """Whether the compiled batch kernel can be used on this machine.

    ``REPRO_ENGINE_DISABLE_KERNEL`` (any non-empty value) reports it
    unavailable without touching the build cache — the switch the CI
    no-compiler leg uses to exercise the reference fallback.
    """
    global _lib, _lib_checked
    if os.environ.get("REPRO_ENGINE_DISABLE_KERNEL"):
        return False
    if not _lib_checked:
        _lib = _build_library()
        _lib_checked = True
    return _lib is not None


def kernel_threaded() -> bool:
    """Whether the loaded kernel was built with a threaded key axis."""
    if not kernel_available():
        return False
    try:
        return bool(_lib.repro_kernel_threaded())
    except AttributeError:  # pre-threading library (stale hash collision)
        return False


def usable_cpus() -> int:
    """CPUs this process may run on (affinity-aware where supported).

    The sizing signal for everything that scales with the kernel's
    threaded key axis: the benchmark gates and the BENCH report.
    """
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


#: ``(setter, getter)`` thread-count symbols of the OpenBLAS builds a
#: process may load: numpy's ``libscipy_openblas64_`` (64-bit integer
#: interface), scipy's ``libscipy_openblas``, and system builds.
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


def _loaded_openblas() -> list[tuple]:
    """Every OpenBLAS copy already loaded in this process, as ``(path,
    set_num_threads, get_num_threads)``.  Copies are found among the
    process's mapped shared objects (``/proc/self/maps``; none where
    that file does not exist) and opened with ``RTLD_NOLOAD``, so this
    never loads a library that was not there."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {
                fields[5] for fields in (line.split() for line in fh)
                if len(fields) >= 6
                and "openblas" in os.path.basename(fields[5]).lower()
            }
    except OSError:
        return []
    mode = getattr(os, "RTLD_NOLOAD", 0) | getattr(os, "RTLD_LAZY", 1)
    found = []
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path, mode=mode)
        except OSError:
            continue
        for setter, getter in _OPENBLAS_THREAD_SYMBOLS:
            if hasattr(lib, setter) and hasattr(lib, getter):
                set_threads = getattr(lib, setter)
                set_threads.argtypes = [ctypes.c_int]
                set_threads.restype = None
                get_threads = getattr(lib, getter)
                get_threads.argtypes = []
                get_threads.restype = ctypes.c_int
                found.append((path, set_threads, get_threads))
                break
    return found


def blas_threads() -> dict[str, int]:
    """Thread count of every loaded OpenBLAS copy, keyed by its path."""
    return {path: get() for path, _, get in _loaded_openblas()}


def pin_blas_threads() -> None:
    """Set every loaded OpenBLAS copy to one thread.

    Every fleet worker calls this first, for its whole life.  N fleet
    processes already cover N cores, while each OpenBLAS copy sizes its
    pool to every core, and the helper thread scipy's ``expm`` (in
    :func:`~repro.engine.plan.discretise_tank`) wakes keeps spinning on
    the core the next worker needs.  In-process jobs pin for their own
    length instead (:func:`blas_pinned`): there the spinning helper
    takes the core the kernel's second thread needs.  The kernel's own
    thread team is a separate axis (``REPRO_ENGINE_THREADS``) and is
    left alone.

    Exactness: the pool size only decides how OpenBLAS divides a call
    between threads — over independent output blocks and right-hand-side
    columns, never inside one output element's reduction at the operand
    sizes this package passes (the 2x2 tank matrices of
    ``discretise_tank``; the short dots elsewhere stay below OpenBLAS's
    threading thresholds).  Each output element is therefore the same
    floating-point operations in the same order at any pool size, so
    pinned and unpinned runs are byte-identical.  The daemon and
    service differential guards (``tests/test_daemon.py``,
    ``tests/test_service.py``, ``tests/test_subtasks.py``) hold fleet
    workers against in-process runs, and ``TestFleetBlasPinned`` holds
    pinned pools against the unpinned test process, all unedited.
    """
    for _, set_threads, _ in _loaded_openblas():
        set_threads(1)


#: Open :func:`blas_pinned` blocks, and each pinned copy's count from
#: before the first of them.
_pin_depth = 0
_pinned_from: list[tuple] = []


@contextmanager
def blas_pinned():
    """Pin every loaded OpenBLAS copy to one thread for a block.

    The service's in-process jobs run inside one (see
    :func:`pin_blas_threads` for why, and for why it cannot change a
    result).  Blocks nest and may interleave, as the generators that
    drive jobs do: the first block to open records each copy's thread
    count and pins it, and the last to close restores the recorded
    counts — on completion, failure or cancellation alike.  The thread
    counts are process state, so, like the job's backend switch, the
    blocks belong to the one thread that drives in-process jobs; no
    lock guards them, since a fleet worker forked while another thread
    held one would inherit it held.
    """
    global _pin_depth, _pinned_from
    if _pin_depth == 0:
        _pinned_from = [
            (set_threads, get()) for _, set_threads, get in _loaded_openblas()
        ]
        for set_threads, _ in _pinned_from:
            set_threads(1)
    _pin_depth += 1
    try:
        yield
    finally:
        _pin_depth -= 1
        if _pin_depth == 0:
            for set_threads, count in _pinned_from:
                set_threads(count)


def kernel_threads() -> int:
    """Resolve the key-axis thread count from ``REPRO_ENGINE_THREADS``.

    Returns 0 when the variable is unset — the kernel then uses one
    thread per online core, capped at the batch size.  The value is
    read per call so a process can re-pin its thread count between
    batches.
    """
    raw = os.environ.get("REPRO_ENGINE_THREADS")
    if raw is None or raw.strip() == "":
        return 0
    try:
        n = int(raw)
    except ValueError:
        n = -1
    if n < 1:
        raise ValueError(
            f"REPRO_ENGINE_THREADS must be a positive integer "
            f"(or unset for one thread per core), got {raw!r}"
        )
    return n


def kernel_simd_lanes() -> int:
    """Resolve the SIMD lane width from ``REPRO_ENGINE_SIMD``.

    Returns -1 when the variable is unset or ``auto`` — the kernel then
    detects the widest lanes the build and host support.  ``0`` and
    ``1`` both force the scalar walk, ``2`` and ``4`` force that width.
    Any other value raises.  Width is pure throughput policy: results
    are bit-identical at every setting.  Read per call, like
    :func:`kernel_threads`.
    """
    raw = os.environ.get("REPRO_ENGINE_SIMD")
    if raw is None or raw.strip() in ("", "auto"):
        return -1
    try:
        n = int(raw)
    except ValueError:
        n = -1
    if n not in (0, 1, 2, 4):
        raise ValueError(
            f"REPRO_ENGINE_SIMD must be auto/0/1/2/4 "
            f"(or unset for auto-detection), got {raw!r}"
        )
    return 0 if n == 1 else n


def kernel_simd_width() -> int:
    """Lane width the loaded kernel auto-detects for this host.

    4 on AVX-class x86-64, 2 on baseline hosts, 0 when the build had no
    vector extensions or no kernel is available.  This is what
    ``REPRO_ENGINE_SIMD=auto`` resolves to inside the kernel.
    """
    if not kernel_available():
        return 0
    try:
        return int(_lib.repro_kernel_simd_width())
    except AttributeError:  # pragma: no cover - stale pre-SIMD library
        return 0


def kernel_max_threads() -> int:
    """Hard bound on the kernel's per-call worker team (incl. caller).

    ``n_threads`` requests above this are clamped up front inside the
    kernel — the fixed-size helper array can never overflow and no
    request is silently truncated mid-spawn.
    """
    if not kernel_available():
        return 1
    try:
        return int(_lib.repro_kernel_max_threads())
    except AttributeError:  # pragma: no cover - stale library
        return 1


def _pointer_array(arrays: Sequence[np.ndarray]) -> ctypes.Array:
    ptrs = (_DOUBLE_P * len(arrays))()
    for i, a in enumerate(arrays):
        ptrs[i] = a.ctypes.data_as(_DOUBLE_P)
    return ptrs


def simulate_plans_native(plans: Sequence[KeyPlan]) -> list[ModulatorResult]:
    """Integrate a batch of key plans through the compiled kernel."""
    if not kernel_available():
        raise RuntimeError("compiled kernel unavailable on this machine")
    n_keys = len(plans)
    n_samples = plans[0].n_samples
    substeps = plans[0].substeps
    params = np.empty((n_keys, len(PARAM_FIELDS)))
    for k, plan in enumerate(plans):
        for j, name in enumerate(PARAM_FIELDS):
            params[k, j] = float(getattr(plan, name))
    i_in = [np.ascontiguousarray(p.i_in) for p in plans]
    comp_noise = [np.ascontiguousarray(p.comp_noise) for p in plans]
    comp_noise_out = [np.ascontiguousarray(p.comp_noise_out) for p in plans]
    dither = [np.ascontiguousarray(p.dither) for p in plans]
    output = [np.empty(n_samples) for _ in plans]
    bits = [np.empty(n_samples) for _ in plans]
    tank_v = [np.empty(n_samples) for _ in plans]
    _lib.repro_simulate_batch(
        n_keys, n_samples, substeps,
        _pointer_array(i_in), _pointer_array(comp_noise),
        _pointer_array(comp_noise_out), _pointer_array(dither),
        params.ctypes.data_as(_DOUBLE_P),
        _pointer_array(output), _pointer_array(bits), _pointer_array(tank_v),
        kernel_threads(), kernel_simd_lanes(),
    )
    return [
        ModulatorResult(
            output=output[k],
            bits=bits[k],
            tank_voltage=tank_v[k],
            fs=plans[k].fs,
            is_bitstream=plans[k].clocked,
        )
        for k in range(n_keys)
    ]


def fir_batch_native(x: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Pinned-order batch FIR over a ``(rows, samples)`` matrix.

    Runs ``repro_fir_batch``: 'same'-aligned convolution of every row
    with ``taps``, accumulated in explicitly ascending tap order over
    the zero-padded row, rows threaded like the integrator's key axis
    (thread count from ``REPRO_ENGINE_THREADS``, clamped to the
    64-helper team bound).  The accumulation order is the whole point:
    it makes the result platform-pinned and bit-identical to the
    pure-NumPy transcription in :func:`repro.dsp.decimate.fir_same_pinned`,
    where ``np.convolve``'s BLAS dot ordering is build-dependent.
    Output shape is ``(rows, max(samples, taps))`` — ``np.convolve``'s
    'same' semantics when the taps outnumber the samples.
    """
    if not kernel_available():
        raise RuntimeError("compiled kernel unavailable on this machine")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"expected a (rows, samples) matrix, got {x.shape}")
    taps = np.ascontiguousarray(taps, dtype=np.float64)
    if taps.ndim != 1 or taps.size == 0:
        raise ValueError("taps must be a non-empty 1-D array")
    n_rows, n_in = x.shape
    out_n = max(n_in, taps.size)
    if n_rows == 0:
        return np.empty((0, out_n))
    if n_in == 0:
        raise ValueError("samples cannot be empty")  # as np.convolve
    rows = [np.ascontiguousarray(x[r]) for r in range(n_rows)]
    out = np.empty((n_rows, out_n))
    out_rows = [out[r] for r in range(n_rows)]
    rc = _lib.repro_fir_batch(
        n_rows, n_in, _pointer_array(rows),
        taps.size, taps.ctypes.data_as(_DOUBLE_P),
        _pointer_array(out_rows), kernel_threads(),
    )
    if rc != 0:  # pragma: no cover - scratch allocation failure
        raise MemoryError("repro_fir_batch could not allocate scratch")
    return out
