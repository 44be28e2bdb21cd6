"""Build, load and drive the compiled batch kernel (``_kernel.c``).

The modulator's time recursion is sequential, but configuration words
are independent: the kernel carries the tank state, comparator history
and per-key constants over the *key axis* and advances every key of a
batch together, an order of magnitude over the interpreted per-key
loop.  A NumPy-ufunc formulation of the same key-axis recursion was
measured first and rejected: with ~0.5 µs of dispatch overhead per
elementwise op and ~14 ops per substep, it loses to the scalar loop
below ~30 keys — the regime every quick-mode sweep lives in.

The kernel is compiled on first use with the system C compiler into a
per-user cache directory keyed by a hash of the source and flags, so
editing the source or upgrading the repo transparently rebuilds it.
Machines without a compiler simply report the kernel unavailable and
the engine runs the (bit-identical) reference loop under every backend
— nothing is ever ``pip install``-ed.

Why C is bit-exact with the Python reference loop:

* CPython's ``math.tanh`` and the kernel's ``tanh`` resolve to the same
  libm symbol, so the single in-loop transcendental matches bitwise;
* the kernel transcribes the reference expressions with identical
  operand order, and IEEE-754 double add/mul/div are deterministic
  given order;
* the build passes ``-ffp-contract=off`` so the compiler cannot fuse
  multiply-adds into differently-rounded FMAs.

``tests/test_engine.py`` holds the equivalence property over mixed-mode
batches, and pins the outputs' bytes on both backends.

Kernel ABI
----------

``repro_simulate_batch_start`` (which returns the handle
``repro_simulate_batch_finish`` takes) takes, per key, a row of the
``(keys, len(PARAM_FIELDS))`` parameter matrix and one pointer in each
of the record tables: the Gmin shape, the tank current noise (one
sample per substep each), the two comparator noise records and the
dither (one per sample).  Plans share records (see
:mod:`repro.engine.plan`), so the tables repeat addresses: they are
address arrays built by :func:`_pointer_table`, which checks each
distinct array's dtype, length and layout and looks its address up
once.  The parameter row carries the per-key Gmin scale ``gm_vlin``,
and the kernel forms the input current ``gm_vlin * shape[m] +
i_noise[m]`` as it reads the records.  The three output tables point
at fresh per-key arrays.
``PARAM_FIELDS`` must match the kernel's parameter ``enum``; the
loader refuses a library whose parameter count differs (a stale
build).

Threading model
---------------

Keys are independent, so the kernel's key loop is its second axis of
parallelism: the build first tries pthreads (``-pthread
-DREPRO_USE_PTHREADS``) and, when that works, each batch has a worker
team that pulls lane packs off an atomic counter.  Per-key arithmetic
is untouched and no state is shared, so the thread count cannot change
any result — 1-vs-N-thread runs are bit-identical (guarded in
``tests/test_engine.py``).

A batch runs as a *start/finish pair*; it is the only entry point.
``repro_simulate_batch_start`` (:class:`NativeRun`) plans the packs,
spawns the team's helpers and returns a handle at once, so the calling
thread can do other work — the fleet calibrator decodes and plans one
half-lot while the kernel integrates the other.  Its ``overlap`` flag
says whether it will: a caller that goes straight to finish is one of
``threads`` workers, at most one per pack, as a blocking call would
be; one that works elsewhere first arrives late, so the team gets up
to one helper per pack (a one-pack batch gets one too), at most
``threads - 1``.
``repro_simulate_batch_finish`` (:meth:`NativeRun.finish`) makes the
caller one more worker on the same counter: it takes whatever packs no
helper has claimed, then joins the helpers.  Which thread runs a pack
cannot change its arithmetic, so the split cannot change a result
either.  A team of one — ``REPRO_ENGINE_THREADS=1`` or a 1-CPU host —
spawns no helper, and the whole batch runs at finish: the sequential
behaviour.  A handle holds every record, table and output its helpers
touch until finish, and one dropped unfinished finishes itself in a
finalizer that owns those arrays.  Two half-lots in flight each get
their own team, so a host of ``T`` cores briefly runs up to
``2 (T - 1)`` helpers beside the caller; the work is the same and the
pack counter balances it.

Per-batch teams are also what keeps ``fork()`` safe (the service's
worker fleets fork): no threading runtime state outlives a
start/finish pair, where a forked child of an OpenMP parent would
deadlock in the orphaned runtime — which is why this is pthreads and
not OpenMP.  Every task runs with its OpenBLAS pools pinned to one
thread (:func:`blas_pinned`).  Fork safety
holds per pair: a fork between a start and its finish would copy a
handle whose helpers the child does not have.  No caller forks inside
a pair: ``run_multi`` closes its pairs before returning, and
``Calibrator.calibrate_fleet`` closes every pair it opened — on
failure too — before it returns.  The count is resolved per batch
from ``REPRO_ENGINE_THREADS`` (unset means one thread per online core,
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

import array
import ctypes
import functools
import hashlib
import operator
import os
import shutil
import subprocess
import tempfile
import weakref
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
    "gm_vlin",
)

_plan_params = operator.attrgetter(*PARAM_FIELDS)

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
#: A :func:`_pointer_table`'s address (``double *const *`` in C).
_TABLE = ctypes.c_void_p
#: ``array`` typecode of an unsigned integer as wide as a data address.
_ADDRESS = "Q" if ctypes.sizeof(ctypes.c_void_p) == 8 else "I"


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
    lib.repro_simulate_batch_start.argtypes = [
        ctypes.c_int, ctypes.c_int, ctypes.c_int,
        _TABLE, _TABLE, _TABLE, _TABLE, _TABLE,
        _DOUBLE_P,
        _TABLE, _TABLE, _TABLE,
        ctypes.c_int, ctypes.c_int, ctypes.c_int,
    ]
    lib.repro_simulate_batch_start.restype = ctypes.c_void_p
    lib.repro_simulate_batch_finish.argtypes = [ctypes.c_void_p]
    lib.repro_simulate_batch_finish.restype = None
    lib.repro_fir_batch.argtypes = [
        ctypes.c_int, ctypes.c_int, _TABLE,
        ctypes.c_int, _DOUBLE_P,
        _TABLE, ctypes.c_int,
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


@functools.cache
def _loaded_openblas() -> list[tuple]:
    """Every OpenBLAS copy loaded in this process, as ``(path,
    set_num_threads, get_num_threads)``.  Copies are found among the
    process's mapped shared objects (``/proc/self/maps``; none where
    that file does not exist) and opened with ``RTLD_NOLOAD``, so this
    never loads a library that was not there.  The scan runs once per
    process (forked workers inherit the list): ``import repro.engine``
    maps numpy's and scipy's copies, so a task finds both, and a copy
    mapped later is never pinned."""
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


@contextmanager
def blas_pinned():
    """Pin every loaded OpenBLAS copy to one thread for a block.

    Every task runs inside one
    (:meth:`~repro.service.scheduler.TaskContext.applied`): on a fleet
    worker N fleet processes already cover N cores, while each OpenBLAS
    copy sizes its pool to every core, and the helper thread scipy's
    ``expm`` (in :func:`~repro.engine.plan.discretise_tank`) wakes keeps
    spinning on the core the next worker needs; in process it takes the
    core the kernel's second thread needs.  The kernel's own thread
    team is a separate axis (``REPRO_ENGINE_THREADS``), left alone.

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

    A block records each copy's thread count, pins it, and restores the
    count on exit — on completion, failure or cancellation alike.
    Blocks wrap a task, never a yield, so they nest by that save and
    restore alone.  The thread counts are process state, so the blocks
    belong to the one thread that runs tasks in a process (the daemon's
    job threads run nothing inline, so they never open one); no lock
    guards them, since a fleet worker forked while another thread held
    one would inherit it held.
    """
    pinned = [
        (set_threads, get()) for _, set_threads, get in _loaded_openblas()
    ]
    for set_threads, _ in pinned:
        set_threads(1)
    try:
        yield
    finally:
        for set_threads, count in pinned:
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


def _pointer_table(arrays: Sequence[np.ndarray], length: int) -> array.array:
    """The data addresses of ``arrays``, as a table whose address
    (``buffer_info()[0]``) a kernel takes as a ``double *const *``
    argument.

    Plans share records, so each distinct array is checked and its
    address looked up once.  Each must be a C-contiguous float64 record
    of ``length`` samples.  The caller holds the arrays and the table
    until the kernel is done with them: the batch is finished.
    """
    address: dict[int, int] = {}
    for a in arrays:
        if id(a) in address:
            continue
        if (
            a.dtype != np.float64
            or a.shape != (length,)
            or not a.flags.c_contiguous
        ):
            raise ValueError(
                f"kernel records must be C-contiguous float64 of "
                f"{length} samples, got {a.dtype} {a.shape}"
            )
        address[id(a)] = a.ctypes.data
    return array.array(_ADDRESS, [address[id(a)] for a in arrays])


def _finish_batch(handle: int | None, held: tuple) -> None:
    """Finish a started kernel batch.  ``held`` (every array and table
    the batch reads or writes) rides along only so that it stays alive
    until the kernel's helpers are joined."""
    _lib.repro_simulate_batch_finish(handle)


class NativeRun:
    """A kernel batch in flight: start integrating ``plans`` through the
    compiled kernel and return at once.

    The plans must share one time grid, as the engine's groups do: a
    mixed list has a record of the wrong length, which
    :func:`_pointer_table` refuses before the kernel starts.

    The kernel's helpers work on the batch while the caller goes on;
    :meth:`finish` completes it.  ``overlap`` says whether the caller
    does other work before :meth:`finish`: then the team gets up to one
    helper per lane pack (a one-pack batch gets one too); otherwise the
    caller is one of ``threads`` workers, as in a blocking call.  A
    team of one (``REPRO_ENGINE_THREADS=1`` or a 1-CPU host) spawns no
    helper, so the batch then runs entirely at finish.  The helpers may
    read the batch's records, parameters and tables, and write its
    outputs, until they are joined; the finalizer that finishes the
    batch holds all of those arrays, so a run dropped unfinished (an
    exception between start and finish) finishes itself, joining its
    helpers, before any of them can be freed.
    """

    def __init__(self, plans: Sequence[KeyPlan], overlap: bool):
        if not kernel_available():
            raise RuntimeError("compiled kernel unavailable on this machine")
        n_samples = plans[0].n_samples
        substeps = plans[0].substeps
        params = np.array([_plan_params(p) for p in plans], dtype=np.float64)
        # Per-key outputs: one block per batch would keep every key's
        # block alive for as long as any one of its results is held.
        outs = tuple([np.empty(n_samples) for _ in plans] for _ in range(3))
        n_sub = n_samples * substeps
        tables = (
            _pointer_table([p.gmin_shape for p in plans], n_sub),
            _pointer_table([p.i_noise for p in plans], n_sub),
            _pointer_table([p.comp_noise for p in plans], n_samples),
            _pointer_table([p.comp_noise_out for p in plans], n_samples),
            _pointer_table([p.dither for p in plans], n_samples),
            *[_pointer_table(out, n_samples) for out in outs],
        )
        addresses = [table.buffer_info()[0] for table in tables]
        handle = _lib.repro_simulate_batch_start(
            len(plans), n_samples, substeps,
            *addresses[:5], params.ctypes.data_as(_DOUBLE_P), *addresses[5:],
            kernel_threads(), kernel_simd_lanes(), int(overlap),
        )
        self._plans = plans
        self._outs = outs
        self._finish = weakref.finalize(
            self, _finish_batch, handle, (plans, params, tables, outs)
        )

    def finish(self) -> list[ModulatorResult]:
        """Work through the packs no helper has claimed, join the
        helpers and return the results.  Later calls only return the
        results again."""
        self._finish()
        return [
            ModulatorResult(
                output=output,
                bits=bits,
                tank_voltage=tank_v,
                fs=plan.fs,
                is_bitstream=plan.clocked,
            )
            for plan, output, bits, tank_v in zip(self._plans, *self._outs)
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
    x = np.ascontiguousarray(x)
    out = np.empty((n_rows, out_n))
    rows = _pointer_table(list(x), n_in)
    out_rows = _pointer_table(list(out), out_n)
    rc = _lib.repro_fir_batch(
        n_rows, n_in, rows.buffer_info()[0],
        taps.size, taps.ctypes.data_as(_DOUBLE_P),
        out_rows.buffer_info()[0], kernel_threads(),
    )
    if rc != 0:  # pragma: no cover - scratch allocation failure
        raise MemoryError("repro_fir_batch could not allocate scratch")
    return out
