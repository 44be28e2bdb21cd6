"""Benchmark configuration: each benchmark regenerates one paper
artefact, so a single measured round per benchmark keeps the harness
practical while still timing the real workload.

Every ``-m bench`` session also exports a machine-readable
``BENCH_results.json`` (override the path with ``REPRO_BENCH_JSON``):
one record per benchmark with its wall time, any speedup ratio the
benchmark computed (``benchmark.extra_info["speedup"]``), the
*resolved* engine backend (what ``auto`` actually ran), its bench
group and the host's CPU count — the across-PR perf trajectory in a
form scripts can diff, not just the pytest-benchmark table.

Guarded speedup benchmarks that a host cannot run (too few CPUs, no
compiler, no SIMD lanes) are exported as explicit ``skipped: <reason>``
records rather than silently vanishing: a 1-CPU CI host must be
distinguishable from a perf regression in the trajectory diff.  Skip
records additionally carry the last recorded figures for that
benchmark (``last_recorded``: speedup, wall time, CPU count), read
from the previous export before it is overwritten — so a multi-core
measurement survives a string of single-core exports and the
trajectory diff always has *something* to compare against.
"""

import json
import os

import pytest

_skipped_benchmarks = []


@pytest.fixture
def run_once(benchmark):
    """Run the target exactly once under the benchmark timer."""

    def runner(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)

    return runner


def _bench_group(nodeid: str) -> str | None:
    """Bench group from the module name: ``test_bench_engine.py`` ->
    ``engine`` (mirrors pytest-benchmark's per-file grouping)."""
    module = nodeid.split("::", 1)[0].rsplit("/", 1)[-1]
    if not module.endswith(".py"):
        return None
    stem = module[: -len(".py")]
    for prefix in ("test_bench_", "test_"):
        if stem.startswith(prefix):
            return stem[len(prefix) :]
    return stem or None


def pytest_runtest_logreport(report):
    """Collect skipped benchmark tests for the explicit skip records.

    Only benchmark nodeids count: this conftest is loaded by any
    session that collects the ``benchmarks`` testpath (tier-1 included),
    and a skip in ``tests/`` must never trigger a BENCH export.
    """
    if not report.nodeid.startswith("benchmarks/"):
        return
    if report.skipped and report.when in ("setup", "call"):
        reason = ""
        if isinstance(report.longrepr, tuple):
            reason = report.longrepr[2]
        elif report.longrepr is not None:
            reason = str(report.longrepr)
        if reason.startswith("Skipped: "):
            reason = reason[len("Skipped: ") :]
        _skipped_benchmarks.append((report.nodeid, reason))


def _last_recorded(path: str) -> dict:
    """Measured figures per benchmark name from the previous export.

    A benchmark that *ran* contributes its own figures; a skip record
    passes its ``last_recorded`` through unchanged, so a real
    measurement chains across any number of consecutive skipping hosts
    until the benchmark runs again.
    """
    try:
        with open(path) as fh:
            previous = json.load(fh)
    except (OSError, ValueError):
        return {}
    figures_by_name: dict = {}
    for record in previous.get("benchmarks", []):
        name = record.get("name")
        if not name:
            continue
        if record.get("skipped"):
            figures = record.get("last_recorded")
        else:
            figures = {
                key: record[key]
                for key in ("speedup", "wall_seconds", "cpu_count")
                if record.get(key) is not None
            }
        if figures:
            figures_by_name[name] = figures
    return figures_by_name


def _resolved_backend() -> str:
    """What the default engine's backend actually runs as."""
    from repro.engine import get_default_engine, kernel_available

    backend = get_default_engine().backend
    if backend == "auto":
        return "vectorized" if kernel_available() else "reference"
    return backend


def pytest_sessionfinish(session, exitstatus):
    """Write BENCH_results.json from whatever benchmarks actually ran.

    Only ``-m bench`` sessions export: tier-1 collects ``benchmarks/``
    too, and must not rewrite the tracked export as a side effect.
    """
    if session.config.getoption("markexpr", "").strip() != "bench":
        return
    bench_session = getattr(session.config, "_benchmarksession", None)
    ran = bench_session is not None and getattr(bench_session, "benchmarks", None)
    if not ran and not _skipped_benchmarks:
        return
    from repro.engine import (
        get_default_engine,
        kernel_available,
        kernel_simd_width,
        kernel_threaded,
        usable_cpus,
    )

    resolved = _resolved_backend()
    cpus = usable_cpus()
    records = []
    for bench in bench_session.benchmarks if ran else []:
        stats = getattr(bench, "stats", None)
        extra = dict(getattr(bench, "extra_info", {}) or {})
        records.append(
            {
                "name": bench.name,
                "group": getattr(bench, "group", None)
                or _bench_group(bench.fullname),
                "wall_seconds": getattr(stats, "min", None),
                "mean_seconds": getattr(stats, "mean", None),
                "rounds": getattr(stats, "rounds", None),
                "speedup": extra.pop("speedup", None),
                # Per-benchmark override first (a benchmark may pin a
                # backend explicitly), resolved session backend else.
                "backend": extra.pop("backend", None) or resolved,
                "cpu_count": cpus,
                "extra_info": extra,
            }
        )
    path = os.environ.get("REPRO_BENCH_JSON", "BENCH_results.json")
    last_recorded = _last_recorded(path) if _skipped_benchmarks else {}
    for nodeid, reason in _skipped_benchmarks:
        name = nodeid.split("::", 1)[-1]
        record = {
            "name": name,
            "group": _bench_group(nodeid),
            "skipped": reason or "skipped",
            "backend": resolved,
            "cpu_count": cpus,
        }
        if name in last_recorded:
            record["last_recorded"] = last_recorded[name]
        records.append(record)
    payload = {
        "schema": "repro-bench-results/1",
        "exit_status": int(exitstatus),
        "cpu_count": cpus,
        "default_backend": get_default_engine().backend,
        "resolved_backend": resolved,
        "kernel_available": kernel_available(),
        "kernel_threaded": kernel_threaded(),
        "kernel_simd_width": kernel_simd_width(),
        "engine_threads_env": os.environ.get("REPRO_ENGINE_THREADS"),
        "engine_simd_env": os.environ.get("REPRO_ENGINE_SIMD"),
        "benchmarks": records,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
