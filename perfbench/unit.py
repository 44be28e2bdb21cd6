"""One measured unit of a workload, in a fresh interpreter.

``run.py`` starts this script once per unit, so every unit pays the
set-up a user pays: interpreter start, imports and kernel load.  The
unit times that set-up against ``--spawned-at`` (the parent's
``time.monotonic()`` just before it started the process; the clock is
system-wide), runs its work, checks its outputs and prints one JSON
object as its last stdout line.

Units:

* ``warm`` — compile the kernel into the cache and import every module
  once, untimed, so no timed unit pays the one-time compile.
* ``paper-quick`` — the quick-mode experiment registry as one
  in-process ``ExperimentJob`` (what ``python -m
  repro.experiments.runner`` runs).
* ``fleet-provision`` — per lot in ``--lots``, one
  ``ProvisioningJob(n_workers=1)`` of 24 dies x standards 0 and 3 into
  a fresh store.
* ``campaign-serve`` — a daemon plus an HTTP frontend under closed-loop
  load (see ``serve.py``).

``--setup-only`` stops after set-up (set-up samples for the median).
``--trace 1`` wraps the layer functions (see ``spans.py``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys
import time
from pathlib import Path

from procfs import peak_rss_mb

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"

#: Dies per provisioned lot and the standards each die is calibrated at.
FLEET_DIES = 24
FLEET_STANDARDS = (0, 3)

IMPORTS = {
    "warm": ("repro.experiments.runner", "repro.service",
             "repro.campaigns", "repro.calibration.fleet"),
    "paper-quick": ("repro.experiments.runner", "repro.service"),
    "fleet-provision": ("repro.service", "repro.campaigns.campaign",
                        "repro.calibration.fleet"),
    "campaign-serve": ("repro.service", "repro.campaigns",
                       "repro.campaigns.serialization", "serve"),
}


def short_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_digests() -> dict:
    with open(DIGESTS) as fh:
        return json.load(fh)


def run_metadata() -> dict:
    from repro.engine import get_default_engine, native

    engine = get_default_engine()
    if engine.backend == "auto":
        backend = "vectorized" if native.kernel_available() else "reference"
    else:
        backend = engine.backend
    return {
        "cpu_count": os.cpu_count(),
        "usable_cpus": native.usable_cpus(),
        "engine_backend": backend,
        "kernel_simd_width": native.kernel_simd_width(),
        "kernel_threaded": native.kernel_threaded(),
        "env": {
            name: os.environ.get(name)
            for name in (
                "REPRO_ENGINE_THREADS", "OPENBLAS_NUM_THREADS",
                "OMP_NUM_THREADS", "REPRO_SERVICE_WORKERS", "REPRO_FAULTS",
            )
        },
    }


def engine_counters() -> tuple[int, int, float]:
    from repro.engine import get_default_engine

    stats = get_default_engine().stats
    return stats.n_requests, stats.n_batches, stats.integrate_seconds


def drive(job):
    """Submit ``job`` in-process and drive it to the end; returns
    ``(events, error, submit_s, first_event_s)``, ``error`` being the
    first line of a ``JobFailed`` message or None."""
    from repro.service import FoundryService, JobFailed

    start = time.perf_counter()
    handle = FoundryService().submit(job)
    submitted = time.perf_counter()
    events, first_event, error = [], None, None
    try:
        for event in handle.stream():
            if first_event is None:
                first_event = time.perf_counter() - submitted
            events.append(event)
    except JobFailed as exc:
        error = str(exc).splitlines()[0]
    return events, error, submitted - start, first_event or 0.0


def paper_quick(args, tracer) -> dict:
    from repro.service import ExperimentJob

    before = engine_counters()
    start = time.perf_counter()
    events, error, submit_s, first_event_s = drive(ExperimentJob())
    wall = time.perf_counter() - start
    after = engine_counters()
    digests = {e.label: short_digest(e.payload.format_table()) for e in events}
    expected = load_digests()["paper-quick"]
    failed = [
        name for name, digest in expected.items()
        if digests.get(name) != digest
    ]
    return {
        "jobs": [{
            "wall_s": wall,
            "submit_s": submit_s,
            "first_event_s": first_event_s,
            "engine": [a - b for a, b in zip(after, before)],
            "experiments": {e.label: e.seconds for e in events},
        }],
        "attempted": len(expected),
        "failed": len(failed),
        "failures": failed + ([error] if error else []),
        "digests": digests,
    }


def fleet_triples(lot: int) -> tuple:
    return tuple(
        (lot, chip, standard)
        for chip in range(FLEET_DIES) for standard in FLEET_STANDARDS
    )


def triple_digest(triple, result) -> str:
    return short_digest(repr((
        triple, result.config, result.achieved_frequency, result.snr_db,
        result.sfdr_db, result.success, result.n_measurements,
    )))


def fleet_provision(args, tracer) -> dict:
    """One provisioning job per lot in ``--lots``, each into a fresh
    store; the checks run after every job has been timed."""
    from repro.engine import CalibrationStore
    from repro.service import ProvisioningJob

    lots = [int(lot) for lot in args.lots.split(",")]
    jobs = []
    for lot in lots:
        store = Path(args.workdir) / f"store-{os.getpid()}-{lot}"
        job = ProvisioningJob(
            triples=fleet_triples(lot), calibration_store=str(store),
            n_workers=1,
        )
        before = engine_counters()
        start = time.perf_counter()
        _, error, submit_s, first_event_s = drive(job)
        jobs.append({
            "lot": lot, "store": store, "error": error,
            "wall_s": time.perf_counter() - start,
            "submit_s": submit_s, "first_event_s": first_event_s,
            "engine": [a - b for a, b in zip(engine_counters(), before)],
        })
    if tracer is not None:
        tracer.uninstall()  # the output check's reads are not workload
    expected = load_digests()["fleet-provision"]
    failures, digests, failed = [], {}, 0
    for job in jobs:
        triples = fleet_triples(job["lot"])
        stored = CalibrationStore(job["store"]).get_many(triples)
        shutil.rmtree(job.pop("store"), ignore_errors=True)
        got = [
            triple_digest(t, r) if r is not None else None
            for t, r in zip(triples, stored)
        ]
        want = expected.get(str(job["lot"]), [])
        bad = [
            t for i, (t, digest) in enumerate(zip(triples, got))
            if digest is None or i >= len(want) or digest != want[i]
        ]
        digests[job["lot"]] = got
        failed += len(bad)
        failures += [repr(t) for t in bad[:3]]
        if job.pop("error"):
            failures.append(f"lot {job['lot']}: provisioning job failed")
    return {
        "jobs": jobs,
        "attempted": sum(len(fleet_triples(job["lot"])) for job in jobs),
        "failed": failed,
        "failures": failures,
        "digests": digests,
    }


def warm(args, tracer) -> dict:
    from repro.engine import native

    return {"kernel_available": native.kernel_available()}


WORKLOADS = {
    "warm": warm,
    "paper-quick": paper_quick,
    "fleet-provision": fleet_provision,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(IMPORTS))
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--lots", default="2020",
                        help="fleet-provision: comma-separated lot seeds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import importlib

    for name in IMPORTS[args.workload]:
        importlib.import_module(name)
    imported = time.monotonic()
    from repro import faults
    from repro.engine import native

    if faults.ENABLED:
        print("refusing to measure with REPRO_FAULTS armed", file=sys.stderr)
        return 2
    native.kernel_available()
    ready = time.monotonic()
    record = {
        "setup": {
            "import_s": imported - args.spawned_at,
            "kernel_s": ready - imported,
        },
        "metadata": run_metadata(),
    }
    if args.workload == "campaign-serve":
        from serve import campaign_serve

        record.update(campaign_serve(args, record["setup"]))
    elif not args.setup_only:
        tracer = None
        if args.trace:
            from spans import Tracer

            tracer = Tracer(f"{args.workload}/{args.seed}/{os.getpid()}")
            tracer.install()
        record.update(WORKLOADS[args.workload](args, tracer))
        if tracer is not None:
            tracer.uninstall()
            record["trace"] = tracer.summary()
    record["setup_s"] = sum(record["setup"].values())
    record["peak_rss_mb"] = record.get("peak_rss_mb", peak_rss_mb())
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
