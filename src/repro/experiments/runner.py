"""Engine-aware experiment registry and report runner.

``python -m repro.experiments.runner`` regenerates all paper artefacts
(quick mode by default; ``--full`` uses paper-size parameters).  Every
artefact is an :class:`ExperimentSpec` in a named registry, so runs can
be filtered (``--only fig7 --only fig9``), listed (``--list``) and
timed per experiment; ``--backend`` selects the simulation-engine
backend (the backends are bit-exact, so the numbers are identical —
only the wall clock changes) and ``--json PATH`` additionally writes
every result as a machine-readable artefact through the campaign
serialization helpers.

Execution is a thin client of the foundry service
(:mod:`repro.service`): the selected registry entries become one
:class:`~repro.service.jobs.ExperimentJob`, and the tables print as
the handle streams each completed experiment.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from typing import Callable, Mapping

from repro.engine import BACKENDS, get_default_engine
from repro.experiments import (
    fig07_invalid_keys,
    fig08_transient,
    fig09_receiver_snr,
    fig10_psd,
    fig11_dynamic_range,
    fig12_sfdr,
    security_optimization,
    security_sat,
    sweep_standards,
    table_attack_cost,
    table_baselines,
    table_keyspace,
)
from repro.experiments.common import ExperimentResult


@dataclass(frozen=True)
class ExperimentSpec:
    """One registered experiment.

    Attributes:
        name: Registry key (the artefact id, e.g. ``fig7``).
        title: Human-readable summary for ``--list``.
        run: Driver callable returning an :class:`ExperimentResult`.
        quick: Keyword arguments for quick mode.
        full: Keyword arguments for paper-size mode.
    """

    name: str
    title: str
    run: Callable[..., ExperimentResult]
    quick: Mapping[str, object] = field(default_factory=dict)
    full: Mapping[str, object] = field(default_factory=dict)

    def execute(self, full: bool = False) -> ExperimentResult:
        """Run the driver with the mode's parameters."""
        kwargs = dict(self.full if full else self.quick)
        return self.run(**kwargs)


#: Registration order is report order.
REGISTRY: dict[str, ExperimentSpec] = {}


def register(spec: ExperimentSpec) -> ExperimentSpec:
    """Add an experiment to the registry (name must be unique)."""
    if spec.name in REGISTRY:
        raise ValueError(f"experiment {spec.name!r} already registered")
    REGISTRY[spec.name] = spec
    return spec


for _spec in (
    ExperimentSpec(
        "fig7", "SNR at modulator output, correct vs invalid keys",
        fig07_invalid_keys.run,
        quick={"n_keys": 30, "n_fft": 2048},
        full={"n_keys": 100, "n_fft": 8192},
    ),
    ExperimentSpec(
        "fig8", "transient bitstream vs analog passthrough",
        fig08_transient.run,
        quick={"n_samples": 256}, full={"n_samples": 512},
    ),
    ExperimentSpec(
        "fig9", "SNR at receiver output, same key population",
        fig09_receiver_snr.run,
        quick={"n_keys": 20, "n_baseband": 256},
        full={"n_keys": 100, "n_baseband": 512},
    ),
    ExperimentSpec(
        "fig10", "output PSD, noise shaping vs none",
        fig10_psd.run,
        quick={"n_fft": 4096}, full={"n_fft": 8192},
    ),
    ExperimentSpec(
        "fig11", "SNR vs input power over three VGLNA segments",
        fig11_dynamic_range.run,
        quick={"power_step_dbm": 10.0, "n_fft": 2048},
        full={"power_step_dbm": 5.0, "n_fft": 4096},
    ),
    ExperimentSpec(
        "fig12", "two-tone SFDR",
        fig12_sfdr.run,
        quick={"n_fft": 4096}, full={"n_fft": 8192},
    ),
    ExperimentSpec(
        "tab-attack", "Sec. VI-B.1 brute-force cost accounting",
        table_attack_cost.run,
        quick={"n_keys": 30, "n_fft": 2048},
        full={"n_keys": 100, "n_fft": 2048},
    ),
    ExperimentSpec(
        "tab-keys", "Sec. VI-B key-space structure",
        table_keyspace.run,
        quick={"trials_per_distance": 4}, full={"trials_per_distance": 8},
    ),
    ExperimentSpec(
        "tab-ovr", "Secs. II/IV-A comparison vs prior schemes",
        table_baselines.run,
        quick={"n_random_keys": 8}, full={"n_random_keys": 16},
    ),
    ExperimentSpec(
        "sweep-std", "lock efficiency across centre frequencies",
        sweep_standards.run,
        quick={"standard_indices": (0, 7), "n_keys": 10},
        full={"standard_indices": (0, 2, 5, 7), "n_keys": 20},
    ),
    ExperimentSpec(
        "sat-na", "Sec. IV-B.1 SAT-attack applicability",
        security_sat.run,
        quick={"n_key_bits": 6}, full={"n_key_bits": 8},
    ),
    ExperimentSpec(
        "opt-attack", "Sec. IV-B.3 uninformed attacks vs calibration",
        security_optimization.run,
        quick={"budget": 60}, full={"budget": 150},
    ),
):
    register(_spec)


def run_all(
    full: bool = False,
    stream=None,
    backend: str | None = None,
    names: list[str] | None = None,
    json_path: str | None = None,
) -> list[ExperimentResult]:
    """Run the selected experiments; returns the result list.

    Args:
        full: Paper-size parameters instead of quick mode.
        stream: Output stream (stdout by default).
        backend: Optional engine backend override for the whole run.
        names: Optional registry-name filter (report order preserved).
        json_path: When given, every result plus the timing/engine
            summary is also written there as JSON.
    """
    from repro.service import ExperimentJob, FoundryService

    stream = stream or sys.stdout
    engine = get_default_engine()
    # The job restores the engine's backend when it ends, so name the
    # one it runs before submitting it.
    ran_backend = backend or engine.backend
    handle = FoundryService().submit(
        ExperimentJob(
            names=tuple(names) if names else None, full=full, backend=backend
        )
    )
    results = []
    timings: list[tuple[str, float]] = []
    for event in handle.stream():
        result = event.payload
        results.append(result)
        timings.append((event.label, event.seconds))
        print(result.format_table(), file=stream)
        print(f"# completed in {event.seconds:.1f} s\n", file=stream)
    print("== timing summary ==", file=stream)
    for name, elapsed in timings:
        print(f"{name:12s} {elapsed:8.1f} s", file=stream)
    print(
        f"# engine backend={ran_backend}: {engine.stats.n_requests} "
        f"simulations in {engine.stats.n_batches} batches "
        f"({engine.stats.n_vectorized_runs} vectorized, "
        f"{engine.stats.n_reference_runs} reference), "
        f"{engine.stats.integrate_seconds:.1f} s integrating",
        file=stream,
    )
    if json_path is not None:
        from repro.campaigns.serialization import (
            dump_json,
            experiment_result_to_dict,
            jsonable,
        )

        dump_json(
            json_path,
            {
                "schema": "repro.experiments/v1",
                "mode": "full" if full else "quick",
                "backend": ran_backend,
                "experiments": [
                    {
                        **experiment_result_to_dict(result),
                        "elapsed_seconds": round(elapsed, 3),
                    }
                    for result, (_, elapsed) in zip(results, timings)
                ],
                "engine": jsonable(vars(engine.stats)),
            },
        )
    return results


def main(argv: list[str] | None = None) -> None:
    """CLI entry point."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--full", action="store_true", help="paper-size parameters (slower)"
    )
    parser.add_argument(
        "--backend",
        choices=BACKENDS,
        default=None,
        help="simulation engine backend (bit-exact; affects speed only)",
    )
    parser.add_argument(
        "--only",
        action="append",
        metavar="NAME",
        help="run only the named experiment (repeatable)",
    )
    parser.add_argument(
        "--list", action="store_true", help="list registered experiments"
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also dump every result as a machine-readable JSON artefact",
    )
    args = parser.parse_args(argv)
    if args.list:
        for spec in REGISTRY.values():
            print(f"{spec.name:12s} {spec.title}")
        return
    run_all(
        full=args.full, backend=args.backend, names=args.only, json_path=args.json
    )


if __name__ == "__main__":
    main()
