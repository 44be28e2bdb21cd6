"""Sub-task scheduling tests: partitioned attack cells.

The acceptance property of the partitioned path: a cell whose attack
adapter declares a partition plan (brute-force key-range chunks,
genetic per-generation population slices) is shattered into
scheduler-internal sub-tasks, yet its assembled report — including
``n_queries``, tenant meter totals and the
:class:`~repro.attacks.oracle.QueryBudgetExceeded` refusal point — is
byte-identical to the scalar cell's, across partition sizes, worker
counts and engine backends, on both an in-process job's private fleet
and the daemon's persistent fleet.  Plus the unit semantics of the
plans themselves and of the :class:`~repro.attacks.oracle.ScriptedOracle`
replay.

These tests install no fault plans of their own, so the chaos CI leg
can run them under an ambient ``REPRO_FAULTS`` crash schedule — the
differential must hold there too.
"""

import os
import pickle
import tempfile
import uuid

import numpy as np
import pytest

from repro.attacks.oracle import QueryBudgetExceeded, ScriptedOracle
from repro.campaigns import CampaignCell, ThreatScenario, run_campaign
from repro.campaigns.campaign import cell_partition
from repro.receiver.config import ConfigWord
from repro.service import CampaignJob, DaemonClient, FoundryDaemon, FoundryService


def short_socket() -> str:
    """A socket path short enough for AF_UNIX (pytest tmp_path is not)."""
    return os.path.join(
        tempfile.gettempdir(), f"repro-{uuid.uuid4().hex[:10]}.sock"
    )


@pytest.fixture
def daemon_factory(tmp_path):
    """Start daemons on short sockets and always stop them."""
    started = []

    def factory(tag="d", **kwargs):
        kwargs.setdefault("n_workers", 2)
        daemon = FoundryDaemon(tmp_path / tag, socket=short_socket(), **kwargs)
        daemon.start()
        started.append(daemon)
        return daemon

    yield factory
    for daemon in started:
        daemon.stop()


def report_bytes(reports) -> list:
    """Per-report pickle bytes (the byte-for-byte identity the guards
    compare; see ``tests/test_daemon.py``)."""
    return [pickle.dumps(pickle.loads(pickle.dumps(r))) for r in reports]


def bf_cell(budget=24, seed=5, subtask_keys=0, **scenario_kwargs):
    scenario = ThreatScenario(
        budget=budget, n_fft=1024, seed=seed, **scenario_kwargs
    )
    params = (("subtask_keys", subtask_keys),) if subtask_keys else ()
    return CampaignCell("brute-force", scenario, attack_params=params)


def ga_cell(budget=48, seed=7, subtask_slices=0, sfdr_weight=0.0,
            **scenario_kwargs):
    scenario = ThreatScenario(
        budget=budget, n_fft=1024, seed=seed, **scenario_kwargs
    )
    params = [("population_size", 8)]
    if subtask_slices:
        params.append(("subtask_slices", subtask_slices))
    if sfdr_weight:
        params.append(("sfdr_weight", sfdr_weight))
    return CampaignCell(
        "genetic", scenario, attack_params=tuple(sorted(params))
    )


# ---------------------------------------------------------------------------
# Partition plan semantics
# ---------------------------------------------------------------------------


class TestPartitionPlans:
    def test_unpartitioned_cells_declare_no_plan(self):
        assert cell_partition(bf_cell()) is None  # no knob: scalar
        assert cell_partition(ga_cell()) is None
        # A knob that cannot split the budget stays scalar too.
        assert cell_partition(bf_cell(budget=8, subtask_keys=8)) is None
        # Attacks without a partition protocol run scalar by the base
        # class default.
        removal = CampaignCell(
            "removal", ThreatScenario(budget=6, n_fft=1024, seed=5)
        )
        assert cell_partition(removal) is None

    def test_brute_force_plan_covers_the_key_stream(self):
        plan = cell_partition(bf_cell(budget=20, subtask_keys=8))
        parts = plan.initial_parts()
        assert [(p.start, p.count) for _, p in parts] == [
            (0, 8), (8, 8), (16, 4)
        ]
        # Chunk scores absorb in any order and never fan out further;
        # the script concatenates them back in key-stream order.
        assert plan.absorb(parts[2][0], [3.0]) == []
        assert plan.absorb(parts[0][0], [1.0]) == []
        assert plan.absorb(parts[1][0], [2.0]) == []
        assert plan.script() == {"snrs": [1.0, 2.0, 3.0]}

    def test_brute_force_plan_caps_at_max_queries(self):
        plan = cell_partition(
            bf_cell(budget=20, subtask_keys=8, max_queries=10)
        )
        parts = plan.initial_parts()
        # Speculation never runs past the refusal point.
        assert sum(p.count for _, p in parts) == 10

    def test_genetic_plan_fans_out_generation_by_generation(self):
        plan = cell_partition(ga_cell(budget=32, subtask_slices=2))
        parts = plan.initial_parts()
        assert len(parts) == 2
        assert [pid[:2] for pid, _ in parts] == [("gen", 0), ("gen", 0)]
        total = sum(len(p.keys) for _, p in parts)
        assert total == 8  # the whole generation-0 population, sliced
        # The generation completes only when every slice is absorbed —
        # then the next generation fans out (scores far below spec).
        low = lambda p: [-90.0] * len(p.keys)
        assert plan.absorb(parts[0][0], (low(parts[0][1]), None)) == []
        fresh = plan.absorb(parts[1][0], (low(parts[1][1]), None))
        assert [pid[:2] for pid, _ in fresh] == [("gen", 1), ("gen", 1)]


# ---------------------------------------------------------------------------
# The scripted oracle (sequential replay)
# ---------------------------------------------------------------------------


class TestScriptedOracle:
    def _oracle(self, **kwargs):
        return ThreatScenario(n_fft=1024, seed=5, **kwargs).oracle()

    def test_serves_script_in_order_and_still_charges(self):
        rng = np.random.default_rng(3)
        keys = [ConfigWord.random(rng) for _ in range(4)]
        scripted = ScriptedOracle(self._oracle(), snrs=[1.0, 2.0, 3.0, 4.0])
        assert scripted.snr_batch(keys[:2]) == [1.0, 2.0]
        assert scripted.snr_batch(keys[2:]) == [3.0, 4.0]
        # Charges landed exactly as live measurements would have.
        assert scripted.n_queries == 4
        assert scripted.spec() is not None  # delegation to the oracle

    def test_exhausted_script_falls_back_to_live_measurement(self):
        rng = np.random.default_rng(3)
        keys = [ConfigWord.random(rng) for _ in range(3)]
        live = self._oracle().snr_batch(keys)
        scripted = ScriptedOracle(self._oracle(), snrs=live[:1])
        assert scripted.snr_batch(keys) == live  # head scripted, tail live
        assert scripted.n_queries == 3

    def test_refusal_point_matches_the_live_oracle(self):
        rng = np.random.default_rng(3)
        keys = [ConfigWord.random(rng) for _ in range(5)]
        scripted = ScriptedOracle(
            self._oracle(max_queries=3), snrs=[0.0] * 5
        )
        with pytest.raises(QueryBudgetExceeded):
            scripted.snr_batch(keys)  # charge-first: refused like live
        assert scripted.n_queries == 0  # nothing served past the refusal


# ---------------------------------------------------------------------------
# The bit-exactness differential
# ---------------------------------------------------------------------------


class TestSubTaskDifferential:
    def test_brute_force_partition_sizes_and_worker_counts(self):
        """The tentpole property: one dominant brute-force cell, every
        partition size x worker count reproduces the scalar report
        byte-for-byte — including ``n_queries``."""
        reference = run_campaign([bf_cell()], n_workers=1)
        expected = report_bytes(reference.reports)
        for subtask_keys in (4, 16):
            for n_workers in (2, 4):
                result = run_campaign(
                    [bf_cell(subtask_keys=subtask_keys)], n_workers=n_workers
                )
                assert report_bytes(result.reports) == expected
                assert result.reports[0].n_queries == \
                    reference.reports[0].n_queries

    def test_partitioned_campaign_across_backends(self):
        """Partitioning composes with engine backends: per backend, the
        partitioned fleet run equals that backend's scalar run."""
        cells = [bf_cell(subtask_keys=8), ga_cell(subtask_slices=2)]
        scalar = [bf_cell(), ga_cell()]
        for backend in ("reference", "vectorized"):
            reference = run_campaign(scalar, n_workers=1, backend=backend)
            result = run_campaign(cells, n_workers=2, backend=backend)
            assert report_bytes(result.reports) == report_bytes(
                reference.reports
            )

    def test_genetic_slices_with_and_without_sfdr_blend(self):
        """Per-generation slicing preserves the GA's sequential
        semantics for both fitness shapes (SNR-only and SFDR-blended
        — the blended replay also re-charges SFDR batches)."""
        for sfdr_weight in (0.0, 0.5):
            reference = run_campaign(
                [ga_cell(sfdr_weight=sfdr_weight)], n_workers=1
            )
            expected = report_bytes(reference.reports)
            for subtask_slices in (2, 4):
                result = run_campaign(
                    [ga_cell(subtask_slices=subtask_slices,
                             sfdr_weight=sfdr_weight)],
                    n_workers=2,
                )
                assert report_bytes(result.reports) == expected

    def test_budget_refusal_point_is_identical(self):
        """A query budget below the attack budget: the partitioned run
        refuses at exactly the scalar refusal point (the report's
        exhaustion shape and ``n_queries`` match bit-for-bit)."""
        pairs = [
            (bf_cell(budget=32, max_queries=13),
             bf_cell(budget=32, max_queries=13, subtask_keys=4)),
            (ga_cell(budget=40, max_queries=19),
             ga_cell(budget=40, max_queries=19, subtask_slices=3)),
        ]
        for scalar, partitioned in pairs:
            reference = run_campaign([scalar], n_workers=1)
            result = run_campaign([partitioned], n_workers=2)
            assert report_bytes(result.reports) == report_bytes(
                reference.reports
            )
            assert result.reports[0].n_queries == \
                reference.reports[0].n_queries

    def test_mixed_campaign_with_unpartitioned_cells(self):
        """Partitioned and scalar cells interleave on one queue; cell
        order and every report survive."""
        scalar = [bf_cell(), ga_cell(), bf_cell(seed=9)]
        mixed = [bf_cell(subtask_keys=8), ga_cell(subtask_slices=2),
                 bf_cell(seed=9)]
        reference = run_campaign(scalar, n_workers=1)
        result = run_campaign(mixed, n_workers=4)
        assert report_bytes(result.reports) == report_bytes(
            reference.reports
        )

    def test_dominant_cell_on_the_daemon_fleet(self, daemon_factory):
        """The same differential through the daemon: partitioned cells
        become fleet sub-tasks, assembly emits one cell event each, and
        the reports match the in-process scalar run byte-for-byte."""
        scalar = (bf_cell(), ga_cell())
        cells = (bf_cell(subtask_keys=6), ga_cell(subtask_slices=2))
        reference = FoundryService().submit(
            CampaignJob(cells=scalar, n_workers=1)
        ).result()
        daemon = daemon_factory("subtask", n_workers=2)
        client = DaemonClient(socket=daemon.address)
        handle = client.submit(CampaignJob(cells=cells, n_workers=2))
        events = list(handle.stream())
        result = handle.result(timeout=600)
        assert report_bytes(result.reports) == report_bytes(
            reference.reports
        )
        # Sub-tasks are scheduler-internal: exactly one event per cell.
        assert sorted(e.kind for e in events) == ["cell", "cell"]
