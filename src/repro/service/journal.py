"""On-disk job journal: finished tasks survive a killed campaign.

The journal reuses the :class:`~repro.engine.store.CalibrationStore`
machinery — atomic temp-file-and-rename pickles keyed by verified
tuples, an O_APPEND audit log — so a campaign killed mid-flight leaves
only whole, readable entries behind.  Each completed cell journals as
``("cell", index) -> (label, report, seconds)`` the moment its result
reaches the parent; resubmitting the identical job replays those
entries instead of re-executing the cells, and because an
:class:`~repro.campaigns.report.AttackReport` is a deterministic value
the resumed run's reports are bit-identical to an uninterrupted run's.

A journal belongs to exactly one cell list: a manifest
(``job.json``) records a fingerprint of the cells at first bind, and
binding a journal to a *different* cell list raises
:class:`~repro.service.jobs.JournalMismatch` instead of silently
serving another campaign's reports.  A torn or truncated entry (the
kill landed mid-write before the rename) degrades to a miss and the
cell simply re-executes.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

from repro import faults
from repro.engine.store import CalibrationStore, ENTRY_MAGIC
from repro.service.jobs import JournalMismatch

#: Manifest file binding a journal directory to one job's cell list.
MANIFEST_FILE = "job.json"

#: Manifest schema tag.
SCHEMA = "repro.service/journal-v1"


def cells_fingerprint(cells) -> str:
    """Deterministic digest of a cell list (cells are frozen dataclasses
    of plain data, so their reprs are stable across processes)."""
    digest = hashlib.sha256()
    for cell in cells:
        digest.update(repr(cell).encode())
        digest.update(b"\0")
    return digest.hexdigest()


class JobJournal:
    """A directory holding one job's finished task results.

    Layout: ``job.json`` (the binding manifest), ``tasks/`` (the
    CalibrationStore-backed entry files and audit log) and ``calstore/``
    (offered to the campaign as its shared calibration store, so a
    resumed campaign also starts from warm die calibrations).
    """

    def __init__(self, path: str | os.PathLike):
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        self._tasks = CalibrationStore(self.path / "tasks")

    # -- binding ----------------------------------------------------------

    def bind(self, fingerprint: str, meta: dict | None = None) -> bool:
        """Bind this journal to a job, or verify an existing binding.

        Returns True when the journal was already bound (a resume) and
        False when this call created the manifest (a fresh journal).
        Raises :class:`JournalMismatch` when the journal is bound to a
        different fingerprint.
        """
        manifest_path = self.path / MANIFEST_FILE
        payload = {"schema": SCHEMA, "fingerprint": fingerprint}
        payload.update(meta or {})
        try:
            # O_CREAT|O_EXCL (the portable atomic create): exactly one
            # of two drivers racing to bind a fresh directory creates
            # the manifest; the loser falls through to verification, so
            # concurrent binds with different cell lists cannot both
            # claim the ("cell", index) key namespace.
            fd = os.open(
                manifest_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644
            )
        except FileExistsError:
            try:
                manifest = json.loads(manifest_path.read_text())
            except (OSError, json.JSONDecodeError):
                manifest = {}
            if manifest.get("fingerprint") != fingerprint:
                raise JournalMismatch(
                    f"journal at {self.path} was written by a different job "
                    f"(fingerprint {manifest.get('fingerprint')!r} != "
                    f"{fingerprint!r}); name a fresh journal directory"
                )
            return True
        with os.fdopen(fd, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        return False

    # -- entries ----------------------------------------------------------

    def put_cell(self, index: int, label: str, report, seconds: float) -> None:
        """Persist one finished cell (atomic; audit-logged)."""
        if faults.ENABLED and faults.fire("journal.torn_append"):
            # A crash mid-append: the entry lands truncated and unlogged,
            # so a resume treats this cell as unfinished and re-executes
            # it — the result it re-derives is the identical value.
            entry = self._tasks._entry(("cell", index))
            entry.write_bytes(faults.torn(ENTRY_MAGIC + bytes(16)))
            return
        self._tasks.put(("cell", index), (label, report, seconds), event=label)

    def get_cell(self, index: int):
        """The journaled ``(label, report, seconds)`` or None."""
        return self._tasks.get(("cell", index))

    def completed_cells(self, n_cells: int) -> dict:
        """Every journaled cell of an ``n_cells`` job, by index."""
        found = {}
        for index in range(n_cells):
            entry = self.get_cell(index)
            if entry is not None:
                found[index] = entry
        return found

    def calibration_store_path(self) -> str:
        """The journal's bundled calibration-store directory."""
        return str(self.path / "calstore")

    def events(self) -> list[str]:
        """Audit lines: one per task journaled (never per replay)."""
        return self._tasks.compute_events()
