"""Cross-process calibration store: share fleet provisioning work.

Calibrating a die is the engine's most expensive cached computation,
and campaign workers are separate processes — each one's in-memory LRU
starts empty, so before this store a fleet-provisioning sweep paid one
full calibration per *worker touching a die* instead of one per die.
The store closes that gap: a directory of atomically-written pickle
files, keyed exactly like the in-memory cache (the campaign layer keys
on ``(lot_seed, chip_id, standard_index)``), that every worker of a
campaign — and, when ``REPRO_CALIBRATION_STORE`` names a directory,
every process of a deployment — reads through.

Design points:

* **Deterministic values only.**  A calibration result is a pure
  function of (die, standard, calibrator settings), so a store hit is
  bitwise the result a recompute would produce (pickle round-trips
  floats exactly) — sharing cannot change any report.
* **Atomic, crash-safe writes.**  Entries are written to a temp file
  and ``os.replace``-d into place; readers never see a torn entry, and
  a corrupt or half-written file is treated as a miss.
* **Integrity-checksummed entries.**  Each entry carries a digest of
  its pickle, verified before unpickling: a complete-but-corrupted
  entry (bit rot, a partial NFS write that still renamed) degrades to
  a miss and a recompute instead of raising ``UnpicklingError`` — or
  unpickling garbage that *doesn't* raise — through ``calibrated()``.
  Entries written before the checksum existed still read (their pickle
  parse is the only check, as before).
* **Keys verified, not trusted.**  File names are key digests; the full
  key is stored inside the entry and checked on read, so a digest
  collision degrades to a miss instead of serving the wrong die.
* **Auditable computes.**  Every :meth:`put` appends one line to
  ``events.log`` (O_APPEND, so concurrent workers interleave whole
  lines).  ``benchmarks/test_bench_campaign.py`` counts those lines to
  guard the "each die calibrated once per fleet, not once per worker"
  property.
* **One write path, no lock.**  Every value enters through :meth:`put`
  (:meth:`put_many` is its bulk form): a provisioning pass streams each
  die's result through it, and
  :meth:`~repro.engine.engine.SimulationEngine.calibrated` puts what it
  computes on a miss.  Nothing elects one computing process per key:
  two processes that miss a key at the same moment may both compute it
  and both rename the same checksummed entry into place — compute time
  lost, never a wrong value, since entries are deterministic and the
  rename is atomic — and a process killed mid-compute leaves nothing
  another process waits on.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from pathlib import Path
from typing import Iterable, Sequence

from repro import faults

#: Name of the per-store compute audit log.
EVENTS_FILE = "events.log"

#: Magic prefix of a checksummed entry: ``MAGIC + sha256(pickle)[:16]
#: + pickle``.  Files without it are pre-checksum entries and read the
#: legacy way.
ENTRY_MAGIC = b"RCS1"

#: Bytes of the sha256 digest stored after the magic.
DIGEST_BYTES = 16


class CalibrationStore:
    """A directory of calibration results shared across processes.

    Reads go through :meth:`get`, writes through :meth:`put` (or its
    bulk form :meth:`put_many`); no call takes a lock.

    Args:
        path: Store directory; created (parents included) when missing.
    """

    def __init__(self, path: str | os.PathLike):
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)

    def _entry(self, key: tuple) -> Path:
        digest = hashlib.sha256(repr(key).encode()).hexdigest()[:24]
        return self.path / f"cal-{digest}.pkl"

    def get(self, key: tuple):
        """The stored value for ``key``, or None on any kind of miss."""
        try:
            with open(self._entry(key), "rb") as fh:
                data = fh.read()
        except OSError:
            return None  # missing
        if data.startswith(ENTRY_MAGIC):
            header = len(ENTRY_MAGIC) + DIGEST_BYTES
            digest = data[len(ENTRY_MAGIC):header]
            payload = data[header:]
            if hashlib.sha256(payload).digest()[:DIGEST_BYTES] != digest:
                return None  # corrupted in place: miss, recompute
        else:
            payload = data  # pre-checksum entry: pickle parse is the check
        try:
            stored_key, value = pickle.loads(payload)
        except Exception:
            # Torn, bit-rotten, or from an incompatible version: a bad
            # pickle can raise nearly anything, and a miss-and-recompute
            # is always safe (entries are deterministic values).
            return None
        if stored_key != key:
            return None  # digest collision: miss, never the wrong die
        return value

    def _write_entry(self, key: tuple, value) -> None:
        entry = self._entry(key)
        payload = pickle.dumps((key, value))
        data = (
            ENTRY_MAGIC
            + hashlib.sha256(payload).digest()[:DIGEST_BYTES]
            + payload
        )
        if faults.ENABLED and faults.fire("store.torn_entry"):
            data = faults.torn(data)
        fd, tmp = tempfile.mkstemp(suffix=".tmp", dir=str(self.path))
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
            os.replace(tmp, entry)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def _event_line(self, key: tuple, event: str = "") -> bytes:
        tag = f" {event}" if event else ""
        return f"{os.getpid()} {key!r}{tag}\n".encode()

    def _append_events(self, data: bytes) -> None:
        if faults.ENABLED and faults.fire("store.torn_audit"):
            data = faults.torn(data.rstrip(b"\n"))
        log_fd = os.open(
            self.path / EVENTS_FILE, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
        )
        try:
            os.write(log_fd, data)
        finally:
            os.close(log_fd)

    def put(self, key: tuple, value, event: str = "") -> None:
        """Atomically store ``value`` under ``key`` and log the compute,
        optionally tagging the audit line (e.g. ``"fleet"`` for lockstep
        provisioning computes)."""
        self._write_entry(key, value)
        self._append_events(self._event_line(key, event))

    def get_many(self, keys: Sequence[tuple]) -> list:
        """Bulk read: the stored value per key, None per miss."""
        return [self.get(key) for key in keys]

    def put_many(self, items: Iterable[tuple[tuple, object]], event: str = "") -> None:
        """Atomically store many entries, logging one audit line each.

        All the lines of one bulk write are appended in a single
        ``O_APPEND`` write, so the batch shows up in ``events.log`` as
        one contiguous block tagged with ``event``.  Line count
        semantics are unchanged: one line per value computed into the
        store.  Provisioning does not call it: a lockstep pass streams
        each die's result through :meth:`put` as the die completes.
        """
        items = list(items)
        for key, value in items:
            self._write_entry(key, value)
        if items:
            self._append_events(
                b"".join(self._event_line(key, event) for key, _ in items)
            )

    def __len__(self) -> int:
        return sum(1 for _ in self.path.glob("cal-*.pkl"))

    def compute_events(self) -> list[str]:
        """The audit log: one line per value computed into the store.

        A torn trailing line — a writer killed mid-append, before the
        terminating newline landed — is dropped rather than surfaced as
        a garbled record (whole lines always end in ``\\n``; audits must
        survive the crashes the journal survives)."""
        try:
            data = (self.path / EVENTS_FILE).read_bytes()
        except OSError:
            return []
        if data and not data.endswith(b"\n"):
            newline = data.rfind(b"\n")
            data = data[: newline + 1] if newline >= 0 else b""
        text = data.decode("utf-8", errors="replace")
        return [line for line in text.splitlines() if line]

    def clear(self) -> None:
        """Drop every entry and the audit log (``clear_caches`` hook)."""
        for entry in self.path.glob("cal-*.pkl"):
            try:
                entry.unlink()
            except OSError:
                pass
        try:
            (self.path / EVENTS_FILE).unlink()
        except OSError:
            pass
