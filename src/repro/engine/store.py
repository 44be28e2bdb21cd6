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
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import time
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

    Args:
        path: Store directory; created (parents included) when missing.
        lock_timeout: How long :meth:`get_or_set` waits on another
            process's in-flight compute of the same key before treating
            its lock as stale (crashed holder) and computing anyway.
        poll_interval: Seconds between lock polls while waiting.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        lock_timeout: float = 600.0,
        poll_interval: float = 0.05,
    ):
        self.path = Path(path)
        self.lock_timeout = lock_timeout
        self.poll_interval = poll_interval
        self.path.mkdir(parents=True, exist_ok=True)

    def _entry(self, key: tuple) -> Path:
        digest = hashlib.sha256(repr(key).encode()).hexdigest()[:24]
        return self.path / f"cal-{digest}.pkl"

    def _lock(self, key: tuple) -> Path:
        return self._entry(key).with_suffix(".lock")

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

    def get_or_set(self, key: tuple, factory):
        """Read-through helper: store hit, else compute and store.

        Concurrent callers of the same key race *cleanly*: a per-key
        lock file (``O_CREAT | O_EXCL``, the portable atomic create)
        elects one process to run ``factory`` while the others poll for
        its entry — one compute in the audit log, every caller handed
        the identical pickle.  A lock file older than ``lock_timeout``
        is treated as a crashed holder's debris: the waiter unlinks it
        and contends for a fresh lock of its own (duplicate work at
        worst, never a deadlock or a wrong value — entries are atomic
        and deterministic — and staleness is the *lock's* age, so
        late-arriving waiters don't each re-wait a full timeout).  A
        ``factory`` that raises releases the lock so waiters can take
        over.
        """
        value = self.get(key)
        if value is not None:
            return value
        lock = self._lock(key)
        while True:
            try:
                fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                try:
                    age = time.time() - os.stat(lock).st_mtime
                except OSError:
                    continue  # lock vanished under us: contend again
                if age > self.lock_timeout:
                    # Crashed holder: clear the debris and contend for
                    # a fresh lock (one unlinker wins the O_EXCL race).
                    try:
                        os.unlink(lock)
                    except OSError:
                        pass
                    continue
                time.sleep(self.poll_interval)
                value = self.get(key)
                if value is not None:
                    return value
                continue
            os.close(fd)
            try:
                # Lock won; the previous holder may have finished the
                # compute between our miss and our acquisition.
                value = self.get(key)
                if value is None:
                    value = factory()
                    self.put(key, value)
                return value
            finally:
                try:
                    os.unlink(lock)
                except OSError:
                    pass

    def clear_locks(self) -> int:
        """Sweep every ``get_or_set`` lock file in the store; returns
        how many were removed.

        A killed process (a SIGKILLed worker or campaign driver) can
        leave its :meth:`get_or_set` lock behind, and waiters would
        poll it for ``lock_timeout`` before computing.  This is for
        callers that know no live holder can exist in the *entire*
        directory — the foundry daemon runs it at startup over its
        store root, before any worker of the new fleet exists, so a
        killed daemon's lock debris never stalls the next one.
        """
        removed = 0
        for lock in self.path.glob("cal-*.lock"):
            try:
                lock.unlink()
                removed += 1
            except OSError:
                pass
        return removed

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
        """Drop every entry, stray lock and the audit log
        (``clear_caches`` hook)."""
        for lock in self.path.glob("cal-*.lock"):
            try:
                lock.unlink()
            except OSError:
                pass
        for entry in self.path.glob("cal-*.pkl"):
            try:
                entry.unlink()
            except OSError:
                pass
        try:
            (self.path / EVENTS_FILE).unlink()
        except OSError:
            pass
