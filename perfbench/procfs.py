"""What the benchmark reads from ``/proc``: CPU time, peak memory and
the processes a unit started, none of which the program reports."""

from __future__ import annotations

import os

CLK_TCK = os.sysconf("SC_CLK_TCK")


def stat_fields(pid) -> list[str] | None:
    """Fields of ``/proc/<pid>/stat`` after the command name (state,
    ppid, pgrp, ...), or None when the process is gone."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()
    except OSError:
        return None


def _live(match) -> list[int]:
    """Live (not zombie) processes whose stat fields satisfy ``match``."""
    found = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = stat_fields(entry)
            if fields is not None and fields[0] != "Z" and match(fields):
                found.append(int(entry))
    return sorted(found)


def children_of(pid: int) -> list[int]:
    return _live(lambda fields: int(fields[1]) == pid)


def group_members(pgid: int) -> list[int]:
    return _live(lambda fields: int(fields[2]) == pgid)


def alive(pid: int) -> bool:
    fields = stat_fields(pid)
    return fields is not None and fields[0] != "Z"


def cpu_seconds(pid: int) -> float:
    """utime + stime of a process (all its threads), 0 when gone."""
    fields = stat_fields(pid)
    if fields is None:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / CLK_TCK


def peak_rss_mb(pid="self") -> float:
    """Peak resident set (VmHWM) of a process, MB; 0 when it is gone."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0
