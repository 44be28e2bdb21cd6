"""Wire protocol of the foundry daemon: length-prefixed JSON frames.

One frame is a 4-byte big-endian length followed by that many bytes of
UTF-8 JSON.  Control fields (operation, job id, tenant, status) are
plain JSON so any client can speak the protocol; *values* that must
round-trip bit-identically — submitted jobs, :class:`~repro.service.
jobs.TaskEvent` payloads, campaign results — travel as base64-encoded
pickles inside the JSON frame (:func:`encode_payload` /
:func:`decode_payload`), because an :class:`~repro.campaigns.report.
AttackReport` is a deterministic value and pickling is the identity
the journal already relies on.  The daemon is therefore a *trusted*
local service: never point a client at a socket you do not control
(pickle executes on decode), exactly like the on-disk journal.

Addresses are either a filesystem path (Unix domain socket — the
default, ``<root>/daemon.sock``) or ``host:port`` (TCP, for one lab
network sharing a daemon).  ``REPRO_SERVICE_SOCKET`` names the default
address for both the daemon and every client;
``REPRO_SERVICE_TENANT`` names the client's default tenant.
"""

from __future__ import annotations

import base64
import json
import os
import pickle
import socket
import struct

from repro import faults

#: Environment variable naming the daemon address (socket path or
#: ``host:port``) for the daemon and every client.
SERVICE_SOCKET_ENV = "REPRO_SERVICE_SOCKET"

#: Environment variable naming the client's default tenant.
SERVICE_TENANT_ENV = "REPRO_SERVICE_TENANT"

#: Refuse frames beyond this many bytes: a corrupt length prefix must
#: not look like a multi-gigabyte allocation request.
MAX_FRAME_BYTES = 256 * 1024 * 1024

_HEADER = struct.Struct(">I")


class ProtocolError(RuntimeError):
    """The peer sent bytes that are not a well-formed frame."""


def encode_payload(obj) -> str:
    """Pickle ``obj`` and wrap it for a JSON frame (base64 text)."""
    return base64.b64encode(pickle.dumps(obj)).decode("ascii")


def decode_payload(text: str):
    """Inverse of :func:`encode_payload`."""
    return pickle.loads(base64.b64decode(text.encode("ascii")))


def send_frame(sock: socket.socket, obj: dict) -> None:
    """Send one length-prefixed JSON frame."""
    data = json.dumps(obj, separators=(",", ":")).encode("utf-8")
    packet = _HEADER.pack(len(data)) + data
    if faults.ENABLED:
        if faults.fire("frame.drop"):
            # The frame vanishes and the connection tears, the way a
            # mid-stream network failure looks to both peers.
            raise faults.FaultInjected("fault injected: frame dropped")
        if faults.fire("frame.truncate"):
            sock.sendall(faults.torn(packet))
            raise faults.FaultInjected("fault injected: frame truncated")
    sock.sendall(packet)


def _recv_exact(
    sock: socket.socket, n: int, eof_ok: bool = False
) -> bytes | None:
    """Read exactly ``n`` bytes; None on EOF at a frame boundary.

    With ``eof_ok`` (the length-prefix read), a peer that closes
    *mid-prefix* also reads as a clean EOF: a dying peer tears its
    connection at whatever byte its kernel buffer happened to flush,
    and the first 1-3 bytes of a length prefix carry no information
    worth reporting — both the daemon loop and the client treat it
    exactly like a close between frames.  A close mid-*payload* stays a
    :class:`ProtocolError`: the peer promised ``length`` bytes and
    broke the promise, which the caller may want to distinguish (the
    client's stream resume does).
    """
    chunks = []
    got = 0
    while got < n:
        chunk = sock.recv(min(n - got, 1 << 20))
        if not chunk:
            if got == 0 or eof_ok:
                return None
            raise ProtocolError(
                f"connection closed mid-frame ({got} of {n} bytes)"
            )
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> dict | None:
    """Receive one frame; None when the peer closed cleanly — between
    frames or mid-length-prefix (see :func:`_recv_exact`)."""
    header = _recv_exact(sock, _HEADER.size, eof_ok=True)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {length} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"
        )
    body = _recv_exact(sock, length)
    if body is None:
        raise ProtocolError("connection closed between header and body")
    try:
        obj = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"frame body is not JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ProtocolError(f"frame must be a JSON object, got {type(obj).__name__}")
    return obj


def event_to_wire(event) -> dict:
    """One :class:`~repro.service.jobs.TaskEvent` as a wire dict:
    control fields plain JSON, payload pickled (bit-identity)."""
    return {
        "kind": event.kind,
        "label": event.label,
        "index": event.index,
        "seconds": event.seconds,
        "payload": encode_payload(event.payload),
    }


def event_from_wire(wire: dict):
    """Inverse of :func:`event_to_wire`."""
    from repro.service.jobs import TaskEvent

    return TaskEvent(
        kind=wire["kind"],
        label=wire["label"],
        index=wire["index"],
        payload=decode_payload(wire["payload"]),
        seconds=wire["seconds"],
    )


def parse_address(spec: str) -> tuple[str, object]:
    """Classify an address spec: ``("unix", path)`` or ``("tcp", (host, port))``.

    A spec whose final colon-separated field is all digits is TCP
    (``localhost:7070``); anything else — including every filesystem
    path — is a Unix socket path.
    """
    if not spec:
        raise ValueError(
            "empty daemon address; pass a socket path or host:port "
            f"(or set {SERVICE_SOCKET_ENV})"
        )
    host, _, port = spec.rpartition(":")
    if host and port.isdigit() and os.sep not in spec:
        return "tcp", (host, int(port))
    return "unix", spec


def default_address() -> str | None:
    """The ``REPRO_SERVICE_SOCKET`` address, or None when unset."""
    spec = os.environ.get(SERVICE_SOCKET_ENV)
    return spec if spec else None


def connect(spec: str, timeout: float | None = None) -> socket.socket:
    """Open a client connection to a daemon address."""
    family, target = parse_address(spec)
    if family == "unix":
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    else:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.settimeout(timeout)
    try:
        sock.connect(target)
    except OSError:
        sock.close()
        raise
    return sock


def bind(spec: str) -> socket.socket:
    """Create the daemon's listening socket for an address.

    A stale Unix socket file left by a killed daemon is unlinked first
    — binding over it would otherwise fail forever.
    """
    family, target = parse_address(spec)
    if family == "unix":
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            sock.bind(target)
        except OSError:
            probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                probe.connect(target)
            except OSError:
                probe.close()
                os.unlink(target)  # stale: nobody is listening
                sock.bind(target)
            else:
                probe.close()
                sock.close()
                raise OSError(f"a daemon is already listening on {target}")
    else:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind(target)
    sock.listen(64)
    return sock
