"""The ``repro-wire/1`` framing: length-prefixed request/response frames.

The service speaks a deliberately small binary protocol over TCP, in
the length-prefixed style of every production wire format (and of the
packet buffer :mod:`repro.minidb.protocol` models in miniature)::

    frame := magic(4) | header_len(u32) | payload_len(u32)
             | header JSON (UTF-8) | payload bytes

The **header** is a JSON object carrying the operation and its
metadata (``{"op": "put", "tenant": "web", ...}`` on requests,
``{"ok": true, ...}`` on responses); the **payload** is the raw
artefact — a ``repro-profile 1`` dump, a v2 binary trace, a
``telemetry.jsonl`` log or a ``repro-bench/1`` envelope on uploads, a
rendered dashboard on query responses.  Splitting metadata from bytes
keeps uploads cheap for clients: no base64, no re-encoding, the
artefact travels verbatim and the server digests exactly the bytes the
client read from disk (so content-digest run ids agree between online
and offline ingestion).

Both sides enforce hard size ceilings *before* allocating, so a
malformed or hostile length prefix is an error, never an allocation:
oversized or garbled frames raise :class:`WireError` and the server
drops the connection after a best-effort error reply.

A connection that reads many frames (the server's per-client loop, a
:class:`~repro.service.client.ServiceClient`) passes
:func:`recv_frame` a read-ahead ``buffer`` it keeps for the
connection: each ``recv`` then asks for up to 64 KiB, so a frame under
that size takes one ``recv``, and the bytes past the frame wait in the
buffer for the next one.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Dict, Optional, Tuple

__all__ = [
    "WIRE_SCHEMA",
    "MAGIC",
    "MAX_HEADER_BYTES",
    "MAX_PAYLOAD_BYTES",
    "WireError",
    "send_frame",
    "recv_frame",
    "wait_for_frame",
]

WIRE_SCHEMA = "repro-wire/1"

#: every frame starts with these four bytes; anything else is not ours
MAGIC = b"RPW1"

_PREFIX = struct.Struct("!4sII")

#: ceilings enforced before any allocation happens
MAX_HEADER_BYTES = 1 << 20          # 1 MiB of JSON metadata
MAX_PAYLOAD_BYTES = 64 << 20        # 64 MiB artefact

#: the most one ``recv`` asks for (and so the most a read-ahead holds
#: past the frame it completes)
_RECV_BYTES = 1 << 16


class WireError(Exception):
    """A malformed, truncated or oversized frame."""


def _fill(sock: socket.socket, data: bytearray, size: int,
          read_ahead: bool) -> bool:
    """Receive into ``data`` until it holds ``size`` bytes; False on an
    EOF before any byte of the frame.

    Each ``recv`` asks for ``_RECV_BYTES`` with ``read_ahead``, else for
    no byte past ``size``.  An EOF after part of the frame raises
    :class:`WireError`.
    """
    while len(data) < size:
        chunk = sock.recv(_RECV_BYTES if read_ahead
                          else min(size - len(data), _RECV_BYTES))
        if not chunk:
            if not data:
                return False
            raise WireError(
                f"connection closed mid-frame ({len(data)}/{size} bytes)")
        data += chunk
    return True


def send_frame(sock: socket.socket, header: Dict, payload: bytes = b"") -> None:
    """Send one frame: a JSON ``header`` plus an optional raw ``payload``."""
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    if len(header_bytes) > MAX_HEADER_BYTES:
        raise WireError(f"header too large ({len(header_bytes)} bytes)")
    if len(payload) > MAX_PAYLOAD_BYTES:
        raise WireError(f"payload too large ({len(payload)} bytes)")
    sock.sendall(_PREFIX.pack(MAGIC, len(header_bytes), len(payload))
                 + header_bytes + payload)


def wait_for_frame(sock: socket.socket, buffer: bytearray) -> None:
    """Block until ``buffer``, a connection's read-ahead, holds bytes of
    the next frame, or the peer has closed the connection.

    A server calls it before :func:`recv_frame` to learn when a frame
    starts to arrive, not when it began to wait for one, so the wait for
    a kept-alive client's next request stays out of the frame's timing.
    Its one ``recv``, made only when ``buffer`` is empty, is the one
    :func:`recv_frame` would have made first: no syscall is added but
    at the end of a connection, where :func:`recv_frame` sees the EOF.
    """
    if not buffer:
        buffer += sock.recv(_RECV_BYTES)


def recv_frame(sock: socket.socket, eof_ok: bool = False,
               buffer: Optional[bytearray] = None) -> Optional[Tuple[Dict, bytes]]:
    """Receive one frame; ``None`` on a clean EOF when ``eof_ok``.

    ``buffer`` is the connection's read-ahead (an empty ``bytearray`` at
    its start, then passed to every call): the frame is taken from its
    front, and what a ``recv`` returned past the frame stays in it.
    Without one, no byte past the frame is read.

    Raises :class:`WireError` on a bad magic, an oversized length
    prefix, a truncated frame, or a header that is not a JSON object.
    """
    read_ahead = buffer is not None
    data = buffer if buffer is not None else bytearray()
    if not _fill(sock, data, _PREFIX.size, read_ahead):
        if eof_ok:
            return None
        raise WireError("connection closed before a frame")
    magic, header_len, payload_len = _PREFIX.unpack_from(data)
    if magic != MAGIC:
        raise WireError(f"bad frame magic {magic!r}")
    if header_len > MAX_HEADER_BYTES:
        raise WireError(f"header length {header_len} exceeds "
                        f"{MAX_HEADER_BYTES}")
    if payload_len > MAX_PAYLOAD_BYTES:
        raise WireError(f"payload length {payload_len} exceeds "
                        f"{MAX_PAYLOAD_BYTES}")
    header_end = _PREFIX.size + header_len
    end = header_end + payload_len
    _fill(sock, data, end, read_ahead)
    header_bytes = data[_PREFIX.size:header_end]
    with memoryview(data) as view:
        payload = bytes(view[header_end:end])
    del data[:end]
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as error:
        raise WireError(f"unparseable frame header: {error}") from None
    if not isinstance(header, dict):
        raise WireError("frame header is not a JSON object")
    return header, payload
