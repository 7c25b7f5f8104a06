"""Shared pieces of the durable text and trace formats.

Traces are recorded in the chunked binary v2 format of
:mod:`repro.farm.binfmt`.  This module keeps what that format and the
text artefacts around it share:

* :class:`TraceFileError` — the base of every format error, so a
  caller can reject any malformed input with one ``except``;
  :class:`MalformedRecord` narrows it to a record outside the trace
  vocabulary;
* :func:`escape_name` / :func:`unescape_name` — the routine-name
  escaping of the line-oriented formats: the v2 ``.names`` sidecar and
  the ``repro-profile 1`` dump (:mod:`repro.farm.merge`).  Tabs,
  newlines and backslashes are backslash-escaped on write and restored
  on read, so arbitrary names round-trip.
"""

from __future__ import annotations

from typing import List

__all__ = [
    "TraceFileError",
    "MalformedRecord",
    "escape_name",
    "unescape_name",
]


class TraceFileError(ValueError):
    """Raised on malformed trace files."""


class MalformedRecord(TraceFileError):
    """A record outside the trace vocabulary: an unknown event kind
    byte, or a ``CALL`` routine id outside the string table."""


def escape_name(name: str) -> str:
    """Make a routine name safe for tab/newline-delimited formats.

    Backslash-escapes the two delimiter characters and the escape
    character itself; every other character passes through untouched, so
    escaped names of ordinary routines are byte-identical to the raw
    ones.
    """
    return name.replace("\\", "\\\\").replace("\t", "\\t").replace("\n", "\\n")


def unescape_name(text: str) -> str:
    """Inverse of :func:`escape_name`."""
    if "\\" not in text:
        return text
    out: List[str] = []
    it = iter(text)
    for ch in it:
        if ch != "\\":
            out.append(ch)
            continue
        nxt = next(it, None)
        if nxt == "t":
            out.append("\t")
        elif nxt == "n":
            out.append("\n")
        elif nxt == "\\":
            out.append("\\")
        elif nxt is None:
            raise TraceFileError(f"dangling escape in name {text!r}")
        else:
            bad = "\\" + nxt
            raise TraceFileError(f"bad escape {bad!r} in name {text!r}")
    return "".join(out)
