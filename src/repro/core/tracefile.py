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
  the ``repro-profile 1`` dump (:mod:`repro.farm.merge`).  Backslashes,
  tabs and every character that ends a line for ``str.splitlines`` or
  universal-newline reading (``\\r``, ``\\x85``, ``\\u2028``, …) are
  escaped on write and restored on read, so arbitrary names round-trip.
"""

from __future__ import annotations

from itertools import islice
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


#: what :func:`escape_name` rewrites: the escape character, the two
#: delimiters, and every other character at which ``str.splitlines`` or
#: universal-newline reading ends a line — none of them printable, so a
#: printable name without a backslash passes through untouched
_ESCAPES = {ord("\\"): "\\\\", ord("\t"): "\\t", ord("\n"): "\\n", ord("\r"): "\\r"}
_ESCAPES.update({ord(char): f"\\u{ord(char):04x}"
                 for char in "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"})
_UNESCAPES = {escape: chr(code) for code, escape in _ESCAPES.items()}


def escape_name(name: str) -> str:
    """Make a routine name safe for the line-oriented formats.

    Backslash-escapes the escape character itself, tab (``\\t``),
    newline (``\\n``) and carriage return (``\\r``); the other line
    separators (``\\x0b \\x0c \\x1c \\x1d \\x1e \\x85 \\u2028 \\u2029``)
    become ``\\u`` plus four lowercase hex digits.  Every other
    character passes through untouched, so escaped names of ordinary
    routines are byte-identical to the raw ones.
    """
    if "\\" not in name and name.isprintable():
        return name
    return name.translate(_ESCAPES)


def unescape_name(text: str) -> str:
    """Inverse of :func:`escape_name`; any other escape is a
    :class:`TraceFileError`."""
    if "\\" not in text:
        return text
    out: List[str] = []
    it = iter(text)
    for ch in it:
        if ch != "\\":
            out.append(ch)
            continue
        nxt = next(it, None)
        if nxt is None:
            raise TraceFileError(f"dangling escape in name {text!r}")
        escape = "\\" + nxt
        if nxt == "u":
            escape += "".join(islice(it, 4))
        plain = _UNESCAPES.get(escape)
        if plain is None:
            raise TraceFileError(f"bad escape {escape!r} in name {text!r}")
        out.append(plain)
    return "".join(out)
