"""Fuzzing the ingest boundary: any bytes end in a record or a ``ValueError``.

Inputs are arbitrary bytes and mutations of the artefacts of
``test_ingest.py`` (byte flips, truncations, inserted JSON punctuation,
deleted spans).  ``record_from_bytes`` must build a record or raise
``ValueError``; ``record_from_path`` on a file holding the same bytes,
named with no suffix or with ``.json``, must build the equal record or
raise the same exception type with the same message, the path standing
where the bytes' name stands.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.observatory import RunRecord, record_from_bytes, record_from_path

from .test_ingest import ARTEFACTS, STAMP

NAME = "upload"
PUNCTUATION = b'{}[]",:'

_position = st.integers(min_value=0, max_value=1 << 20)
_mutation = st.one_of(
    st.tuples(st.just("flip"), _position, st.integers(min_value=1, max_value=255)),
    st.tuples(st.just("truncate"), _position),
    st.tuples(st.just("insert"), _position, st.sampled_from(PUNCTUATION)),
    st.tuples(st.just("delete"), _position, st.integers(min_value=1, max_value=64)),
)


def mutate(data: bytes, mutations) -> bytes:
    out = bytearray(data)
    for op, position, *arg in mutations:
        at = position % (len(out) + 1)
        if op == "flip" and at < len(out):
            out[at] ^= arg[0]
        elif op == "truncate":
            del out[at:]
        elif op == "insert":
            out.insert(at, arg[0])
        elif op == "delete":
            del out[at:at + arg[0]]
    return bytes(out)


@pytest.fixture(scope="module")
def seeds(tmp_path_factory):
    root = tmp_path_factory.mktemp("seeds")
    return {kind: build(root) for kind, build in ARTEFACTS.items()}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    return tmp_path_factory.mktemp("files")


def outcome(build):
    """The record ``build()`` returns, or the ``ValueError`` it raises;
    any other exception fails the test."""
    try:
        return build()
    except ValueError as error:
        return error


def check(data: bytes, directory) -> None:
    from_bytes = outcome(lambda: record_from_bytes(data, timestamp=STAMP, name=NAME))
    assert isinstance(from_bytes, (RunRecord, ValueError))
    for name in ("artefact", "artefact.json"):
        path = directory / name
        path.write_bytes(data)
        from_path = outcome(lambda: record_from_path(str(path), timestamp=STAMP))
        if isinstance(from_bytes, RunRecord):
            assert from_path == from_bytes
        else:
            assert type(from_path) is type(from_bytes)
            assert str(from_path).replace(str(path), NAME) == str(from_bytes)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(kind=st.sampled_from(sorted(ARTEFACTS)),
       mutations=st.lists(_mutation, min_size=1, max_size=4))
def test_mutated_artefacts_fail_typed_and_alike(seeds, files, kind, mutations):
    check(mutate(seeds[kind], mutations), files)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.one_of(
    st.binary(max_size=200),
    st.sampled_from([b"RPTRACE2", b"repro-profile 1\n", b'{"type": "meta"}\n', b"{"])
    .flatmap(lambda head: st.binary(max_size=200).map(lambda tail: head + tail)),
))
def test_arbitrary_bytes_fail_typed_and_alike(files, data):
    check(data, files)
