"""Unit and property tests for the shadow memories."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DictShadow, ShadowMemory


def test_default_is_zero():
    shadow = ShadowMemory()
    assert shadow.get(0) == 0
    assert shadow.get(10**12) == 0
    assert shadow[7] == 0
    assert shadow.chunks_allocated == 0


def test_set_get_roundtrip():
    shadow = ShadowMemory(chunk_size=16, secondary_size=4)
    shadow.set(5, 42)
    shadow.set(63, 7)       # same secondary, different chunk
    shadow.set(64, 9)       # next secondary
    assert shadow.get(5) == 42
    assert shadow.get(63) == 7
    assert shadow.get(64) == 9
    assert shadow.get(6) == 0


def test_dict_style_access():
    shadow = ShadowMemory()
    shadow[123] = 99
    assert shadow[123] == 99


def test_overwrite():
    shadow = ShadowMemory()
    shadow.set(1, 5)
    shadow.set(1, 6)
    assert shadow.get(1) == 6


def test_chunk_accounting_is_lazy():
    shadow = ShadowMemory(chunk_size=8, secondary_size=4)
    assert shadow.chunks_allocated == 0
    shadow.set(0, 1)
    assert shadow.chunks_allocated == 1
    shadow.set(7, 1)      # same chunk
    assert shadow.chunks_allocated == 1
    shadow.set(8, 1)      # next chunk
    assert shadow.chunks_allocated == 2
    assert shadow.space_bytes() == 2 * 8 * ShadowMemory.ENTRY_BYTES


def test_reading_does_not_allocate():
    shadow = ShadowMemory(chunk_size=8, secondary_size=4)
    for addr in range(100):
        shadow.get(addr)
    assert shadow.chunks_allocated == 0


def test_items_yields_nonzero_entries():
    shadow = ShadowMemory(chunk_size=4, secondary_size=2)
    shadow.set(3, 30)
    shadow.set(9, 90)
    shadow.set(9, 0)   # explicitly zeroed entries are skipped
    assert dict(shadow.items()) == {3: 30}


def test_clear():
    shadow = ShadowMemory(chunk_size=4, secondary_size=2)
    shadow.set(1, 1)
    shadow.clear()
    assert shadow.get(1) == 0
    assert shadow.chunks_allocated == 0


def test_sparse_far_addresses():
    shadow = ShadowMemory(chunk_size=16, secondary_size=4)
    far = 10**15
    shadow.set(far, 77)
    assert shadow.get(far) == 77
    assert shadow.chunks_allocated == 1


def test_invalid_geometry_rejected():
    import pytest

    with pytest.raises(ValueError):
        ShadowMemory(chunk_size=0)
    with pytest.raises(ValueError):
        ShadowMemory(secondary_size=-1)


def test_dict_shadow_matches_interface():
    shadow = DictShadow()
    shadow.set(4, 2)
    shadow[5] = 3
    assert shadow.get(4) == 2
    assert shadow[5] == 3
    assert dict(shadow.items()) == {4: 2, 5: 3}
    shadow.set(4, 0)
    assert dict(shadow.items()) == {5: 3}
    assert shadow.space_bytes() == DictShadow.ENTRY_BYTES
    shadow.clear()
    assert shadow.get(5) == 0
    assert shadow[5] == 0
    assert len(shadow) == 0   # reading an unset cell stores nothing


@settings(max_examples=60)
@given(
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=500), st.integers(min_value=0, max_value=2**31)),
        max_size=80,
    )
)
def test_shadow_memory_equivalent_to_dict(writes):
    """Property: the 3-level table behaves exactly like a plain dict."""
    chunked = ShadowMemory(chunk_size=8, secondary_size=4)
    reference = DictShadow()
    for addr, value in writes:
        chunked.set(addr, value)
        reference.set(addr, value)
    for addr in range(501):
        assert chunked.get(addr) == reference.get(addr)
        assert chunked[addr] == reference[addr] == reference.get(addr)
    assert dict(chunked.items()) == dict(reference.items())
