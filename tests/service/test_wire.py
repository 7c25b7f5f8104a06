"""Framing tests: round trips, ceilings, truncation, garbage."""

import json
import socket
import struct
import threading

import pytest

from repro.service import (
    MAGIC,
    MAX_HEADER_BYTES,
    MAX_PAYLOAD_BYTES,
    ProfileServer,
    WireError,
    recv_frame,
    send_frame,
)
from repro.service.wire import wait_for_frame


def pair():
    return socket.socketpair()


def test_round_trip_header_and_payload():
    left, right = pair()
    try:
        send_frame(left, {"op": "put", "tenant": "web"}, b"\x00\x01binary")
        header, payload = recv_frame(right)
        assert header == {"op": "put", "tenant": "web"}
        assert payload == b"\x00\x01binary"
    finally:
        left.close()
        right.close()


def test_empty_payload_round_trip():
    left, right = pair()
    try:
        send_frame(left, {"op": "ping"})
        header, payload = recv_frame(right)
        assert header["op"] == "ping"
        assert payload == b""
    finally:
        left.close()
        right.close()


def test_many_frames_on_one_connection():
    left, right = pair()
    try:
        for index in range(5):
            send_frame(left, {"seq": index}, bytes([index]) * index)
        for index in range(5):
            header, payload = recv_frame(right)
            assert header["seq"] == index
            assert payload == bytes([index]) * index
    finally:
        left.close()
        right.close()


def test_clean_eof_returns_none_when_allowed():
    left, right = pair()
    left.close()
    try:
        assert recv_frame(right, eof_ok=True) is None
        with pytest.raises(WireError):
            recv_frame(right)
    finally:
        right.close()


def test_bad_magic_raises():
    left, right = pair()
    try:
        left.sendall(struct.pack("!4sII", b"HTTP", 2, 0) + b"{}")
        with pytest.raises(WireError, match="magic"):
            recv_frame(right)
    finally:
        left.close()
        right.close()


def test_oversized_header_rejected_before_allocation():
    left, right = pair()
    try:
        left.sendall(struct.pack("!4sII", MAGIC, MAX_HEADER_BYTES + 1, 0))
        with pytest.raises(WireError, match="header length"):
            recv_frame(right)
    finally:
        left.close()
        right.close()


def test_truncated_frame_raises():
    left, right = pair()
    try:
        left.sendall(struct.pack("!4sII", MAGIC, 10, 0) + b"{}")
        left.close()
        with pytest.raises(WireError, match="mid-frame"):
            recv_frame(right)
    finally:
        right.close()


def test_non_object_header_raises():
    left, right = pair()
    try:
        body = b"[1, 2]"
        left.sendall(struct.pack("!4sII", MAGIC, len(body), 0) + body)
        with pytest.raises(WireError, match="not a JSON object"):
            recv_frame(right)
    finally:
        left.close()
        right.close()


def test_send_refuses_oversized_payload():
    left, right = pair()
    try:
        with pytest.raises(WireError, match="payload too large"):
            send_frame(left, {"op": "put"},
                       b"\x00" * ((64 << 20) + 1))
    finally:
        left.close()
        right.close()


# -- the read-ahead buffer ------------------------------------------------------


def frame_bytes(header, payload=b""):
    """One frame's bytes, as ``send_frame`` writes them."""
    body = json.dumps(header, sort_keys=True).encode("utf-8")
    return struct.pack("!4sII", MAGIC, len(body), len(payload)) + body + payload


def test_buffered_frame_sent_one_byte_per_send_decodes_exactly():
    data = frame_bytes({"op": "put", "tenant": "web"}, b"\x00payload\xff")
    left, right = pair()
    buffer = bytearray()

    def send_bytewise():
        for index in range(len(data)):
            left.send(data[index:index + 1])

    try:
        sender = threading.Thread(target=send_bytewise)
        sender.start()
        header, payload = recv_frame(right, buffer=buffer)
        sender.join(5.0)
        assert not sender.is_alive()
        assert header == {"op": "put", "tenant": "web"}
        assert payload == b"\x00payload\xff"
        assert buffer == bytearray()
    finally:
        left.close()
        right.close()


def test_buffered_two_frames_in_one_sendall_decode_exactly():
    first = frame_bytes({"seq": 1}, b"one")
    second = frame_bytes({"seq": 2}, b"\x00" * 70000)    # past one recv
    left, right = pair()
    buffer = bytearray()
    try:
        sender = threading.Thread(target=left.sendall, args=(first + second,))
        sender.start()
        assert recv_frame(right, buffer=buffer) == ({"seq": 1}, b"one")
        assert recv_frame(right, buffer=buffer) == ({"seq": 2}, b"\x00" * 70000)
        sender.join(5.0)
        assert not sender.is_alive()
        assert buffer == bytearray()
    finally:
        left.close()
        right.close()


def test_buffered_eof_mid_frame_raises():
    data = frame_bytes({"op": "ping"}, b"payload")
    left, right = pair()
    try:
        left.sendall(data[:-3])
        left.close()
        with pytest.raises(WireError, match="mid-frame"):
            recv_frame(right, eof_ok=True, buffer=bytearray())
    finally:
        right.close()


@pytest.mark.parametrize("lengths,match", [
    ((MAX_HEADER_BYTES + 1, 0), "header length"),
    ((2, MAX_PAYLOAD_BYTES + 1), "payload length"),
], ids=["header", "payload"])
def test_buffered_oversized_length_refused_before_reading_it(lengths, match):
    """Only the prefix is sent and the sender stays open: a reader that
    went on to read the frame would block until the timeout."""
    left, right = pair()
    right.settimeout(5.0)
    try:
        left.sendall(struct.pack("!4sII", MAGIC, *lengths))
        with pytest.raises(WireError, match=match):
            recv_frame(right, buffer=bytearray())
    finally:
        left.close()
        right.close()


def test_wait_for_frame_receives_only_into_an_empty_read_ahead():
    """``wait_for_frame`` receives only when the read-ahead is empty, so
    a frame already buffered costs no ``recv``; after the last frame it
    returns on the EOF, which ``recv_frame`` then reports."""
    left, right = pair()
    buffer = bytearray()
    frames = frame_bytes({"seq": 1}) + frame_bytes({"seq": 2}, b"x")
    try:
        left.sendall(frames)
        left.close()
        wait_for_frame(right, buffer)
        assert bytes(buffer) == frames
        assert recv_frame(right, eof_ok=True, buffer=buffer) == ({"seq": 1}, b"")
        wait_for_frame(right, buffer)
        assert recv_frame(right, eof_ok=True, buffer=buffer) == ({"seq": 2}, b"x")
        wait_for_frame(right, buffer)
        assert buffer == bytearray()
        assert recv_frame(right, eof_ok=True, buffer=buffer) is None
    finally:
        right.close()


def test_buffered_clean_eof_between_frames_returns_none():
    left, right = pair()
    buffer = bytearray()
    try:
        left.sendall(frame_bytes({"seq": 1}) + frame_bytes({"seq": 2}, b"x"))
        left.close()
        assert recv_frame(right, eof_ok=True, buffer=buffer) == ({"seq": 1}, b"")
        assert recv_frame(right, eof_ok=True, buffer=buffer) == ({"seq": 2}, b"x")
        assert recv_frame(right, eof_ok=True, buffer=buffer) is None
        with pytest.raises(WireError, match="before a frame"):
            recv_frame(right, buffer=buffer)
    finally:
        right.close()


def test_server_answers_pipelined_frames_and_http_on_its_connections(tmp_path):
    """The server's connection loop reads through its buffer (two frames
    in one send get two replies), and an HTTP request, sniffed before
    the buffer exists, is still answered."""
    server = ProfileServer(str(tmp_path / "tenants"), workers=1)
    try:
        left, right = pair()
        thread = threading.Thread(target=server._serve_client, args=(right, 1))
        thread.start()
        try:
            left.sendall(frame_bytes({"op": "ping"}) + frame_bytes({"op": "tenants"}))
            buffer = bytearray()
            assert recv_frame(left, buffer=buffer)[0] == {"ok": True, "op": "ping"}
            assert recv_frame(left, buffer=buffer)[0] == {"ok": True, "op": "tenants",
                                                          "tenants": []}
        finally:
            left.close()
            thread.join(5.0)
        assert not thread.is_alive()

        left, right = pair()
        thread = threading.Thread(target=server._serve_client, args=(right, 2))
        thread.start()
        try:
            left.sendall(b"GET /stats HTTP/1.0\r\n\r\n")
            response = b""
            while True:
                chunk = left.recv(1 << 16)
                if not chunk:
                    break
                response += chunk
        finally:
            left.close()
            thread.join(5.0)
        assert not thread.is_alive()
        head, _, body = response.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 OK")
        assert json.loads(body)["queue_depth"] == 0
    finally:
        server.stop()
