"""Fault tests for the one HTTP request parser both front ends share.

A client that stalls in the request head or body gets 408 once the
request deadline passes, and a header flood (too many lines, or one
line too long) gets 431 — against the job server and the router alike.
"""

import socket
import time

import pytest

import repro.serve.server as server_mod
from repro.serve.router import BackgroundRouter
from repro.serve.server import BackgroundServer

#: Deadline used in these tests, far below the production value.
DEADLINE_S = 0.5


@pytest.fixture(params=["server", "router"])
def front_end(request, monkeypatch):
    monkeypatch.setattr(server_mod, "REQUEST_DEADLINE_S", DEADLINE_S)
    if request.param == "server":
        background = BackgroundServer(port=0, workers=1)
    else:
        background = BackgroundRouter(port=0, workers=[])
    with background:
        yield background


def _exchange(port: int, payload: bytes, *, timeout: float = 10.0) -> tuple[int, float]:
    """Send *payload*, then wait for the reply: (status, seconds waited)."""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        sock.sendall(payload)
        started = time.monotonic()
        reply = b""
        while b"\r\n" not in reply:
            data = sock.recv(4096)
            if not data:
                break
            reply += data
        waited = time.monotonic() - started
    status_line = reply.split(b"\r\n", 1)[0].decode("latin-1")
    return int(status_line.split()[1]), waited


def test_stalled_head_gets_408(front_end):
    status, waited = _exchange(front_end.port, b"GET /healthz HTTP/1.1\r\nHost: x\r\n")
    assert status == 408
    assert DEADLINE_S * 0.8 <= waited < DEADLINE_S + 5


def test_silent_connection_gets_408(front_end):
    status, _ = _exchange(front_end.port, b"")
    assert status == 408


def test_stalled_body_gets_408(front_end):
    head = b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 100\r\n\r\n{\"kind\":"
    status, _ = _exchange(front_end.port, head)
    assert status == 408


def test_header_count_flood_gets_431(front_end):
    flood = b"".join(b"X-Flood-%d: y\r\n" % i for i in range(server_mod.MAX_HEADERS + 1))
    status, _ = _exchange(front_end.port, b"GET /healthz HTTP/1.1\r\n" + flood + b"\r\n")
    assert status == 431


def test_repeated_header_name_flood_gets_431(front_end):
    flood = b"X-Same: y\r\n" * (server_mod.MAX_HEADERS + 1)
    status, _ = _exchange(front_end.port, b"GET /healthz HTTP/1.1\r\n" + flood + b"\r\n")
    assert status == 431


def test_overlong_header_line_gets_431(front_end):
    line = b"X-Long: " + b"y" * server_mod.MAX_LINE_BYTES + b"\r\n"
    status, _ = _exchange(front_end.port, b"GET /healthz HTTP/1.1\r\n" + line + b"\r\n")
    assert status == 431


def test_header_cap_still_admits_a_full_request(front_end):
    headers = b"".join(b"X-H-%d: y\r\n" % i for i in range(server_mod.MAX_HEADERS))
    status, _ = _exchange(front_end.port, b"GET /healthz HTTP/1.1\r\n" + headers + b"\r\n")
    assert status == 200


def test_front_end_keeps_serving_after_faults(front_end):
    _exchange(front_end.port, b"GET /healthz HTTP/1.1\r\n")
    status, _ = _exchange(front_end.port, b"GET /healthz HTTP/1.1\r\n\r\n")
    assert status == 200
