"""Single-process, non-blocking, open-loop HTTP/1.1 load generator.

Every request has a *due time* fixed before the run starts. The
generator sends each request when it falls due — whether or not the
responses to earlier requests have arrived — over a few keep-alive
connections with HTTP/1.1 pipelining, so a stalled server cannot slow
the offered load down (an open loop). Latency is timed from the due
time to the read that completed the response, which charges a stall
to every request queued behind it; the generator's own lateness (send
time minus due time) is recorded beside it.

Run as a script it is its own self-check: ``python3 loadgen.py
--selfcheck`` starts a stub responder in a child process and reports
the generator's ceiling in requests/second.
"""

from __future__ import annotations

import gc
import json
import os
import select
import socket
import subprocess
import sys
import time
from collections import deque
from dataclasses import dataclass, field

_HEAD_END = b"\r\n\r\n"
_LENGTH = b"Content-Length: "
#: Below this wait the loop spins instead of sleeping in epoll, whose
#: millisecond granularity would otherwise delay sends.
_SPIN_SECONDS = 0.0015
#: Requests of the self-check, all due at once.
_CEILING_REQUESTS = 60_000


def pin_cpus() -> tuple[int, int]:
    """Pin this process to its first allowed CPU, so the generator and
    the process under load never queue for the same core.

    Returns the CPU for the process under load (the last allowed one)
    and the connections the generator may open: at most ``nproc``, at
    most 2.
    """
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[0]})
    return cpus[-1], min(2, len(cpus))


def get_request(target: str) -> bytes:
    return f"GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n".encode()


def post_request(target: str, body: bytes) -> bytes:
    return (
        f"POST {target} HTTP/1.1\r\nHost: bench\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode() + body


@dataclass
class RunResult:
    """Per-request outcome of one open-loop run (index = request)."""

    dues: list[float]
    latency: list[float]  # due -> response complete; nan if none
    lag: list[float]  # send - due
    status: list[int]  # 0 when no response arrived
    bodies: dict[int, bytes] = field(default_factory=dict)
    seconds: float = 0.0

    def completed(self) -> int:
        return sum(1 for s in self.status if s)


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile of a non-empty list."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, int(q * len(ordered) + 0.5) - 1))
    return ordered[rank]


def open_loop(
    address: tuple[str, int],
    dues: list[float],
    conns: list[int],
    payloads: list[bytes],
    *,
    connections: int,
    keep_body: set[int] | None = None,
    on_body=None,
    grace: float = 2.0,
) -> RunResult:
    """Send ``payloads[i]`` on connection ``conns[i]`` at ``dues[i]``
    seconds after the start; wait up to ``grace`` seconds past the last
    due time for the answers.

    ``on_body(i, body)`` sees every response body (for checks);
    bodies of requests in ``keep_body`` are also returned.
    """
    n = len(dues)
    # A collection of the caller's heap would stall sends and reads
    # for tens of milliseconds; the loop itself makes no cycles.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    socks = [
        socket.create_connection(address, timeout=5.0)
        for _ in range(connections)
    ]
    epoll = select.epoll()
    try:
        for sock in socks:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.setblocking(False)
            epoll.register(sock.fileno(), select.EPOLLIN)
        conn_of_fd = {sock.fileno(): c for c, sock in enumerate(socks)}
        out = [bytearray() for _ in socks]
        inflight: list[deque[int]] = [deque() for _ in socks]
        inbuf = [b"" for _ in socks]
        nan = float("nan")
        latency = [nan] * n
        lag = [0.0] * n
        status = [0] * n
        bodies: dict[int, bytes] = {}
        keep = keep_body or set()
        clock = time.perf_counter
        start = clock() + 0.002
        stop = start + (dues[-1] if n else 0.0) + grace
        sent = 0
        done = 0
        while done < n:
            now = clock() - start
            while sent < n and dues[sent] <= now:
                c = conns[sent]
                out[c] += payloads[sent]
                inflight[c].append(sent)
                lag[sent] = now - dues[sent]
                sent += 1
            for c, pending in enumerate(out):
                if pending:
                    try:
                        written = socks[c].send(pending)
                    except BlockingIOError:
                        written = 0
                    del pending[:written]
            if now + start > stop:
                break
            wait = (dues[sent] - (clock() - start)) if sent < n else 0.01
            timeout = 0 if wait < _SPIN_SECONDS else wait - 0.001
            for fd, _event in epoll.poll(timeout):
                c = conn_of_fd[fd]
                data = socks[c].recv(1 << 18)
                if not data:
                    raise ConnectionError("server closed a connection")
                arrived = clock() - start
                buf = inbuf[c] + data if inbuf[c] else data
                pos = 0
                queue = inflight[c]
                while True:
                    head_end = buf.find(_HEAD_END, pos)
                    if head_end < 0:
                        break
                    at = buf.find(_LENGTH, pos, head_end)
                    length = int(
                        buf[at + 16:buf.find(b"\r\n", at, head_end + 2)]
                    )
                    end = head_end + 4 + length
                    if end > len(buf):
                        break
                    i = queue.popleft()
                    status[i] = int(buf[pos + 9:pos + 12])
                    latency[i] = arrived - dues[i]
                    body = buf[head_end + 4:end]
                    if on_body is not None:
                        on_body(i, body)
                    if i in keep:
                        bodies[i] = body
                    pos = end
                    done += 1
                inbuf[c] = buf[pos:]
        return RunResult(
            dues=list(dues),
            latency=latency,
            lag=lag,
            status=status,
            bodies=bodies,
            seconds=clock() - start,
        )
    finally:
        epoll.close()
        for sock in socks:
            sock.close()
        if gc_was_enabled:
            gc.enable()


# ----------------------------------------------------------------------
# Self-check: the generator's ceiling against a stub responder
# ----------------------------------------------------------------------
_STUB_BODY = b'{"ok":true}'
_STUB_RESPONSE = (
    b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
    b"Content-Length: %d\r\n\r\n" % len(_STUB_BODY)
) + _STUB_BODY


def _stub_server() -> None:
    """Answer every request head with one canned response, batched."""
    listener = socket.socket()
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    listener.bind(("127.0.0.1", 0))
    listener.listen(16)
    print(listener.getsockname()[1], flush=True)
    epoll = select.epoll()
    epoll.register(listener.fileno(), select.EPOLLIN)
    epoll.register(sys.stdin.fileno(), select.EPOLLIN)
    clients: dict[int, tuple[socket.socket, list[bytes]]] = {}
    while True:
        for fd, _event in epoll.poll():
            if fd == sys.stdin.fileno():
                return  # parent closed our stdin: stop
            if fd == listener.fileno():
                conn, _ = listener.accept()
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                clients[conn.fileno()] = (conn, [b""])
                epoll.register(conn.fileno(), select.EPOLLIN)
                continue
            conn, tail = clients[fd]
            data = conn.recv(1 << 18)
            if not data:
                epoll.unregister(fd)
                conn.close()
                del clients[fd]
                continue
            buf = tail[0] + data
            count = buf.count(_HEAD_END)
            tail[0] = buf[buf.rfind(_HEAD_END) + 4:] if count else buf
            if count:
                conn.setblocking(True)
                conn.sendall(_STUB_RESPONSE * count)


def measure_ceiling(cpu: int, connections: int) -> float:
    """Requests/second the generator completes when every request is
    due at once against a responder (on ``cpu``) that costs almost
    nothing."""
    stub = subprocess.Popen(
        [sys.executable, __file__, "--stub"],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
    )
    try:
        os.sched_setaffinity(stub.pid, {cpu})
        port = int(stub.stdout.readline())
        payload = get_request("/query?q=cute+animals")
        dues = [k * 1e-6 for k in range(_CEILING_REQUESTS)]
        result = open_loop(
            ("127.0.0.1", port),
            dues,
            [k % connections for k in range(_CEILING_REQUESTS)],
            [payload] * _CEILING_REQUESTS,
            connections=connections,
            grace=30.0,
        )
        if result.completed() != _CEILING_REQUESTS:
            raise RuntimeError("stub responder lost requests")
        return _CEILING_REQUESTS / max(result.seconds, 1e-9)
    finally:
        stub.stdin.close()
        try:
            stub.wait(timeout=10)
        except subprocess.TimeoutExpired:
            stub.kill()
            stub.wait()


if __name__ == "__main__":
    if sys.argv[1:] == ["--stub"]:
        _stub_server()
    elif sys.argv[1:] == ["--selfcheck"]:
        ceiling = measure_ceiling(*pin_cpus())
        print(json.dumps({"gen_ceiling_rps": round(ceiling, 1)}))
    else:
        sys.exit("usage: loadgen.py --selfcheck")
