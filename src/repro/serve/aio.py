"""Asyncio serving core: the HTTP front end of ``repro serve``.

One :class:`asyncio.Protocol` per *connection*, keep-alive reuse, and
an inline fast path that answers a cached query without ever creating
a task, so the hot path is: parse bytes → lock-free admission
(:class:`~repro.serve.admission.AsyncAdmissionController`) → service
lookup → one ``transport.write``.

Requests are routed into the :class:`~repro.serve.server.OpinionService`
engine, which owns the v2 JSON schema, snapshot-swap reload/rollback
with validation, degraded-mode stamping, per-request deadlines, chaos
fault hooks, access-log lines, exemplar histograms, and SLO burn
gauges. This module adds the wire-level parts:

* **A strict HTTP/1.1 reader** — bodies are framed by
  ``Content-Length`` only, which must be plain ASCII digits and agree
  across repeated headers; ``Transfer-Encoding`` is refused with 501.
  Any framing the reader cannot trust is answered with an error
  envelope and the connection is closed, so no byte of one request
  can be parsed as another.
* **One routing table** — :data:`ROUTES` maps ``(method, path)`` to
  its handler, whether admission gates it, and whether it runs in a
  worker thread; the ungated paths are derived from it.
* **Awaiting without blocking** — requests that must wait (a full
  admission queue) or that run blocking work (``/admin/reload``,
  ``/admin/ingest`` file IO) move to a task with ``pause_reading`` on
  the transport; everything else completes inline.
* **Multi-worker hooks** — with a :class:`~repro.serve.workers.WorkerRuntime`
  attached, ``/metrics`` merges every worker's pickled registry
  snapshot, and a successful ``/admin/reload`` bumps the shared epoch
  and nudges the supervisor to SIGHUP the sibling workers (see
  :mod:`repro.serve.workers`).
"""

from __future__ import annotations

import asyncio
import json
import math
import signal
import socket
import sys
import time
from typing import Any, Callable, NamedTuple
from urllib.parse import parse_qs

from .admission import (
    AdmissionDecision,
    Deadline,
    DeadlineExceeded,
)
from .schema import error_response, render
from .server import (
    DEFAULT_TOP,
    MAX_BODY_BYTES,
    OpinionService,
    ServeError,
    _REQUEST_ID_RE,
    documents_from_payload,
    new_request_id,
)

#: Request heads larger than this are rejected outright (no
#: legitimate client sends kilobytes of headers to this API).
MAX_HEADER_BYTES = 64 * 1024

_CRLF = b"\r\n"
_HEAD_END = b"\r\n\r\n"
_SERVER_HDR = b"Server: repro-serve/2"
_CT_JSON = b"Content-Type: application/json"
_CT_TEXT = b"Content-Type: text/plain; version=0.0.4"

_REASONS = {
    200: b"OK",
    400: b"Bad Request",
    404: b"Not Found",
    409: b"Conflict",
    413: b"Request Entity Too Large",
    429: b"Too Many Requests",
    500: b"Internal Server Error",
    501: b"Not Implemented",
    503: b"Service Unavailable",
}
_STATUS_LINES = {
    status: b"HTTP/1.1 %d %s" % (status, reason)
    for status, reason in _REASONS.items()
}


def _status_line(status: int) -> bytes:
    line = _STATUS_LINES.get(status)
    if line is None:
        line = b"HTTP/1.1 %d Status" % status
        _STATUS_LINES[status] = line
    return line


def _request_id(headers: dict[bytes, bytes]) -> str:
    """The client's ``X-Request-Id`` when it looks like an id, else a
    fresh one."""
    supplied = headers.get(b"x-request-id", b"").decode("latin-1")
    if _REQUEST_ID_RE.match(supplied):
        return supplied
    return new_request_id()


class _Request:
    """One parsed request in flight (cheap per-request state)."""

    __slots__ = (
        "method",
        "path",
        "query",
        "body",
        "request_id",
        "client",
        "started",
        "batch_items",
        "close_after",
    )

    def __init__(
        self,
        method: str,
        path: str,
        query: str,
        body: bytes,
        request_id: str,
        client: str,
        started: float,
        close_after: bool,
    ) -> None:
        self.method = method
        self.path = path
        self.query = query
        self.body = body
        self.request_id = request_id
        self.client = client
        self.started = started
        self.batch_items: int | None = None
        self.close_after = close_after


class HttpProtocol(asyncio.Protocol):
    """One keep-alive HTTP/1.1 connection on the event loop.

    Parsing is hand-rolled over a bytes buffer: requests this API
    receives are a few hundred bytes with a handful of headers, so
    ``http.server``'s file-object machinery would cost more than the
    lookup it fronts. A request whose handling never awaits is
    answered inline from ``data_received`` — no task, no scheduling
    round-trip; requests that must wait (admission queue, admin file
    IO) move to a task while the transport's reading is paused, so
    pipelined bytes sit in the kernel until the connection is free.
    """

    __slots__ = (
        "server",
        "service",
        "transport",
        "buf",
        "peer_host",
        "closed",
        "busy",
        "task",
    )

    def __init__(self, server: "AsyncReproServer") -> None:
        self.server = server
        self.service = server.service
        self.transport: asyncio.Transport | None = None
        self.buf = b""
        self.peer_host = ""
        self.closed = False
        self.busy = False
        self.task: asyncio.Task | None = None

    # -- connection lifecycle ------------------------------------------
    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport  # type: ignore[assignment]
        sock = transport.get_extra_info("socket")
        if sock is not None:
            try:
                sock.setsockopt(
                    socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
                )
            except OSError:  # pragma: no cover - platform quirk
                pass
        peer = transport.get_extra_info("peername")
        self.peer_host = (
            peer[0] if isinstance(peer, tuple) else "unknown"
        )
        self.server.connections.add(self)

    def connection_lost(self, exc: Exception | None) -> None:
        self.closed = True
        self.server.connections.discard(self)
        if self.task is not None and not self.task.done():
            self.task.cancel()

    # -- byte stream ----------------------------------------------------
    def data_received(self, data: bytes) -> None:
        self.buf = self.buf + data if self.buf else data
        if not self.busy:
            self._pump()

    def _pump(self) -> None:
        try:
            self._pump_inner()
        except (BrokenPipeError, ConnectionResetError):
            self._abort()
        except Exception:  # pragma: no cover - defensive
            self._abort()
            raise

    def _pump_inner(self) -> None:
        """Parse and dispatch framed requests until the buffer runs
        dry or a request moves to a task (which resumes the pump)."""
        while not self.closed:
            head_end = self.buf.find(_HEAD_END)
            if head_end < 0:
                if len(self.buf) > MAX_HEADER_BYTES:
                    self._protocol_error(
                        400, "request head too large"
                    )
                return
            head = self.buf[:head_end]
            line_end = head.find(_CRLF)
            request_line = head if line_end < 0 else head[:line_end]
            parts = request_line.split()
            if len(parts) != 3:
                self._protocol_error(400, "malformed request line")
                return
            headers: dict[bytes, bytes] = {}
            if line_end >= 0:
                for raw in head[line_end + 2:].split(_CRLF):
                    key, sep, value = raw.partition(b":")
                    if sep:
                        headers[key.strip().lower()] = value.strip()
            if b"transfer-encoding" in headers:
                # Bodies are framed by Content-Length only; a chunked
                # body left unread would be parsed as the next request.
                self._protocol_error(
                    501, "Transfer-Encoding is not supported",
                    "not_implemented",
                )
                return
            length = 0
            raw_length = headers.get(b"content-length")
            if raw_length is not None:
                length = self._content_length(head, line_end, raw_length)
                if length < 0:
                    return
            if length > MAX_BODY_BYTES:
                # The unread body cannot be skipped safely, so the
                # connection closes after the 413.
                self._protocol_error(
                    413,
                    f"body of {length} bytes exceeds {MAX_BODY_BYTES}",
                    request_id=_request_id(headers),
                )
                return
            body_start = head_end + 4
            if len(self.buf) - body_start < length:
                return  # body still in flight
            body = self.buf[body_start:body_start + length]
            self.buf = self.buf[body_start + length:]
            if not self._dispatch(parts, headers, body):
                return  # a task owns the connection now

    def _content_length(
        self, head: bytes, line_end: int, raw_length: bytes
    ) -> int:
        """The body length, or -1 after answering a framing error.

        ``int()`` would accept a sign and ``_`` separators, and a
        negative length rewinds the parser into the request's own
        head; only ASCII digits are a length. Repeated headers must
        agree — the dict kept only the last one, so rescan the head.
        """
        if not raw_length.isdigit():
            self._protocol_error(400, "malformed Content-Length")
            return -1
        for raw in head[line_end + 2:].split(_CRLF):
            key, sep, value = raw.partition(b":")
            if (
                sep
                and key.strip().lower() == b"content-length"
                and value.strip() != raw_length
            ):
                self._protocol_error(
                    400, "conflicting Content-Length headers"
                )
                return -1
        return int(raw_length)

    # -- request dispatch ----------------------------------------------
    def _dispatch(
        self,
        parts: list[bytes],
        headers: dict[bytes, bytes],
        body: bytes,
    ) -> bool:
        """Handle one framed request; False when a task continues it."""
        started = time.perf_counter()
        try:
            method = parts[0].decode("ascii")
            target = parts[1].decode("ascii")
        except UnicodeDecodeError:
            self._protocol_error(400, "malformed request line")
            return False
        q = target.find("?")
        if q < 0:
            path, query = target, ""
        else:
            path, query = target[:q], target[q + 1:]
        request_id = _request_id(headers)
        raw_client = headers.get(b"x-client-id")
        client = (
            raw_client.decode("latin-1")
            if raw_client
            else self.peer_host
        )
        close_after = (
            headers.get(b"connection", b"").lower() == b"close"
            or parts[2] == b"HTTP/1.0"
        )
        ctx = _Request(
            method, path, query, body, request_id, client,
            started, close_after,
        )
        if method not in ("GET", "POST"):
            # Unknown verbs get 501 in the standard envelope.
            self._send_error(
                ctx, 501, "not_implemented",
                f"unsupported method {method!r}",
            )
            self._observe(ctx, 501, None, "not_implemented")
            return True
        route = ROUTES.get((method, path))
        gated = path not in UNGATED
        if gated:
            decision = self.server.admission.poll(client)
            if decision is None:
                self._start_task(self._queued(ctx, route))
                return False
            if not decision.admitted:
                self._reject(ctx, decision)
                return True
        if (route is not None and route.threaded) or (
            gated and self.service.faults is not None
        ):
            # Blocking admin IO, and under chaos mode the injected
            # sleeps/disconnects, must not stall the event loop (they
            # would serialise every connection and defer signal
            # delivery), so those requests run on worker threads.
            self._start_task(self._offloaded(ctx, route, gated))
            return False
        self._finish(ctx, route, gated)
        return True

    async def _offloaded(
        self, ctx: _Request, route: _Route | None, gated: bool
    ) -> None:
        """Continuation for a request the loop must not run: the
        whole state machine runs on a worker thread."""
        try:
            await asyncio.to_thread(self._finish, ctx, route, gated)
        finally:
            if not self.closed:
                self._resume()

    def _start_task(self, coro) -> None:
        self.busy = True
        if self.transport is not None:
            self.transport.pause_reading()
        self.task = self.server.loop.create_task(coro)

    def _resume(self) -> None:
        self.busy = False
        self.task = None
        if not self.closed and self.transport is not None:
            self.transport.resume_reading()
            self._pump()

    def _reject(
        self, ctx: _Request, decision: AdmissionDecision
    ) -> None:
        """Answer and account an admission rejection."""
        if decision.status == 429:
            self.service.registry.inc(
                "repro_serve_rate_limited_total"
            )
        status: int = decision.status
        code: str | None = decision.code
        try:
            self._send_error(
                ctx, status, decision.code, decision.message,
                retry_after=decision.retry_after,
            )
        except (BrokenPipeError, ConnectionResetError):
            status, code = 499, "client_disconnect"
            self._abort()
        self._observe(ctx, status, None, code)

    async def _queued(
        self, ctx: _Request, route: _Route | None
    ) -> None:
        """Continuation for a request parked in the admission queue."""
        try:
            decision = await self.server.admission.wait_for_slot()
            if not decision.admitted:
                self._reject(ctx, decision)
                return
            if self.service.faults is not None:
                await asyncio.to_thread(self._finish, ctx, route, True)
            else:
                self._finish(ctx, route, True)
        except asyncio.CancelledError:
            # Connection lost while queued; nothing to answer.
            raise
        finally:
            if not self.closed:
                self._resume()

    def _finish(
        self, ctx: _Request, route: _Route | None, gated: bool
    ) -> None:
        """The request state machine (statuses, codes, metrics, and
        the observe-in-finally ordering are contract)."""
        service = self.service
        status = 500
        cached: bool | None = None
        code: str | None = None
        deadline = (
            Deadline(service.request_deadline) if gated else None
        )
        try:
            if route is None:
                raise ServeError(
                    f"no route for {ctx.method} {ctx.path}",
                    status=404,
                    code="not_found",
                )
            status, cached = route.handler(self, ctx, deadline)
        except DeadlineExceeded as error:
            status = 503
            code = "deadline_exceeded"
            service.registry.inc(
                "repro_serve_deadline_exceeded_total"
            )
            self._send_error(
                ctx, status, code, str(error), retry_after=1.0
            )
        except ServeError as error:
            status = error.status
            code = error.code
            self._send_error(
                ctx, status, error.code, str(error),
                retry_after=error.retry_after,
            )
        except (BrokenPipeError, ConnectionResetError):
            status = 499  # client went away (or chaos said it did)
            code = "client_disconnect"
            self._abort()
        except Exception as error:  # pragma: no cover - defensive
            status = 500
            code = "internal"
            try:
                self._send_error(
                    ctx, 500, "internal",
                    f"{type(error).__name__}: {error}",
                )
            except OSError:
                pass
        finally:
            if gated:
                self._release()
            self._observe(ctx, status, cached, code)

    def _release(self) -> None:
        """Free an admission slot on the loop thread: the controller
        is lock-free, so an offloaded (chaos-mode) request hands its
        release to the loop instead of racing it."""
        admission = self.server.admission
        if self._on_loop():
            admission.release()
        else:
            self.server.loop.call_soon_threadsafe(admission.release)

    # -- route handlers (see ROUTES) -----------------------------------
    def _params(self, ctx: _Request) -> dict[str, str]:
        if not ctx.query:
            return {}
        return {
            key: values[-1]
            for key, values in parse_qs(ctx.query).items()
        }

    def _get_query(
        self, ctx: _Request, deadline: Deadline | None
    ) -> tuple[int, bool]:
        params = self._params(ctx)
        top = params.get("top", DEFAULT_TOP)
        service = self.service
        if "q" in params:
            entry, cached = service.ask_entry(
                params["q"], top=top, deadline=deadline
            )
        elif "property" in params and "type" in params:
            try:
                min_probability = float(
                    params.get("min_probability", 0.0)
                )
            except ValueError:
                raise ServeError(
                    "min_probability must be a number"
                )
            entry, cached = service.listing_entry(
                params["property"],
                params["type"],
                negative=params.get("negative", "")
                in ("1", "true", "yes"),
                min_probability=min_probability,
                top=top,
                deadline=deadline,
            )
        else:
            raise ServeError(
                "need either ?q=<free text> or "
                "?property=<adj>&type=<entity type>"
            )
        service.fault_response("/query")
        self._write(ctx, 200, _CT_JSON, entry.body, cached=cached)
        return 200, cached

    def _get_explain(
        self, ctx: _Request, deadline: Deadline | None
    ) -> tuple[int, bool]:
        params = self._params(ctx)
        entity = params.get("entity")
        prop = params.get("property")
        if not entity or not prop:
            raise ServeError(
                "need entity=<id> and property=<adjective> "
                "(optional type=<entity type>)"
            )
        entry, cached = self.service.explain_entry(
            entity,
            prop,
            entity_type=params.get("type"),
            deadline=deadline,
        )
        self.service.fault_response("/explain")
        self._write(ctx, 200, _CT_JSON, entry.body, cached=cached)
        return 200, cached

    def _post_batch(
        self, ctx: _Request, deadline: Deadline | None
    ) -> tuple[int, None]:
        payload = self._json_body(ctx)
        queries = payload.get("queries")
        if not isinstance(queries, list) or not all(
            isinstance(q, str) for q in queries
        ):
            raise ServeError(
                "body must be {\"queries\": [<string>, ...]}"
            )
        ctx.batch_items = len(queries)
        response = self.service.batch(
            queries,
            top=payload.get("top", DEFAULT_TOP),
            deadline=deadline,
            request_id=ctx.request_id or None,
        )
        self.service.fault_response("/batch")
        self._send_json(ctx, 200, response)
        return 200, None

    def _get_healthz(
        self, ctx: _Request, deadline: Deadline | None
    ) -> tuple[int, None]:
        self._send_json(ctx, 200, self.service.healthz())
        return 200, None

    def _get_metrics(
        self, ctx: _Request, deadline: Deadline | None
    ) -> tuple[int, None]:
        self._send_text(200, ctx, self.server.render_metrics())
        return 200, None

    def _post_rollback(
        self, ctx: _Request, deadline: Deadline | None
    ) -> tuple[int, None]:
        self._send_json(ctx, 200, self.service.rollback())
        return 200, None

    def _post_reload(
        self, ctx: _Request, deadline: Deadline | None
    ) -> tuple[int, None]:
        path = self._json_body(ctx).get("path")
        if path is not None and not isinstance(path, str):
            raise ServeError("reload path must be a string")
        self._send_json(ctx, 200, self.server.run_reload(path))
        return 200, None

    def _post_ingest(
        self, ctx: _Request, deadline: Deadline | None
    ) -> tuple[int, None]:
        documents = documents_from_payload(self._json_body(ctx))
        ctx.batch_items = len(documents)
        summary = self.server.run_ingest(
            documents, ctx.request_id or None
        )
        self._send_json(ctx, 200, summary)
        return 200, None

    def _json_body(self, ctx: _Request) -> dict[str, Any]:
        if not ctx.body:
            return {}
        try:
            payload = json.loads(ctx.body)
        except json.JSONDecodeError as error:
            raise ServeError(f"malformed JSON body: {error}")
        if not isinstance(payload, dict):
            raise ServeError("JSON body must be an object")
        return payload

    # -- responses ------------------------------------------------------
    def _send_json(
        self,
        ctx: _Request,
        status: int,
        payload: dict[str, Any],
        *,
        cached: bool | None = None,
        retry_after: float | None = None,
    ) -> None:
        self._write(
            ctx, status, _CT_JSON, render(payload),
            cached=cached, retry_after=retry_after,
        )

    def _send_text(
        self, status: int, ctx: _Request, text: str
    ) -> None:
        self._write(ctx, status, _CT_TEXT, text.encode())

    def _send_error(
        self,
        ctx: _Request,
        status: int,
        code: str,
        message: str,
        *,
        retry_after: float | None = None,
    ) -> None:
        self._send_json(
            ctx,
            status,
            error_response(
                code,
                message,
                retry_after=retry_after,
                degraded=self.service.degraded,
                request_id=ctx.request_id or None,
            ),
            retry_after=retry_after,
        )

    def _write(
        self,
        ctx: _Request,
        status: int,
        content_type: bytes,
        body: bytes,
        *,
        cached: bool | None = None,
        retry_after: float | None = None,
    ) -> None:
        transport = self.transport
        if (
            self.closed
            or transport is None
            or transport.is_closing()
        ):
            raise BrokenPipeError("connection already closed")
        parts = [
            _status_line(status),
            _SERVER_HDR,
            content_type,
            b"Content-Length: %d" % len(body),
        ]
        if ctx.request_id:
            parts.append(
                b"X-Request-Id: " + ctx.request_id.encode("ascii")
            )
        if cached is not None:
            parts.append(
                b"X-Cache: hit" if cached else b"X-Cache: miss"
            )
        if retry_after is None and status in (429, 503):
            retry_after = 1.0
        if retry_after is not None:
            parts.append(
                b"Retry-After: %d" % max(1, math.ceil(retry_after))
            )
        if ctx.close_after:
            parts.append(b"Connection: close")
        data = _CRLF.join(parts) + _HEAD_END + body
        if self._on_loop():
            transport.write(data)
            if ctx.close_after:
                self.closed = True
                transport.close()
        else:
            # Offloaded (chaos-mode) handlers run on worker threads;
            # asyncio transports are loop-affine, so hand the fully
            # rendered response to the loop. The connection is paused
            # while its task runs, so ordering is preserved.
            if ctx.close_after:
                self.closed = True
            self.server.loop.call_soon_threadsafe(
                self._write_from_thread, transport, data,
                ctx.close_after,
            )

    def _on_loop(self) -> bool:
        try:
            return asyncio.get_running_loop() is self.server.loop
        except RuntimeError:
            return False

    @staticmethod
    def _write_from_thread(
        transport: asyncio.Transport, data: bytes, close: bool
    ) -> None:
        if transport.is_closing():
            return
        transport.write(data)
        if close:
            transport.close()

    def _abort(self) -> None:
        """Close after a mid-response disconnect (499): a FIN, not an
        RST, so earlier pipelined responses still flush."""
        self.closed = True
        transport = self.transport
        if transport is None:
            return
        if self._on_loop():
            transport.close()
        else:
            self.server.loop.call_soon_threadsafe(transport.close)

    def _protocol_error(
        self,
        status: int,
        message: str,
        code: str = "bad_request",
        *,
        request_id: str | None = None,
    ) -> None:
        """Unparseable framing: answer an envelope and close (the
        byte stream cannot be trusted for another request)."""
        ctx = _Request(
            "", "", "", b"", request_id or new_request_id(),
            self.peer_host, time.perf_counter(), True,
        )
        try:
            self._send_error(ctx, status, code, message)
        except (BrokenPipeError, OSError):
            pass
        self.closed = True
        if self.transport is not None:
            self.transport.close()

    # -- accounting -----------------------------------------------------
    def _observe(
        self,
        ctx: _Request,
        status: int,
        cached: bool | None,
        code: str | None,
    ) -> None:
        self.service.observe_request(
            method=ctx.method,
            path=ctx.path,
            status=status,
            seconds=time.perf_counter() - ctx.started,
            cached=cached,
            request_id=ctx.request_id,
            client=ctx.client,
            code=code,
            items=ctx.batch_items,
        )


class _Route(NamedTuple):
    """One row of the routing table."""

    handler: Callable[
        [HttpProtocol, _Request, Deadline | None],
        tuple[int, bool | None],
    ]
    #: Whether admission control gates the route. Health and
    #: telemetry must stay reachable exactly when the server is
    #: saturated, and the admin endpoints are the operator's way *out*
    #: of an incident — gating a rollback behind the overload it is
    #: meant to fix would be self-defeating.
    gated: bool = True
    #: Whether the handler does blocking file IO and so runs in a
    #: worker thread, keeping queries flowing during a reload or an
    #: ingest refit.
    threaded: bool = False


#: The one routing table: ``(method, path)`` -> route.
ROUTES: dict[tuple[str, str], _Route] = {
    ("GET", "/query"): _Route(HttpProtocol._get_query),
    ("GET", "/explain"): _Route(HttpProtocol._get_explain),
    ("POST", "/batch"): _Route(HttpProtocol._post_batch),
    ("GET", "/healthz"): _Route(HttpProtocol._get_healthz, gated=False),
    ("GET", "/metrics"): _Route(HttpProtocol._get_metrics, gated=False),
    ("POST", "/admin/rollback"): _Route(
        HttpProtocol._post_rollback, gated=False
    ),
    ("POST", "/admin/reload"): _Route(
        HttpProtocol._post_reload, gated=False, threaded=True
    ),
    ("POST", "/admin/ingest"): _Route(
        HttpProtocol._post_ingest, gated=False, threaded=True
    ),
}

#: Paths that bypass admission. A request no route matches is gated
#: unless its path is an ungated route's path; either way it gets 404.
UNGATED = frozenset(
    path for (_, path), route in ROUTES.items() if not route.gated
)


class AsyncReproServer:
    """The asyncio server: one listener, one service, N connections.

    Owns the loop-side plumbing the protocol instances share: the
    lock-free admission controller, the reload bridge (with the
    multi-worker epoch hook), the ingest bridge, and the merged
    ``/metrics`` view.
    Start with :meth:`start`; stop with :meth:`close_listener` +
    :meth:`wait_connections_closed`.
    """

    def __init__(
        self,
        service: OpinionService,
        *,
        runtime: Any | None = None,
    ) -> None:
        self.service = service
        self.admission = service.admission
        self.runtime = runtime
        self.connections: set[HttpProtocol] = set()
        self.loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.base_events.Server | None = None
        self.port = 0

    # -- lifecycle ------------------------------------------------------
    async def start(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        sock: socket.socket | None = None,
    ) -> None:
        self.loop = asyncio.get_running_loop()
        if sock is not None:
            self._server = await self.loop.create_server(
                lambda: HttpProtocol(self), sock=sock
            )
        else:
            self._server = await self.loop.create_server(
                lambda: HttpProtocol(self), host, port
            )
        self.port = self._server.sockets[0].getsockname()[1]

    def close_listener(self) -> None:
        if self._server is not None:
            self._server.close()

    async def wait_closed(self) -> None:
        if self._server is not None:
            await self._server.wait_closed()

    def close_connections(self) -> None:
        """Drop every open connection (after the drain finished)."""
        for protocol in list(self.connections):
            protocol.closed = True
            if protocol.transport is not None:
                protocol.transport.close()

    # -- admin bridges (run inside worker threads) ---------------------
    def run_reload(self, path: str | None) -> dict[str, Any]:
        """``/admin/reload`` body: a defensive wrapper plus the
        multi-worker epoch bump on success."""
        try:
            summary = self.service.reload(path)
        except ServeError:
            raise
        except Exception as error:  # pragma: no cover - defensive
            raise ServeError(
                f"reload failed, previous table still live: {error}",
                status=500,
                code="reload_failed",
            ) from None
        if self.runtime is not None:
            # Publish the new epoch and ask the supervisor to SIGHUP
            # the sibling workers.
            self.runtime.publish_epoch(path)
            self.runtime.notify_parent()
        return summary

    def run_ingest(
        self, documents: list, request_id: str | None
    ) -> dict[str, Any]:
        """``/admin/ingest`` body: one cycle of the lone process's
        ingest pipeline (see :meth:`OpinionService.ingest`)."""
        return self.service.ingest(documents, request_id)

    # -- metrics --------------------------------------------------------
    def render_metrics(self) -> str:
        """The ``/metrics`` exposition; with a worker runtime, the
        merged view across every live worker's latest snapshot."""
        service = self.service
        service.publish_slo_gauges()
        if self.runtime is None:
            return service.registry.exposition()
        from ..obs.metrics import MetricsRegistry

        self.runtime.dump_registry(service.registry)
        merged = MetricsRegistry()
        for registry in self.runtime.peer_registries():
            merged.merge(registry)
        merged.merge(service.registry)
        merged.set_gauge(
            "repro_serve_workers", self.runtime.worker_count
        )
        return merged.exposition()


async def serve_async(
    service: OpinionService,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    sock: socket.socket | None = None,
    drain_timeout: float = 5.0,
    runtime: Any | None = None,
    on_started: Callable[[int], None] | None = None,
) -> int:
    """Run the async core until SIGTERM/SIGINT, with graceful drain.

    SIGHUP hot-swaps (via the shared epoch file when a worker
    ``runtime`` is attached, so sibling workers converge on the same
    generation), SIGTERM flips the service to draining, stops the
    listener, and waits up to ``drain_timeout`` for in-flight
    requests. ``on_started`` receives the bound port (authoritative
    for ``--port 0``). A worker (``runtime`` attached) prints no drain
    notices: its supervisor speaks for the fleet.
    """
    server = AsyncReproServer(service, runtime=runtime)
    await server.start(host, port, sock=sock)
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    service.registry.set_gauge(
        "repro_serve_workers",
        runtime.worker_count if runtime is not None else 1,
    )

    def _terminate() -> None:
        if not service.admission.draining:
            service.begin_drain()
            if runtime is None:
                print(
                    "repro serve: draining (finishing in-flight "
                    "requests)",
                    file=sys.stderr,
                    flush=True,
                )
        stop.set()

    async def _reload_from_signal() -> None:
        path: str | None = None
        if runtime is not None:
            info = runtime.read_epoch()
            if info is None or info.get(
                "epoch", 0
            ) <= runtime.last_epoch:
                # Our own broadcast coming back (this worker already
                # swapped before notifying the supervisor).
                return
            runtime.last_epoch = info["epoch"]
            path = info.get("path")
        try:
            summary = await asyncio.to_thread(service.reload, path)
            print(
                f"repro serve: reloaded {summary['source']} "
                f"(generation {summary['generation']}, "
                f"{summary['opinions']} opinions)",
                file=sys.stderr,
                flush=True,
            )
        except Exception as error:
            print(
                "repro serve: reload failed, previous table "
                f"still live: {error}",
                file=sys.stderr,
                flush=True,
            )

    def _hup() -> None:
        loop.create_task(_reload_from_signal())

    try:
        loop.add_signal_handler(signal.SIGTERM, _terminate)
        loop.add_signal_handler(signal.SIGINT, _terminate)
        if hasattr(signal, "SIGHUP"):
            loop.add_signal_handler(signal.SIGHUP, _hup)
    except (NotImplementedError, RuntimeError, ValueError):
        # No signal support here (e.g. the loop runs off the main
        # thread under test); the caller stops us via the event.
        pass

    dump_task: asyncio.Task | None = None
    if runtime is not None:
        async def _dump_periodically() -> None:
            while True:
                await asyncio.sleep(runtime.dump_interval)
                service.publish_slo_gauges()
                runtime.dump_registry(service.registry)

        dump_task = loop.create_task(_dump_periodically())

    if on_started is not None:
        on_started(server.port)
    await stop.wait()

    server.close_listener()
    admission = server.admission
    drained = await admission.wait_idle_async(drain_timeout)
    if not drained and runtime is None:
        print(
            "repro serve: drain timeout reached with "
            f"{admission.inflight} request(s) still "
            "in flight",
            file=sys.stderr,
            flush=True,
        )
    if dump_task is not None:
        dump_task.cancel()
    if runtime is not None:
        service.publish_slo_gauges()
        runtime.dump_registry(service.registry)
    server.close_connections()
    await server.wait_closed()
    return 0
