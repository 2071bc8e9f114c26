"""The one HTTP server: a route table, one request parser, one hosting.

``monitor --serve`` and ``serve-infer`` are this module plus a route
table; there is no other listener, router or parser.

Route table: ``{(method, path): handler}``; a handler (function or
coroutine function) takes the request body (``bytes``) and returns
``(status, body: str, content_type)``.  Paths match without query string
or trailing slash.  The server itself answers ``GET /`` (index generated
from the table, plus ``meta``) and every miss (404 + endpoint list).

Parser limits (module constants, not options): one request per
connection, complete within :data:`READ_TIMEOUT_S` (408); a line over
:data:`MAX_LINE_BYTES` is 431; a ``Content-Length`` that is not a
non-negative integer 400, over :data:`MAX_BODY_BYTES` 413; a method
other than GET/POST 405; a handler that raises 500.  Malformed input
never reaches the event loop's exception handler.

Hosting: ``start``/``stop`` serve from the caller's running loop, and
handlers run on it — the loop that also runs the telemetry poll
(:mod:`repro.serve`) and, for ``serve-infer``, the batcher that
``POST /predict`` awaits.  A handler must not block: it reads published
snapshots or awaits.
"""

from __future__ import annotations

import asyncio
import inspect
import json
from http import HTTPStatus

#: Default bind host: telemetry is an operator surface, not a public
#: one — bind loopback unless explicitly told otherwise.
DEFAULT_HOST = "127.0.0.1"

JSON = "application/json"

#: Longest request/header line accepted (the ``StreamReader`` limit).
MAX_LINE_BYTES = 16 * 1024
#: Largest request body accepted.
MAX_BODY_BYTES = 1 << 20
#: Deadline for a complete request to arrive once a client connects.
READ_TIMEOUT_S = 10.0


class _Reject(Exception):
    """``_Reject(status, detail)``: a request the parser refuses."""


def error(status: int, message: str, **extra) -> tuple[int, str, str]:
    """A JSON error response: ``{"error": message, **extra}``."""
    return status, json.dumps({"error": message, **extra}), JSON


async def _read_request(reader: asyncio.StreamReader):
    """Parse one request into ``(method, path, body)``; ``None`` when
    the client closed without sending anything."""
    request_line = await reader.readline()
    if not request_line:
        return None
    parts = request_line.decode("latin-1").split()
    if len(parts) < 2:
        raise _Reject(400, "malformed request line")
    method = parts[0].upper()
    path = parts[1].split("?", 1)[0].rstrip("/") or "/"
    length = 0
    while (header := await reader.readline()) not in (b"\r\n", b"\n", b""):
        name, _, value = header.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            if not value.strip().isdecimal():
                raise _Reject(400, f"invalid Content-Length {value.strip()!r}")
            length = int(value)
    if method not in ("GET", "POST"):
        raise _Reject(405, f"method {method} not allowed")
    if length > MAX_BODY_BYTES:
        raise _Reject(413, f"body exceeds {MAX_BODY_BYTES} bytes")
    return method, path, await reader.readexactly(length)


class HTTPServer:
    """An asyncio HTTP/1.1 server over one route table."""

    def __init__(self, routes: dict, host: str = DEFAULT_HOST,
                 port: int = 0, meta: dict | None = None):
        self.routes = dict(routes)
        self.host = host
        #: The bound port once started (resolves port 0).
        self.port = int(port)
        self.meta = dict(meta or {})
        self.url = ""
        #: GET requests answered so far.
        self.scrapes = 0
        self._server: asyncio.AbstractServer | None = None

    async def start(self) -> "HTTPServer":
        self._server = await asyncio.start_server(
            self._handle, host=self.host, port=self.port,
            limit=MAX_LINE_BYTES)
        self.port = self._server.sockets[0].getsockname()[1]
        self.url = f"http://{self.host}:{self.port}"
        return self

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # ------------------------------------------------------------------
    # One connection
    # ------------------------------------------------------------------
    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            response = await self._respond(reader)
            if response is not None:
                status, body, ctype = response
                data = body.encode("utf-8")
                head = (f"HTTP/1.1 {status} {HTTPStatus(status).phrase}\r\n"
                        f"Content-Type: {ctype}\r\n"
                        f"Content-Length: {len(data)}\r\n"
                        f"Connection: close\r\n\r\n")
                writer.write(head.encode("latin-1") + data)
                await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-request
        finally:
            writer.close()

    async def _respond(self, reader) -> tuple[int, str, str] | None:
        try:
            request = await asyncio.wait_for(_read_request(reader),
                                             READ_TIMEOUT_S)
        except _Reject as exc:
            return error(*exc.args)
        except ValueError:  # a line over the StreamReader limit
            return error(431, f"line exceeds {MAX_LINE_BYTES} bytes")
        except asyncio.TimeoutError:
            return error(408, f"no request within {READ_TIMEOUT_S:g}s")
        if request is None:
            return None
        method, path, body = request
        if method == "GET":
            self.scrapes += 1
        handler = self.routes.get((method, path))
        if handler is None:
            endpoints = list(dict.fromkeys(route for _, route in self.routes))
            if (method, path) == ("GET", "/"):
                return 200, json.dumps(
                    {"endpoints": endpoints, "meta": self.meta},
                    indent=2, sort_keys=True), JSON
            return error(404, f"unknown path {path!r}", endpoints=endpoints)
        try:
            response = handler(body)
            if inspect.isawaitable(response):
                response = await response
            return response
        except Exception as exc:  # noqa: BLE001 - surface as HTTP 500
            return error(500, f"{type(exc).__name__}: {exc}")
