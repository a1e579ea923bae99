"""The daemon's wire transport: stdlib-asyncio HTTP/1.1 + WebSocket.

No third-party web framework — the container bakes in only the standard
library, so this module speaks just enough HTTP/1.1 (request-line,
headers, content-length bodies, chunked responses, keep-alive) and just
enough RFC 6455 (handshake, server→client text frames, close/ping) to
serve the :class:`~repro.serve.service.SwapService` surface:

====================================  =====================================
``POST /v1/runs``                     submit ``{"engine", "scenario"}``;
                                      200 warm-cache hit with the stored
                                      report, 202 accepted/coalesced,
                                      429 + ``Retry-After`` on backpressure
``GET /v1/runs/<key>``                job status; ``?wait=S`` long-polls
                                      until terminal or the deadline
``GET /v1/runs/<key>/events``         NDJSON stream of envelope events
                                      from ``?from=N``, live until the
                                      job's terminal event
``GET /v1/runs/<key>/ws``             the same stream over WebSocket
``DELETE /v1/runs/<key>``             request eviction (Execution.abort)
``GET /v1/status``                    queue/cache/latency/milestone metrics
``GET /v1/healthz``                   liveness probe
====================================  =====================================

Every error is JSON (``{"error", "message"}``); admission rejections map
to 429 with ``Retry-After``, schema violations to 400, unknown jobs to
404 — the service's exception taxonomy is the routing table.
"""

from __future__ import annotations

import argparse
import asyncio
import base64
import hashlib
import json
import struct
from typing import Any, Sequence
from urllib.parse import parse_qs, urlsplit

from repro.errors import (
    AdmissionError,
    ReproError,
    ServeError,
    WireError,
)
from repro.lab.store import open_store
from repro.serve.service import ServiceConfig, SwapService

#: RFC 6455 handshake GUID.
_WS_GUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"
_MAX_BODY = 4 * 1024 * 1024
_MAX_HEADER_LINES = 100


class HttpError(ServeError):
    """An error with a definite HTTP status."""

    def __init__(self, status: int, message: str, headers: dict | None = None) -> None:
        self.status = status
        self.headers = headers or {}
        super().__init__(message)


class Request:
    """One parsed HTTP request."""

    def __init__(
        self,
        method: str,
        target: str,
        headers: dict[str, str],
        body: bytes,
        peer: str,
    ) -> None:
        self.method = method
        split = urlsplit(target)
        self.path = split.path
        self.query = {k: v[-1] for k, v in parse_qs(split.query).items()}
        self.headers = headers
        self.body = body
        self.peer = peer

    def json(self) -> Any:
        try:
            return json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise HttpError(400, f"request body is not valid JSON: {error}")

    @property
    def client(self) -> str:
        """Rate-limit identity: explicit header first, else peer IP."""
        return self.headers.get("x-repro-client") or self.peer


_STATUS_TEXT = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    429: "Too Many Requests",
    500: "Internal Server Error",
}


class ServeHTTP:
    """Binds a :class:`SwapService` to an asyncio TCP server."""

    def __init__(
        self,
        service: SwapService,
        host: str = "127.0.0.1",
        port: int = 8642,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        await self.service.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        sockets = self._server.sockets or ()
        if sockets:
            self.port = sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.service.stop()

    async def serve_forever(self) -> None:
        assert self._server is not None, "start() first"
        await self._server.serve_forever()

    # -- connection handling -------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        peername = writer.get_extra_info("peername")
        peer = peername[0] if isinstance(peername, tuple) else "unknown"
        try:
            while True:
                request = await self._read_request(reader, peer)
                if request is None:
                    break
                keep_alive = await self._dispatch(request, reader, writer)
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except Exception as error:  # never take the daemon down with a request
            try:
                _json_response(
                    writer,
                    500,
                    {"error": "internal", "message": f"{type(error).__name__}: {error}"},
                )
            except Exception:
                pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader, peer: str
    ) -> Request | None:
        try:
            line = await reader.readline()
        except (ConnectionError, asyncio.LimitOverrunError):
            return None
        if not line or not line.strip():
            return None
        parts = line.decode("latin-1").strip().split()
        if len(parts) != 3:
            return None
        method, target, _version = parts
        headers: dict[str, str] = {}
        for _ in range(_MAX_HEADER_LINES):
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            name, sep, value = raw.decode("latin-1").partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        body = b""
        length = int(headers.get("content-length", 0) or 0)
        if length > _MAX_BODY:
            return None
        if length:
            body = await reader.readexactly(length)
        return Request(method.upper(), target, headers, body, peer)

    # -- routing -------------------------------------------------------------

    async def _dispatch(
        self,
        request: Request,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> bool:
        """Route one request; returns whether to keep the connection."""
        try:
            if request.path == "/v1/runs" and request.method == "POST":
                return self._post_run(request, writer)
            if request.path == "/v1/status" and request.method == "GET":
                _json_response(writer, 200, self.service.status())
                return True
            if request.path == "/v1/healthz" and request.method == "GET":
                _json_response(writer, 200, {"ok": True})
                return True
            if request.path.startswith("/v1/runs/"):
                return await self._run_routes(request, reader, writer)
            raise HttpError(404, f"no route for {request.method} {request.path}")
        except HttpError as error:
            _json_response(
                writer,
                error.status,
                {"error": _STATUS_TEXT.get(error.status, "error"),
                 "message": str(error)},
                extra_headers=error.headers,
            )
            return error.status < 500
        except AdmissionError as error:
            _json_response(
                writer,
                429,
                {
                    "error": "rejected",
                    "reason": error.reason,
                    "message": str(error),
                    "retry_after": error.retry_after,
                },
                extra_headers={"Retry-After": f"{error.retry_after:.2f}"},
            )
            return True
        except WireError as error:
            _json_response(writer, 400, {"error": "bad-request", "message": str(error)})
            return True
        except ReproError as error:
            _json_response(
                writer,
                400,
                {
                    "error": "bad-request",
                    "error_type": type(error).__name__,
                    "message": str(error),
                },
            )
            return True

    def _post_run(self, request: Request, writer: asyncio.StreamWriter) -> bool:
        payload = request.json()
        if not isinstance(payload, dict) or "scenario" not in payload:
            raise HttpError(
                400, 'submission body must be {"engine"?: str, "scenario": {...}}'
            )
        # Pre-admission gate: statically verify the submission before it
        # can claim an execution slot.  Structural defects come back as a
        # 400 with one machine-readable diagnostic (code + JSON path) per
        # problem instead of a single opaque parse error.
        from repro.analysis.diagnostics import has_errors
        from repro.analysis.protocol import check_submission

        diagnostics = check_submission(
            payload["scenario"],
            engine=payload.get("engine") or self.service.config.default_engine,
        )
        if has_errors(diagnostics):
            _json_response(
                writer,
                400,
                {
                    "error": "invalid-scenario",
                    "message": "submission failed static verification",
                    "diagnostics": [
                        d.to_dict() for d in diagnostics
                    ],
                },
            )
            return True
        result = self.service.submit(
            payload["scenario"],
            engine=payload.get("engine"),
            client=request.client,
        )
        doc = {
            "status": result.status,
            "key": result.key,
            "queue_depth": result.queue_depth,
        }
        if result.status == "cached":
            doc.update(result.job.state())
            doc["status"] = "cached"  # job.state() says settled/failed
            doc["engines_executed"] = 0
            _json_response(writer, 200, doc)
        else:
            _json_response(writer, 202, doc)
        return True

    async def _run_routes(
        self,
        request: Request,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> bool:
        rest = request.path[len("/v1/runs/"):]
        key, _, tail = rest.partition("/")
        if not key:
            raise HttpError(404, "missing run key")
        try:
            job = self.service.job(key)
        except ServeError as error:
            raise HttpError(404, str(error)) from None

        if not tail and request.method == "GET":
            wait = _float_query(request, "wait")
            if wait is not None and not job.terminal:
                job = await self.service.wait(key, timeout=wait)
            _json_response(writer, 200, job.state())
            return True
        if not tail and request.method == "DELETE":
            accepted = self.service.abort(
                key, reason=f"evicted by {request.client}"
            )
            _json_response(
                writer,
                202 if accepted else 200,
                {"key": key, "status": "aborting" if accepted else job.status},
            )
            return True
        if tail == "events" and request.method == "GET":
            await self._stream_events(request, key, writer)
            return False  # the stream owns (and ends) the connection
        if tail == "ws" and request.method == "GET":
            await self._stream_websocket(request, key, reader, writer)
            return False
        raise HttpError(405, f"no route for {request.method} {request.path}")

    # -- streaming subscribers -----------------------------------------------

    async def _stream_events(
        self, request: Request, key: str, writer: asyncio.StreamWriter
    ) -> None:
        """NDJSON over chunked transfer-encoding: one envelope per line,
        closed after the job's terminal event (long-poll in a loop =
        pass ``?from=`` of the last seen seq)."""
        from_seq = int(request.query.get("from", 0) or 0)
        _write_head(
            writer,
            200,
            {
                "Content-Type": "application/x-ndjson",
                "Transfer-Encoding": "chunked",
                "Cache-Control": "no-store",
            },
        )
        async for event in self.service.subscribe(key, from_seq):
            _write_chunk(writer, (json.dumps(event, sort_keys=True) + "\n").encode())
            await writer.drain()
        _write_chunk(writer, b"")
        await writer.drain()

    async def _stream_websocket(
        self,
        request: Request,
        key: str,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        ws_key = request.headers.get("sec-websocket-key")
        if (
            request.headers.get("upgrade", "").lower() != "websocket"
            or not ws_key
        ):
            raise HttpError(400, "expected a WebSocket upgrade request")
        accept = base64.b64encode(
            hashlib.sha1((ws_key + _WS_GUID).encode()).digest()
        ).decode()
        writer.write(
            b"HTTP/1.1 101 Switching Protocols\r\n"
            b"Upgrade: websocket\r\n"
            b"Connection: Upgrade\r\n"
            + f"Sec-WebSocket-Accept: {accept}\r\n\r\n".encode()
        )
        await writer.drain()
        from_seq = int(request.query.get("from", 0) or 0)
        closer = asyncio.ensure_future(_ws_read_until_close(reader))
        try:
            async for event in self.service.subscribe(key, from_seq):
                if closer.done():
                    return  # client went away mid-stream
                writer.write(_ws_text_frame(json.dumps(event, sort_keys=True)))
                await writer.drain()
            writer.write(_ws_close_frame())
            await writer.drain()
        finally:
            closer.cancel()


# -- low-level writers --------------------------------------------------------


def _float_query(request: Request, name: str) -> float | None:
    raw = request.query.get(name)
    if raw is None or raw == "":
        return None
    try:
        return float(raw)
    except ValueError:
        raise HttpError(400, f"query parameter {name!r} must be a number, got {raw!r}")


def _write_head(
    writer: asyncio.StreamWriter, status: int, headers: dict[str, str]
) -> None:
    lines = [f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'OK')}"]
    lines += [f"{name}: {value}" for name, value in headers.items()]
    writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1"))


def _write_chunk(writer: asyncio.StreamWriter, payload: bytes) -> None:
    writer.write(f"{len(payload):x}\r\n".encode() + payload + b"\r\n")


def _json_response(
    writer: asyncio.StreamWriter,
    status: int,
    payload: Any,
    extra_headers: dict | None = None,
) -> None:
    body = (json.dumps(payload, sort_keys=True) + "\n").encode()
    headers = {
        "Content-Type": "application/json",
        "Content-Length": str(len(body)),
    }
    if extra_headers:
        headers.update({k: str(v) for k, v in extra_headers.items()})
    _write_head(writer, status, headers)
    writer.write(body)


# -- minimal RFC 6455 ---------------------------------------------------------


def _ws_text_frame(text: str) -> bytes:
    """One server→client text frame (FIN set, unmasked)."""
    payload = text.encode("utf-8")
    length = len(payload)
    if length < 126:
        head = struct.pack("!BB", 0x81, length)
    elif length < 1 << 16:
        head = struct.pack("!BBH", 0x81, 126, length)
    else:
        head = struct.pack("!BBQ", 0x81, 127, length)
    return head + payload


def _ws_close_frame() -> bytes:
    return struct.pack("!BBH", 0x88, 2, 1000)  # normal closure


async def _ws_read_until_close(reader: asyncio.StreamReader) -> None:
    """Drain client frames, returning when the client closes."""
    try:
        while True:
            head = await reader.readexactly(2)
            opcode = head[0] & 0x0F
            length = head[1] & 0x7F
            masked = bool(head[1] & 0x80)
            if length == 126:
                length = struct.unpack("!H", await reader.readexactly(2))[0]
            elif length == 127:
                length = struct.unpack("!Q", await reader.readexactly(8))[0]
            if masked:
                await reader.readexactly(4)
            if length:
                await reader.readexactly(length)
            if opcode == 0x8:  # close
                return
    except (asyncio.IncompleteReadError, ConnectionError):
        return


# -- the `python -m repro serve` entry point ---------------------------------


def add_service_args(
    parser: argparse.ArgumentParser, rate: float, rate_help: str
) -> None:
    """The options ``serve`` and ``serve-bench`` share (see
    :func:`make_service`); only the ``--rate`` default differs."""
    parser.add_argument("--store", default=":memory:",
                        help="run store path (warm cache); default in-memory")
    parser.add_argument("--concurrency", type=int, default=4,
                        help="execution sessions driven simultaneously")
    parser.add_argument("--queue-depth", type=int, default=64,
                        help="admission queue bound (429 beyond it)")
    parser.add_argument("--rate", type=float, default=rate, help=rate_help)
    parser.add_argument("--engine", default="herlihy",
                        help="default engine for submissions that omit one")


def make_service(args: argparse.Namespace, **config: Any) -> SwapService:
    """The service :func:`add_service_args`' options describe;
    ``config`` sets the remaining :class:`ServiceConfig` fields."""
    return SwapService(
        ServiceConfig(
            max_pending=args.queue_depth,
            max_concurrency=args.concurrency,
            rate=args.rate,
            default_engine=args.engine,
            **config,
        ),
        store=open_store(args.store),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="the long-lived swap service: HTTP submissions, "
        "streaming milestone subscriptions, store-backed warm cache",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8642,
                        help="TCP port (0 picks a free one)")
    add_service_args(parser, 50.0, "per-client submissions/sec (0 disables)")
    parser.add_argument("--burst", type=float, default=100.0,
                        help="per-client burst capacity")
    parser.add_argument("--max-run-seconds", type=float, default=30.0,
                        help="evict a session running longer than this")
    parser.add_argument("--fast-path", action="store_true",
                        help="settle fully-covered submissions from the "
                             "closed-form analytic synthesizer without "
                             "occupying an execution slot")
    return parser


async def _amain(args: argparse.Namespace, service: SwapService) -> int:
    server = ServeHTTP(service, host=args.host, port=args.port)
    await server.start()
    print(
        f"repro serve: listening on http://{server.host}:{server.port} "
        f"(store: {args.store}, concurrency {args.concurrency}, "
        f"queue {args.queue_depth}, rate {args.rate}/s)",
        flush=True,
    )
    try:
        await server.serve_forever()
    except asyncio.CancelledError:
        pass
    finally:
        await server.stop()
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # Built before the loop, so a refused config fails fast (ServeError).
    service = make_service(
        args,
        burst=args.burst,
        max_run_seconds=args.max_run_seconds,
        fast_path=args.fast_path,
    )
    try:
        return asyncio.run(_amain(args, service))
    except KeyboardInterrupt:
        print("repro serve: shut down", flush=True)
        return 0
