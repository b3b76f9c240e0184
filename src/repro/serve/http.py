"""Minimal HTTP/1.1 request/response handling over asyncio streams.

The container ships no HTTP framework, and the service needs very
little: parse ``GET /path?query`` plus headers, write a status line,
headers, and a body, and keep the connection alive between requests.
This module is that -- a deliberately small, strict subset of HTTP/1.1
(no chunked encoding, no pipelining guarantees beyond serial handling,
bounded header sizes) shared by the server, the chaos load generator,
and the tests -- plus the server's keep-alive loop and its strong-ETag
conditional requests.
"""

from __future__ import annotations

import asyncio
import hashlib
from dataclasses import dataclass, field
from typing import Awaitable, Callable, Dict, List, Optional, Tuple
from urllib.parse import parse_qsl, urlsplit

__all__ = ["HttpError", "Request", "Response", "etag_for", "none_match",
           "read_request", "read_response", "render_response",
           "render_request", "serve_connection"]

#: Bounds that keep a hostile client from ballooning server memory.
MAX_REQUEST_LINE = 8192
MAX_HEADER_BYTES = 32768
MAX_BODY_BYTES = 1 << 20

_REASONS = {
    200: "OK", 304: "Not Modified", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 408: "Request Timeout",
    429: "Too Many Requests", 500: "Internal Server Error",
    503: "Service Unavailable", 504: "Gateway Timeout",
}


class HttpError(Exception):
    """A malformed or oversized request (maps to a 400 response)."""


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    target: str
    path: str
    query: Dict[str, str]
    headers: Dict[str, str]  # keys lower-cased
    body: bytes = b""

    @property
    def keep_alive(self) -> bool:
        return self.headers.get("connection", "").lower() != "close"


@dataclass
class Response:
    """One HTTP response; ``render_response`` serializes it."""

    status: int
    body: bytes = b""
    content_type: str = "application/json"
    headers: List[Tuple[str, str]] = field(default_factory=list)

    def header(self, name: str) -> Optional[str]:
        wanted = name.lower()
        for key, value in self.headers:
            if key.lower() == wanted:
                return value
        return None


async def _read_headers(reader: asyncio.StreamReader) -> Dict[str, str]:
    headers: Dict[str, str] = {}
    total = 0
    while True:
        try:
            line = await reader.readline()
        except (ValueError, asyncio.LimitOverrunError):
            # A single line beyond the StreamReader limit: readline()
            # raises instead of returning, so map it to a 400 rather
            # than letting it escape as an unhandled exception.
            raise HttpError("header line too long")
        total += len(line)
        if total > MAX_HEADER_BYTES:
            raise HttpError("headers too large")
        if line in (b"\r\n", b"\n"):
            return headers
        if not line:
            raise HttpError("connection closed inside headers")
        name, sep, value = line.decode("latin-1").partition(":")
        if not sep or not name.strip():
            raise HttpError(f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()


async def read_request(reader: asyncio.StreamReader) -> Optional[Request]:
    """Parse one request; ``None`` when the client closed the connection."""
    try:
        line = await reader.readuntil(b"\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise HttpError("connection closed inside the request line")
    except asyncio.LimitOverrunError:
        raise HttpError("request line too long")
    if len(line) > MAX_REQUEST_LINE:
        raise HttpError("request line too long")
    parts = line.decode("latin-1").strip().split()
    if len(parts) != 3:
        raise HttpError(f"malformed request line {line!r}")
    method, target, version = parts
    if not version.startswith("HTTP/1."):
        raise HttpError(f"unsupported HTTP version {version!r}")
    split = urlsplit(target)
    query = dict(parse_qsl(split.query, keep_blank_values=True))
    headers = await _read_headers(reader)
    body = b""
    length = headers.get("content-length")
    if length is not None:
        try:
            n = int(length)
        except ValueError:
            raise HttpError(f"bad Content-Length {length!r}")
        if n < 0 or n > MAX_BODY_BYTES:
            raise HttpError(f"unacceptable Content-Length {n}")
        body = await reader.readexactly(n)
    return Request(method=method.upper(), target=target,
                   path=split.path or "/", query=query, headers=headers,
                   body=body)


def render_response(response: Response, *, keep_alive: bool = True) -> bytes:
    """Serialize a :class:`Response` (adds framing headers)."""
    reason = _REASONS.get(response.status, "Unknown")
    lines = [f"HTTP/1.1 {response.status} {reason}"]
    body = b"" if response.status == 304 else response.body
    seen = {key.lower() for key, _ in response.headers}
    if response.status != 304 and "content-type" not in seen:
        lines.append(f"Content-Type: {response.content_type}")
    lines.append(f"Content-Length: {len(body)}")
    lines.append("Connection: " + ("keep-alive" if keep_alive else "close"))
    for key, value in response.headers:
        lines.append(f"{key}: {value}")
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    return head + body


async def serve_connection(reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter,
                           handle: Callable[[Request], Awaitable[Response]],
                           refuse: Callable[[str], Response]) -> None:
    """Serve one connection: ``handle`` each request in turn while the
    client keeps it alive; a malformed request gets ``refuse(message)``
    and the connection closes."""
    try:
        while True:
            try:
                request = await read_request(reader)
            except HttpError as exc:
                writer.write(render_response(refuse(str(exc)),
                                             keep_alive=False))
                await writer.drain()
                break
            if request is None:
                break
            response = await handle(request)
            keep = request.keep_alive
            writer.write(render_response(response, keep_alive=keep))
            await writer.drain()
            if not keep:
                break
    except (ConnectionResetError, BrokenPipeError, asyncio.TimeoutError,
            asyncio.CancelledError):  # CancelledError: server shutdown
        pass
    finally:
        try:
            writer.close()
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass


def etag_for(body: bytes) -> str:
    """The strong ``ETag`` of ``body``: its quoted sha256."""
    return '"' + hashlib.sha256(body).hexdigest() + '"'


def none_match(header: Optional[str], etag: str) -> bool:
    """``If-None-Match`` against ``etag`` (RFC 9110 section 13.1.2):
    ``*`` or a comma-separated list, compared weakly (``W/`` ignored)."""
    if header is None:
        return False
    return header == etag or header.strip() == "*" or any(
        tag.strip().removeprefix("W/") == etag for tag in header.split(","))


def render_request(method: str, target: str,
                   headers: Optional[Dict[str, str]] = None) -> bytes:
    """Serialize a bodyless client request (the load generator's half)."""
    lines = [f"{method} {target} HTTP/1.1", "Host: repro-serve"]
    for key, value in (headers or {}).items():
        lines.append(f"{key}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


async def read_response(reader: asyncio.StreamReader) -> Response:
    """Parse one response from a server stream (client half)."""
    line = (await reader.readline()).decode("latin-1").strip()
    if not line:
        raise HttpError("connection closed before the status line")
    parts = line.split(None, 2)
    if len(parts) < 2 or not parts[0].startswith("HTTP/1."):
        raise HttpError(f"malformed status line {line!r}")
    status = int(parts[1])
    headers = await _read_headers(reader)
    body = b""
    length = headers.get("content-length")
    if length is not None and int(length) > 0:
        body = await reader.readexactly(int(length))
    return Response(status=status, body=body,
                    content_type=headers.get("content-type", ""),
                    headers=list(headers.items()))
