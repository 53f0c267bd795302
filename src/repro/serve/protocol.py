"""Wire framing: line-delimited JSON-RPC 2.0 and DAP Content-Length.

One daemon port speaks three protocols, distinguished by the first byte
a client sends (see :func:`sniff_protocol`):

- ``{`` — line-delimited JSON-RPC 2.0: one JSON object per ``\\n``-
  terminated line, requests carry ``id``, server-pushed events are
  id-less notifications with ``method: "event"``;
- ``C`` — DAP: ``Content-Length: N\\r\\n\\r\\n<N bytes of JSON>`` frames,
  the Debug Adapter Protocol's standard transport;
- ``G`` — HTTP ``GET``: the OpenMetrics scrape endpoint.

Everything here is transport-only (bytes and dicts); semantics live in
:mod:`repro.serve.daemon` and :mod:`repro.serve.dap`.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Dict, Optional, Tuple

# JSON-RPC 2.0 reserved codes
ERR_PARSE = -32700
ERR_INVALID_REQUEST = -32600
ERR_METHOD_NOT_FOUND = -32601
ERR_INVALID_PARAMS = -32602
ERR_INTERNAL = -32603

# application codes (documented in README's "Debug server" section)
ERR_NO_SESSION = 1001  # unknown / already-destroyed session id
ERR_QUOTA = 1002  # a per-session quota is exhausted (data names which)
ERR_SESSION_FAILED = 1003  # the session raised; the daemon survives
ERR_SHUTTING_DOWN = 1004  # daemon is draining; no new work accepted

MAX_LINE_BYTES = 1 << 20  # one wire request; commands are short


def encode_line(obj: Dict[str, Any]) -> bytes:
    """One protocol line (compact separators: the framing is the
    newline, not whitespace)."""
    return json.dumps(obj, separators=(",", ":"), sort_keys=True).encode() + b"\n"


def response(req_id: Any, result: Any) -> Dict[str, Any]:
    return {"jsonrpc": "2.0", "id": req_id, "result": result}


def error_response(
    req_id: Any, code: int, message: str, data: Optional[Dict[str, Any]] = None
) -> Dict[str, Any]:
    err: Dict[str, Any] = {"code": code, "message": message}
    if data is not None:
        err["data"] = data
    return {"jsonrpc": "2.0", "id": req_id, "error": err}


def event_notification(session_id: Optional[str], kind: str, data: Any) -> Dict[str, Any]:
    """A server-pushed event (no ``id``: notifications expect no reply)."""
    return {
        "jsonrpc": "2.0",
        "method": "event",
        "params": {"session": session_id, "type": kind, "data": data},
    }


def parse_request(line: bytes) -> Tuple[Optional[Dict[str, Any]], Optional[str]]:
    """Decode one request line; returns ``(request, problem)`` with
    exactly one side set."""
    try:
        obj = json.loads(line.decode("utf-8", errors="replace"))
    except (ValueError, UnicodeError) as exc:
        return None, f"parse error: {exc}"
    if not isinstance(obj, dict):
        return None, "invalid request: not an object"
    method = obj.get("method")
    if not isinstance(method, str) or not method:
        return None, "invalid request: missing method"
    params = obj.get("params", {})
    if params is None:
        params = {}
    if not isinstance(params, dict):
        return None, "invalid request: params must be an object"
    obj["params"] = params
    return obj, None


def sniff_protocol(first_byte: bytes) -> str:
    """Classify a connection by its first byte: ``jsonrpc`` / ``dap`` /
    ``http`` (anything unrecognisable is treated as JSON-RPC so the
    client at least gets a parse error back)."""
    if first_byte == b"C":
        return "dap"
    if first_byte == b"G":
        return "http"
    return "jsonrpc"


# ------------------------------------------------------------- DAP framing


def encode_dap(obj: Dict[str, Any]) -> bytes:
    body = json.dumps(obj, separators=(",", ":"), sort_keys=True).encode()
    return f"Content-Length: {len(body)}\r\n\r\n".encode() + body


#: end of a DAP header block
_DAP_SEP = b"\r\n\r\n"
#: longest header block accepted (a real one is one short line)
MAX_DAP_HEADER = 8192


async def read_dap_message(reader, prefix: bytes = b"") -> Optional[Dict[str, Any]]:
    """Read one Content-Length framed DAP message; None at EOF or on a
    malformed or oversized frame.

    ``prefix`` replays bytes already consumed by the protocol sniffer.
    """
    header = bytes(prefix)
    # a separator that straddles the prefix and the stream is completed
    # byte by byte (at most three reads); otherwise it lies wholly ahead
    while _DAP_SEP not in header and any(
        header.endswith(_DAP_SEP[:k]) for k in (1, 2, 3)
    ):
        chunk = await reader.read(1)
        if not chunk:
            return None
        header += chunk
    if _DAP_SEP not in header:
        try:
            header += await reader.readuntil(_DAP_SEP)
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            return None
    if header.index(_DAP_SEP) + len(_DAP_SEP) > MAX_DAP_HEADER:
        return None
    head, _, rest = header.partition(_DAP_SEP)
    length = None
    for line in head.split(b"\r\n"):
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            try:
                length = int(value.strip())
            except ValueError:
                return None
    if length is None or length < 0 or length > MAX_LINE_BYTES:
        return None
    body = bytearray(rest)
    while len(body) < length:
        chunk = await reader.read(length - len(body))
        if not chunk:
            return None
        body.extend(chunk)
    try:
        obj = json.loads(bytes(body[:length]).decode("utf-8"))
    except (ValueError, UnicodeError):
        return None
    return obj if isinstance(obj, dict) else None
