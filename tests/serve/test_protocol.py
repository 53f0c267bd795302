"""Transport-layer units: line JSON-RPC framing, sniffing, DAP frames."""

import asyncio
import json

from repro.serve import protocol as proto


def test_encode_line_is_compact_newline_terminated():
    data = proto.encode_line({"b": 1, "a": [1, 2]})
    assert data.endswith(b"\n")
    assert b" " not in data  # compact separators: the newline is the framing
    assert json.loads(data) == {"a": [1, 2], "b": 1}


def test_response_and_error_shapes():
    ok = proto.response(7, {"x": 1})
    assert ok == {"jsonrpc": "2.0", "id": 7, "result": {"x": 1}}
    err = proto.error_response(7, proto.ERR_QUOTA, "spent", {"quota": "max_events"})
    assert err["error"]["code"] == 1002
    assert err["error"]["data"] == {"quota": "max_events"}
    bare = proto.error_response(None, proto.ERR_PARSE, "bad")
    assert "data" not in bare["error"]


def test_event_notification_has_no_id():
    note = proto.event_notification("s1", "stop", {"kind": "breakpoint"})
    assert "id" not in note
    assert note["method"] == "event"
    assert note["params"]["session"] == "s1"
    assert note["params"]["type"] == "stop"


def test_parse_request_happy_path():
    request, problem = proto.parse_request(
        b'{"jsonrpc":"2.0","id":1,"method":"ping"}\n'
    )
    assert problem is None
    assert request["method"] == "ping"
    assert request["params"] == {}  # defaulted, always a dict


def test_parse_request_null_params_normalised():
    request, problem = proto.parse_request(
        b'{"id":1,"method":"ping","params":null}'
    )
    assert problem is None
    assert request["params"] == {}


def test_parse_request_rejects_garbage():
    request, problem = proto.parse_request(b"{nope")
    assert request is None and "parse error" in problem

    request, problem = proto.parse_request(b"[1,2,3]")
    assert request is None and "not an object" in problem

    request, problem = proto.parse_request(b'{"id":1}')
    assert request is None and "missing method" in problem

    request, problem = proto.parse_request(b'{"method":"x","params":[1]}')
    assert request is None and "params must be an object" in problem


def test_sniff_protocol():
    assert proto.sniff_protocol(b"{") == "jsonrpc"
    assert proto.sniff_protocol(b"C") == "dap"
    assert proto.sniff_protocol(b"G") == "http"
    # unknown first bytes fall back to JSON-RPC so the client at least
    # gets a parse error back instead of silence
    assert proto.sniff_protocol(b"x") == "jsonrpc"


def _feed_reader(data: bytes) -> asyncio.StreamReader:
    reader = asyncio.StreamReader()
    reader.feed_data(data)
    reader.feed_eof()
    return reader


def _read_dap(data: bytes, prefix: bytes = b""):
    async def go():
        return await proto.read_dap_message(_feed_reader(data), prefix=prefix)

    return asyncio.run(go())


def test_dap_round_trip():
    message = {"type": "request", "command": "initialize", "seq": 1}
    assert _read_dap(proto.encode_dap(message)) == message


def test_dap_prefix_replay():
    # the sniffer consumed the first byte; the reader must splice it back
    frame = proto.encode_dap({"seq": 2, "type": "request", "command": "threads"})
    assert _read_dap(frame[1:], prefix=frame[:1])["command"] == "threads"


def test_dap_eof_and_bad_frames_return_none():
    assert _read_dap(b"") is None
    assert _read_dap(b"Content-Length: nope\r\n\r\n{}") is None
    assert _read_dap(b"X-Whatever: 1\r\n\r\n{}") is None  # no length at all
    # truncated body
    assert _read_dap(b'Content-Length: 99\r\n\r\n{"a":1}') is None
    # body is not an object
    assert _read_dap(b"Content-Length: 7\r\n\r\n[1,2,3]") is None


def test_dap_separator_split_across_prefix_and_stream():
    frame = proto.encode_dap({"seq": 3, "type": "request", "command": "next"})
    cut = frame.index(b"\r\n\r\n") + 2  # prefix ends in the middle of it
    for at in (cut - 1, cut, cut + 1):
        assert _read_dap(frame[at:], prefix=frame[:at])["command"] == "next"
    # a prefix holding the whole header and part of the body
    body_start = frame.index(b"\r\n\r\n") + 4
    assert _read_dap(frame[body_start + 3:], prefix=frame[: body_start + 3])["seq"] == 3


def test_dap_pipelined_messages_read_one_at_a_time():
    first = {"seq": 1, "type": "request", "command": "threads"}
    second = {"seq": 2, "type": "request", "command": "stackTrace"}

    async def go():
        reader = _feed_reader(proto.encode_dap(first) + proto.encode_dap(second))
        a = await proto.read_dap_message(reader)
        b = await proto.read_dap_message(reader)
        c = await proto.read_dap_message(reader)
        return a, b, c

    assert asyncio.run(go()) == (first, second, None)


def test_dap_oversized_header_returns_none():
    filler = b"X-Pad: " + b"a" * proto.MAX_DAP_HEADER + b"\r\n"
    frame = filler + b"Content-Length: 2\r\n\r\n{}"
    assert _read_dap(frame) is None
    # no separator at all, then EOF
    assert _read_dap(b"Content-Length: 2\r\n" + b"a" * 20000) is None
    # the largest accepted header block still parses; one byte more does not
    ok = b"Content-Length: 2\r\n\r\n"
    pad = b"X-Pad: " + b"a" * (proto.MAX_DAP_HEADER - len(ok) - 9) + b"\r\n"
    assert len(pad + ok) == proto.MAX_DAP_HEADER
    assert _read_dap(pad + ok + b"{}") == {}
    assert _read_dap(b"a" + pad + ok + b"{}") is None
