"""Per-session quotas: structured errors, run-control refusal with
inspection still allowed, and the mid-command wall-clock watchdog."""

import sys

import pytest

from repro.errors import ReproError
from repro.serve.client import RpcError
from repro.serve.sessions import (
    QuotaExceeded,
    SessionQuota,
    SessionRegistry,
    journal_bytes,
)


@pytest.fixture
def registry():
    reg = SessionRegistry()
    yield reg
    reg.close_all()


def test_quota_validation():
    q = SessionQuota.from_params({"max_events": 100, "max_wall_ms": 2.5})
    assert q.max_events == 100
    assert q.max_wall_ms == 2.5
    assert q.max_journal_bytes is None
    assert SessionQuota.from_params(None) == SessionQuota()
    with pytest.raises(ReproError, match="positive"):
        SessionQuota.from_params({"max_events": -1})
    with pytest.raises(ReproError, match="positive"):
        SessionQuota.from_params({"max_wall_ms": "lots"})


def test_max_events_refuses_run_control_only(registry):
    handle = registry.create("rle", quota=SessionQuota(max_events=5))
    assert handle.execute("run").ok  # pre-check passes; the run overshoots
    with pytest.raises(QuotaExceeded) as exc:
        handle.execute("continue")
    assert exc.value.quota == "max_events"
    assert exc.value.to_data() == {
        "quota": "max_events",
        "limit": 5,
        "used": exc.value.used,
    }
    assert exc.value.used >= 5
    # run-control stays refused...
    for refused in ("run", "step", "replay to event 1"):
        with pytest.raises(QuotaExceeded):
            handle.execute(refused)
    # ...but the post-mortem stays reachable
    assert handle.execute("info actors").ok
    assert handle.execute("bt").ok
    assert handle.service.state()["events_processed"] >= 5
    assert handle.describe()["quota_exhausted"] == "max_events"


def test_max_journal_bytes(registry):
    handle = registry.create("rle", quota=SessionQuota(max_journal_bytes=64))
    handle.execute("record on")
    assert handle.execute("run").ok
    assert journal_bytes(handle.session) > 64
    with pytest.raises(QuotaExceeded) as exc:
        handle.execute("continue")
    assert exc.value.quota == "max_journal_bytes"


def test_journal_bytes_charges_every_resident_record(registry, tmp_path):
    """The estimate never undercounts: each resident record costs at least
    its own tuple, and rotated segments their exact on-disk bytes."""
    handle = registry.create("rle", values=[1 + (i % 5) for i in range(200)])
    handle.execute(f"record on segments {tmp_path} window 64")
    assert handle.execute("run").ok
    while not handle.session.dbg.finished:
        assert handle.execute("continue").ok
    master = handle.session.replay.master
    assert master.segments.segments, "run never rotated a segment"
    assert len(master.events) > 0
    resident = sum(sys.getsizeof(r) for r in master.events)
    assert journal_bytes(handle.session) >= resident + master.segments.total_bytes


def test_wall_clock_watchdog_interrupts_mid_command(registry):
    # a feed long enough that `continue` would run for many seconds —
    # the watchdog must park it at a dispatch boundary instead
    handle = registry.create(
        "rle",
        values=[1 + (i % 9) for i in range(20000)],
        quota=SessionQuota(max_wall_ms=300),
    )
    result = handle.execute("run")
    if result.ok and not handle.session.dbg.finished:
        result = handle.execute("continue")
    assert result.stop is not None
    assert result.stop["kind"] == "paused"  # parked, not completed
    with pytest.raises(QuotaExceeded) as exc:
        handle.execute("continue")
    assert exc.value.quota == "max_wall_ms"
    assert exc.value.used >= 300
    # inspection is still answered after the budget is spent
    assert handle.execute("info actors").ok


def test_quota_error_over_the_wire(client):
    sid = client.create("rle", quota={"max_events": 5})["session"]
    assert client.execute(sid, "run")["ok"]
    with pytest.raises(RpcError) as exc:
        client.execute(sid, "continue")
    assert exc.value.code == 1002
    assert exc.value.data["quota"] == "max_events"
    assert exc.value.data["limit"] == 5
    # structured inspection RPCs keep working for the post-mortem
    assert client.state(sid)["events_processed"] >= 5
    assert client.actors(sid)
    # the exhausted quota is visible in the session listing
    listed = {s["id"]: s for s in client.sessions()}
    assert listed[sid]["quota_exhausted"] == "max_events"
    # destroying the spent session frees the slot
    client.destroy(sid)
    assert client.sessions() == []


def test_invalid_wire_quota_is_rejected(client):
    with pytest.raises(RpcError) as exc:
        client.create("rle", quota={"max_events": 0})
    assert exc.value.code == 1003


def test_session_limit(registry):
    reg = SessionRegistry(max_sessions=2)
    reg.create("rle")
    reg.create("rle")
    with pytest.raises(ReproError, match="session limit"):
        reg.create("rle")
    reg.close_all()
