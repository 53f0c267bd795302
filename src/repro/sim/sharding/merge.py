"""Per-shard journal merge and the canonical determinism fingerprint.

What can a sharded run promise to reproduce bit-for-bit?  Not the global
event interleaving: shards dispatch concurrently, so "token 17 then token
18" is meaningless across kernels, and global token seq numbers are
per-shard counters.  What *is* invariant — by the Kahn-network property
dataflow determinism rests on — is the ordered sequence of token values
carried by every individual link.  The canonical fingerprint is therefore
a digest over ``sorted(link name) -> [payload text, ...]``:

- a single-kernel run yields it from one journal
  (:meth:`~repro.sim.replay.ReplayJournal.link_value_streams`);
- a sharded run yields it by merging per-shard journals — every link's
  pushes live in exactly one shard (local links trivially; a cut link's
  pushes all happen on the producer shard, where the staging link carries
  the single-kernel link name), so the merge is a disjoint union;
- an unrecorded run (benchmarks, CI smoke) yields it from a lightweight
  :class:`PushStreamRecorder` bus tap.

All three must agree, byte for byte.  Tests and the CI shard-smoke job
gate on exactly that.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, List, Mapping

from ...errors import SimulationError
from ..replay import stable_value_text


class PushStreamRecorder:
    """Minimal per-link value-stream tap for unrecorded runs.

    Subscribes to ``pedf_rt_push`` exits on one runtime's bus; the
    subscription makes the bus *want* push events, so the §V elision fast
    path still materialises them even when no debugger capture is armed.
    """

    def __init__(self, runtime):
        self.streams: Dict[str, List[str]] = {}
        self._sub = runtime.bus.subscribe("pedf_rt_push", self._on_push, phase="exit")

    def _on_push(self, event):
        token = event.retval
        if token is None:
            return None
        link = event.args.get("link")
        if link:
            self.streams.setdefault(link, []).append(stable_value_text(token.value))
        return None

    def close(self) -> None:
        if self._sub is not None:
            self._sub.unsubscribe()
            self._sub = None


def merge_link_streams(parts: Iterable[Mapping[str, List[str]]]) -> Dict[str, List[str]]:
    """Disjoint union of per-shard link streams.

    A link appearing in two parts would mean two shards both produced on
    it — a partitioning bug, not a tie to break — so it is an error."""
    merged: Dict[str, List[str]] = {}
    for part in parts:
        for link, stream in part.items():
            if link in merged:
                raise SimulationError(
                    f"link {link!r} has producers in more than one shard"
                )
            merged[link] = list(stream)
    return merged


def stream_digest(values: Iterable[str]) -> str:
    """Short digest of one link's ordered value stream — the per-link
    unit the run-level fingerprint and the canonical telemetry
    projection both build on."""
    return hashlib.sha256("\x01".join(values).encode("utf-8")).hexdigest()[:16]


def fingerprint_streams(streams: Mapping[str, List[str]]) -> str:
    """SHA-256 over the canonical serialisation of the link streams."""
    h = hashlib.sha256()
    for link in sorted(streams):
        h.update(link.encode())
        h.update(b"\x00")
        for value in streams[link]:
            h.update(value.encode())
            h.update(b"\x01")
        h.update(b"\x02")
    return h.hexdigest()
