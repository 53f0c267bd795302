"""Compressed on-disk journal segments: bounded memory, unbounded runs.

A :class:`~repro.sim.replay.ReplayJournal` recorded with ``segment_dir``
keeps only a sliding in-memory window of the event log; once the window
fills, the oldest half rotates into a **segment** — one file holding the
rotated :class:`~repro.sim.replay.DataflowEvent` tuples *and* the
matching slices of the journal's side tables (event payload values,
token links).  Nothing is lost: positions stay 1-based and contiguous,
queries fall back to segments transparently, and the derivers stream
segment by segment so a profile or verdict over a multi-million-event
run never materialises the whole journal in memory.

A segment file is a 14-byte header — the magic ``RJSG``, the format
number (2), the blob length and the blob's CRC32 — followed by the blob:
zlib-compressed JSON of plain lists (side tables as ``[position, text]``
pairs, since JSON keys are strings).  Loading never executes anything
from the file, and :meth:`SegmentStore.load` raises
:class:`~repro.errors.ReplayError` for a file of an unknown format, a
checksum mismatch, a truncated file or bytes that do not decode.

Segments are immutable once written and named by their position range
(``seg-<first>-<last>.bin``), so a directory doubles as a durable,
order-reconstructible record of the run.  A tiny LRU (default: the two
most recently touched segments) keeps sequential streaming — the common
access pattern of ``rv.derive`` / ``derive_telemetry`` — at one
decompression per segment.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterator, List, NamedTuple, Optional, Tuple

from ..errors import ReplayError

if TYPE_CHECKING:  # pragma: no cover
    from .replay import DataflowEvent

#: in-memory event-log window before rotation kicks in
DEFAULT_SEGMENT_WINDOW = 4096

FORMAT = 2
_MAGIC = b"RJSG"
#: magic, format number, blob length, CRC32 of the blob
_HEADER = struct.Struct(">4sHII")


@dataclass(frozen=True)
class SegmentInfo:
    """One rotated chunk of the event log (positions ``first..last``)."""

    first: int  # 1-based position of the oldest record in the segment
    last: int  # 1-based position of the newest record
    path: str
    compressed_bytes: int

    @property
    def count(self) -> int:
        return self.last - self.first + 1


class SegmentData(NamedTuple):
    """A decoded segment: events + side-table slices."""

    first: int  # position of records[0]
    records: List["DataflowEvent"]
    event_values: Dict[int, str]
    token_links: Dict[int, str]

    def record_at(self, index: int) -> "DataflowEvent":
        return self.records[index - self.first]


def _decode(raw: bytes, path: str) -> SegmentData:
    """Parse the bytes :meth:`SegmentStore.rotate` writes; ReplayError on
    any damage."""
    from .replay import DataflowEvent

    if len(raw) < _HEADER.size:
        raise ReplayError(f"journal segment {path} is truncated ({len(raw)} byte(s))")
    magic, fmt, length, crc = _HEADER.unpack_from(raw)
    if magic != _MAGIC or fmt != FORMAT:
        raise ReplayError(
            f"journal segment {path} has unknown format "
            f"{magic!r}/{fmt} (this build reads format {FORMAT})"
        )
    blob = raw[_HEADER.size:]
    if len(blob) != length:
        raise ReplayError(
            f"journal segment {path} is truncated ({len(blob)} of {length} byte(s))"
        )
    if zlib.crc32(blob) != crc:
        raise ReplayError(f"journal segment {path} fails its checksum")
    try:
        payload = json.loads(zlib.decompress(blob))
        return SegmentData(
            payload["first"],
            [DataflowEvent._make(fields) for fields in payload["records"]],
            dict(payload["event_values"]),
            dict(payload["token_links"]),
        )
    except (zlib.error, ValueError, KeyError, TypeError) as exc:
        raise ReplayError(f"journal segment {path} does not decode: {exc}") from None


class SegmentStore:
    """Writes, indexes and lazily re-loads a journal's rotated segments."""

    def __init__(self, directory: str, cache_size: int = 2):
        self.directory = directory
        self.segments: List[SegmentInfo] = []
        self._cache: "OrderedDict[str, SegmentData]" = OrderedDict()
        self._cache_size = max(1, cache_size)
        os.makedirs(directory, exist_ok=True)

    # ------------------------------------------------------------- writing

    def rotate(
        self,
        first: int,
        records: List["DataflowEvent"],
        event_values: Dict[int, str],
        token_links: Dict[int, str],
    ) -> SegmentInfo:
        """Persist ``records`` (positions ``first..first+len-1``) plus the
        side-table entries belonging to them.  The caller owns deleting
        the rotated entries from its in-memory tables."""
        if not records:
            raise ValueError("refusing to write an empty segment")
        last = first + len(records) - 1
        payload = {
            "first": first,
            "records": records,  # tuples serialise as JSON lists
            "event_values": list(event_values.items()),
            "token_links": list(token_links.items()),
        }
        blob = zlib.compress(json.dumps(payload, separators=(",", ":")).encode())
        raw = _HEADER.pack(_MAGIC, FORMAT, len(blob), zlib.crc32(blob)) + blob
        path = os.path.join(self.directory, f"seg-{first:012d}-{last:012d}.bin")
        with open(path, "wb") as fh:
            fh.write(raw)
        info = SegmentInfo(first=first, last=last, path=path, compressed_bytes=len(raw))
        self.segments.append(info)
        return info

    # ------------------------------------------------------------- reading

    @property
    def total_stored(self) -> int:
        return sum(seg.count for seg in self.segments)

    @property
    def total_bytes(self) -> int:
        return sum(seg.compressed_bytes for seg in self.segments)

    def segment_for(self, index: int) -> Optional[SegmentInfo]:
        """The segment holding position ``index``, if any (binary search:
        segments are appended in position order and never overlap)."""
        lo, hi = 0, len(self.segments) - 1
        while lo <= hi:
            mid = (lo + hi) // 2
            seg = self.segments[mid]
            if index < seg.first:
                hi = mid - 1
            elif index > seg.last:
                lo = mid + 1
            else:
                return seg
        return None

    def load(self, seg: SegmentInfo) -> SegmentData:
        """Decompress a segment (LRU-cached)."""
        cached = self._cache.get(seg.path)
        if cached is not None:
            self._cache.move_to_end(seg.path)
            return cached
        with open(seg.path, "rb") as fh:
            data = _decode(fh.read(), seg.path)
        self._cache[seg.path] = data
        while len(self._cache) > self._cache_size:
            self._cache.popitem(last=False)
        return data

    def iter_records(self) -> Iterator[Tuple[int, "DataflowEvent"]]:
        """Stream ``(position, event)`` over every segment, oldest first,
        one decompressed segment resident at a time."""
        for seg in self.segments:
            yield from enumerate(self.load(seg).records, seg.first)

    def describe(self) -> str:
        if not self.segments:
            return "0 segment(s)"
        return (
            f"{len(self.segments)} segment(s), events "
            f"{self.segments[0].first}..{self.segments[-1].last}, "
            f"{self.total_bytes} compressed byte(s) in {self.directory}"
        )
