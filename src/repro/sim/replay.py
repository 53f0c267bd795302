"""Deterministic record/replay journal.

Dataflow programs have deterministic communication semantics, and the
kernel dispatches deterministically (FIFO ready queue, monotone tie-break
in the timed heap) — so a run is fully reproduced by re-executing it from
the start, *provided nothing external perturbs it*.  The journal records
everything needed to (a) navigate a finished or stopped execution by
position and (b) prove the re-execution really is identical:

- a compact **event log** — one :class:`DataflowEvent` per framework
  event (entry/exit of ``pedf_rt_*``): simulated time, acting actor, the
  token's global sequence number (data-exchange exits), link and
  scheduling target.  The log doubles as a fingerprint stream: replaying
  compares each whole event against the recorded one (the determinism
  self-check).
- periodic **checkpoints** — digests taken every N completed dispatches:
  simulated time, next token seq, per-link occupancy as token-seq
  tuples.  A replay that matches every digest en route has provably
  rebuilt the same machine.
- sparse **deep state snapshots** — full :class:`~repro.sim.snapshot.
  MachineState` captures (kernel clock/heap/ready queue, link queues
  with payload texts, per-actor scheduling state) taken at checkpoint
  boundaries.  Replays verify them en route (a much stronger self-check
  than the digest), and the :class:`~repro.core.replay.ReplayManager`
  pairs them with *resident* replayed machines so ``replay to`` restores
  the nearest snapshot and re-executes only the tail.
- the **stop log** — where the user stopped, as event-log positions, so
  ``reverse-continue`` can land on the previous dataflow stop.
- the **alteration log** — debugger-side mutations (token insert / drop /
  poke, predicate overrides) with the event position they were applied
  at, re-applied at the same positions during replay.

Positions are *event indices* (1-based count of emitted framework
events), not dispatch counts or timestamps: the event stream is invariant
under interactive stops, and an index names an exact mid-dispatch machine
state (the moment just after that event's listeners ran).

The event log stores each event's :class:`DataflowEvent` as is — the
projection :attr:`~repro.pedf.api.FrameworkEvent.flow` already built —
in a :class:`~repro.sim.store.BoundedStore` (the span sink's cap/ring
store), so recording is one append.  A replay compares each event with
the recorded one as one tuple compare and then stores the *recorded*
tuple, so every replayed machine's journal shares the master's event
objects instead of copying them; the tuples are immutable, so sharing
stays safe after an alteration forks the timeline.  With
``segment_dir`` set, the journal instead keeps a sliding in-memory
window and rotates older events — side tables included — into
compressed on-disk :mod:`segments <repro.sim.segments>`; every query and
the streaming :meth:`ReplayJournal.iter_flow` fall back to segments
transparently, so nothing is ever lost and memory stays bounded on
unbounded runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, NamedTuple, Optional, Tuple

from ..errors import ReplayError
from .segments import DEFAULT_SEGMENT_WINDOW, SegmentStore
from .store import BoundedStore

#: (symbol, phase) of a completed token production — the determinism
#: fingerprint stream (see ReplayJournal.token_stream)
TOKEN_EVENT = ("pedf_rt_push", "exit")

DEFAULT_CHECKPOINT_INTERVAL = 64


def stable_value_text(raw: Any) -> str:
    """Canonical text of a token payload (Filter-C ``Raw``): ints, bools,
    lists and dicts only, with dict keys emitted in sorted order so the
    text is independent of insertion order."""
    if isinstance(raw, bool):
        return "true" if raw else "false"
    if isinstance(raw, int):
        return str(raw)
    if isinstance(raw, list):
        return "[" + ",".join(stable_value_text(x) for x in raw) + "]"
    if isinstance(raw, dict):
        inner = ",".join(f"{k}={stable_value_text(raw[k])}" for k in sorted(raw))
        return "{" + inner + "}"
    return repr(raw)


class DataflowEvent(NamedTuple):
    """One framework event, reduced to its journal-derivable fields.

    The single projection every event consumer reads.  Live, it is built
    at most once per event by :attr:`~repro.pedf.api.FrameworkEvent.flow`
    and shared by the journal, telemetry and runtime verification; the
    journal stores it as is and :meth:`ReplayJournal.iter_flow` streams
    the stored tuples back.  Nothing live-only (argument
    dicts, object identities, wall clock) is in it, which is what makes
    live and journal-derived spans, metrics and verdicts byte-identical.
    """

    time: int
    phase: str  # "entry" | "exit"
    symbol: str
    actor: str  # qualified acting actor, or "" (elaboration)
    seq: Optional[int]  # token seq (push/pop exits only)
    link: Optional[str] = None  # link name (push/pop, both phases)
    target: Optional[str] = None  # target filter (actor_start/actor_sync)

    def describe(self) -> str:
        """Deterministic one-line witness rendering."""
        extra = ""
        if self.link is not None:
            extra += f" link={self.link}"
        if self.seq is not None:
            extra += f" seq={self.seq}"
        if self.target is not None:
            extra += f" target={self.target}"
        who = f" [{self.actor}]" if self.actor else ""
        return f"t={self.time} {self.symbol}:{self.phase}{who}{extra}"


@dataclass(frozen=True)
class Checkpoint:
    """Digest of the machine at a dispatch boundary."""

    index: int  # event-log position when taken
    dispatch: int  # kernel dispatch count when taken
    time: int  # simulated time
    next_seq: int  # runtime token-seq counter state
    #: (link name, (queued token seqs, oldest first)) for every link
    occupancy: Tuple[Tuple[str, Tuple[int, ...]], ...]

    def describe(self) -> str:
        held = sum(len(seqs) for _, seqs in self.occupancy)
        return (
            f"checkpoint @event {self.index} (dispatch {self.dispatch}, t={self.time}, "
            f"next seq {self.next_seq}, {held} token(s) in flight)"
        )


@dataclass(frozen=True)
class StopRecord:
    """One debugger stop, positioned on the event log."""

    index: int  # event-log position when the stop was recorded
    kind: str  # StopKind.value ("dataflow", "breakpoint", ...)
    message: str
    bp_id: Optional[int]
    time: int


@dataclass(frozen=True)
class AlterationRecord:
    """One execution alteration, positioned on the event log."""

    index: int  # event-log position when the alteration was applied
    kind: str  # "insert" | "drop" | "poke" | "set_pred"
    conn_spec: str  # "actor::iface" (or "module.pred" for set_pred)
    value_text: Optional[str]
    arg_index: Optional[int]


class ReplayJournal:
    """The recorded run: event log + checkpoints + stop/alteration logs."""

    def __init__(
        self,
        limit: Optional[int] = None,
        ring: bool = False,
        segment_dir: Optional[str] = None,
        window: int = DEFAULT_SEGMENT_WINDOW,
    ):
        if segment_dir is not None:
            # segment rotation bounds memory without losing anything, so
            # the lossy cap/ring policies are mutually exclusive with it
            limit, ring = None, False
        self.events = BoundedStore(limit=limit, ring=ring)
        self.segments: Optional[SegmentStore] = (
            SegmentStore(segment_dir) if segment_dir is not None else None
        )
        self.window = max(2, window)
        self.checkpoints: List[Checkpoint] = []
        self.stops: List[StopRecord] = []
        self.alterations: List[AlterationRecord] = []
        #: token seq -> link name, noted at push/pop exits.  Not part of
        #: the fingerprint stream; it lets a post-hoc consumer attribute
        #: recorded token events to links.  Rotates into segments with
        #: the push event that minted the seq (see ``token_link``).
        self.token_links: Dict[int, str] = {}
        #: event position -> canonical payload text, noted at push exits.
        #: The raw material of the *sharded* determinism contract:
        #: per-link ordered value streams are invariant under scheduling
        #: (Kahn), so they — unlike global seqs or timestamps — can be
        #: compared between a single-kernel run and a merge of per-shard
        #: journals.  Keyed by event position, not token seq: each shard
        #: numbers its own tokens, so seqs collide across journals while
        #: positions cannot.
        self.event_values: Dict[int, str] = {}
        #: dispatch count -> deep MachineState snapshot (sparse; see
        #: :mod:`repro.sim.snapshot`).  Small next to the event log, so
        #: kept in memory even when the log itself rotates.
        self.state_snapshots: Dict[int, Any] = {}
        self._total = 0
        self._tokens = 0
        self._max_seq: Optional[int] = None
        self._cp_by_dispatch: Dict[int, Checkpoint] = {}

    # ------------------------------------------------------------ recording

    @property
    def total_events(self) -> int:
        """Lifetime event count (positions run 1..total_events)."""
        return self._total

    @property
    def tokens_recorded(self) -> int:
        """Lifetime count of token productions (``TOKEN_EVENT``s with a
        seq) — ``len(token_stream())`` without streaming the journal, and
        still counting events a cap/ring bound has since evicted."""
        return self._tokens

    @property
    def max_seq_recorded(self) -> Optional[int]:
        """Largest token seq the event log ever carried (even if the
        carrying record was later evicted); None if no token yet."""
        return self._max_seq

    @property
    def evicted_events(self) -> int:
        """Events irrecoverably discarded by a cap/ring bound.  Always 0
        for segment-rotating journals — rotation is not loss."""
        return self.events.dropped

    def add_event(
        self, time: int, phase: str, symbol: str, actor: Optional[str], seq: Optional[int]
    ) -> int:
        """Append one framework event with no link or target; returns its
        1-based position."""
        return self.add_flow(DataflowEvent(time, phase, symbol, actor or "", seq))

    def add_flow(self, ev: DataflowEvent) -> int:
        """Append one framework event's projection; returns its 1-based
        position.  The inverse of :meth:`iter_flow`."""
        self._total += 1
        seq = ev.seq
        if seq is not None:
            if self._max_seq is None or seq > self._max_seq:
                self._max_seq = seq
            if (ev.symbol, ev.phase) == TOKEN_EVENT:
                self._tokens += 1
            if ev.link:
                # first note wins: the push that minted the seq
                self.token_links.setdefault(seq, ev.link)
        self.events.add(ev)
        if self.segments is not None and len(self.events) >= self.window:
            self._rotate()
        return self._total

    def _rotate(self) -> None:
        """Move the oldest half-window of the in-memory log (and its side
        table entries) into a compressed on-disk segment."""
        first = self._total - len(self.events) + 1
        records = self.events.drain_oldest(len(self.events) // 2)
        values: Dict[int, str] = {}
        for pos in range(first, first + len(records)):
            value = self.event_values.pop(pos, None)
            if value is not None:
                values[pos] = value
        tokens: Dict[int, str] = {}
        for ev in records:
            # a push exit mints its seq: the token->link note travels with it
            if ev.seq is not None and (ev.symbol, ev.phase) == TOKEN_EVENT:
                link = self.token_links.pop(ev.seq, None)
                if link is not None:
                    tokens[ev.seq] = link
        self.segments.rotate(first, records, values, tokens)

    def note_event_value(self, index: int, value_text: Optional[str]) -> None:
        """Remember the canonical payload text pushed by the event at
        position ``index``.  Side table only — not fingerprint-compared."""
        if value_text is not None:
            self.event_values[index] = value_text

    def add_checkpoint(self, cp: Checkpoint) -> None:
        self.checkpoints.append(cp)
        self._cp_by_dispatch[cp.dispatch] = cp

    def add_state_snapshot(self, dispatch: int, state: Any) -> None:
        """Attach a deep MachineState snapshot to a dispatch boundary."""
        self.state_snapshots[dispatch] = state

    def state_snapshot_at(self, dispatch: int) -> Optional[Any]:
        return self.state_snapshots.get(dispatch)

    def add_stop(self, record: StopRecord) -> None:
        self.stops.append(record)

    def add_alteration(self, record: AlterationRecord) -> None:
        self.alterations.append(record)

    # -------------------------------------------------------------- queries

    def record_at(self, index: int) -> Optional[DataflowEvent]:
        """The stored event at 1-based ``index``; None if out of range or
        evicted by a cap/ring bound.  Falls back to on-disk segments when
        the journal rotates."""
        if not 1 <= index <= self._total:
            return None
        events = self.events
        offset = index - 1
        if events.ring or self.segments is not None:
            offset -= self._total - len(events)  # oldest in memory at 0
        if 0 <= offset < len(events):
            return events.at(offset)
        if self.segments is not None:
            seg = self.segments.segment_for(index)
            if seg is not None:
                return self.segments.load(seg).record_at(index)
        return None

    def value_for_event(self, index: int) -> Optional[str]:
        """``event_values`` lookup that falls back to segments."""
        value = self.event_values.get(index)
        if value is None and self.segments is not None:
            seg = self.segments.segment_for(index)
            if seg is not None:
                return self.segments.load(seg).event_values.get(index)
        return value

    def token_link(self, seq: int) -> Optional[str]:
        """``token_links`` lookup that falls back to segments (newest
        first — interactive lookups usually target recent tokens)."""
        link = self.token_links.get(seq)
        if link is None and self.segments is not None:
            for seg in reversed(self.segments.segments):
                link = self.segments.load(seg).token_links.get(seq)
                if link is not None:
                    return link
        return link

    def checkpoint_at_dispatch(self, dispatch: int) -> Optional[Checkpoint]:
        return self._cp_by_dispatch.get(dispatch)

    def nearest_checkpoint(self, index: int) -> Optional[Checkpoint]:
        """The last checkpoint taken at or before event position ``index``."""
        best: Optional[Checkpoint] = None
        for cp in self.checkpoints:
            if cp.index <= index:
                best = cp
            else:
                break
        return best

    def iter_flow(self) -> Iterator[Tuple[int, DataflowEvent]]:
        """Stream ``(position, DataflowEvent)`` over everything still
        available — on-disk segments first (one resident at a time), then
        the in-memory window — without materialising the whole journal.
        The one replay-side projection that telemetry, RV and aggregate
        derivation consume."""
        if self.segments is not None:
            yield from self.segments.iter_records()
        yield from enumerate(self.events, self._stored_base() + 1)

    def _iter_tokens(self) -> Iterator[Tuple[int, DataflowEvent]]:
        """:meth:`iter_flow` restricted to token productions."""
        symbol, phase = TOKEN_EVENT
        for index, ev in self.iter_flow():
            if ev.symbol == symbol and ev.phase == phase:
                yield index, ev

    def token_stream(self) -> List[int]:
        """Global seq numbers of every recorded token production, in
        order — the run's determinism fingerprint."""
        return [ev.seq for _, ev in self._iter_tokens() if ev.seq is not None]

    def link_value_streams(self, partial: bool = False) -> Dict[str, List[str]]:
        """Per-link ordered token payload streams (canonical texts).

        Requires each event's link and the ``event_values`` side table
        (populated by :class:`~repro.core.replay.RunRecorder`).  This is
        the shard-invariant projection of the journal: merging each
        shard's streams reproduces the single-kernel streams exactly.

        A cap/ring-bounded journal that actually evicted events cannot
        produce complete streams; that raises unless ``partial=True``
        explicitly asks for the surviving window (a segment-rotating
        journal never evicts and always streams everything)."""
        if self.evicted_events and not partial:
            lo, hi = self.stored_range()
            raise ReplayError(
                f"link value streams are incomplete: the journal bound evicted "
                f"{self.evicted_events} of {self._total} event(s) (stored window "
                f"{lo}..{hi}); record with segment_dir=... to keep everything, "
                f"or pass partial=True for the surviving window"
            )
        streams: Dict[str, List[str]] = {}
        for i, ev in self._iter_tokens():
            value = self.value_for_event(i)
            if ev.link is None or value is None:
                continue
            streams.setdefault(ev.link, []).append(value)
        return streams

    def _stored_base(self) -> int:
        """Position of the oldest in-memory event, minus one."""
        if self.events.ring or self.segments is not None:
            return self._total - len(self.events)
        return 0

    def stored_range(self) -> Tuple[int, int]:
        """The contiguous position range still *available* (in memory or
        in segments): positions outside it were irrecoverably evicted."""
        if self._total == 0:
            return (0, 0)
        if self.segments is not None:
            return (1, self._total)
        if self.events.ring:
            return (self._total - len(self.events) + 1, self._total)
        return (1, len(self.events))

    def index_for_seq(self, seq: int) -> Optional[int]:
        """Event position at which token ``seq`` was produced, or None if
        that position is not available (see :meth:`seq_status` for the
        evicted / never-recorded distinction)."""
        for i, ev in self._iter_tokens():
            if ev.seq == seq:
                return i
        return None

    def seq_status(self, seq: int) -> Tuple[str, Optional[int]]:
        """Resolve a token seq to ``(status, index)``:

        - ``("found", index)`` — the production event is available;
        - ``("evicted", None)`` — it *was* recorded, but the journal
          bound discarded it (seq <= the largest seq ever logged and
          events were evicted);
        - ``("unknown", None)`` — no such token was ever recorded."""
        index = self.index_for_seq(seq)
        if index is not None:
            return ("found", index)
        if (
            self.evicted_events
            and self._max_seq is not None
            and 0 <= seq <= self._max_seq
        ):
            return ("evicted", None)
        return ("unknown", None)

    def index_for_time(self, time: int) -> Optional[int]:
        """First available event position at simulated time >= ``time``."""
        for i, ev in self.iter_flow():
            if ev.time >= time:
                return i
        return None

    def time_status(self, time: int) -> Tuple[str, Optional[int]]:
        """Resolve a timestamp to ``(status, index)``: ``found`` when the
        first event at/after ``time`` is provably available, ``evicted``
        when eviction makes the answer unknowable (sim time is monotone,
        so a ring journal is only trustworthy strictly *after* the oldest
        surviving record's time), ``unknown`` when the run never reached
        ``time``."""
        index = self.index_for_time(time)
        if self.evicted_events:
            if self.events.ring:
                lo, _ = self.stored_range()
                oldest = self.record_at(lo)
                # an evicted event may also match: times are nondecreasing,
                # so everything evicted happened at or before oldest.time
                if oldest is None or time <= oldest.time:
                    return ("evicted", None)
            elif index is None:
                # cap mode drops the *newest* events: no stored match says
                # nothing about the dropped tail
                return ("evicted", None)
        if index is None:
            return ("unknown", None)
        return ("found", index)
