"""Attributed profiler: flushed cycles charged to (actor, call path, tier).

The interpreter already batches statement costs and flushes them to the
kernel as ``Delay`` requests; while ``CAP_PROFILE`` is armed each flush
is *attributed* — the flush site calls ``hook.profile_sink(interp, p)``
and the profiler charges ``p`` cycles to the interpreter's live call
stack (both tiers maintain real :class:`Frame` objects) under the tier
that executed it ("vm" or "tree").  The bit rides the hook-capability
bitmask outside ``CAP_ALL``, so arming it never deoptimizes: the
bytecode tier keeps running at full speed and the only new work is one
``None`` test per cost flush (one per ~``batch_cycles`` statements) —
the same §V elision contract telemetry uses.  On the bytecode tier the
VM's instrumented prelude additionally attributes per-opcode ISA cycle
costs, which the profile report folds in via
:mod:`repro.cminus.vm.telemetry`.

Because flush points are structural (batch threshold / pre-I/O / exit)
and cost models are deterministic, a profile is a pure function of the
program and its schedule: :func:`derive_profile` re-executes a recorded
run from a builder with only the profiler armed and reproduces the live
profile exactly — the replay-side deriver, same contract as
:func:`~repro.obs.derive.derive_telemetry`.
"""

from __future__ import annotations

import zlib
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import DataflowDebugError

#: charge key: (actor qualname, tier, call path outermost-first)
ProfileKey = Tuple[str, str, Tuple[str, ...]]


class Profile:
    """Pure profile data: cycles charged per (actor, tier, call path).

    Cycles are *self* cycles of the innermost frame at flush time, kept
    with their full path context — a collapsed-stack multiset, directly
    renderable as a flamegraph.
    """

    def __init__(self) -> None:
        self.nodes: Dict[ProfileKey, int] = {}
        self.total = 0
        self.flushes = 0

    def add(self, actor: str, tier: str, path: Tuple[str, ...], cycles: int) -> None:
        key = (actor, tier, path)
        self.nodes[key] = self.nodes.get(key, 0) + cycles
        self.total += cycles
        self.flushes += 1

    # ------------------------------------------------------------- queries

    def collapsed(self) -> List[str]:
        """Collapsed-stack lines (``actor;tier;f1;f2 CYCLES``), sorted —
        the flamegraph.pl interchange format and the deterministic
        equality artefact the derive tests compare byte-for-byte."""
        return [
            ";".join((actor, tier) + path) + f" {cycles}"
            for (actor, tier, path), cycles in sorted(self.nodes.items())
        ]

    def self_cycles(self) -> Dict[Tuple[str, str], int]:
        """``(actor, function) -> self cycles`` (innermost-frame charge)."""
        out: Dict[Tuple[str, str], int] = {}
        for (actor, _tier, path), cycles in self.nodes.items():
            key = (actor, path[-1])
            out[key] = out.get(key, 0) + cycles
        return out

    def inclusive_cycles(self) -> Dict[Tuple[str, str], int]:
        """``(actor, function) -> cycles`` counting a node once per
        function present anywhere on its path (recursion-safe)."""
        out: Dict[Tuple[str, str], int] = {}
        for (actor, _tier, path), cycles in self.nodes.items():
            for func in set(path):
                key = (actor, func)
                out[key] = out.get(key, 0) + cycles
        return out

    def tier_cycles(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for (_actor, tier, _path), cycles in self.nodes.items():
            out[tier] = out.get(tier, 0) + cycles
        return out

    def top(self, n: int = 10) -> List[Tuple[int, int, str, str]]:
        """Top-``n`` functions by self cycles: ``(self, inclusive,
        actor, function)``, self-descending then name order (stable)."""
        incl = self.inclusive_cycles()
        rows = [
            (cycles, incl[key], key[0], key[1])
            for key, cycles in self.self_cycles().items()
        ]
        rows.sort(key=lambda r: (-r[0], r[2], r[3]))
        return rows if n <= 0 else rows[:n]

    def render(self, top_n: int = 10) -> List[str]:
        """Deterministic text report."""
        tiers = self.tier_cycles()
        tier_text = (
            " ".join(f"{t}={tiers[t]}" for t in sorted(tiers)) if tiers else "(none)"
        )
        lines = [
            f"profile: {self.total} cycle(s) attributed over "
            f"{self.flushes} flush(es), {len(self.nodes)} node(s)",
            f"  by tier: {tier_text}",
        ]
        rows = self.top(top_n)
        if rows:
            lines.append(f"  top {len(rows)} by self cycles (self/incl):")
            lines.extend(
                f"    {self_c:>8} {incl:>8}  {actor} {func}"
                for self_c, incl, actor, func in rows
            )
        hidden = len(self.self_cycles()) - len(rows)
        if hidden > 0:
            lines.append(f"    … ({hidden} more function(s); `prof top 0` shows all)")
        return lines


# ----------------------------------------------------------------- facade


class Profiler:
    """Per-session profiler state (off until :meth:`enable`)."""

    def __init__(self, session) -> None:
        self.session = session
        self.enabled = False
        self.profile: Optional[Profile] = None
        self._names: Dict[int, str] = {}  # id(interp) -> actor qualname
        self._last: Dict[int, Tuple[Tuple[str, ...], str]] = {}

    # ------------------------------------------------------------- arming

    def enable(self) -> None:
        """Arm CAP_PROFILE (idempotent).  Tier selection is untouched —
        compiled and bytecode activations stay resident."""
        if self.enabled:
            return
        if self.profile is None:
            self.profile = Profile()
        dbg = self.session.dbg
        dbg.hook.profile_sink = self._charge
        dbg.profiler_armed = True
        dbg._recompute_capabilities()
        self.enabled = True

    def disable(self) -> None:
        """Disarm; the profile gathered so far stays queryable."""
        if not self.enabled:
            return
        dbg = self.session.dbg
        dbg.profiler_armed = False
        dbg.hook.profile_sink = None
        dbg._recompute_capabilities()
        self.enabled = False

    def clear(self) -> None:
        self.profile = None
        self._names.clear()
        self._last.clear()

    # -------------------------------------------------------------- sink

    def _charge(self, interp, cycles: int) -> None:
        """The ``profile_sink`` callable: attribute one cost flush."""
        key_id = id(interp)
        name = self._names.get(key_id)
        if name is None:
            actor = self.session.dbg._actor_of(interp)
            name = actor.qualname if actor is not None else "<framework>"
            self._names[key_id] = name
        frames = interp.frames
        if frames:
            top = frames[-1]
            path = tuple(f.func.name for f in frames)
            tier = "vm" if getattr(top, "vm", None) is not None else "tree"
            self._last[key_id] = (path, tier)
        else:
            # the final flush of run_function happens after the entry
            # frame popped; charge it where the cycles were incurred
            path, tier = self._last.get(key_id, (("<entry>",), "tree"))
        self.profile.add(name, tier, path, cycles)

    # ------------------------------------------------------------ queries

    def _require(self) -> Profile:
        if self.profile is None:
            raise DataflowDebugError("no profile collected (use `prof on` first)")
        return self.profile

    def opcode_cycles(self) -> Dict[str, Dict[str, int]]:
        """Per-actor per-mnemonic VM cycle costs gathered while armed."""
        from ..cminus.vm.telemetry import per_actor_opcode_cycles

        return per_actor_opcode_cycles(self.session.dbg.runtime.all_actors())

    def status_lines(self) -> List[str]:
        lines = [f"profiler: {'on' if self.enabled else 'off'}"]
        if self.profile is None:
            lines.append("  (nothing collected; use `prof on`)")
            return lines
        lines.extend(self._require().render())
        opcodes = self.opcode_cycles()
        if opcodes:
            total: Dict[str, int] = {}
            for table in opcodes.values():
                for op, cyc in table.items():
                    total[op] = total.get(op, 0) + cyc
            body = " ".join(f"{op}={total[op]}" for op in sorted(total))
            lines.append(f"  vm opcode cycles: {body}")
        return lines

    # ------------------------------------------------------------- export

    def collapsed_text(self) -> str:
        return "\n".join(self._require().collapsed()) + "\n"

    def export_collapsed(self, path: str, force: bool = False) -> int:
        from .export import write_artifact

        return write_artifact(path, self.collapsed_text(), force=force)

    def export_flamegraph(self, path: str, force: bool = False) -> int:
        from .export import write_artifact

        return write_artifact(path, flame_svg(self._require()), force=force)


# -------------------------------------------------------------- flamegraph


class _FlameNode:
    __slots__ = ("name", "value", "children")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0
        self.children: Dict[str, "_FlameNode"] = {}

    def child(self, name: str) -> "_FlameNode":
        node = self.children.get(name)
        if node is None:
            node = self.children[name] = _FlameNode(name)
        return node


def _flame_color(name: str) -> str:
    hue = zlib.crc32(name.encode("utf-8")) % 50  # warm flame palette
    return f"hsl({hue},85%,62%)"


def flame_svg(profile: Profile, width: int = 1200, row_height: int = 16) -> str:
    """Render the profile as a deterministic self-contained SVG
    flamegraph: one row per stack depth, frame width proportional to
    inclusive cycles, ``actor`` as the first frame above the root."""
    root = _FlameNode("all")
    for (actor, _tier, path), cycles in sorted(profile.nodes.items()):
        root.value += cycles
        node = root.child(actor)
        node.value += cycles
        for func in path:
            node = node.child(func)
            node.value += cycles

    def depth(node: _FlameNode) -> int:
        return 1 + max((depth(c) for c in node.children.values()), default=0)

    rows = depth(root)
    height = rows * row_height + 24
    total = root.value or 1
    out: List[str] = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" font-family="monospace" font-size="11">',
        f'<text x="4" y="{height - 8}">repro profile — '
        f"{profile.total} cycle(s), {len(profile.nodes)} node(s)</text>",
    ]

    def emit(node: _FlameNode, x: float, level: int) -> None:
        w = width * node.value / total
        if w < 0.5:
            return
        y = (rows - 1 - level) * row_height
        label = node.name if w >= 8 * min(len(node.name), 3) else ""
        out.append(
            f'<g><title>{node.name}: {node.value} cycle(s)</title>'
            f'<rect x="{x:.2f}" y="{y}" width="{w:.2f}" height="{row_height - 1}" '
            f'fill="{_flame_color(node.name)}" stroke="white" stroke-width="0.5"/>'
            + (
                f'<text x="{x + 2:.2f}" y="{y + row_height - 5}">{label}</text>'
                if label
                else ""
            )
            + "</g>"
        )
        cx = x
        for name in sorted(node.children):
            child = node.children[name]
            emit(child, cx, level + 1)
            cx += width * child.value / total

    emit(root, 0.0, 0)
    out.append("</svg>")
    return "\n".join(out) + "\n"


# ------------------------------------------------------------ derivation


class DerivedProfile:
    """Result of :func:`derive_profile`: the reproduced profile plus the
    deterministic cross-checks that make it trustworthy."""

    def __init__(
        self,
        profile: Profile,
        opcode_cycles: Dict[str, Dict[str, int]],
        verified: Optional[bool],
    ) -> None:
        self.profile = profile
        self.opcode_cycles = opcode_cycles
        #: True when the re-execution's per-link value streams matched
        #: the source journal's; None when the journal recorded no values
        self.verified = verified


def derive_profile(
    journal,
    build: Callable[[], "object"],
    tier: Optional[str] = None,
    max_stops: int = 100_000,
) -> DerivedProfile:
    """Reproduce a run's profile from its journal by re-execution.

    ``build`` is a zero-argument factory returning a fresh
    ``DataflowSession`` of the same program (the replay builders'
    contract).  The rebuilt session records, arms *only* the profiler,
    runs to completion, and is cross-checked against ``journal`` by
    per-link value-stream equality — determinism (PR 2/PR 6 contract)
    then guarantees the same flush sequence, hence the same profile a
    live profiled run produces.
    """
    from ..dbg.stop import StopKind

    session = build()
    if tier is not None:
        runtime = session.dbg.runtime
        runtime.config.interp_tier = tier
        for actor in runtime.all_actors():
            interp = getattr(actor, "interp", None)
            if interp is not None:
                interp.tier = tier
    session.replay.record_on()
    session.prof.enable()
    dbg = session.dbg
    ev = dbg.run()
    stops = 0
    while ev.kind not in (StopKind.EXITED, StopKind.DEADLOCK, StopKind.ERROR):
        stops += 1
        if stops > max_stops:
            raise DataflowDebugError(
                f"derive_profile: run did not finish within {max_stops} stops"
            )
        ev = dbg.cont()
    verified: Optional[bool] = None
    try:
        want = journal.link_value_streams()
        got = session.replay.master.link_value_streams()
    except Exception:
        want = got = None
    if want:
        verified = want == got
    return DerivedProfile(session.prof.profile, session.prof.opcode_cycles(), verified)
