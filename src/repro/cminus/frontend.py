"""Front-end memoization: one lex/parse/sema per distinct compilation.

Actor sources are compiled at every elaboration — and record/replay
rebuilds the whole application on **every** ``replay to`` /
``reverse-continue``, and timeline forks repeat that many times over.
The front end is deterministic: the same source text compiled under the
same compilation context always produces the same typed AST and debug
info.  This module memoizes that mapping.

The cache key is a SHA-256 digest over everything that can influence the
analysed program:

- the source text and filename (filenames appear in debug info and
  runtime error messages);
- the full :class:`~repro.cminus.sema.ActorContext` signature: kind,
  interface directions/types, data/attribute types, shared struct
  layouts, controller actor names and extra intrinsics.

The execution tier is *not* part of the key: the only tier unit, the
bytecode :class:`~repro.cminus.vm.compiler.VmUnit`, is built lazily and
memoized on the Program, so runs on either tier share one Program.

Per-instance symbol names are *not* part of the key.  Programs are
analysed under their source's own function names; PEDF and CCM mangling
(paper §VI-F) is a canonical → mangled symbol map per actor, applied
where a name leaves the interpreter (frames, debug info, messages).  So
every actor compiled from the same key — the 900 identical filters of
the synthetic graph, or one instance rebuilt for replay — shares one
:class:`FrontendResult`: the analysed :class:`~repro.cminus.ast.Program`,
its canonical :class:`~repro.cminus.debuginfo.DebugInfo`, the ``VmUnit``
memoized on the Program and the re-keyed debug-info views of each symbol
map.  All of it is immutable
after sema (interpreters copy global values at init and never mutate
the AST), and :meth:`FrontendCache.clear` drops every piece of it.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, Iterable, List, Optional, Tuple

from .ast import Program
from .debuginfo import DebugInfo
from .parser import parse_program
from .sema import ActorContext, analyze
from .typesys import ArrayType, CType, StructType

__all__ = [
    "FrontendCache",
    "FrontendResult",
    "compile_unit",
    "frontend_cache",
    "type_signature",
]


def type_signature(ct: Optional[CType]) -> str:
    """A stable, structural description of ``ct`` for cache keying.

    ``repr`` is not enough: ``StructType`` prints only its name, and two
    contexts may bind the same struct name to different field layouts.
    """
    if ct is None:
        return "-"
    if isinstance(ct, ArrayType):
        return f"{type_signature(ct.elem)}[{ct.size}]"
    if isinstance(ct, StructType):
        fields = ",".join(f"{nm}:{type_signature(ft)}" for nm, ft in ct.fields)
        return f"struct {ct.name}{{{fields}}}"
    return str(ct)


def _feed(h: "hashlib._Hash", parts: Iterable[str]) -> None:
    for part in parts:
        h.update(part.encode("utf-8", "surrogatepass"))
        h.update(b"\x00")


class FrontendCache:
    """Digest-keyed memo of front-end results.

    Process-wide by design: replay rebuilds construct entirely fresh
    declaration trees, so any per-object caching would never hit.
    """

    def __init__(self) -> None:
        self._entries: Dict[str, Any] = {}
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------- keying

    @staticmethod
    def digest(source: str, filename: str, *salt: str) -> str:
        """SHA-256 over the source text plus every context ``salt`` part
        the caller knows can influence the front end's output."""
        h = hashlib.sha256()
        _feed(h, (source, filename))
        _feed(h, salt)
        return h.hexdigest()

    # ------------------------------------------------------------ lookups

    def get(self, key: str) -> Optional[Any]:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
        else:
            self.hits += 1
        return entry

    def put(self, key: str, value: Any) -> Any:
        self._entries[key] = value
        return value

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> Tuple[int, int, int]:
        """``(entries, hits, misses)``."""
        return (len(self._entries), self.hits, self.misses)

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0


#: the process-wide cache instance every front-end consumer shares
frontend_cache = FrontendCache()


class FrontendResult:
    """One cache entry: what every actor compiled from one key shares."""

    __slots__ = ("program", "debug_info", "_views")

    def __init__(self, program: Program, debug_info: DebugInfo) -> None:
        self.program = program
        #: canonical debug info (function symbols under source names)
        self.debug_info = debug_info
        self._views: Dict[Tuple[Tuple[str, str], ...], DebugInfo] = {}

    def view(self, symbols: Dict[str, str]) -> DebugInfo:
        """The debug info as an actor with ``symbols`` (canonical →
        mangled) names it.  Equal maps — e.g. one instance rebuilt for
        replay — get the same view object."""
        key = tuple(sorted(symbols.items()))
        view = self._views.get(key)
        if view is None:
            view = self._views[key] = self.debug_info.renamed(symbols)
        return view


def _context_salt(ctx: ActorContext) -> List[str]:
    """Everything beyond the source text that can change the front end's
    output: the full compilation context."""
    salt = [ctx.kind]
    salt.extend(
        f"iface:{s.name}:{s.direction}:{type_signature(s.ctype)}"
        for s in sorted(ctx.ifaces.values(), key=lambda s: s.name)
    )
    salt.extend(f"data:{nm}:{type_signature(ct)}" for nm, ct in sorted(ctx.data.items()))
    salt.extend(f"attr:{nm}:{type_signature(ct)}" for nm, ct in sorted(ctx.attributes.items()))
    salt.extend(f"struct:{type_signature(ct)}" for _nm, ct in sorted(ctx.structs.items()))
    if ctx.actor_names is not None:
        salt.append("actors:" + ",".join(sorted(ctx.actor_names)))
    for nm, (ret, params, names) in sorted(ctx.extra_intrinsics.items()):
        salt.append(
            f"intr:{nm}:{type_signature(ret)}"
            f"({','.join(type_signature(p) for p in params)})"
            f":{','.join(sorted(names)) if names else '-'}"
        )
    return salt


def compile_unit(source: str, filename: str, ctx: ActorContext) -> FrontendResult:
    """Parse and analyse ``source`` under ``ctx`` — once per distinct
    key; every later call with the same key returns the same result."""
    key = frontend_cache.digest(source, filename, *_context_salt(ctx))
    entry = frontend_cache.get(key)
    if entry is None:
        program = parse_program(source, filename, ctx.structs)
        entry = frontend_cache.put(key, FrontendResult(program, analyze(program, ctx, source)))
    return entry
