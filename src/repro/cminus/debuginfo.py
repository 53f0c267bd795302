"""DWARF-like debug information emitted by the Filter-C front end.

The paper (§V): "The only static information we rely on is provided through
the standard DWARF debug structures."  This module is our DWARF: line
tables, function symbols with parameter/local descriptions, struct type
descriptions, and global symbols.  The base debugger (``repro.dbg``) and
the dataflow extension (``repro.core``) consume *only* this — they never
peek inside the interpreter's private state beyond the documented frame
API.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from .typesys import CType, StructType


@dataclass(frozen=True)
class VariableSymbol:
    name: str
    ctype: CType
    kind: str  # "param" | "local" | "global"
    decl_line: int = 0


@dataclass
class FunctionSymbol:
    name: str
    filename: str
    line: int  # first line of the definition
    end_line: int
    ret: CType
    params: List[VariableSymbol] = field(default_factory=list)
    locals: List[VariableSymbol] = field(default_factory=list)

    def variable(self, name: str) -> Optional[VariableSymbol]:
        for v in self.params + self.locals:
            if v.name == name:
                return v
        return None

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        sig = ", ".join(f"{p.ctype} {p.name}" for p in self.params)
        return f"{self.ret} {self.name}({sig}) at {self.filename}:{self.line}"


class LineTable:
    """Executable source lines per file, for breakpoint placement."""

    def __init__(self) -> None:
        self._lines: Dict[str, List[int]] = {}

    def add(self, filename: str, line: int) -> None:
        lines = self._lines.setdefault(filename, [])
        idx = bisect.bisect_left(lines, line)
        if idx >= len(lines) or lines[idx] != line:
            lines.insert(idx, line)

    def files(self) -> List[str]:
        return sorted(self._lines)

    def lines(self, filename: str) -> List[int]:
        return list(self._lines.get(filename, []))

    def is_executable(self, filename: str, line: int) -> bool:
        lines = self._lines.get(filename, [])
        idx = bisect.bisect_left(lines, line)
        return idx < len(lines) and lines[idx] == line

    def resolve(self, filename: str, line: int) -> Optional[int]:
        """Snap to the first executable line at or after ``line`` (like GDB
        placing a breakpoint on a blank line)."""
        lines = self._lines.get(filename, [])
        idx = bisect.bisect_left(lines, line)
        return lines[idx] if idx < len(lines) else None

    def merge(self, other: "LineTable") -> None:
        for filename, lines in other._lines.items():
            for line in lines:
                self.add(filename, line)


@dataclass
class DebugInfo:
    """Everything the debugger may know statically about a compilation unit
    (or, after ``merge``, about the whole loaded application)."""

    functions: Dict[str, FunctionSymbol] = field(default_factory=dict)
    structs: Dict[str, StructType] = field(default_factory=dict)
    globals: Dict[str, VariableSymbol] = field(default_factory=dict)
    line_table: LineTable = field(default_factory=LineTable)
    sources: Dict[str, str] = field(default_factory=dict)  # filename -> text

    def function_at_line(self, filename: str, line: int) -> Optional[FunctionSymbol]:
        for f in self.functions.values():
            if f.filename == filename and f.line <= line <= f.end_line:
                return f
        return None

    def lookup_function(self, name: str) -> Optional[FunctionSymbol]:
        return self.functions.get(name)

    def match_functions(self, substring: str) -> List[FunctionSymbol]:
        """Symbols whose (possibly mangled) name contains ``substring``."""
        return [f for n, f in sorted(self.functions.items()) if substring in n]

    def renamed(self, symbols: Dict[str, str]) -> "DebugInfo":
        """A view whose function symbols carry the names ``symbols`` maps
        them to (canonical → mangled, paper §VI-F).  Structs, globals, the
        line table and sources are shared, not copied."""
        functions = {}
        for name, fsym in self.functions.items():
            mangled = symbols.get(name, name)
            functions[mangled] = replace(fsym, name=mangled)
        return DebugInfo(functions, self.structs, self.globals, self.line_table, self.sources)

    def merge(self, other: "DebugInfo") -> None:
        self.functions.update(other.functions)
        self.structs.update(other.structs)
        self.globals.update(other.globals)
        self.line_table.merge(other.line_table)
        self.sources.update(other.sources)

    def source_line(self, filename: str, line: int) -> Optional[str]:
        text = self.sources.get(filename)
        if text is None:
            return None
        lines = text.splitlines()
        if 1 <= line <= len(lines):
            return lines[line - 1]
        return None

    def source_window(self, filename: str, center: int, radius: int = 4) -> List[Tuple[int, str]]:
        """Numbered source lines around ``center`` (for the ``list`` cmd)."""
        text = self.sources.get(filename)
        if text is None:
            return []
        lines = text.splitlines()
        lo = max(1, center - radius)
        hi = min(len(lines), center + radius)
        return [(n, lines[n - 1]) for n in range(lo, hi + 1)]
