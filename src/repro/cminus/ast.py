"""Filter-C abstract syntax tree.

Every node carries ``line``/``col`` for the debugger's line table and,
after semantic analysis, expressions carry ``ctype`` (their static type).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .typesys import CType


@dataclass
class Node:
    line: int = 0
    col: int = 0


# --------------------------------------------------------------- expressions


@dataclass
class Expr(Node):
    ctype: Optional[CType] = None  # filled in by sema


@dataclass
class NumberLit(Expr):
    value: int = 0


@dataclass
class BoolLit(Expr):
    value: bool = False


@dataclass
class StringLit(Expr):
    value: str = ""


@dataclass
class Ident(Expr):
    name: str = ""
    # resolution result: "local" | "param" | "global" | "func" | "enum"
    binding: Optional[str] = None


@dataclass
class Unary(Expr):
    op: str = ""
    operand: Expr = None  # type: ignore[assignment]


@dataclass
class Binary(Expr):
    op: str = ""
    left: Expr = None  # type: ignore[assignment]
    right: Expr = None  # type: ignore[assignment]


@dataclass
class Ternary(Expr):
    cond: Expr = None  # type: ignore[assignment]
    then: Expr = None  # type: ignore[assignment]
    other: Expr = None  # type: ignore[assignment]


@dataclass
class Cast(Expr):
    target: CType = None  # type: ignore[assignment]
    operand: Expr = None  # type: ignore[assignment]


@dataclass
class Index(Expr):
    base: Expr = None  # type: ignore[assignment]
    index: Expr = None  # type: ignore[assignment]


@dataclass
class Member(Expr):
    base: Expr = None  # type: ignore[assignment]
    member: str = ""


@dataclass
class Call(Expr):
    name: str = ""
    args: List[Expr] = field(default_factory=list)
    is_builtin: bool = False


@dataclass
class PedfIo(Expr):
    """``pedf.io.<iface>[index]`` — a dataflow read or write endpoint.

    Reading consumes tokens from the bound link (blocking); an assignment
    whose lvalue is a PedfIo node *pushes* a token, the paper's "dataflow
    assignment instruction" (the target of ``step_both``).
    """

    iface: str = ""
    index: Expr = None  # type: ignore[assignment]


@dataclass
class PedfData(Expr):
    """``pedf.data.<name>`` — a filter's private datum."""

    name: str = ""


@dataclass
class PedfAttr(Expr):
    """``pedf.attribute.<name>`` — a filter's configuration attribute."""

    name: str = ""


# ---------------------------------------------------------------- statements


@dataclass
class Stmt(Node):
    pass


@dataclass
class Block(Stmt):
    body: List[Stmt] = field(default_factory=list)


@dataclass
class Decl(Stmt):
    ctype: CType = None  # type: ignore[assignment]
    name: str = ""
    init: Optional[Expr] = None
    const: bool = False


@dataclass
class Assign(Stmt):
    """``lvalue op= expr``; op is '=' or a compound operator like '+='."""

    target: Expr = None  # type: ignore[assignment]
    op: str = "="
    value: Expr = None  # type: ignore[assignment]


@dataclass
class IncDec(Stmt):
    """``lvalue++`` / ``lvalue--`` as a statement."""

    target: Expr = None  # type: ignore[assignment]
    op: str = "++"


@dataclass
class ExprStmt(Stmt):
    expr: Expr = None  # type: ignore[assignment]


@dataclass
class If(Stmt):
    cond: Expr = None  # type: ignore[assignment]
    then: Stmt = None  # type: ignore[assignment]
    other: Optional[Stmt] = None


@dataclass
class While(Stmt):
    cond: Expr = None  # type: ignore[assignment]
    body: Stmt = None  # type: ignore[assignment]


@dataclass
class DoWhile(Stmt):
    body: Stmt = None  # type: ignore[assignment]
    cond: Expr = None  # type: ignore[assignment]


@dataclass
class For(Stmt):
    init: Optional[Stmt] = None  # Decl or Assign
    cond: Optional[Expr] = None
    step: Optional[Stmt] = None  # Assign or IncDec or ExprStmt
    body: Stmt = None  # type: ignore[assignment]


@dataclass
class Return(Stmt):
    value: Optional[Expr] = None


@dataclass
class Break(Stmt):
    pass


@dataclass
class Continue(Stmt):
    pass


# ----------------------------------------------------------------- top level


@dataclass
class Param(Node):
    ctype: CType = None  # type: ignore[assignment]
    name: str = ""


@dataclass
class FuncDef(Node):
    ret: CType = None  # type: ignore[assignment]
    name: str = ""
    params: List[Param] = field(default_factory=list)
    body: Block = None  # type: ignore[assignment]
    filename: str = "<source>"
    end_line: int = 0


@dataclass
class StructDef(Node):
    name: str = ""
    fields: List[Tuple[str, CType]] = field(default_factory=list)


@dataclass
class GlobalDecl(Node):
    ctype: CType = None  # type: ignore[assignment]
    name: str = ""
    init: Optional[Expr] = None
    const: bool = False


@dataclass
class Program(Node):
    filename: str = "<source>"
    structs: List[StructDef] = field(default_factory=list)
    globals: List[GlobalDecl] = field(default_factory=list)
    functions: List[FuncDef] = field(default_factory=list)
    #: name → definition, built on the first lookup (the parser is the
    #: only writer of ``functions``, and nothing renames a definition
    #: after it, so the index never goes stale)
    _index: Optional[Dict[str, FuncDef]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def function(self, name: str) -> Optional[FuncDef]:
        index = self._index
        if index is None:
            index = {}
            for f in self.functions:
                index.setdefault(f.name, f)
            self._index = index
        return index.get(name)
