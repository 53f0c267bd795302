"""Filter-C: the restricted C subset PEDF filters and controllers use.

The paper's filters are written in "a restricted subset of the C language
which permits a direct transformation to RTL circuits" and controllers in
plain C against the PEDF scheduling API.  To reproduce two-level debugging
faithfully (source-line breakpoints, stepping, watchpoints, frame and
variable inspection *inside* actor code) we implement that subset as an
interpreted language:

- :mod:`lexer`, :mod:`parser` — front end producing a typed AST;
- :mod:`typesys` — the embedded type system (U8..S32, bool, arrays,
  structs) with C-style wraparound semantics;
- :mod:`sema` — name resolution + type checking, annotating every
  expression with its static type and emitting DWARF-like debug info;
- :mod:`interp` — a *resumable* interpreter: execution is a generator
  that yields kernel requests at every statement boundary, so an attached
  debugger can pause a filter mid-WORK-method and resume it in place;
- :mod:`debuginfo` — line tables / symbols / type descriptions, the only
  static information the debugger relies on (mirroring the paper's
  DWARF-only constraint).

Filter-C sources never import anything: all interaction with the outside
world goes through the ``pedf.io`` / ``pedf.data`` / ``pedf.attribute``
namespaces and the controller scheduling intrinsics, both provided by an
:class:`~repro.cminus.interp.Environment` implementation.
"""

from .lexer import Lexer, Token, TokenKind, tokenize
from .parser import Parser, parse_program
from .typesys import (
    BOOL,
    INT,
    S8,
    S16,
    S32,
    U8,
    U16,
    U32,
    VOID,
    ArrayType,
    BoolType,
    CType,
    IntType,
    StructType,
    VoidType,
    common_type,
    type_by_name,
    wrap_int,
)
from .sema import ActorContext, IfaceSig, SemanticAnalyzer, analyze
from .values import Raw, Value, coerce, copy_raw, default_value, format_value
from .interp import (
    CallState,
    CostModel,
    DebugHook,
    Environment,
    Frame,
    Interpreter,
    NullEnvironment,
    PureEvaluator,
    run_sync,
)
from .debuginfo import DebugInfo, FunctionSymbol, LineTable, VariableSymbol
from .frontend import FrontendCache, frontend_cache

__all__ = [
    "Lexer",
    "Token",
    "TokenKind",
    "tokenize",
    "Parser",
    "parse_program",
    "BOOL",
    "INT",
    "S8",
    "S16",
    "S32",
    "U8",
    "U16",
    "U32",
    "VOID",
    "ArrayType",
    "BoolType",
    "CType",
    "IntType",
    "StructType",
    "VoidType",
    "common_type",
    "type_by_name",
    "wrap_int",
    "SemanticAnalyzer",
    "ActorContext",
    "IfaceSig",
    "analyze",
    "Raw",
    "Value",
    "coerce",
    "copy_raw",
    "default_value",
    "format_value",
    "CallState",
    "CostModel",
    "DebugHook",
    "Environment",
    "Frame",
    "Interpreter",
    "NullEnvironment",
    "PureEvaluator",
    "run_sync",
    "DebugInfo",
    "FunctionSymbol",
    "LineTable",
    "VariableSymbol",
    "FrontendCache",
    "frontend_cache",
]
