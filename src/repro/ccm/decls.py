"""Component and assembly declarations."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..cminus.ast import Program as CProgram
from ..cminus.debuginfo import DebugInfo
from ..errors import ReproError


class CcmError(ReproError):
    """Error in a component assembly."""


def _camel(name: str) -> str:
    return "".join(p[0].upper() + p[1:] for p in name.split("_") if p)


def mangle_service_symbol(component: str, service: str) -> str:
    return f"{_camel(component)}Component_serve_{service}"


def mangle_helper_prefix(component: str) -> str:
    return f"{_camel(component)}Component_"


@dataclass
class ComponentDecl:
    """One component: Filter-C source + provided/required interfaces.

    The source defines ``U32 serve_<name>(U32 arg)`` for each provided
    service and may invoke required interfaces with ``CALL(req, arg)``.
    """

    name: str
    source: str
    provides: List[str] = field(default_factory=list)
    requires: List[str] = field(default_factory=list)
    source_name: str = ""
    # filled at compile time
    cprogram: Optional[CProgram] = None
    debug_info: Optional[DebugInfo] = None
    service_symbols: Dict[str, str] = field(default_factory=dict)
    #: canonical → mangled function names (services and helpers)
    symbols: Dict[str, str] = field(default_factory=dict)

    kind = "component"


@dataclass
class AssemblyDecl:
    """Components plus initial bindings (required → component.provided)."""

    name: str
    components: Dict[str, ComponentDecl] = field(default_factory=dict)
    #: (component, required_iface) -> (provider_component, provided_iface)
    bindings: Dict[Tuple[str, str], Tuple[str, str]] = field(default_factory=dict)

    def add_component(self, decl: ComponentDecl) -> ComponentDecl:
        if decl.name in self.components:
            raise CcmError(f"component {decl.name!r} redeclared")
        self.components[decl.name] = decl
        return decl

    def bind(self, client: str, required: str, provider: str, provided: str) -> None:
        self.bindings[(client, required)] = (provider, provided)

    def validate(self) -> None:
        for (client, required), (provider, provided) in self.bindings.items():
            c = self.components.get(client)
            if c is None:
                raise CcmError(f"binding: unknown component {client!r}")
            if required not in c.requires:
                raise CcmError(f"binding: {client} does not require {required!r}")
            p = self.components.get(provider)
            if p is None:
                raise CcmError(f"binding: unknown provider {provider!r}")
            if provided not in p.provides:
                raise CcmError(f"binding: {provider} does not provide {provided!r}")
        for c in self.components.values():
            for required in c.requires:
                if (c.name, required) not in self.bindings:
                    raise CcmError(f"{c.name}.{required} is required but unbound")
