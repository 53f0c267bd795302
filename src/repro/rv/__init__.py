"""Runtime verification: declarative dataflow properties, online monitors.

The paper's deterministic token/scheduling instrumentation yields a
complete, ordered framework-event stream; this package attaches *judges*
to it.  Properties are declared once (builder API or compact text form),
compiled into per-event counter/automaton monitors against the
reconstructed graph, and driven from the same event bus the dataflow
extension uses — a violation becomes a first-class interactive stop
event carrying a structured verdict (property, witness events,
implicated actors and links).

Monitors are restricted by construction to the journal-derivable event
fields, so :func:`derive_verdicts` re-evaluates the same properties from
a :class:`~repro.sim.replay.ReplayJournal` and produces verdicts
byte-identical to the live run (the telemetry subsystem's identity trick,
applied to correctness instead of cost).

Arming monitors raises ``DebugHook.CAP_RV`` — a capability bit outside
``CAP_ALL`` — so the Filter-C bytecode tier stays resident and the
monitors-off cost is a predicted branch.
"""

from .props import (
    DeadlockFreeProp,
    OccupancyProp,
    OrderProp,
    ProgressProp,
    Property,
    RateProp,
    bounded,
    deadlock_free,
    ordered,
    parse_property,
    progress,
    rate,
)
from .events import DataflowEvent, RvEvent
from .monitors import Verdict
from .compile import GraphView, compile_property
from .checks import Check, Checks
from .derive import derive_verdicts

__all__ = [
    "Check",
    "Checks",
    "DataflowEvent",
    "DeadlockFreeProp",
    "GraphView",
    "OccupancyProp",
    "OrderProp",
    "ProgressProp",
    "Property",
    "RateProp",
    "RvEvent",
    "Verdict",
    "bounded",
    "compile_property",
    "deadlock_free",
    "derive_verdicts",
    "ordered",
    "parse_property",
    "progress",
    "rate",
]
