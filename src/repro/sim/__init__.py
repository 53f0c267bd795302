"""Discrete-event simulation kernel (SystemC-thread-like substrate).

The paper's prototype ran on the P2012 *functional simulator*, which
implements the platform's processors as cooperatively-scheduled SystemC
threads.  This package provides the equivalent substrate in pure Python:

- :class:`Scheduler` — the event-driven kernel, with a simulated cycle
  counter and a deterministic dispatch order.
- :class:`Process` — a cooperatively scheduled coroutine (a generator that
  yields kernel requests such as :class:`Delay` or :class:`WaitEvent`).
- :class:`Event` — a notification primitive processes may wait on.
- :class:`Fifo` — a bounded FIFO channel with blocking put/get, the
  building block of PEDF data links.

The kernel is *pausable*: any process may yield a :class:`Suspend` request,
which stops dispatching and returns control to the caller of
:meth:`Scheduler.run` without unwinding the process.  This is the mechanism
the interactive debugger uses to stop the platform "mid-statement" and later
resume it exactly where it stopped.
"""

from .kernel import Scheduler, StopReason, StopKind
from .process import Process, ProcessState, Delay, WaitEvent, Suspend, Yield
from .events import Event
from .channels import Fifo
from .trace import TraceRecorder, TraceRecord, TraceSnapshot
from .replay import AlterationRecord, Checkpoint, DataflowEvent, ReplayJournal, StopRecord

__all__ = [
    "Scheduler",
    "StopReason",
    "StopKind",
    "Process",
    "ProcessState",
    "Delay",
    "WaitEvent",
    "Suspend",
    "Yield",
    "Event",
    "Fifo",
    "TraceRecorder",
    "TraceRecord",
    "TraceSnapshot",
    "ReplayJournal",
    "DataflowEvent",
    "Checkpoint",
    "StopRecord",
    "AlterationRecord",
]
