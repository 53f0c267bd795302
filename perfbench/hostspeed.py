"""Host speed references: fixed workloads timed between sessions.

On a shared machine the host's speed changes under the benchmark: other
tenants slow every instruction down by up to half, and stretch the time a
sleeping thread takes to wake, in phases that last from seconds to several
minutes, longer than one run.  No choice of sessions inside a run removes
a phase that covers the whole run.  So the runner times these references
at checkpoints between sessions and scales every timing by
``NOMINAL[ref] / (mean of the two reference times bracketing it)``: the
timings are reported as they would read on a host that runs each
reference in its ``NOMINAL`` time.

The references are the benchmark's own code and never import the program,
so a change to the program cannot move them.

- ``cpu`` mixes the kinds of work the debugger does: integer arithmetic
  like the Filter-C tier's, generator coroutines under a heap scheduler
  like the simulation kernel's, dictionary lookups and string formatting
  like the inspection commands'.  It scales every timing except:
- ``wire``, a loopback line echo with the daemon's shape (an asyncio
  server thread hands each line to a one-thread executor; one blocking
  client), for the timings a workload declares bound by thread hand-offs
  rather than by work: the inspection round trips of ``wire-timetravel``.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import heapq
import socket
import statistics
import threading
import time
from typing import Dict, Optional

#: the scale of the reported timings: about what each reference took in
#: the quiet phases of the two-core x86 virtual machine the benchmark was
#: written on (``cpu``: one run; ``wire``: the median round trip)
NOMINAL: Dict[str, float] = {"cpu": 0.085, "wire": 0.0001}


def _lcg(rounds: int) -> int:
    acc = 12345
    for i in range(rounds):
        acc = (acc * 1103515245 + 12345 + i) & 0x7FFFFFFF
        acc ^= acc >> 7
    return acc


def _actor(inbox: list, outbox: list):
    while True:
        while not inbox:
            yield 1
        value = (inbox.pop() * 1103515245 + 12345) & 0x7FFFFFFF
        outbox.append(value)
        yield 2 + (value & 7)


def _ring(steps: int, actors: int = 40) -> int:
    inboxes = [[] for _ in range(actors)]
    procs = [_actor(inboxes[i], inboxes[(i + 1) % actors]) for i in range(actors)]
    inboxes[0].extend(range(actors))
    queue = [(0, i) for i in range(actors)]
    for _ in range(steps):
        now, i = heapq.heappop(queue)
        heapq.heappush(queue, (now + next(procs[i]), i))
    return queue[0][0]


def _render(rows: int) -> int:
    table = {f"actor{i}": {"state": i % 5, "fired": i * 7, "link": f"l{i % 13}"}
             for i in range(rows)}
    out = []
    for name in sorted(table):
        row = table[name]
        out.append(f"{name:<10} {row['state']:>3} {row['fired']:>8} {row['link']}")
    return sum(len(line) for line in out)


def cpu_reference() -> float:
    """Run the ``cpu`` reference once; its wall time in seconds."""
    t0 = time.perf_counter()
    _lcg(200_000)
    _ring(60_000)
    _render(12_000)
    return time.perf_counter() - t0


class WireEcho:
    """The ``wire`` reference: a loopback echo server on its own thread."""

    ROUNDS = 200

    def __init__(self) -> None:
        self.loop = asyncio.new_event_loop()
        self.executor = concurrent.futures.ThreadPoolExecutor(1)
        self.thread = threading.Thread(target=self.loop.run_forever, daemon=True)
        self.thread.start()
        self.server = asyncio.run_coroutine_threadsafe(
            asyncio.start_server(self._serve, "127.0.0.1", 0), self.loop
        ).result(timeout=30)
        port = self.server.sockets[0].getsockname()[1]
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=30)
        self.reader = self.sock.makefile("rb")

    async def _serve(self, reader, writer) -> None:
        while True:
            line = await reader.readline()
            if not line:
                break
            writer.write(await self.loop.run_in_executor(self.executor, bytes.upper, line))
            await writer.drain()
        writer.close()

    def round_trip(self) -> float:
        """Median round trip of ``ROUNDS`` echoed lines, in seconds."""
        times = []
        for i in range(self.ROUNDS):
            t0 = time.perf_counter()
            self.sock.sendall(b'{"id": %d, "method": "ping"}\n' % i)
            self.reader.readline()
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    def close(self) -> None:
        self.reader.close()
        self.sock.close()

        async def shutdown() -> None:
            self.server.close()
            await self.server.wait_closed()
            # let the handler see the end of its stream and return
            await asyncio.sleep(0.05)

        asyncio.run_coroutine_threadsafe(shutdown(), self.loop).result(timeout=30)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join()
        self.loop.close()
        self.executor.shutdown(wait=True)


class HostSpeed:
    """The references one run times at each checkpoint."""

    def __init__(self, wire: bool) -> None:
        self.echo = WireEcho() if wire else None

    def __call__(self) -> Dict[str, float]:
        out = {"cpu": cpu_reference()}
        if self.echo is not None:
            out["wire"] = self.echo.round_trip()
        return out

    def close(self) -> None:
        if self.echo is not None:
            self.echo.close()
