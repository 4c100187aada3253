"""The benchmark's closed-loop load generator and /proc sampling.

One generator process drives every session.  A session is one TCP
connection that keeps at most ``WINDOW`` requests in flight: it sends
the next request only when a reply frees a slot, so a slower server
receives less load.  Each reply carries the session's fresh causal
token; the server keeps the session's causal state, so requests chain
from reply to reply.

Every operation is recorded in the :class:`model.History` as it is
issued and completed with what its reply returned; latency is taken
from the moment the request is written to the moment its reply is read.
"""

from __future__ import annotations

import asyncio
import os
import time
from typing import Dict, List, Optional

from model import GET, PUT, READ, History, Op
from repro.errors import ProtocolError
from repro.serve.wire import decode_frame, encode_frame, read_frame_bytes

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def cpu_seconds(pid: int) -> float:
    """User plus system CPU of one process, read from /proc."""
    with open(f"/proc/{pid}/stat", "rb") as stat:
        fields = stat.read().rsplit(b")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of one process, in MiB."""
    with open(f"/proc/{pid}/status", "rb") as status:
        for line in status:
            if line.startswith(b"VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError(f"no VmHWM for pid {pid}")


def stolen_seconds() -> float:
    """CPU time the hypervisor gave to others, summed over all CPUs."""
    with open("/proc/stat", "rb") as stat:
        fields = stat.readline().split()
    return int(fields[8]) / _CLOCK_TICKS if len(fields) > 8 else 0.0


class ServeFailure(Exception):
    """The server refused the hello or closed the connection first."""


class Connection:
    """One pipelined serve-protocol connection (one session)."""

    def __init__(self, reader, writer, codec: str) -> None:
        self.reader = reader
        self.writer = writer
        self.codec = codec
        self._next_rid = 1
        #: rid -> (callback, send time)
        self._waiting: Dict[int, tuple] = {}
        self._recv: Optional[asyncio.Task] = None

    @classmethod
    async def open(cls, port: int, session: str, codec: str) -> "Connection":
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(encode_frame({
            "t": "hello", "rid": 0, "session": session, "codec": codec,
        }))
        body = await read_frame_bytes(reader)
        if body is None:
            raise ServeFailure("connection closed before hello reply")
        reply = decode_frame(body)
        if reply.get("t") != "reply":
            raise ServeFailure(f"hello refused: {reply}")
        connection = cls(reader, writer, codec)
        connection._recv = asyncio.ensure_future(connection._recv_loop())
        return connection

    def send(self, *documents: dict, callback) -> None:
        """Write requests in one write; ``callback(reply, sent, received)``
        for each reply as it arrives."""
        sent = time.perf_counter()
        if self._recv is not None and self._recv.done():
            # The server went away: no reply will ever come.
            for _document in documents:
                callback({"t": "error", "error": "connection lost"}, sent,
                         sent)
            return
        frames = []
        for document in documents:
            rid = self._next_rid
            self._next_rid += 1
            document["rid"] = rid
            self._waiting[rid] = (callback, sent)
            frames.append(encode_frame(document, self.codec))
        self.writer.write(b"".join(frames))

    async def request(self, document: dict) -> dict:
        future = asyncio.get_running_loop().create_future()
        self.send(document,
                  callback=lambda reply, _s, _r: future.set_result(reply))
        return await future

    async def _recv_loop(self) -> None:
        reader = self.reader
        codec = self.codec
        waiting = self._waiting
        clock = time.perf_counter
        try:
            while True:
                body = await read_frame_bytes(reader)
                if body is None:
                    break
                received = clock()
                reply = decode_frame(body, codec)
                entry = waiting.pop(reply.get("rid"), None)
                if entry is not None:
                    entry[0](reply, entry[1], received)
        except (ConnectionError, ProtocolError):
            pass
        finally:
            lost = list(waiting.values())
            waiting.clear()
            for callback, sent in lost:
                callback({"t": "error", "error": "connection lost"}, sent,
                         clock())

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except ConnectionError:
            pass
        if self._recv is not None:
            await self._recv


class Recorder:
    """Latency, completion times and failures of the timed phase."""

    def __init__(self) -> None:
        self.latency_ms: List[float] = []
        self.completed_at: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []


async def run_session(
    connection: Connection,
    name: str,
    steps,
    history: History,
    window: int,
    round_ops: int,
    deadline: Optional[float],
    recorder: Optional[Recorder],
    read_rounds: List[int],
) -> None:
    """Issue ``steps`` in whole rounds until ``deadline`` (or exhaustion).

    With ``deadline`` None the steps are a finite list run to the end
    (the untimed warm-up and closing phases).  Only timed operations are
    counted in ``recorder``; every barrier read's round count goes to
    ``read_rounds``.
    """
    slots = asyncio.Semaphore(window)
    idle = asyncio.Event()
    idle.set()
    state = {"outstanding": 0}
    puts = sum(1 for op in history.session(name) if op.kind == PUT)
    clock = time.perf_counter

    def complete(op: Op, reply: dict, sent: float, received: float) -> None:
        kind = reply.get("t")
        if kind == "reply":
            if op.kind == GET or op.kind == READ:
                op.value = reply.get("value")
                if op.kind == READ:
                    read_rounds.append(reply.get("rounds", 0))
            op.done = True
        else:
            op.failed = True
            if recorder is not None:
                recorder.failed += 1
                if len(recorder.failures) < 5:
                    recorder.failures.append(f"{op.kind} {op.key}: {reply}")
        if recorder is not None:
            recorder.latency_ms.append((received - sent) * 1000.0)
            recorder.completed_at.append(received)
        state["outstanding"] -= 1
        if not state["outstanding"]:
            idle.set()
        slots.release()

    issued = 0
    for kind, key in steps:
        if deadline is not None and issued % round_ops == 0 \
                and clock() >= deadline:
            break
        await slots.acquire()
        if kind == PUT:
            value = f"{name}.{puts}"
            puts += 1
            op = history.issue(name, PUT, key, value)
            document = {"t": "put", "key": key, "value": value}
        elif kind == GET:
            op = history.issue(name, GET, key)
            document = {"t": "get", "key": key}
        else:
            op = history.issue(name, READ)
            document = {"t": "read"}
        state["outstanding"] += 1
        idle.clear()
        issued += 1
        if recorder is not None:
            recorder.attempted += 1
        connection.send(
            document,
            callback=lambda reply, sent, received, op=op: complete(
                op, reply, sent, received
            ),
        )
    await idle.wait()
