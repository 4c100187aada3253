"""Span tracing for the benchmark's traced run, installed from outside.

:func:`install` wraps public calls into each layer of the program (the
wire codec, the session router, the sharded cluster, the frontier
tracker, the broadcast receive path, the dependency graph and the
session-guarantee audit) with a recorder.  Nothing inside ``src/`` is
edited: the wrappers replace module and class attributes in the server
process, and in each shard worker of a multi-process server.

A span is ``[name, start_ns, end_ns, parent, cycle]``: ``parent`` is the
index of the enclosing span (-1 at top level) and ``cycle`` numbers the
server batch cycle the span ran in (None outside a cycle).  Spans stay in
memory until :meth:`Tracer.dump` writes them as JSONL next to a summary
of per-name self time (duration minus the time of direct children),
which is what the benchmark turns into per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from typing import Any, Callable, Dict, List, Optional

#: Environment variable naming the directory a traced process dumps to;
#: spawned shard workers inherit it from the front end.
TRACE_DIR_ENV = "SERVEBENCH_TRACE_DIR"


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self, directory: str, role: str) -> None:
        self.directory = directory
        self.role = role
        self.spans: List[list] = []
        self.counters: Dict[str, int] = {}
        self.cycle: Optional[int] = None
        self.cycles = 0
        #: ServeServer instances built in this process (gauges at dump).
        self.servers: List[Any] = []
        self._stack: List[int] = [-1]
        self._dumped = False

    def count(self, name: str, amount: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name: str, function: Callable,
             measure: Optional[Callable[[tuple, Any], int]] = None) -> Callable:
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            record = [name, clock(), 0, stack[-1], tracer.cycle]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = function(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = clock()
            if measure is not None:
                tracer.count(name + ".bytes", measure(args, result))
            return result

        return traced

    def summary(self) -> Dict[str, Any]:
        total: Dict[str, int] = {}
        children: Dict[str, int] = {}
        calls: Dict[str, int] = {}
        spans = self.spans
        for name, start, end, parent, _cycle in spans:
            if not end:
                continue  # still open when dumped
            duration = end - start
            total[name] = total.get(name, 0) + duration
            calls[name] = calls.get(name, 0) + 1
            if parent >= 0:
                owner = spans[parent][0]
                children[owner] = children.get(owner, 0) + duration
        in_cycle_drain = [
            end - start for name, start, end, _p, cycle in spans
            if name == "cluster.drain" and cycle is not None and end
        ]
        return {
            "role": self.role,
            "pid": os.getpid(),
            "calls": calls,
            "total_ns": total,
            "self_ns": {
                name: total[name] - children.get(name, 0) for name in total
            },
            "cycle_drain_ns": sum(in_cycle_drain),
            "cycle_drains": len(in_cycle_drain),
            "cycles": self.cycles,
            "counters": dict(self.counters),
            "gauges": self._gauges(),
        }

    def _gauges(self) -> Dict[str, float]:
        gauges: Dict[str, float] = {
            "server_ops": 0, "events": 0, "messages": 0, "holdback_peak": 0,
            "ledger_labels": 0, "graph_labels": 0, "graph_bytes": 0,
        }
        for server in self.servers:
            cluster = server.cluster
            gauges["server_ops"] += server.metrics.counters.get("ops", 0)
            gauges["events"] += cluster.scheduler.events_processed
            gauges["ledger_labels"] += len(cluster.ops)
            gauges["graph_labels"] += len(cluster.graph)
            gauges["graph_bytes"] += container_bytes(cluster.graph)
            for group in cluster.groups.values():
                gauges["messages"] += group.network.hops_sent
                for stack in group.stacks.values():
                    gauges["holdback_peak"] = max(
                        gauges["holdback_peak"], stack.max_holdback
                    )
        return gauges

    def dump(self) -> None:
        """Write spans (JSONL) and their summary; once per process."""
        if self._dumped:
            return
        self._dumped = True
        summary = self.summary()
        stem = os.path.join(self.directory, f"{self.role}-{os.getpid()}")
        with open(stem + ".spans.jsonl", "w", encoding="utf-8") as out:
            for index, (name, start, end, parent, cycle) in enumerate(
                self.spans
            ):
                out.write(json.dumps({
                    "id": index, "name": name, "start_ns": start,
                    "end_ns": end, "parent": parent, "cycle": cycle,
                }, separators=(",", ":")))
                out.write("\n")
        with open(stem + ".summary.json", "w", encoding="utf-8") as out:
            json.dump(summary, out)


def container_bytes(root: Any) -> int:
    """Bytes of the containers an object holds, reached through its
    attributes, dicts, lists and tuples.

    Sets and frozensets are counted but not entered, and leaves (labels,
    numbers, strings) are not counted: in the dependency graph the
    containers are what the graph itself allocates, while its labels are
    shared with the ledger and the protocol stacks.
    """
    seen = set()
    total = 0
    stack = [vars(root)]
    while stack:
        item = stack.pop()
        if id(item) in seen:
            continue
        seen.add(id(item))
        total += sys.getsizeof(item)
        if isinstance(item, dict):
            values = item.values()
        elif isinstance(item, (list, tuple)):
            values = item
        else:
            continue
        stack.extend(
            value for value in values
            if isinstance(value, (dict, list, tuple, set, frozenset))
        )
    return total


def _patch(tracer: Tracer, owner: Any, attribute: str, name: str,
           measure: Optional[Callable[[tuple, Any], int]] = None) -> None:
    setattr(owner, attribute, tracer.wrap(name, getattr(owner, attribute),
                                          measure))


def _body_bytes(args: tuple, _result: Any) -> int:
    return len(args[0])


def _result_bytes(_args: tuple, result: Any) -> int:
    return len(result)


def install(directory: str, role: str) -> Tracer:
    """Wrap every traced layer call in this process; return the tracer."""
    from repro.broadcast.base import BroadcastProtocol
    from repro.graph.depgraph import DependencyGraph
    from repro.serve import procs, server, wire
    from repro.shard.cluster import ShardedCluster
    from repro.shard.frontier import FrontierTracker
    from repro.shard.router import Session

    tracer = Tracer(directory, role)
    # wire: every decode and encode of a frame body.  The server and the
    # front end import some wire helpers by name, so patch those names.
    _patch(tracer, wire, "decode_frame", "wire.decode", _body_bytes)
    _patch(tracer, wire, "encode_frame", "wire.encode", _result_bytes)
    _patch(tracer, procs, "decode_frame", "wire.decode", _body_bytes)
    _patch(tracer, procs, "peek_frame_fields", "wire.decode", _body_bytes)
    # router
    _patch(tracer, Session, "put", "router.put")
    _patch(tracer, Session, "pump", "router.pump")
    _patch(tracer, Session, "export_token", "router.export_token",
           _result_bytes)
    # cluster and frontier
    _patch(tracer, ShardedCluster, "shard_send", "cluster.shard_send")
    _patch(tracer, ShardedCluster, "drain", "cluster.drain")
    _patch(tracer, ShardedCluster, "read_members", "cluster.read")
    _patch(tracer, ShardedCluster, "covers", "cluster.read")
    _patch(tracer, ShardedCluster, "member_read", "cluster.read")
    _patch(tracer, FrontierTracker, "note", "cluster.frontier_note")
    # broadcast and graph
    _patch(tracer, BroadcastProtocol, "on_receive", "broadcast.receive")
    _patch(tracer, DependencyGraph, "add", "graph.add")
    _patch(tracer, DependencyGraph, "maximal_elements", "graph.maximal")
    _patch(tracer, DependencyGraph, "causal_past", "graph.causal_past")
    # audit: the server module imported the checker by name.
    _patch(tracer, server, "check_all_session_guarantees",
           "audit.session_guarantees")

    serve_server = server.ServeServer
    start = serve_server.start
    run_cycle = serve_server._run_cycle

    async def traced_start(self):
        tracer.servers.append(self)
        return await start(self)

    async def traced_run_cycle(self, batch):
        # Spans of one batch cycle share its id.  The cycle's work up to
        # its final reply drain runs without yielding, so no other task's
        # spans are stamped with it.
        tracer.cycles += 1
        tracer.cycle = tracer.cycles
        try:
            return await run_cycle(self, batch)
        finally:
            tracer.cycle = None

    serve_server.start = traced_start
    serve_server._run_cycle = traced_run_cycle
    return tracer


def traced_worker_main(*args: Any) -> None:
    """Shard-worker entry point: trace, run the worker, dump after audit.

    A worker builds its report by calling the server's
    ``session_guarantee_violations`` once it has drained; the spans are
    written right after that audit, before the report goes back, so the
    front end's wait for the report covers the dump.
    """
    from repro.serve import procs
    from repro.serve.server import ServeServer

    tracer = install(os.environ[TRACE_DIR_ENV], "worker")
    audit = ServeServer.session_guarantee_violations

    def audit_then_dump(self):
        try:
            return audit(self)
        finally:
            tracer.dump()

    ServeServer.session_guarantee_violations = audit_then_dump
    procs._worker_main(*args)
