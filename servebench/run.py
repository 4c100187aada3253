"""The serving benchmark: closed-loop load over real sockets, checked replies.

Usage, from the root of a checkout::

    python3 servebench/run.py --workload write-soak --seed 1 --seconds 5 --trace 0

One run starts the server in its own process(es) through the program's
public entry points, drives it from this process with one pipelined
session per connection (at most ``nproc`` of them, and at most two),
checks every reply against the benchmark's own model (``model.py``) and
prints its figures.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` runs the
workload twice, each on a fresh server: once untraced, for the figures
read from outside (CPU per process, the ``stats`` verb), and once with
every layer call traced (``spans.py``), for the per-layer self times;
the difference in throughput between the two is the tracing overhead.
See README.md for the workloads, the metrics and what each should move.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import glob
import json
import os
import platform
import shutil
import statistics
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")

#: Server launches per timed run; setup_s is their median.
SETUPS = 5
#: Seconds a server may take to print its port, and to stop.
START_TIMEOUT = 60.0
STOP_TIMEOUT = 120.0
#: Seconds one invocation may take beyond its timed phases; past it the
#: servers are killed and the run fails without a result.
RUN_SLACK = 150.0
#: The CPUs this benchmark may use, as it found them.
CPUS = sorted(os.sched_getaffinity(0))


def _quantile(values, q: float) -> float:
    """Nearest-rank quantile of a non-empty list."""
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, int(q * len(ordered) + 0.5) - 1))
    return ordered[index]


def _pin(pids) -> None:
    """Give each process its own CPU, round-robin when there are more
    processes than CPUs; every thread of a process goes with it.

    Left to the scheduler, a fresh server often shared one CPU with the
    generator for seconds while the other idled, which halved throughput
    for part of a run at random.  Servers must be launched unpinned (see
    ``ServerProcess.start``): one that inherited the generator's CPU ran
    at half speed even after it was moved.
    """
    if len(CPUS) < 2:
        return
    for index, pid in enumerate(pids):
        for thread in os.listdir(f"/proc/{pid}/task"):
            try:
                os.sched_setaffinity(int(thread), {CPUS[index % len(CPUS)]})
            except ProcessLookupError:
                pass  # the thread ended meanwhile


class ServerProcess:
    """A server started through server_main.py, stopped over its stdin."""

    def __init__(self, workload, trace_dir=None) -> None:
        self.workload = workload
        self.trace_dir = trace_dir
        self.process = None
        self.port = None
        self.workers = []

    @property
    def pids(self):
        return [self.process.pid] + list(self.workers)

    async def start(self, session: str):
        """Launch, hello as ``session``; return (setup seconds, connection)."""
        from loadgen import Connection

        command = [
            sys.executable, os.path.join(BENCH, "server_main.py"),
            "--procs", str(self.workload.procs),
        ]
        if self.trace_dir is not None:
            command += ["--trace-dir", self.trace_dir]
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        os.sched_setaffinity(0, CPUS)
        started = time.perf_counter()
        self.process = await asyncio.create_subprocess_exec(
            *command, stdin=asyncio.subprocess.PIPE,
            stdout=asyncio.subprocess.PIPE, env=env,
        )
        line = await asyncio.wait_for(
            self.process.stdout.readline(), START_TIMEOUT
        )
        if not line:
            raise RuntimeError("server exited before reporting its port")
        info = json.loads(line)
        self.port = info["port"]
        self.workers = info["workers"]
        connection = await Connection.open(
            self.port, session, self.workload.codec
        )
        return time.perf_counter() - started, connection

    async def stop(self, command: str):
        """Send ``stop`` (drain, heal, audit) or ``quit``.

        Returns the seconds until the server reported it had stopped
        serving, with its verdict, and the verdict itself.
        """
        started = time.perf_counter()
        self.process.stdin.write(command.encode() + b"\n")
        await self.process.stdin.drain()
        self.process.stdin.close()
        line = await asyncio.wait_for(
            self.process.stdout.readline(), STOP_TIMEOUT
        )
        elapsed = time.perf_counter() - started
        await asyncio.wait_for(self.process.wait(), STOP_TIMEOUT)
        await self._wait_workers()
        if not line:
            raise RuntimeError("server exited without its verdict")
        return elapsed, json.loads(line)

    async def kill(self) -> None:
        """Error path: end the server and its workers, wait for all."""
        if self.process is None:
            return
        if self.process.returncode is None:
            self.process.kill()
            await self.process.wait()
        await self._wait_workers()

    async def _wait_workers(self) -> None:
        # Shard workers are the front end's children; once it is gone
        # they see their control pipe close and exit on their own.
        deadline = time.perf_counter() + 30.0
        for pid in self.workers:
            while os.path.exists(f"/proc/{pid}") and not _zombie(pid):
                if time.perf_counter() > deadline:
                    try:
                        os.kill(pid, 9)
                    except ProcessLookupError:
                        pass
                    break
                await asyncio.sleep(0.05)


def _zombie(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat", "rb") as stat:
            return stat.read().rsplit(b")", 1)[1].split()[0] == b"Z"
    except OSError:
        return True


async def drive(workload, seed: int, seconds: float, trace_dir=None,
                audit: bool = True):
    """One fresh server, one timed phase; every raw figure of it."""
    from loadgen import Connection, Recorder, cpu_seconds, peak_rss_mb
    from loadgen import run_session, stolen_seconds
    from model import GET, History, check
    from workloads import WINDOW

    sessions = [f"s{i}" for i in range(max(1, min(2, os.cpu_count() or 1)))]
    server = ServerProcess(workload, trace_dir)
    try:
        setup, first = await server.start(sessions[0])
        connections = [first]
        for name in sessions[1:]:
            connections.append(
                await Connection.open(server.port, name, workload.codec)
            )
        history = History()
        for name in sessions:
            history.own(name, workload.private_keys(name))
        untimed = Recorder()
        read_rounds = []

        async def phase(steps_of, deadline, recorder, round_ops=1):
            await asyncio.gather(*(
                run_session(conn, name, steps_of(name), history, WINDOW,
                            round_ops, deadline, recorder, read_rounds)
                for conn, name in zip(connections, sessions)
            ))

        me = os.getpid()
        pids = server.pids
        _pin([me] + pids)
        await phase(workload.warmup, None, untimed)
        recorder = Recorder()
        cpu_before = {pid: cpu_seconds(pid) for pid in pids + [me]}
        # The generator's own collector pauses would stall every request
        # in flight and show as server latency; its history holds no
        # cycles worth collecting until the phase ends.
        gc.disable()
        stolen = stolen_seconds()
        began = time.perf_counter()
        try:
            await phase(lambda name: workload.steps(seed, name),
                        began + seconds, recorder, workload.round_ops)
        finally:
            gc.enable()
        ended = time.perf_counter()
        stolen = stolen_seconds() - stolen
        cpu = {pid: cpu_seconds(pid) - cpu_before[pid] for pid in pids + [me]}
        rss = {pid: peak_rss_mb(pid) for pid in pids + [me]}
        stats = (await connections[0].request({"t": "stats"}))["stats"]
        # Closing check: every session reads back each of its private
        # keys once, which must return exactly its last put.
        await phase(lambda name: [(GET, key) for key in
                                  workload.private_keys(name)],
                    None, untimed)
        for connection in connections:
            await connection.close()
        auditor = await Connection.open(server.port, "auditor", workload.codec)
        final = await auditor.request({"t": "read"})
        await auditor.close()
        if final.get("t") == "reply":
            read_rounds.append(final.get("rounds", 0))
        shutdown, verdict = await server.stop("stop" if audit else "quit")
    except BaseException:
        await server.kill()
        raise
    anomalies = check(history, final.get("value") or {})
    gets = sum(
        1 for ops in history.sessions.values() for op in ops
        if op.kind == GET and op.done
    )
    problems = [str(a) for a in anomalies[:5]]
    if final.get("t") != "reply":
        problems.append(f"final read failed: {final}")
    if untimed.failed:
        problems.append(f"untimed ops failed: {untimed.failures}")
    completed = recorder.attempted - recorder.failed
    wall = ended - began
    # The tail is the last quarter of the completions, in completion
    # order: how fast the server answered once it had most of the run's
    # history behind it.
    done = sorted(recorder.completed_at)
    tail_from = (3 * len(done)) // 4
    tail_span = done[-1] - done[tail_from]
    return {
        "setup_s": setup,
        "attempted": recorder.attempted,
        "failed": recorder.failed,
        "failures": recorder.failures,
        "completed": completed,
        "wall_s": wall,
        "ops_per_s": completed / wall,
        "tail_ops_per_s": (len(done) - 1 - tail_from) / tail_span,
        "latency_ms": recorder.latency_ms,
        "cpu_s": cpu,
        "generator_pid": me,
        "frontend_pid": server.process.pid,
        "worker_pids": list(server.workers),
        "rss_mb": rss,
        "stolen_s": stolen,
        "stats": stats,
        "read_rounds": read_rounds,
        "gets": gets,
        "shutdown_s": shutdown,
        "anomalies": len(anomalies),
        "problems": problems,
        "verdict": verdict,
    }


async def timed_run(workload, seed: int, seconds: float):
    setups = []
    for _ in range(SETUPS - 1):
        server = ServerProcess(workload)
        try:
            setup, connection = await server.start("setup")
            await connection.close()
            await server.stop("quit")
        except BaseException:
            await server.kill()
            raise
        setups.append(setup)
    run = await drive(workload, seed, seconds)
    setups.append(run["setup_s"])
    server_cpu = sum(
        seconds_used for pid, seconds_used in run["cpu_s"].items()
        if pid != run["generator_pid"]
    )
    latency = run["latency_ms"]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (run["ops_per_s"], "1/s"),
        "tail_ops_per_s": (run["tail_ops_per_s"], "1/s"),
        "p50_ms": (_quantile(latency, 0.50), "ms"),
        "p95_ms": (_quantile(latency, 0.95), "ms"),
        "server_cpu_ms_per_op": (1000.0 * server_cpu / run["completed"], "ms"),
        "peak_rss_mb": (sum(
            mb for pid, mb in run["rss_mb"].items()
            if pid != run["generator_pid"]
        ), "MiB"),
        "shutdown_s": (run["shutdown_s"], "s"),
    }
    roles = {run["generator_pid"]: "generator",
             run["frontend_pid"]: "server" if not run["worker_pids"]
             else "front end"}
    roles.update({pid: f"worker {i}"
                  for i, pid in enumerate(run["worker_pids"])})
    notes = [
        "per process: " + ", ".join(
            f"{roles[pid]} cpu {run['cpu_s'][pid]:.2f} s "
            f"peak {run['rss_mb'][pid]:.1f} MiB" for pid in roles
        ),
        f"latency samples: {len(latency)}, "
        f"p99 {_quantile(latency, 0.99):.4f} ms (not gated, see README)",
        f"host steal during the timed phase: {run['stolen_s']:.2f} CPU-s "
        f"(time the hypervisor ran other guests; it slows every figure)",
        f"program's own audit: {run['verdict']}",
        f"setup samples: {', '.join(f'{s:.4f}' for s in setups)}",
    ]
    return run, metrics, notes


def _layer_metrics(reference, traced, summaries):
    """Per-layer figures: /proc and stats from the untraced phase, span
    self times and state gauges from the traced one."""
    def total(field, name):
        return sum(s[field].get(name, 0) for s in summaries)

    def gauge(name):
        return sum(s["gauges"].get(name, 0) for s in summaries)

    ops = gauge("server_ops")
    gets = traced["gets"]
    per_op_us = lambda *names: sum(  # noqa: E731
        total("self_ns", name) for name in names) / 1000.0 / ops
    cycle_drains = sum(s["cycle_drains"] for s in summaries)
    token_calls = total("calls", "router.export_token")
    reads = traced["read_rounds"]
    ref_stats = reference["stats"]
    frontend_latency = ref_stats.get("frontend", ref_stats)["latency"]
    cpu = reference["cpu_s"]
    completed = reference["completed"]
    workers = reference["worker_pids"] or [reference["frontend_pid"]]
    ref_gets = ref_stats.get("gets", 0)
    return {
        "wire.decode_us_per_op": (per_op_us("wire.decode"), "us"),
        "wire.encode_us_per_op": (per_op_us("wire.encode"), "us"),
        "wire.bytes_per_op": ((
            sum(s["counters"].get("wire.decode.bytes", 0)
                + s["counters"].get("wire.encode.bytes", 0)
                for s in summaries)) / ops, "B"),
        "serve.mean_batch": (ref_stats.get("batch_mean") or 0.0, "ops"),
        "serve.direct_get_ratio": (
            ref_stats.get("gets_direct", 0) / ref_gets if ref_gets else 0.0,
            "ratio"),
        "serve.admission_waits": (ref_stats.get("admission_waits", 0),
                                  "count"),
        "serve.server_p50_ms": (frontend_latency["op"]["p50_ms"], "ms"),
        "procs.frontend_cpu_ms_per_op": (
            1000.0 * cpu[reference["frontend_pid"]] / completed, "ms"),
        "procs.worker_cpu_ms_per_op": (
            1000.0 * sum(cpu[pid] for pid in workers) / completed, "ms"),
        "router.put_us_per_op": (per_op_us("router.put", "router.pump"),
                                 "us"),
        "router.export_token_us_per_op": (
            per_op_us("router.export_token"), "us"),
        "router.token_bytes": (
            total("counters", "router.export_token.bytes") / token_calls
            if token_calls else 0.0, "B"),
        "cluster.shard_send_us_per_op": (per_op_us("cluster.shard_send"),
                                         "us"),
        "cluster.drain_ms_per_cycle": (
            sum(s["cycle_drain_ns"] for s in summaries) / 1e6 / cycle_drains
            if cycle_drains else 0.0, "ms"),
        "cluster.frontier_note_us_per_op": (
            per_op_us("cluster.frontier_note"), "us"),
        "cluster.ledger_labels": (gauge("ledger_labels"), "count"),
        "cluster.read_us_per_get": (
            total("self_ns", "cluster.read") / 1000.0 / gets
            if gets else 0.0, "us"),
        "barrier.rounds_per_read": (
            sum(reads) / len(reads) if reads else 0.0, "count"),
        "sim.events_per_op": (gauge("events") / ops, "count"),
        "sim.messages_per_op": (gauge("messages") / ops, "count"),
        "broadcast.receive_us_per_op": (per_op_us("broadcast.receive"),
                                        "us"),
        "broadcast.holdback_peak": (
            max(s["gauges"].get("holdback_peak", 0) for s in summaries),
            "count"),
        "graph.add_us_per_op": (per_op_us("graph.add"), "us"),
        "graph.maximal_us_per_op": (per_op_us("graph.maximal"), "us"),
        "graph.causal_past_us_per_op": (per_op_us("graph.causal_past"),
                                        "us"),
        "graph.labels": (gauge("graph_labels"), "count"),
        "graph.retained_mb": (
            gauge("graph_bytes") / 2 ** 20, "MiB"),
        "audit.session_guarantees_s": (
            total("total_ns", "audit.session_guarantees") / 1e9, "s"),
        "client.cpu_ms_per_op": (
            1000.0 * cpu[reference["generator_pid"]] / completed, "ms"),
        "trace.overhead_pct": (
            100.0 * (1.0 - traced["ops_per_s"] / reference["ops_per_s"]),
            "%"),
    }


async def traced_run(workload, seed: int, seconds: float):
    reference = await drive(workload, seed, seconds, audit=False)
    trace_dir = os.path.join(ROOT, ".servebench", f"trace-{workload.name}")
    shutil.rmtree(trace_dir, ignore_errors=True)
    os.makedirs(trace_dir)
    traced = await drive(workload, seed, seconds, trace_dir=trace_dir)
    summaries = []
    for path in sorted(glob.glob(os.path.join(trace_dir, "*.summary.json"))):
        with open(path, encoding="utf-8") as handle:
            summaries.append(json.load(handle))
    expected = 1 + len(traced["worker_pids"])
    if len(summaries) != expected:
        raise RuntimeError(
            f"expected {expected} trace summaries, found {len(summaries)}"
        )
    metrics = _layer_metrics(reference, traced, summaries)
    run = dict(traced)
    for key in ("attempted", "failed", "anomalies"):
        run[key] = reference[key] + traced[key]
    run["problems"] = reference["problems"] + traced["problems"]
    run["failures"] = reference["failures"] + traced["failures"]
    notes = [
        f"untraced ops/s {reference['ops_per_s']:.1f}, "
        f"traced ops/s {traced['ops_per_s']:.1f}",
        f"spans and summaries in {os.path.relpath(trace_dir, ROOT)}",
    ]
    return run, metrics, notes


def main(argv=None) -> int:
    server_source = os.path.join(SRC, "repro", "serve", "server.py")
    parser = argparse.ArgumentParser(
        description="Serving benchmark over real sockets."
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(server_source):
        print(f"servebench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"servebench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    print(f"host: nproc={os.cpu_count()} python={platform.python_version()} "
          f"machine={platform.machine()}")
    print(f"workload: {workload.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} "
          f"procs={workload.procs} codec={workload.codec}")
    runner = traced_run if args.trace else timed_run
    phases = 2 if args.trace else 1
    run, metrics, notes = asyncio.run(asyncio.wait_for(
        runner(workload, args.seed, args.seconds),
        phases * args.seconds + RUN_SLACK,
    ))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<34} {value:>14.4f} {unit}")
    for note in notes:
        print(f"  {note}")
    print(f"  attempted {run['attempted']}  failed {run['failed']}  "
          f"model anomalies {run['anomalies']}")
    for problem in run["problems"] + run["failures"]:
        print(f"  ! {problem}")
    print(json.dumps({
        "correct": not run["problems"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
