"""One server process of the serving benchmark.

Builds the server through the program's public entry points
(:class:`repro.serve.ServeServer`, or :class:`repro.serve.MultiProcServeServer`
with ``--procs`` above 1), prints one JSON line with its port and worker
pids, and serves until a line arrives on standard input:

* ``stop`` drains the server, heals the cluster and runs the program's
  own audit, then prints the verdict as a second JSON line;
* ``quit`` (or end of input) drains without heal or audit.

With ``--trace-dir`` every layer call is traced (see :mod:`spans`) and
the spans are written to that directory on the way out.

Run as ``python3 servebench/server_main.py --procs 1`` with ``src`` on
``PYTHONPATH``; the benchmark's ``run.py`` does that for you.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
import time

#: Every workload serves 2 shards of 3 replicas each.
SHARDS = 2
MEMBERS = 3


async def serve(args: argparse.Namespace, tracer) -> None:
    from repro.serve import MultiProcServeServer, ServeServer

    if args.procs > 1:
        server = MultiProcServeServer(
            shards=SHARDS, members_per_shard=MEMBERS, procs=args.procs,
        )
    else:
        server = ServeServer(shards=SHARDS, members_per_shard=MEMBERS)
    await server.start()
    workers = (
        [worker.process.pid for worker in server.workers]
        if args.procs > 1 else []
    )
    print(json.dumps({"port": server.port, "workers": workers}), flush=True)
    serving = asyncio.ensure_future(server.serve_forever())
    loop = asyncio.get_running_loop()
    command = (await loop.run_in_executor(None, sys.stdin.readline)).strip()
    audit = command == "stop"
    began = time.perf_counter()
    await server.shutdown(heal=audit)
    drained = time.perf_counter()
    serving.cancel()
    try:
        await serving
    except asyncio.CancelledError:
        pass
    violations = []
    if audit:
        if args.procs > 1:
            violations = list(server.heal_violations)
            violations += server.session_guarantee_violations()
        else:
            violations = [str(v) for v in server.check_invariants()]
    audited = time.perf_counter()
    if tracer is not None:
        tracer.dump()
    print(json.dumps({
        "audited": audit, "violations": len(violations),
        "first": violations[:5],
        "drain_heal_s": round(drained - began, 4),
        "audit_s": round(audited - drained, 4),
    }), flush=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--procs", type=int, default=1)
    parser.add_argument("--trace-dir", default=None)
    args = parser.parse_args()
    tracer = None
    if args.trace_dir is not None:
        import spans

        os.environ[spans.TRACE_DIR_ENV] = args.trace_dir
        role = "frontend" if args.procs > 1 else "server"
        tracer = spans.install(args.trace_dir, role)
        if args.procs > 1:
            from repro.serve import procs

            procs._worker_main = spans.traced_worker_main
    asyncio.run(serve(args, tracer))
    return 0


if __name__ == "__main__":
    sys.exit(main())
