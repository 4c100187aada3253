"""Reproduce the in-cycle get fault: a get that sees its session's future.

A session writes three pipelined requests in one TCP write::

    put k = <n>a,  get k,  put k = <n>b

Causally, the get must return ``<n>a``: the second put was issued after
it.  When all three land in one server batch cycle, the get is answered
after the cycle's drain, and returns ``<n>b``.  Each probe waits for its
three replies before the next one starts.

Usage, from the root of a checkout::

    python3 servebench/fault_repro.py --probes 200

It probes a single-process JSON server and a two-worker binary server
(``procs=2``), prints how many gets returned the future value, and exits
with 1 if any did.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

from run import ServerProcess  # noqa: E402
from workloads import Workload  # noqa: E402


async def probe(procs: int, codec: str, probes: int) -> int:
    workload = Workload("fault-repro", procs=procs, codec=codec, round_ops=3)
    server = ServerProcess(workload)
    try:
        _setup, connection = await server.start("probe")
        loop = asyncio.get_running_loop()
        future_reads = 0
        for index in range(probes):
            key = f"probe/k{index % 8}"
            replies = []
            done = loop.create_future()

            def collect(reply, _sent, _received):
                replies.append(reply)
                if len(replies) == 3:
                    done.set_result(None)

            first = {"t": "put", "key": key, "value": f"{index}a"}
            get = {"t": "get", "key": key}
            second = {"t": "put", "key": key, "value": f"{index}b"}
            connection.send(first, get, second, callback=collect)
            await done
            answer = next(r for r in replies if r.get("rid") == get["rid"])
            if answer.get("value") == f"{index}b":
                future_reads += 1
        await connection.close()
        await server.stop("quit")
    except BaseException:
        await server.kill()
        raise
    return future_reads


async def main(probes: int) -> int:
    total = 0
    for procs, codec in ((1, "json"), (2, "binary")):
        count = await probe(procs, codec, probes)
        total += count
        print(f"procs={procs} codec={codec}: {count} of {probes} gets "
              "returned the value their session put after them")
    return 1 if total else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--probes", type=int, default=200)
    sys.exit(asyncio.run(main(parser.parse_args().probes)))
