"""The benchmark's three traffic mixes, generated from the seed alone.

Each session draws its operations from its own ``random.Random`` seeded
with ``(seed, workload, session)``, so a seed fixes every key, value and
operation kind the server receives.  A session works in whole *rounds*
of ``round_ops`` operations and only stops at a round boundary, so every
run attempts whole rounds of the same mix.

Keys are private to one session (``<session>/k<i>``) or shared
(``shared/k<i>``).  A put writes ``<session>.<n>``, where ``n`` counts
that session's puts, so every value names its writer and is unique.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from model import GET, PUT, READ

#: Pipelined requests each session keeps in flight.
WINDOW = 16

#: (kind, key) — a put's value is chosen by the session runner.
Step = Tuple[str, Optional[str]]


@dataclass(frozen=True)
class Workload:
    name: str
    #: Server processes: 1 runs ServeServer, more runs one shard worker
    #: per process behind MultiProcServeServer's front end.
    procs: int
    codec: str
    round_ops: int

    def private_keys(self, session: str) -> List[str]:
        return [f"{session}/k{i}" for i in range(PRIVATE_KEYS[self.name])]

    def warmup(self, session: str) -> List[Step]:
        """Untimed operations run before the clock starts."""
        if self.name != "replica-reads":
            return []
        return [(PUT, key) for key in self.private_keys(session)] + [(READ, None)]

    def steps(self, seed: int, session: str) -> Iterator[Step]:
        rng = random.Random(f"{seed}:{self.name}:{session}")
        keys = self.private_keys(session)
        if self.name == "write-soak":
            return _write_soak(rng, keys)
        if self.name == "replica-reads":
            return _replica_reads(rng, keys)
        return _pipelined_mixed(rng, keys)


SHARED_KEYS = [f"shared/k{i}" for i in range(16)]

PRIVATE_KEYS = {"write-soak": 48, "replica-reads": 64, "pipelined-mixed": 128}

#: pipelined-mixed gets target one of the last GET_LOOKBACK puts.  The
#: key of a put is rewritten PRIVATE_KEYS puts later, so between a get
#: and the next put to its key lie at least 128 - 80 = 48 puts (72
#: operations), far more than the WINDOW requests a session keeps in
#: flight: no put of a key is ever in flight beside a get of that key.
#: Such a pair is what trips the program's in-cycle get fault (see
#: README.md), and it trips it only when both land in one batch cycle,
#: which varies from run to run; it is reproduced by fault_repro.py.
GET_LOOKBACK = 80

WORKLOADS = {
    workload.name: workload
    for workload in (
        # Why each mix was chosen is in README.md and BENCHMARK.json.
        Workload("write-soak", procs=1, codec="json", round_ops=10),
        Workload("replica-reads", procs=1, codec="json", round_ops=64),
        Workload("pipelined-mixed", procs=2, codec="binary", round_ops=48),
    )
}


def _write_soak(rng: random.Random, keys: List[str]) -> Iterator[Step]:
    # Every 10th op is a barrier read; of the puts, 3/4 go to the
    # session's private keys and 1/4 to the 16 shared keys.
    index = 0
    while True:
        if index % 10 == 9:
            yield READ, None
        elif rng.random() < 0.75:
            yield PUT, rng.choice(keys)
        else:
            yield PUT, rng.choice(SHARED_KEYS)
        index += 1


def _replica_reads(rng: random.Random, keys: List[str]) -> Iterator[Step]:
    while True:
        yield GET, rng.choice(keys)


def _pipelined_mixed(rng: random.Random, keys: List[str]) -> Iterator[Step]:
    order = rng.sample(keys, len(keys))
    puts = 0
    index = 0
    while True:
        if index % 3 == 2:
            back = 1 + rng.randrange(min(puts, GET_LOOKBACK))
            yield GET, order[(puts - back) % len(order)]
        else:
            yield PUT, order[puts % len(order)]
            puts += 1
        index += 1
