"""The benchmark's own model of what every reply must contain.

The load generator records each session's operations in issue order:
the puts it sent (with the value it chose), and what every ``get`` and
barrier ``read`` returned.  :func:`check` then tests properties that any
causally consistent, last-writer-wins history must have (in the spirit
of *On Verifying Causal Consistency*, arXiv:1611.00580).  It knows
nothing of the program's labels or graphs: only keys, values and the
order in which each session issued its operations.

* A key is *private* to the one session that writes it.  Every read of
  a private key by its owner must return exactly the owner's last put to
  that key issued before the read.  A newer value is a **future read**;
  an older value, or none at all, is a **stale read**.
* Every observed value must have been written by some put to that key;
  otherwise it came **from thin air**.
* Per reader, key and writer, the writer's sequence numbers observed
  never go backwards (**writer regress**): once a session has seen a
  writer's n-th write of a key, causal order forbids showing it an
  earlier write of that writer to the same key.
* A final barrier read from a fresh session must show, for every
  private key, its owner's last put, and for every other key, the last
  put of one of its writers; anything else is a **lost put**.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

PUT = "put"
GET = "get"
READ = "read"

FUTURE_READ = "future-read"
STALE_READ = "stale-read"
THIN_AIR = "thin-air"
WRITER_REGRESS = "writer-regress"
LOST_PUT = "lost-put"


@dataclass(slots=True)
class Op:
    """One operation of one session, as the generator issued it."""

    kind: str
    key: Optional[str] = None
    #: The value a put wrote; what a get returned; a read's key -> value map.
    value: object = None
    #: False until the reply arrived; failed ops are never checked.
    done: bool = False
    failed: bool = False


@dataclass
class Anomaly:
    kind: str
    session: str
    position: int
    key: str
    detail: str

    def __str__(self) -> str:
        return (
            f"{self.kind}: session {self.session} op {self.position} "
            f"key {self.key}: {self.detail}"
        )


@dataclass
class History:
    """Per-session operation logs plus who owns which private keys."""

    sessions: Dict[str, List[Op]] = field(default_factory=dict)
    owner: Dict[str, str] = field(default_factory=dict)

    def session(self, name: str) -> List[Op]:
        return self.sessions.setdefault(name, [])

    def own(self, session: str, keys: Iterable[str]) -> None:
        for key in keys:
            self.owner[key] = session

    def issue(self, session: str, kind: str, key: Optional[str] = None,
              value: object = None) -> Op:
        op = Op(kind, key, value)
        self.session(session).append(op)
        return op


def _writes(history: History) -> Dict[object, Tuple[str, int, str]]:
    """value -> (writer, writer's put sequence number, key), for every put.

    Failed puts count: a put whose reply was lost may still have applied,
    so its value is never "thin air".  Values must be unique per put,
    which the generator guarantees by embedding writer and sequence.
    """
    writes: Dict[object, Tuple[str, int, str]] = {}
    for name, ops in history.sessions.items():
        seq = 0
        for op in ops:
            if op.kind == PUT:
                writes[op.value] = (name, seq, op.key)
                seq += 1
    return writes


def check(history: History, final: Optional[Dict[str, object]] = None
          ) -> List[Anomaly]:
    """Every anomaly in ``history`` (and in a final fresh-session read)."""
    writes = _writes(history)
    anomalies: List[Anomaly] = []
    for name, ops in history.sessions.items():
        # Own private key -> (value, seq) of this session's last put;
        # keys with a failed put are uncertain and skip the exact check.
        last: Dict[str, Tuple[object, int]] = {}
        uncertain = set()
        seen: Dict[Tuple[str, str], int] = {}
        seq = 0
        for position, op in enumerate(ops):
            if op.kind == PUT:
                if history.owner.get(op.key) == name:
                    last[op.key] = (op.value, seq)
                    if op.failed:
                        uncertain.add(op.key)
                seq += 1
                continue
            if not op.done or op.failed:
                continue
            if op.kind == GET:
                observed = {op.key: op.value}
            else:
                observed = dict(op.value)
                for key in last:
                    observed.setdefault(key, None)
            for key, value in observed.items():
                anomaly = _check_one(
                    name, position, key, value, history.owner.get(key),
                    last.get(key), key in uncertain, writes, seen,
                )
                if anomaly is not None:
                    anomalies.append(anomaly)
    if final is not None:
        anomalies.extend(_check_final(history, final, writes))
    return anomalies


def _check_one(name, position, key, value, owner, expected, uncertain,
               writes, seen) -> Optional[Anomaly]:
    if value is None:
        if owner == name and expected is not None and not uncertain:
            return Anomaly(STALE_READ, name, position, key,
                           f"no value, expected {expected[0]!r}")
        return None
    write = writes.get(value)
    if write is None or write[2] != key:
        return Anomaly(THIN_AIR, name, position, key,
                       f"{value!r} was never put to this key")
    writer, seq, _key = write
    if owner == name and not uncertain:
        if expected is None or seq > expected[1]:
            return Anomaly(FUTURE_READ, name, position, key,
                           f"{value!r} was put after this op")
        if seq < expected[1]:
            return Anomaly(STALE_READ, name, position, key,
                           f"{value!r}, expected {expected[0]!r}")
    previous = seen.get((key, writer))
    if previous is not None and seq < previous:
        return Anomaly(WRITER_REGRESS, name, position, key,
                       f"{writer}'s put #{seq} after its put #{previous}")
    seen[(key, writer)] = seq if previous is None else max(previous, seq)
    return None


def _check_final(history: History, final: Dict[str, object],
                 writes) -> List[Anomaly]:
    """A fresh session's barrier read against every writer's last puts."""
    last_by_writer: Dict[str, Dict[str, object]] = {}
    for name, ops in history.sessions.items():
        for op in ops:
            if op.kind == PUT and not op.failed:
                last_by_writer.setdefault(op.key, {})[name] = op.value
    anomalies: List[Anomaly] = []
    for key, lasts in sorted(last_by_writer.items()):
        value = final.get(key)
        owner = history.owner.get(key)
        allowed = {lasts[owner]} if owner in lasts else set(lasts.values())
        if value not in allowed:
            anomalies.append(Anomaly(
                LOST_PUT, "final", -1, key,
                f"final value {value!r}, expected one of "
                f"{sorted(map(repr, allowed))}",
            ))
    for key, value in final.items():
        if key not in last_by_writer and value is not None:
            write = writes.get(value)
            if write is None or write[2] != key:
                anomalies.append(Anomaly(
                    THIN_AIR, "final", -1, key,
                    f"{value!r} was never put to this key",
                ))
    return anomalies
