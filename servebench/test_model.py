"""The benchmark's model flags every planted anomaly, and nothing else.

Run with ``python3 -m pytest servebench/test_model.py`` from the root of
the repository.  Each test starts from one clean recorded history, in
the shape the load generator records it, plants one anomaly, and
requires :func:`model.check` to report exactly that kind.
"""

from __future__ import annotations

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from model import (  # noqa: E402
    FUTURE_READ,
    GET,
    LOST_PUT,
    PUT,
    READ,
    STALE_READ,
    THIN_AIR,
    WRITER_REGRESS,
    History,
    Op,
    check,
)


def _done(op, value):
    op.value = value
    op.done = True
    return op


def recorded():
    """A clean two-session history plus the final fresh-session read.

    s0 owns ``s0/k0`` and ``s0/k1``, s1 owns ``s1/k0``; both write the
    shared key ``shared/k0``.  Values are ``<writer>.<n>`` as the
    generator writes them.
    """
    history = History()
    history.own("s0", ["s0/k0", "s0/k1"])
    history.own("s1", ["s1/k0"])
    issue = history.issue
    for op in (
        issue("s0", PUT, "s0/k0", "s0.0"),
        issue("s0", PUT, "shared/k0", "s0.1"),
        issue("s1", PUT, "s1/k0", "s1.0"),
        issue("s1", PUT, "shared/k0", "s1.1"),
    ):
        op.done = True
    _done(issue("s0", GET, "s0/k0"), "s0.0")
    _done(issue("s1", READ), {"s0/k0": "s0.0", "shared/k0": "s1.1",
                              "s1/k0": "s1.0"})
    issue("s0", PUT, "s0/k0", "s0.2").done = True
    issue("s0", PUT, "s0/k1", "s0.3").done = True
    _done(issue("s0", READ), {"s0/k0": "s0.2", "s0/k1": "s0.3",
                              "shared/k0": "s0.1"})
    issue("s0", PUT, "shared/k0", "s0.4").done = True
    _done(issue("s1", GET, "shared/k0"), "s0.4")
    _done(issue("s0", GET, "s0/k1"), "s0.3")
    final = {"s0/k0": "s0.2", "s0/k1": "s0.3", "s1/k0": "s1.0",
             "shared/k0": "s0.4"}
    return history, final


def kinds(history, final):
    return sorted({anomaly.kind for anomaly in check(history, final)})


def test_clean_history_has_no_anomaly():
    history, final = recorded()
    assert check(history, final) == []


def test_future_read_is_flagged():
    # s0's first get of s0/k0 returns the value it put only afterwards.
    history, final = recorded()
    history.sessions["s0"][2].value = "s0.2"
    assert kinds(history, final) == [FUTURE_READ]


def test_future_read_in_a_barrier_read_is_flagged():
    # A barrier read issued before s0's second put of s0/k0 shows it.
    history, final = recorded()
    history.sessions["s0"].insert(3, _done(Op(READ), {"s0/k0": "s0.2"}))
    assert kinds(history, final) == [FUTURE_READ]


def test_stale_read_is_flagged():
    # s0 reads s0/k0 back after overwriting it and sees the old value.
    history, final = recorded()
    history.sessions["s0"][5].value["s0/k0"] = "s0.0"
    assert kinds(history, final) == [STALE_READ]


def test_missing_own_write_is_a_stale_read():
    history, final = recorded()
    del history.sessions["s0"][5].value["s0/k1"]
    assert kinds(history, final) == [STALE_READ]


def test_value_from_thin_air_is_flagged():
    history, final = recorded()
    history.sessions["s1"][3].value = "s1.9"
    assert kinds(history, final) == [THIN_AIR]


def test_value_of_another_key_is_thin_air():
    history, final = recorded()
    history.sessions["s1"][2].value["s1/k0"] = "s0.3"
    assert kinds(history, final) == [THIN_AIR]


def test_writer_sequence_going_backwards_is_flagged():
    # s1 saw s0's put #4 of the shared key, then s0's older put #1.
    history, final = recorded()
    _done(history.issue("s1", GET, "shared/k0"), "s0.1")
    assert kinds(history, final) == [WRITER_REGRESS]


def test_lost_private_put_is_flagged():
    history, final = recorded()
    final["s0/k0"] = "s0.0"
    assert kinds(history, final) == [LOST_PUT]


def test_lost_shared_put_is_flagged():
    # s0's last put of the shared key was overwritten by its own older one.
    history, final = recorded()
    final["shared/k0"] = "s0.1"
    assert kinds(history, final) == [LOST_PUT]


def test_vanished_key_is_a_lost_put():
    history, final = recorded()
    del final["s1/k0"]
    assert kinds(history, final) == [LOST_PUT]


def test_concurrent_writers_may_win_a_shared_key():
    # Either writer's last put of a shared key is a legal final value.
    history, final = recorded()
    final["shared/k0"] = "s1.1"
    assert check(history, final) == []


def test_failed_ops_are_not_checked():
    history, final = recorded()
    get = history.sessions["s0"][2]
    get.value = "s0.2"
    get.failed = True
    assert check(history, final) == []


@pytest.mark.parametrize("kind", [GET, READ])
def test_unanswered_ops_are_not_checked(kind):
    history, final = recorded()
    history.issue("s0", kind, "s0/k0" if kind == GET else None)
    assert check(history, final) == []
