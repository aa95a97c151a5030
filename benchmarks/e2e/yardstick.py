"""A fixed piece of work, timed all through a repeat, to read the host's speed.

The reference host is a two-core slice of a shared machine whose cores step
between three speeds (1 : 1.4 : 1.7 in time per unit of work) every few
hundred milliseconds to tens of seconds, each core on its own.  CPU time
stretches with wall time, so no clock of the guest sees through it, and no
summary of the repeats of a 15 s run does either when the whole run sits in
one state.  What does: a *yardstick*, a chunk of work that never changes, run
every ~25 ms from inside the measured loop.  Its duration says how fast the
host is at that moment, and the time between two ticks is converted to
**reference seconds**, the time the same work would have taken on a host that
runs the chunk in :data:`REFERENCE_CHUNK_S` (the reference host undisturbed).

The chunk mixes the kinds of work the program does: integer arithmetic,
SHA-256 and HMAC over short messages, object allocation with dictionary
traffic, and small socket writes and reads, at about 45 / 35 / 10 / 10 % of its
time.  The slow states do not cost every kind of work the same, and over 700
repeats of ``aio-lion-closed`` no single kind followed the workload as well as
that mix (arithmetic or hashing alone to 4-5 %, allocation alone to 14-18 %).
The chunk takes about 1 ms, 4 % of the time it samples, and costs every commit
the same.

This file imports nothing from the program, so no change to ``src/`` can move
the yardstick.
"""

from __future__ import annotations

import hashlib
import hmac
import os
import socket
import struct
import time
from typing import Callable, List, Optional, Sequence, Tuple

#: Seconds one chunk takes on the reference host in its undisturbed state.
REFERENCE_CHUNK_S = 0.00100
#: Wall seconds between two ticks inside a measured loop.
TICK_INTERVAL_S = 0.025

_KEY = b"k" * 32
_PAYLOAD = b"x" * 200
_sockets: Optional[Tuple[int, socket.socket, socket.socket]] = None


def _socketpair() -> Tuple[socket.socket, socket.socket]:
    """This process's own pair: one inherited over ``fork`` would be shared,
    and a sibling's ``recv`` would take the bytes this process waits for."""
    global _sockets
    if _sockets is None or _sockets[0] != os.getpid():
        _sockets = (os.getpid(), *socket.socketpair())
    return _sockets[1], _sockets[2]


class _Record:
    __slots__ = ("number", "text", "pair")

    def __init__(self, number: int) -> None:
        self.number = number
        self.text = str(number)
        self.pair = (number, number + 1)


def chunk() -> float:
    """Do the fixed work once; returns how long it took."""
    near, far = _socketpair()
    started = time.perf_counter()
    total = 0
    for number in range(7000):
        total += number * number % 7
    for number in range(120):
        message = struct.pack(">QI", number, total & 0xFFFF) + _PAYLOAD
        hmac.new(_KEY, hashlib.sha256(message).digest(), "sha256").digest()
    records = [_Record(number) for number in range(120)]
    by_text = {record.text: record for record in records}
    for text in by_text:
        total += by_text[text].pair[1]
    for _ in range(60):
        near.send(_PAYLOAD)
        far.recv(4096)
    return time.perf_counter() - started


def speed_now(*durations: float) -> float:
    """Host speed from a few chunk durations taken around something short."""
    return REFERENCE_CHUNK_S * len(durations) / sum(durations)


class Yardstick:
    """The ticks of one repeat: ``(when, chunk duration)`` pairs on ``clock``."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.ticks: List[Tuple[float, float]] = []

    def tick(self) -> None:
        when = self.clock()
        self.ticks.append((when, chunk()))

    def poll(self) -> None:
        """Tick if the last one is :data:`TICK_INTERVAL_S` old (call this often)."""
        if not self.ticks or self.clock() - self.ticks[-1][0] >= TICK_INTERVAL_S:
            self.tick()


def speed_over(ticks: Sequence[Tuple[float, float]], start: float, end: float) -> float:
    """Reference seconds per wall second over ``[start, end]`` (1.0 = the reference host).

    Every tick speaks for the time nearer to it than to any other tick.
    """
    if not ticks or end <= start:
        return 1.0
    mids = [tick[0] + tick[1] / 2 for tick in ticks]
    reference_s = 0.0
    for index, (_, duration) in enumerate(ticks):
        left = start if index == 0 else (mids[index - 1] + mids[index]) / 2
        right = end if index == len(mids) - 1 else (mids[index] + mids[index + 1]) / 2
        covered = min(right, end) - max(left, start)
        if covered > 0:
            reference_s += covered * REFERENCE_CHUNK_S / duration
    return reference_s / (end - start)
