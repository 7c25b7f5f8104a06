"""Seeded pytrace programs shared by the pin and cost-delivery tests.

Every program is deterministic: its data comes from ``random.Random``
with a fixed seed, and its threads take turns through semaphores, so
each run emits the same event stream.  A program takes the active
session and returns the units it passed to ``charge`` per profiling
thread id.
"""

import random
import threading
from collections import Counter

from repro.pytrace import AutoTracer, TraceSession, TracedLock, spawn, traced

SEED = 20120611


@traced
def fill(array, values):
    for index in range(len(values)):
        array[index] = values[index]


@traced
def checksum(array):
    total = 0
    for index in range(len(array)):
        total += array[index]
    return total


@traced
def insertion_sort(array):
    for index in range(1, len(array)):
        key = array[index]
        position = index - 1
        while position >= 0 and array[position] > key:
            array[position + 1] = array[position]
            position -= 1
        array[position + 1] = key


@traced
def walk(array, depth):
    if depth == 0:
        return array[0]
    return array[depth % len(array)] + walk(array, depth - 1)


@traced
def histogram(session, array):
    counts = session.dict()
    for index in range(len(array)):
        bucket = array[index] % 5
        counts[bucket] = counts.get(bucket, 0) + 1
    return counts


@traced
def stack_roundtrip(session, values):
    stack = session.list()
    for value in values:
        stack.append(value)
    total = 0
    while len(stack):
        total += stack.pop()
    return total


def solo(session):
    """One thread: sorting, recursion, a dict and a list."""
    rng = random.Random(SEED)
    for size in (3, 5, 8, 13):
        array = session.array(size)
        fill(array, [rng.randrange(100) for _ in range(size)])
        insertion_sort(array)
        checksum(array)
        walk(array, size // 2)
        counts = histogram(session, array)
        checksum(array)
        stack_roundtrip(session, [counts.get(bucket, 0) for bucket in range(5)])
    return Counter()


def trio(session):
    """Three threads take turns on a shared array and private ones."""
    rng = random.Random(SEED + 1)
    workers = 3
    rounds = 4
    shared = session.array(6)
    fill(shared, [rng.randrange(50) for _ in range(6)])
    lock = TracedLock(session, "shared")
    turns = [threading.Semaphore(0) for _ in range(workers)]
    done = threading.Semaphore(0)
    plans = [[rng.randrange(1, 9) for _ in range(rounds)] for _ in range(workers)]
    privates = [session.array(4) for _ in range(workers)]

    @traced
    def step(worker, private, size):
        fill(private, [size * worker + index for index in range(len(private))])
        with lock:
            for index in range(size % len(shared)):
                shared[index] = shared[index] + private[index % len(private)]
        return checksum(shared)

    def body(worker):
        for round_number in range(rounds):
            turns[worker].acquire()
            step(worker, privates[worker], plans[worker][round_number])
            if worker + 1 < workers:
                turns[worker + 1].release()
            elif round_number + 1 < rounds:
                turns[0].release()
            else:
                done.release()

    threads = [spawn(body, worker, session=session) for worker in range(workers)]
    turns[0].release()
    done.acquire()
    for thread in threads:
        thread.join()
    checksum(shared)
    return Counter()


def charged(session):
    """Explicit ``charge`` calls inside and outside routines."""
    rng = random.Random(SEED + 2)
    ledger = Counter()

    def charge(units):
        session.charge(units)
        if units > 0:
            ledger[session.thread_id()] += units

    @traced
    def compute(array):
        charge(rng.randrange(1, 6))
        total = checksum(array)
        charge(0)
        charge(rng.randrange(1, 6))
        return total

    charge(2)
    for size in (2, 4, 7):
        array = session.array(size)
        fill(array, [rng.randrange(10) for _ in range(size)])
        charge(-3)
        compute(array)
        charge(rng.randrange(0, 4))
    return ledger


def kernel_io(session):
    """Kernel buffer fills read back by routines, and a drain."""
    rng = random.Random(SEED + 3)

    @traced
    def receive(buffer, size):
        session.kernel_fill(buffer, 0, [rng.randrange(256) for _ in range(size)])
        return checksum(buffer)

    @traced
    def send(buffer, size):
        return session.kernel_drain(buffer, 0, size)

    buffer = session.array(8)
    for size in (3, 8, 5):
        receive(buffer, size)
        buffer[0] = size
        send(buffer, size)
    return Counter()


def raising(session):
    """An exception leaves two traced frames; callers catch it."""
    rng = random.Random(SEED + 4)

    @traced
    def fragile(array, limit):
        total = 0
        for index in range(len(array)):
            total += array[index]
            if total > limit:
                raise ValueError(total)
        return total

    @traced
    def guarded(array, limit):
        try:
            return fragile(array, limit)
        except ValueError:
            array[0] = 0
            return -1

    array = session.array(6)
    fill(array, [rng.randrange(1, 20) for _ in range(6)])
    for limit in (5, 100, 30):
        guarded(array, limit)
    try:
        fragile(array, 1)
    except ValueError:
        pass
    checksum(array)
    return Counter()


def _plain_sum(array, count):
    total = 0
    index = 0
    while index < count:
        total += array[index]
        index += 1
    return total


def _plain_scale(array, factor):
    index = 0
    while index < len(array):
        array[index] = array[index] * factor
        index += 1
    return _plain_sum(array, len(array))


def _plain_pyramid(array, depth):
    if depth == 0:
        return _plain_sum(array, 1)
    return _plain_sum(array, depth) + _plain_pyramid(array, depth - 1)


def autotraced(session):
    """Undecorated functions under an ``AutoTracer``."""
    array = session.array(7, fill=3)
    with AutoTracer(session):
        _plain_scale(array, 2)
        _plain_pyramid(array, 5)
        _plain_scale(array, 3)
    checksum(array)
    return Counter()


def make_nested(inner_tools, inner_op_cost=1, inner_call_cost=1):
    """A program that opens a second session inside the first.

    Routines called inside the inner block go to the inner session;
    accesses to the outer session's arrays still go to the outer one.
    """

    def nested(session):
        rng = random.Random(SEED + 5)
        outer = session.array(5)
        fill(outer, [rng.randrange(30) for _ in range(5)])
        inner = TraceSession(tools=inner_tools, op_cost=inner_op_cost,
                             call_cost=inner_call_cost)
        with inner:
            local = inner.array(4)
            fill(local, [rng.randrange(30) for _ in range(4)])
            insertion_sort(local)
            checksum(outer)
            walk(outer, 3)
            outer[2] = checksum(local)
        insertion_sort(outer)
        checksum(outer)
        return Counter()

    return nested


PROGRAMS = {
    "solo": solo,
    "trio": trio,
    "charged": charged,
    "kernel": kernel_io,
    "raising": raising,
    "auto": autotraced,
}
