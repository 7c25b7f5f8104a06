"""What the slice loop must keep: ``RunStats`` and fault states, pinned.

The machine counts blocks and instructions in locals and writes them
back once per slice.  These values were computed by a machine that
counted every instruction into ``RunStats`` as it ran; a slice loop that
drops a block, reorders a thread, or writes back at the wrong moment on
a fault or the step limit changes one of them.
"""

import hashlib
import io

import pytest

from repro.core import InstructionCost
from repro.farm import BinaryTraceWriter
from repro.vm import Machine, VMError, assemble
from repro.workloads import benchmark


def stats_of(machine):
    stats = machine.stats
    return {
        "total_blocks": stats.total_blocks,
        "total_instructions": stats.total_instructions,
        "thread_switches": stats.thread_switches,
        "threads_spawned": stats.threads_spawned,
        "blocks_by_thread": stats.blocks_by_thread,
        "instructions_by_thread": stats.instructions_by_thread,
    }


def threads_of(machine):
    """Per live thread: (function, pc, status, blocks, instructions)."""
    return {
        tid: (context.frames[-1].function.name, context.frames[-1].pc,
              context.status, context.blocks, context.instructions)
        for tid, context in machine.threads.items() if context.frames
    }


#: ``RunStats`` of the four batch programs, 4 threads, scale 0.5
PINNED_STATS = {
    "350.md": (1049, 3997, 62, 5,
               {1: 61, 2: 233, 3: 247, 4: 261, 5: 247},
               {1: 195, 2: 932, 3: 951, 4: 969, 5: 950}),
    "351.bwaves": (7438, 14769, 340, 5,
                   {1: 193, 2: 1793, 3: 1825, 4: 1825, 5: 1802},
                   {1: 789, 2: 3466, 3: 3520, 4: 3520, 5: 3474}),
    "376.kdtree": (897, 2320, 37, 5,
                   {1: 161, 2: 184, 3: 184, 4: 184, 5: 184},
                   {1: 516, 2: 451, 3: 451, 4: 451, 5: 451}),
    "367.imagick": (602, 2160, 32, 5,
                    {1: 35, 2: 141, 3: 142, 4: 142, 5: 142},
                    {1: 72, 2: 519, 3: 523, 4: 523, 5: 523}),
}
_FIELDS = ("total_blocks", "total_instructions", "thread_switches", "threads_spawned",
           "blocks_by_thread", "instructions_by_thread")


@pytest.mark.parametrize("recorded", [False, True], ids=["native", "recorded"])
@pytest.mark.parametrize("name", sorted(PINNED_STATS))
def test_batch_program_stats_are_pinned(name, recorded):
    writer = BinaryTraceWriter(io.BytesIO()) if recorded else None
    machine = benchmark(name).run(tools=writer, threads=4, scale=0.5)
    assert stats_of(machine) == dict(zip(_FIELDS, PINNED_STATS[name]))
    for tid, context in machine.threads.items():
        assert context.blocks == machine.stats.blocks_by_thread[tid]
        assert context.instructions == machine.stats.instructions_by_thread[tid]


#: the step limit trips mid-run with four workers live: ``RunStats``, each
#: thread's (function, pc, status, blocks, instructions), events recorded
PINNED_LIMITS = {
    ("350.md", 2500): (
        (657, 2501, 35, 5, {1: 49, 2: 144, 3: 136, 4: 155, 5: 173},
         {1: 169, 2: 569, 3: 533, 4: 577, 5: 653}),
        {1: ("main", 15, "blocked", 49, 169),
         2: ("work_region", 22, "runnable", 144, 569),
         3: ("work_region", 23, "runnable", 136, 533),
         4: ("work_region", 21, "runnable", 155, 577),
         5: ("work_region", 21, "runnable", 173, 653)},
        989),
    ("351.bwaves", 9000): (
        (4442, 9001, 193, 5, {1: 181, 2: 1050, 3: 1056, 4: 1076, 5: 1079},
         {1: 763, 2: 2034, 3: 2047, 4: 2077, 5: 2080}),
        {1: ("main", 15, "blocked", 181, 763),
         2: ("work_region", 21, "runnable", 1050, 2034),
         3: ("work_region", 28, "runnable", 1056, 2047),
         4: ("work_region", 21, "runnable", 1076, 2077),
         5: ("work_region", 32, "runnable", 1079, 2080)},
        5610),
}


@pytest.mark.parametrize("recorded", [False, True], ids=["native", "recorded"])
@pytest.mark.parametrize("name, limit", sorted(PINNED_LIMITS))
def test_step_limit_trips_at_the_pinned_instruction(name, limit, recorded):
    stats, threads, events = PINNED_LIMITS[(name, limit)]
    writer = BinaryTraceWriter(io.BytesIO()) if recorded else None
    machine = benchmark(name).scenario(4, 0.5).machine(
        tools=writer, max_steps=limit, timeslice=23)
    with pytest.raises(VMError, match=rf"instruction limit exceeded \({limit}\)"):
        machine.run()
    assert machine.stats.total_instructions == limit + 1
    assert stats_of(machine) == dict(zip(_FIELDS, stats))
    assert threads_of(machine) == threads
    if recorded:
        assert writer.events_written == events


DIVIDE_MID_SLICE = """
func main:
    spawn r10, child, r0
    const r1, 0
    const r2, 40
loop:
    addi r1, r1, 1
    blt r1, r2, loop
    const r3, 0
    div r4, r1, r3
    ret
func child:
    const r1, 0
    const r2, 100
again:
    addi r1, r1, 1
    blt r1, r2, again
    ret
"""


def test_division_by_zero_mid_slice_keeps_the_counts():
    """The faulting ``div`` is counted, as are the instructions of the
    slice before it; the child's last slice is counted too."""
    machine = Machine(assemble(DIVIDE_MID_SLICE), timeslice=5)
    with pytest.raises(VMError, match="division by zero"):
        machine.run()
    assert stats_of(machine) == dict(zip(_FIELDS, (
        83, 164, 17, 2, {1: 43, 2: 40}, {1: 85, 2: 79})))
    assert threads_of(machine) == {1: ("main", 6, "runnable", 43, 85),
                                   2: ("child", 3, "runnable", 40, 79)}


def test_instruction_cost_recording_is_pinned():
    """Per-instruction cost events land where they did, block by block."""
    stream = io.BytesIO()
    writer = BinaryTraceWriter(stream, chunk_events=512)
    machine = benchmark("376.kdtree").scenario(2, 0.5).run(
        tools=writer, cost_model=InstructionCost(), timeslice=23)
    writer.close()
    assert hashlib.sha256(stream.getvalue()).hexdigest() == (
        "2b31357032eedbba846853c4e2b858c5500b4c2f1c9cbd01220b2ebea59c244f")
    assert stats_of(machine) == dict(zip(_FIELDS, (
        872, 2272, 36, 3, {1: 149, 2: 364, 3: 359}, {1: 488, 2: 898, 3: 886})))
