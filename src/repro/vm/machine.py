"""The tracing virtual machine: interpreter, threads, fair scheduler.

Execution model (deliberately the one the paper's tool runs under):

* **Serialized threads.**  Valgrind serializes guest threads and
  schedules them fairly; the VM does the same with a round-robin
  scheduler handing out timeslices measured in basic blocks.  A
  ``THREAD_SWITCH`` event reaches the analysis tools at every handover.
* **Full observation.**  Every ``load``/``store`` emits a read/write
  event, every ``call``/``ret`` a call/return event, every syscall one
  ``kernelRead``/``kernelWrite`` event per transferred cell, and one
  cost unit is charged per basic block entered.
* **Native mode.**  With ``tools=None`` the machine skips all event
  emission — the baseline the overhead experiments (Table 1) divide by.
* **Decoded once, counted per slice.**  The machine runs each
  function's :attr:`~repro.vm.assembler.Function.code`, decoded once by
  the assembler into one ``(ins, leader, blocking)`` tuple per pc, so no
  instruction is re-examined for block leaders or blocking opcodes.  A
  timeslice counts its blocks and instructions in locals and writes
  them back to the thread and :class:`RunStats` once, when the slice
  ends — also when a guest fault or the step limit ends it.

Blocking primitives (``lock``, ``semdown``, ``join``) retry their
instruction when the thread is rescheduled, so their analysis events are
emitted in the acquiring thread's context, in program order.
"""

from __future__ import annotations

import sys
from typing import Dict, List, Optional

from ..core.costmodel import BasicBlockCost, CostModel
from ..core.events import TraceConsumer
from .assembler import Function, Program
from .isa import Ins
from .syscalls import DeviceError, InputDevice, OutputDevice

__all__ = ["VMError", "DeadlockError", "Machine", "RunStats"]


class VMError(RuntimeError):
    """Raised on guest faults: division by zero, bad devices, step limits."""


class DeadlockError(VMError):
    """Raised when every live thread is blocked."""


class _Frame:
    __slots__ = ("function", "pc")

    def __init__(self, function: Function):
        self.function = function
        self.pc = 0


_RUNNABLE, _BLOCKED, _DONE = "runnable", "blocked", "done"


class _ThreadContext:
    __slots__ = ("tid", "regs", "frames", "status", "block_reason", "entry",
                 "entry_pending", "blocks", "instructions")

    def __init__(self, tid: int, entry: Function, arg: int = 0):
        self.tid = tid
        self.regs = [0] * 16
        self.regs[0] = arg
        self.frames: List[_Frame] = [_Frame(entry)]
        self.status = _RUNNABLE
        self.block_reason: Optional[str] = None
        self.entry = entry
        self.entry_pending = True
        self.blocks = 0
        self.instructions = 0


class RunStats:
    """Execution statistics returned by :meth:`Machine.run`.

    The block and instruction counters are brought up to date at the end
    of every timeslice, not per instruction (see ``Machine._run_slice``).
    """

    def __init__(self) -> None:
        self.total_blocks = 0
        self.total_instructions = 0
        self.thread_switches = 0
        self.blocks_by_thread: Dict[int, int] = {}
        self.instructions_by_thread: Dict[int, int] = {}
        self.threads_spawned = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RunStats(blocks={self.total_blocks}, "
            f"instructions={self.total_instructions}, "
            f"switches={self.thread_switches})"
        )


class Machine:
    """Interpreter for assembled programs.

    Args:
        program: the :class:`~repro.vm.assembler.Program` to execute.
        tools: a :class:`~repro.core.events.TraceConsumer` (often an
            :class:`~repro.core.events.EventBus`) receiving the trace, or
            None for native (uninstrumented) execution.
        devices: name → :class:`InputDevice` / :class:`OutputDevice`.
        timeslice: basic blocks per scheduling quantum (the fairness
            knob; Valgrind's fair scheduler plays the same role).
        max_steps: optional cap on executed instructions (runaway guard).
        cost_model: what to charge per block/instruction (default: the
            paper's basic-block metric, one unit per block entered).
    """

    def __init__(
        self,
        program: Program,
        tools: Optional[TraceConsumer] = None,
        devices: Optional[Dict[str, object]] = None,
        timeslice: int = 50,
        max_steps: Optional[int] = None,
        cost_model: Optional[CostModel] = None,
    ):
        if timeslice <= 0:
            raise ValueError("timeslice must be positive")
        self.program = program
        self.tools = tools
        self.devices = dict(devices or {})
        self.timeslice = timeslice
        self.max_steps = max_steps
        self.cost_model = cost_model or BasicBlockCost()
        self._block_units = self.cost_model.block()
        self._instruction_units = self.cost_model.instruction()
        self.memory: Dict[int, int] = {}
        self.locks: Dict[str, Optional[int]] = {}
        self.semaphores: Dict[str, int] = {}
        self.threads: Dict[int, _ThreadContext] = {}
        self.stats = RunStats()
        self._next_tid = 1
        self._alloc_ptr = 1 << 20
        self._finished = False
        #: a thread was spawned or finished since ``run`` last built its
        #: round-robin order
        self._roster_changed = False

    # -- public helpers ---------------------------------------------------------

    def memory_block(self, base: int, length: int) -> List[int]:
        """Read ``length`` words starting at ``base`` (no trace events)."""
        return [self.memory.get(base + index, 0) for index in range(length)]

    def poke(self, base: int, values) -> None:
        """Preload guest memory (no trace events) — test/workload setup."""
        for index, value in enumerate(values):
            self.memory[base + index] = value

    # -- execution ---------------------------------------------------------------

    def run(self) -> RunStats:
        """Execute the program to completion and return statistics."""
        if self._finished:
            raise VMError("machine already ran; create a fresh Machine")
        self._finished = True
        main = self._create_thread(self.program.function(self.program.entry), arg=0)
        tools = self.tools
        if tools is not None:
            tools.on_start()

        threads = self.threads
        order: List[int] = []
        cursor = 0
        current: Optional[int] = None
        while True:
            # the round-robin order changes only when a thread is spawned
            # or finishes; rebuilding it at any other time gives it back
            if self._roster_changed:
                self._roster_changed = False
                order = [tid for tid in order if threads[tid].status != _DONE]
                order += [
                    tid for tid in sorted(threads)
                    if tid not in order and threads[tid].status != _DONE
                ]
            if not order:
                break
            if cursor >= len(order):
                cursor = 0
            # advance round-robin to the next runnable thread
            for _ in range(len(order)):
                tid = order[cursor % len(order)]
                cursor += 1
                if threads[tid].status == _RUNNABLE:
                    break
            else:
                blocked = {tid: threads[tid].block_reason for tid in order}
                raise DeadlockError(f"all live threads are blocked: {blocked}")
            context = threads[tid]
            if tid != current:
                current = tid
                self.stats.thread_switches += 1
                if tools is not None:
                    tools.on_thread_switch(tid)
            self._run_slice(context)

        if tools is not None:
            tools.on_finish()
        return self.stats

    def _create_thread(self, entry: Function, arg: int) -> _ThreadContext:
        context = _ThreadContext(self._next_tid, entry, arg)
        self._next_tid += 1
        self.threads[context.tid] = context
        self.stats.threads_spawned += 1
        self.stats.blocks_by_thread[context.tid] = 0
        self.stats.instructions_by_thread[context.tid] = 0
        self._roster_changed = True
        return context

    def _run_slice(self, context: _ThreadContext) -> None:
        """Run ``context`` for up to ``timeslice`` basic blocks.

        The block and instruction counts and the ``max_steps`` budget
        live in locals; the thread's and :class:`RunStats`' counters are
        written back once, when the slice ends, also on a guest fault or
        the step limit, so they read the same as if counted one by one.
        """
        tools = self.tools
        tid = context.tid
        if context.entry_pending:
            context.entry_pending = False
            if tools is not None:
                tools.on_call(tid, context.entry.name)
        block_units = self._block_units
        instruction_units = self._instruction_units
        on_cost = tools.on_cost if tools is not None else None
        block_cost = on_cost if block_units else None
        instruction_cost = on_cost if instruction_units else None
        stats = self.stats
        max_steps = self.max_steps
        # instructions this slice may run before the step limit trips
        steps_left = (sys.maxsize if max_steps is None
                      else max_steps - stats.total_instructions)
        timeslice = self.timeslice
        frames = context.frames
        execute = self._execute
        blocks = instructions = 0
        try:
            while blocks < timeslice and context.status == _RUNNABLE:
                frame = frames[-1]
                ins, leader, blocking = frame.function.code[frame.pc]
                if ins is None:  # ran off the end: implicit return
                    self._do_return(context)
                    continue
                # blocking instructions are checked before any cost is
                # charged, so a blocked retry never inflates the block count
                if blocking and self._would_block(context, ins):
                    context.status = _BLOCKED
                    context.block_reason = f"{ins.op} {ins.a!r}"
                    return
                if leader:
                    blocks += 1
                    if block_cost is not None:
                        block_cost(tid, block_units)
                instructions += 1
                if instruction_cost is not None:
                    instruction_cost(tid, instruction_units)
                if instructions > steps_left:
                    raise VMError(f"instruction limit exceeded ({max_steps})")
                if execute(context, frame, ins):  # "yield"
                    return
        finally:
            context.blocks += blocks
            context.instructions += instructions
            stats.total_blocks += blocks
            stats.total_instructions += instructions
            stats.blocks_by_thread[tid] += blocks
            stats.instructions_by_thread[tid] += instructions

    # -- blocking checks -----------------------------------------------------------

    def _would_block(self, context: _ThreadContext, ins: Ins) -> bool:
        if ins.op == "lock":
            owner = self.locks.get(ins.a)
            if owner == context.tid:
                raise VMError(f"thread {context.tid} re-locking {ins.a!r}")
            return owner is not None
        if ins.op == "semdown":
            return self.semaphores.get(ins.a, 0) <= 0
        if ins.op == "join":
            target = context.regs[ins.a]
            if target not in self.threads:
                raise VMError(f"join on unknown thread id {target}")
            return self.threads[target].status != _DONE
        return False

    def _wake(self, predicate) -> None:
        for other in self.threads.values():
            if other.status == _BLOCKED and predicate(other):
                other.status = _RUNNABLE
                other.block_reason = None

    # -- instruction execution --------------------------------------------------------

    def _execute(self, context: _ThreadContext, frame: _Frame, ins: Ins) -> Optional[str]:
        op = ins.op
        regs = context.regs
        tools = self.tools
        tid = context.tid
        pc_next = frame.pc + 1

        if op == "load":
            addr = regs[ins.b] + ins.c
            regs[ins.a] = self.memory.get(addr, 0)
            if tools is not None:
                tools.on_read(tid, addr)
        elif op == "store":
            addr = regs[ins.a] + ins.b
            self.memory[addr] = regs[ins.c]
            if tools is not None:
                tools.on_write(tid, addr)
        elif op == "const":
            regs[ins.a] = ins.b
        elif op == "mov":
            regs[ins.a] = regs[ins.b]
        elif op == "add":
            regs[ins.a] = regs[ins.b] + regs[ins.c]
        elif op == "sub":
            regs[ins.a] = regs[ins.b] - regs[ins.c]
        elif op == "mul":
            regs[ins.a] = regs[ins.b] * regs[ins.c]
        elif op == "div":
            if regs[ins.c] == 0:
                raise VMError("division by zero")
            regs[ins.a] = regs[ins.b] // regs[ins.c]
        elif op == "mod":
            if regs[ins.c] == 0:
                raise VMError("modulo by zero")
            regs[ins.a] = regs[ins.b] % regs[ins.c]
        elif op == "addi":
            regs[ins.a] = regs[ins.b] + ins.c
        elif op == "muli":
            regs[ins.a] = regs[ins.b] * ins.c
        elif op == "alloci":
            regs[ins.a] = self._alloc(ins.b)
            if tools is not None:
                tools.on_alloc(tid, regs[ins.a], ins.b)
        elif op == "alloc":
            size = regs[ins.b]
            regs[ins.a] = self._alloc(size)
            if tools is not None:
                tools.on_alloc(tid, regs[ins.a], size)
        elif op == "free":
            # a hint for the tools; the machine, like hardware, does not
            # invalidate the cells (libc-level misuse is what memcheck
            # exists to catch)
            if tools is not None:
                tools.on_free(tid, regs[ins.a])
        elif op == "jmp":
            pc_next = ins.a
        elif op == "beq":
            if regs[ins.a] == regs[ins.b]:
                pc_next = ins.c
        elif op == "bne":
            if regs[ins.a] != regs[ins.b]:
                pc_next = ins.c
        elif op == "blt":
            if regs[ins.a] < regs[ins.b]:
                pc_next = ins.c
        elif op == "bge":
            if regs[ins.a] >= regs[ins.b]:
                pc_next = ins.c
        elif op == "ble":
            if regs[ins.a] <= regs[ins.b]:
                pc_next = ins.c
        elif op == "bgt":
            if regs[ins.a] > regs[ins.b]:
                pc_next = ins.c
        elif op == "call":
            callee = self.program.function(ins.a)
            frame.pc = pc_next
            context.frames.append(_Frame(callee))
            if tools is not None:
                tools.on_call(tid, callee.name)
            return None
        elif op == "ret":
            self._do_return(context)
            return None
        elif op == "halt":
            self._terminate(context)
            return None
        elif op == "sysread":
            self._sysread(context, ins)
        elif op == "syswrite":
            self._syswrite(context, ins)
        elif op == "lock":
            self.locks[ins.a] = tid
            if tools is not None:
                tools.on_lock_acquire(tid, ins.a)
        elif op == "unlock":
            if self.locks.get(ins.a) != tid:
                raise VMError(f"thread {tid} unlocking {ins.a!r} it does not hold")
            self.locks[ins.a] = None
            if tools is not None:
                tools.on_lock_release(tid, ins.a)
            self._wake(lambda other: other.block_reason == f"lock {ins.a!r}")
        elif op == "semup":
            self.semaphores[ins.a] = self.semaphores.get(ins.a, 0) + 1
            if tools is not None:
                # a semaphore release orders memory like a lock release
                tools.on_lock_release(tid, f"sem:{ins.a}")
            self._wake(lambda other: other.block_reason == f"semdown {ins.a!r}")
        elif op == "semdown":
            self.semaphores[ins.a] -= 1
            if tools is not None:
                tools.on_lock_acquire(tid, f"sem:{ins.a}")
        elif op == "spawn":
            child = self._create_thread(self.program.function(ins.b), arg=regs[ins.c])
            regs[ins.a] = child.tid
            if tools is not None:
                tools.on_thread_create(tid, child.tid)
        elif op == "join":
            target = regs[ins.a]
            if tools is not None:
                tools.on_thread_join(tid, target)
        elif op == "yield":
            frame.pc = pc_next
            return "yield"
        elif op == "nop":
            pass
        else:  # pragma: no cover - the assembler rejects unknown opcodes
            raise VMError(f"unknown opcode {op!r}")

        frame.pc = pc_next
        return None

    def _alloc(self, size: int) -> int:
        if size < 0:
            raise VMError(f"negative allocation size {size}")
        base = self._alloc_ptr
        self._alloc_ptr += size
        return base

    def _do_return(self, context: _ThreadContext) -> None:
        context.frames.pop()
        if self.tools is not None:
            self.tools.on_return(context.tid)
        if not context.frames:
            self._finish_thread(context)

    def _terminate(self, context: _ThreadContext) -> None:
        while context.frames:
            context.frames.pop()
            if self.tools is not None:
                self.tools.on_return(context.tid)
        self._finish_thread(context)

    def _finish_thread(self, context: _ThreadContext) -> None:
        context.status = _DONE
        self._roster_changed = True
        # Waking every join waiter is safe: a woken thread re-executes its
        # join and re-blocks if its target is still alive.
        self._wake(lambda other: (other.block_reason or "").startswith("join"))

    def _sysread(self, context: _ThreadContext, ins: Ins) -> None:
        device = self.devices.get(ins.d)
        if not isinstance(device, InputDevice):
            raise DeviceError(f"no input device named {ins.d!r}")
        base = context.regs[ins.b]
        length = context.regs[ins.c]
        words = device.read(length)
        tools = self.tools
        for offset, word in enumerate(words):
            self.memory[base + offset] = word
            if tools is not None:
                tools.on_kernel_write(context.tid, base + offset)
        context.regs[ins.a] = len(words)

    def _syswrite(self, context: _ThreadContext, ins: Ins) -> None:
        device = self.devices.get(ins.c)
        if not isinstance(device, OutputDevice):
            raise DeviceError(f"no output device named {ins.c!r}")
        base = context.regs[ins.a]
        length = context.regs[ins.b]
        tools = self.tools
        words = []
        for offset in range(length):
            addr = base + offset
            words.append(self.memory.get(addr, 0))
            if tools is not None:
                tools.on_kernel_read(context.tid, addr)
        device.write(words)
