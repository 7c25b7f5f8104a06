"""Instruction set of the tracing virtual machine.

The VM is this reproduction's stand-in for Valgrind: a small register
machine whose interpreter observes *every* memory access at cell
granularity, every routine call and return, every kernel-mediated I/O
transfer, and charges cost in basic blocks — the exact event vocabulary
the profiling algorithms consume.

Programs are written in a tiny assembly language (see
:mod:`repro.vm.assembler`).  The machine has 16 general-purpose
registers ``r0`` … ``r15`` (``r0``–``r3`` double as argument/return
registers by calling convention), a word-addressed sparse memory, and a
VM-internal call stack (return addresses never live in guest memory, so
the profiler sees only the program's own data traffic).

Instruction reference (operand kinds: R register, I immediate,
N name — function / device / lock / semaphore, L label):

====================  =========================================================
``const  R, I``       load immediate
``mov    R, R``       copy register
``add/sub/mul  R,R,R``  arithmetic (three-register)
``div/mod R,R,R``     integer division / modulo (division by zero traps)
``addi/muli R,R,I``   arithmetic with immediate
``load   R, R, I``    ``rd = M[rs + off]``        (emits a read event)
``store  R, I, R``    ``M[rs + off] = rt``        (emits a write event)
``alloci R, I``       bump-allocate I fresh cells, base address into R
``alloc  R, R``       bump-allocate rs cells
``free   R``          release the allocation whose base is in R (a hint
                      for memory-state tools; the machine itself, like
                      hardware, keeps the cells readable)
``jmp    L``          unconditional branch
``beq/bne/blt/bge/ble/bgt R, R, L``  conditional branches
``call   N``          activate function N          (emits a call event)
``ret``               return from current function (emits a return event)
``halt``              terminate the current thread
``sysread  R, R, R, N``  fill M[rbuf .. rbuf+rlen-1] from input device N;
                      cells actually filled -> rd (kernelWrite per cell)
``syswrite R, R, N``  drain M[rbuf .. rbuf+rlen-1] to output device N
                      (kernelRead per cell)
``lock   N`` / ``unlock N``    mutex acquire / release
``semup  N`` / ``semdown N``   semaphore V / P
``spawn  R, N, R``    start a new thread running function N with r0 = rarg;
                      its thread id -> rd
``join   R``          block until thread id in rs terminates
``yield``             end the current timeslice voluntarily
``nop``               do nothing
====================  =========================================================
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Tuple

__all__ = ["Ins", "REG", "IMM", "NAME", "LABEL", "SIGNATURES", "NUM_REGISTERS"]

NUM_REGISTERS = 16

# operand kinds
REG = "reg"
IMM = "imm"
NAME = "name"
LABEL = "label"


class Ins(NamedTuple):
    """One decoded instruction: opcode plus up to four operands.

    Register operands are stored as register indices, immediates as
    ints, labels as instruction indices (resolved by the assembler) and
    names (functions, devices, locks, semaphores) as strings.
    """

    op: str
    a: object = None
    b: object = None
    c: object = None
    d: object = None


#: opcode -> operand kind tuple, used by the assembler for validation
SIGNATURES: Dict[str, Tuple[str, ...]] = {
    "const": (REG, IMM),
    "mov": (REG, REG),
    "add": (REG, REG, REG),
    "sub": (REG, REG, REG),
    "mul": (REG, REG, REG),
    "div": (REG, REG, REG),
    "mod": (REG, REG, REG),
    "addi": (REG, REG, IMM),
    "muli": (REG, REG, IMM),
    "load": (REG, REG, IMM),
    "store": (REG, IMM, REG),
    "alloc": (REG, REG),
    "alloci": (REG, IMM),
    "free": (REG,),
    "jmp": (LABEL,),
    "beq": (REG, REG, LABEL),
    "bne": (REG, REG, LABEL),
    "blt": (REG, REG, LABEL),
    "bge": (REG, REG, LABEL),
    "ble": (REG, REG, LABEL),
    "bgt": (REG, REG, LABEL),
    "call": (NAME,),
    "ret": (),
    "halt": (),
    "sysread": (REG, REG, REG, NAME),
    "syswrite": (REG, REG, NAME),
    "lock": (NAME,),
    "unlock": (NAME,),
    "semup": (NAME,),
    "semdown": (NAME,),
    "spawn": (REG, NAME, REG),
    "join": (REG,),
    "yield": (),
    "nop": (),
}

#: opcodes that end a basic block (the next instruction, and every branch
#: target, is a block leader)
BLOCK_TERMINATORS = frozenset(
    ["jmp", "beq", "bne", "blt", "bge", "ble", "bgt", "call", "ret", "halt",
     "sysread", "syswrite", "lock", "unlock", "semup", "semdown", "spawn",
     "join", "yield"]
)

#: opcodes that may block: the machine checks them before charging any
#: cost and retries them when the thread is rescheduled
BLOCKING = frozenset(["lock", "semdown", "join"])
