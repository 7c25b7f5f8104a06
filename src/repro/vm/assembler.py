"""Assembler: text assembly → executable :class:`Program`.

Grammar (line oriented; ``;`` and ``#`` start comments)::

    func NAME:
        const r1, 100
    loop:
        beq   r1, r0, done
        call  work
        addi  r1, r1, -1
        jmp   loop
    done:
        ret

A program is a set of ``func`` blocks; execution starts at ``main``.
Labels are local to their function.  The assembler resolves labels to
instruction indices, validates operand kinds against the ISA signatures,
and computes *basic-block leaders* (function entry, every label target,
and every instruction following a block terminator) — the machine
charges one cost unit each time control enters a leader, which is the
paper's basic-block performance metric.  Each function is decoded once,
next to its leaders, into the per-pc tuples the machine runs
(:attr:`Function.code`).
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Set, Tuple

from .isa import (
    BLOCK_TERMINATORS, BLOCKING, IMM, LABEL, NAME, NUM_REGISTERS, REG, SIGNATURES, Ins,
)

__all__ = ["AsmError", "Function", "Program", "assemble"]

_REGISTER_RE = re.compile(r"^r(\d+)$")
_INT_RE = re.compile(r"^-?\d+$")
_IDENT_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_.]*$")


class AsmError(ValueError):
    """Raised on any syntactic or semantic assembly error."""

    def __init__(self, message: str, line_no: Optional[int] = None):
        prefix = f"line {line_no}: " if line_no is not None else ""
        super().__init__(prefix + message)
        self.line_no = line_no


#: the decoded entry one past the last instruction: an implicit return
_END = (None, False, False)


class Function:
    """One assembled function: instructions, labels and block leaders.

    ``code`` is the function decoded once for the machine: one
    ``(ins, leader, blocking)`` tuple per pc — the instruction, whether
    control entering it starts a basic block, and whether it may block —
    plus ``(None, False, False)`` at ``len(instructions)``, where a
    thread that runs off the end (or branches to a final label) returns.
    """

    def __init__(self, name: str, instructions: List[Ins], labels: Dict[str, int]):
        self.name = name
        self.instructions = instructions
        self.labels = labels
        self.leaders = self._compute_leaders()
        self.code: List[Tuple[Optional[Ins], bool, bool]] = [
            (ins, index in self.leaders, ins.op in BLOCKING)
            for index, ins in enumerate(instructions)
        ]
        self.code.append(_END)

    def _compute_leaders(self) -> Set[int]:
        leaders: Set[int] = {0} if self.instructions else set()
        for index, ins in enumerate(self.instructions):
            if ins.op in BLOCK_TERMINATORS and index + 1 < len(self.instructions):
                leaders.add(index + 1)
            for operand, kind in zip((ins.a, ins.b, ins.c, ins.d), SIGNATURES[ins.op]):
                if kind == LABEL:
                    leaders.add(operand)
        return leaders

    def __len__(self) -> int:
        return len(self.instructions)


class Program:
    """A set of functions with ``main`` as the entry point."""

    def __init__(self, functions: Dict[str, Function], entry: str = "main"):
        if entry not in functions:
            raise AsmError(f"program has no entry function {entry!r}")
        self.functions = functions
        self.entry = entry

    def function(self, name: str) -> Function:
        try:
            return self.functions[name]
        except KeyError:
            raise AsmError(f"undefined function {name!r}") from None


def _parse_operand(token: str, kind: str, labels_pending: bool, line_no: int):
    token = token.strip()
    if kind == REG:
        match = _REGISTER_RE.match(token)
        if not match:
            raise AsmError(f"expected register, got {token!r}", line_no)
        index = int(match.group(1))
        if index >= NUM_REGISTERS:
            raise AsmError(f"register r{index} out of range", line_no)
        return index
    if kind == IMM:
        if not _INT_RE.match(token):
            raise AsmError(f"expected integer immediate, got {token!r}", line_no)
        return int(token)
    if kind in (NAME, LABEL):
        if not _IDENT_RE.match(token):
            raise AsmError(f"expected identifier, got {token!r}", line_no)
        return token
    raise AsmError(f"unknown operand kind {kind!r}", line_no)


def assemble(text: str, entry: str = "main") -> Program:
    """Assemble ``text`` into a :class:`Program`.

    Raises :class:`AsmError` with a line number on malformed input,
    unknown opcodes, bad operand counts or kinds, duplicate labels or
    functions, undefined labels, and calls to undefined functions.
    """
    functions: Dict[str, Function] = {}
    current_name: Optional[str] = None
    instructions: List[Tuple[int, Ins]] = []
    labels: Dict[str, int] = {}
    called: List[Tuple[str, int]] = []

    def finish_function(line_no: int) -> None:
        nonlocal current_name, instructions, labels
        if current_name is None:
            return
        resolved: List[Ins] = []
        for ins_line, ins in instructions:
            operands = list((ins.a, ins.b, ins.c, ins.d))
            for position, kind in enumerate(SIGNATURES[ins.op]):
                if kind == LABEL:
                    label = operands[position]
                    if label not in labels:
                        raise AsmError(
                            f"undefined label {label!r} in function {current_name!r}",
                            ins_line,
                        )
                    operands[position] = labels[label]
            resolved.append(Ins(ins.op, *operands))
        functions[current_name] = Function(current_name, resolved, dict(labels))
        current_name = None
        instructions = []
        labels = {}

    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split(";")[0].split("#")[0].strip()
        if not line:
            continue
        if line.startswith("func "):
            finish_function(line_no)
            header = line[len("func "):].strip()
            if not header.endswith(":"):
                raise AsmError("func header must end with ':'", line_no)
            name = header[:-1].strip()
            if not _IDENT_RE.match(name):
                raise AsmError(f"bad function name {name!r}", line_no)
            if name in functions:
                raise AsmError(f"duplicate function {name!r}", line_no)
            current_name = name
            continue
        if current_name is None:
            raise AsmError("instruction outside any function", line_no)
        if line.endswith(":") and " " not in line:
            label = line[:-1]
            if not _IDENT_RE.match(label):
                raise AsmError(f"bad label name {label!r}", line_no)
            if label in labels:
                raise AsmError(f"duplicate label {label!r}", line_no)
            labels[label] = len(instructions)
            continue
        parts = line.split(None, 1)
        op = parts[0].lower()
        if op not in SIGNATURES:
            raise AsmError(f"unknown opcode {op!r}", line_no)
        signature = SIGNATURES[op]
        tokens = [t for t in (parts[1].split(",") if len(parts) > 1 else []) if t.strip()]
        if len(tokens) != len(signature):
            raise AsmError(
                f"{op} expects {len(signature)} operand(s), got {len(tokens)}", line_no
            )
        operands = [
            _parse_operand(token, kind, True, line_no)
            for token, kind in zip(tokens, signature)
        ]
        if op == "call":
            called.append((operands[0], line_no))
        if op == "spawn":
            called.append((operands[1], line_no))
        operands += [None] * (4 - len(operands))
        instructions.append((line_no, Ins(op, *operands)))

    finish_function(-1)

    for name, line_no in called:
        if name not in functions:
            raise AsmError(f"call to undefined function {name!r}", line_no)

    return Program(functions, entry=entry)
