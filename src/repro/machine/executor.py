"""Functional MIPS-I simulator with branch delay slots.

The :class:`Machine` interprets a program directly, recording the dynamic
instruction-address trace.  This is the reproduction's stand-in for running
real DECstation binaries under ``pixie``.

Instruction semantics have exactly one definition: the Python source
emitter (:func:`_emit_instruction` and :func:`_emit_terminator`).  Both
engines run the code it generates.  The reference engine steps one
generated function per instruction; the default superop engine fuses
each basic block, or a whole loop, into one generated function.

Architectural conventions:

* 32 general-purpose registers (``$zero`` hard-wired), HI/LO, 32 FP
  registers holding raw 32-bit patterns (doubles occupy even/odd pairs,
  even register = most-significant word, matching big-endian memory).
* Branch delay slots are executed exactly as on the R2000.
* ``jal``/``jalr`` link to the instruction after the delay slot.
* Arithmetic overflow wraps (the trapping variants are treated like their
  unsigned twins; none of the workloads relies on overflow traps).
* SPIM-style syscalls: ``$v0`` = 1 print_int, 4 print_string,
  11 print_char, 10 exit.
"""

from __future__ import annotations

import marshal
import re
import struct
import sys
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro import reference_mode
from repro.errors import ExecutionError
from repro.isa.assembler import AssembledProgram
from repro.isa.cfg import find_leaders
from repro.isa.instruction import Instruction
from repro.machine.memory import Memory
from repro.machine.stalls import R2000_STALLS, StallModel
from repro.machine.tracing import BlockTrace, ExecutionTrace

#: Default cap on executed instructions (the paper's traces are 10K-1M).
DEFAULT_MAX_INSTRUCTIONS = 4_000_000

#: Initial stack pointer: top of the 24-bit space, word aligned.
STACK_TOP = 0xFFFFF0

_WORD_MASK = 0xFFFFFFFF
_MEM_MASK = (1 << 24) - 1


def default_block_mode() -> bool:
    """Whether new machines use the superop engine (off under ``CCRP_REFERENCE``)."""
    return not reference_mode()


#: Dispatch modes of a block's record (how to interpret the superop's
#: return value); persisted with the compiled code.
_M_INLINE = 0  # superop runs the whole block and returns the next pc
_M_LOOP = 1  # loop; superop(budget) returns ±iteration count

#: Per-program superop state shared across Machine instances: leader sets
#: and compiled code objects depend only on the program text, so repeat
#: runs of the same program (studies, equivalence tests) skip both the
#: leader scan and every ``compile`` call.  Keyed by the text bytes and
#: base address; bounded LRU.  Entries are also persisted through the
#: artifact cache (marshalled, like ``.pyc`` files), so a fresh process
#: running a previously-seen program never compiles at all.
_PROGRAM_CACHE: "OrderedDict[tuple, dict]" = OrderedDict()
_PROGRAM_CACHE_LIMIT = 8


def _shared_key(program: AssembledProgram) -> tuple:
    from repro.core import artifacts

    # Code objects are bytecode: the blob is only valid for the exact
    # interpreter that wrote it, so the cache tag joins the key.
    return (
        artifacts.fingerprint_bytes(program.text),
        program.text_base,
        sys.implementation.cache_tag,
        4,  # payload format: an inline entry carries its instruction count
    )


def _load_shared(program: AssembledProgram) -> dict:
    """Fresh shared-state entry, seeded from the disk artifact cache."""
    entry: dict = {"leaders": None, "codes": {}, "dirty": False}
    try:
        from repro.core import artifacts

        found, blob = artifacts.get_cache().load("superops", *_shared_key(program))
        if found:
            leaders = blob["leaders"]
            entry["leaders"] = set(leaders) if leaders is not None else None
            entry["codes"] = {
                pc: (marshal.loads(raw), mode, payload)
                for pc, (raw, mode, payload) in blob["codes"].items()
            }
    except Exception:  # corrupt blob or foreign bytecode: recompile
        entry = {"leaders": None, "codes": {}, "dirty": False}
    return entry


def _store_shared(program: AssembledProgram, entry: dict) -> None:
    """Persist newly compiled superops; no-op when nothing changed."""
    if not entry.get("dirty"):
        return
    try:
        from repro.core import artifacts

        leaders = entry["leaders"]
        blob = {
            "leaders": sorted(leaders) if leaders is not None else None,
            "codes": {
                pc: (marshal.dumps(code), mode, payload)
                for pc, (code, mode, payload) in entry["codes"].items()
            },
        }
        artifacts.get_cache().store("superops", blob, *_shared_key(program))
        entry["dirty"] = False
    except Exception:  # cache trouble must never fail an execution
        pass


def _program_cache(program: AssembledProgram) -> dict:
    key = (program.text, program.text_base)
    entry = _PROGRAM_CACHE.get(key)
    if entry is None:
        entry = _PROGRAM_CACHE[key] = _load_shared(program)
        while len(_PROGRAM_CACHE) > _PROGRAM_CACHE_LIMIT:
            _PROGRAM_CACHE.popitem(last=False)
    else:
        _PROGRAM_CACHE.move_to_end(key)
    return entry


class _Steps(dict):
    """One-instruction functions keyed by pc, built on first lookup."""

    __slots__ = ("_build",)

    def __init__(self, build) -> None:
        super().__init__()
        self._build = build

    def __missing__(self, pc: int):
        step = self[pc] = self._build(pc)
        return step


class _Halt(Exception):
    """Raised internally by the exit syscall to stop the interpreter."""

    def __init__(self, exit_code: int) -> None:
        super().__init__(exit_code)
        self.exit_code = exit_code


@dataclass(frozen=True)
class ExecutionResult:
    """Everything one execution produced.

    Attributes:
        trace: The dynamic instruction-address trace.
        instructions_executed: Dynamic instruction count.
        data_accesses: Number of data loads + stores performed.
        stall_cycles: Pixie-style pipeline-stall estimate.
        output: Text emitted through print syscalls.
        exit_code: Value of ``$a0`` at the exit syscall (0 if it ran off
            the instruction limit with ``stop_at_limit=True``).
        registers: Final general-purpose register values.
    """

    trace: ExecutionTrace
    instructions_executed: int
    data_accesses: int
    stall_cycles: int
    output: str
    exit_code: int
    registers: tuple[int, ...]

    @property
    def base_cycles(self) -> int:
        """Issue cycles + stalls: execution time before memory penalties."""
        return self.instructions_executed + self.stall_cycles


# Precompiled converters: struct.Struct methods skip the per-call format
# cache lookup of the module-level functions.
_F32 = struct.Struct(">f")
_U32 = struct.Struct(">I")
_F64 = struct.Struct(">d")
_U64 = struct.Struct(">Q")


# ----------------------------------------------------------------------
# Instruction semantics: Python source generation
# ----------------------------------------------------------------------
#
# Every instruction runs as generated Python code.  The emitter folds each
# static operand — register numbers, immediates, shift amounts, fault
# addresses — into the source as a literal and elides writes to the
# hard-wired ``$zero`` outright.  Architectural state is bound once through
# default arguments (the fastest name binding CPython offers).  The superop
# engine fuses a whole basic block into one function, so its interpreter
# pays a single call per block; the reference engine wraps each instruction
# on its own (:func:`_step_source`) and pays one call per instruction.


def _sx(expr: str) -> str:
    """Source sign-extending the 32-bit expression ``expr`` (branch-free)."""
    return f"({expr} - (({expr} & 0x80000000) << 1))"


def _load_float(var: str, index: int) -> str:
    """Source reading FP register ``index`` as a Python float into ``var``.

    FP registers only ever hold masked 32-bit patterns, so no defensive
    mask is needed before packing.
    """
    return f"{var} = UF(PI(f[{index}]))[0]"


class _ForwardState:
    """Local value forwarding of double-precision FP values in one block.

    Re-reading an FP register pair costs two struct calls plus the word
    stitching; within a block's straight-line code the emitter instead
    remembers which uniquely-named temporary already holds the double in
    pair ``index``/``index+1`` and reuses it.  Valid because packing a
    Python float to ``>d`` and unpacking it back is bit-exact, so the
    temporary equals what a re-read would produce.  Temporaries are
    never reassigned (fresh name per value), so a forwarded name stays
    valid even after its source registers are overwritten.  Only
    doubles are forwarded: a single-precision write rounds to float32,
    so its unrounded Python value must not be reused.
    """

    __slots__ = (
        "doubles",
        "touched",
        "seed_candidates",
        "raw",
        "double_writes",
        "sink_pairs",
        "pending",
        "_count",
    )

    def __init__(self) -> None:
        self.doubles: dict[int, str] = {}  # pair base index -> temp name
        self.touched: set[int] = set()  # f words written so far
        # Pairs first loaded before any write to them: a generated loop
        # can hoist these loads above its ``while`` (see _block_source).
        self.seed_candidates: set[int] = set()
        # f words accessed as raw 32-bit patterns (single-precision ops,
        # moves, stores, mid-block reloads).  A pair overlapping a raw
        # word cannot have its write-back sunk out of a generated loop.
        self.raw: set[int] = set()
        self.double_writes: set[int] = set()  # pairs written as doubles
        # Loop write-back sinking (second emission pass only): pairs in
        # sink_pairs skip the per-write pack; ``pending`` maps them to
        # the temp holding their current value, in last-write order.
        self.sink_pairs: frozenset = frozenset()
        self.pending: dict[int, str] = {}
        self._count = 0

    def temp(self) -> str:
        name = f"t{self._count}"
        self._count += 1
        return name

    def ensure_double(self, lines: list[str], index: int) -> str:
        """Name of a variable holding the double in pair ``index``,
        appending the load to ``lines`` when it is not forwarded."""
        var = self.doubles.get(index)
        if var is None:
            var = self.temp()
            lines.append(f"{var} = UD(PQ((f[{index}] << 32) | f[{index + 1}]))[0]")
            self.doubles[index] = var
            if index not in self.touched and index + 1 not in self.touched:
                # First access, before any write: hoistable to a loop
                # prelude, so it does not count as a raw in-loop read.
                self.seed_candidates.add(index)
            else:
                self.raw.update((index, index + 1))
        return var

    def store_double(self, lines: list[str], index: int, var: str) -> None:
        """Write ``var`` to pair ``index``: packed immediately, or kept
        pending when the pair's write-back is sunk to the loop exit."""
        self.invalidate(index)
        self.invalidate(index + 1)
        self.double_writes.add(index)
        if index in self.sink_pairs:
            self.pending.pop(index, None)  # re-insert in last-write order
            self.pending[index] = var
        else:
            lines += [
                f"v = UQ(PD({var}))[0]",
                f"f[{index}] = (v >> 32) & 0xFFFFFFFF",
                f"f[{index + 1}] = v & 0xFFFFFFFF",
            ]
        self.doubles[index] = var

    def invalidate(self, index: int) -> None:
        """Register word ``index`` was written: drop overlapping pairs."""
        self.touched.add(index)
        self.doubles.pop(index, None)
        self.doubles.pop(index - 1, None)

    def raw_access(self, *indices: int) -> None:
        """Words read or written as raw patterns (not via forwarding)."""
        self.raw.update(indices)


def _emit_instruction(
    instruction: Instruction, pc: int, fwd: _ForwardState | None = None
) -> list[str]:
    """Python statements executing one non-control-transfer instruction."""
    if fwd is None:
        fwd = _ForwardState()
    m = instruction.mnemonic
    rs, rt, rd = instruction.rs, instruction.rt, instruction.rd
    shamt = instruction.shamt
    imm = instruction.imm_signed
    uimm = instruction.imm_unsigned

    # --- integer R-type --------------------------------------------
    if m in ("add", "addu"):
        return [f"r[{rd}] = (r[{rs}] + r[{rt}]) & 0xFFFFFFFF"] if rd else []
    if m in ("sub", "subu"):
        return [f"r[{rd}] = (r[{rs}] - r[{rt}]) & 0xFFFFFFFF"] if rd else []
    if m == "and":
        return [f"r[{rd}] = r[{rs}] & r[{rt}]"] if rd else []
    if m == "or":
        return [f"r[{rd}] = r[{rs}] | r[{rt}]"] if rd else []
    if m == "xor":
        return [f"r[{rd}] = r[{rs}] ^ r[{rt}]"] if rd else []
    if m == "nor":
        return [f"r[{rd}] = ~(r[{rs}] | r[{rt}]) & 0xFFFFFFFF"] if rd else []
    if m == "slt":
        if not rd:
            return []
        return [f"r[{rd}] = 1 if {_sx(f'r[{rs}]')} < {_sx(f'r[{rt}]')} else 0"]
    if m == "sltu":
        return [f"r[{rd}] = 1 if r[{rs}] < r[{rt}] else 0"] if rd else []
    if m == "sll":
        return [f"r[{rd}] = (r[{rt}] << {shamt}) & 0xFFFFFFFF"] if rd else []
    if m == "srl":
        return [f"r[{rd}] = r[{rt}] >> {shamt}"] if rd else []
    if m == "sra":
        return [f"r[{rd}] = ({_sx(f'r[{rt}]')} >> {shamt}) & 0xFFFFFFFF"] if rd else []
    if m == "sllv":
        return [f"r[{rd}] = (r[{rt}] << (r[{rs}] & 31)) & 0xFFFFFFFF"] if rd else []
    if m == "srlv":
        return [f"r[{rd}] = r[{rt}] >> (r[{rs}] & 31)"] if rd else []
    if m == "srav":
        if not rd:
            return []
        return [f"r[{rd}] = ({_sx(f'r[{rt}]')} >> (r[{rs}] & 31)) & 0xFFFFFFFF"]

    # --- HI/LO and multiply/divide ----------------------------------
    if m == "mult":
        return [
            f"v = {_sx(f'r[{rs}]')} * {_sx(f'r[{rt}]')}",
            "hl[0] = (v >> 32) & 0xFFFFFFFF",
            "hl[1] = v & 0xFFFFFFFF",
        ]
    if m == "multu":
        return [
            f"v = r[{rs}] * r[{rt}]",
            "hl[0] = (v >> 32) & 0xFFFFFFFF",
            "hl[1] = v & 0xFFFFFFFF",
        ]
    if m == "div":
        return [
            f"x = {_sx(f'r[{rs}]')}",
            f"y = {_sx(f'r[{rt}]')}",
            "if y == 0:",
            "    hl[0] = hl[1] = 0",  # UNPREDICTABLE on hardware
            "else:",
            "    q = int(x / y)",  # truncate toward zero
            "    hl[1] = q & 0xFFFFFFFF",
            "    hl[0] = (x - q * y) & 0xFFFFFFFF",
        ]
    if m == "divu":
        return [
            f"if r[{rt}] == 0:",
            "    hl[0] = hl[1] = 0",
            "else:",
            f"    hl[1] = r[{rs}] // r[{rt}]",
            f"    hl[0] = r[{rs}] % r[{rt}]",
        ]
    if m == "mfhi":
        return [f"r[{rd}] = hl[0]"] if rd else []
    if m == "mflo":
        return [f"r[{rd}] = hl[1]"] if rd else []
    if m == "mthi":
        return [f"hl[0] = r[{rs}]"]
    if m == "mtlo":
        return [f"hl[1] = r[{rs}]"]

    # --- I-type ALU ---------------------------------------------------
    if m in ("addi", "addiu"):
        return [f"r[{rt}] = (r[{rs}] + {imm}) & 0xFFFFFFFF"] if rt else []
    if m == "slti":
        return [f"r[{rt}] = 1 if {_sx(f'r[{rs}]')} < {imm} else 0"] if rt else []
    if m == "sltiu":
        return [f"r[{rt}] = 1 if r[{rs}] < {imm & _WORD_MASK} else 0"] if rt else []
    if m == "andi":
        return [f"r[{rt}] = r[{rs}] & {uimm}"] if rt else []
    if m == "ori":
        return [f"r[{rt}] = r[{rs}] | {uimm}"] if rt else []
    if m == "xori":
        return [f"r[{rt}] = r[{rs}] ^ {uimm}"] if rt else []
    if m == "lui":
        return [f"r[{rt}] = {(uimm << 16) & _WORD_MASK}"] if rt else []

    # --- loads / stores ---------------------------------------------
    if m in ("lw", "lwc1", "swc1", "sw", "lh", "lhu", "sh"):
        word = m in ("lw", "lwc1", "swc1", "sw")
        lines = [
            "st[0] += 1",
            f"a = (r[{rs}] + {imm}) & 0xFFFFFF",
            f"if a & {3 if word else 1}:",
            f'    raise EE(f"unaligned {m} at {{a:#x}} (pc {pc:#x})")',
        ]
        if m == "lw":
            if rt:
                lines.append(
                    f"r[{rt}] = (d[a] << 24) | (d[a + 1] << 16)"
                    " | (d[a + 2] << 8) | d[a + 3]"
                )
        elif m == "lwc1":
            fwd.invalidate(rt)
            fwd.raw_access(rt)
            lines.append(
                f"f[{rt}] = (d[a] << 24) | (d[a + 1] << 16)"
                " | (d[a + 2] << 8) | d[a + 3]"
            )
        elif m in ("sw", "swc1"):
            if m == "swc1":
                fwd.raw_access(rt)
            lines += [
                f"v = {'r' if m == 'sw' else 'f'}[{rt}]",
                "d[a] = (v >> 24) & 0xFF",
                "d[a + 1] = (v >> 16) & 0xFF",
                "d[a + 2] = (v >> 8) & 0xFF",
                "d[a + 3] = v & 0xFF",
            ]
        elif m == "lh":
            if rt:
                lines += [
                    "v = (d[a] << 8) | d[a + 1]",
                    f"r[{rt}] = (v - 0x10000 if v & 0x8000 else v) & 0xFFFFFFFF",
                ]
        elif m == "lhu":
            if rt:
                lines.append(f"r[{rt}] = (d[a] << 8) | d[a + 1]")
        else:  # sh
            lines += [
                f"d[a] = (r[{rt}] >> 8) & 0xFF",
                f"d[a + 1] = r[{rt}] & 0xFF",
            ]
        return lines
    if m == "lb":
        lines = ["st[0] += 1"]
        if rt:
            lines += [
                f"v = d[(r[{rs}] + {imm}) & 0xFFFFFF]",
                f"r[{rt}] = (v - 256 if v & 0x80 else v) & 0xFFFFFFFF",
            ]
        return lines
    if m == "lbu":
        lines = ["st[0] += 1"]
        if rt:
            lines.append(f"r[{rt}] = d[(r[{rs}] + {imm}) & 0xFFFFFF]")
        return lines
    if m == "sb":
        return [
            "st[0] += 1",
            f"d[(r[{rs}] + {imm}) & 0xFFFFFF] = r[{rt}] & 0xFF",
        ]

    # --- unaligned-access pairs (big-endian LWL/LWR/SWL/SWR) ----------
    # ``o`` is the byte offset within the aligned word, in bits; ``w``
    # the aligned word.  The left forms move the bytes from the address
    # to the word's end into the register's top; the right forms move
    # the bytes from the word's start through the address into its
    # bottom.
    if m in ("lwl", "lwr", "swl", "swr"):
        lines = [
            "st[0] += 1",
            f"a = (r[{rs}] + {imm}) & 0xFFFFFF",
            "o = (a & 3) << 3",
            "a &= 0xFFFFFC",
            "w = (d[a] << 24) | (d[a + 1] << 16) | (d[a + 2] << 8) | d[a + 3]",
        ]
        if m == "lwl":
            if rt:
                lines.append(
                    f"r[{rt}] = ((w << o) & 0xFFFFFFFF) | (r[{rt}] & ((1 << o) - 1))"
                )
            return lines
        if m == "lwr":
            if rt:
                lines += [
                    "u = (1 << (o + 8)) - 1",
                    f"r[{rt}] = (r[{rt}] & ~u & 0xFFFFFFFF) | ((w >> (24 - o)) & u)",
                ]
            return lines
        if m == "swl":
            lines += [
                "u = (1 << (32 - o)) - 1",
                f"v = (w & ~u & 0xFFFFFFFF) | (r[{rt}] >> o)",
            ]
        else:  # swr
            lines += [
                "u = (1 << (24 - o)) - 1",
                f"v = (w & u) | ((r[{rt}] << (24 - o)) & 0xFFFFFFFF & ~u)",
            ]
        return lines + [
            "d[a] = (v >> 24) & 0xFF",
            "d[a + 1] = (v >> 16) & 0xFF",
            "d[a + 2] = (v >> 8) & 0xFF",
            "d[a + 3] = v & 0xFF",
        ]

    # --- system ---------------------------------------------------------
    if m == "syscall":
        return [f"SC({pc})"]
    if m == "break":
        return [f'raise EE("break executed at {pc:#x}")']

    # --- FP moves and arithmetic -------------------------------------
    if m == "mfc1":
        if not rt:
            return []
        fwd.raw_access(rd)
        return [f"r[{rt}] = f[{rd}]"]
    if m == "mtc1":
        fwd.invalidate(rd)
        fwd.raw_access(rd)
        return [f"f[{rd}] = r[{rt}]"]
    if m.startswith(("add.", "sub.", "mul.", "div.", "abs.", "neg.", "mov.")):
        fd, fs, ft = shamt, rd, rt
        double = m.endswith(".d")
        base = m.split(".")[0]
        if base == "mov":
            lines = [f"f[{fd}] = f[{fs}]"]
            if double:
                lines.append(f"f[{fd + 1}] = f[{fs + 1}]")
                fwd.raw_access(fs, fs + 1, fd, fd + 1)
                source_var = fwd.doubles.get(fs)
                fwd.invalidate(fd)
                fwd.invalidate(fd + 1)
                if source_var is not None:
                    fwd.doubles[fd] = source_var
            else:
                fwd.raw_access(fs, fd)
                fwd.invalidate(fd)
            return lines
        if base in ("abs", "neg"):
            # Pure sign-bit manipulation: cheaper on the packed words.
            mask_op = "^ 0x80000000" if base == "neg" else "& 0x7FFFFFFF"
            lines = [f"f[{fd}] = f[{fs}] {mask_op}"]
            fwd.raw_access(fs, fd)
            fwd.invalidate(fd)
            if double:
                lines.append(f"f[{fd + 1}] = f[{fs + 1}]")
                fwd.raw_access(fs + 1, fd + 1)
                fwd.invalidate(fd + 1)
            return lines
        operator = {"add": "{x} + {y}", "sub": "{x} - {y}", "mul": "{x} * {y}"}.get(base)
        if operator is None:  # div: a zero divisor yields a signed infinity
            operator = '{x} / {y} if {y} != 0.0 else float("inf") * (1 if {x} >= 0 else -1)'
        if double:
            lines = []
            x = fwd.ensure_double(lines, fs)
            y = fwd.ensure_double(lines, ft)
            result = fwd.temp()
            lines.append(f"{result} = " + operator.format(x=x, y=y))
            fwd.store_double(lines, fd, result)
            return lines
        fwd.raw_access(fs, ft, fd)
        fwd.invalidate(fd)
        return [
            _load_float("x", fs),
            _load_float("y", ft),
            f"f[{fd}] = UI(PF({operator.format(x='x', y='y')}))[0]",
        ]
    if m.startswith("cvt."):
        fd, fs = shamt, rd
        _, to_kind, from_kind = m.split(".")
        lines = []
        if from_kind == "d":
            x = fwd.ensure_double(lines, fs)
        elif from_kind == "s":
            fwd.raw_access(fs)
            lines.append(_load_float("x", fs))
            x = "x"
        else:
            fwd.raw_access(fs)
            lines.append(f"x = {_sx(f'f[{fs}]')}")
            x = "x"
        if to_kind == "d":
            result = fwd.temp()
            lines.append(f"{result} = float({x})")
            fwd.store_double(lines, fd, result)
        elif to_kind == "s":
            fwd.raw_access(fd)
            lines.append(f"f[{fd}] = UI(PF(float({x})))[0]")
            fwd.invalidate(fd)
        else:  # to word: truncate toward zero, C-style
            fwd.raw_access(fd)
            lines.append(f"f[{fd}] = int({x}) & 0xFFFFFFFF")
            fwd.invalidate(fd)
        return lines
    if m.startswith("c."):
        fs, ft = rd, rt
        condition = m.split(".")[1]
        lines = []
        if m.endswith(".d"):
            x = fwd.ensure_double(lines, fs)
            y = fwd.ensure_double(lines, ft)
        else:
            fwd.raw_access(fs, ft)
            lines += [_load_float("x", fs), _load_float("y", ft)]
            x, y = "x", "y"
        comparison = {"eq": f"{x} == {y}", "lt": f"{x} < {y}"}.get(
            condition, f"{x} <= {y}"
        )
        lines.append(f"cc[0] = 1 if {comparison} else 0")
        return lines

    raise ExecutionError(f"no executor for mnemonic {m!r}")  # pragma: no cover


#: Condition expressions of the plain conditional branches.  ``bltz``
#: yields the raw sign bit, which Python treats as true precisely when
#: the branch is taken.
_BRANCH_CONDITIONS = {
    "beq": "r[{rs}] == r[{rt}]",
    "bne": "r[{rs}] != r[{rt}]",
    "blez": "(r[{rs}] - ((r[{rs}] & 0x80000000) << 1)) <= 0",
    "bgtz": "(r[{rs}] - ((r[{rs}] & 0x80000000) << 1)) > 0",
    "bltz": "r[{rs}] & 0x80000000",
    "bgez": "not (r[{rs}] & 0x80000000)",
    "bltzal": "r[{rs}] & 0x80000000",
    "bgezal": "not (r[{rs}] & 0x80000000)",
    "bc1t": "cc[0] == 1",
    "bc1f": "cc[0] == 0",
}


def _emit_terminator(
    instruction: Instruction, pc: int, end: int | None = 0
) -> tuple[list[str], str, int | None]:
    """``(setup_lines, return_expr, conditional_target)`` for a control
    transfer.

    ``setup_lines`` evaluate the branch condition (and perform link-
    register writes) *before* the delay slot runs; ``return_expr`` — the
    next pc: the taken target, or ``end`` for a not-taken branch (the
    address past the delay slot in a block, ``None`` in a one-instruction
    step) — evaluates after the slot.  ``conditional_target`` is the
    static target of a conditional branch (the loop fuser needs to know
    both the target and that the terminator can fall through), ``None``
    for jumps.
    """
    m = instruction.mnemonic
    condition = _BRANCH_CONDITIONS.get(m)
    if condition is not None:
        target = (pc + 4 + (instruction.imm_signed << 2)) & _MEM_MASK
        setup = []
        if m in ("bltzal", "bgezal"):
            # The link is written before the condition reads ``rs``.
            setup.append(f"r[31] = {(pc + 8) & _MEM_MASK}")
        setup.append(
            "taken = " + condition.format(rs=instruction.rs, rt=instruction.rt)
        )
        return setup, f"{target} if taken else {end}", target
    if m in ("j", "jal"):
        target = ((pc + 4) & 0xF000_0000) | (instruction.target << 2)
        setup = [f"r[31] = {(pc + 8) & _MEM_MASK}"] if m == "jal" else []
        return setup, str(target), None
    if m == "jr":
        return [f"t = r[{instruction.rs}]"], "t", None
    if m == "jalr":
        setup = [f"t = r[{instruction.rs}]"]
        if instruction.rd:
            setup.append(f"r[{instruction.rd}] = {(pc + 8) & _MEM_MASK}")
        return setup, "t", None
    raise ExecutionError(f"{m!r} at {pc:#x} is not a control transfer")


#: Default-argument bindings of a generated function: local name ->
#: namespace global.  Defaults are copied into the frame on every call,
#: so each function binds only the names its body uses.
_SU_BINDINGS = {
    "r": "_R",
    "f": "_F",
    "hl": "_HL",
    "cc": "_CC",
    "d": "_D",
    "st": "_ST",
    "SC": "_SC",
    "EE": "_EE",
    "PF": "_F32.pack",
    "UF": "_F32.unpack",
    "PI": "_U32.pack",
    "UI": "_U32.unpack",
    "PD": "_F64.pack",
    "UD": "_F64.unpack",
    "PQ": "_U64.pack",
    "UQ": "_U64.unpack",
}

_NAME = re.compile(r"[A-Za-z_]\w*")


def _wrap_superop(lines: list[str], loop: bool = False) -> str:
    body = "\n".join("    " + line for line in lines or ["pass"])
    used = set(_NAME.findall(body))
    bindings = [
        f"{name}={value}" for name, value in _SU_BINDINGS.items() if name in used
    ]
    if loop:
        bindings.insert(0, "budget")
    return f"def _su({', '.join(bindings)}):\n{body}"


def _step_source(instruction: Instruction, pc: int) -> str:
    """Source of the reference engine's one-instruction function.

    It executes ``instruction`` and returns the branch/jump target when
    control transfers, otherwise ``None``.
    """
    if instruction.spec.is_control_transfer:
        setup, target, _ = _emit_terminator(instruction, pc, None)
        return _wrap_superop(setup + [f"return {target}"])
    return _wrap_superop(_emit_instruction(instruction, pc))


def _to_code(source: str, pc: int):
    """Compile generated source; an emitter bug surfaces as a typed error."""
    try:
        return compile(source, f"<superop:{pc:#x}>", "exec")
    except (SyntaxError, ValueError) as error:
        raise ExecutionError(
            f"generated code for pc {pc:#x} failed to compile: {error}"
        ) from error


def _block_source(
    entries: list[tuple[Instruction, int]],
    branch_entry: tuple[Instruction, int] | None,
    slot_entry: tuple[Instruction, int] | None,
    pc: int,
    end: int,
) -> tuple[str, int]:
    """``(source, mode)`` of the fused function for one block.

    ``entries`` pairs each straight-line instruction with its address;
    ``branch_entry``/``slot_entry`` carry a closing control transfer and
    its delay slot (``None`` for fall-through blocks); ``end`` is the
    address past the block.  The superop returns the *next pc*
    (:data:`_M_INLINE`), except that a conditional branch targeting the
    block's own entry becomes a generated loop (:data:`_M_LOOP`:
    ``superop(budget)`` runs up to ``budget`` iterations and returns the
    count, negated when it exited with the branch still taken).  A
    self-loop with a syscall or break in its delay slot stays a plain
    block, one iteration per dispatch, so an exit ends a block.
    """
    forward = _ForwardState()
    body: list[str] = []
    for instruction, address in entries:
        body += _emit_instruction(instruction, address, forward)
    if branch_entry is None:
        return _wrap_superop(body + [f"return {end}"]), _M_INLINE
    setup, return_expr, conditional_target = _emit_terminator(*branch_entry, end)
    slot_lines = _emit_instruction(*slot_entry, forward)
    if conditional_target == pc and slot_entry[0].mnemonic not in ("syscall", "break"):
        # Self-loop: re-emit with FP pair loads hoisted above the loop.
        # The first emission pass doubles as the discovery pass: a pair
        # whose first access was a read (load before any write) gets its
        # load in a prelude; a pair still forwarded at the loop bottom
        # carries its value into the next iteration through a cheap
        # name rotation instead of a reconversion.  Both passes emit
        # identical instruction semantics, so forwarding trajectories
        # match and every seeded pair is live at the bottom.
        seedable = sorted(
            p for p in forward.seed_candidates if p in forward.doubles
        )
        # Pairs only ever written as doubles, never touched word-wise,
        # keep their value in a local: the pack + two word stores move
        # from the loop body to the exit branch.  Overlapping pairs (odd
        # bases alias even ones) fall back to the immediate write, which
        # is always correct.
        sinkable = frozenset(
            p
            for p in forward.double_writes
            if p not in forward.raw
            and p + 1 not in forward.raw
            and p - 1 not in forward.double_writes
            and p + 1 not in forward.double_writes
        )
        state = _ForwardState()
        state.sink_pairs = sinkable
        prelude: list[str] = []
        seeds = {p: state.ensure_double(prelude, p) for p in seedable}
        loop_body: list[str] = []
        for instruction, address in entries:
            loop_body += _emit_instruction(instruction, address, state)
        loop_setup, _, _ = _emit_terminator(*branch_entry)
        loop_slot = _emit_instruction(*slot_entry, state)
        rotations = [
            f"{seeds[p]} = {state.doubles[p]}"
            for p in seedable
            if state.doubles[p] != seeds[p]
        ]
        # Flush sunk pairs in last-write order so aliasing writes land
        # exactly as the immediate path would have left them.  The body
        # is straight-line, so every pending pair was written this
        # iteration and its temp holds the final value.
        flush: list[str] = []
        for p, var in state.pending.items():
            flush += [
                f"    v = UQ(PD({var}))[0]",
                f"    f[{p}] = (v >> 32) & 0xFFFFFFFF",
                f"    f[{p + 1}] = v & 0xFFFFFFFF",
            ]
        inner = loop_body + loop_setup + loop_slot + rotations + [
            "k += 1",
            "if k >= budget or not taken:",
            *flush,
            "    return -k if taken else k",
        ]
        lines = prelude + ["k = 0", "while True:"] + [
            "    " + line for line in inner
        ]
        return _wrap_superop(lines, loop=True), _M_LOOP
    lines = body + setup + slot_lines + [f"return {return_expr}"]
    return _wrap_superop(lines), _M_INLINE


class Machine:
    """A loaded program plus architectural state, ready to run.

    Example::

        machine = Machine(program)
        result = machine.run()
        print(result.instructions_executed, result.output)
    """

    def __init__(
        self,
        program: AssembledProgram,
        stall_model: StallModel = R2000_STALLS,
        block_mode: bool | None = None,
    ) -> None:
        self.program = program
        self.stall_model = stall_model
        self.block_mode = default_block_mode() if block_mode is None else block_mode
        self.memory = Memory()
        self.memory.load_segment(program.text_base, program.text)
        if program.data:
            self.memory.load_segment(program.data_base, program.data)
        self.regs: list[int] = [0] * 32
        self.regs[29] = STACK_TOP  # $sp
        self.regs[28] = (program.data_base + 0x8000) & _MEM_MASK  # $gp
        self.fpr: list[int] = [0] * 32
        self.hilo: list[int] = [0, 0]
        self.fcc: list[int] = [0]  # FP condition flag
        self._output: list[str] = []
        self._stats: list[int] = [0]  # [data_access_count]
        # Globals of every generated function: the default arguments in
        # _SU_BINDINGS bind architectural state from here.
        self._namespace = {
            "_R": self.regs,
            "_F": self.fpr,
            "_HL": self.hilo,
            "_CC": self.fcc,
            "_D": self.memory.data,
            "_ST": self._stats,
            "_SC": self._syscall,
            "_EE": ExecutionError,
            "_F32": _F32,
            "_U32": _U32,
            "_F64": _F64,
            "_U64": _U64,
        }
        # One-instruction functions by pc, built on first touch (the
        # reference engine, and the superop engine's single steps).
        self._steps = _Steps(self._step)
        # Superop-engine state, built lazily on the first block-mode run.
        self._leaders: set[int] | None = None
        self._shared = _program_cache(program) if self.block_mode else None
        self._block_addresses: list[np.ndarray] = []  # by block id
        # Dispatch records keyed by entry pc: (n, superop, block_id,
        # _M_INLINE) for blocks returning the next pc, (n, superop,
        # block_id, _M_LOOP, head, end, pattern) for generated loops.
        # ``False`` marks entries where no block can start.
        self._record_at: dict[int, tuple | bool] = {}
        self._single_id_at: dict[int, int] = {}  # pc -> singleton block id

    # ------------------------------------------------------------------
    # Interpreter loop
    # ------------------------------------------------------------------

    def run(
        self,
        max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
        stop_at_limit: bool = False,
    ) -> ExecutionResult:
        """Execute from the program entry until the exit syscall.

        Args:
            max_instructions: Upper bound on dynamic instructions.
            stop_at_limit: If true, hitting the bound truncates the trace
                instead of raising :class:`~repro.errors.ExecutionError`.

        The basic-block superop engine (the default) and the
        per-instruction stepping engine (``block_mode=False`` or
        ``CCRP_REFERENCE=1``) produce identical results — trace bytes,
        registers, output, and stall cycles — property-tested against
        each other across the workload suite.
        """
        if self.block_mode:
            return self._run_blocks(max_instructions, stop_at_limit)
        return self._run_simple(max_instructions, stop_at_limit)

    def _run_simple(
        self, max_instructions: int, stop_at_limit: bool
    ) -> ExecutionResult:
        """The reference loop: one generated function per instruction."""
        program = self.program
        steps = self._steps
        base = program.text_base
        top = base + len(program.instructions) * 4
        trace: list[int] = []
        append = trace.append
        pc = program.entry
        npc = pc + 4
        executed = 0
        exit_code = 0
        try:
            while executed < max_instructions:
                if not base <= pc < top:
                    raise ExecutionError(f"PC {pc:#x} outside text segment")
                append(pc)
                target = steps[pc]()
                executed += 1
                pc = npc
                npc = pc + 4 if target is None else target
            if not stop_at_limit:
                raise ExecutionError(
                    f"instruction limit {max_instructions} reached without exit"
                )
        except _Halt as halt:
            exit_code = halt.exit_code
            executed = len(trace)  # the exiting syscall itself executed

        addresses = np.array(trace, dtype=np.uint32)
        execution_trace = ExecutionTrace(
            addresses=addresses,
            text_base=program.text_base,
            text_size=len(program.text),
        )
        stall_cycles = self.stall_model.stall_cycles(
            execution_trace.instruction_indices, program.instructions
        )
        return self._result(execution_trace, executed, stall_cycles, exit_code)

    def _step(self, pc: int):
        """Build the one-instruction function at ``pc``."""
        instruction = self.program.instructions[(pc - self.program.text_base) >> 2]
        return self._define(_to_code(_step_source(instruction, pc), pc))

    def _define(self, code):
        """The ``_su`` function defined by a compiled superop or step."""
        exec(code, self._namespace)
        return self._namespace["_su"]

    def _syscall(self, pc: int) -> None:
        """SPIM-style services; the exit service raises :class:`_Halt`."""
        service = self.regs[2]
        argument = self.regs[4]
        if service == 10:
            raise _Halt(argument)
        if service == 1:
            self._output.append(str(argument - ((argument & 0x8000_0000) << 1)))
        elif service == 4:
            self._output.append(self.memory.read_string(argument))
        elif service == 11:
            self._output.append(chr(argument & 0xFF))
        else:
            raise ExecutionError(f"unsupported syscall {service} at {pc:#x}")

    # ------------------------------------------------------------------
    # Basic-block superop engine
    # ------------------------------------------------------------------

    def _run_blocks(
        self, max_instructions: int, stop_at_limit: bool
    ) -> ExecutionResult:
        """Interpret at basic-block granularity: one dispatch and one
        trace event per block instead of per instruction.

        Sequential control flow (``npc == pc + 4``) executes whole fused
        blocks; anything unusual — a pending branch target from a delay
        slot, a block bigger than the remaining instruction budget, a
        control transfer with no in-text delay slot — falls back to
        single-instruction events stepped exactly like the reference
        loop.
        """
        program = self.program
        steps = self._steps
        base = program.text_base
        top = base + len(program.instructions) * 4
        get_record = self._record_at.get
        events: list[int] = []
        append = events.append
        extend = events.extend
        pc = program.entry
        npc = pc + 4
        executed = 0
        exit_code = 0
        try:
            while executed < max_instructions:
                if not base <= pc < top:
                    raise ExecutionError(f"PC {pc:#x} outside text segment")
                if npc == pc + 4:
                    record = get_record(pc)
                    if record is None:
                        record = self._make_block(pc)
                    if record is not False:
                        n = record[0]
                        remaining = max_instructions - executed
                        if n <= remaining:
                            if record[3] == 0:  # _M_INLINE: returns the next pc
                                append(record[2])
                                executed += n
                                pc = record[1]()
                            else:  # _M_LOOP (self or chain)
                                k = record[1](remaining // n)
                                if k < 0:
                                    k = -k
                                    pc = record[4]  # taken: back to the head
                                else:
                                    pc = record[5]
                                executed += k * n
                                pattern = record[6]
                                if k == 1:
                                    extend(pattern)
                                else:
                                    extend(pattern * k)
                            npc = pc + 4
                            continue
                # Single-step fallback: exact per-instruction semantics.
                append(self._single_id(pc))
                executed += 1
                target = steps[pc]()
                pc = npc
                npc = pc + 4 if target is None else target
            if not stop_at_limit:
                raise ExecutionError(
                    f"instruction limit {max_instructions} reached without exit"
                )
        except _Halt as halt:
            # A syscall is always the last instruction of its block, so
            # the pre-counted event totals are exact through the halting
            # instruction.
            exit_code = halt.exit_code

        _store_shared(program, self._shared)
        block_trace = BlockTrace(
            events=np.array(events, dtype=np.int32),
            block_addresses=tuple(self._block_addresses),
            text_base=program.text_base,
            text_size=len(program.text),
        )
        execution_trace = ExecutionTrace(
            text_base=program.text_base,
            text_size=len(program.text),
            blocks=block_trace,
        )
        from_counts = getattr(self.stall_model, "stall_cycles_from_counts", None)
        if from_counts is not None:
            stall_cycles = from_counts(
                execution_trace.execution_counts(len(program.instructions)),
                program.instructions,
            )
        else:
            stall_cycles = self.stall_model.stall_cycles(
                execution_trace.instruction_indices, program.instructions
            )
        return self._result(execution_trace, executed, stall_cycles, exit_code)

    def _result(
        self,
        execution_trace: ExecutionTrace,
        executed: int,
        stall_cycles: int,
        exit_code: int,
    ) -> ExecutionResult:
        return ExecutionResult(
            trace=execution_trace,
            instructions_executed=executed,
            data_accesses=self._stats[0],
            stall_cycles=stall_cycles,
            output="".join(self._output),
            exit_code=exit_code,
            registers=tuple(self.regs),
        )

    def _make_block(self, pc: int) -> tuple | bool:
        """Carve, compile and register the block entered at ``pc``.

        Returns the block's dispatch record, or ``False`` when no block
        can start here (a control transfer whose delay slot falls
        outside the text segment) — the engine then single-steps.
        """
        if self._leaders is None:
            shared = self._shared
            if shared["leaders"] is None:
                shared["leaders"] = find_leaders(
                    self.program.instructions,
                    self.program.text_base,
                    split_after_syscalls=True,
                )
                shared["dirty"] = True
            self._leaders = shared["leaders"]
        base = self.program.text_base
        instructions = self.program.instructions
        top = base + len(instructions) * 4
        leaders = self._leaders
        entries: list[tuple[Instruction, int]] = []
        branch_entry: tuple[Instruction, int] | None = None
        slot_entry: tuple[Instruction, int] | None = None
        address = end = pc
        while address < top:
            instruction = instructions[(address - base) >> 2]
            if instruction.spec.is_control_transfer:
                if address + 8 <= top:
                    branch_entry = (instruction, address)
                    slot = instructions[(address + 4 - base) >> 2]
                    slot_entry = (slot, address + 4)
                    end = address + 8
                # else: no in-text delay slot; the single-step path runs
                # the transfer (and faults like the reference loop when
                # control runs off the segment).
                break
            entries.append((instruction, address))
            address += 4
            end = address
            if instruction.mnemonic in ("syscall", "break"):
                break
            if address in leaders:
                break
        # Unfusable until fused: building a loop record calls back into
        # _make_block for the loop's member blocks, which must see this
        # block instead of re-scanning it.
        self._record_at[pc] = False
        if end == pc:
            return False
        block_id = len(self._block_addresses)
        self._block_addresses.append(np.arange(pc, end, 4, dtype=np.uint32))
        codes = self._shared["codes"]
        entry = codes.get(pc) or self._fuse_block(
            pc, entries, branch_entry, slot_entry, end
        )
        record = self._record(pc, entry, block_id)
        if record is None:
            # A loop member stopped being fusable (stale cache entry):
            # recompile as a plain block.
            entry = self._fuse_block(
                pc, entries, branch_entry, slot_entry, end, allow_chain=False
            )
            record = self._record(pc, entry, block_id)
        self._record_at[pc] = record
        return record

    #: Bounds on the fall-through chain considered for multi-block loops.
    _CHAIN_MAX_BLOCKS = 8
    _CHAIN_MAX_INSTRUCTIONS = 512

    def _fuse_block(
        self,
        pc: int,
        entries: list[tuple[Instruction, int]],
        branch_entry: tuple[Instruction, int] | None,
        slot_entry: tuple[Instruction, int] | None,
        end: int,
        allow_chain: bool = True,
    ) -> tuple:
        """Compile the block (or the loop it heads) into the shared codes.

        Returns the stored ``(code, mode, payload)`` entry.  Code objects
        (plus dispatch mode and payload) are shared across machines
        running the same program.  An inline payload is the block's
        instruction count; a loop payload is ``(n, end, starts)`` —
        instructions per iteration, the not-taken exit address, and the
        member-block start addresses (head first).
        """
        source = None
        if (
            allow_chain
            and branch_entry is None
            and entries[-1][0].mnemonic not in ("syscall", "break")
        ):
            chain = self._find_chain(pc, end)
            if chain is not None:
                extra, c_branch, c_slot, starts, loop_end = chain
                source, mode = _block_source(
                    entries + extra, c_branch, c_slot, pc, loop_end
                )
                if mode == _M_LOOP:
                    payload = (
                        len(entries) + len(extra) + 2,
                        loop_end,
                        tuple(starts),
                    )
                else:  # a syscall or break in the loop's delay slot
                    source = None
        if source is None:
            source, mode = _block_source(entries, branch_entry, slot_entry, pc, end)
            n = (end - pc) >> 2
            payload = (n, end, (pc,)) if mode == _M_LOOP else n
        entry = (_to_code(source, pc), mode, payload)
        self._shared["codes"][pc] = entry
        self._shared["dirty"] = True
        return entry

    def _find_chain(self, pc: int, end: int) -> tuple | None:
        """Fall-through blocks after ``end`` closed by a branch to ``pc``.

        Walks the blocks following the head block ``[pc, end)`` exactly
        as :meth:`_make_block` would carve them.  A simple loop — pure
        fall-through members ending in a conditional branch back to the
        head — returns ``(extra entries, branch entry, slot entry, member
        starts, end past the slot)``; anything else (side exits,
        syscalls, indirect jumps, a region over the size bounds) returns
        ``None``.
        """
        base = self.program.text_base
        instructions = self.program.instructions
        top = base + len(instructions) * 4
        leaders = self._leaders
        starts = [pc]
        extra: list[tuple[Instruction, int]] = []
        address = end
        count = (end - pc) >> 2
        while address < top and len(starts) < self._CHAIN_MAX_BLOCKS:
            starts.append(address)
            while address < top:
                instruction = instructions[(address - base) >> 2]
                if instruction.spec.is_control_transfer:
                    if address + 8 > top:
                        return None  # delay slot outside the text segment
                    if _emit_terminator(instruction, address)[2] != pc:
                        return None  # not a conditional branch to the head
                    return (
                        extra,
                        (instruction, address),
                        (instructions[(address + 4 - base) >> 2], address + 4),
                        starts,
                        address + 8,
                    )
                if instruction.mnemonic in ("syscall", "break"):
                    return None
                extra.append((instruction, address))
                count += 1
                if count > self._CHAIN_MAX_INSTRUCTIONS:
                    return None
                address += 4
                if address in leaders:
                    break  # the next chain member starts here
        return None

    def _record(self, pc: int, entry: tuple, block_id: int) -> tuple | None:
        """Dispatch record for the compiled block or loop headed at ``pc``.

        A loop's member blocks are built too, so their trace events
        resolve.  Returns ``None`` if a member is unfusable — only
        possible for a stale cache entry, never for a loop found by
        :meth:`_find_chain` this run.
        """
        code, mode, payload = entry
        if mode == _M_INLINE:
            return (payload, self._define(code), block_id, _M_INLINE)
        n, end, starts = payload
        pattern = [block_id]
        for start in starts[1:]:
            member = self._record_at.get(start)
            if member is None:
                member = self._make_block(start)
            if member is False:
                return None
            pattern.append(member[2])
        return (n, self._define(code), block_id, _M_LOOP, pc, end, pattern)

    def _single_id(self, pc: int) -> int:
        """Block id of the one-instruction event at ``pc`` (cached)."""
        single_id = self._single_id_at.get(pc)
        if single_id is None:
            single_id = self._single_id_at[pc] = len(self._block_addresses)
            self._block_addresses.append(np.array([pc], dtype=np.uint32))
        return single_id
