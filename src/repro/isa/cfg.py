"""Static control-flow analysis of MIPS-I text segments.

Builds basic blocks and a control-flow graph directly from encoded text —
the static complement to the dynamic profiler.  Used by the workload
validation tooling and handy for users inspecting their own firmware
(e.g. to see which blocks a compressed line boundary splits).

Branch delay slots are modelled the MIPS way: the slot instruction
belongs to its branch's block, and fall-through from a taken branch goes
to the *target*, not the slot successor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa.decoding import decode_program
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Category


@dataclass(frozen=True)
class BasicBlock:
    """One basic block of a control-flow graph.

    Attributes:
        start: Address of the first instruction.
        end: Address one past the last instruction (the delay slot of a
            closing branch is included).
        successors: Addresses of blocks control may flow to; empty for
            blocks ending in ``jr`` (returns/indirect) or at text end.
        terminator: Mnemonic of the control transfer closing the block,
            or ``None`` for a pure fall-through block.
    """

    start: int
    end: int
    successors: tuple[int, ...]
    terminator: str | None

    @property
    def size_bytes(self) -> int:
        return self.end - self.start

    @property
    def instruction_count(self) -> int:
        return self.size_bytes // 4


@dataclass(frozen=True)
class ControlFlowGraph:
    """Basic blocks of one text segment, keyed by start address."""

    blocks: dict[int, BasicBlock] = field(default_factory=dict)
    text_base: int = 0
    text_end: int = 0

    def block_at(self, address: int) -> BasicBlock:
        """The block containing ``address`` (not necessarily its start)."""
        starts = sorted(self.blocks)
        low, high = 0, len(starts) - 1
        while low <= high:
            mid = (low + high) // 2
            block = self.blocks[starts[mid]]
            if address < block.start:
                high = mid - 1
            elif address >= block.end:
                low = mid + 1
            else:
                return block
        raise KeyError(f"no block contains {address:#x}")

    def reachable_from(self, entry: int) -> set[int]:
        """Block start addresses reachable from ``entry`` by CFG edges."""
        seen: set[int] = set()
        frontier = [self.block_at(entry).start]
        while frontier:
            start = frontier.pop()
            if start in seen or start not in self.blocks:
                continue
            seen.add(start)
            frontier.extend(self.blocks[start].successors)
        return seen

    @property
    def block_count(self) -> int:
        return len(self.blocks)

    def average_block_bytes(self) -> float:
        if not self.blocks:
            return 0.0
        return sum(block.size_bytes for block in self.blocks.values()) / len(self.blocks)


def _branch_target(instruction: Instruction, address: int) -> int:
    return address + 4 + (instruction.imm_signed << 2)


def _jump_target(instruction: Instruction, address: int) -> int:
    return ((address + 4) & 0xF000_0000) | (instruction.target << 2)


def find_leaders(
    instructions: tuple[Instruction, ...] | list[Instruction],
    text_base: int = 0,
    split_after_syscalls: bool = False,
) -> set[int]:
    """Basic-block leader addresses of a decoded text segment.

    Leaders are the entry point, every branch/jump target, and the
    instruction after each control transfer's delay slot.  With
    ``split_after_syscalls`` the instruction after a ``syscall`` or
    ``break`` also starts a block — the superop execution engine needs
    syscalls to end blocks so a mid-run exit never splits an event.
    """
    count = len(instructions)
    text_end = text_base + 4 * count
    leaders: set[int] = {text_base} if count else set()
    # Memoise the control-transfer property per (shared) spec object:
    # large programs hit this loop tens of thousands of times.
    transfers: dict[int, bool] = {}
    for index, instruction in enumerate(instructions):
        address = text_base + 4 * index
        spec = instruction.spec
        is_transfer = transfers.get(id(spec))
        if is_transfer is None:
            is_transfer = transfers[id(spec)] = spec.is_control_transfer
        if not is_transfer:
            if split_after_syscalls and instruction.mnemonic in ("syscall", "break"):
                leaders.add(address + 4)
            continue
        category = instruction.spec.category
        if category in (Category.BRANCH, Category.FP_BRANCH):
            leaders.add(_branch_target(instruction, address))
        elif category in (Category.JUMP, Category.CALL):
            if instruction.mnemonic in ("j", "jal"):
                leaders.add(_jump_target(instruction, address))
            elif instruction.mnemonic in ("bltzal", "bgezal"):
                leaders.add(_branch_target(instruction, address))
        # the instruction after the delay slot starts a new block
        leaders.add(address + 8)
    return {leader for leader in leaders if text_base <= leader < text_end}


def build_cfg(
    text: bytes,
    text_base: int = 0,
    instructions: tuple[Instruction, ...] | None = None,
) -> ControlFlowGraph:
    """Build the control-flow graph of an encoded text segment.

    Args:
        text: Encoded text-segment bytes.
        text_base: Load address of the segment.
        instructions: Pre-decoded instructions for ``text``; pass them to
            skip the redundant decode when the caller already has them
            (the superop engine does).
    """
    if instructions is None:
        instructions = decode_program(text)
    count = len(instructions)
    text_end = text_base + 4 * count

    # --- pass 1: find leaders --------------------------------------------
    leaders = find_leaders(instructions, text_base)

    # --- pass 2: carve blocks --------------------------------------------
    ordered = sorted(leaders)
    blocks: dict[int, BasicBlock] = {}
    for position, start in enumerate(ordered):
        limit = ordered[position + 1] if position + 1 < len(ordered) else text_end
        # Find the closing control transfer, if any, within [start, limit).
        terminator: str | None = None
        end = limit
        successors: list[int] = []
        address = start
        while address < limit:
            instruction = instructions[(address - text_base) // 4]
            if instruction.spec.is_control_transfer:
                terminator = instruction.mnemonic
                end = min(address + 8, text_end)  # include the delay slot
                category = instruction.spec.category
                if category in (Category.BRANCH, Category.FP_BRANCH):
                    target = _branch_target(instruction, address)
                    if text_base <= target < text_end:
                        successors.append(target)
                    if instruction.mnemonic not in ("beq",) or instruction.rs or instruction.rt:
                        # conditional: may fall through past the slot
                        if end < text_end:
                            successors.append(end)
                elif instruction.mnemonic == "j":
                    target = _jump_target(instruction, address)
                    if text_base <= target < text_end:
                        successors.append(target)
                elif category is Category.CALL:
                    # calls return; the static successor is after the slot
                    if end < text_end:
                        successors.append(end)
                # jr: unknown successors (return / jump table)
                break
            address += 4
        else:
            if limit < text_end:
                successors.append(limit)
        blocks[start] = BasicBlock(
            start=start,
            end=end,
            successors=tuple(dict.fromkeys(successors)),
            terminator=terminator,
        )
    return ControlFlowGraph(blocks=blocks, text_base=text_base, text_end=text_end)
