"""Micro-op programs executed by the pipeline model.

The workload driver speaks a tiny load/store/ALU vocabulary instead of a full
ISA; register 0 is hardwired to zero and load/store addresses are computed as
``R[rs1] + imm``. Programs are straight line: no branches, so every run of a
program takes the same number of cycles regardless of data or protection mode.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..aes import key_schedule

ALU_OPS = ("xor", "and", "or", "add", "shl", "shr", "gfdbl", "mov")


@dataclass(frozen=True)
class MicroOp:
    kind: str              # alu | load | store
    op: str = "mov"        # alu operation
    rd: int = 0
    rs1: int = 0
    rs2: int | None = None  # None -> second operand is imm
    imm: int = 0
    size: int = 8          # access width in bytes (1 or 8)

    def __post_init__(self):
        if self.kind not in ("alu", "load", "store"):
            raise ValueError(f"bad micro-op kind '{self.kind}'")
        if self.kind == "alu" and self.op not in ALU_OPS:
            raise ValueError(f"bad alu op '{self.op}'")
        if self.size not in (1, 8):
            raise ValueError(f"bad access size {self.size}")
        if self.kind == "store" and self.rs2 is None:
            raise ValueError("store needs rs2, the register it writes to memory")
        for r in (self.rd, self.rs1, self.rs2 or 0):
            if not 0 <= r < 32:
                raise ValueError(f"register {r} out of range")


def alu(op, rd, rs1, rs2=None, imm=0):
    return MicroOp(kind="alu", op=op, rd=rd, rs1=rs1, rs2=rs2, imm=imm)


def load(rd, rs1, imm, size=8):
    return MicroOp(kind="load", rd=rd, rs1=rs1, imm=imm, size=size)


def store(rs2, rs1, imm, size=8):
    return MicroOp(kind="store", rs1=rs1, rs2=rs2, imm=imm, size=size)


# fixed memory map of the AES workload (line-aligned regions, distinct sets)
TABLE_ADDR = 0x1000   # 256-byte SubBytes table, 4 cache lines
KEY_ADDR = 0x1100
RK_ADDR = 0x1140      # 11 round keys, 176 bytes
PT_ADDR = 0x1200
STATE_ADDR = 0x1240
CT_ADDR = 0x1280

SWEEP_ADDR = 0x10000  # cache-set sweep region: set i at SWEEP_ADDR + 64*i


def _shift_rows_src(j: int) -> int:
    r, c = j % 4, j // 4
    return r + 4 * ((c + r) % 4)


def build_aes_program(rounds: int = 10) -> list[MicroOp]:
    """Straight-line table-based AES-128 over the fixed memory map.

    The state lives in a 16-byte memory buffer between round functions;
    SubBytes is one table load per byte. Round keys are read from memory
    (the schedule is precomputed into RK_ADDR by the session driver).
    """
    if not 1 <= rounds <= 10:
        raise ValueError(f"rounds must be 1..10, got {rounds}")
    prog: list[MicroOp] = []

    # initial AddRoundKey with the cipher key
    prog += [
        load(8, 0, PT_ADDR), load(9, 0, PT_ADDR + 8),
        load(10, 0, KEY_ADDR), load(11, 0, KEY_ADDR + 8),
        alu("xor", 12, 8, 10), alu("xor", 13, 9, 11),
        store(12, 0, STATE_ADDR), store(13, 0, STATE_ADDR + 8),
    ]

    for rnd in range(1, rounds + 1):
        # SubBytes: byte-wise table lookups through the data cache
        for j in range(16):
            prog.append(load(14, 0, STATE_ADDR + j, size=1))
            prog.append(load(15, 14, TABLE_ADDR, size=1))
            prog.append(store(15, 0, STATE_ADDR + j, size=1))
        # ShiftRows: gather all 16 bytes, then write them back permuted
        for j in range(16):
            prog.append(load(16 + j, 0, STATE_ADDR + _shift_rows_src(j), size=1))
        for j in range(16):
            prog.append(store(16 + j, 0, STATE_ADDR + j, size=1))
        if rnd != 10:
            # MixColumns on each column: t = a0^a1^a2^a3,
            # a_i' = a_i ^ t ^ xtime(a_i ^ a_{i+1})
            for c in range(4):
                for i in range(4):
                    prog.append(load(16 + i, 0, STATE_ADDR + 4 * c + i, size=1))
                prog.append(alu("xor", 20, 16, 17))
                prog.append(alu("xor", 21, 20, 18))
                prog.append(alu("xor", 22, 21, 19))
                for i in range(4):
                    prog.append(alu("xor", 23, 16 + i, 16 + (i + 1) % 4))
                    prog.append(alu("gfdbl", 24, 23))
                    prog.append(alu("xor", 25, 16 + i, 22))
                    prog.append(alu("xor", 26, 25, 24))
                    prog.append(store(26, 0, STATE_ADDR + 4 * c + i, size=1))
        # AddRoundKey with round key N
        base = RK_ADDR + 16 * rnd
        prog += [
            load(8, 0, base), load(9, 0, base + 8),
            load(12, 0, STATE_ADDR), load(13, 0, STATE_ADDR + 8),
            alu("xor", 12, 12, 8), alu("xor", 13, 13, 9),
            store(12, 0, STATE_ADDR), store(13, 0, STATE_ADDR + 8),
        ]

    if rounds == 10:
        prog += [
            load(12, 0, STATE_ADDR), load(13, 0, STATE_ADDR + 8),
            store(12, 0, CT_ADDR), store(13, 0, CT_ADDR + 8),
        ]
    return prog


def aes_workload_memory(key: bytes) -> dict[int, bytes]:
    """Initial memory contents for the AES program (table, key, schedule)."""
    from ..aes import SBOX

    rks = key_schedule(key)
    return {
        TABLE_ADDR: SBOX,
        KEY_ADDR: key,
        RK_ADDR: b"".join(rks),
    }


def build_single_access_program() -> list[MicroOp]:
    """One dword load through r1; the harness presets r1 per lane."""
    return [load(15, 1, 0)]


SINGLE_ACCESS_SAMPLE_CYCLE = 3  # op 0 occupies the memory stage at cycle 3
