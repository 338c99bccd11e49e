"""Table-based AES-128 and the first-round intermediate values used as oracles.

The cipher follows FIPS-197 with the usual byte ordering: state byte
``r + 4*c`` holds row r, column c. SubBytes goes through the 256-byte lookup
table below, matching the software target of the leakage experiments.

Interesting points are the classic first-round intermediates for plaintext
byte p and key byte k: ``p ^ k``, ``S(p ^ k)`` and ``xtime(S(p ^ k))``.
User-defined points can be registered in ``POINT_FUNCTIONS``.
"""

from __future__ import annotations

import numpy as np

from .metrics import OracleTrace

SBOX = bytes((
    0x63, 0x7C, 0x77, 0x7B, 0xF2, 0x6B, 0x6F, 0xC5, 0x30, 0x01, 0x67, 0x2B, 0xFE, 0xD7, 0xAB, 0x76,
    0xCA, 0x82, 0xC9, 0x7D, 0xFA, 0x59, 0x47, 0xF0, 0xAD, 0xD4, 0xA2, 0xAF, 0x9C, 0xA4, 0x72, 0xC0,
    0xB7, 0xFD, 0x93, 0x26, 0x36, 0x3F, 0xF7, 0xCC, 0x34, 0xA5, 0xE5, 0xF1, 0x71, 0xD8, 0x31, 0x15,
    0x04, 0xC7, 0x23, 0xC3, 0x18, 0x96, 0x05, 0x9A, 0x07, 0x12, 0x80, 0xE2, 0xEB, 0x27, 0xB2, 0x75,
    0x09, 0x83, 0x2C, 0x1A, 0x1B, 0x6E, 0x5A, 0xA0, 0x52, 0x3B, 0xD6, 0xB3, 0x29, 0xE3, 0x2F, 0x84,
    0x53, 0xD1, 0x00, 0xED, 0x20, 0xFC, 0xB1, 0x5B, 0x6A, 0xCB, 0xBE, 0x39, 0x4A, 0x4C, 0x58, 0xCF,
    0xD0, 0xEF, 0xAA, 0xFB, 0x43, 0x4D, 0x33, 0x85, 0x45, 0xF9, 0x02, 0x7F, 0x50, 0x3C, 0x9F, 0xA8,
    0x51, 0xA3, 0x40, 0x8F, 0x92, 0x9D, 0x38, 0xF5, 0xBC, 0xB6, 0xDA, 0x21, 0x10, 0xFF, 0xF3, 0xD2,
    0xCD, 0x0C, 0x13, 0xEC, 0x5F, 0x97, 0x44, 0x17, 0xC4, 0xA7, 0x7E, 0x3D, 0x64, 0x5D, 0x19, 0x73,
    0x60, 0x81, 0x4F, 0xDC, 0x22, 0x2A, 0x90, 0x88, 0x46, 0xEE, 0xB8, 0x14, 0xDE, 0x5E, 0x0B, 0xDB,
    0xE0, 0x32, 0x3A, 0x0A, 0x49, 0x06, 0x24, 0x5C, 0xC2, 0xD3, 0xAC, 0x62, 0x91, 0x95, 0xE4, 0x79,
    0xE7, 0xC8, 0x37, 0x6D, 0x8D, 0xD5, 0x4E, 0xA9, 0x6C, 0x56, 0xF4, 0xEA, 0x65, 0x7A, 0xAE, 0x08,
    0xBA, 0x78, 0x25, 0x2E, 0x1C, 0xA6, 0xB4, 0xC6, 0xE8, 0xDD, 0x74, 0x1F, 0x4B, 0xBD, 0x8B, 0x8A,
    0x70, 0x3E, 0xB5, 0x66, 0x48, 0x03, 0xF6, 0x0E, 0x61, 0x35, 0x57, 0xB9, 0x86, 0xC1, 0x1D, 0x9E,
    0xE1, 0xF8, 0x98, 0x11, 0x69, 0xD9, 0x8E, 0x94, 0x9B, 0x1E, 0x87, 0xE9, 0xCE, 0x55, 0x28, 0xDF,
    0x8C, 0xA1, 0x89, 0x0D, 0xBF, 0xE6, 0x42, 0x68, 0x41, 0x99, 0x2D, 0x0F, 0xB0, 0x54, 0xBB, 0x16,
))

RCON = (0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36)


def xtime(b: int) -> int:
    """Multiply by 2 in GF(2^8) mod x^8 + x^4 + x^3 + x + 1."""
    b <<= 1
    if b & 0x100:
        b ^= 0x11B
    return b & 0xFF


def key_schedule(key: bytes) -> list[bytes]:
    """Expand a 16-byte key into the 11 round keys of AES-128."""
    if len(key) != 16:
        raise ValueError(f"key must be 16 bytes, got {len(key)}")
    words = [key[i:i + 4] for i in range(0, 16, 4)]
    for i in range(4, 44):
        temp = words[i - 1]
        if i % 4 == 0:
            temp = bytes(SBOX[b] for b in temp[1:] + temp[:1])
            temp = bytes([temp[0] ^ RCON[i // 4 - 1]]) + temp[1:]
        words.append(bytes(a ^ b for a, b in zip(words[i - 4], temp)))
    return [b"".join(words[4 * r:4 * r + 4]) for r in range(11)]


def _sub_bytes(state: bytearray) -> None:
    for i in range(16):
        state[i] = SBOX[state[i]]


def _shift_rows(state: bytearray) -> None:
    out = bytearray(16)
    for c in range(4):
        for r in range(4):
            out[r + 4 * c] = state[r + 4 * ((c + r) % 4)]
    state[:] = out


def _mix_columns(state: bytearray) -> None:
    for c in range(4):
        a = state[4 * c:4 * c + 4]
        t = a[0] ^ a[1] ^ a[2] ^ a[3]
        out = bytearray(4)
        for i in range(4):
            out[i] = a[i] ^ t ^ xtime(a[i] ^ a[(i + 1) % 4])
        state[4 * c:4 * c + 4] = out


def _add_round_key(state: bytearray, rk: bytes) -> None:
    for i in range(16):
        state[i] ^= rk[i]


def aes128_encrypt(plaintext: bytes, key: bytes) -> bytes:
    if len(plaintext) != 16:
        raise ValueError(f"plaintext must be 16 bytes, got {len(plaintext)}")
    rks = key_schedule(key)
    state = bytearray(plaintext)
    _add_round_key(state, rks[0])
    for rnd in range(1, 10):
        _sub_bytes(state)
        _shift_rows(state)
        _mix_columns(state)
        _add_round_key(state, rks[rnd])
    _sub_bytes(state)
    _shift_rows(state)
    _add_round_key(state, rks[10])
    return bytes(state)


# --- interesting points -------------------------------------------------------

POINT_FUNCTIONS = {
    "xor_key": lambda p, k: p ^ k,
    "sbox_out": lambda p, k: SBOX[p ^ k],
    "sbox_out_times2": lambda p, k: xtime(SBOX[p ^ k]),
}

POINT_LABELS = tuple(POINT_FUNCTIONS)


def first_round_value(p: int, k: int, point: str) -> int:
    """First-round intermediate for one plaintext/key byte pair."""
    try:
        fn = POINT_FUNCTIONS[point]
    except KeyError:
        raise ValueError(
            f"unknown interesting point '{point}', expected one of {sorted(POINT_FUNCTIONS)}"
        ) from None
    if not (0 <= p <= 0xFF and 0 <= k <= 0xFF):
        raise ValueError("p and k must be single bytes")
    return fn(p, k)


def gen_oracle(plaintexts, key: bytes, point: str, byte_index: int = 0) -> OracleTrace:
    """Oracle trace of a first-round point over a batch of plaintexts."""
    pts = list(plaintexts)
    if len(pts) < 2:
        raise ValueError(f"need at least 2 plaintexts, got {len(pts)}")
    if not 0 <= byte_index < 16:
        raise ValueError(f"byte_index {byte_index} out of range")
    k = key[byte_index]
    values = tuple(first_round_value(int(pt[byte_index]), k, point) for pt in pts)
    return OracleTrace(values=values, width=8, label=f"{point}_b{byte_index}")


def all_first_round_oracles(plaintexts, key: bytes) -> list[OracleTrace]:
    """One oracle per (point, byte index); the usual analysis input."""
    return [
        gen_oracle(plaintexts, key, point, b)
        for point in POINT_LABELS
        for b in range(16)
    ]


# --- block files ---------------------------------------------------------------

_HEX_DIGITS = np.frombuffer(b"0123456789abcdef", dtype=np.uint8)
_PIECE_BYTES = 1 << 16  # decoded bytes moved from the line buffer at a time


def read_blocks_hex(path) -> np.ndarray:
    """Hex block file as a (blocks, 16) uint8 array: one 32-hex-char block
    per line, blank/# lines skipped. Decoded lines go to a small buffer that
    is moved to a piece every 64 KiB, and the pieces are joined once: no
    per-line object outlives its line, and no buffer grows with the file
    (one that did read up to 4 MB more peak RSS in `simulate --plaintexts`)."""
    pieces, buf = [], bytearray()
    with open(path) as f:
        for i, line in enumerate(f, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                block = bytes.fromhex(line)
            except ValueError:
                raise ValueError(f"{path}: bad hex at line {i}") from None
            if len(block) != 16:
                raise ValueError(f"{path}: line {i} is {len(block)} bytes, expected 16")
            buf += block
            if len(buf) >= _PIECE_BYTES:
                pieces.append(bytes(buf))
                buf.clear()
    pieces.append(bytes(buf))
    return np.frombuffer(bytearray().join(pieces), dtype=np.uint8).reshape(-1, 16)


def write_blocks_hex(path, blocks) -> None:
    """Write (N, 16) uint8 blocks as lowercase hex, one block per line."""
    blocks = np.asarray(blocks, dtype=np.uint8)
    text = np.empty((len(blocks), 33), dtype=np.uint8)
    text[:, 0:32:2] = _HEX_DIGITS[blocks >> 4]
    text[:, 1:32:2] = _HEX_DIGITS[blocks & 15]
    text[:, 32] = ord("\n")
    with open(path, "wb") as f:
        f.write(text)
