"""Keyed data/address obfuscation used by the hardened pipeline model.

The core primitive is a 4-round Feistel network over 32-bit words. Each round
mixes the 16-bit right half with a 16-bit round key through a fixed affine map
over GF(2): ``Y = A @ (R || K) xor C`` where ``A`` is a 16x32 binary matrix and
``C`` a 16-bit constant. Keys are drawn from a 64-bit Fibonacci LFSR, 64 bits
(4 x 16) per key epoch. Addresses are obfuscated on their tag/set-index bits
only; cache line offset bits pass through unchanged so line-internal layout is
preserved.

Every round is affine over GF(2) in the word and the keys jointly, so the
network has the closed form ``obfuscate32(x, k) = L·x ⊕ K(k)``: a fixed
invertible 32x32 matrix ``L`` and the key constant ``K(k) = N·k ⊕ c``. Within
one key epoch ``obfuscate32(x1) ⊕ obfuscate32(x2) = L·(x1 ⊕ x2)`` does not
depend on the key, and re-keying any stored word from ``k`` to ``k'`` is one
XOR with ``K(k) ⊕ K(k')``.

Scalar entry points run the rounds one by one on plain ints; they are the
reference. The ``*_vec`` variants (the batch simulator's path) evaluate the
closed form on numpy arrays by table lookups, with tables read off the scalar
reference the first time a spec is used. They take the key only as a
``KeyConstant``: ``K(k)`` per element, computed once per key epoch by
``KeyConstant.of`` from the round keys, and carrying its spec's tables.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

MASK16 = 0xFFFF
MASK32 = 0xFFFFFFFF
MASK64 = (1 << 64) - 1

#: Fibonacci right-shift taps for x^64 + x^63 + x^61 + x^60 + 1
#: (feedback = parity of state bits {0, 1, 3, 4}).
DEFAULT_TAPS = 0x1B

AFFINE_VERSION = "v1"


class ObfuscationError(ValueError):
    pass


@dataclass(frozen=True)
class AffineSpec:
    """Parameters of the per-round affine map.

    ``rows[i]`` is a 32-bit mask over the input vector ``(R << 16) | K``;
    output bit i is the parity of the masked input, xored with bit i of
    ``const``.
    """

    rows: tuple[int, ...]
    const: int
    version: str = AFFINE_VERSION
    _tables: tuple = field(default=None, repr=False, compare=False)
    _closed: "_ClosedForm" = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if len(self.rows) != 16:
            raise ObfuscationError(f"affine matrix needs 16 rows, got {len(self.rows)}")
        for i, row in enumerate(self.rows):
            if not 0 <= row <= MASK32:
                raise ObfuscationError(f"row {i} out of 32-bit range")
        if not 0 <= self.const <= MASK16:
            raise ObfuscationError("constant out of 16-bit range")
        object.__setattr__(self, "_tables", _build_byte_tables(self.rows))

    def to_json(self) -> str:
        return json.dumps(
            {
                "version": self.version,
                "rows": [f"{r:08x}" for r in self.rows],
                "const": f"{self.const:04x}",
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "AffineSpec":
        try:
            obj = json.loads(text)
            rows = tuple(int(r, 16) for r in obj["rows"])
            const = int(obj["const"], 16)
            version = obj.get("version", "custom")
        except (KeyError, ValueError, TypeError) as exc:
            raise ObfuscationError(f"bad affine spec document: {exc}") from exc
        return cls(rows=rows, const=const, version=version)


def _build_byte_tables(rows):
    """Per-byte lookup tables (Python ints) for the linear part of the affine map.

    A @ v over GF(2) decomposes as the xor of four byte-indexed tables, which
    turns the map into 4 lookups + xors. Column b of A has bit i set when row
    i has bit b.
    """
    columns = [sum(((row >> b) & 1) << i for i, row in enumerate(rows)) for b in range(32)]
    return tuple(tab.tolist() for tab in _span_tables(columns, np.uint32))


_DEFAULT_SPEC = None


def default_spec() -> AffineSpec:
    """The versioned default affine parameters shipped with the package."""
    global _DEFAULT_SPEC
    if _DEFAULT_SPEC is None:
        from importlib import resources

        text = resources.files("leakscope").joinpath("data/affine_v1.json").read_text()
        _DEFAULT_SPEC = AffineSpec.from_json(text)
    return _DEFAULT_SPEC


@dataclass(frozen=True)
class RoundKeys:
    """Four 16-bit Feistel round keys."""

    keys: tuple[int, int, int, int]

    def __post_init__(self):
        if len(self.keys) != 4:
            raise ObfuscationError("exactly 4 round keys required")
        for k in self.keys:
            if not 0 <= k <= MASK16:
                raise ObfuscationError("round key out of 16-bit range")


@dataclass(frozen=True)
class Lfsr:
    """64-bit Fibonacci LFSR with the ``DEFAULT_TAPS`` feedback."""

    state: int

    def __post_init__(self):
        if self.state == 0:
            raise ObfuscationError("LFSR state must be non-zero")
        if not 0 < self.state < (1 << 64):
            raise ObfuscationError("LFSR state must fit in 64 bits")


@dataclass(frozen=True)
class AddressGeometry:
    """Split of a physical address into (tag || set index) and line offset."""

    address_width: int
    offset_bits: int

    def __post_init__(self):
        if self.offset_bits < 1:
            raise ObfuscationError("offset_bits must be >= 1")
        if self.tagset_bits != 32:
            raise ObfuscationError(
                f"address_width - offset_bits must be 32, got {self.tagset_bits}"
            )

    @property
    def tagset_bits(self) -> int:
        return self.address_width - self.offset_bits

    @property
    def offset_mask(self) -> int:
        return (1 << self.offset_bits) - 1


def affine_f(r: int, k: int, spec: AffineSpec) -> int:
    """Round function: 16-bit output of A @ ((r<<16)|k) xor C."""
    v = ((r & MASK16) << 16) | (k & MASK16)
    t0, t1, t2, t3 = spec._tables
    return t0[v & 0xFF] ^ t1[(v >> 8) & 0xFF] ^ t2[(v >> 16) & 0xFF] ^ t3[v >> 24] ^ spec.const


def obfuscate32(x: int, keys: RoundKeys, spec: AffineSpec | None = None) -> int:
    """Forward 4-round Feistel; no swap after the last round."""
    spec = spec or default_spec()
    left = (x >> 16) & MASK16
    right = x & MASK16
    for k in keys.keys:
        left, right = right, left ^ affine_f(right, k, spec)
    return (left << 16) | right


def deobfuscate32(y: int, keys: RoundKeys, spec: AffineSpec | None = None) -> int:
    """Inverse of obfuscate32: same network, keys in reverse order.

    With the no-final-swap convention the inverse is the forward network
    conjugated by a half swap.
    """
    spec = spec or default_spec()
    left = y & MASK16
    right = (y >> 16) & MASK16
    for k in reversed(keys.keys):
        left, right = right, left ^ affine_f(right, k, spec)
    return (right << 16) | left


def obfuscate64(x: int, keys: RoundKeys, spec: AffineSpec | None = None) -> int:
    """64-bit payloads are obfuscated as two independent 32-bit halves."""
    spec = spec or default_spec()
    return (obfuscate32(x >> 32, keys, spec) << 32) | obfuscate32(x & MASK32, keys, spec)


def deobfuscate64(y: int, keys: RoundKeys, spec: AffineSpec | None = None) -> int:
    spec = spec or default_spec()
    return (deobfuscate32(y >> 32, keys, spec) << 32) | deobfuscate32(y & MASK32, keys, spec)


def obfuscate_address(a: int, geom: AddressGeometry, keys: RoundKeys,
                      spec: AffineSpec | None = None) -> int:
    """Encrypt tag and set-index bits of an address, keep offset bits."""
    if not 0 <= a < (1 << geom.address_width):
        raise ObfuscationError(
            f"address {a:#x} exceeds {geom.address_width}-bit geometry"
        )
    tagset = a >> geom.offset_bits
    return (obfuscate32(tagset, keys, spec) << geom.offset_bits) | (a & geom.offset_mask)


def deobfuscate_address(a_prime: int, geom: AddressGeometry, keys: RoundKeys,
                        spec: AffineSpec | None = None) -> int:
    if not 0 <= a_prime < (1 << geom.address_width):
        raise ObfuscationError(
            f"address {a_prime:#x} exceeds {geom.address_width}-bit geometry"
        )
    tagset = a_prime >> geom.offset_bits
    return (deobfuscate32(tagset, keys, spec) << geom.offset_bits) | (a_prime & geom.offset_mask)


def remap(d_prime: int, old: RoundKeys, new: RoundKeys,
          spec: AffineSpec | None = None) -> int:
    """Re-encrypt a stored word from the old key epoch to the new one."""
    return obfuscate32(deobfuscate32(d_prime, old, spec), new, spec)


@functools.cache
def _draw_tables() -> tuple[tuple[int, ...], ...]:
    """Byte tables of one epoch's draw: entry v of table j is ``keys << 64 |
    next state`` for the state whose byte j is v and every other byte 0.

    Draw t of an epoch is state bit t (the bits shifted in reach bit 0 only
    after 64 steps), so the keys are the state's 16-bit slices bit-reversed,
    and the state 64 steps on is linear over GF(2) in the state: both are
    XORs of the single-bit images, and one epoch is eight lookups.
    """
    images = []
    for j in range(64):
        state = 1 << j
        for _ in range(64):
            fb = (state & DEFAULT_TAPS).bit_count() & 1
            state = (state >> 1) | (fb << 63)
        # draw j is bit 15 - j % 16 of key j // 16; key 0 is the top slice
        images.append(1 << (64 + 16 * (3 - j // 16) + 15 - j % 16) | state)
    tables = []
    for j in range(8):
        table = [0]
        for col in images[8 * j:8 * j + 8]:
            table += [v ^ col for v in table]
        tables.append(tuple(table))
    return tuple(tables)


def next_round_keys(lfsr: Lfsr) -> tuple[RoundKeys, Lfsr]:
    """Draw 64 bits and split them into four 16-bit round keys.

    Bits go into each key MSB-first in draw order; the returned LFSR is the
    state after the 64 draws. ``tests/reference.py`` steps the LFSR one bit
    at a time as the oracle of this 64-step jump.
    """
    state, drawn = lfsr.state, 0
    for j, table in enumerate(_draw_tables()):
        drawn ^= table[state >> 8 * j & 0xFF]
    keys = drawn >> 64
    return (RoundKeys((keys >> 48, keys >> 32 & MASK16, keys >> 16 & MASK16, keys & MASK16)),
            Lfsr(state=drawn & MASK64))


def lfsr_from_seed(seed: int) -> Lfsr:
    """Build a dense non-zero LFSR state from an arbitrary integer seed."""
    digest = hashlib.sha256(b"leakscope-lfsr:" + seed.to_bytes(16, "big", signed=True)).digest()
    state = int.from_bytes(digest[:8], "big")
    if state == 0:  # 2^-64 corner, but the constructor forbids it
        state = 1
    return Lfsr(state=state)


# ---------------------------------------------------------------------------
# vectorized variants (per-element key constants): the closed form


class _ClosedForm(NamedTuple):
    """Tables of ``obfuscate32(x, k) = L·x ⊕ N·k ⊕ c`` for one spec.

    Row j of a word table maps byte j of a little-endian word, and a matrix
    product is the XOR of the rows' lookups. Row r of ``key`` maps round key r+1.
    """

    fwd32: np.ndarray   # (4, 256) uint32: L
    fwd64: np.ndarray   # (8, 256) uint64: L on both halves
    inv32: np.ndarray   # (4, 256) uint32: L⁻¹
    inv64: np.ndarray   # (8, 256) uint64: L⁻¹ on both halves
    key: np.ndarray     # (4, 65536) uint32: N
    const: int          # c = obfuscate32(0, 0)


def _span_tables(columns, dtype, bits=8):
    """Row j, entry v: XOR of ``columns[bits*j + t]`` over the set bits t of v."""
    tabs = np.zeros((len(columns) // bits, 1 << bits), dtype=dtype)
    for j in range(len(tabs)):
        for t in range(bits):
            tabs[j, 1 << t:2 << t] = tabs[j, :1 << t] ^ dtype(columns[bits * j + t])
    return tabs


def _derive_closed_form(spec: AffineSpec) -> _ClosedForm:
    """Read L, L⁻¹ and N off the scalar reference at unit vectors.

    With ``obf(x, k) = L·x ⊕ N·k ⊕ c``: ``L·eᵢ = obf(eᵢ, 0) ⊕ c`` and
    ``N·eⱼ = obf(0, eⱼ) ⊕ c``; likewise ``L⁻¹·eᵢ = deobf(eᵢ, 0) ⊕ deobf(0, 0)``.
    """
    zero = RoundKeys((0, 0, 0, 0))
    c = obfuscate32(0, zero, spec)
    c_inv = deobfuscate32(0, zero, spec)
    lin = [obfuscate32(1 << i, zero, spec) ^ c for i in range(32)]
    lin_inv = [deobfuscate32(1 << i, zero, spec) ^ c_inv for i in range(32)]
    # unit key vector j: bit j % 16 of round key j // 16
    key = [obfuscate32(0, RoundKeys(tuple((1 << j >> 16 * r) & MASK16 for r in range(4))),
                       spec) ^ c
           for j in range(64)]

    def both_halves(cols):
        tabs = _span_tables(cols, np.uint64)
        return np.concatenate([tabs, tabs << np.uint64(32)])

    return _ClosedForm(fwd32=_span_tables(lin, np.uint32), fwd64=both_halves(lin),
                      inv32=_span_tables(lin_inv, np.uint32), inv64=both_halves(lin_inv),
                      key=_span_tables(key, np.uint32, bits=16), const=c)


def _closed_form(spec: AffineSpec | None) -> _ClosedForm:
    """The spec's closed form, derived on first use and kept on the spec."""
    spec = spec or default_spec()
    if spec._closed is None:
        object.__setattr__(spec, "_closed", _derive_closed_form(spec))
    return spec._closed


def _apply(tables, words):
    """XOR of ``tables[j][byte j of each word]`` over words of len(tables) bytes.

    Every table maps byte 0 to 0, so a byte position that is 0 in every word
    adds nothing and is not looked up: a byte value costs one lookup.
    """
    words = np.asarray(words, dtype=f"<u{len(tables)}")
    by = np.ascontiguousarray(words).view(np.uint8).reshape(words.shape + (len(tables),))
    present = int(np.bitwise_or.reduce(words, axis=None))
    # ndarray.take is faster than fancy indexing by uint8 arrays
    out = tables[0].take(by[..., 0])
    for j in range(1, len(tables)):
        if present >> 8 * j & 0xFF:
            out ^= tables[j].take(by[..., j])
    return out


@dataclass(frozen=True, eq=False)
class KeyConstant:
    """``K(k) = N·k ⊕ c = obfuscate32(0, k)`` of one key epoch, computed once,
    with the closed-form tables of the spec it was computed under.

    This is the only key form the ``*_vec`` functions take. Indexing selects
    elements like the arrays it holds.
    """

    k32: np.ndarray     # K(k), uint32
    k64: np.ndarray     # K(k) in both 32-bit halves, uint64
    cf: _ClosedForm

    @classmethod
    def of(cls, keys, spec: AffineSpec | None = None) -> "KeyConstant":
        """From ``RoundKeys`` or four round keys (ints or arrays, taken modulo
        2^16); per-element key arrays broadcast."""
        ks = keys.keys if isinstance(keys, RoundKeys) else keys
        if len(ks) != 4:
            raise ObfuscationError("exactly 4 round keys required")
        cf = _closed_form(spec)
        k32 = np.uint32(cf.const)
        for table, k in zip(cf.key, ks):
            k32 = k32 ^ table[np.asarray(k, dtype=np.uint32) & np.uint32(MASK16)]
        return cls(k32, k32.astype(np.uint64) * np.uint64(0x1_0000_0001), cf)

    def __getitem__(self, index) -> "KeyConstant":
        return KeyConstant(self.k32[index], self.k64[index], self.cf)


def obfuscate32_vec(x, kc: KeyConstant):
    """obfuscate32 on a uint32 numpy array: ``L·x ⊕ K(k)``."""
    return _apply(kc.cf.fwd32, x) ^ kc.k32


def deobfuscate32_vec(y, kc: KeyConstant):
    """Inverse of obfuscate32_vec: ``L⁻¹·(y ⊕ K(k))``."""
    return _apply(kc.cf.inv32, np.asarray(y, dtype=np.uint32) ^ kc.k32)


def obfuscate64_vec(x, kc: KeyConstant):
    """obfuscate64 (two independent 32-bit halves) on a uint64 array."""
    return _apply(kc.cf.fwd64, x) ^ kc.k64


def deobfuscate64_vec(y, kc: KeyConstant):
    """Inverse of obfuscate64_vec."""
    return _apply(kc.cf.inv64, np.asarray(y, dtype=np.uint64) ^ kc.k64)
