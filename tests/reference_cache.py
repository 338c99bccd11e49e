"""A one-lane data cache on Python ints: the oracle of ``Machine.cache_access``.

It is written from the README's cache model, not from
``leakscope.sim.machine``, and shares none of its code. Each set keeps its
ways explicitly, as a tag, a flags value (bit 0 valid, bit 1 dirty) and a
line of eight payload words per way, plus a round-robin replacement counter
that the caller starts from the machine's initial draw. Lookups take the
first valid way whose tag matches; a miss fills the way its set's counter
names and advances the counter, after writing a dirty victim's line back to
memory. A poke writes a raw line to memory and drops the lane's cached copy,
valid or dirty, without writing it back; re-keying writes every dirty line
back under the old keys, then drops every line. In param mode the tag/set
bits of every address and every payload word go through the scalar Feistel
reference, one word at a time: payloads are stored obfuscated, and memory
holds raw words.
"""

from __future__ import annotations

from leakscope.feistel import deobfuscate32, deobfuscate64, obfuscate32, obfuscate64


class OneLaneCache:
    """One lane's cache of ``geom`` shape over a memory of raw 64-byte
    lines, ``memory[line address] = [eight raw words]`` (absent: zeros).
    ``keys`` are the lane's ``RoundKeys`` in param mode, None in baseline."""

    def __init__(self, geom, counters, keys=None):
        self.geom = geom
        self.keys = keys
        self.counters = [int(c) for c in counters]
        self.tags = [[0] * geom.ways for _ in range(geom.sets)]
        self.flags = [[0] * geom.ways for _ in range(geom.sets)]
        self.lines = [[[0] * 8 for _ in range(geom.ways)] for _ in range(geom.sets)]
        self.memory: dict[int, list[int]] = {}
        self.write_backs = 0

    def _stored(self, word: int) -> int:
        return word if self.keys is None else obfuscate64(word, self.keys)

    def _raw(self, word: int) -> int:
        return word if self.keys is None else deobfuscate64(word, self.keys)

    def _find(self, addr: int):
        """(set, tag, way holding the line at ``addr`` or None)."""
        g = self.geom
        tagset = addr >> 6
        if self.keys is not None:
            tagset = obfuscate32(tagset, self.keys)
        s, tag = tagset & (g.sets - 1), tagset >> g.set_bits
        way = next((w for w in range(g.ways)
                    if self.flags[s][w] & 1 and self.tags[s][w] == tag), None)
        return s, tag, way

    def _write_back(self, s: int, way: int) -> None:
        victim = self.tags[s][way] << self.geom.set_bits | s
        if self.keys is not None:
            victim = deobfuscate32(victim, self.keys)
        self.memory[victim << 6] = [self._raw(w) for w in self.lines[s][way]]
        self.write_backs += 1

    def poke(self, line_addr: int, words) -> None:
        """Write eight raw words at ``line_addr``; a cached copy is dropped."""
        self.memory[line_addr] = list(words)
        s, _, way = self._find(line_addr)
        if way is not None:
            self.flags[s][way] = 0

    def rekey(self, keys) -> None:
        """Write dirty lines back, drop every line, then take ``keys``."""
        for s in range(self.geom.sets):
            for way in range(self.geom.ways):
                if self.flags[s][way] == 3:
                    self._write_back(s, way)
                self.flags[s][way] = 0
        self.keys = keys

    def access(self, addr: int, op: str, data: int | None = None, size: int = 8):
        """(hit, loaded raw value) of one load, (hit, None) of one store."""
        g = self.geom
        s, tag, way = self._find(addr)
        hit = way is not None
        if not hit:
            way = self.counters[s]
            self.counters[s] = (way + 1) % g.ways
            if self.flags[s][way] == 3:   # valid and dirty: write the victim back
                self._write_back(s, way)
            fill = self.memory.get(addr >> 6 << 6, [0] * 8)
            self.lines[s][way] = [self._stored(w) for w in fill]
            self.tags[s][way] = tag
            self.flags[s][way] = 1
        words = self.lines[s][way]
        i, shift = (addr >> 3) & 7, (addr & 7) * 8
        raw = self._raw(words[i])
        if op == "load":
            return hit, raw if size == 8 else raw >> shift & 0xFF
        if size == 8:
            raw = data
        else:
            raw = raw & ~(0xFF << shift) | (data & 0xFF) << shift
        words[i] = self._stored(raw)
        self.flags[s][way] = 3
        return hit, None
