"""Vectorized model of a 5-stage in-order core with a write-back data cache.

One Machine instance models N independent processor lanes executing the same
straight-line micro-op program in lockstep; the lane axis is how a batch of
benchmark runs with different inputs is simulated at once. Timing is
data-independent by construction: one op issues per cycle and op ``i``
occupies ID at cycle ``i+1``, EX at ``i+2``, MEM at ``i+3`` and WB at ``i+4``
(hits and misses take the same time; miss handling is modeled as same-cycle
state updates). Cycle counts therefore never depend on data or on the
protection mode.

Power is the Hamming-distance register-toggle model: every state-element
write contributes popcount(old xor new) to its cycle. The modeled state
elements are the leak surfaces: register file, physical register file
(forwarding and miss fills), the three pipeline buffers, ALU operand/result
latches, the EDA-translation shadow registers in FPU/MulDiv/BPU, the status
word, and the cache subsystem (tag/flag/data arrays, line buffer, hit
buffer).

Every 64-bit state element is one row of a single (rows, n_lanes) uint64
table, ``Machine.regs``, in catalog order: the register file ``core.rf.r0``
to ``r31`` (rows 0-31), the physical register file ``core.prf.p0`` to ``p7``
(rows 32-39), the eleven ``SCALAR_ELEMENTS`` (rows 40-50) and the request
address latch ``dcache.arrays.addr`` (row 51). Each write goes through one
latch that counts the row's toggles and logs the lanes it changed. The
512-bit line buffer and the cache arrays keep their own layouts.

In ``param`` mode every stored payload is in obfuscated form and cache
lookups use the obfuscated address; deobfuscation happens only where an
operation consumes the value, which in this model is the functional
evaluation inside the execute/memory stages.

The cache costs a lane only the sets it fills. Each (set, lane) pair takes
a set row on the lane's first fill in that set, ``row_of[set * n_lanes +
lane]``, and keeps it for the life of the machine; entry (row, way) is cell
``row * ways + way`` of three compact arrays, ``tags`` (uint32), ``flags`` (uint8, bit 0
valid and bit 1 dirty: the value of the entry's 2-bit ``f{s}_{w}`` element)
and ``slots`` (int32), which grow by doubling as rows are handed out. Row 0
is the empty set that every (set, lane) starts on: its ways are never
written, so a lookup in a set the lane has not filled misses like any other.
An entry's 512-bit payload is row ``slots[cell]`` of a line pool that grows
the same way. Pool row 0 is the all-zero line of every entry that has never
been written, and an entry keeps its pool row for the life of the machine,
so an invalidated line's stale payload stays in place for the next refill to
toggle against. Backing memory holds a line poked with the same bytes on
every lane once, as a shared (1, 8) line, and gives it a per-lane (n_lanes,
8) copy on its first per-lane write.

The replacement counters start from one read-only draw per (seed, sets,
ways, n_lanes), made once per process; each machine copies it.
"""

from __future__ import annotations

import functools

import numpy as np

from ..feistel import (
    KeyConstant,
    deobfuscate32_vec,
    deobfuscate64_vec,
    obfuscate32_vec,
    obfuscate64_vec,
)
from .config import SimConfig
from .program import MicroOp

class SimError(RuntimeError):
    pass


SCALAR_ELEMENTS = (
    ("core.id_exe.payload", 64),
    ("core.exe_mem.payload", 64),
    ("core.mem_wb.payload", 64),
    ("core.alu.op_a", 64),
    ("core.alu.op_b", 64),
    ("core.alu.res", 64),
    ("core.fpu.shadow", 64),
    ("core.muldiv.shadow", 64),
    ("core.bpu.shadow", 64),
    ("core.csr.status", 64),
    ("dcache.hb.word", 64),
)

N_PRF = 8

# 0-d tag/set lookups a machine remembers; the AES program reads 4 to 7 lines
# at fixed addresses
_MAX_PROBES = 8

# names of the rows of ``Machine.regs``, in catalog order
REG_ROWS = (tuple(f"core.rf.r{i}" for i in range(32))
            + tuple(f"core.prf.p{i}" for i in range(N_PRF))
            + tuple(name for name, _ in SCALAR_ELEMENTS)
            + ("dcache.arrays.addr",))
PRF = 32
(ID_EXE, EXE_MEM, MEM_WB, OP_A, OP_B, RES,
 FPU_SHADOW, MULDIV_SHADOW, BPU_SHADOW, STATUS, HB, ADDR) = range(PRF + N_PRF, len(REG_ROWS))
SHADOWS = (FPU_SHADOW, MULDIV_SHADOW, BPU_SHADOW)
# catalog indices: regs row r is element r, but the address latch follows
# the line buffer; the tag, flags and data of cache entry (s, w) are
# elements CELL_ELEM + 3 * (s * ways + w) + 0, 1 and 2
LB_ELEM = ADDR
REG_ELEMS = (*range(ADDR), ADDR + 1)
CELL_ELEM = ADDR + 2


def element_catalog(cfg: SimConfig) -> list[tuple[str, int]]:
    """Every modeled state element with its width, VCD declaration order."""
    geom = cfg.cache
    cat = [(name, 64) for name in REG_ROWS[:ADDR]]
    cat.append(("dcache.lb.line", 512))
    cat.append((REG_ROWS[ADDR], geom.address_width))
    tag_bits = 32 - geom.set_bits
    for s in range(geom.sets):
        for w in range(geom.ways):
            cat.append((f"dcache.arrays.t{s}_{w}", tag_bits))
            cat.append((f"dcache.arrays.f{s}_{w}", 2))
            cat.append((f"dcache.arrays.d{s}_{w}", 512))
    return cat


class BatchLog:
    """One batch's change log: the machine's state at run start and, per
    write, (cycle, order, element, changed lanes, their new values). Order
    counts the run's writes; the element is a catalog index, one for every
    lane or one per changed lane. ``writes[0]`` holds writes of at most 64
    bits, ``writes[1]`` line writes. Per-lane cycle logs are read from it."""

    def __init__(self, machine, n_cycles):
        self.cfg = machine.cfg
        self.n_lanes = machine.n
        self.n_cycles = n_cycles
        self.initial_regs = machine.regs.copy()
        self.initial_lb = machine.lb.copy()
        # (row_of, tags, flags, slots, lines) copies: the entry at cell c held
        # the payload lines[slots[c]] at run start
        self.initial_cache = machine._cache_snapshot()
        self.writes = ([], [])
        self.n_writes = 0
        self.change_table = None   # built by the first cyclelog.extract_cycle_log

    def record(self, cycle, elem, changed, new):
        """Log a write at ``cycle`` to element ``elem`` (an int, or an array
        with one per lane): ``new`` holds every lane's new value, (n_lanes,)
        words or (n_lanes, 8) lines, and ``changed`` marks the lanes whose
        value it changed; only those are kept."""
        if not isinstance(elem, int):
            elem = elem[changed]
        self.writes[new.ndim - 1].append((cycle, self.n_writes, elem, changed, new[changed]))
        self.n_writes += 1

    def start(self, lane):
        """((elements, words) narrow, (elements, lines) wide) of one lane's
        state at run start: the regs rows, each cache entry's tag and flags;
        the line buffer and each entry's data."""
        row_of, tags, flags, slots, pool = self.initial_cache
        ways = self.cfg.cache.ways
        # the lane's entries, in (set, way) order
        at = (row_of[lane::self.n_lanes, None] * ways + np.arange(ways)).reshape(-1)
        cells = CELL_ELEM + 3 * np.arange(len(at))
        words = np.r_[self.initial_regs[:, lane], tags[at], flags[at]]
        lines = np.concatenate((self.initial_lb[lane:lane + 1], pool[slots[at]]))
        return ((np.r_[REG_ELEMS, cells, cells + 1], words[:, None]),
                (np.r_[LB_ELEM, cells + 2], lines))


class Machine:
    def __init__(self, cfg: SimConfig, n_lanes: int, kc: KeyConstant | None = None):
        self.cfg = cfg
        self.n = n_lanes
        self.geom = cfg.cache
        self._lanes = np.arange(n_lanes)
        # K(k) per lane in param mode, one key epoch per lane; None in baseline
        self.kc = self._lane_constant(kc) if cfg.param_mode else None

        n = n_lanes
        g = self.geom
        self.arch_rf = np.zeros((32, n), dtype=np.uint64)  # functional mirror
        # every 64-bit state element, one row each in REG_ROWS order; rows
        # hold datapath (obfuscated in param mode) values
        self.regs = np.zeros((len(REG_ROWS), n), dtype=np.uint64)
        # lanes of each row, and of the line buffer, written since reset
        self._written = np.zeros((len(REG_ROWS) + 1, n), dtype=bool)
        self._prf_ptr = 0  # PRF slot the next forward or load fill takes
        # rows that hold datapath words, deobfuscated together: all but the
        # address latch, and the shadows while the EDA fix hardwires them to
        # a constant
        self._datapath_rows = np.array(
            [r for r in range(ADDR) if not (cfg.eda_fix_on and r in SHADOWS)])
        self.lb = np.zeros((n, 8), dtype=np.uint64)
        # (set, lane) -> its set row, 0 until its first fill; the set row r
        # holds cells r * ways .. r * ways + ways - 1 of tags, flags and
        # slots, and _row_key[r] = set * n_lanes + lane. A tag has 32 -
        # set_bits bits, and flags are valid | dirty << 1.
        self._max_set_rows = g.sets * n + 1
        # pool rows are handed out on an entry's first write and never
        # freed, so at most one per entry plus the zero row is ever needed
        self._max_lines = g.sets * g.ways * n + 1
        if self._max_set_rows * g.ways > np.iinfo(np.int32).max:
            raise SimError(f"{n} lanes need more cache cells than int32 indexes address")
        self.row_of = np.zeros(g.sets * n, dtype=np.int32)
        self._row_key = np.zeros(n + 1, dtype=np.int32)
        self.tags = np.zeros((n + 1) * g.ways, dtype=np.uint32)
        self.flags = np.zeros((n + 1) * g.ways, dtype=np.uint8)
        self.slots = np.zeros((n + 1) * g.ways, dtype=np.int32)   # payload: pool[slots[c]]
        self._set_rows = 1   # set rows in use; row 0 stays empty
        self.pool = np.zeros((n + 1, 8), dtype=np.uint64)
        self._lines = 1   # pool rows in use; row 0 stays all zero
        # line address -> raw line: (1, 8) when every lane holds the same
        # bytes, else (n_lanes, 8)
        self.backing: dict[int, np.ndarray] = {}
        # way the next miss in (set, lane) fills, always < ways, at
        # set * n_lanes + lane
        self.repl = _repl_draw(cfg.seed, g.sets, g.ways, n).copy()

        # while a program runs, the rows of its (cycles, n) uint16 toggle
        # accumulator, row c taking cycle c
        self._acc = None
        self._log = None
        self._lb_cells = np.full(n, -1, dtype=np.intp)  # entries whose lines lb holds, -1: none
        # 0-d tag/set -> (key constant, latched uint32 tag/set, int32 cells,
        # int32 first element of each lane's entry) of its last lookup
        self._probes: dict[int, tuple] = {}

    def _lane_constant(self, kc):
        if not isinstance(kc, KeyConstant) or np.shape(kc.k32) != (self.n,):
            raise SimError("param mode needs a KeyConstant of the per-lane round keys, "
                           f"shape ({self.n},)")
        return kc

    # --- datapath-domain transforms ---------------------------------------

    # A 0-d ``raw`` (an immediate, r0) costs one table lookup, broadcast
    # against the per-lane key constant.

    def dp64(self, raw):
        if self.kc is None:
            return np.asarray(raw, dtype=np.uint64)
        return obfuscate64_vec(raw, self.kc)

    def inv64(self, val):
        if self.kc is None:
            return np.asarray(val, dtype=np.uint64)
        return deobfuscate64_vec(val, self.kc)

    def dp_tagset(self, tagset):
        if self.kc is None:
            return np.asarray(tagset, dtype=np.uint32)
        return obfuscate32_vec(tagset, self.kc)

    # --- power/log plumbing -------------------------------------------------

    def _count(self, cycle, elem, toggles, new):
        """Add per-lane ``toggles`` to ``cycle`` and log the lanes they mark
        as changed, with their values in ``new``, as writes to ``elem``."""
        if self._acc is not None:
            row = self._acc[cycle]
            np.add(row, toggles, out=row, casting="unsafe")
        if self._log is not None:
            self._log.record(cycle, elem, toggles.astype(bool), new)

    def _latch(self, row, new, cycle, written=True):
        """Write ``new`` (uint64 per lane, or one 0-d value for every lane)
        into ``regs[row]`` at ``cycle``; ``written`` marks the lanes that
        take a new value rather than keep their old one."""
        reg = self.regs[row]
        toggles = np.bitwise_count(reg ^ new)
        reg[:] = new
        # a fill when every lane takes ``new``, cheaper than ``|= True``
        self._written[row] = True if written is True else self._written[row] | written
        self._count(cycle, REG_ELEMS[row], toggles, reg)

    def _latch_lb(self, line, cycle, toggles=None):
        """Latch (n_lanes, 8) ``line`` into the line buffer as it is, not a
        copy; ``toggles`` are counted from the lines when not given."""
        if toggles is None:
            toggles = _row_toggles(self.lb, line)
        self.lb = line
        self._written[-1] = True
        self._count(cycle, LB_ELEM, toggles, line)

    # --- backing memory -------------------------------------------------------

    def _lane_line(self, image: dict, line_addr: int) -> np.ndarray:
        """The per-lane (n_lanes, 8) line at ``line_addr`` of an image, made
        from zeros or from the shared line there on first per-lane write."""
        arr = image.get(line_addr)
        if arr is None:
            arr = image[line_addr] = np.zeros((self.n, 8), dtype=np.uint64)
        elif arr.shape[0] != self.n:
            arr = image[line_addr] = np.repeat(arr, self.n, axis=0)
        return arr

    def _backing_lines(self, line_addr, lanes) -> np.ndarray:
        """Raw (k, 8) backing lines, row i at ``line_addr[i]`` as lane
        ``lanes[i]`` sees it: one gather over the distinct addresses' shared
        lines, then one masked copy per per-lane line."""
        uniq, inv = np.unique(line_addr, return_inverse=True)
        shared = np.zeros((len(uniq), 8), dtype=np.uint64)
        per_lane = []
        for i, u in enumerate(uniq):
            entry = self.backing.get(int(u))
            if entry is None:
                continue
            if entry.shape[0] == 1:
                shared[i] = entry[0]
            else:
                per_lane.append((i, entry))
        out = shared[inv]
        for i, entry in per_lane:
            mask = inv == i
            out[mask] = entry[lanes[mask]]
        return out

    def _check_span(self, addr: int, k: int) -> None:
        width = self.geom.address_width
        if addr < 0 or addr + k > 1 << width:
            raise SimError(f"bytes {addr:#x}..{addr + k:#x} are outside the "
                           f"{width}-bit address geometry")

    def poke_bytes(self, addr: int, data) -> None:
        """Write raw bytes into backing memory; stale cached copies dropped.

        ``data`` is bytes (stored once as shared lines, not copied per lane)
        or a (n_lanes, k) uint8 array. Whether the cache holds any valid line
        is checked once per call: on a cold cache no copy can be stale, so no
        line is looked up and the cache state is left as it is.
        """
        shared = isinstance(data, (bytes, bytearray))
        if shared:
            arr = np.frombuffer(data, dtype=np.uint8)[None, :]
        else:
            arr = np.asarray(data, dtype=np.uint8)
            if arr.shape[0] != self.n:
                raise SimError(f"per-lane poke needs {self.n} rows, got {arr.shape[0]}")
        end = addr + arr.shape[1]
        self._check_span(addr, end - addr)
        warm = bool(self.flags.any())
        for line_addr in range(addr >> 6 << 6, end, 64):
            lo, hi = max(addr, line_addr), min(end, line_addr + 64)
            if not shared:
                entry = self._lane_line(self.backing, line_addr)
            elif hi - lo == 64 or line_addr not in self.backing:
                entry = self.backing[line_addr] = np.zeros((1, 8), dtype=np.uint64)
            else:
                entry = self.backing[line_addr]
            view = entry.view(np.uint8).reshape(entry.shape[0], 64)
            view[:, lo - line_addr:hi - line_addr] = arr[:, lo - addr:hi - addr]
            if warm:
                self._invalidate_line(line_addr)

    def _invalidate_line(self, line_addr: int) -> None:
        *_, way, row = self._lookup(np.uint32(line_addr >> 6))
        hit = np.flatnonzero(way >= 0)
        self.flags[row[hit] * self.geom.ways + way[hit]] = 0

    def preset_register(self, idx: int, values) -> None:
        """Boot-time register preset: no power or log event is recorded."""
        if not 1 <= idx < 32:
            raise SimError(f"cannot preset register {idx}")
        values = np.asarray(values, dtype=np.uint64)
        self.arch_rf[idx] = values
        self.regs[idx] = self.dp64(values)
        self._written[idx] = True

    def peek_bytes(self, addr: int, k: int) -> np.ndarray:
        """Read k bytes per lane through the cache (deobfuscating) or backing."""
        self._check_span(addr, k)
        out = np.zeros((self.n, k), dtype=np.uint8)
        for line_addr in range(addr >> 6 << 6, addr + k, 64):
            lo, hi = max(addr, line_addr), min(addr + k, line_addr + 64)
            line = self._peek_line(line_addr).view(np.uint8).reshape(self.n, 64)
            out[:, lo - addr:hi - addr] = line[:, lo - line_addr:hi - line_addr]
        return out

    def _peek_line(self, line_addr: int) -> np.ndarray:
        raw = self._backing_lines(np.full(self.n, line_addr, dtype=np.uint64), self._lanes)
        *_, way, row = self._lookup(np.uint32(line_addr >> 6))
        hit = way >= 0
        if hit.any():
            raw[hit] = self._raw_lines(self._payload(row[hit] * self.geom.ways + way[hit]),
                                       self._lanes[hit])
        return raw

    def _raw_lines(self, lines, lanes):
        """Deobfuscate (k, 8) cached lines, row i held by lane ``lanes[i]``."""
        if self.kc is None:
            return lines
        return deobfuscate64_vec(lines, self.kc[lanes, None])

    def _dp_lines(self, lines, lanes):
        """Obfuscate (k, 8) raw lines, row i for lane ``lanes[i]``."""
        if self.kc is None:
            return lines
        return obfuscate64_vec(lines, self.kc[lanes, None])

    # --- the data cache ----------------------------------------------------------

    def _claim_rows(self, at, rows):
        """Give every (set, lane) key in ``at`` (distinct, ``set * n_lanes
        + lane``) whose set row in ``rows`` is the empty row 0 a set row of
        its own; returns ``rows`` with those filled in."""
        fresh = np.flatnonzero(rows == 0)
        if not fresh.size:
            return rows
        start, end = self._set_rows, self._set_rows + fresh.size
        ways, cap = self.geom.ways, self._max_set_rows
        self.tags, self.flags, self.slots = (_grown(a, start * ways, end * ways, cap * ways)
                                             for a in (self.tags, self.flags, self.slots))
        self._row_key = _grown(self._row_key, start, end, cap)
        self._row_key[start:end] = at[fresh]
        rows[fresh] = np.arange(start, end, dtype=np.int32)
        self.row_of[at[fresh]] = rows[fresh]
        self._set_rows = end
        return rows

    def _payload(self, cells):
        """The (k, 8) payloads of the entries at ``cells``."""
        return self.pool.take(self.slots.take(cells), axis=0)

    def _set_payload(self, cells, lines, word=slice(None)):
        """Store (k, 8) payloads, or (k,) words ``word`` of them, at distinct
        entries ``cells``; an entry still on the zero line gets a fresh pool
        row first."""
        slot = self.slots.take(cells)
        fresh = np.flatnonzero(slot == 0)
        if fresh.size:
            start = self._lines
            self._lines += fresh.size
            self.pool = _grown(self.pool, start, self._lines, self._max_lines)
            slot[fresh] = np.arange(start, self._lines, dtype=np.int32)
            self.slots[cells] = slot
        self.pool[slot, word] = lines

    def _cache_snapshot(self):
        """Copies of the cache state a ``BatchLog`` starts from."""
        used = self._set_rows * self.geom.ways
        return (self.row_of.copy(), self.tags[:used].copy(), self.flags[:used].copy(),
                self.slots[:used].copy(), self.pool[:self._lines].copy())

    def _lookup(self, tagset):
        """Per-lane lookup of architectural tag/set values.

        ``tagset`` is per lane or one 0-d value for every lane. Returns
        (lookup tag/set, set index, tag, way, set row); way is -1 on a miss,
        and the entry (row, way) is cell ``row * ways + way``. The set row is
        the empty row 0 where the lane has not filled the set.
        """
        g = self.geom
        tdp = np.broadcast_to(self.dp_tagset(tagset), (self.n,))
        set_idx = (tdp & np.uint32(g.sets - 1)).astype(np.intp)
        tag = tdp >> np.uint32(g.set_bits)
        row = self.row_of.take(set_idx * self.n + self._lanes)
        cells = row * g.ways + np.arange(g.ways)[:, None]  # (ways, n)
        match = ((self.flags.take(cells) & 1) != 0) & (self.tags.take(cells) == tag)
        return tdp, set_idx, tag, np.where(match.any(axis=0), match.argmax(axis=0), -1), row

    def _recall(self, key):
        """The remembered lookup of the 0-d tag/set ``key``: (latched
        tag/set, cells, elements, the cells' flags) if it was made under the
        current key constant and every lane's entry is still valid and holds
        its tag, else None. A tag/set is in at most one valid way of a set,
        since only a miss fills one, so such an entry is the hit."""
        probe = self._probes.get(key)
        if probe is None or probe[0] is not self.kc:
            return None
        _, tdp, cells, elem = probe
        flags = self.flags.take(cells)
        tag = tdp >> np.uint32(self.geom.set_bits)
        if (flags & 1).all() and np.array_equal(self.tags.take(cells), tag):
            return tdp, cells, elem, flags
        return None

    def _scatter_lines(self, cells, image: dict) -> None:
        """Write the raw lines cached at entries ``cells`` into a memory
        image, at the line address their tag and set bits deobfuscate to."""
        if not cells.size:
            return
        key = self._row_key.take(cells // self.geom.ways)   # set * n_lanes + lane
        lanes = key % self.n
        s = (key // self.n).astype(np.uint32)
        tagset = (self.tags[cells] << np.uint32(self.geom.set_bits)) | s
        if self.kc is not None:
            tagset = deobfuscate32_vec(tagset, self.kc[lanes])
        lines = self._raw_lines(self._payload(cells), lanes)
        addrs = tagset.astype(np.uint64) << np.uint64(6)
        for u in np.unique(addrs):
            sel = addrs == u
            self._lane_line(image, int(u))[lanes[sel]] = lines[sel]

    def cache_access(self, addr, op: str, data=None, size: int = 8, cycle: int = 0):
        """One lookup per lane; returns (hit mask, loaded raw value).

        In param mode the lookup uses the obfuscated address and all stored
        payloads are obfuscated per 32-bit word. On a miss the 64-byte line is
        staged through the line buffer; every access (hit or miss) latches the
        post-access line image into the line buffer and the critical word into
        the hit buffer.

        Writes that cannot change a value are skipped: a hit keeps its entry's
        tag, flags and line but for the word and dirty flag a store sets (an
        entry already valid and dirty keeps its flags too), and only missing
        lanes read and advance a replacement counter. Only accesses write
        payloads or the line buffer, so after an access to the same entries
        the line buffer holds their lines and toggles with them.

        A 0-d address (one for every lane) remembers its lookup, keyed by
        its tag/set and the key constant: the latched tag/set (uint32), each
        lane's cell and element (int32). The next access to that tag/set
        reuses it when one gather of the cells' flags and one of their tags
        show every lane's entry still valid with that tag; a fill, a poke or
        re-keying that moved or dropped the line fails that check and the
        access looks the line up again.
        """
        g = self.geom
        lanes = self._lanes
        if op not in ("load", "store"):
            raise SimError(f"bad cache op '{op}'")
        if op == "store" and data is None:
            raise SimError("store needs data")
        addr = np.asarray(addr, dtype=np.uint64)
        if int(addr.max(initial=0)) >= (1 << g.address_width):
            raise SimError(f"address beyond {g.address_width}-bit geometry")
        if size == 8 and (addr & np.uint64(7)).any():
            raise SimError("unaligned 8-byte access")

        tagset = (addr >> np.uint64(g.offset_bits)).astype(np.uint32)
        # a 0-d address (one for every lane) reuses its last lookup while
        # every lane still holds the line there
        probe = self._recall(int(tagset)) if addr.ndim == 0 else None
        if probe is not None:
            tdp, cells, elem, old_flags = probe
            miss, any_miss = np.zeros(self.n, dtype=bool), False
        else:
            tdp, set_idx, tag, way, row = self._lookup(tagset)
            miss = way < 0
            any_miss = bool(miss.any())
            if any_miss:
                # the missing lanes take, and advance, their set's counter
                filled = np.flatnonzero(miss)
                at = set_idx[filled] * self.n + filled
                ctr = self.repl[at]
                way[filled] = ctr
                self.repl[at] = (ctr + 1) % g.ways
                row[filled] = self._claim_rows(at, row[filled])
            cells = row * g.ways + way
            elem = CELL_ELEM + 3 * (set_idx * g.ways + way)
            old_flags = self.flags.take(cells)
            if addr.ndim == 0:
                if len(self._probes) >= _MAX_PROBES:
                    del self._probes[next(iter(self._probes))]
                cells, elem = cells.astype(np.int32), elem.astype(np.int32)
                self._probes[int(tagset)] = (self.kc, tdp, cells, elem)

        # the request-address latch holds the (possibly obfuscated) lookup
        # address; offset bits pass through unprotected by construction
        addr_hi = tdp.astype(np.uint64) << np.uint64(g.offset_bits)
        self._latch(ADDR, addr_hi | (addr & np.uint64(g.line_bytes - 1)), cycle)
        same = cells is self._lb_cells or np.array_equal(cells, self._lb_cells)
        line = self.lb if same else self._payload(cells)   # changed in place
        if any_miss:
            # the victim's dirty flag is rewritten by the fill path; clearing it
            # here would hide the flag toggle from the power/log sampling
            self._scatter_lines(cells[miss & (old_flags == 3)], self.backing)
            line_addr = np.broadcast_to(addr >> np.uint64(6) << np.uint64(6), (self.n,))
            fill = self._dp_lines(self._backing_lines(line_addr[filled], filled), filled)
            if filled.size == self.n:   # every lane misses: slices, not gathers
                rows, old_filled, line = slice(None), line, fill
            else:
                rows, old_filled = filled, line[filled]
                line[filled] = fill

        # the accessed word of each line, a view when all lanes access one word
        wi = ((addr >> np.uint64(3)) & np.uint64(7)).astype(np.intp)
        word = (slice(None), int(wi)) if addr.ndim == 0 else (lanes, wi)
        shift = (addr & np.uint64(7)) << np.uint64(3)
        line_toggles = np.zeros(self.n, dtype=np.int64)
        if op == "store":
            cur = line[word]
            if size == 8:
                crit = self.dp64(data)
            else:
                # the datapath form is affine in the raw word, so changing
                # one byte by ``delta`` xors in L·delta = dp64(delta) ^ dp64(0)
                delta = (self._raw_byte(cur, shift) ^ (np.uint64(data) & np.uint64(0xFF))) << shift
                crit = cur ^ self.dp64(delta) ^ self.dp64(np.uint64(0))
            line_toggles += np.bitwise_count(cur ^ crit)
            line[word] = crit
        else:
            crit = line[word]

        if any_miss or op == "store":
            if any_miss:   # hits keep their tag and payload row
                line_toggles[rows] = _row_toggles(old_filled, line[rows])
                fill_cells = cells[rows]
                tag_toggles = np.zeros(self.n, dtype=np.uint8)
                tag_toggles[rows] = np.bitwise_count(self.tags[fill_cells] ^ tag[rows])
                self.tags[fill_cells] = tag[rows]
                self._set_payload(fill_cells, line[rows])
                self._count(cycle, elem, tag_toggles, tag)
            # a fill is valid and clean, a hit load keeps its flags, a store
            # leaves the entry valid and dirty: a store that hits only valid
            # dirty entries rewrites none
            if any_miss or not (old_flags == 3).all():
                new_flags = (np.where(miss, np.uint8(1), old_flags) if op == "load"
                             else np.full(self.n, 3, dtype=np.uint8))
                self.flags[cells] = new_flags
                self._count(cycle, elem + 1, np.bitwise_count(old_flags ^ new_flags), new_flags)
            if op == "store":
                self._set_payload(cells, crit, word[1])
            self._count(cycle, elem + 2, line_toggles, line)

        self._latch_lb(line, cycle, line_toggles if same else None)
        self._lb_cells = cells   # never written in place
        self._latch(HB, crit, cycle)

        if op == "load":
            return ~miss, self.inv64(crit) if size == 8 else self._raw_byte(crit, shift)
        return ~miss, None

    def _raw_byte(self, word, shift):
        """Byte ``shift // 8`` of the raw form of datapath words: only the
        32-bit half that holds it is deobfuscated."""
        half = shift & np.uint64(32)
        word = (word >> half).astype(np.uint32)
        if self.kc is not None:
            word = deobfuscate32_vec(word, self.kc)
        return (word >> (shift - half)) & np.uint64(0xFF)

    # --- program execution ------------------------------------------------------

    def run_program(self, program: list[MicroOp], collect_log: bool = False):
        """Execute a straight-line program on every lane.

        Returns (toggle_counts (n_lanes, d) uint16, BatchLog | None); the
        cycle count d is len(program) + 3 in every mode. The toggle counts
        are a transposed view of the run's (d + 1, n_lanes) uint16 per-cycle
        accumulator, not a contiguous copy; each run allocates its own
        accumulator, and every write adds its toggles straight into its
        cycle's row. Op ``i`` writes only cycles ``i+1`` to ``i+4``, so the
        rows being added to are four adjacent ones. A cycle takes at most one
        write per element of each stage, well below 2^16 toggles.

        The cache writes that ``cache_access`` names are skipped, with or
        without a log: each would count 0 toggles and log no change, so the
        result is exact.
        """
        d = len(program) + 3
        acc = np.zeros((d + 1, self.n), dtype=np.uint16)
        self._acc = tuple(acc)
        self._log = log = BatchLog(self, d) if collect_log else None
        eda_on = self.cfg.eda_fix_on
        last_writer = [-10] * 32  # static producer index per register

        for i, mop in enumerate(program):
            t_id, t_ex, t_mem, t_wb = i + 1, i + 2, i + 3, i + 4
            kind = mop.kind

            a = self.arch_rf[mop.rs1]
            a_dp = self._dp_operand(mop.rs1)
            reads = [(mop.rs1, a_dp)]
            if mop.rs2 is not None:
                b = self.arch_rf[mop.rs2]
                b_dp = self._dp_operand(mop.rs2)
                reads.append((mop.rs2, b_dp))

            # operand forwarding surface: reads of in-flight producers go
            # through the physical register file
            for rs, rs_dp in reads:
                if rs != 0 and i - last_writer[rs] <= 3:
                    self._latch(PRF + self._prf_ptr, rs_dp, t_id)
                    self._prf_ptr = (self._prf_ptr + 1) % N_PRF

            # execute: the ALU computes the result, or a load/store's address
            if kind == "alu":
                if mop.rs2 is None:
                    b = np.uint64(mop.imm & 0xFFFFFFFFFFFFFFFF)
                    b_dp = self.dp64(b)
                op_b = b_dp
                result = _ALU[mop.op](a, b)
                res_dp = self.dp64(result)
            else:
                addr, op_b, res_dp = self._address(mop, a)
            # a store carries its data down the pipeline buffers
            self._latch(ID_EXE, b_dp if kind == "store" else a_dp, t_id)
            self._latch(OP_A, a_dp, t_ex)
            self._latch(OP_B, op_b, t_ex)
            self._latch(RES, res_dp, t_ex)
            if kind == "alu":
                shadows = (np.uint64(1),) * 3 if eda_on else (a_dp, b_dp, res_dp)
                for row, value in zip(SHADOWS, shadows):
                    self._latch(row, value, t_ex)
                flags = ((result == 0).astype(np.uint64) << np.uint64(8)) \
                    | ((result >> np.uint64(63)) << np.uint64(9)) | (result & np.uint64(0xFF))
                self._latch(STATUS, self.dp64(flags), t_ex)
            self._latch(EXE_MEM, b_dp if kind == "store" else res_dp, t_ex)

            # memory: the write-back value is the result, the loaded word or
            # the stored data
            if kind == "alu":
                wb_dp = res_dp
            elif kind == "load":
                hit, result = self.cache_access(addr, "load", size=mop.size, cycle=t_mem)
                # dp64 of a loaded dword is the hit-buffer word it came from
                wb_dp = self.regs[HB] if mop.size == 8 else self.dp64(result)
                # miss fills also land in the physical register file; every
                # load consumes a slot so the schedule stays data-independent
                # (hit lanes keep the slot's old value, which is no toggle)
                slot = PRF + self._prf_ptr
                self._latch(slot, np.where(hit, self.regs[slot], wb_dp), t_mem, ~hit)
                self._prf_ptr = (self._prf_ptr + 1) % N_PRF
            else:
                self.cache_access(addr, "store", data=b, size=mop.size, cycle=t_mem)
                wb_dp = b_dp
            self._latch(MEM_WB, wb_dp, t_mem)
            if kind != "store" and mop.rd != 0:
                self.arch_rf[mop.rd] = result
                self._latch(mop.rd, wb_dp, t_wb)
                last_writer[mop.rd] = i

        self._acc = None
        self._log = None
        return acc[1:].T, log

    def _dp_operand(self, rs):
        """Datapath form of register ``rs``; r0 reads the constant 0.

        Presets and write-backs latch ``dp64`` of the value on every lane, so
        a written row is returned as is (a view, read before this op's
        write-back); an unwritten row holds raw 0, not ``dp64(0)``.
        """
        if rs == 0:
            return self.dp64(np.uint64(0))
        if self._written[rs].all():
            return self.regs[rs]
        return self.dp64(self.arch_rf[rs])

    def _address(self, mop, a):
        """Effective address ``R[rs1] + imm`` of a load or store, with the
        datapath forms of ``imm`` and of the address. With rs1 = r0 the
        address is the immediate, one constant for every lane."""
        imm = np.uint64(mop.imm)
        imm_dp = self.dp64(imm)
        if mop.rs1 == 0:
            return imm, imm_dp, imm_dp
        addr = a + imm   # uint64 wraps like the 64-bit adder
        return addr, imm_dp, self.dp64(addr)

    # --- functional views ----------------------------------------------------------

    def functional_registers(self) -> dict[str, np.ndarray]:
        """Deobfuscated values of every architectural-side register surface.

        State resets to raw 0 in both modes, which is not the obfuscated 0,
        so a row or line buffer nothing has written yet reads as its
        architectural reset value 0.
        """
        vals = self.regs.copy()
        rows = self._datapath_rows
        vals[rows] = self.inv64(vals[rows])
        a = vals[ADDR]
        if self.kc is not None:
            off_bits = np.uint64(self.geom.offset_bits)
            tagset = deobfuscate32_vec((a >> off_bits).astype(np.uint32),
                                       self.kc).astype(np.uint64)
            a[:] = (tagset << off_bits) | (a & np.uint64(self.geom.line_bytes - 1))
        out = dict(zip(REG_ROWS, vals))
        out["dcache.lb.line"] = self._raw_lines(self.lb, self._lanes)
        for name, written in zip(out, self._written):
            out[name] = np.where(written if out[name].ndim == 1 else written[:, None],
                                 out[name], np.uint64(0))
        return out


@functools.lru_cache(maxsize=4)
def _repl_draw(seed: int, sets: int, ways: int, n_lanes: int) -> np.ndarray:
    """The replacement counters every machine of one shape starts from: a
    read-only (sets * n_lanes,) uint8 draw, drawn once and copied by each."""
    draw = np.random.default_rng(abs(seed) + 0x5EED).integers(
        0, ways, size=(sets, n_lanes), dtype=np.uint8).reshape(-1)
    draw.flags.writeable = False
    return draw


def _grown(arr, used, need, cap):
    """``arr`` if it has ``need`` rows, else a zeroed array holding a copy
    of its first ``used`` rows, its row count doubled until ``need`` fit
    and capped at ``cap``."""
    if need <= len(arr):
        return arr
    size = max(len(arr), 1)
    while size < need:
        size *= 2
    out = np.zeros((min(size, cap), *arr.shape[1:]), dtype=arr.dtype)
    out[:used] = arr[:used]
    return out


def _row_toggles(old, new):
    """Toggled bits per row of two (n, 8) word arrays, as int64: the eight
    counts of a row (at most 64 each) are the bytes of one word, added in
    pairs into 16-bit fields and then, by one multiply, into the top field."""
    counts = np.bitwise_count(old ^ new).view(np.uint64)[:, 0]
    pairs = (counts & np.uint64(0x00FF00FF00FF00FF)) \
        + ((counts >> np.uint64(8)) & np.uint64(0x00FF00FF00FF00FF))
    return ((pairs * np.uint64(0x0001000100010001)) >> np.uint64(48)).view(np.int64)


# the ALU on uint64 arrays, which wrap like the 64-bit datapath
_ALU = {
    "xor": np.bitwise_xor, "and": np.bitwise_and, "or": np.bitwise_or, "add": np.add,
    "shl": lambda a, b: a << (b & np.uint64(63)),
    "shr": lambda a, b: a >> (b & np.uint64(63)),
    "gfdbl": lambda a, b: ((a << np.uint64(1)) & np.uint64(0xFF))
    ^ np.where(a & np.uint64(0x80), np.uint64(0x1B), np.uint64(0)),
    "mov": lambda a, b: a.copy(),
}
