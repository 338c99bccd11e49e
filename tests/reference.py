"""Naive per-cell reference implementations, kept as test oracles.

These are the straightforward versions of the VCD parser, the per-cycle
resampler and the module distance matrix: one token, one Python int per cell,
one signal and one pair at a time. The bulk and columnar code in
``leakscope.vcd`` and ``leakscope.metrics`` must agree with them exactly.
``RawWriteLog`` keeps every write a machine makes, changed or not, and
``naive_extract_cycle_log`` walks those writes one lane at a time, dropping
the ones that leave a value as it was; with ``naive_emit_vcd``, which formats
one line per value, they are the oracles of the change table and the bulk
VCD emitter in ``leakscope.sim.cyclelog``; ``dict_log``
builds a ``CycleLog`` from start values and a change list, for them and for
hand-written logs.
The objects in ``src/`` hold their data as arrays only. ``change_tuples``,
``cell_values``, ``log_initial``, ``log_changes`` and ``value_columns`` read
a ``ChangeList``, a ``CycleMatrix`` or a ``CycleLog`` back as Python ints, for
comparisons.
``pairwise_distances`` is the Python-int pair loop, the oracle for the pair
kernel ``leakscope.metrics._pair_popcounts`` on oracle words.
``naive_permutation_floor`` is the per-module floor with every shuffle in one
array, scored one shuffle and cycle at a time from Python-int moments, the
exact oracle for ``leakscope.metrics.permutation_floor``, which scores one
module one block of shuffled oracle words at a time. ``two_pass_cpa`` is the
textbook CPA with one hypothesis per guess and trace, the oracle for the
class-sum ``leakscope.cpa.cpa_attack``. ``welch_t_samples`` is Welch's t
computed from two groups' samples, both groups' moments taken per call, the
oracle for ``leakscope.metrics.pairwise_ttest_matrix``, which takes each
class's moments once. ``bitwise_next_round_keys`` steps the LFSR one bit
at a time, the oracle of the 64-step jump
``leakscope.feistel.next_round_keys``. ``per_lane_cache_set_experiment``
simulates every (rep, set) sample of the cache-set sweep on a lane of its
own, the oracle of ``leakscope.sim.cache_set_experiment``, which simulates
each (key epoch, set) once. ``DenseMachine`` is the simulator with
one dense payload per cache entry and a per-lane copy of every backing line,
the oracle for the line pool and the shared backing lines of
``leakscope.sim.Machine``; ``dense_cache`` reads a machine's set rows back
as the (set, way, lane) arrays of tags, flags and payload slots.
``synth_power`` recomputes a power trace from a ``CycleLog`` one change at a
time, the oracle for the machine's toggle accumulation. ``rekey_flush``, ``memory_image`` and ``SequentialSession``
keep one machine's state across key changes and remap it in place, the
oracle that re-keying stored state is one XOR per lane; the batch drivers
instead give every run a fresh cold lane in its own key epoch.
``structurally_equal``, ``find_module``, ``cycle_period``,
``generate_affine_v1``, ``build_fuzz_program`` and ``write_trace_csv`` are
helpers that only tests use.
"""

from __future__ import annotations

import hashlib
import math
import operator
from typing import NamedTuple

import numpy as np

from leakscope.aes import POINT_FUNCTIONS
from leakscope.feistel import (
    AFFINE_VERSION,
    DEFAULT_TAPS,
    KeyConstant,
    Lfsr,
    RoundKeys,
    lfsr_from_seed,
    next_round_keys,
)
from leakscope.metrics import DegenerateInputError, hamming_distance
from leakscope.sim import CycleLog, Machine, SimError, element_catalog
from leakscope.sim.cyclelog import _Rows, _vcd_header, _vcd_id
from leakscope.sim.machine import ADDR, REG_ROWS, BatchLog
from leakscope.sim.run import _epoch_constants, sub_rng
from leakscope.sim.program import (
    ALU_OPS,
    CT_ADDR,
    PT_ADDR,
    SINGLE_ACCESS_SAMPLE_CYCLE,
    STATE_ADDR,
    SWEEP_ADDR,
    aes_workload_memory,
    alu,
    build_aes_program,
    build_single_access_program,
    load,
    store,
)
from leakscope.vcd import (
    ChangeList,
    CycleMatrix,
    VcdParseError,
    WaveDump,
    _column_layout,
    _line_of,
    _parse_bits,
    _parse_header,
    _tree_equal,
    _until_end,
)


# --- helpers that only tests use -----------------------------------------------

def structurally_equal(a: WaveDump, b: WaveDump) -> bool:
    """Two dumps declare the same signals in the same tree and hold the same
    changes."""
    return (a.declarations == b.declarations and _tree_equal(a.hierarchy, b.hierarchy)
            and change_tuples(a.changes) == change_tuples(b.changes))


def find_module(root, path):
    """The module at ``path`` (names from the root) of a parsed hierarchy."""
    return next(node for p, node in root.walk() if p == tuple(path))


def cycle_period(runs) -> int:
    """Time between the first two clock edges of a RunSet's first run (the
    first edge's time when there is one edge, 0 with none)."""
    edges = runs.runs[0].edge_times if runs.runs else []
    return edges[1] - edges[0] if len(edges) >= 2 else (edges[0] if edges else 0)


_AFFINE_LABEL = b"leakscope-affine-" + AFFINE_VERSION.encode() + b":"


def generate_affine_v1() -> tuple[tuple[int, ...], int]:
    """Regenerate the shipped default affine parameters.

    Rows come from a SHA-256 counter stream over a fixed label, 4 bytes
    big-endian per row with all-zero rows rejected, followed by 2 bytes for
    the constant. The result is frozen in ``leakscope/data/affine_v1.json``;
    this function keeps the constant reproducible.
    """
    buf = b""
    counter = 0

    def refill(need):
        nonlocal buf, counter
        while len(buf) < need:
            buf += hashlib.sha256(_AFFINE_LABEL + counter.to_bytes(4, "big")).digest()
            counter += 1

    rows = []
    pos = 0
    while len(rows) < 16:
        refill(pos + 4)
        row = int.from_bytes(buf[pos:pos + 4], "big")
        pos += 4
        if row != 0:
            rows.append(row)
    refill(pos + 2)
    const = int.from_bytes(buf[pos:pos + 2], "big")
    return tuple(rows), const


def build_fuzz_program(rng, n_ops: int = 40) -> list:
    """Random straight-line program over the state/scratch regions."""
    prog = []
    scratch = STATE_ADDR + 0x100
    for _ in range(n_ops):
        pick = rng.random()
        if pick < 0.5:
            op = rng.choice(ALU_OPS)
            rd = rng.randint(1, 31)
            rs1 = rng.randint(0, 31)
            if rng.random() < 0.5:
                prog.append(alu(op, rd, rs1, rs2=rng.randint(0, 31)))
            else:
                prog.append(alu(op, rd, rs1, imm=rng.getrandbits(12)))
        elif pick < 0.8:
            size = rng.choice([1, 8])
            off = rng.randrange(0, 0x40, 8 if size == 8 else 1)
            prog.append(load(rng.randint(1, 31), 0, scratch + off, size=size))
        else:
            size = rng.choice([1, 8])
            off = rng.randrange(0, 0x40, 8 if size == 8 else 1)
            prog.append(store(rng.randint(0, 31), 0, scratch + off, size=size))
    return prog


def write_trace_csv(path, traces) -> None:
    """Power trace CSV: run_index, cycle, sample; the format ``dpa`` reads."""
    traces = np.asarray(traces)
    with open(path, "w") as f:
        f.write("run_index,cycle,sample\n")
        for r in range(traces.shape[0]):
            for c in range(traces.shape[1]):
                f.write(f"{r},{c + 1},{traces[r, c]:.8g}\n")


class Change(NamedTuple):
    time: int
    id_code: str
    value: int
    xmask: int
    zmask: int


def change_tuples(changes: ChangeList) -> list[Change]:
    """The changes of a ``ChangeList`` as ``Change`` tuples, in stream order."""
    words = [w.astype("<u8").tobytes() for w in (changes.values, changes.xmask, changes.zmask)]
    first = changes.first.tolist()
    return [Change(t, changes.codes[k], *(int.from_bytes(w[8 * a:8 * b], "little") for w in words))
            for t, k, a, b in zip(changes.times.tolist(), changes.decl.tolist(), first, first[1:])]


def naive_parse_bits(bits: str, width: int) -> tuple[int, int, int]:
    """(value, xmask, zmask) of a VCD binary value, one character at a time."""
    if len(bits) < width:  # left-extend; x/z extend with themselves
        pad = bits[0] if bits[0] in "xXzZ" else "0"
        bits = pad * (width - len(bits)) + bits
    value = xmask = zmask = 0
    for ch in bits:
        value, xmask, zmask = value << 1, xmask << 1, zmask << 1
        if ch == "1":
            value |= 1
        elif ch in "xX":
            xmask |= 1
        elif ch in "zZ":
            zmask |= 1
    return value, xmask, zmask


def naive_parse_vcd(data) -> WaveDump:
    """Parse a VCD stream one token at a time, the oracle of the bulk parser.

    Returns a ``WaveDump`` whose ``changes`` is a list of ``Change`` tuples,
    with the values and ``VcdParseError`` messages and lines of
    ``leakscope.vcd.parse_vcd``.
    """
    if isinstance(data, bytes):
        data = data.decode("ascii", errors="replace")
    toks = data.split()
    n_toks = len(toks)

    def fail(message, index=None):
        raise VcdParseError(message, None if index is None else _line_of(data, index)) from None

    header = _parse_header(toks, fail)
    widths = {code: int(header.widths[k]) for code, k in header.index.items()}
    changes = []
    cur_time = 0
    have_time = False
    i = header.n_tokens
    while i < n_toks:
        tok = toks[i]
        i += 1
        lead = tok[0]
        if lead == "b" or lead == "B":
            if i >= n_toks:
                fail(f"truncated stream: vector value without id code "
                     f"(last good timestamp {cur_time})", i - 1)
            at, code, bits = i - 1, toks[i], tok[1:]
            i += 1
        elif lead in "01xXzZ" and len(tok) > 1:
            at, code, bits = i - 1, tok[1:], lead
        else:
            if lead == "#":
                try:
                    t = int(tok[1:])
                except ValueError:
                    fail(f"bad timestamp '{tok}'", i - 1)
                if have_time and t < cur_time:
                    fail(f"timestamp {t} goes backwards", i - 1)
                cur_time = t
                have_time = True
            elif tok == "$comment":
                i = _until_end(toks, i, i - 1, "$comment", fail)[1]
            elif lead in "rR":
                if i >= n_toks:
                    fail(f"truncated stream (last good timestamp {cur_time})", i - 1)
                if toks[i] not in header.ignored_codes:
                    fail(f"real value change for non-real id '{toks[i]}'", i - 1)
                i += 1
            elif tok not in ("$dumpvars", "$dumpall", "$dumpon", "$dumpoff", "$end"):
                fail(f"unexpected token '{tok}' in value changes", i - 1)
            continue
        width = widths.get(code)
        if width is None:
            if code in header.ignored_codes:
                continue
            fail(f"value change for undeclared id code '{code}'", i - 1)
        try:
            changes.append(Change(cur_time, code, *_parse_bits(bits, width)))
        except ValueError as e:
            fail(str(e), at)
    return WaveDump(header.timescale, header.declarations, header.hierarchy, changes)


def naive_resample(dump, clock_code: str):
    """(edge_times, {id_code: [(value, xmask, zmask) per cycle]}) of a
    ``naive_parse_vcd`` dump.

    Sample-and-hold at each rising edge (known 0 -> known 1) of the clock;
    all changes at an edge's timestamp apply before sampling, and a signal
    reads as all-x until its first change.
    """
    cur = {d.id_code: (0, (1 << d.width) - 1, 0) for d in dump.declarations}
    cells = {d.id_code: [] for d in dump.declarations}
    edges = []
    changes = dump.changes
    idx = 0
    clock_prev = cur[clock_code]
    while idx < len(changes):
        t = changes[idx].time
        while idx < len(changes) and changes[idx].time == t:
            ch = changes[idx]
            cur[ch.id_code] = (ch.value, ch.xmask, ch.zmask)
            idx += 1
        clock_now = cur[clock_code]
        if clock_prev == (0, 0, 0) and clock_now == (1, 0, 0):
            edges.append(t)
            for code, col in cells.items():
                col.append(cur[code])
        clock_prev = clock_now
    if not edges:
        raise VcdParseError("clock has no rising edges")
    return edges, cells


def matrix_cells(mat, code: str) -> list[tuple[int, int, int]]:
    """Per-cycle (value, xmask, zmask) of one signal, read from a CycleMatrix."""
    cols = mat.signal_cols[code]
    rows = mat.rows(np.arange(cols.start, cols.stop))

    def ints(arr):
        return [int.from_bytes(w.astype("<u8").tobytes(), "little") for w in arr[rows].T]

    return list(zip(ints(mat.values), ints(mat.xmask), ints(mat.zmask)))


def cell_values(mat) -> dict[str, list]:
    """id code -> per-cycle Python ints of a CycleMatrix, None where a cell
    has x/z bits."""
    return {code: [None if x or z else v for v, x, z in matrix_cells(mat, code)]
            for code in mat.signal_cols}


def to_columns(declarations, cells: dict, d: int):
    """(values, xmask, zmask) as (d, n_cols) uint64 in the column layout.

    ``cells`` maps id code -> d cells, each an int or a (value, xmask,
    zmask) tuple.
    """
    planes = []
    for k in range(3):
        blocks = []
        for decl in declarations:
            n_words = (decl.width + 63) // 64
            raw = b"".join((c if isinstance(c, tuple) else (c, 0, 0))[k]
                           .to_bytes(8 * n_words, "little") for c in cells[decl.id_code])
            blocks.append(np.frombuffer(raw, dtype="<u8").reshape(d, n_words))
        planes.append(np.concatenate(blocks, axis=1).astype(np.uint64))
    return tuple(planes)


def from_samples(declarations, values, xmask=None, zmask=None, held=False) -> CycleMatrix:
    """CycleMatrix whose word columns hold ``values[k]`` at edge ``k``.

    ``values`` and the optional masks are (d, n_cols) uint64 in the column
    layout of ``declarations``; edges fall at times 10, 20, ... Every column
    gets a change row at every edge, or with ``held`` only where its sample
    differs from the edge before, as in a real dump.
    """
    values = np.asarray(values, dtype=np.uint64)
    d, n_cols = values.shape
    xmask, zmask = (np.zeros_like(values) if m is None else np.asarray(m, dtype=np.uint64)
                    for m in (xmask, zmask))
    keep = np.ones((n_cols, d), dtype=bool)
    if held:
        planes = np.stack([values.T, xmask.T, zmask.T])
        keep[:, 1:] = (planes[:, :, 1:] != planes[:, :, :-1]).any(axis=0)
    cols, cycles = np.nonzero(keep)  # column-major, time order within a column
    ranks = np.arange(1, d + 1)
    return CycleMatrix.from_rows(
        _column_layout(declarations), cols, cycles + 1, values.T[keep], xmask.T[keep],
        zmask.T[keep], d, ranks, (10 * ranks).tolist())


def naive_distance_matrix(cells_per_run, signals, window):
    """Per-cycle pairwise Hamming distances of a module's signals, one signal
    and one pair at a time, x/z bits as 0. Returns (ds (d_win, n_pairs),
    xz_ratio); ``cells_per_run`` holds per-run {code: [(v, x, z), ...]}."""
    start, end = window
    n = len(cells_per_run)
    pairs = [(i, j) for j in range(n) for i in range(j + 1, n)]
    ds = np.zeros((end - start, len(pairs)), dtype=np.int64)
    xz = width = 0
    for sig in signals:
        width += sig.width
        cols = [run[sig.id_code] for run in cells_per_run]
        for col in cols:
            xz += sum(bin(x | z).count("1") for _, x, z in col[start:end])
        for c in range(start, end):
            for p, (i, j) in enumerate(pairs):
                ds[c - start, p] += bin(cols[i][c][0] ^ cols[j][c][0]).count("1")
    return ds, xz / (width * (end - start) * n)


def pairwise_distances(items) -> np.ndarray:
    """Hamming distance for every unordered pair, canonical order."""
    values = list(items)
    n = len(values)
    if n < 2:
        raise ValueError(f"need at least 2 items, got {n}")
    return np.array([(values[i] ^ values[j]).bit_count()
                     for j in range(n) for i in range(j + 1, n)], dtype=np.int64)


def naive_permutation_floor(ds, oracle_values, shuffles: int, percentile: float = 99.0,
                            seed: int = 0xF100D) -> float:
    """Noise floor of one module's (d, n_pairs) distances: the percentile of
    its best |Pearson| under ``shuffles`` run permutations of the oracle,
    every shuffled oracle held at once. Each shuffle and cycle is scored from
    Python-int Σx, Σx², Σy, Σy² and Σxy, then int to float, sqrt, divide, 0
    where the denominator is 0 and clip at 1."""
    n_runs = len(oracle_values)
    i_idx, j_idx = np.triu_indices(n_runs, k=1)[::-1]
    dist = np.zeros((n_runs, n_runs), dtype=np.int64)
    d_o = [bin(oracle_values[i] ^ oracle_values[j]).count("1") for i, j in zip(i_idx, j_idx)]
    dist[i_idx, j_idx] = d_o
    dist[j_idx, i_idx] = d_o

    rng = np.random.default_rng(seed)
    perms = np.stack([rng.permutation(n_runs) for _ in range(shuffles)])
    rows = [(row, sum(row), sum(y * y for y in row)) for row in np.asarray(ds).tolist()]
    n = len(d_o)
    maxima = []
    for po in dist[perms[:, i_idx], perms[:, j_idx]].tolist():  # one shuffle's pairs
        sx, sxx = sum(po), sum(x * x for x in po)
        best = 0.0
        for row, sy, syy in rows:
            num = n * sum(map(operator.mul, po, row)) - sy * sx
            den = (n * syy - sy * sy) * (n * sxx - sx * sx)
            if den > 0:
                best = max(best, min(float(abs(num)) / math.sqrt(float(den)), 1.0))
        maxima.append(best)
    return float(np.percentile(maxima, percentile))


_HW8 = np.array([bin(v).count("1") for v in range(256)], dtype=np.float64)


def synth_power(log, sigma: float = 0.0, rng=None):
    """Recompute the power trace from a CycleLog.

    sample[c-1] = sum of Hamming distances between consecutive element values
    at cycle c (cycle 1 toggles against the run-start snapshot), plus
    N(0, sigma^2) noise. With sigma = 0 the samples are exact integers.
    """
    toggles = np.zeros(log.n_cycles, dtype=np.int64)
    cur = log_initial(log)
    for cycle, name, value in log_changes(log):
        toggles[cycle - 1] += hamming_distance(cur[name], value)
        cur[name] = value
    if sigma == 0.0:
        return toggles
    if rng is None:
        rng = np.random.default_rng()
    elif isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(rng)
    return toggles.astype(np.float64) + rng.normal(0.0, sigma, size=log.n_cycles)


def _words_to_int(words) -> int:
    """512-bit line value from 8 words, word 0 least significant."""
    v = 0
    for i in range(len(words) - 1, -1, -1):
        v = (v << 64) | int(words[i])
    return v


def log_entries(log) -> list[tuple[int, str, int]]:
    """(cycle, name, value) of every row of a CycleLog, in cycle and write
    order."""
    narrow, wide = log.rows()
    cycle, order, elem = (np.r_[a, b].tolist() for a, b in zip(narrow[1:4], wide[1:4]))
    values = narrow.words[:, 0].tolist() + [
        int.from_bytes(w.astype("<u8").tobytes(), "little") for w in wide.words]
    return [(cycle[i], log.elements[elem[i]][0], values[i])
            for i in np.lexsort((order, cycle))]


def log_initial(log) -> dict[str, int]:
    """Each element's value at run start."""
    return {name: value for cycle, name, value in log_entries(log) if cycle == 0}


def log_changes(log) -> list[tuple[int, str, int]]:
    """The real changes (cycle, name, value), in cycle and write order."""
    return [e for e in log_entries(log) if e[0]]


def value_columns(log) -> dict[str, list[int]]:
    """Dense per-cycle values (sample-and-hold) of every element of a
    CycleLog, cycles 1 .. n_cycles."""
    cur = log_initial(log)
    cols = {name: [] for name, _ in log.elements}
    changes = log_changes(log)
    idx = 0
    for c in range(1, log.n_cycles + 1):
        while idx < len(changes) and changes[idx][0] == c:
            _, name, value = changes[idx]
            cur[name] = value
            idx += 1
        for name, _ in log.elements:
            cols[name].append(cur[name])
    return cols


def dict_log(elements, initial, changes, n_cycles=0) -> CycleLog:
    """A CycleLog over ``elements`` (name, width) whose rows hold each
    element's start value (``initial``, name -> int) and the changes
    (cycle, name, value), in cycle order and write order within a cycle."""
    names = {name: k for k, (name, _) in enumerate(elements)}
    entries = [(0, name, initial[name]) for name, _ in elements] + list(changes)
    out = []
    for w in (1, 8):
        sel = [(k, c, names[n], v) for k, (c, n, v) in enumerate(entries)
               if (elements[names[n]][1] > 64) == (w == 8)]
        k, c, e, v = (list(col) for col in zip(*sel)) if sel else ([], [], [], [])
        words = np.frombuffer(b"".join(x.to_bytes(8 * w, "little") for x in v), "<u8")
        out.append(_Rows(np.zeros(len(k), int), np.array(c, dtype=int), np.array(k, dtype=int),
                         np.array(e, dtype=int), words.reshape(-1, w).astype(np.uint64)))
    rows = tuple(out)
    return CycleLog(elements, lambda: rows, n_cycles)


class RawWriteLog(BatchLog):
    """A ``BatchLog`` that also keeps every write as the machine made it:
    (cycle, element of each lane, every lane's new value), whether or not it
    changed anything. A machine logs into it once ``BatchLog`` in
    ``leakscope.sim.machine`` is patched to this class."""

    def __init__(self, machine, n_cycles):
        super().__init__(machine, n_cycles)
        self.raw_writes = []

    def record(self, cycle, elem, changed, new):
        self.raw_writes.append((cycle, np.broadcast_to(elem, (self.n_lanes,)).copy(), new.copy()))
        super().record(cycle, elem, changed, new)


def naive_extract_cycle_log(batch: RawWriteLog, lane: int) -> CycleLog:
    """One lane of a ``RawWriteLog`` as a CycleLog, walking every raw write
    and keeping those that change the element's value: the oracle of the
    change table."""
    initial = dict(zip(REG_ROWS, batch.initial_regs[:, lane].tolist()))
    initial["dcache.lb.line"] = _words_to_int(batch.initial_lb[lane])
    tags, flags, slots = dense_cache(batch)
    rows = batch.initial_cache[-1]
    g = batch.cfg.cache
    for s in range(g.sets):
        for w in range(g.ways):
            cell = (s * g.ways + w) * batch.n_lanes + lane
            initial[f"dcache.arrays.t{s}_{w}"] = int(tags[cell])
            initial[f"dcache.arrays.f{s}_{w}"] = int(flags[cell])
            initial[f"dcache.arrays.d{s}_{w}"] = _words_to_int(rows[slots[cell]])

    catalog = element_catalog(batch.cfg)
    cur = dict(initial)
    changes = []
    for cycle, elem, new in batch.raw_writes:
        name = catalog[elem[lane]][0]
        value = _words_to_int(new[lane]) if new.ndim > 1 else int(new[lane])
        if cur[name] != value:
            changes.append((cycle, name, value))
            cur[name] = value

    changes.sort(key=lambda c: c[0])  # stable: preserves write order per cycle
    return dict_log(catalog, initial, changes, batch.n_cycles)


def naive_emit_vcd(log) -> bytes:
    """A CycleLog as VCD text, one formatted line per value: the oracle of
    ``leakscope.sim.emit_vcd``."""
    header, codes = _vcd_header(tuple(log.elements))
    clock_code = _vcd_id(0)
    codes = dict(zip((name for name, _ in log.elements), codes))
    out = [header]

    def fmt(value: int, width: int, code: str) -> str:
        if width == 1:
            return f"{value:b}{code}"
        return f"b{value:b} {code}"

    out += ["#0", "$dumpvars", f"0{clock_code}"]
    initial = log_initial(log)
    for name, width in log.elements:
        out.append(fmt(initial[name], width, codes[name]))
    out.append("$end")
    widths = dict(log.elements)
    idx = 0
    changes = log_changes(log)
    for c in range(1, log.n_cycles + 1):
        t = 10 * c
        out += [f"#{t}", f"1{clock_code}"]
        while idx < len(changes) and changes[idx][0] == c:
            _, name, value = changes[idx]
            out.append(fmt(value, widths[name], codes[name]))
            idx += 1
        out += [f"#{t + 5}", f"0{clock_code}"]
    return ("\n".join(out) + "\n").encode("ascii")


def two_pass_cpa(traces, plaintexts, target_byte: int, point: str = "sbox_out"):
    """(correlations (256, d), ranks) of first-order CPA, two passes over a
    (256 guesses, N traces) hypothesis matrix; degenerate rows and columns
    score 0 and ties rank by lower guess."""
    traces = np.asarray(traces, dtype=np.float64)
    fn = POINT_FUNCTIONS[point]
    table = np.array([[fn(p, g) for p in range(256)] for g in range(256)], dtype=np.uint8)
    pbytes = np.asarray(plaintexts, dtype=np.uint8)[:, target_byte]
    hyp = _HW8[table[:, pbytes]]                      # (256, n)

    hc = hyp - hyp.mean(axis=1, keepdims=True)
    hnorm = np.sqrt((hc * hc).sum(axis=1))
    tc = traces - traces.mean(axis=0, keepdims=True)
    tnorm = np.sqrt((tc * tc).sum(axis=0))

    denom = hnorm[:, None] * tnorm[None, :]
    corr = hc @ tc
    np.divide(corr, denom, out=corr, where=denom > 0)
    corr[:, tnorm == 0] = 0.0
    corr[hnorm == 0, :] = 0.0
    scores = np.abs(corr).max(axis=1)
    return corr, np.lexsort((np.arange(256), -scores))


def welch_t_samples(group_a, group_b) -> float:
    """Welch's unequal-variance t statistic."""
    a = np.asarray(group_a, dtype=np.float64)
    b = np.asarray(group_b, dtype=np.float64)
    if a.size < 2 or b.size < 2:
        raise ValueError(f"each group needs >= 2 samples, got {a.size} and {b.size}")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("samples must be finite")
    va = float(a.var(ddof=1))
    vb = float(b.var(ddof=1))
    delta = float(a.mean() - b.mean())
    denom = va / a.size + vb / b.size
    if denom == 0.0:
        if delta == 0.0:
            return 0.0
        raise DegenerateInputError("both groups have zero variance and different means")
    return delta / math.sqrt(denom)


def dense_cache(source):
    """(tags, flags, slots) of a ``Machine``'s cache, or of a ``BatchLog``'s
    cache at run start, as flat arrays in the dense order: the entry (set,
    way) of lane l at ``(set * ways + way) * n_lanes + l``. An entry of a set
    the lane never filled reads as the empty row's 0, 0, 0."""
    if isinstance(source, BatchLog):
        row_of, tags, flags, slots, _ = source.initial_cache
        g, n = source.cfg.cache, source.n_lanes
    else:
        row_of, tags, flags, slots = source.row_of, source.tags, source.flags, source.slots
        g, n = source.geom, source.n
    cells = row_of.reshape(g.sets, 1, n) * g.ways + np.arange(g.ways)[:, None]
    return tuple(a[cells].reshape(-1) for a in (tags, flags, slots))


class DenseMachine(Machine):
    """``Machine`` with a dense payload array, one (8,) row per cache cell
    any set row can hold, row c the payload of the entry at cell c, and an
    (n_lanes, 8) backing line for every poked line, broadcast or not."""

    def __init__(self, cfg, n_lanes, kc=None):
        super().__init__(cfg, n_lanes, kc)
        self.data = np.zeros((self._max_set_rows * cfg.cache.ways, 8), dtype=np.uint64)

    def _payload(self, cells):
        return self.data.take(cells, axis=0)

    def _set_payload(self, cells, lines, word=slice(None)):
        self.data[cells, word] = lines

    def _cache_snapshot(self):
        row_of, tags, flags, _, _ = super()._cache_snapshot()
        return row_of, tags, flags, np.arange(len(tags)), self.data[:len(tags)].copy()

    def _backing_lines(self, line_addr, lanes):
        out = np.zeros((len(lanes), 8), dtype=np.uint64)
        for u in np.unique(line_addr):
            entry = self.backing.get(int(u))
            if entry is not None:
                mask = line_addr == u
                out[mask] = entry[lanes[mask]]
        return out

    def poke_bytes(self, addr, data):
        if isinstance(data, (bytes, bytearray)):
            arr = np.frombuffer(data, dtype=np.uint8)[None, :]
        else:
            arr = np.asarray(data, dtype=np.uint8)
        k = arr.shape[1]
        warm = bool(self.flags.any())
        pos = 0
        while pos < k:
            line_addr = (addr + pos) >> 6 << 6
            off = addr + pos - line_addr
            take = min(64 - off, k - pos)
            entry = self._lane_line(self.backing, line_addr)
            view = entry.view(np.uint8).reshape(self.n, 64)
            view[:, off:off + take] = arr[:, pos:pos + take]
            if warm:
                self._invalidate_line(line_addr)
            pos += take


# --- key epochs and the cache-set sweep -------------------------------------------

def bitwise_next_round_keys(lfsr: Lfsr) -> tuple[RoundKeys, Lfsr]:
    """One epoch's draw stepping the LFSR one bit at a time: 64 steps, each
    draw taken into its key MSB-first."""
    state = lfsr.state
    keys = []
    for _ in range(4):
        k = 0
        for _ in range(16):
            k = (k << 1) | (state & 1)
            fb = (state & DEFAULT_TAPS).bit_count() & 1
            state = (state >> 1) | (fb << 63)
        keys.append(k)
    return RoundKeys(keys=tuple(keys)), Lfsr(state=state)


def per_lane_cache_set_experiment(cfg, reps: int, rekey_every: int = 1,
                                  max_lanes: int = 8192) -> dict[str, np.ndarray]:
    """The cache-set sweep with every (rep, set) sample simulated on a lane
    of its own, rep-major in ``max_lanes`` chunks, and each chunk's noise
    drawn from the substream of its first lane."""
    g = cfg.cache
    program = build_single_access_program()
    total = reps * g.sets
    mem_rng = sub_rng(cfg.seed, "sweep-memory")
    sweep_image = b"".join(mem_rng.integers(0, 256, size=64, dtype=np.uint8).tobytes()
                           for _ in range(g.sets))
    samples = np.empty(total, dtype=np.float64)
    if cfg.param_mode and total:
        table = _epoch_constants(cfg, (reps - 1) // rekey_every + 1)
    for base in range(0, total, max_lanes):
        lanes = min(max_lanes, total - base)
        lane_idx = np.arange(base, base + lanes)
        set_of = lane_idx % g.sets
        kc = table[lane_idx // g.sets // rekey_every] if cfg.param_mode else None
        machine = Machine(cfg, lanes, kc)
        machine.poke_bytes(SWEEP_ADDR, sweep_image)
        machine.preset_register(1, (np.uint64(SWEEP_ADDR)
                                    + set_of.astype(np.uint64) * np.uint64(g.line_bytes)))
        toggles, _ = machine.run_program(program)
        col = toggles[:, SINGLE_ACCESS_SAMPLE_CYCLE - 1].astype(np.float64)
        if cfg.noise_sigma > 0:
            col = col + sub_rng(cfg.seed, "sweep-noise", base).normal(
                0.0, cfg.noise_sigma, lanes)
        samples[base:base + lanes] = col
    by_set = samples.reshape(reps, g.sets).T
    return {f"set{s:02d}": by_set[s].copy() for s in range(g.sets)}


# --- re-keying persistent state ---------------------------------------------------

def rekey_flush(machine, new_kc: KeyConstant) -> None:
    """Rotate a machine's obfuscation keys: write back dirty lines with the
    old keys, invalidate the cache, and re-encrypt every datapath register.

    Obfuscation is ``L·x ⊕ K(k)``, so re-encrypting any stored word from
    the old key to the new one xors in ``K(old) ⊕ K(new)``: one mask per
    lane, applied to both 32-bit halves of each 64-bit word. ``new_kc``
    must come from the same affine spec as the current constant.
    """
    if machine.kc is None:
        raise SimError("rekey_flush is only meaningful in param mode")
    new_kc = machine._lane_constant(new_kc)

    machine._scatter_lines(np.flatnonzero(machine.flags == 3), machine.backing)  # valid, dirty
    machine.flags[:] = 0

    mask = (machine.kc.k32 ^ new_kc.k32).astype(np.uint64)
    mask64 = machine.kc.k64 ^ new_kc.k64
    machine.regs[machine._datapath_rows] ^= mask64
    # the address latch holds obfuscated tag/set bits above clear offset bits
    machine.regs[ADDR] ^= mask << np.uint64(machine.geom.offset_bits)
    machine.lb = machine.lb ^ mask64[:, None]
    machine.kc = new_kc


def memory_image(machine) -> dict[int, np.ndarray]:
    """Raw (deobfuscated) view of memory: backing overlaid with the cache."""
    image = {a: np.broadcast_to(v, (machine.n, 8)).copy() for a, v in machine.backing.items()}
    machine._scatter_lines(np.flatnonzero(machine.flags & 1), image)
    return image


class SequentialSession:
    """Persistent-state session: AES blocks back to back with re-keying.

    Unlike the batch driver, processor state (registers, cache, memory)
    carries over from one block to the next on each lane, and the remapping
    flush runs between blocks whenever the key epoch changes.
    """

    def __init__(self, cfg, key: bytes, lanes: int = 1):
        self.cfg = cfg
        self.program = build_aes_program(cfg.rounds)
        self.lanes = lanes
        self.blocks_run = 0
        self._lfsr = lfsr_from_seed(cfg.seed)
        self.machine = Machine(cfg, lanes, self._draw_keys() if cfg.param_mode else None)
        for addr, blob in aes_workload_memory(key).items():
            self.machine.poke_bytes(addr, blob)

    def _draw_keys(self) -> KeyConstant:
        """``K(k)`` of the next LFSR epoch, the same on every lane."""
        rk, self._lfsr = next_round_keys(self._lfsr)
        return KeyConstant.of([np.full(self.lanes, k, dtype=np.uint32) for k in rk.keys])

    def run_block(self, plaintexts) -> np.ndarray:
        """Run one AES block per lane; returns ciphertexts when rounds == 10."""
        cfg = self.cfg
        if (cfg.param_mode and cfg.rekey_interval_runs is not None
                and self.blocks_run and self.blocks_run % cfg.rekey_interval_runs == 0):
            rekey_flush(self.machine, self._draw_keys())
        pts = np.asarray(plaintexts, dtype=np.uint8).reshape(self.lanes, 16)
        self.machine.poke_bytes(PT_ADDR, pts)
        self.machine.run_program(self.program)
        self.blocks_run += 1
        if cfg.rounds == 10:
            return self.machine.peek_bytes(CT_ADDR, 16)
        return None
