"""Per-run cycle logs and VCD emission.

A ``BatchLog`` holds, per latch write, the lanes it changed and their new
values. The first ``extract_cycle_log`` on a batch turns these into a change
table: one row (lane, cycle, element, value words) per real change, in write
order within a cycle. Elements of at most 64 bits and 512-bit lines are kept
in separate tables, so a register is not padded to a line. A CycleLog taken
from a batch is one lane's rows of that table, after each element's value at
run start.

The VCD emitter mirrors the machine's module tree under one ``soc`` top scope
and adds a clock whose rising edge at t = 10*c samples cycle c, so a dump can
be parsed back and resampled into exactly the original log. It formats a
run's rows in bulk: each value word becomes 64 '0'/'1' characters through a
byte table, in one character matrix with each line's 'b', its id code and
the clock lines of every cycle; the characters a line does not print are
NUL, and dropping every NUL leaves the dump.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from .machine import BatchLog, element_catalog


class _Rows(NamedTuple):
    """Value rows: row i sets element ``elem[i]`` of lane ``lane[i]`` to
    ``words[i]`` (uint64, low word first) at ``cycle[i]``; ``order`` ranks
    the rows of a cycle. Rows at cycle 0 hold values at run start."""

    lane: np.ndarray
    cycle: np.ndarray
    order: np.ndarray
    elem: np.ndarray
    words: np.ndarray

    @classmethod
    def of(cls, *parts) -> "_Rows":
        """Rows from (lane, cycle, order, elem, words) parts, sorted by lane,
        cycle and order."""
        rows = cls(*(np.concatenate(col) for col in zip(*parts)))
        return cls(*(col[np.lexsort((rows.order, rows.cycle, rows.lane))] for col in rows))


def _change_table(batch: BatchLog):
    """(catalog, narrow rows, wide rows) of a batch: one row per lane that a
    logged write changed."""
    tables = []
    for width, writes in zip((1, 8), batch.writes):
        cycle, order, elem, changed, words = zip(*writes) if writes else ((),) * 5
        write, lane = np.nonzero(np.reshape(changed, (-1, batch.n_lanes)))
        # an int element is every lane's; an array lists the changed lanes'
        elems = np.array([e if isinstance(e, int) else -1 for e in elem], dtype=int)[write]
        elems[elems < 0] = np.concatenate(
            (np.zeros(0, int), *(e for e in elem if not isinstance(e, int))))
        words = np.concatenate((np.zeros(0, np.uint64), *words), axis=None).reshape(-1, width)
        tables.append(_Rows.of((lane, np.array(cycle, dtype=int)[write],
                                np.array(order, dtype=int)[write], elems, words)))
    return (element_catalog(batch.cfg), *tables)


def _lane_rows(batch: BatchLog, lane: int) -> tuple[_Rows, _Rows]:
    """(narrow, wide) rows of one lane: every element's value at run start,
    in catalog order, then the lane's changes."""
    out = []
    for (elem, first), rows in zip(batch.start(lane), batch.change_table[1:]):
        lo, hi = np.searchsorted(rows.lane, [lane, lane + 1])
        zero = np.zeros(len(elem), dtype=int)
        out.append(_Rows(*(np.concatenate(c) for c in zip(
            (zero + lane, zero, elem, elem, first.astype(np.uint64)),
            (col[lo:hi] for col in rows)))))
    return tuple(out)


class CycleLog:
    """One run's cycle log over ``elements`` (name, width), ``n_cycles``
    long: ``rows()`` calls ``source``, which returns the run's (narrow,
    wide) rows."""

    def __init__(self, elements, source, n_cycles=0):
        self.elements, self.n_cycles = elements, n_cycles
        self._source = source

    def rows(self) -> tuple[_Rows, _Rows]:
        """(narrow, wide) rows: cycle 0 holds each element's start value,
        later cycles its real changes, ranked by ``order`` within a cycle."""
        return self._source()


def extract_cycle_log(batch: BatchLog, lane: int) -> CycleLog:
    """One lane of a batch log as a CycleLog view (real changes only); the
    first call on a batch builds its change table."""
    if batch.change_table is None:
        batch.change_table = _change_table(batch)
    return CycleLog(batch.change_table[0], functools.partial(_lane_rows, batch, lane),
                    batch.n_cycles)


_ID_CHARS = "".join(chr(c) for c in range(33, 127))


def _vcd_id(index: int) -> str:
    out = ""
    index += 1
    while index:
        index, rem = divmod(index - 1, len(_ID_CHARS))
        out = _ID_CHARS[rem] + out
    return out


CLOCK_NAME = "clk"
TOP_SCOPE = "soc"
TIMESCALE = "1ns"


@functools.lru_cache(maxsize=8)
def _vcd_header(elements: tuple) -> tuple[str, tuple[str, ...]]:
    """(definitions text up to the #0 line, id code of each element).

    Every run of one design shares its element catalog, so the header is
    built once per catalog; the clock takes the first id code. A scope
    lists its vars, then its child scopes in order of first use.
    """
    codes = tuple(_vcd_id(k + 1) for k in range(len(elements)))
    root = {"": [f"$var wire 1 {_vcd_id(0)} {CLOCK_NAME} $end"]}  # "": the scope's vars
    for (name, width), code in zip(elements, codes):
        *path, leaf = name.split(".")
        node = root
        for part in path:
            node = node.setdefault(part, {"": []})
        node[""].append(f"$var wire {width} {code} {leaf} $end")

    def scope(name, node):
        yield f"$scope module {name} $end"
        yield from node[""]
        for child, sub in node.items():
            if child:
                yield from scope(child, sub)
        yield "$upscope $end"

    lines = [f"$timescale {TIMESCALE} $end", *scope(TOP_SCOPE, root), "$enddefinitions $end"]
    return "\n".join(lines), codes


@functools.lru_cache(maxsize=8)
def _vcd_text(elements: tuple, n_cycles: int):
    """(header bytes, tails, whether each element is a vector). Tails are
    NUL-padded uint64 rows: tail e < len(elements) ends element e's lines,
    its id code and a newline after a space for a vector; tail len(elements)
    + c is the clock text before cycle c's changes, c = 0 .. n_cycles, the
    next one closes the dump, and the last tail is empty."""
    header, codes = _vcd_header(elements)
    clk = _vcd_id(0)
    tails = [(" " if w > 1 else "") + code + "\n" for (_, w), code in zip(elements, codes)]
    tails.append(f"\n#0\n$dumpvars\n0{clk}\n")
    tails += [("$end\n" if c == 1 else f"#{10 * c - 5}\n0{clk}\n")
              + (f"#{10 * c}\n1{clk}\n" if c <= n_cycles else "") for c in range(1, n_cycles + 2)]
    width = -(-max(map(len, tails)) // 8) * 8
    table = "".join(t.ljust(width, "\0") for t in tails + [""]).encode()
    return (header.encode(), np.frombuffer(table, "<u8").reshape(len(tails) + 1, -1),
            np.array([w > 1 for _, w in elements]))


# the '0'/'1' text of each byte value, its 8 characters in one uint64; then
# the same with NUL for its leading zeros (one '0' for the byte 0), then NULs
_BYTE_TEXT = np.array([int.from_bytes(f"{v:08b}".encode(), "little") for v in range(256)]
                      + [int.from_bytes(f"{v:b}".rjust(8, "\0").encode(), "little")
                         for v in range(256)] + [0], dtype="<u8")


def emit_vcd(log: CycleLog) -> bytes:
    """Serialize a CycleLog as VCD under the ``TOP_SCOPE`` scope at
    ``TIMESCALE``; parseable by leakscope.vcd.parse_vcd.

    The clock rises at t = 10*c for cycle c (1-based) and falls 5 ticks
    later; all cycle-c changes are emitted at the rising-edge timestamp.
    All elements are dumped at #0 so no signal is ever undefined.
    """
    elements = tuple(log.elements)
    header, tails, vectors = _vcd_text(elements, log.n_cycles)
    narrow, wide = log.rows()
    cycle = np.r_[narrow.cycle, wide.cycle]
    rows = np.lexsort((np.r_[narrow.order, wide.order], cycle))
    # one slot per significant word of each row, top word first
    nonzero = wide.words != 0
    n_words = np.r_[np.ones(len(narrow.cycle), int),
                    np.where(nonzero.any(axis=1), 8 - nonzero[:, ::-1].argmax(axis=1), 1)][rows]
    first = np.cumsum(n_words) - n_words
    k = np.arange(n_words.sum()) - np.repeat(first, n_words)
    row = np.repeat(rows, n_words)
    elem = np.r_[narrow.elem, wide.elem][row]
    word = np.repeat(n_words - 1, n_words) - k
    value = np.r_[narrow.words[:, 0], wide.words.ravel()][np.where(
        row < len(narrow.cycle), row, len(narrow.cycle) + 8 * (row - len(narrow.cycle)) + word)]
    # the clock tails go before the first slot of each cycle
    at = np.r_[first, len(k)][np.searchsorted(cycle[rows], np.arange(log.n_cycles + 2))]
    tail = np.insert(np.where(word == 0, elem, -1), at, len(elements) + np.arange(log.n_cycles + 2))
    value = np.insert(value, at, 0)
    lead = np.insert(k == 0, at, False)
    vector = np.insert((k == 0) & vectors[elem], at, False)
    # a line is 'b' for a vector, its value's bits from the top 1 (one '0'
    # for 0) and its tail: bytes above the top one, and a clock tail's
    # slot, are NUL, which drops out
    digits = value.astype(">u8").view(np.uint8).reshape(-1, 8).astype(np.intp)
    cut = np.where(value != 0, (digits != 0).argmax(axis=1), 7)
    cut = np.where(lead, cut, np.where(tail >= len(elements), 8, -1))[:, None]
    column = np.arange(8)
    text = np.concatenate((
        np.where(vector, np.uint64(ord("b") << 56), np.uint64(0)).astype("<u8")[:, None],
        _BYTE_TEXT[np.where(column < cut, 512, digits + 256 * (column == cut))],
        tails[tail]), axis=1).view(np.uint8)
    return header + text[text != 0].tobytes()
