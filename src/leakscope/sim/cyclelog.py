"""Per-run cycle logs and VCD emission.

A CycleLog is the single-lane view of a batch run: the value of every modeled
state element at run start plus the (cycle, element, new value) changes. The
VCD emitter mirrors the machine's module tree under one ``soc`` top scope and
adds a clock whose rising edge at t = 10*c samples cycle c, so a dump can be
parsed back and resampled into exactly the original log.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from .machine import REG_ROWS, BatchLog, _words_to_int, element_catalog


@dataclass
class CycleLog:
    elements: list[tuple[str, int]]
    initial: dict[str, int]
    changes: list[tuple[int, str, int]]
    n_cycles: int
    label: str = ""

    def value_columns(self) -> dict[str, list[int]]:
        """Dense per-cycle values (sample-and-hold) for every element."""
        cur = dict(self.initial)
        cols = {name: [] for name, _ in self.elements}
        idx = 0
        changes = self.changes
        for c in range(1, self.n_cycles + 1):
            while idx < len(changes) and changes[idx][0] == c:
                _, name, value = changes[idx]
                cur[name] = value
                idx += 1
            for name, _ in self.elements:
                cols[name].append(cur[name])
        return cols


def extract_cycle_log(batch: BatchLog, lane: int, label: str = "") -> CycleLog:
    """Project one lane of a batch log into a CycleLog (real changes only)."""
    catalog = element_catalog(batch.cfg)
    initial = dict(zip(REG_ROWS, batch.initial_regs[:, lane].tolist()))
    initial["dcache.lb.line"] = _words_to_int(batch.initial_lb[lane])
    tags, valid, dirty, slots, rows = batch.initial_cache
    lines = rows[slots[:, :, lane]]
    g = batch.cfg.cache
    for s in range(g.sets):
        for w in range(g.ways):
            initial[f"dcache.arrays.t{s}_{w}"] = int(tags[s, w, lane])
            initial[f"dcache.arrays.f{s}_{w}"] = int(valid[s, w, lane] | (dirty[s, w, lane] << 1))
            initial[f"dcache.arrays.d{s}_{w}"] = _words_to_int(lines[s, w])

    cur = dict(initial)
    changes: list[tuple[int, str, int]] = []

    def push(cycle, name, value):
        if cur[name] != value:
            changes.append((cycle, name, value))
            cur[name] = value

    for ev in batch.events:
        kind = ev[0]
        if kind == "s":
            _, cycle, row, values = ev
            push(cycle, REG_ROWS[row], int(values[lane]))
        elif kind == "lb":
            _, cycle, line = ev
            push(cycle, "dcache.lb.line", _words_to_int(line[lane]))
        else:  # "cl"
            _, cycle, set_idx, way, tag, flags, line = ev
            s, w = int(set_idx[lane]), int(way[lane])
            push(cycle, f"dcache.arrays.t{s}_{w}", int(tag[lane]))
            push(cycle, f"dcache.arrays.f{s}_{w}", int(flags[lane]))
            push(cycle, f"dcache.arrays.d{s}_{w}", _words_to_int(line[lane]))

    changes.sort(key=lambda c: c[0])  # stable: preserves event order per cycle
    return CycleLog(
        elements=catalog,
        initial=initial,
        changes=changes,
        n_cycles=batch.n_cycles,
        label=label,
    )


_ID_CHARS = "".join(chr(c) for c in range(33, 127))


def _vcd_id(index: int) -> str:
    out = ""
    index += 1
    while index:
        index, rem = divmod(index - 1, len(_ID_CHARS))
        out = _ID_CHARS[rem] + out
    return out


@dataclass
class _Scope:
    name: str
    signals: list = field(default_factory=list)  # (short_name, width, id_code)
    children: "list[_Scope]" = field(default_factory=list)

    def child(self, name):
        for c in self.children:
            if c.name == name:
                return c
        node = _Scope(name)
        self.children.append(node)
        return node


CLOCK_NAME = "clk"


@functools.lru_cache(maxsize=8)
def _vcd_header(elements: tuple, top: str, timescale: str) -> tuple[str, tuple[str, ...]]:
    """(definitions text up to the #0 line, id code of each element).

    Every run of one design shares its element catalog, so the header is
    built once per catalog; the clock takes the first id code.
    """
    root = _Scope(top)
    root.signals.append((CLOCK_NAME, 1, _vcd_id(0)))
    codes = []
    for k, (name, width) in enumerate(elements):
        parts = name.split(".")
        node = root
        for part in parts[:-1]:
            node = node.child(part)
        codes.append(_vcd_id(k + 1))
        node.signals.append((parts[-1], width, codes[-1]))

    out: list[str] = [f"$timescale {timescale} $end"]

    def emit_scope(scope: _Scope):
        out.append(f"$scope module {scope.name} $end")
        for sname, width, code in scope.signals:
            out.append(f"$var wire {width} {code} {sname} $end")
        for child in scope.children:
            emit_scope(child)
        out.append("$upscope $end")

    emit_scope(root)
    out.append("$enddefinitions $end")
    return "\n".join(out), tuple(codes)


def emit_vcd(log: CycleLog, top: str = "soc", timescale: str = "1ns") -> bytes:
    """Serialize a CycleLog as VCD; parseable by leakscope.vcd.parse_vcd.

    The clock rises at t = 10*c for cycle c (1-based) and falls 5 ticks
    later; all cycle-c changes are emitted at the rising-edge timestamp.
    All elements are dumped at #0 so no signal is ever undefined.
    """
    header, codes = _vcd_header(tuple(log.elements), top, timescale)
    clock_code = _vcd_id(0)
    codes = dict(zip((name for name, _ in log.elements), codes))
    out: list[str] = [header]

    def fmt(value: int, width: int, code: str) -> str:
        if width == 1:
            return f"{value:b}{code}"
        return f"b{value:b} {code}"

    out.append("#0")
    out.append("$dumpvars")
    out.append(f"0{clock_code}")
    for name, width in log.elements:
        out.append(fmt(log.initial[name], width, codes[name]))
    out.append("$end")

    widths = dict(log.elements)
    idx = 0
    changes = log.changes
    for c in range(1, log.n_cycles + 1):
        t = 10 * c
        out.append(f"#{t}")
        out.append(f"1{clock_code}")
        while idx < len(changes) and changes[idx][0] == c:
            _, name, value = changes[idx]
            out.append(fmt(value, widths[name], codes[name]))
            idx += 1
        out.append(f"#{t + 5}")
        out.append(f"0{clock_code}")
    return ("\n".join(out) + "\n").encode("ascii")
