"""Value Change Dump parsing and per-cycle resampling.

Supports the RTL behavioral-simulation subset of VCD: ``$timescale``,
``$scope module``, ``$var wire|reg``, ``$upscope``, ``$enddefinitions``,
``$dumpvars``, scalar changes (``0/1/x/z`` + id code) and binary vector
changes (``b...``). Real-valued and event vars are skipped along with their
value changes. Unknown bits are preserved as distinct x/z masks all the way
through resampling; downstream metrics treat them as zero and report an
occupancy ratio per module.

The resampled view is sample-and-hold at rising clock edges: a cycle column
holds, for every signal, the last value written at or before that edge. It is
columnar (see ``CycleMatrix``), not one Python object per cell.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass, field, replace
from typing import Iterable, NamedTuple

import numpy as np


class VcdParseError(ValueError):
    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class Change(NamedTuple):
    time: int
    id_code: str
    value: int
    xmask: int
    zmask: int


@dataclass(frozen=True)
class SignalDecl:
    id_code: str
    name: str
    width: int
    scope_path: tuple[str, ...]
    var_type: str = "wire"

    def __post_init__(self):
        if self.width < 1:
            raise VcdParseError(f"signal {self.name}: width must be >= 1")
        if not self.scope_path:
            raise VcdParseError(f"signal {self.name}: empty scope path")

    @property
    def full_name(self) -> str:
        return ".".join(self.scope_path + (self.name,))


@dataclass
class ModuleNode:
    name: str
    children: list["ModuleNode"] = field(default_factory=list)
    signals: list[SignalDecl] = field(default_factory=list)

    def child(self, name: str) -> "ModuleNode":
        for c in self.children:
            if c.name == name:
                return c
        node = ModuleNode(name=name)
        self.children.append(node)
        return node

    def walk(self, prefix: tuple[str, ...] = ()):
        """Yield (path, node) depth-first, declaration order."""
        path = prefix + (self.name,)
        yield path, self
        for c in self.children:
            yield from c.walk(path)

    def find(self, path: Iterable[str]) -> "ModuleNode":
        parts = tuple(path)
        for p, node in self.walk():
            if p == parts:
                return node
        raise KeyError(f"no module at path {'.'.join(parts)}")


class VcdHeader(NamedTuple):
    """The parsed definitions of a dump, reusable for any stream that starts
    with the same ``text``."""

    text: str  # the stream up to its first value-change token
    n_tokens: int
    timescale: str
    declarations: list[SignalDecl]
    hierarchy: ModuleNode
    widths: dict[str, int]  # id code -> width, ignored vars left out
    ignored_codes: set[str]

    def begins(self, data: str) -> bool:
        """Whether ``data`` starts with this header's text, cut at a token end."""
        n = len(self.text)
        return data.startswith(self.text) and (
            len(data) == n or self.text[-1].isspace() or data[n].isspace())


@dataclass
class WaveDump:
    timescale: str
    declarations: list[SignalDecl]
    hierarchy: ModuleNode
    changes: list[Change]
    header: VcdHeader | None = field(default=None, repr=False, compare=False)

    def structurally_equal(self, other: "WaveDump") -> bool:
        return (
            self.declarations == other.declarations
            and _tree_equal(self.hierarchy, other.hierarchy)
            and self.changes == other.changes
        )


def _tree_equal(a: ModuleNode, b: ModuleNode) -> bool:
    if a.name != b.name or a.signals != b.signals or len(a.children) != len(b.children):
        return False
    return all(_tree_equal(x, y) for x, y in zip(a.children, b.children))


_NOT_BITS = str.maketrans("", "", "01xXzZ")
_VALUE_BITS = str.maketrans("01xXzZ", "010000")
_X_BITS = str.maketrans("01xXzZ", "001100")
_Z_BITS = str.maketrans("01xXzZ", "000011")


def _line_of(text: str, index: int) -> int:
    """1-based line of the ``index``-th whitespace-separated token of ``text``."""
    lineno = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        index -= len(line.split())
        if index < 0:
            break
    return lineno


def _parse_bits(bits: str, width: int) -> tuple[int, int, int]:
    """(value, xmask, zmask) of a binary value; raises ValueError naming the fault."""
    if len(bits) > width:
        raise ValueError(f"vector value '{bits}' wider than declared width {width}")
    if not bits:
        raise ValueError("empty vector value")
    bad = bits.translate(_NOT_BITS)
    if bad:
        raise ValueError(f"bad bit character '{bad[0]}'")
    if len(bits) < width and bits[0] in "xXzZ":  # x/z extend with themselves
        bits = bits[0] * (width - len(bits)) + bits
    return (int(bits.translate(_VALUE_BITS), 2), int(bits.translate(_X_BITS), 2),
            int(bits.translate(_Z_BITS), 2))


def _until_end(toks, pos, at, what, fail):
    """(tokens from ``pos`` up to the next ``$end``, index after it)."""
    try:
        end = toks.index("$end", pos)
    except ValueError:
        fail(f"unexpected end of stream inside {what}", at)
    return toks[pos:end], end + 1


def _parse_header(data: str, toks, fail) -> VcdHeader:
    """Parse the definitions, from the first token up to $enddefinitions."""
    timescale = ""
    declarations: list[SignalDecl] = []
    ignored_codes: set[str] = set()
    root: ModuleNode | None = None
    scope_stack: list[ModuleNode] = []
    scope_paths: list[tuple[str, ...]] = []  # names along scope_stack
    by_code: dict[str, SignalDecl] = {}
    n_toks = len(toks)
    pos = 0

    def read_until_end(at, what):
        nonlocal pos
        parts, pos = _until_end(toks, pos, at, what, fail)
        return parts

    while True:
        if pos >= n_toks:
            fail("stream ended before $enddefinitions")
        at = pos
        tok = toks[pos]
        pos += 1
        if tok == "$enddefinitions":
            read_until_end(at, "$enddefinitions")
            break
        if tok in ("$date", "$version", "$comment"):
            read_until_end(at, tok)
        elif tok == "$timescale":
            timescale = " ".join(read_until_end(at, "$timescale"))
        elif tok == "$scope":
            parts = read_until_end(at, "$scope")
            if len(parts) != 2:
                fail(f"malformed $scope: {' '.join(parts)}", at)
            scope_type, name = parts
            if scope_type != "module":
                fail(f"unsupported scope type '{scope_type}'", at)
            if not scope_stack:
                if root is None:
                    root = ModuleNode(name=name)
                elif root.name != name:
                    fail("multiple top-level scopes are not supported", at)
                scope_stack.append(root)
                scope_paths.append((name,))
            else:
                scope_stack.append(scope_stack[-1].child(name))
                scope_paths.append(scope_paths[-1] + (name,))
        elif tok == "$upscope":
            read_until_end(at, "$upscope")
            if not scope_stack:
                fail("$upscope without matching $scope", at)
            scope_stack.pop()
            scope_paths.pop()
        elif tok == "$var":
            parts = read_until_end(at, "$var")
            if len(parts) < 4:
                fail(f"malformed $var: {' '.join(parts)}", at)
            var_type, width_s, code, name = parts[0], parts[1], parts[2], parts[3]
            # trailing tokens like "[31:0]" are part of the reference; ignored
            if var_type in ("real", "realtime", "event"):
                ignored_codes.add(code)
                continue
            if var_type not in ("wire", "reg", "integer", "logic"):
                fail(f"unsupported var type '{var_type}'", at)
            try:
                width = int(width_s)
            except ValueError:
                fail(f"bad width '{width_s}' in $var", at)
            if width < 1:
                fail(f"bad width {width} in $var", at)
            if not scope_stack:
                fail(f"$var '{name}' outside any scope", at)
            if code in by_code:
                fail(f"duplicate id code '{code}'", at)
            decl = SignalDecl(code, name, width, scope_paths[-1], var_type)
            by_code[code] = decl
            declarations.append(decl)
            scope_stack[-1].signals.append(decl)
        else:
            fail(f"unexpected token '{tok}' in definitions", at)

    if root is None:
        fail("no $scope found in definitions")
    # the text up to the first value change, with the whitespace before it
    rest = data.split(None, pos)
    text = data[:len(data) - len(rest[pos])] if len(rest) > pos else data
    widths = {code: d.width for code, d in by_code.items() if code not in ignored_codes}
    return VcdHeader(text, pos, timescale, declarations, root, widths, ignored_codes)


def parse_vcd(data: bytes | str, header: VcdHeader | None = None) -> WaveDump:
    """Parse a VCD byte/text stream into a WaveDump.

    ``header``, the ``WaveDump.header`` of an earlier parse, is reused when
    the stream starts with its text: only the value changes are parsed then,
    with the same results and error lines as a full parse.
    """
    if isinstance(data, bytes):
        data = data.decode("ascii", errors="replace")

    toks = data.split()
    n_toks = len(toks)

    def fail(message, index=None):  # lines are counted only on this error path
        line = None if index is None else _line_of(data, index)
        raise VcdParseError(message, line) from None

    if header is None or not header.begins(data):
        header = _parse_header(data, toks, fail)
    widths, ignored_codes = header.widths, header.ignored_codes

    # --- value changes -----------------------------------------------------
    # Fast path: plain 0/1 values go straight through int(bits, 2); only
    # values with x/z bits (or faults) take _parse_bits.
    changes: list[Change] = []
    append = changes.append
    make = tuple.__new__
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
                if i >= n_toks:  # real value for an ignored var
                    fail(f"truncated stream (last good timestamp {cur_time})", i - 1)
                if toks[i] not in ignored_codes:
                    fail(f"real value change for non-real id '{toks[i]}'", i - 1)
                i += 1
            elif tok not in ("$dumpvars", "$dumpall", "$dumpon", "$dumpoff", "$end"):
                fail(f"unexpected token '{tok}' in value changes", i - 1)
            continue
        width = widths.get(code)
        if width is None:
            if code in ignored_codes:
                continue
            fail(f"value change for undeclared id code '{code}'", i - 1)
        try:
            value = int(bits, 2)
        except ValueError:
            value = -1
        # int() also takes a sign, '_', a 0b prefix and non-ASCII digits;
        # those fall through to _parse_bits, which rejects them.
        if (value >= 0 and len(bits) <= width and bits[0] in "01" and bits.isascii()
                and "_" not in bits and "b" not in bits and "B" not in bits):
            append(make(Change, (cur_time, code, value, 0, 0)))
            continue
        try:
            append(make(Change, (cur_time, code, *_parse_bits(bits, width))))
        except ValueError as e:
            fail(str(e), at)

    return WaveDump(
        timescale=header.timescale,
        declarations=header.declarations,
        hierarchy=header.hierarchy,
        changes=changes,
        header=header,
    )


def load_vcd_file(path, header: VcdHeader | None = None) -> WaveDump:
    with open(path, "rb") as f:
        return parse_vcd(f.read(), header)


def _column_layout(declarations) -> tuple[dict[str, range], np.ndarray]:
    """Word columns of every signal (declaration order, low word first), and
    each column's all-bits mask, which is also its pre-dump x mask."""
    widths = np.array([d.width for d in declarations], dtype=np.int64)
    n_words = (widths + 63) // 64
    stops = np.cumsum(n_words)
    signal_cols = {d.id_code: range(b - w, b) for d, b, w in
                   zip(declarations, stops.tolist(), n_words.tolist())}
    masks = np.full(int(stops[-1]) if len(stops) else 0, ~np.uint64(0))
    masks[stops - 1] >>= (64 * n_words - widths).astype(np.uint64)
    return signal_cols, masks


@dataclass
class CycleMatrix:
    """Per-cycle samples of one dump, held as change rows per word column.

    Signal ``code`` owns the uint64 word columns ``signal_cols[code]``, low
    word first. ``values``, ``xmask`` and ``zmask`` hold one row per column
    and change, sorted by ``keys = column * stride + time rank``: rank 0 is
    each column's pre-dump row (all bits x), changes rank their timestamps
    1, 2, ... A column's sample at edge ``k`` is its last row with ``key <=
    column * stride + edge_ranks[k]``, which one ``searchsorted`` finds.
    """

    signal_cols: dict[str, range]
    keys: np.ndarray
    values: np.ndarray
    xmask: np.ndarray
    zmask: np.ndarray
    stride: int
    edge_ranks: np.ndarray
    edge_times: list[int]

    @classmethod
    def from_rows(cls, layout, cols, ranks, values, xmask, zmask, n_ranks,
                  edge_ranks, edge_times):
        """Assemble from change rows in time order (rank 1 .. ``n_ranks``);
        ``layout`` is ``_column_layout`` of the declarations."""
        signal_cols, full = layout
        n_cols = len(full)
        cols = np.concatenate([np.arange(n_cols), cols])
        order = np.argsort(cols, kind="stable")  # keeps time order per column
        stride = n_ranks + 1
        ranks = np.concatenate([np.zeros(n_cols, dtype=np.int64), ranks])
        zero = np.zeros(n_cols, dtype=np.uint64)
        return cls(
            signal_cols=signal_cols,
            keys=(cols * stride + ranks)[order],
            values=np.concatenate([zero, values])[order],
            xmask=np.concatenate([full, xmask])[order],
            zmask=np.concatenate([zero, zmask])[order],
            stride=stride,
            edge_ranks=np.asarray(edge_ranks, dtype=np.int64),
            edge_times=list(edge_times),
        )

    @property
    def n_cycles(self) -> int:
        return len(self.edge_times)

    def truncated(self, d: int) -> "CycleMatrix":
        if d == self.n_cycles:
            return self
        return replace(self, edge_ranks=self.edge_ranks[:d], edge_times=self.edge_times[:d])

    def rows(self, cols, start: int = 0, end: int | None = None) -> np.ndarray:
        """(len(cols), end - start) row index of each column's sample at each
        edge in ``[start, end)``."""
        edges = np.arange(self.n_cycles)[start:end]
        return self.rows_at(np.asarray(cols, dtype=np.int64)[:, None], edges[None, :])

    def rows_at(self, cols, edges) -> np.ndarray:
        """Row index of column ``cols[i]``'s sample at edge ``edges[i]``
        (the two broadcast)."""
        queries = np.asarray(cols, dtype=np.int64) * self.stride + self.edge_ranks[edges]
        return np.searchsorted(self.keys, queries, side="right") - 1

    def module_columns(self, node: ModuleNode) -> np.ndarray:
        """Word columns of the signals a module owns, in declaration order."""
        if not node.signals:
            raise ValueError(f"module '{node.name}' owns no signals")
        return np.array([c for s in node.signals for c in self.signal_cols[s.id_code]])

    @functools.cached_property
    def cells(self) -> dict[str, list]:
        """id code -> per-cycle Python ints (None where a cell has x/z bits),
        a view for comparisons; scoring reads the arrays."""
        out = {}
        for code, cols in self.signal_cols.items():
            rows = self.rows(cols)
            known = ((self.xmask[rows] | self.zmask[rows]) == 0).all(axis=0)
            ints = [int.from_bytes(w.tobytes(), "little") for w in self.values[rows].T.astype("<u8")]
            out[code] = [v if k else None for v, k in zip(ints, known)]
        return out


def _resolve_signal(dump: WaveDump, name: str) -> SignalDecl:
    matches = [d for d in dump.declarations if d.full_name == name]
    if not matches:
        matches = [d for d in dump.declarations if d.name == name]
    if not matches:
        raise VcdParseError(f"clock signal '{name}' not found")
    if len(matches) > 1:
        raise VcdParseError(f"clock name '{name}' is ambiguous ({len(matches)} matches)")
    return matches[0]


def _rising_edges(clock_changes) -> list[int]:
    """Times where the clock goes from a known 0 to a known 1; of several
    changes at one timestamp, the last one counts."""
    edges = []
    before = None  # clock state after the previous timestamp; None is x/z
    for k, ch in enumerate(clock_changes):
        if k + 1 < len(clock_changes) and clock_changes[k + 1].time == ch.time:
            continue
        now = None if ch.xmask or ch.zmask else ch.value
        if before == 0 and now == 1:
            edges.append(ch.time)
        before = now
    return edges


def _pack_words(ints, n_words) -> np.ndarray:
    """Little-endian uint64 words of each int, ``n_words[i]`` words for int i."""
    buf = b"".join([v.to_bytes(8 * w, "little") for v, w in zip(ints, n_words)])
    return np.frombuffer(buf, dtype="<u8")


def resample_per_cycle(dump: WaveDump, clock_name: str) -> CycleMatrix:
    """Sample every signal at each rising edge of the named 1-bit clock.

    A rising edge is a transition from a known 0 to 1. Changes that share the
    edge's timestamp are applied before sampling.
    """
    clock = _resolve_signal(dump, clock_name)
    if clock.width != 1:
        raise VcdParseError(f"clock '{clock_name}' is {clock.width} bits wide, need 1")
    changes = dump.changes
    edge_times = _rising_edges([c for c in changes if c.id_code == clock.id_code])
    if not edge_times:
        raise VcdParseError(f"clock '{clock_name}' has no rising edges")

    # one row per word of each change: row r of a change that starts at row
    # first and column start sits in column start + (r - first)
    layout = _column_layout(dump.declarations)
    spans = [layout[0][c.id_code] for c in changes]
    n_words = np.array([len(s) for s in spans], dtype=np.int64)
    offsets = np.array([s.start for s in spans], dtype=np.int64) - (np.cumsum(n_words) - n_words)
    cols = np.repeat(offsets, n_words) + np.arange(n_words.sum())
    times, ranks = np.unique(np.array([c.time for c in changes], dtype=np.int64),
                             return_inverse=True)
    values = _pack_words([c.value for c in changes], n_words.tolist())
    if any(c.xmask or c.zmask for c in changes):
        xmask, zmask = (_pack_words([c[k] for c in changes], n_words.tolist()) for k in (3, 4))
    else:
        xmask = zmask = np.zeros(len(cols), dtype=np.uint64)
    return CycleMatrix.from_rows(
        layout, cols, np.repeat(ranks, n_words) + 1, values, xmask, zmask, len(times),
        np.searchsorted(times, edge_times, side="right"), edge_times)


@dataclass
class RunSet:
    """Aligned per-cycle matrices for N runs over one hierarchy."""

    runs: list[CycleMatrix]
    n_cycles: int
    hierarchy: ModuleNode
    declarations: list[SignalDecl]
    labels: list[str]

    @property
    def n_runs(self) -> int:
        return len(self.runs)

    @property
    def cycle_period(self) -> int:
        edges = self.runs[0].edge_times if self.runs else []
        return edges[1] - edges[0] if len(edges) >= 2 else (edges[0] if edges else 0)


def read_manifest(path) -> tuple[list[str], list[str]]:
    """Read a run manifest: one VCD path per line, optional second column label.

    Relative paths are resolved against the manifest's directory.
    """
    base = os.path.dirname(os.path.abspath(path))
    paths, labels = [], []
    with open(path) as f:
        for i, line in enumerate(f, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(None, 1)
            p = parts[0]
            if not os.path.isabs(p):
                p = os.path.join(base, p)
            paths.append(p)
            labels.append(parts[1].strip() if len(parts) > 1 else f"run{i-1}")
    return paths, labels


def load_run_set(paths, clock_name: str, alignment: str = "truncate-to-min",
                 labels=None) -> RunSet:
    """Parse and resample several dumps of the same design into a RunSet,
    holding one parsed dump at a time."""
    if alignment not in ("truncate-to-min", "error-on-mismatch"):
        raise ValueError(f"unknown alignment policy '{alignment}'")
    paths = list(paths)
    if len(paths) < 2:
        raise ValueError(f"need at least 2 runs, got {len(paths)}")
    if labels is None:
        labels = [str(p) for p in paths]

    first = None
    matrices = []
    for p in paths:
        # a file whose header text matches the first file's reuses its parse
        dump = load_vcd_file(p, first.header if first else None)
        if first is None:
            first = dump
        elif dump.header is not first.header and (
                dump.declarations != first.declarations
                or not _tree_equal(dump.hierarchy, first.hierarchy)):
            raise ValueError(f"hierarchy mismatch: '{p}' does not match '{paths[0]}'")
        matrices.append(resample_per_cycle(dump, clock_name))
    lengths = [m.n_cycles for m in matrices]
    if alignment == "error-on-mismatch" and len(set(lengths)) > 1:
        raise ValueError(f"run lengths differ: {lengths}")
    d_min = min(lengths)
    matrices = [m.truncated(d_min) for m in matrices]

    return RunSet(
        runs=matrices,
        n_cycles=d_min,
        hierarchy=first.hierarchy,
        declarations=first.declarations,
        labels=list(labels),
    )
