"""Value Change Dump parsing and per-cycle resampling.

Supports the RTL behavioral-simulation subset of VCD: ``$timescale``,
``$scope module``, ``$var wire|reg``, ``$upscope``, ``$enddefinitions``,
``$dumpvars``, scalar changes (``0/1/x/z`` + id code) and binary vector
changes (``b...``). Real-valued and event vars are skipped along with their
value changes. Unknown bits are preserved as distinct x/z masks all the way
through resampling; downstream metrics treat them as zero and report an
occupancy ratio per module.

The body is parsed in bulk. numpy splits its bytes into tokens; the token
after a vector or real value is its id code whatever it looks like, so items
are found by their position in each run of such tokens. Id codes are packed
into integers and looked up in one sorted table, and 0/1 values become
little-endian uint64 words, as many per value as its signal's width needs.
Only x/z values, ``$comment``, real values and faults go through the
per-token code, one at a time and in stream order. The changes stay arrays
(``ChangeList``).

The resampled view is sample-and-hold at rising clock edges: a cycle column
holds, for every signal, the last value written at or before that edge. It is
columnar (see ``CycleMatrix``), not one Python object per cell.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass, field, replace

import numpy as np


class VcdParseError(ValueError):
    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


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

    @functools.cached_property
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


@dataclass(frozen=True, eq=False)
class VcdHeader:
    """The parsed definitions of a dump, reusable for any stream that starts
    with the same ``text``."""

    text: bytes  # the stream up to its first value-change token
    n_tokens: int
    timescale: str
    declarations: list[SignalDecl]
    hierarchy: ModuleNode
    index: dict[str, int]  # id code -> declaration index, ignored vars left out
    ignored_codes: set[str]
    widths: np.ndarray  # of the declarations
    packed: np.ndarray  # sorted packed id codes (see _pack_codes) of the index
    packed_decl: np.ndarray  # declaration index of each packed code

    def begins(self, data: bytes) -> bool:
        """Whether ``data`` starts with this header's text, cut at a token end."""
        n = len(self.text)
        return data.startswith(self.text) and (
            len(data) == n or _SPACE[self.text[-1]] or _SPACE[data[n]])

    @functools.cached_property
    def codes(self) -> list[str]:
        return [d.id_code for d in self.declarations]

    @functools.cached_property
    def layout(self):
        """``_column_layout`` of the declarations."""
        return _column_layout(self.declarations)


class ChangeList:
    """The value changes of a dump in stream order, held as arrays.

    Change ``i`` sets signal ``codes[decl[i]]`` (``decl`` indexes the
    declarations) at ``times[i]``; its words, low word first, are entries
    ``first[i]`` to ``first[i + 1] - 1`` of ``values``, ``xmask`` and
    ``zmask``.
    """

    def __init__(self, codes, times, decl, first, values, xmask, zmask):
        self.codes, self.times, self.decl, self.first = codes, times, decl, first
        self.values, self.xmask, self.zmask = values, xmask, zmask

    def __len__(self) -> int:
        return len(self.times)


@dataclass
class WaveDump:
    timescale: str
    declarations: list[SignalDecl]
    hierarchy: ModuleNode
    changes: ChangeList
    header: VcdHeader | None = field(default=None, repr=False, compare=False)


def _tree_equal(a: ModuleNode, b: ModuleNode) -> bool:
    if a.name != b.name or a.signals != b.signals or len(a.children) != len(b.children):
        return False
    return all(_tree_equal(x, y) for x, y in zip(a.children, b.children))


_NOT_BITS = str.maketrans("", "", "01xXzZ")
_VALUE_BITS = str.maketrans("01xXzZ", "010000")
_X_BITS = str.maketrans("01xXzZ", "001100")
_Z_BITS = str.maketrans("01xXzZ", "000011")
# the bytes str.split() takes for whitespace in ASCII text
_SPACE = np.zeros(256, dtype=bool)
_SPACE[[9, 10, 11, 12, 13, 28, 29, 30, 31, 32]] = True
_POW10 = 10 ** np.arange(17, -1, -1, dtype=np.int64)  # plain timestamps have <= 18 digits
_SKIP = ("$dumpvars", "$dumpall", "$dumpon", "$dumpoff", "$end")


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


def _tokens(buf: np.ndarray, offset: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Byte offsets (starts, ends) of the whitespace-separated tokens of ``buf``."""
    edges = np.diff(np.concatenate(([True], _SPACE[buf], [True])).view(np.int8))
    return np.flatnonzero(edges == -1) + offset, np.flatnonzero(edges == 1) + offset


def _pack_codes(buf, starts, lengths) -> np.ndarray:
    """Each id code of at most 7 bytes as one uint64: the bytes from the top,
    the length in the low byte. Longer codes pack to 0, as no code does."""
    packed = lengths.astype(np.uint64)
    for j in range(min(int(lengths.max(initial=0)), 7)):
        byte = np.where(lengths > j, buf[np.minimum(starts + j, len(buf) - 1)], 0)
        packed |= byte.astype(np.uint64) << np.uint64(56 - 8 * j)
    return np.where(lengths <= 7, packed, np.uint64(0))


def _right_aligned(digits, begin, lengths, width) -> np.ndarray:
    """(len(begin), width) uint8: the runs ``digits[begin[i]:begin[i] +
    lengths[i]]``, right-aligned, zeros before them."""
    out = np.zeros((len(begin), width), dtype=np.uint8)
    first = np.cumsum(lengths) - lengths
    src = np.arange(int(lengths.sum())) + np.repeat(begin - first, lengths)
    out.ravel()[src + np.repeat(np.arange(len(begin)) * width + width - lengths - begin,
                                lengths)] = digits[src]
    return out


def _binary_words(digits, begin, lengths, n_words):
    """The runs ``digits[begin[i]:begin[i] + lengths[i]]`` (digit values, each
    run at least one long) as little-endian uint64 words, ``n_words[i]`` for
    run i, run after run; and whether each run holds only 0 and 1."""
    bad = np.append(np.flatnonzero(digits > 1), len(digits))
    ok = bad[np.searchsorted(bad, begin)] >= begin + lengths
    # word k of a run is its k-th 64 bits from the end, cut from the packed
    # digits read as big-endian words
    packed = np.packbits(digits)
    stream = np.zeros(len(packed) // 8 + 2, dtype=">u8")
    stream.view(np.uint8)[:len(packed)] = packed
    stream = stream.astype(np.uint64)
    run = np.repeat(np.arange(len(begin)), n_words)
    k = np.arange(len(run)) - np.repeat(np.cumsum(n_words) - n_words, n_words)
    width = np.clip(lengths[run] - 64 * k, 0, 64)
    at = np.maximum(begin[run] + lengths[run] - 64 * k - width, 0)  # 0 past a run's top
    q, r = at >> 6, (at & 63).astype(np.uint64)
    top = (stream[q] << r) | ((stream[q + 1] >> np.uint64(1)) >> (np.uint64(63) - r))
    return np.where(width > 0, top >> (64 - width).astype(np.uint64), np.uint64(0)), ok


def _parse_header(toks, fail) -> VcdHeader:
    """Parse the definitions, from the first token up to $enddefinitions.
    The returned header's ``text`` is left empty."""
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
    index = {d.id_code: k for k, d in enumerate(declarations) if d.id_code not in ignored_codes}
    # the last entry is one no id code packs to
    short = sorted((int.from_bytes(c.encode().ljust(7, b"\0"), "big") << 8 | len(c), k)
                   for c, k in index.items() if c.isascii() and len(c) <= 7) + [(2**64 - 1, 0)]
    packed, packed_decl = (np.array(col, dtype=t) for col, t in zip(zip(*short), (np.uint64, int)))
    return VcdHeader(b"", pos, timescale, declarations, root, index, ignored_codes,
                     np.array([d.width for d in declarations], dtype=np.int64),
                     packed, packed_decl)


def parse_vcd(data: bytes, header: VcdHeader | None = None) -> WaveDump:
    """Parse a VCD byte stream into a WaveDump.

    ``header``, the ``WaveDump.header`` of an earlier parse, is reused when
    the stream starts with its text: only the value changes are parsed then,
    with the same results and error lines as a full parse.
    """
    def fail(message, index=None):  # lines are counted only on this error path
        line = None if index is None else _line_of(data.decode("ascii", errors="replace"), index)
        raise VcdParseError(message, line) from None

    buf = np.frombuffer(data, dtype=np.uint8)
    if header is None or not header.begins(data):
        starts, ends = _tokens(buf)
        header = _parse_header(data.decode("ascii", errors="replace").split(), fail)
        n = header.n_tokens
        header = replace(header, text=data[:starts[n]] if n < len(starts) else data)
        starts, ends = starts[n:], ends[n:]
    else:
        starts, ends = _tokens(buf[len(header.text):], len(header.text))
    return WaveDump(
        timescale=header.timescale,
        declarations=header.declarations,
        hierarchy=header.hierarchy,
        changes=_parse_changes(buf, starts, ends, header, fail),
        header=header,
    )


def _parse_changes(buf, starts, ends, header, fail) -> ChangeList:
    """The value changes of the body tokens at byte offsets ``starts``/``ends``.

    Timestamps, plain 0/1 values of declared signals and the $dump keywords
    are parsed in bulk. Every other item (x/z values, $comment, real values,
    faults) goes through ``item`` one at a time, in stream order, with the
    time in force before it.
    """
    n, base = len(starts), header.n_tokens  # base: token index of body token 0

    def tok(i):
        return buf[starts[i]:ends[i]].tobytes().decode("ascii", errors="replace")

    # Where items start. A vector or real value takes the next token as its
    # id code, whatever that token looks like, so in a run of such tokens
    # that starts an item every other token starts one. $comment takes the
    # tokens up to $end, and the runs restart after it.
    lead = buf[starts]
    vec = (lead == 98) | (lead == 66)
    takes = vec | (lead == 114) | (lead == 82)
    at = np.arange(n)
    run = np.maximum.accumulate(np.where(takes & ~np.r_[False, takes][:n], at, 0))
    dollar = np.flatnonzero((lead == 36) & (ends - starts >= 4))  # $end, $comment, $dump*
    names = [tok(i) for i in dollar]
    end_marks = dollar[[w == "$end" for w in names]]

    def item_starts(pos, stop):
        t = takes[pos:stop]
        even = (at[pos:stop] - np.maximum(run[pos:stop], pos)) % 2 == 0
        return np.flatnonzero(np.where(t, even, np.r_[True, ~(t & even)][:len(t)])) + pos

    parts, pos = [], 0
    for c in dollar[[w == "$comment" for w in names]]:
        if c < pos or (c > pos and takes[c - 1] and (c - 1 - max(run[c - 1], pos)) % 2 == 0):
            continue  # inside an earlier comment, or an id code
        parts += [item_starts(pos, c), [c]]
        e = np.searchsorted(end_marks, c + 1)
        pos = int(end_marks[e]) + 1 if e < len(end_marks) else n + 1
    if pos < n:
        parts.append(item_starts(pos, n))
    items = np.concatenate(parts).astype(np.int64) if parts else np.zeros(0, np.int64)

    # bulk classification of the items
    s, e = starts[items], ends[items]
    kind = lead[items]
    coded = np.minimum(items + 1, n - 1)
    is_vec = vec[items]
    bits_n = np.where(is_vec, e - s - 1, 1)
    code_s = np.where(is_vec, starts[coded], s + 1)
    packed = _pack_codes(buf, code_s, np.where(is_vec, ends[coded], e) - code_s)
    hit = np.minimum(np.searchsorted(header.packed, packed), len(header.packed) - 1)
    found, decl = header.packed[hit] == packed, header.packed_decl[hit]
    plain = ((is_vec & (items + 1 < n)) | (((kind == 48) | (kind == 49)) & (e - s > 1))) \
        & found & (bits_n >= 1) & (bits_n <= header.widths[decl])
    # the tokens' bytes back to back, as digit values, and where each token starts
    body = buf[starts[0]:ends[-1]] if n else buf[:0]
    digits = body[~_SPACE[body]] - 48
    at_digit = (np.cumsum(ends - starts) - ends + starts)[items]
    size = (header.widths[decl] + 63) // 64
    words = np.zeros(0, dtype=np.uint64)
    if plain.any():
        sel = np.flatnonzero(plain)
        words, ok = _binary_words(digits, at_digit[sel] + is_vec[sel], bits_n[sel], size[sel])
        plain[sel[~ok]] = False
        words = words[np.repeat(ok, size[sel])]

    is_time = kind == 35
    short = np.flatnonzero(is_time & (e - s >= 2) & (e - s <= 19))
    number = _right_aligned(digits, at_digit[short] + 1, e[short] - s[short] - 1, 18)
    decimal = (number <= 9).all(axis=1)
    times, timed = np.zeros(len(items), dtype=np.int64), np.zeros(len(items), dtype=bool)
    times[short[decimal]], timed[short[decimal]] = number[decimal] @ _POW10, True
    for k in np.flatnonzero(is_time & ~timed):  # int() also takes a sign and '_'
        try:
            t = int(tok(items[k])[1:])
        except ValueError:
            continue
        if -2**63 <= t < 2**63:
            times[k], timed[k] = t, True
    clock = np.flatnonzero(is_time)  # a timestamp below the one before it is a fault
    timed[clock[1:][times[clock[1:]] < times[clock[:-1]]]] = False
    skip = np.zeros(n, dtype=bool)
    skip[dollar[[w in _SKIP for w in names]]] = True
    skip = skip[items]

    # the time in force at each item: the last timestamp before it
    last = np.maximum.accumulate(np.where(is_time, np.arange(len(items)), -1))
    prior = np.r_[-1, last][:len(items)]
    now = np.where(prior >= 0, times[np.maximum(prior, 0)], 0)

    def item(i, cur_time, have_time):
        """One item the bulk pass does not take, at token ``i``: a change
        (time, declaration, value, xmask, zmask) or None; raises on faults."""
        tok_i = tok(i)
        lead = tok_i[0]
        if lead == "b" or lead == "B":
            if i + 1 >= n:
                fail(f"truncated stream: vector value without id code "
                     f"(last good timestamp {cur_time})", base + i)
            code, bits = tok(i + 1), tok_i[1:]
        elif lead in "01xXzZ" and len(tok_i) > 1:
            code, bits = tok_i[1:], lead
        else:
            if lead == "#":
                try:
                    t = int(tok_i[1:])
                except ValueError:
                    fail(f"bad timestamp '{tok_i}'", base + i)
                if have_time and t < cur_time:
                    fail(f"timestamp {t} goes backwards", base + i)
                fail(f"timestamp {t} out of range", base + i)
            elif tok_i == "$comment":
                if np.searchsorted(end_marks, i + 1) == len(end_marks):
                    fail("unexpected end of stream inside $comment", base + i)
            elif lead in "rR":
                if i + 1 >= n:  # real value for an ignored var
                    fail(f"truncated stream (last good timestamp {cur_time})", base + i)
                if tok(i + 1) not in header.ignored_codes:
                    fail(f"real value change for non-real id '{tok(i + 1)}'", base + i)
            elif tok_i not in _SKIP:
                fail(f"unexpected token '{tok_i}' in value changes", base + i)
            return None
        k = header.index.get(code)
        if k is None:
            if code in header.ignored_codes:
                return None
            fail(f"value change for undeclared id code '{code}'",
                 base + i + (lead in "bB"))
        try:
            return (cur_time, k, *_parse_bits(bits, int(header.widths[k])))
        except ValueError as err:
            fail(str(err), base + i)

    rest = []
    for k in np.flatnonzero(~(plain | timed | skip)):
        row = item(int(items[k]), int(now[k]), prior[k] >= 0)
        if row is not None:
            rest.append((k, *row))
    return _change_list(header, np.flatnonzero(plain), now, decl, words, rest)


def _change_list(header, plain, now, decl, words, rest) -> ChangeList:
    """One ChangeList in item order from the bulk items ``plain`` with their
    value ``words`` and the ``rest`` rows (item, time, declaration, value,
    xmask, zmask)."""
    order = np.sort(np.concatenate((plain, np.array([r[0] for r in rest], dtype=np.int64))))
    decls, times = decl[order], now[order]
    at = np.searchsorted(order, [r[0] for r in rest])
    decls[at], times[at] = [r[2] for r in rest], [r[1] for r in rest]
    n_words = (header.widths[decls] + 63) // 64
    first = np.concatenate(([0], np.cumsum(n_words)))
    values, xmask, zmask = (np.zeros(first[-1], dtype=np.uint64) for _ in range(3))
    bulk = np.ones(len(order), dtype=bool)
    bulk[at] = False
    values[np.repeat(bulk, n_words)] = words
    for k, row in zip(at, rest):
        a, b = first[k], first[k + 1]
        for arr, v in zip((values, xmask, zmask), row[3:]):
            arr[a:b] = np.frombuffer(v.to_bytes(8 * (b - a), "little"), dtype="<u8")
    return ChangeList(header.codes, times, decls, first,
                      values, xmask, zmask)


def load_vcd_file(path, header: VcdHeader | None = None) -> WaveDump:
    with open(path, "rb") as f:
        return parse_vcd(f.read(), header)


def _column_layout(declarations) -> tuple[dict[str, range], np.ndarray, np.ndarray]:
    """Word columns of every signal (declaration order, low word first), each
    column's all-bits mask, which is also its pre-dump x mask, and each
    signal's first column."""
    widths = np.array([d.width for d in declarations], dtype=np.int64)
    n_words = (widths + 63) // 64
    stops = np.cumsum(n_words)
    signal_cols = {d.id_code: range(b - w, b) for d, b, w in
                   zip(declarations, stops.tolist(), n_words.tolist())}
    masks = np.full(int(stops[-1]) if len(stops) else 0, ~np.uint64(0))
    masks[stops - 1] >>= (64 * n_words - widths).astype(np.uint64)
    return signal_cols, masks, stops - n_words


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
        signal_cols, full = layout[:2]
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


def _resolve_signal(dump: WaveDump, name: str) -> SignalDecl:
    matches = [d for d in dump.declarations if d.full_name == name]
    if not matches:
        matches = [d for d in dump.declarations if d.name == name]
    if not matches:
        raise VcdParseError(f"clock signal '{name}' not found")
    if len(matches) > 1:
        raise VcdParseError(f"clock name '{name}' is ambiguous ({len(matches)} matches)")
    return matches[0]


def resample_per_cycle(dump: WaveDump, clock_name: str) -> CycleMatrix:
    """Sample every signal at each rising edge of the named 1-bit clock.

    A rising edge is a transition from a known 0 to 1; of several clock
    changes at one timestamp, the last one counts. Changes that share the
    edge's timestamp are applied before sampling.
    """
    clock = _resolve_signal(dump, clock_name)
    if clock.width != 1:
        raise VcdParseError(f"clock '{clock_name}' is {clock.width} bits wide, need 1")
    ch = dump.changes
    ticks = np.flatnonzero(ch.decl == ch.codes.index(clock.id_code))
    t, w = ch.times[ticks], ch.first[ticks]
    state = np.where((ch.xmask[w] | ch.zmask[w]) == 0, ch.values[w].astype(np.int64), -1)
    last = np.r_[t[1:] != t[:-1], True][:len(t)]
    t, state = t[last], state[last]
    edge_times = t[(np.r_[-1, state][:len(state)] == 0) & (state == 1)]
    if not len(edge_times):
        raise VcdParseError(f"clock '{clock_name}' has no rising edges")

    # one row per word of each change: word j of change i is in column
    # start + j of its signal's columns
    layout = dump.header.layout
    n_words = np.diff(ch.first)
    cols = np.repeat(layout[2][ch.decl] - ch.first[:-1], n_words) + np.arange(ch.first[-1])
    times, ranks = np.unique(ch.times, return_inverse=True)
    return CycleMatrix.from_rows(
        layout, cols, np.repeat(ranks, n_words) + 1, ch.values, ch.xmask, ch.zmask,
        len(times), np.searchsorted(times, edge_times, side="right"), edge_times.tolist())


@dataclass
class RunSet:
    """Aligned per-cycle matrices for N runs over one hierarchy."""

    runs: list[CycleMatrix]
    n_cycles: int
    hierarchy: ModuleNode
    declarations: list[SignalDecl]

    @property
    def n_runs(self) -> int:
        return len(self.runs)


def read_manifest(path) -> list[str]:
    """Read a run manifest: one VCD path per line. A second column (a run
    label) is accepted and ignored.

    Relative paths are resolved against the manifest's directory.
    """
    base = os.path.dirname(os.path.abspath(path))
    paths = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            p = line.split(None, 1)[0]
            paths.append(p if os.path.isabs(p) else os.path.join(base, p))
    return paths


def load_run_set(paths, clock_name: str) -> RunSet:
    """Parse and resample several dumps of the same design into a RunSet,
    holding one parsed dump at a time. Runs are truncated to the shortest.
    A ``VcdParseError`` names the file it comes from and keeps its line."""
    paths = list(paths)
    if len(paths) < 2:
        raise ValueError(f"need at least 2 runs, got {len(paths)}")

    first = None
    matrices = []
    for p in paths:
        try:
            # a file whose header text matches the first file's reuses its parse
            dump = load_vcd_file(p, first.header if first else None)
            if first is None:
                first = dump
            elif dump.header is not first.header and (
                    dump.declarations != first.declarations
                    or not _tree_equal(dump.hierarchy, first.hierarchy)):
                raise ValueError(f"hierarchy mismatch: '{p}' does not match '{paths[0]}'")
            matrices.append(resample_per_cycle(dump, clock_name))
        except VcdParseError as err:
            located = VcdParseError(f"{p}: {err}")
            located.line = err.line
            raise located from None
    d_min = min(m.n_cycles for m in matrices)
    return RunSet(
        runs=[m.truncated(d_min) for m in matrices],
        n_cycles=d_min,
        hierarchy=first.hierarchy,
        declarations=first.declarations,
    )
