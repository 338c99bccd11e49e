import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leakscope import vcd
from leakscope.vcd import (
    VcdParseError,
    load_run_set,
    parse_vcd,
    read_manifest,
    resample_per_cycle,
)
from reference import (
    cell_values,
    change_tuples,
    cycle_period,
    find_module,
    matrix_cells,
    naive_parse_bits,
    naive_parse_vcd,
    naive_resample,
    structurally_equal,
)

MINIMAL = """\
$timescale 1ns $end
$scope module top $end
$var wire 1 ! w $end
$upscope $end
$enddefinitions $end
#0
$dumpvars
0!
$end
#10
1!
"""


def test_parse_minimal_dump():
    dump = parse_vcd(MINIMAL.encode())
    assert dump.timescale == "1ns"
    assert len(dump.declarations) == 1
    d = dump.declarations[0]
    assert d.name == "w" and d.width == 1 and d.scope_path == ("top",)
    assert [(c.time, c.id_code, c.value) for c in change_tuples(dump.changes)] == [
        (0, "!", 0), (10, "!", 1)]


def test_parse_nested_scopes():
    text = """\
$scope module a $end
$scope module b $end
$scope module c $end
$var wire 4 # deep $end
$upscope $end
$upscope $end
$var reg 8 $ mid $end
$upscope $end
$enddefinitions $end
#0
b1010 #
b11111111 $
"""
    dump = parse_vcd(text.encode())
    deep = dump.declarations[0]
    assert deep.scope_path == ("a", "b", "c")
    assert deep.full_name == "a.b.c.deep"
    # hierarchy depth 3 along the a/b/c chain
    node = dump.hierarchy
    assert node.name == "a"
    assert node.children[0].name == "b"
    assert node.children[0].children[0].name == "c"
    assert node.children[0].children[0].signals == [deep]
    assert node.signals == [dump.declarations[1]]


def test_parse_determinism():
    a = parse_vcd(MINIMAL.encode())
    b = parse_vcd(MINIMAL.encode())
    assert structurally_equal(a, b)


def test_vector_left_padding():
    text = """\
$scope module t $end
$var wire 8 ! v $end
$upscope $end
$enddefinitions $end
#0
b1 !
#1
bx1 !
#2
bz !
"""
    changes = change_tuples(parse_vcd(text.encode()).changes)
    assert (changes[0].value, changes[0].xmask) == (1, 0)
    # x-extension fills the high bits with x
    assert changes[1].value == 1
    assert changes[1].xmask == 0b11111110
    assert changes[2].zmask == 0xFF


def test_parse_errors_name_lines():
    bad_header = "$scope module t $end\n$var wire nope ! v $end\n"
    with pytest.raises(VcdParseError, match="line 2"):
        parse_vcd(bad_header.encode())

    undeclared = MINIMAL + "0?\n"
    with pytest.raises(VcdParseError, match="undeclared id code"):
        parse_vcd(undeclared.encode())

    with pytest.raises(VcdParseError, match="width"):
        parse_vcd(b"$scope module t $end\n$var wire 4 ! v $end\n$upscope $end\n"
                  b"$enddefinitions $end\n#0\nb10101 !\n")


@pytest.mark.parametrize("value", ["1_0", "+1", "-1", "0b1", "0B1", "12", "1\u0661", ""])
def test_vector_values_reject_int_syntax(value):
    # int(s, 2) takes these; a VCD binary value does not
    text = ("$scope module t $end\n$var wire 8 ! v $end\n$upscope $end\n"
            f"$enddefinitions $end\n#0\nb101 !\nb{value} !\n")
    with pytest.raises(VcdParseError, match="^line 7: (bad bit character|empty)"):
        parse_vcd(text.encode())


def test_truncated_stream_names_last_timestamp():
    truncated = MINIMAL + "#20\nb1010"
    with pytest.raises(VcdParseError, match="last good timestamp 20"):
        parse_vcd(truncated.encode())


REAL_AND_EVENT = """\
$scope module t $end
$var wire 1 ! clk $end
$var real 64 % temperature $end
$var event 1 & trigger $end
$upscope $end
$enddefinitions $end
#0
0!
r3.14 %
#10
1!
"""


def test_real_and_event_vars_ignored():
    dump = parse_vcd(REAL_AND_EVENT.encode())
    assert [d.name for d in dump.declarations] == ["clk"]
    assert [c.id_code for c in change_tuples(dump.changes)] == ["!", "!"]


def test_backwards_timestamp_rejected():
    with pytest.raises(VcdParseError, match="backwards"):
        parse_vcd((MINIMAL + "#5\n0!\n").encode())


def test_missing_enddefinitions():
    with pytest.raises(VcdParseError, match="enddefinitions"):
        parse_vcd(b"$scope module t $end\n$var wire 1 ! v $end\n")


CLOCKED = """\
$timescale 1ns $end
$scope module top $end
$var wire 1 ! clk $end
$var wire 4 " sig $end
$upscope $end
$enddefinitions $end
#0
$dumpvars
0!
b1 "
$end
#10
1!
#15
0!
#20
1!
#25
0!
#27
b101 "
#30
1!
#35
0!
#40
1!
#45
0!
#50
1!
"""


def test_resample_hold_semantics():
    dump = parse_vcd(CLOCKED.encode())
    mat = resample_per_cycle(dump, "clk")
    assert mat.n_cycles == 5
    assert mat.edge_times == [10, 20, 30, 40, 50]
    # sig constant 1 through edges 1-2, changes between edges 2 and 3
    cells = cell_values(mat)
    assert cells['"'] == [1, 1, 0b101, 0b101, 0b101]
    assert cells["!"] == [1, 1, 1, 1, 1]


def test_resample_same_timestamp_change_counts():
    text = CLOCKED + "b1111 \"\n"  # rides on the final #50 edge
    mat = resample_per_cycle(parse_vcd(text.encode()), "clk")
    assert cell_values(mat)['"'][-1] == 0b1111


def test_resample_constant_signal():
    dump = parse_vcd(CLOCKED.encode())
    mat = resample_per_cycle(dump, "top.clk")
    assert len(set(cell_values(mat)["!"])) == 1


def test_resample_errors():
    dump = parse_vcd(CLOCKED.encode())
    with pytest.raises(VcdParseError, match="not found"):
        resample_per_cycle(dump, "nope")
    no_edges = """\
$scope module t $end
$var wire 1 ! clk $end
$upscope $end
$enddefinitions $end
#0
0!
"""
    with pytest.raises(VcdParseError, match="no rising edges"):
        resample_per_cycle(parse_vcd(no_edges.encode()), "clk")
    wide = """\
$scope module t $end
$var wire 2 ! clk $end
$upscope $end
$enddefinitions $end
#0
b11 !
"""
    with pytest.raises(VcdParseError, match="bits wide"):
        resample_per_cycle(parse_vcd(wide.encode()), "clk")


def test_pre_dump_cells_are_x():
    text = """\
$scope module t $end
$var wire 1 ! clk $end
$var wire 4 " v $end
$upscope $end
$enddefinitions $end
#0
0!
#10
1!
#20
0!
#30
1!
b1001 "
"""
    mat = resample_per_cycle(parse_vcd(text.encode()), "clk")
    assert matrix_cells(mat, '"') == [(0, 0b1111, 0), (0b1001, 0, 0)]
    assert cell_values(mat)['"'] == [None, 0b1001]


def test_word_series_concatenation():
    text = """\
$scope module m $end
$var wire 4 ! a $end
$var wire 4 " b $end
$upscope $end
$scope module clkd $end
$var wire 1 # clk $end
$upscope $end
$enddefinitions $end
#0
0#
b1010 !
b0110 "
#10
1#
"""
    # two scopes at top level are not supported; wrap under one root instead
    text = text.replace("$scope module m $end", "$scope module top $end\n$scope module m $end")
    text = text.replace("$scope module clkd $end", "$scope module clkd $end")
    text = text.replace("$upscope $end\n$enddefinitions", "$upscope $end\n$upscope $end\n$enddefinitions")
    dump = parse_vcd(text.encode())
    mat = resample_per_cycle(dump, "clk")
    m = find_module(dump.hierarchy, ["top", "m"])
    cols = mat.module_columns(m)
    # one word column per 4-bit signal, in declaration order
    a, b = mat.values[mat.rows(cols)][:, 0].tolist()
    assert sum(s.width for s in m.signals) == 8
    assert (a << 4) | b == 0b10100110


def test_word_series_single_signal_identity():
    dump = parse_vcd(CLOCKED.encode())
    mat = resample_per_cycle(dump, "clk")
    node = dump.hierarchy
    sub = [s for s in node.signals if s.name == "sig"]
    node_only = type(node)(name="only", signals=sub)
    cols = mat.module_columns(node_only)
    assert mat.values[mat.rows(cols)][0].tolist() == [1, 1, 0b101, 0b101, 0b101]
    assert sub[0].width == 4


def test_word_series_rejects_empty_module():
    dump = parse_vcd(CLOCKED.encode())
    mat = resample_per_cycle(dump, "clk")
    empty = type(dump.hierarchy)(name="leaf")
    with pytest.raises(ValueError, match="owns no signals"):
        mat.module_columns(empty)


def _fuzz_dump(rng):
    """Random hierarchy with random signal widths and a few cycles of data."""
    lines = ["$scope module root $end", "$var wire 1 ! clk $end"]
    sigs = []
    code = 0x23  # '#'
    depth = 0
    for _ in range(rng.randint(2, 6)):
        action = rng.random()
        if action < 0.3 and depth > 0:
            lines.append("$upscope $end")
            depth -= 1
        elif action < 0.6:
            lines.append(f"$scope module m{rng.randint(0, 9)}_{depth} $end")
            depth += 1
        for _ in range(rng.randint(1, 3)):
            width = rng.choice([1, 3, 8, 17, 64])
            c = chr(code)
            code += 1
            lines.append(f"$var wire {width} {c} s{code} $end")
            sigs.append((c, width))
    lines.extend(["$upscope $end"] * depth)
    lines.append("$upscope $end")
    lines.append("$enddefinitions $end")
    t = 0
    lines.append("#0")
    lines.append("0!")
    for c, w in sigs:
        lines.append(f"b{rng.getrandbits(w):b} {c}")
    for cyc in range(4):
        t += 10
        lines.append(f"#{t}")
        lines.append("1!")
        for c, w in sigs:
            if rng.random() < 0.5:
                lines.append(f"b{rng.getrandbits(w):b} {c}")
        lines.append(f"#{t+5}")
        lines.append("0!")
    return "\n".join(lines) + "\n"


def test_fuzzed_width_additivity():
    rng = random.Random(12345)
    for _ in range(20):
        dump = parse_vcd(_fuzz_dump(rng).encode())
        mat = resample_per_cycle(dump, "clk")
        cells = cell_values(mat)
        for _, node in dump.hierarchy.walk():
            if not node.signals:
                continue
            cols = mat.module_columns(node)
            assert len(cols) == sum((s.width + 63) // 64 for s in node.signals)
            for s in node.signals:
                assert all(0 <= w < (1 << s.width) for w in cells[s.id_code])


def test_load_run_set_identical_dumps(tmp_path):
    for i in range(2):
        (tmp_path / f"r{i}.vcd").write_text(CLOCKED)
    rs = load_run_set([tmp_path / "r0.vcd", tmp_path / "r1.vcd"], "clk")
    assert rs.n_runs == 2
    assert rs.n_cycles == 5
    assert cell_values(rs.runs[0]) == cell_values(rs.runs[1])
    assert cycle_period(rs) == 10


def test_load_run_set_truncate_to_min(tmp_path):
    longer = CLOCKED + "#55\n0!\n#60\n1!\n"
    (tmp_path / "a.vcd").write_text(CLOCKED)
    (tmp_path / "b.vcd").write_text(longer)
    rs = load_run_set([tmp_path / "a.vcd", tmp_path / "b.vcd"], "clk")
    assert rs.n_cycles == 5


def test_load_run_set_hierarchy_mismatch(tmp_path):
    other = CLOCKED.replace("sig", "gis")
    (tmp_path / "a.vcd").write_text(CLOCKED)
    (tmp_path / "b.vcd").write_text(other)
    with pytest.raises(ValueError, match="hierarchy mismatch"):
        load_run_set([tmp_path / "a.vcd", tmp_path / "b.vcd"], "clk")


@pytest.mark.parametrize("var", ['$var wire 5 " sig $end', '$var reg 4 " sig $end',
                                 '$var wire 4 " sig2 $end'])
def test_load_run_set_one_changed_var_is_a_hierarchy_mismatch(tmp_path, var):
    (tmp_path / "a.vcd").write_text(CLOCKED)
    (tmp_path / "b.vcd").write_text(CLOCKED.replace('$var wire 4 " sig $end', var))
    with pytest.raises(ValueError, match="hierarchy mismatch"):
        load_run_set([tmp_path / "a.vcd", tmp_path / "b.vcd"], "clk")


def test_load_run_set_reuses_only_an_identical_header(tmp_path, monkeypatch):
    # the same design under another $date is parsed in full and still matches
    (tmp_path / "a.vcd").write_text(CLOCKED)
    (tmp_path / "b.vcd").write_text(CLOCKED)
    (tmp_path / "c.vcd").write_text("$date today $end\n" + CLOCKED)
    seen = []
    real = vcd.parse_vcd

    def spy(data, header=None):
        dump = real(data, header)
        seen.append(dump.header is header)
        return dump

    monkeypatch.setattr(vcd, "parse_vcd", spy)
    rs = load_run_set([tmp_path / n for n in ("a.vcd", "b.vcd", "c.vcd")], "clk")
    assert seen == [False, True, False]
    assert cell_values(rs.runs[0]) == cell_values(rs.runs[1]) == cell_values(rs.runs[2])


def test_load_run_set_body_error_names_the_full_parse_line(tmp_path):
    bad = CLOCKED.replace("b101 \"", "b1q1 \"")
    with pytest.raises(VcdParseError) as full:
        parse_vcd(bad.encode())
    assert full.value.line == 21
    (tmp_path / "a.vcd").write_text(CLOCKED)
    (tmp_path / "b.vcd").write_text(bad)
    with pytest.raises(VcdParseError) as reused:
        load_run_set([tmp_path / "a.vcd", tmp_path / "b.vcd"], "clk")
    assert str(reused.value) == f"{tmp_path / 'b.vcd'}: {full.value}"
    assert reused.value.line == 21


def test_header_with_an_ignored_real_var_is_reused():
    text = REAL_AND_EVENT + "r2.5 %\n#15\n0!\n"
    first = parse_vcd(REAL_AND_EVENT.encode())
    again = parse_vcd(text.encode(), first.header)
    assert again.header is first.header
    assert structurally_equal(again, parse_vcd(text.encode()))
    assert [c.id_code for c in change_tuples(again.changes)] == ["!", "!", "!"]
    with pytest.raises(VcdParseError, match="real value change for non-real id '!'"):
        parse_vcd((REAL_AND_EVENT + "r2.5 !\n").encode(), first.header)


def test_load_run_set_needs_two(tmp_path):
    (tmp_path / "a.vcd").write_text(CLOCKED)
    with pytest.raises(ValueError, match="at least 2"):
        load_run_set([tmp_path / "a.vcd"], "clk")


def test_manifest_reader(tmp_path):
    (tmp_path / "a.vcd").write_text(CLOCKED)
    (tmp_path / "b.vcd").write_text(CLOCKED)
    mf = tmp_path / "runs.txt"
    mf.write_text("# comment\na.vcd first\nb.vcd\n\n")
    paths = read_manifest(mf)  # the label column is accepted and ignored
    assert paths == [str(tmp_path / "a.vcd"), str(tmp_path / "b.vcd")]
    assert load_run_set(paths, "clk").n_runs == 2


# --- properties: emit -> parse_vcd -> resample_per_cycle ----------------------

_BITS = st.sampled_from("0101xXzZ")


@st.composite
def _clocked_streams(draw):
    """A VCD text with random widths (1-600 bits), x/z bits, short values that
    left-extend, and several changes (clock included) at one timestamp.
    Returns (text, {code: width}, [(time, code, bits)] in stream order)."""
    widths = {"!": 1}
    for k in range(draw(st.integers(1, 4))):
        widths[chr(ord('"') + k)] = draw(st.integers(1, 600))
    lines = ["$scope module top $end"]
    lines += [f"$var wire {w} {code} {'clk' if code == '!' else 's' + code} $end"
              for code, w in widths.items()]
    lines += ["$upscope $end", "$enddefinitions $end"]
    expected = []
    t = 0
    for _ in range(draw(st.integers(1, 10))):
        t += draw(st.sampled_from([0, 1, 5]))  # 0 repeats a timestamp
        lines.append(f"#{t}")
        codes = draw(st.lists(st.sampled_from(sorted(widths)), max_size=6))
        if draw(st.booleans()):
            codes.append("!")
        for code in codes:
            if code == "!":
                bits = draw(st.sampled_from("0011xz"))
            else:
                bits = draw(st.text(_BITS, min_size=1, max_size=widths[code]))
            scalar = len(bits) == 1 and draw(st.booleans())
            lines.append(f"{bits}{code}" if scalar else f"b{bits} {code}")
            expected.append((t, code, bits))
    return "\n".join(lines) + "\n", widths, expected


@settings(max_examples=150, deadline=None, database=None)
@given(_clocked_streams())
def test_parse_and_resample_match_naive_reference(stream):
    text, widths, expected = stream
    dump = parse_vcd(text.encode())
    changes = change_tuples(dump.changes)
    assert changes == [
        (t, code, *naive_parse_bits(bits, widths[code])) for t, code, bits in expected]
    again = parse_vcd(text.encode(), dump.header)
    assert again.header is dump.header and change_tuples(again.changes) == changes
    try:
        edges, cells = naive_resample(naive_parse_vcd(text), "!")
    except VcdParseError:
        with pytest.raises(VcdParseError, match="no rising edges"):
            resample_per_cycle(dump, "clk")
        return
    mat = resample_per_cycle(dump, "clk")
    assert mat.edge_times == edges
    known = cell_values(mat)
    for code in widths:
        assert matrix_cells(mat, code) == cells[code]
        assert known[code] == [v if not (x or z) else None for v, x, z in cells[code]]


@settings(max_examples=40, deadline=None, database=None)
@given(_clocked_streams(), st.data())
def test_parse_errors_name_the_line(stream, data):
    text, _, _ = stream
    lines = text.splitlines()
    body = [k for k, line in enumerate(lines) if line.startswith(("b", "0", "1", "x", "z"))]
    if not body:
        return
    k = data.draw(st.sampled_from(body))
    lines[k] = "b1q2 !" if lines[k].startswith("b") else "q" + lines[k]
    bad = "\n".join(lines) + "\n"
    with pytest.raises(VcdParseError, match=f"^line {k + 1}: ") as full:
        parse_vcd(bad.encode())
    with pytest.raises(VcdParseError) as reused:  # the header of the good stream
        parse_vcd(bad.encode(), parse_vcd(text.encode()).header)
    assert str(reused.value) == str(full.value)


# --- the bulk parser against the token-at-a-time oracle -----------------------


def _mutated_dump(rng):
    """``_fuzz_dump`` with x/z values, comments, a real var and its values
    mixed in, and sometimes a line broken or the stream cut short."""
    lines = _fuzz_dump(rng).splitlines()
    lines.insert(1, "$var real 64 r temperature $end")
    body = lines.index("$enddefinitions $end") + 1
    out = lines[:body]
    for line in lines[body:]:
        roll = rng.random()
        if line.startswith("b") and roll < 0.2:
            bits, code = line[1:].split()
            line = "b" + "".join(rng.choice("01xXzZ") if rng.random() < 0.3 else c
                                 for c in bits) + " " + code
        elif line.startswith("b") and roll < 0.25:
            line = rng.choice(["x", "z", "0", "1"]) + line.split()[1]
        out.append(line)
        roll = rng.random()
        if roll < 0.05:
            out.append(f"$comment {rng.choice(['b1', '#9', 'r', '$dumpvars'])} $end")
        elif roll < 0.1:
            out.append(f"r{rng.random():.3f} r")
        elif roll < 0.12:
            out.append(rng.choice(["b1q0 !", "q", "#x", "#3", "r1.0 !", "b1", "$comment b1"]))
        elif roll < 0.13:  # str.split() whitespace beyond ASCII, and non-ASCII bytes
            out[-1] += rng.choice(["\xa0b1 !", "\x1c0!", "\u2028#99", "é"])
    text = "\n".join(out) + "\n"
    if rng.random() < 0.2:
        text = text[:rng.randrange(len(text))]
    return text


def _parse_outcome(parse, text):
    try:
        return parse(text)
    except VcdParseError as e:
        return str(e)


@settings(max_examples=300, deadline=None, database=None)
@given(st.integers(0, 2**32 - 1))
def test_bulk_parse_matches_the_token_oracle(seed):
    data = _mutated_dump(random.Random(seed)).encode()
    want = _parse_outcome(naive_parse_vcd, data)
    got = _parse_outcome(parse_vcd, data)
    if isinstance(want, str):
        assert got == want
        return
    assert change_tuples(got.changes) == want.changes
    again = parse_vcd(data, got.header)  # the header reused
    assert again.header is got.header and change_tuples(again.changes) == want.changes
    try:
        _, cells = naive_resample(want, "!")
    except VcdParseError:
        with pytest.raises(VcdParseError, match="no rising edges"):
            resample_per_cycle(got, "clk")
        return
    assert cell_values(resample_per_cycle(got, "clk")) == {
        code: [v if not (x or z) else None for v, x, z in col] for code, col in cells.items()}


def test_id_codes_that_look_like_other_tokens():
    # the token after a vector value is its id code, whatever it starts with;
    # codes like '#', '$', 'b' and '0' would read as a timestamp, a keyword,
    # another vector value or a scalar change if taken by their first byte
    codes = ["b", "bb", "#", "$", "0", "1x", "z"]
    decls = "".join(f"$var wire 4 {c} s{k} $end\n" for k, c in enumerate(codes))
    text = ("$scope module top $end\n$var wire 1 ! clk $end\n" + decls
            + "$upscope $end\n$enddefinitions $end\n#0\n$dumpvars\n0!\n"
            + "".join(f"b{k:b} {c}\n" for k, c in enumerate(codes)) + "$end\n#10\n1!\n"
            + "b1 b b11 bb b1 # b101 $ b1 0 b0 1x b1111 z\n11x\n#15\n0!\n#20\n1!\nbx1 b\n")
    want = naive_parse_vcd(text)
    assert change_tuples(parse_vcd(text.encode()).changes) == want.changes
    assert [c for _, c, *_ in want.changes].count("b") == 3
    cells = cell_values(resample_per_cycle(parse_vcd(text.encode()), "clk"))
    assert [cells[c] for c in codes] == [[1, None], [3, 3], [1, 1], [5, 5], [1, 1], [1, 1],
                                         [15, 15]]


@pytest.mark.parametrize("tail", ["b1010", "#60 b1 ! b1", "b1 \" b1"])
def test_vector_value_at_stream_end_has_no_id_code(tail):
    # a b-led token that opens an item as the last token is a truncated
    # vector value, not an id code, even after other b-led tokens
    text = CLOCKED + tail + "\n"
    with pytest.raises(VcdParseError) as got:
        parse_vcd(text.encode())
    with pytest.raises(VcdParseError) as want:
        naive_parse_vcd(text)
    assert str(got.value) == str(want.value)
    assert got.value.line == 32 and "vector value without id code" in str(got.value)
