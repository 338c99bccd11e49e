import math
import random
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leakscope import metrics
from leakscope.metrics import (
    DegenerateInputError,
    OracleTrace,
    group_moments,
    hamming_distance,
    hamming_weight,
    pairwise_ttest_matrix,
    pearson,
    read_class_samples_csv,
    read_oracle_csv,
    svf_all,
    welch_t,
    write_oracle_csv,
    write_tmatrix_csv,
)
from leakscope.sim import SimConfig, cache_set_experiment
from leakscope.vcd import ModuleNode, RunSet, SignalDecl
from peak_rss import run_probe
from reference import (
    find_module,
    from_samples,
    naive_distance_matrix,
    naive_permutation_floor,
    pairwise_distances,
    to_columns,
    welch_t_samples,
)


def make_runset(words_per_run, width, signal_specs=None, held=False):
    """RunSet over a synthetic single-module (or multi-signal) hierarchy.

    ``signal_specs``: optional list of (code, width); words_per_run then maps
    code -> per-cycle cells per run via dicts. A cell is an int or a
    (value, xmask, zmask) tuple. ``held`` stores only the changes of each
    word, as a dump does.
    """
    if signal_specs is None:
        signal_specs = [("!", width)]
        words_per_run = [{"!": list(w)} for w in words_per_run]
    decls = [
        SignalDecl(id_code=c, name=f"s{i}", width=w, scope_path=("top",))
        for i, (c, w) in enumerate(signal_specs)
    ]
    root = ModuleNode(name="top", signals=list(decls))
    d = len(next(iter(words_per_run[0].values())))
    runs = [from_samples(decls, *to_columns(decls, run, d), held=held)
            for run in words_per_run]
    return RunSet(
        runs=runs,
        n_cycles=d,
        hierarchy=root,
        declarations=decls,
    )


# --- Hamming primitives ------------------------------------------------------

def test_hamming_weight_basics():
    assert hamming_weight(0b0000) == 0
    assert hamming_weight(0b1011) == 3
    assert hamming_weight(0xFFFF) == 16


def test_hamming_distance_basics():
    assert hamming_distance(0x1234, 0x1234) == 0
    assert hamming_distance(0b1010, 0b0110) == 2
    assert hamming_distance(0x00, 0xFF) == 8


def test_hamming_distance_width_check():
    assert hamming_distance(1, 2, 8, 8) == 2
    with pytest.raises(ValueError, match="width mismatch"):
        hamming_distance(1, 2, 8, 16)


def test_hamming_metric_properties():
    rng = random.Random(6)
    for _ in range(300):
        x, y, z = (rng.getrandbits(48) for _ in range(3))
        assert hamming_distance(x, x) == 0
        assert hamming_distance(x, y) == hamming_distance(y, x)
        assert hamming_distance(x, z) <= hamming_distance(x, y) + hamming_distance(y, z)


def test_pairwise_canonical_order():
    out = pairwise_distances([0b00, 0b11, 0b01])
    # pairs (1,0), (2,0), (2,1)
    assert list(out) == [2, 1, 1]


def test_pairwise_identical_items():
    assert not pairwise_distances([7] * 6).any()


def test_pairwise_matches_double_loop():
    rng = random.Random(77)
    items = [rng.getrandbits(32) for _ in range(10)]
    got = pairwise_distances(items)
    want = []
    for j in range(len(items)):
        for i in range(j + 1, len(items)):
            want.append(bin(items[i] ^ items[j]).count("1"))
    assert list(got) == want
    assert len(got) == 45


def test_pairwise_needs_two():
    with pytest.raises(ValueError, match="at least 2"):
        pairwise_distances([1])


# --- Pearson ------------------------------------------------------------------

def two_pass_pearson(x, y):
    mx = sum(x) / len(x)
    my = sum(y) / len(y)
    sxy = sum((a - mx) * (b - my) for a, b in zip(x, y))
    sxx = sum((a - mx) ** 2 for a in x)
    syy = sum((b - my) ** 2 for b in y)
    return sxy / math.sqrt(sxx * syy)


def test_pearson_perfect_correlation():
    x = [1.0, 2.0, 5.0, -3.0]
    assert pearson(x, x) == pytest.approx(1.0, abs=1e-12)


def test_pearson_exact_negative_linearity():
    x = [0.0, 1.0, 2.0, 7.5]
    y = [-2 * v + 7 for v in x]
    assert pearson(x, y) == pytest.approx(-1.0, abs=1e-12)


def test_pearson_against_two_pass_oracle():
    rng = random.Random(10)
    x = [rng.gauss(0, 3) for _ in range(1000)]
    y = [rng.gauss(1, 2) for _ in range(1000)]
    assert pearson(x, y) == pytest.approx(two_pass_pearson(x, y), abs=1e-12)


def test_pearson_affine_invariance():
    rng = random.Random(20)
    x = [rng.random() for _ in range(200)]
    y = [rng.random() for _ in range(200)]
    base = pearson(x, y)
    assert abs(pearson([3.5 * v + 11 for v in x], y) - base) < 1e-9
    assert abs(pearson(x, [0.1 * v - 4 for v in y]) - base) < 1e-9
    assert abs(base) <= 1.0


def test_pearson_degenerate_raises():
    with pytest.raises(DegenerateInputError):
        pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        pearson([1.0], [2.0])
    with pytest.raises(ValueError):
        pearson([1.0, 2.0], [1.0, 2.0, 3.0])


# --- svf ------------------------------------------------------------------------

def module_score(rs, node, oracle, window=None):
    """``node``'s result in the ``svf_all`` report of the run set against
    the one oracle, with no noise floor."""
    report = svf_all(rs, [oracle], window=window, noise_floor_shuffles=0)
    path = next(p for p, cand in rs.hierarchy.walk() if cand is node)
    return report.results[report.rank_of(path)]


def naive_svf(words_per_run, oracle_values):
    """Direct double-loop reference: no packing, no vectorization."""
    n = len(words_per_run)
    d = len(words_per_run[0])

    def dvec(vals):
        out = []
        for j in range(n):
            for i in range(j + 1, n):
                out.append(bin(vals[i] ^ vals[j]).count("1"))
        return out

    d_o = dvec(oracle_values)
    m = len(d_o)
    sx = sum(d_o)
    sxx = sum(v * v for v in d_o)
    scores = []
    for c in range(d):
        d_s = dvec([words_per_run[r][c] for r in range(n)])
        sy = sum(d_s)
        syy = sum(v * v for v in d_s)
        sxy = sum(a * b for a, b in zip(d_o, d_s))
        a = m * sxx - sx * sx
        b = m * syy - sy * sy
        if a == 0 or b == 0:
            scores.append(0.0)
        else:
            scores.append(min(1.0, abs(m * sxy - sx * sy) / math.sqrt(a * b)))
    return scores


def test_svf_words_equal_oracle_gives_one():
    rng = random.Random(30)
    values = [rng.getrandbits(8) for _ in range(12)]
    words = [[0xAB, v, 0x00] for v in values]  # oracle carried at cycle 2
    rs = make_runset(words, width=8)
    oracle = OracleTrace(values=tuple(values), width=8, label="t")
    res = module_score(rs, rs.hierarchy, oracle)
    assert res.svf == pytest.approx(1.0, abs=1e-9)
    assert res.peak_cycle == 2


def test_svf_constant_side_channel_is_zero():
    rs = make_runset([[0x55, 0x55] for _ in range(8)], width=8)
    oracle = OracleTrace(values=tuple(range(8)), width=8)
    res = module_score(rs, rs.hierarchy, oracle)
    assert res.svf == 0.0


def test_svf_matches_naive_reference_exactly():
    rng = random.Random(1234)
    for _ in range(100):
        n = rng.randint(3, 12)
        d = rng.randint(1, 8)
        width = rng.choice([4, 8, 13, 32])
        words = [[rng.getrandbits(width) for _ in range(d)] for _ in range(n)]
        values = [rng.getrandbits(width) for _ in range(n)]
        rs = make_runset(words, width=width)
        oracle = OracleTrace(values=tuple(values), width=width)
        res = module_score(rs, rs.hierarchy, oracle)
        want = naive_svf(words, values)
        assert list(res.per_cycle_scores) == want
        assert res.svf == max(want)


def test_svf_run_permutation_invariance():
    rng = random.Random(55)
    n, d = 10, 5
    words = [[rng.getrandbits(16) for _ in range(d)] for _ in range(n)]
    values = [rng.getrandbits(16) for _ in range(n)]
    rs = make_runset(words, width=16)
    oracle = OracleTrace(values=tuple(values), width=16)
    base = module_score(rs, rs.hierarchy, oracle)

    perm = list(range(n))
    rng.shuffle(perm)
    rs2 = make_runset([words[p] for p in perm], width=16)
    oracle2 = OracleTrace(values=tuple(values[p] for p in perm), width=16)
    res = module_score(rs2, rs2.hierarchy, oracle2)
    assert res.svf == base.svf
    assert list(res.per_cycle_scores) == list(base.per_cycle_scores)


def permute_bits(v, perm):
    out = 0
    for dst, src in enumerate(perm):
        out |= ((v >> src) & 1) << dst
    return out


def test_svf_bit_order_invariance():
    rng = random.Random(66)
    n, d, width = 9, 4, 12
    words = [[rng.getrandbits(width) for _ in range(d)] for _ in range(n)]
    values = [rng.getrandbits(8) for _ in range(n)]
    perm = list(range(width))
    rng.shuffle(perm)
    rs = make_runset(words, width=width)
    rs2 = make_runset([[permute_bits(w, perm) for w in run] for run in words], width=width)
    oracle = OracleTrace(values=tuple(values), width=8)
    a = module_score(rs, rs.hierarchy, oracle)
    b = module_score(rs2, rs2.hierarchy, oracle)
    assert list(a.per_cycle_scores) == list(b.per_cycle_scores)


def test_svf_window_restriction():
    rng = random.Random(8)
    values = [rng.getrandbits(8) for _ in range(10)]
    words = [[v, 0x11, 0x22] for v in values]
    rs = make_runset(words, width=8)
    oracle = OracleTrace(values=tuple(values), width=8)
    full = module_score(rs, rs.hierarchy, oracle)
    assert full.peak_cycle == 1
    res = module_score(rs, rs.hierarchy, oracle, window=(2, 3))
    assert res.svf == 0.0
    assert len(res.per_cycle_scores) == 2


def test_svf_xz_bits_count_as_zero_and_are_reported():
    values = [1, 2, 3, 250, 97, 18]
    words = [[v, v] for v in values]
    # first run, first cycle: value bits x-ed out
    words[0][0] = (0, 0b1111, 0)
    rs = make_runset(words, width=8)
    words[0][0] = values[0]
    oracle = metrics.OracleTrace(values=tuple(values), width=8)
    res = module_score(rs, rs.hierarchy, oracle)
    # cell behaves as value 0 for distances
    rs2 = make_runset([[0 if (r, c) == (0, 0) else words[r][c] for c in range(2)]
                       for r in range(6)], width=8)
    res2 = module_score(rs2, rs2.hierarchy, oracle)
    assert list(res.per_cycle_scores) == list(res2.per_cycle_scores)
    assert res.xz_ratio == pytest.approx(4 / (8 * 2 * 6))
    assert res2.xz_ratio == 0.0


def test_svf_oracle_length_mismatch():
    rs = make_runset([[1, 2]] * 4, width=4)
    with pytest.raises(ValueError, match="4 runs"):
        module_score(rs, rs.hierarchy, OracleTrace(values=(1, 2, 3), width=4))


def test_independent_oracle_below_permutation_floor():
    rng = random.Random(4242)
    n, d, width = 40, 6, 16
    words = [[rng.getrandbits(width) for _ in range(d)] for _ in range(n)]
    values = [rng.getrandbits(width) for _ in range(n)]
    rs = make_runset(words, width=width)
    oracle = OracleTrace(values=tuple(values), width=width)
    res = svf_all(rs, [oracle], noise_floor_shuffles=1000).results[0]
    assert res.svf == module_score(rs, rs.hierarchy, oracle).svf
    assert res.svf < res.noise_floor
    want_ds, _ = naive_distance_matrix(_as_tuples([{"!": w} for w in words]),
                                       rs.declarations, (0, d))
    assert res.noise_floor == naive_permutation_floor(want_ds, values, 1000)


def test_svf_all_single_module_score_holds_with_the_floor_on():
    rng = random.Random(9)
    values = [rng.getrandbits(8) for _ in range(6)]
    words = [[v ^ 0x3C, 0x01] for v in values]
    rs = make_runset(words, width=8)
    oracle = OracleTrace(values=tuple(values), width=8, label="o")
    report = svf_all(rs, [oracle], noise_floor_shuffles=50)
    single = module_score(rs, rs.hierarchy, oracle)
    assert len(report.results) == 1
    assert report.results[0].svf == single.svf
    assert report.results[0].noise_floor is not None


def test_svf_all_ranks_carrier_first():
    rng = random.Random(14)
    values = [rng.getrandbits(8) for _ in range(10)]
    runs = [{"a": [v, v], "b": [0x7F, 0x7F]} for v in values]
    rs = make_runset(runs, width=None, signal_specs=[("a", 8), ("b", 8)])
    # split the two signals into separate child modules
    decl_a, decl_b = rs.declarations
    child_a = ModuleNode(name="carrier", signals=[decl_a])
    child_b = ModuleNode(name="quiet", signals=[decl_b])
    rs.hierarchy.signals = []
    rs.hierarchy.children = [child_a, child_b]
    oracle = OracleTrace(values=tuple(values), width=8, label="o")
    report = svf_all(rs, [oracle], noise_floor_shuffles=0)
    assert [r.module_path for r in report.results] == [
        ("top", "carrier"), ("top", "quiet")
    ]
    assert report.results[0].svf == pytest.approx(1.0, abs=1e-9)
    assert report.results[1].svf == 0.0
    with pytest.raises(ValueError, match="noise_floor_shuffles must be >= 0, got -5"):
        svf_all(rs, [oracle], noise_floor_shuffles=-5)
    assert report.rank_of(("top", "carrier")) == 0


def test_svf_all_threads_deterministic():
    rng = random.Random(21)
    runs = [
        {"a": [rng.getrandbits(8) for _ in range(3)],
         "b": [rng.getrandbits(8) for _ in range(3)]}
        for _ in range(8)
    ]
    rs = make_runset(runs, width=None, signal_specs=[("a", 8), ("b", 8)])
    decl_a, decl_b = rs.declarations
    rs.hierarchy.signals = []
    rs.hierarchy.children = [ModuleNode(name="a", signals=[decl_a]),
                             ModuleNode(name="b", signals=[decl_b])]
    oracle = OracleTrace(values=tuple(rng.getrandbits(8) for _ in range(8)), width=8)
    r1 = svf_all(rs, [oracle], noise_floor_shuffles=20, threads=1)
    r2 = svf_all(rs, [oracle], noise_floor_shuffles=20, threads=4)
    assert [(r.module_path, r.svf, r.noise_floor) for r in r1.results] == \
           [(r.module_path, r.svf, r.noise_floor) for r in r2.results]


# --- columnar scoring against the naive per-signal reference --------------------

@st.composite
def _mixed_runsets(draw):
    """Per-run cells for one module whose signals are constant (some all-x),
    vary with occasional x/z cells, or hold each cell for runs of cycles as
    a dump does; widths span 1 to 9 words. Returns (specs, runs, window,
    held), ``held`` when the matrices store only the changes."""
    n = draw(st.integers(2, 9))
    d = draw(st.integers(1, 10))
    specs = []
    for k in range(draw(st.integers(1, 5))):
        width = draw(st.sampled_from([1, 7, 64, 65, 130, 512]))
        kind = draw(st.sampled_from(["const", "const-x", "vary", "held", "held"]))
        specs.append((chr(ord("a") + k), width, kind))
    runs = [dict() for _ in range(n)]
    for code, width, kind in specs:
        full = (1 << width) - 1
        cell = st.one_of(
            st.integers(0, full), st.integers(0, full),
            st.tuples(st.integers(0, full), st.integers(0, full)).map(
                lambda vx: (vx[0] & ~vx[1], vx[1], 0)),
            st.just((0, 0, full)))
        if kind == "const":
            v = draw(st.integers(0, full))
            cells = [[v] * d for _ in range(n)]
        elif kind == "const-x":
            cells = [[(0, full, 0)] * d for _ in range(n)]
        elif kind == "vary":
            cells = [[draw(cell) for _ in range(d)] for _ in range(n)]
        else:  # a few changes per run, at random cycles
            cells = []
            for _ in range(n):
                col = [draw(cell)]
                for _ in range(d - 1):
                    col.append(draw(cell) if draw(st.integers(0, 3)) == 0 else col[-1])
                cells.append(col)
        for run, col in zip(runs, cells):
            run[code] = col
    start = draw(st.integers(1, d))
    window = (start, draw(st.integers(start, d)))
    return [(c, w) for c, w, _ in specs], runs, window, draw(st.booleans())


def _as_tuples(runs):
    return [{c: [v if isinstance(v, tuple) else (v, 0, 0) for v in col]
             for c, col in run.items()} for run in runs]


@settings(max_examples=150, deadline=None, database=None)
@given(_mixed_runsets(), st.sampled_from([1, 7, 50, metrics._PAIR_BLOCK_WORDS]))
def test_module_distance_matrix_matches_naive_reference(case, block_words):
    specs, runs, window, held = case
    rs = make_runset(runs, width=None, signal_specs=specs, held=held)
    start, end = metrics._normalize_window(window, rs.n_cycles)
    cells = _as_tuples(runs)
    want_ds, want_xz = naive_distance_matrix(cells, rs.declarations, (start, end))
    with mock.patch.object(metrics, "_PAIR_BLOCK_WORDS", block_words):
        ds, cycle_rows, xz_ratio = metrics._module_distance_matrix(
            rs, rs.hierarchy, (start, end))
    assert ds.dtype == np.int64 and ds.flags.c_contiguous
    assert np.array_equal(ds[cycle_rows], want_ds)
    assert xz_ratio == want_xz
    # each distinct row once
    assert len(ds) == len(np.unique(want_ds, axis=0))
    assert sorted(set(cycle_rows.tolist())) == list(range(len(ds)))


def test_distinct_rows_compare_rows_whose_hashes_collide():
    ds = np.array([[1, 2], [3, 4], [1, 2], [3, 5], [3, 4]], dtype=np.int64)
    for collide in (False, True):
        with mock.patch.object(metrics, "hash", (lambda b: 0) if collide else hash,
                               create=True):
            rows, index = metrics._distinct_rows(ds)
        assert rows.tolist() == [[1, 2], [3, 4], [3, 5]]
        assert index.tolist() == [0, 1, 0, 2, 1]


def test_pair_blocks_with_a_remainder():
    rng = np.random.default_rng(5)
    n, k = 7, 3  # 21 pairs in blocks of 4: five full blocks and one pair
    ev_word = np.array([0, 2, 2, 1, 0])  # events of cycles 1, 1, 2, 3, 3
    starts = np.array([0, 2, 3])
    prev = metrics._previous_samples(ev_word, k)
    assert prev.tolist() == [0, 2, k + 1, 1, k + 0]
    samples = rng.integers(0, 2**64, size=(n, k + len(ev_word)), dtype=np.uint64)
    with mock.patch.object(metrics, "_PAIR_BLOCK_WORDS", 4 * samples.shape[1]):
        blocked = metrics._pair_distances(samples, prev, starts)
    i_idx, j_idx = metrics.pair_order(n)
    assert len(i_idx) % 4 == 1

    def distances(words):
        return [sum(bin(int(a) ^ int(b)).count("1") for a, b in zip(words[i], words[j]))
                for i, j in zip(i_idx, j_idx)]

    words = samples[:, :k].copy()  # replay each event's sample, cycle by cycle
    want = [distances(words)]
    for lo, hi in zip(starts, [*starts[1:], len(ev_word)]):
        for e in range(lo, hi):
            words[:, ev_word[e]] = samples[:, k + e]
        want.append(distances(words))
    assert np.array_equal(blocked, want)
    assert np.array_equal(metrics._pair_distances(samples, prev, starts), want)


def test_constant_signals_are_skipped_exactly():
    rng = random.Random(71)
    n, d = 8, 4
    runs = [{"c": [0xAB] * d, "k": [(0, 0xF, 0)] * d,
             "v": [rng.getrandbits(8) for _ in range(d)]} for _ in range(n)]
    specs = [("c", 8), ("k", 4), ("v", 8)]
    rs = make_runset(runs, width=None, signal_specs=specs)
    ds, cycle_rows, xz_ratio = metrics._module_distance_matrix(rs, rs.hierarchy, (0, d))
    want_ds, want_xz = naive_distance_matrix(_as_tuples(runs), rs.declarations, (0, d))
    assert np.array_equal(ds[cycle_rows], want_ds)
    # the all-x constant signal still counts toward the x/z ratio
    assert xz_ratio == want_xz == (4 * d * n) / (20 * d * n)
    only_v = make_runset([{"v": r["v"]} for r in runs], width=None,
                         signal_specs=[("v", 8)])
    assert np.array_equal(
        ds, metrics._module_distance_matrix(only_v, only_v.hierarchy, (0, d))[0])


def test_svf_all_picks_each_modules_worst_oracle_exactly():
    rng = random.Random(99)
    n, d = 9, 5
    runs = [{"a": [rng.getrandbits(8) for _ in range(d)], "b": [0x3C] * d,
             "c": [rng.getrandbits(70) for _ in range(d)]} for _ in range(n)]
    rs = make_runset(runs, width=None, signal_specs=[("a", 8), ("b", 8), ("c", 70)])
    decl_a, decl_b, decl_c = rs.declarations
    rs.hierarchy.signals = []
    rs.hierarchy.children = [ModuleNode(name="ab", signals=[decl_a, decl_b]),
                             ModuleNode(name="c", signals=[decl_c])]
    oracles = [OracleTrace(values=tuple(r["a"][k] for r in runs), width=8, label=f"a{k}")
               for k in range(d)]
    oracles.append(OracleTrace(values=tuple(rng.getrandbits(8) for _ in range(n)),
                               width=8, label="noise"))
    report = svf_all(rs, oracles, window=(2, 5), noise_floor_shuffles=0)
    for res in report.results:
        node = find_module(rs.hierarchy, res.module_path)
        singles = [module_score(rs, node, o, window=(2, 5)) for o in oracles]
        best = max(range(len(oracles)), key=lambda k: (singles[k].svf, -k))
        assert res.oracle_label == oracles[best].label
        assert res.svf == singles[best].svf
        assert res.peak_cycle == singles[best].peak_cycle
        assert list(res.per_cycle_scores) == list(singles[best].per_cycle_scores)
        words = [[sum(r[s.id_code][c] << (8 * i) for i, s in enumerate(node.signals))
                  for c in range(1, 5)] for r in runs]
        if node.name == "ab":
            assert list(res.per_cycle_scores) == naive_svf(words, oracles[best].values)


@settings(max_examples=40, deadline=None, database=None)
@given(st.data())
def test_shared_floor_matches_the_per_module_oracle(data):
    """Floors of modules scored one shuffle block at a time, several on one
    oracle (all from one permutation draw) and some all-constant, against
    the per-module floor; under the identity shuffle alone the floor is the
    module's own score."""
    n = data.draw(st.integers(3, 9))
    d = data.draw(st.integers(1, 5))
    kinds = data.draw(st.lists(st.sampled_from(["const", "vary", "vary"]), min_size=3,
                               max_size=5))
    runs = [{chr(ord("a") + m): [0x5A] * d if kind == "const"
             else [data.draw(st.integers(0, 255)) for _ in range(d)]
             for m, kind in enumerate(kinds)} for _ in range(n)]
    specs = [(chr(ord("a") + m), 8) for m in range(len(kinds))]
    rs = make_runset(runs, width=None, signal_specs=specs, held=data.draw(st.booleans()))
    rs.hierarchy.children = [ModuleNode(name=f"m{k}", signals=[decl])
                             for k, decl in enumerate(rs.declarations)]
    rs.hierarchy.signals = []
    oracles = [OracleTrace(values=tuple(data.draw(st.integers(0, 255)) for _ in range(n)),
                           width=8, label=f"o{k}") for k in range(2)]
    shuffles = data.draw(st.sampled_from([1, 2, 5, 13]))
    per_block = data.draw(st.sampled_from([1, 2, 4, 1000]))  # shuffles per block
    n_pairs = n * (n - 1) // 2
    with mock.patch.object(metrics, "_PAIR_BLOCK_WORDS", per_block * n_pairs):
        report = svf_all(rs, oracles, noise_floor_shuffles=shuffles)
    by_label = {o.label: o for o in oracles}
    for res in report.results:
        node = find_module(rs.hierarchy, res.module_path)
        want_ds, _ = naive_distance_matrix(_as_tuples(runs), node.signals, (0, d))
        oracle = by_label[res.oracle_label]
        want = naive_permutation_floor(want_ds, oracle.values, shuffles)
        assert res.noise_floor == want
        if not want_ds.any():
            assert res.noise_floor == 0.0
        identity = np.arange(n)[None, :]
        moments = metrics._moments(np.array([pairwise_distances(oracle.values)]))
        assert metrics.permutation_floor(metrics._oracle_words(oracle), moments,
                                         metrics._moments(want_ds), identity) == res.svf


@pytest.mark.parametrize("width, dtype, k", [
    (1, np.uint8, 1), (8, np.uint8, 1), (9, np.uint16, 1), (16, np.uint16, 1),
    (31, np.uint32, 1), (33, np.uint64, 1), (64, np.uint64, 1), (65, np.uint64, 2),
    (130, np.uint64, 3)])
def test_oracle_pair_kernel_matches_the_pair_loop(width, dtype, k):
    rng = random.Random(width)
    values = [rng.getrandbits(width) for _ in range(11)]
    values[3] = (1 << width) - 1
    words = metrics._oracle_words(OracleTrace(values=tuple(values), width=width))
    assert words.dtype == dtype and words.shape == (11, k)
    i_idx, j_idx = metrics.pair_order(len(values))
    got = metrics._pair_popcounts(words, i_idx, j_idx).sum(axis=-1)
    assert got.tolist() == pairwise_distances(values).tolist()


@pytest.mark.parametrize("width, dtype, k", [(12, np.uint16, 1), (64, np.uint64, 1),
                                             (72, np.uint64, 2)])
def test_wide_oracles_score_and_floor_as_the_naive_references(width, dtype, k):
    rng = random.Random(width)
    n, d, shuffles = 9, 4, 13
    values = [rng.getrandbits(width) for _ in range(n)]
    # cycle 2 carries the oracle with one bit flipped per run; the rest is random
    words = [[rng.getrandbits(width) for _ in range(d)] for _ in range(n)]
    for run, v in zip(words, values):
        run[1] = v ^ (1 << rng.randrange(width))
    rs = make_runset(words, width=width)
    oracle = OracleTrace(values=tuple(values), width=width)
    oracle_words = metrics._oracle_words(oracle)
    assert oracle_words.dtype == dtype and oracle_words.shape == (n, k)
    n_pairs = n * (n - 1) // 2
    with mock.patch.object(metrics, "_PAIR_BLOCK_WORDS", 2 * n_pairs * k):  # 2 shuffles a block
        res = svf_all(rs, [oracle], noise_floor_shuffles=shuffles).results[0]
    assert list(res.per_cycle_scores) == naive_svf(words, values)
    assert res.peak_cycle == 2
    want_ds, _ = naive_distance_matrix(_as_tuples([{"!": w} for w in words]),
                                       rs.declarations, (0, d))
    assert res.noise_floor == naive_permutation_floor(want_ds, values, shuffles)


def test_svf_all_needs_two_runs():
    rs = make_runset([[1, 2]], width=4)
    with pytest.raises(ValueError, match="at least 2 runs .*got 1"):
        svf_all(rs, [OracleTrace(values=(1,), width=4)])


def test_floors_add_little_to_the_traced_peak():
    """Each module's floor is taken as soon as the module is scored, so the
    traced allocation peak of eight equal modules is about one module's
    scoring, floor or no floor. Holding every module's rows until all are
    scored would take about 3x the peak without floors."""
    rng = random.Random(88)
    n, d, codes = 40, 64, "abcdefgh"
    cells = [[rng.getrandbits(64) for _ in range(d)] for _ in range(n)]
    rs = make_runset([{c: row for c in codes} for row in cells], width=None,
                     signal_specs=[(c, 64) for c in codes])
    rs.hierarchy.children = [ModuleNode(name=f"m{k}", signals=[decl])
                             for k, decl in enumerate(rs.declarations)]
    rs.hierarchy.signals = []
    oracle = OracleTrace(values=tuple(rng.getrandbits(8) for _ in range(n)), width=8)
    svf_all(rs, [oracle], noise_floor_shuffles=50)  # first-call allocations, untraced

    def traced_peak(shuffles):
        tracemalloc.start()
        try:
            report = svf_all(rs, [oracle], noise_floor_shuffles=shuffles)
            return tracemalloc.get_traced_memory()[1], report
        finally:
            tracemalloc.stop()

    bare, without = traced_peak(0)
    floored, report = traced_peak(50)
    assert [r.svf for r in report.results] == [r.svf for r in without.results]
    assert len({r.noise_floor for r in report.results}) == 1
    assert floored < 1.5 * bare, (floored, bare)


@pytest.mark.parametrize("n, y_top, x_top, fits", [
    (1 << 12, 1 << 20, (1 << 19) - 1, True),
    (1 << 12, 1 << 20, 1 << 19, False),  # n² · max · max = 2^63: past int64
    (4, 1 << 26, 1 << 26, False),  # n · max · max = 2^54: Σxy past exact float64
])
def test_exact_moments_range_is_checked(n, y_top, x_top, fits):
    # One row of n pairs against one oracle. Where the moments fit, the score
    # is still the exact one.
    ds = np.full((1, n), y_top, dtype=np.int64)
    ds[0, 0] = 0
    d_o = np.full((1, n), x_top, dtype=np.int64)
    d_o[0, 1] = 0
    ys, xs = metrics._moments(ds), metrics._moments(d_o)
    if not fits:
        with pytest.raises(ValueError, match=f"{n} run pairs"):
            metrics._abs_pearson(ys[0] @ xs[0].T, ys, xs)
        return
    x, y = d_o[0].tolist(), ds[0].tolist()
    num = n * sum(a * b for a, b in zip(x, y)) - sum(x) * sum(y)
    den = ((n * sum(a * a for a in x) - sum(x) ** 2)
           * (n * sum(b * b for b in y) - sum(y) ** 2))
    want = min(float(abs(num)) / math.sqrt(float(den)), 1.0)
    assert metrics._abs_pearson(ys[0] @ xs[0].T, ys, xs).tolist() == [[want]]


_MEMORY_PROBE = """
import json, sys
import numpy as np
from leakscope import metrics
from leakscope.vcd import ModuleNode, RunSet, SignalDecl
from peak_rss import peak_mb
from reference import from_samples

n, d, words, shuffles = map(int, sys.argv[1:])
decl = SignalDecl("!", "line", 64 * words, ("top",))
root = ModuleNode("top", signals=[decl])
rng = np.random.default_rng(0)
runs = [from_samples([decl], rng.integers(0, 2**64, (d, words), dtype=np.uint64))
        for _ in range(n)]
rs = RunSet(runs, d, root, [decl])
oracle = metrics.OracleTrace(tuple(int(v) for v in rng.integers(0, 256, n)), 8)
before = peak_mb()
report = metrics.svf_all(rs, [oracle], noise_floor_shuffles=shuffles)
r = report.results[0]
print(json.dumps({"before": before, "peak": peak_mb(), "svf": r.svf, "floor": r.noise_floor}))
"""


def _memory_probe(n, d, words, shuffles):
    """Peak RSS before and after ``svf_all`` on n random runs of one
    (64 * words)-bit signal over d cycles, in a fresh interpreter."""
    return run_probe(_MEMORY_PROBE, n, d, words, shuffles)


# 200 runs give 19 900 pairs. Their distance matrix (pairs x 64 cycles, int64)
# is 10 MB, and the scoring moments need one more array of that size, its
# float64 copy for the products. XORing all pairs at once would take
# 19 900 x 64 x 8 words = 81 MB per temporary, and several such temporaries
# are live at the same time. The permutation floor is off here; the next
# bound covers it.
SCORING_RSS_GROWTH_MB = 48


def test_scoring_memory_is_bounded():
    probe = _memory_probe(200, 64, 8, 0)
    assert 0.0 < probe["svf"] <= 1.0
    assert probe["peak"] - probe["before"] <= SCORING_RSS_GROWTH_MB, probe


# 1000 runs give 499 500 pairs, so one (8 cycles x pairs) matrix is 32 MB.
# Scoring holds the int64 distances and their float64 copy: 2 x 32 MB. The
# floor keeps only the copy and adds its two int64 pair index arrays (4 MB
# each) and one block of shuffled oracle distances: one shuffle here, since
# a shuffle is more than the block's word budget, as uint8 pair popcounts
# (0.5 MB per temporary) and float64 distances (4 MB). Indexing every
# shuffle at once, as one (shuffles x pairs) array with two int64 index
# arrays, would take 100 x 499 500 x 24 bytes = 1.2 GB on top.
FLOOR_RSS_GROWTH_MB = 160


def test_floor_memory_is_bounded():
    probe = _memory_probe(1000, 8, 1, 100)
    assert 0.0 < probe["svf"] <= 1.0 and 0.0 < probe["floor"] <= 1.0
    assert probe["peak"] - probe["before"] <= FLOOR_RSS_GROWTH_MB, probe


# --- Welch t ---------------------------------------------------------------------

def welch(a, b):
    return welch_t(group_moments(a), group_moments(b))


def test_welch_identical_groups():
    assert welch([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0


def test_welch_separated_tiny_variance():
    a = [0 - 1e-6, 0 + 1e-6, 0 - 1e-6, 0 + 1e-6]
    b = [1 - 1e-6, 1 + 1e-6, 1 + 1e-6, 1 - 1e-6]
    assert abs(welch(a, b)) > 1e5


def test_welch_against_scipy():
    from scipy import stats

    rng = np.random.default_rng(3)
    for _ in range(20):
        a = rng.normal(0, 1, size=rng.integers(5, 50))
        b = rng.normal(0.3, 2, size=rng.integers(5, 50))
        want = stats.ttest_ind(a, b, equal_var=False).statistic
        assert welch(a, b) == pytest.approx(want, rel=1e-10)


def test_welch_monte_carlo_threshold():
    # same-distribution draws stay under |t| = 4.5 almost always
    rng = np.random.default_rng(1717)
    trials = 300
    exceed = sum(
        abs(welch(rng.normal(0, 1, 10_000), rng.normal(0, 1, 10_000))) >= 4.5
        for _ in range(trials)
    )
    assert exceed / trials <= 0.01


def test_welch_errors():
    with pytest.raises(ValueError, match=">= 2"):
        welch([1.0], [1.0, 2.0])
    with pytest.raises(DegenerateInputError):
        welch([1.0, 1.0], [2.0, 2.0])
    assert welch([3.0, 3.0], [3.0, 3.0]) == 0.0
    with pytest.raises(ValueError, match="finite"):
        welch([1.0, float("nan")], [1.0, 2.0])


def test_ttest_matrix_identical_classes():
    labels, mat = pairwise_ttest_matrix({"a": [1.0, 2.0, 3.0], "b": [1.0, 2.0, 3.0]})
    assert labels == ["a", "b"]
    assert mat.tolist() == [[0.0, 0.0], [0.0, 0.0]]


def test_ttest_matrix_monotone_in_mean_gap():
    rng = np.random.default_rng(8)
    classes = {
        str(m): rng.normal(m, 0.01, 50) for m in (0, 10, 20)
    }
    labels, mat = pairwise_ttest_matrix(classes)
    assert mat[0, 2] > mat[0, 1] > 0
    assert mat[0, 2] > mat[1, 2] > 0
    assert np.allclose(mat, mat.T)
    assert not mat.diagonal().any()


def test_ttest_matrix_needs_two_classes():
    with pytest.raises(ValueError, match=">= 2 classes"):
        pairwise_ttest_matrix({"a": [1.0, 2.0]})


def per_pair_oracle(classes):
    """|t| matrix from the sample-taking oracle, one pair at a time."""
    groups = list(classes.values())
    mat = np.zeros((len(groups), len(groups)))
    for i in range(len(groups)):
        for j in range(i + 1, len(groups)):
            mat[i, j] = mat[j, i] = abs(welch_t_samples(groups[i], groups[j]))
    return mat


def test_ttest_matrix_equals_the_per_pair_oracle_bit_for_bit():
    rng = np.random.default_rng(23)
    classes = {f"c{k}": rng.normal(rng.uniform(-5, 5), rng.uniform(0.1, 40),
                                   rng.integers(2, 300))
               for k in range(12)}
    classes["flat_a"] = np.full(3, 7.25)    # zero variance, equal means
    classes["flat_b"] = np.full(11, 7.25)
    labels, mat = pairwise_ttest_matrix(classes)
    assert labels == list(classes)
    assert mat[labels.index("flat_a"), labels.index("flat_b")] == 0.0
    assert np.array_equal(mat, per_pair_oracle(classes))


@pytest.mark.parametrize("mode", ["baseline", "param"])
def test_ttest_matrix_equals_the_oracle_on_a_sweep(mode):
    cfg = SimConfig(mode=mode, seed=0x17, noise_sigma=80.0)
    classes = cache_set_experiment(cfg, reps=6, rekey_every=1)
    _, mat = pairwise_ttest_matrix(classes)
    assert np.array_equal(mat, per_pair_oracle(classes))


@pytest.mark.parametrize("samples, what", [
    ([1.0, float("nan"), 2.0], "samples must be finite"),
    ([4.0], "each group needs >= 2 samples, got 1"),
])
def test_ttest_matrix_error_names_the_bad_class(samples, what):
    classes = {f"set{s:02d}": [float(s), s + 1.0, s + 3.0] for s in range(10)}
    classes["set07"] = samples
    with pytest.raises(ValueError, match=re.escape(f"class 'set07': {what}")):
        pairwise_ttest_matrix(classes)


def test_ttest_matrix_degenerate_pair_names_both_classes():
    classes = {"set00": [1.0, 2.0, 4.0], "set03": [5.0, 5.0], "set05": [6.0, 6.0, 6.0]}
    with pytest.raises(DegenerateInputError,
                       match="classes 'set03' and 'set05': both groups have zero "
                             "variance and different means"):
        pairwise_ttest_matrix(classes)


# --- file formats -----------------------------------------------------------------

def test_oracle_csv_roundtrip(tmp_path):
    o1 = OracleTrace(values=(0x12, 0x34, 0xAB), width=8, label="sbox_out_b0")
    o2 = OracleTrace(values=(0x0012, 0x0034, 0xFFAB), width=16, label="wide")
    path = tmp_path / "oracle.csv"
    write_oracle_csv(path, [o1, o2])
    back = {o.label: o for o in read_oracle_csv(path)}
    assert back["sbox_out_b0"].values == o1.values
    assert back["wide"].values == o2.values


def test_oracle_csv_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("run_index,wrong,value_hex\n0,a,00\n")
    with pytest.raises(ValueError, match="header"):
        read_oracle_csv(path)
    path.write_text("run_index,point_label,value_hex\n0,a,00\n2,a,01\n")
    with pytest.raises(ValueError, match="not contiguous"):
        read_oracle_csv(path)


@pytest.mark.parametrize("row, what", [
    ("1,a,zz", "bad value_hex 'zz'"),
    ("1,a,", "bad value_hex ''"),
    ("1,a,-1", "bad value_hex '-1'"),
    ("1,a,0x1", "bad value_hex '0x1'"),
    ("x,a,01", "bad run_index 'x'"),
    (",a,01", "bad run_index ''"),
    ("1,a", "bad value_hex None"),
])
def test_oracle_csv_bad_cell_names_file_and_line(tmp_path, row, what):
    path = tmp_path / "oracle.csv"
    path.write_text(f"run_index,point_label,value_hex\n0,a,00\n{row}\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}: line 3: {what}")):
        read_oracle_csv(path)


@pytest.mark.parametrize("sample", ["nan", "inf", "-Infinity", "", "1e999"])
def test_class_csv_rejects_non_finite_sample_with_line(tmp_path, sample):
    path = tmp_path / "classes.csv"
    path.write_text(f"class,sample\ns0,1.5\ns1,2.0\ns0,{sample}\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}: bad sample ") + ".* at row 4"):
        read_class_samples_csv(path)


def test_class_csv_rejects_a_class_with_one_sample(tmp_path):
    path = tmp_path / "classes.csv"
    path.write_text("class,sample\na,1.0\nb,2.0\na,1.5\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}: class 'b' has 1 sample")):
        read_class_samples_csv(path)


def test_tmatrix_and_class_csv(tmp_path):
    path = tmp_path / "classes.csv"
    path.write_text("class,sample\ns0,1.5\ns0,2.5\ns1,9.0\ns1,9.5\n")
    groups = read_class_samples_csv(path)
    assert set(groups) == {"s0", "s1"}
    labels, mat = pairwise_ttest_matrix(groups)
    out = tmp_path / "t.csv"
    write_tmatrix_csv(out, labels, mat)
    text = out.read_text().splitlines()
    assert text[0] == "class,s0,s1"
    bad = tmp_path / "bad.csv"
    bad.write_text("class,sample\ns0,xyz\n")
    with pytest.raises(ValueError, match="row 2"):
        read_class_samples_csv(bad)
