import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import two_pass_cpa

from leakscope import cpa as cpa_module
from leakscope.aes import POINT_FUNCTIONS, SBOX, first_round_value
from leakscope.cpa import (
    ClassSums,
    class_sums,
    correlation_evolution,
    cpa_attack,
    mtd,
    write_attack_json,
    write_evolution_csv,
)

HW = np.array([bin(v).count("1") for v in range(256)])
SBOX_ARR = np.frombuffer(SBOX, dtype=np.uint8)


def attack(traces, pts, target_byte, point="sbox_out"):
    """``cpa_attack`` on the class sums of a whole trace set."""
    return cpa_attack(class_sums(traces, pts, target_byte), point=point)


def synthetic_traces(n, key_byte, sigma=0.0, d=5, leak_cycle=2, seed=0,
                     point="sbox_out"):
    """Traces whose column `leak_cycle` is exactly the hypothesis HW."""
    rng = np.random.default_rng(seed)
    pts = rng.integers(0, 256, size=(n, 16), dtype=np.uint8)
    vals = np.array([first_round_value(int(p), key_byte, point) for p in pts[:, 0]])
    traces = rng.normal(0, 1, size=(n, d))
    traces[:, leak_cycle] = HW[vals] + rng.normal(0, sigma, n)
    return traces, pts


def test_exact_hw_recovers_key():
    traces, pts = synthetic_traces(300, key_byte=0x3C)
    res = attack(traces, pts, 0)
    assert res.best_guess == 0x3C
    assert res.rank_of(0x3C) == 1
    assert res.best_sample == 3  # leak_cycle 2, 1-based
    assert res.guess_scores[0x3C] == pytest.approx(1.0, abs=1e-9)


def test_noise_only_traces_stay_uncorrelated():
    rng = np.random.default_rng(7)
    traces = rng.normal(0, 1, size=(300, 8))
    pts = rng.integers(0, 256, size=(300, 16), dtype=np.uint8)
    res = attack(traces, pts, 0)
    assert res.guess_scores.max() < 0.5


def test_matches_naive_corrcoef():
    traces, pts = synthetic_traces(60, key_byte=0x11, sigma=2.0, d=4)
    res = attack(traces, pts, 3)
    pbytes = pts[:, 3]
    for g in (0, 0x11, 0x80, 0xFF):
        h = HW[SBOX_ARR[pbytes ^ g]].astype(np.float64)
        for c in range(4):
            want = np.corrcoef(h, traces[:, c])[0, 1]
            assert res.correlations[g, c] == pytest.approx(want, abs=1e-10)


def test_row_permutation_invariance():
    traces, pts = synthetic_traces(100, key_byte=0x42, sigma=1.0)
    res = attack(traces, pts, 0)
    rng = np.random.default_rng(3)
    perm = rng.permutation(100)
    res2 = attack(traces[perm], pts[perm], 0)
    assert np.allclose(res.correlations, res2.correlations, atol=1e-12)
    assert res.best_guess == res2.best_guess


def test_affine_trace_invariance():
    traces, pts = synthetic_traces(100, key_byte=0x42, sigma=1.0)
    res = attack(traces, pts, 0)
    res2 = attack(traces * 3.7 + 11.0, pts, 0)
    assert np.allclose(np.abs(res.correlations), np.abs(res2.correlations), atol=1e-9)
    assert (res.ranks == res2.ranks).all()


def test_mismatched_point_scores_lower():
    # traces leak xor_key; the sbox_out hypothesis must correlate worse
    traces, pts = synthetic_traces(500, key_byte=0x27, point="xor_key", seed=5)
    matched = attack(traces, pts, 0, point="xor_key")
    mismatched = attack(traces, pts, 0, point="sbox_out")
    assert matched.guess_scores[0x27] > mismatched.guess_scores[0x27]
    assert matched.rank_of(0x27) == 1


def test_constant_plaintext_byte_scores_zero():
    rng = np.random.default_rng(11)
    traces = rng.normal(0, 1, size=(50, 3))
    pts = np.zeros((50, 16), dtype=np.uint8)
    res = attack(traces, pts, 0)
    assert not res.correlations.any()


def test_constant_trace_column_scores_zero():
    traces, pts = synthetic_traces(80, key_byte=0x01)
    traces[:, 0] = 42.0
    res = attack(traces, pts, 0)
    assert not res.correlations[:, 0].any()


def test_input_validation():
    traces, pts = synthetic_traces(10, key_byte=0)
    with pytest.raises(ValueError, match="at least 2"):
        attack(traces[:1], pts[:1], 0)
    with pytest.raises(ValueError, match="plaintexts"):
        attack(traces, pts[:5], 0)
    with pytest.raises(ValueError, match="target_byte"):
        attack(traces, pts, 16)
    with pytest.raises(ValueError, match="unknown interesting point"):
        attack(traces, pts, 0, point="nope")


def test_mtd_immediate_disclosure():
    traces, pts = synthetic_traces(400, key_byte=0x77)
    curve = mtd(traces, pts, 0, 0x77, checkpoint_step=50)
    assert curve.mtd == 50
    assert [n for n, _ in curve.checkpoints] == list(range(50, 401, 50))
    assert all(rank == 1 for _, rank in curve.checkpoints)


def test_mtd_not_disclosed():
    rng = np.random.default_rng(13)
    traces = rng.normal(0, 1, size=(300, 4))
    pts = rng.integers(0, 256, size=(300, 16), dtype=np.uint8)
    curve = mtd(traces, pts, 0, 0x5A, checkpoint_step=100)
    assert curve.mtd is None


def test_mtd_requires_stability():
    # rank 1 early by luck, then lost: the early checkpoint must not count
    traces, pts = synthetic_traces(300, key_byte=0x10, sigma=0.0)
    # corrupt the leak for the last two thirds
    traces[100:, 2] = np.random.default_rng(4).normal(0, 1, 200)
    curve = mtd(traces, pts, 0, 0x10, checkpoint_step=100)
    if curve.checkpoints[0][1] == 1:
        assert curve.mtd != 100 or all(r == 1 for _, r in curve.checkpoints)


def test_evolution_single_checkpoint_equals_attack():
    traces, pts = synthetic_traces(120, key_byte=0x99, sigma=0.5)
    cps, series = correlation_evolution(traces, pts, 0)
    res = attack(traces, pts, 0)
    assert cps == [120]
    assert np.allclose(series[0], res.guess_scores, atol=1e-12)


def test_evolution_true_key_dominates_from_50():
    traces, pts = synthetic_traces(400, key_byte=0xA5, sigma=0.3, seed=21)
    cps, series = correlation_evolution(traces, pts, 0, checkpoint_step=50)
    for i, cp in enumerate(cps):
        if cp >= 50:
            row = series[i]
            best = row.argmax()
            assert best == 0xA5


def test_artifact_writers(tmp_path):
    traces, pts = synthetic_traces(60, key_byte=0x01)
    res = attack(traces, pts, 0)
    curve = mtd(traces, pts, 0, 0x01, checkpoint_step=30)
    write_attack_json(tmp_path / "attack.json", res, curve)
    cps, series = correlation_evolution(traces, pts, 0, checkpoint_step=30)
    write_evolution_csv(tmp_path / "evo.csv", cps, series)
    import json

    doc = json.loads((tmp_path / "attack.json").read_text())
    assert doc["best_guess"] == 0x01
    assert doc["mtd"]["mtd"] == 30
    lines = (tmp_path / "evo.csv").read_text().splitlines()
    assert lines[0] == "trace_count,guess,max_abs_rho"
    assert len(lines) == 1 + 2 * 256


def test_xor_key_complement_guesses_tie_exactly():
    # xor_key hypotheses of g and g ^ 0xFF are h and 8 - h: equal |rho| in
    # exact arithmetic, so ties must go to the lower guess, not to float noise
    rng = np.random.default_rng(1)
    pts = rng.integers(0, 256, size=(1000, 16), dtype=np.uint8)
    for d in (1, 8, 40):
        traces = rng.normal(500, 80, size=(1000, d))
        res = attack(traces, pts, 0, point="xor_key")
        scores = res.guess_scores
        assert (scores == scores[np.arange(256) ^ 0xFF]).all()
        for k in range(0x80, 0x100):
            assert res.rank_of(k) == res.rank_of(k ^ 0xFF) + 1


def test_non_finite_sample_names_row_and_cycle():
    traces, pts = synthetic_traces(20, key_byte=0x05)
    traces[12, 1] = np.nan
    # the first prefix (10 traces) is clean; the second reaches the NaN
    with pytest.raises(ValueError, match=r"trace row 12, cycle 2: sample is nan"):
        mtd(traces, pts, 0, 0x05, checkpoint_step=10)
    traces[7, 3] = np.inf
    with pytest.raises(ValueError, match=r"trace row 7, cycle 4: sample is inf"):
        attack(traces, pts, 0)


@pytest.mark.parametrize("value, text", [(np.nan, "nan"), (np.inf, "inf"), (-np.inf, "-inf")])
@pytest.mark.parametrize("row, col", [(0, 0), (13, 2), (39, 4)])
def test_each_non_finite_sample_is_named_where_it_sits(value, text, row, col):
    traces, pts = synthetic_traces(40, key_byte=0x05, sigma=1.0)
    traces[row, col] = value
    with pytest.raises(ValueError, match=rf"^trace row {row}, cycle {col + 1}: sample is {text}$"):
        attack(traces, pts, 0)


def test_huge_finite_samples_are_no_error():
    # squaring 1e300 overflows the norm of column 0 to inf: its correlations
    # divide to 0, and the leaking column scores as it does on its own
    traces, pts = synthetic_traces(200, key_byte=0x5A, sigma=1.0, d=2, leak_cycle=1)
    traces[:, 0] = 1e300 * np.random.default_rng(3).normal(size=200)
    with np.errstate(over="ignore"):
        res = attack(traces, pts, 0)
    alone = attack(traces[:, 1:], pts, 0)
    assert (res.correlations[:, 0] == 0).all()
    assert np.abs(res.correlations[:, 1] - alone.correlations[:, 0]).max() <= 1e-12
    assert (res.best_guess, res.best_sample) == (0x5A, 2)
    assert res.ranks.tolist() == alone.ranks.tolist()


def test_checkpoint_step_zero_is_an_error():
    traces, pts = synthetic_traces(40, key_byte=0x05)
    with pytest.raises(ValueError, match="checkpoint_step must be >= 1, got 0"):
        correlation_evolution(traces, pts, 0, checkpoint_step=0)
    with pytest.raises(ValueError, match="checkpoint_step must be >= 1, got 0"):
        mtd(traces, pts, 0, 0x05, checkpoint_step=0)


def _assert_matches_oracle(traces, pts, target_byte, point="sbox_out", tol=1e-9):
    want_corr, want_ranks = two_pass_cpa(traces, pts, target_byte, point)
    res = attack(traces, pts, target_byte, point=point)
    assert np.abs(res.correlations - want_corr).max() <= tol
    # guesses the oracle separates by more than tol keep the oracle's order
    ordered = np.abs(want_corr).max(axis=1)[res.ranks]
    later_best = np.maximum.accumulate(ordered[::-1])[::-1]
    assert (later_best[1:] <= ordered[:-1] + tol).all()
    assert sorted(res.ranks.tolist()) == list(range(256))


@settings(max_examples=150, deadline=None, database=None)
@given(
    point=st.sampled_from(sorted(POINT_FUNCTIONS)),
    n=st.integers(2, 300),
    d=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    byte_values=st.one_of(st.just(256), st.integers(1, 4)),
    leak=st.booleans(),
    const_col=st.one_of(st.none(), st.tuples(st.integers(0, 5),
                                             st.floats(-1e3, 1e3, allow_nan=False))),
    scale=st.sampled_from([1.0, -1.0, 1e-3, 3.7, 1e4]),
    offset=st.sampled_from([0.0, 11.0, -250.5, 1e5]),
)
def test_class_sums_match_two_pass_oracle(point, n, d, seed, byte_values, leak,
                                          const_col, scale, offset):
    rng = np.random.default_rng(seed)
    pts = rng.integers(0, 256, size=(n, 16), dtype=np.uint8)
    # few byte values: most of the 256 never occur (one value: every row degenerate)
    present = rng.choice(256, size=byte_values, replace=False)
    pts[:, 2] = present[rng.integers(0, byte_values, n)]
    traces = rng.normal(0, 1, size=(n, d))
    if leak:
        key = int(rng.integers(0, 256))
        traces[:, 0] += HW[[first_round_value(int(p), key, point) for p in pts[:, 2]]]
    if const_col is not None:
        traces[:, const_col[0] % d] = const_col[1]
    _assert_matches_oracle(traces * scale + offset, pts, 2, point)


# --- the block kernel against the two-pass oracle --------------------------------------

def _block_rows(d):
    """Rows per block of ``ClassSums.update`` at d samples per trace."""
    return max(1, cpa_module._BLOCK_WORDS // d)


def _trace_count(at, d):
    """The trace count named by ``at`` around the block size B at d."""
    b = _block_rows(d)
    return max(2, {"2": 2, "B-1": b - 1, "B": b, "B+1": b + 1, "3B+7": 3 * b + 7}[at])


# the oracle builds a (256, N) hypothesis matrix, 400 MB at the 3B + 7 rows
# of d = 1 with the package's block size, so the blocks shrink here; the
# package's own size is checked at d = 207 below
@settings(max_examples=60, deadline=None, database=None)
@given(
    d=st.sampled_from([1, 3, 207]),
    at=st.sampled_from(["2", "B-1", "B", "B+1", "3B+7"]),
    seed=st.integers(0, 2**32 - 1),
    offset=st.sampled_from([0.0, 1e6]),
    const_col=st.booleans(),
    const_byte=st.booleans(),
)
def test_block_kernel_matches_two_pass_oracle(d, at, seed, offset, const_col, const_byte):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cpa_module, "_BLOCK_WORDS", 1 << 10)
        n = _trace_count(at, d)
        rng = np.random.default_rng(seed)
        traces, pts = synthetic_traces(n, key_byte=int(rng.integers(0, 256)), sigma=1.0,
                                       d=d, leak_cycle=d - 1, seed=seed)
        traces += offset
        if const_col:
            traces[:, 0] = 1e6 + 0.5
        if const_byte:
            pts[:, 0] = 0x3C
        _assert_matches_oracle(traces, pts, 0, tol=1e-12)


@pytest.mark.parametrize("at", ["B-1", "B", "B+1", "3B+7"])
def test_block_kernel_at_package_block_size(at):
    d = 207
    traces, pts = synthetic_traces(_trace_count(at, d), key_byte=0x2B, sigma=3.0, d=d,
                                   leak_cycle=100, seed=4)
    _assert_matches_oracle(traces + 1e6, pts, 0, tol=1e-12)


def test_prefix_attacks_match_the_oracle_across_block_boundaries():
    d = 207
    b = _block_rows(d)
    n, step = 3 * b + 7, b - 66      # checkpoints fall inside blocks
    # ranks 47, 3, 1, 1: the true byte is found between checkpoints
    traces, pts = synthetic_traces(n, key_byte=0x2B, sigma=12.0, d=d, leak_cycle=100, seed=9)
    curve = mtd(traces, pts, 0, 0x2B, checkpoint_step=step)
    cps, series = correlation_evolution(traces, pts, 0, checkpoint_step=step)
    assert cps == [cp for cp, _ in curve.checkpoints] == [*range(step, n + 1, step), n]
    assert any(cp % b for cp in cps)
    for (cp, rank), scores in zip(curve.checkpoints, series):
        want_corr, want_ranks = two_pass_cpa(traces[:cp], pts[:cp], 0)
        assert np.abs(scores - np.abs(want_corr).max(axis=1)).max() <= 1e-12
        assert rank == int(np.where(want_ranks == 0x2B)[0][0]) + 1


def _rank_bounds(scores, key, tol):
    """The ranks a guess may take when scores closer than tol may swap."""
    return 1 + int((scores > scores[key] + tol).sum()), int((scores >= scores[key] - tol).sum())


# checkpoints fall inside blocks, on block ends and across several blocks;
# the blocks shrink so that the oracle's (256, N) hypotheses stay small
@settings(max_examples=60, deadline=None, database=None)
@given(
    d=st.sampled_from([1, 3, 64]),
    n_blocks=st.floats(0.0, 3.2),
    step_at=st.sampled_from(["7", "B/3", "B-1", "B", "B+1", "2B+3"]),
    seed=st.integers(0, 2**32 - 1),
    offset=st.sampled_from([0.0, 1e6]),
    float32=st.booleans(),
    byte_values=st.one_of(st.just(256), st.integers(1, 4)),
)
def test_prefix_attacks_match_the_oracle_at_every_checkpoint(d, n_blocks, step_at, seed, offset,
                                                             float32, byte_values):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cpa_module, "_BLOCK_WORDS", 1 << 8)
        b = _block_rows(d)
        n = max(2, int(n_blocks * b))
        step = {"7": 7, "B/3": max(1, b // 3), "B-1": max(1, b - 1), "B": b, "B+1": b + 1,
                "2B+3": 2 * b + 3}[step_at]
        rng = np.random.default_rng(seed)
        key = int(rng.integers(0, 256))
        traces, pts = synthetic_traces(n, key_byte=key, sigma=2.0, d=d, leak_cycle=d - 1,
                                       seed=seed)
        present = rng.choice(256, size=byte_values, replace=False)
        pts[:, 0] = present[rng.integers(0, byte_values, n)]
        traces = traces + offset
        if float32:
            traces = traces.astype(np.float32)
        curve = mtd(traces, pts, 0, key, checkpoint_step=step)
        cps, series = correlation_evolution(traces, pts, 0, checkpoint_step=step)
    assert cps == [cp for cp, _ in curve.checkpoints] == cpa_module._checkpoints(n, step)
    for (cp, rank), scores in zip(curve.checkpoints, series):
        want = np.abs(two_pass_cpa(traces[:cp], pts[:cp], 0)[0]).max(axis=1)
        assert np.abs(scores - want).max() <= 1e-9, cp
        lo, hi = _rank_bounds(want, key, 1e-9)
        assert lo <= rank <= hi, (cp, rank, lo, hi)


@pytest.mark.parametrize("run", [
    lambda t, p: mtd(t, p, 0, 0x2B, checkpoint_step=150),
    lambda t, p: correlation_evolution(t, p, 0, checkpoint_step=150),
], ids=["mtd", "evolution"])
def test_prefix_attacks_read_each_trace_row_once(monkeypatch, run):
    rows = []
    update = ClassSums.update

    def counting_update(self, traces, plaintexts):
        rows.append(len(traces))
        update(self, traces, plaintexts)

    monkeypatch.setattr(ClassSums, "update", counting_update)
    traces, pts = synthetic_traces(1000, key_byte=0x2B, sigma=1.0)
    run(traces, pts)
    assert rows == [150] * 6 + [100]    # checkpoints 150, 300, ..., 900 and 1000
    assert sum(rows) == 1000


@pytest.mark.parametrize("value, text", [(np.nan, "nan"), (np.inf, "inf"), (-np.inf, "-inf")])
def test_non_finite_sample_in_the_last_block_is_named_by_its_global_row(value, text):
    d = 207
    b = _block_rows(d)
    traces, pts = synthetic_traces(3 * b + 7, key_byte=0x05, sigma=1.0, d=d)
    row = 3 * b + 3
    traces[row, 150] = value
    with pytest.raises(ValueError, match=rf"^trace row {row}, cycle 151: sample is {text}$"):
        attack(traces, pts, 0)
    # the checkpoint before the row is scored; the rows after it start a new update
    with pytest.raises(ValueError, match=rf"^trace row {row}, cycle 151: sample is {text}$"):
        mtd(traces, pts, 0, 0x05, checkpoint_step=2 * b + 5)


# --- memory -----------------------------------------------------------------------------

def test_attack_holds_no_trace_sized_temporary():
    import tracemalloc

    rng = np.random.default_rng(2)
    traces = rng.normal(500, 80, size=(8192, 207))
    pts = rng.integers(0, 256, size=(8192, 16), dtype=np.uint8)
    attack(traces, pts, 0)   # fill the Hamming-weight table cache first
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        attack(traces, pts, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - base < traces.nbytes / 2, (peak - base, traces.nbytes)


def test_float32_attack_holds_no_trace_sized_float64_copy():
    import tracemalloc

    # the block workspace (about 3.7 MB here) does not grow with the rows; a
    # float64 cast of these traces would be 33 MB
    rng = np.random.default_rng(2)
    traces = rng.normal(500, 80, size=(20_000, 207)).astype(np.float32)
    pts = rng.integers(0, 256, size=(20_000, 16), dtype=np.uint8)
    attack(traces, pts, 0)   # fill the Hamming-weight table cache first
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        attack(traces, pts, 0)
        mtd(traces, pts, 0, 0x2B, checkpoint_step=7000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - base < traces.nbytes / 2, (peak - base, traces.nbytes)


# --- float32 traces ---------------------------------------------------------------------
# Trace archives store float32 samples, and ``dpa`` attacks them as stored:
# each row block is cast to float64 as the shift is taken off, and the
# shift, the float64 column mean of the first block of float32 rows, adds
# them in the same order as the mean of their cast.

@pytest.mark.parametrize("n", [2, 3, 8191, 8193, 100_000])
@pytest.mark.parametrize("d", [1, 7])
def test_float64_mean_of_float32_rows_is_the_mean_of_their_cast(n, d):
    traces = np.random.default_rng(n).normal(500, 80, size=(n, d)).astype(np.float32)
    assert np.array_equal(traces.mean(axis=0, dtype=np.float64),
                          traces.astype(np.float64).mean(axis=0))


def test_float32_traces_attack_like_their_float64_cast():
    d = 207
    b = _block_rows(d)
    traces, pts = synthetic_traces(3 * b + 7, key_byte=0x2B, sigma=12.0, d=d,
                                   leak_cycle=100, seed=9)
    t32 = (traces * 80 + 500).astype(np.float32)
    t64 = t32.astype(np.float64)
    for n in (2, b - 1, b + 1, 2 * b + 5, 3 * b + 7):   # whole set and prefixes inside blocks
        got, want = attack(t32[:n], pts[:n], 0), attack(t64[:n], pts[:n], 0)
        assert np.array_equal(got.correlations, want.correlations), n
        assert np.array_equal(got.ranks, want.ranks), n
    step = b - 66
    assert mtd(t32, pts, 0, 0x2B, step) == mtd(t64, pts, 0, 0x2B, step)
    got, want = (correlation_evolution(t, pts, 0, checkpoint_step=step) for t in (t32, t64))
    assert got[0] == want[0] and np.array_equal(got[1], want[1])


@pytest.mark.parametrize("value, text", [(np.nan, "nan"), (np.inf, "inf"), (-np.inf, "-inf")])
def test_non_finite_float32_sample_is_named_by_its_row_and_cycle(value, text):
    d = 207
    b = _block_rows(d)
    traces, pts = synthetic_traces(2 * b + 7, key_byte=0x05, sigma=1.0, d=d)
    traces = traces.astype(np.float32)
    row = b + 3
    traces[row, 150] = value
    with pytest.raises(ValueError, match=rf"^trace row {row}, cycle 151: sample is {text}$"):
        attack(traces, pts, 0)
