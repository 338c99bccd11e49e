"""Leakage metrics: Hamming models, pairwise-distance correlation, t-tests.

The per-module leakage score correlates two pattern vectors: pairwise Hamming
distances of an oracle trace (ground-truth values, one per run) against
pairwise distances of the module's concatenated signal word at each cycle.
The per-cycle score is the absolute Pearson coefficient and the module score
is the maximum over cycles.

Distances are integers, so the per-cycle Pearson is evaluated from exact
integer moments; the result is bit-for-bit reproducible and independent of
summation order. Dumps are sample-and-hold, so a module's distances are
computed in full at the window's first cycle and then updated only at the
(cycle, word) samples that change, and each distinct cycle is scored once.

A permutation test (shuffling the oracle) provides a self-calibrating noise
floor for reports, from the same exact moments, so no report depends on how
BLAS splits a sum. One kernel, ``_pair_popcounts``, gives the pair distances
of modules, oracles and shuffled oracles. ``svf_all`` takes each module's
floor as soon as the module is scored, from its winning oracle's shuffled
words, so one module's rows are live at a time. The moments must fit int64:
for n run pairs, n²·max(module distance)·max(oracle distance) < 2^63, which a
4096-bit module against an 8-bit oracle reaches at about 5800 runs.
"""

from __future__ import annotations

import csv
import math
import re
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from .vcd import ModuleNode, RunSet


class DegenerateInputError(ValueError):
    pass


# --- Hamming primitives -----------------------------------------------------

def hamming_weight(x: int) -> int:
    if x < 0:
        raise ValueError("bit vectors are non-negative")
    return x.bit_count()


def hamming_distance(x: int, y: int, width_x: int | None = None,
                     width_y: int | None = None) -> int:
    """Popcount of x xor y; explicit widths, when given, must agree."""
    if width_x is not None and width_y is not None and width_x != width_y:
        raise ValueError(f"width mismatch: {width_x} != {width_y}")
    if x < 0 or y < 0:
        raise ValueError("bit vectors are non-negative")
    return (x ^ y).bit_count()


def pair_order(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Canonical unordered-pair order: j ascending, then i ascending (i > j).

    Returns (i_idx, j_idx) arrays of length n*(n-1)/2.
    """
    j_idx, i_idx = np.triu_indices(n, k=1)
    return i_idx, j_idx


def _pair_popcounts(words: np.ndarray, i_idx: np.ndarray, j_idx: np.ndarray) -> np.ndarray:
    """The pair-distance kernel: popcount of ``words[i] ^ words[j]`` for each
    pair (i, j), word by word. ``words`` (n, ...) gives (n_pairs, ...).
    ``np.take`` gathers rows of a few bytes many times faster than indexing."""
    return np.bitwise_count(np.take(words, i_idx, axis=0) ^ np.take(words, j_idx, axis=0))


# --- Pearson -----------------------------------------------------------------

def pearson(x, y) -> float:
    """Two-pass Pearson correlation in double precision."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError(f"sequences must be 1-d and equal length, got {x.shape} vs {y.shape}")
    if x.size < 2:
        raise ValueError("need at least 2 samples")
    dx = x - x.mean()
    dy = y - y.mean()
    sx = float(np.dot(dx, dx))
    sy = float(np.dot(dy, dy))
    if sx == 0.0 or sy == 0.0:
        raise DegenerateInputError("zero variance input")
    return float(np.dot(dx, dy)) / math.sqrt(sx * sy)


# --- Oracle traces ------------------------------------------------------------

@dataclass(frozen=True)
class OracleTrace:
    """Per-run ground-truth values at one interesting point."""

    values: tuple[int, ...]
    width: int
    label: str = ""

    def __post_init__(self):
        for v in self.values:
            if not 0 <= v < (1 << self.width):
                raise ValueError(f"oracle value {v:#x} does not fit {self.width} bits")

    def __len__(self):
        return len(self.values)


def _oracle_words(oracle: OracleTrace) -> np.ndarray:
    """(n_runs, k) words of the narrowest unsigned type that holds the
    values; past 64 bits, k uint64 words, low word first."""
    size = next(s for s in (1, 2, 4, 8) if 8 * s >= oracle.width or s == 8)
    k = max(1, -(-oracle.width // (8 * size)))
    raw = b"".join(v.to_bytes(k * size, "little") for v in oracle.values)
    return np.frombuffer(raw, dtype=f"<u{size}").reshape(len(oracle), k)


def write_oracle_csv(path, oracles) -> None:
    """CSV with header run_index, point_label, value_hex (one row per run per label)."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["run_index", "point_label", "value_hex"])
        for o in oracles:
            digits = max(1, (o.width + 3) // 4)
            for i, v in enumerate(o.values):
                w.writerow([i, o.label, format(v, f"0{digits}x")])


_ORACLE_FIELDS = {"run_index": re.compile(r"[0-9]+"), "value_hex": re.compile(r"[0-9a-fA-F]+")}


def read_oracle_csv(path) -> list[OracleTrace]:
    """Read oracle traces grouped by point label, run_index order enforced.

    A run_index that is not a decimal integer or a value_hex that is not
    plain hex digits is an error naming the file and line; a file with no
    rows after the header is one naming the file.
    """
    groups: dict[str, list[tuple[int, str]]] = {}
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        need = {"run_index", "point_label", "value_hex"}
        if reader.fieldnames is None or not need.issubset(reader.fieldnames):
            raise ValueError(f"oracle csv {path}: header must contain {sorted(need)}")
        for row in reader:
            for name, pattern in _ORACLE_FIELDS.items():
                if not pattern.fullmatch(row[name] or ""):
                    raise ValueError(f"oracle csv {path}: line {reader.line_num}: "
                                     f"bad {name} {row[name]!r}")
            groups.setdefault(row["point_label"], []).append(
                (int(row["run_index"]), row["value_hex"])
            )
    if not groups:
        raise ValueError(f"oracle csv {path}: no oracle rows after the header (line 1)")
    out = []
    for label, rows in groups.items():
        rows.sort()
        if [r[0] for r in rows] != list(range(len(rows))):
            raise ValueError(f"oracle csv {path}: run_index for '{label}' not contiguous from 0")
        width = max(4 * len(h) for _, h in rows)
        out.append(OracleTrace(values=tuple(int(h, 16) for _, h in rows),
                               width=width, label=label))
    return out


# --- per-module scoring -------------------------------------------------------

@dataclass
class SvfResult:
    module_path: tuple[str, ...]
    svf: float
    peak_cycle: int  # 1-based cycle index of the maximum
    per_cycle_scores: np.ndarray
    oracle_label: str = ""
    noise_floor: float | None = None
    xz_ratio: float = 0.0

    @property
    def module_name(self) -> str:
        return ".".join(self.module_path)


_PAIR_BLOCK_WORDS = 1 << 18  # words per temporary in a blocked loop over pairs or shuffles


def _module_distance_matrix(runs: RunSet, node: ModuleNode, window):
    """Pairwise Hamming distances of the module word at its distinct cycles.

    The word's distance is the sum of its 64-bit word columns' distances. A
    column with one value in every run and cycle of the window adds 0 to all
    of them and is skipped. (Constant here means no run changes the column
    between the window's first and last edge and all runs agree on its value
    there.) Dumps are sample-and-hold, so a cycle's distances differ from the
    previous cycle's only in the (cycle, word) events where some run's sample
    row changes. The window's first cycle is computed in full; each event
    cycle adds the exact change of its words' pair distances to the row
    before it. Cycles without an event repeat the previous row.

    Returns (ds, cycle_rows, xz_ratio): ds (n_rows, n_pairs) int64 holds
    each distinct per-cycle row once, and cycle_rows (d_win,) maps each
    cycle of the window to its row, so ``ds[cycle_rows]`` is the per-cycle
    matrix.
    """
    start, end = window
    d_win = end - start
    cols = runs.runs[0].module_columns(node)
    width = sum(s.width for s in node.signals)

    first = [m.rows(cols, start, start + 1)[:, 0] for m in runs.runs]
    last = [m.rows(cols, end - 1, end)[:, 0] for m in runs.runs]
    v0 = np.stack([m.values[r] for m, r in zip(runs.runs, first)])
    const = (v0 == v0[0]).all(axis=0)
    for f, l in zip(first, last):
        const &= f == l
    xz_bits = d_win * sum(int(np.bitwise_count(m.xmask[r] | m.zmask[r]).sum())
                          for m, r in zip(runs.runs, (f[const] for f in first)))

    # One run at a time, from its rows between the window's first and last
    # edge: which (cycle, word) samples change, and the x/z bits of each row
    # times the cycles it is sampled.
    varying = cols[~const]
    k = len(varying)
    changed = np.zeros((d_win, k), dtype=bool)
    for m, f, l in zip(runs.runs, first, last):
        lo = f[~const]
        counts = l[~const] - lo + 1
        ends = np.cumsum(counts)
        word = np.repeat(np.arange(k), counts)
        idx = np.arange(len(word)) + np.repeat(lo - ends + counts, counts)
        pos = np.searchsorted(m.edge_ranks[start:end], m.keys[idx] - varying[word] * m.stride)
        changed[pos, word] = True  # cycle 0 for the first rows, which change nothing
        held = np.empty_like(pos)
        held[:-1] = pos[1:]
        held[ends - 1] = d_win
        held -= pos  # 0 for a row overwritten before the next edge
        xz_bits += int((np.bitwise_count(m.xmask[idx] | m.zmask[idx]) * held).sum())
    ev_cycle, ev_word = np.nonzero(changed[1:])  # cycle-major order
    ev_cycle += 1

    # each run's samples at the first cycle, then at every event
    samples = np.empty((runs.n_runs, k + len(ev_word)), dtype=np.uint64)
    samples[:, :k] = v0[:, ~const]
    for m, out in zip(runs.runs, samples):
        out[k:] = m.values[m.rows_at(varying[ev_word], start + ev_cycle)]

    cycles, starts = np.unique(ev_cycle, return_index=True)
    step_rows = np.zeros(d_win, dtype=np.int64)
    step_rows[cycles] = 1
    np.cumsum(step_rows, out=step_rows)
    ds, rows = _distinct_rows(_pair_distances(samples, _previous_samples(ev_word, k), starts))
    return ds, rows[step_rows], xz_bits / (width * d_win * runs.n_runs)


def _distinct_rows(ds: np.ndarray):
    """(each distinct row of ds once, in first-seen order; index of each row
    of ds in them). Words can change back, so rows can repeat."""
    seen: dict[int, list[int]] = {}
    keep: list[int] = []
    rows = np.empty(len(ds), dtype=np.int64)
    for r, row in enumerate(ds):
        same = seen.setdefault(hash(row.tobytes()), [])
        for k in same:
            if np.array_equal(ds[keep[k]], row):
                break
        else:
            k = len(keep)
            keep.append(r)
            same.append(k)
        rows[r] = k
    return (ds if len(keep) == len(ds) else ds[keep]), rows


def _previous_samples(ev_word, k):
    """Column of ``samples`` that holds each event word's sample before it:
    the word's first-cycle column, or the column of its previous event."""
    order = np.argsort(ev_word, kind="stable")  # each word's events, in cycle order
    word = ev_word[order]
    prev = np.empty(len(order), dtype=np.int64)
    prev[order] = np.where(np.r_[True, word[1:] != word[:-1]], word,
                           k + np.r_[0, order[:-1]])
    return prev


def _pair_distances(samples: np.ndarray, prev: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """(1 + len(starts), n_pairs) summed pair distances of the first cycle
    and of each event cycle.

    ``samples`` is (n, k + e): k first-cycle words, then e event words whose
    earlier sample sits in column ``prev``; the events of one cycle start at
    ``starts``. Row 0 sums the first k columns' popcounts of x ^ y; each
    later row adds its events' changes of popcount to the row before.
    """
    n, width = samples.shape
    k = width - len(prev)
    i_idx, j_idx = pair_order(n)
    ds = np.empty((1 + len(starts), len(i_idx)), dtype=np.int64)
    step = max(1, _PAIR_BLOCK_WORDS // max(1, width))
    for lo in range(0, len(i_idx), step):
        hi = lo + step
        pc = _pair_popcounts(samples, i_idx[lo:hi], j_idx[lo:hi])
        block = ds[:, lo:hi]
        block[0] = pc[:, :k].sum(axis=1, dtype=np.int64)
        if len(starts):
            delta = pc[:, k:].astype(np.int16) - pc[:, prev]
            block[1:] = np.add.reduceat(delta, starts, axis=1, dtype=np.int64).T
    return np.cumsum(ds, axis=0, out=ds)


def _normalize_window(window, d):
    """Clamp a 1-based inclusive (start, end) cycle window to [0, d) slices."""
    if window is None:
        return 0, d
    start, end = window
    start = max(1, start)
    end = min(d, end)
    if start > end:
        raise ValueError(f"empty analysis window ({start}, {end})")
    return start - 1, end


def _moments(d):
    """The int64 distance rows ``d`` (rows, n pairs) as float64 (exact, for
    products), with their int64 sums, sums of squares and maxima."""
    return d.astype(np.float64), d.sum(axis=1), np.einsum("ij,ij->i", d, d), d.max(axis=1)


def _abs_pearson(sxy, ys, xs):
    """|Pearson| (rows, columns) of module rows against oracle columns from
    their products' sums ``sxy``, float64 sums of integers (exact in any order
    below 2^53), and each side's ``_moments``: ``ys`` of the rows, ``xs`` per
    column or of one oracle for all columns. The int64 numerator n·Σxy − Σy·Σx
    and the Python-int denominator are each rounded to float64 once; sqrt,
    divide, 0 where the denominator is 0 and clip at 1 follow, so the scores
    are bit-exact. Raises ValueError when n²·max(y)·max(x) reaches 2^63 (or
    n·max(y)·max(x) 2^53)."""
    (rows, sy, syy, y_top), (_, sx, sxx, x_top) = ys, xs
    n = rows.shape[1]
    top = int(y_top.max()) * int(x_top.max())
    if n * n * top >= 1 << 63 or n * top >= 1 << 53:
        raise ValueError(f"{n} run pairs are too many for exact moments of distances "
                         f"up to {y_top.max()} and {x_top.max()}")
    num = n * sxy.astype(np.int64) - sy[:, None] * sx
    b = n * syy.astype(object) - sy.astype(object) ** 2
    ab = (b[:, None] * (n * sxx.astype(object) - sx.astype(object) ** 2)).astype(np.float64)
    scores = np.zeros(num.shape, dtype=np.float64)
    np.divide(np.abs(num).astype(np.float64), np.sqrt(ab), out=scores, where=ab > 0)
    return np.minimum(scores, 1.0)


def _score(runs, path, node, oracles, moments, start, end):
    """Score the module ``node`` at ``path`` against the oracle it matches
    best (the first on ties); return (result, the ``_moments`` of its
    distinct rows, index of that oracle). Only the distinct cycles are
    scored, by ``_abs_pearson``; the per-cycle scores are expanded from them.
    """
    ds, cycle_rows, xz_ratio = _module_distance_matrix(runs, node, (start, end))
    ys = _moments(ds)
    scores = _abs_pearson(ys[0] @ moments[0].T, ys, moments).T  # (n_oracles, n_rows)
    best = int(np.argmax(scores.max(axis=1)))
    per_cycle = scores[best][cycle_rows]
    peak = int(np.argmax(per_cycle))
    return SvfResult(
        module_path=path,
        svf=float(per_cycle[peak]),
        peak_cycle=start + peak + 1,
        per_cycle_scores=per_cycle,
        oracle_label=oracles[best].label,
        xz_ratio=xz_ratio,
    ), ys, best


_FLOOR_PERCENTILE = 99.0
_FLOOR_SEED = 0xF100D


def _permutations(n_runs: int, shuffles: int) -> np.ndarray:
    """(shuffles, n_runs) run permutations of the floor, drawn in a fixed order."""
    rng = np.random.default_rng(_FLOOR_SEED)
    return np.stack([rng.permutation(n_runs) for _ in range(shuffles)])


def permutation_floor(words, moments, ys, perms) -> float:
    """Noise floor of one module: the ``_FLOOR_PERCENTILE`` percentile of
    its best |Pearson| under the shuffles ``perms`` (shuffles, n_runs) of
    its winning oracle.

    ``words`` are that oracle's ``_oracle_words`` and ``moments`` its
    ``_moments`` (one row); ``ys`` are the module's (any set of rows holding
    every distinct cycle gives the same floor). A shuffle keeps Σx, Σx² and
    the maximum, so a block of shuffles only needs its pair distances ``po``
    from the shuffled words, scored by ``_abs_pearson`` on Σxy =
    ``rows @ po``. Every block's product reads all the rows, so a block
    holds a quarter as many pair words as the rows, and at least
    ``_PAIR_BLOCK_WORDS``: its ``po`` takes a quarter of the rows' float64
    copy, within what scoring the module took. (On 480 runs and 100 rows,
    100 shuffles took 0.33–0.54 s in 2-shuffle blocks and 0.10–0.12 s in
    25-shuffle blocks on a 2-vCPU x86-64 host.) Each floor is a sum of
    exact integers, so the block size does not change it.
    """
    i_idx, j_idx = pair_order(perms.shape[1])
    maxima = np.empty(len(perms), dtype=np.float64)
    step = max(1, max(_PAIR_BLOCK_WORDS, ys[0].size // 4) // (len(i_idx) * words.shape[1]))
    for lo in range(0, len(perms), step):
        po = _pair_popcounts(words[perms[lo:lo + step].T], i_idx, j_idx).sum(
            axis=-1, dtype=np.float64)  # (n_pairs, block)
        maxima[lo:lo + step] = _abs_pearson(ys[0] @ po, ys, moments).max(axis=0)
    return float(np.percentile(maxima, _FLOOR_PERCENTILE))


@dataclass
class SvfReport:
    """Ranked per-module results (descending score)."""

    results: list[SvfResult] = field(default_factory=list)

    def rank_of(self, module_path) -> int:
        """0-based rank; raises KeyError when the module is absent."""
        want = tuple(module_path)
        for i, r in enumerate(self.results):
            if r.module_path == want:
                return i
        raise KeyError(f"module {'.'.join(want)} not in report")


def svf_all(runs: RunSet, oracles, window=None, noise_floor_shuffles: int = 1000,
            threads: int = 1) -> SvfReport:
    """Score every module of ``runs.hierarchy`` that owns signals; per
    module keep the worst oracle.

    Results are sorted by descending score (ties by module path) so the
    outcome does not depend on evaluation order or thread scheduling.
    """
    if noise_floor_shuffles < 0:
        raise ValueError(f"noise_floor_shuffles must be >= 0, got {noise_floor_shuffles}")
    if runs.n_runs < 2:
        raise ValueError(f"need at least 2 runs to form a pair, got {runs.n_runs}")
    oracles = list(oracles)
    if not oracles:
        raise ValueError("need at least one oracle")
    for o in oracles:
        if len(o) != runs.n_runs:
            raise ValueError(
                f"oracle '{o.label}' has {len(o)} values but run set has {runs.n_runs} runs")
    nodes = [(path, node) for path, node in runs.hierarchy.walk() if node.signals]
    start, end = _normalize_window(window, runs.n_cycles)
    i_idx, j_idx = pair_order(runs.n_runs)
    words = [_oracle_words(o) for o in oracles]
    moments = _moments(np.stack([_pair_popcounts(w, i_idx, j_idx).sum(axis=-1, dtype=np.int64)
                                 for w in words]))
    # one permutation draw per call, shared by every module's floor
    perms = _permutations(runs.n_runs, noise_floor_shuffles) if noise_floor_shuffles else None

    def score(module):  # the module's rows are freed once its floor is taken
        result, ys, best = _score(runs, *module, oracles, moments, start, end)
        if perms is not None:
            result.noise_floor = permutation_floor(
                words[best], tuple(m[best:best + 1] for m in moments), ys, perms)
        return result

    with ThreadPoolExecutor(max_workers=threads) if threads > 1 else nullcontext() as pool:
        results = list((pool.map if pool else map)(score, nodes))
    results.sort(key=lambda r: (-r.svf, r.module_path))
    return SvfReport(results=results)


# --- Welch t-tests -------------------------------------------------------------

@dataclass(frozen=True)
class GroupMoments:
    """One class's sample count, mean and unbiased (ddof=1) variance."""
    n: int
    mean: float
    var: float


def group_moments(samples) -> GroupMoments:
    """Moments of one class's samples: at least 2, all finite."""
    a = np.asarray(samples, dtype=np.float64)
    if a.size < 2:
        raise ValueError(f"each group needs >= 2 samples, got {a.size}")
    if not np.isfinite(a).all():
        raise ValueError("samples must be finite")
    return GroupMoments(a.size, float(a.mean()), float(a.var(ddof=1)))


def welch_t(a: GroupMoments, b: GroupMoments) -> float:
    """Welch's unequal-variance t statistic from two groups' moments."""
    delta = a.mean - b.mean
    denom = a.var / a.n + b.var / b.n
    if denom == 0.0:
        if delta == 0.0:
            return 0.0
        raise DegenerateInputError("both groups have zero variance and different means")
    return delta / math.sqrt(denom)


def pairwise_ttest_matrix(classes: dict) -> tuple[list[str], np.ndarray]:
    """|t| between every pair of trace classes (label -> 1-d samples);
    diagonal zero. Each class's moments are taken once; an error names the
    class, or both classes of a degenerate pair."""
    items = list(classes.items())
    if len(items) < 2:
        raise ValueError(f"need >= 2 classes, got {len(items)}")
    labels = [str(k) for k, _ in items]
    moments = []
    for label, (_, samples) in zip(labels, items):
        try:
            moments.append(group_moments(samples))
        except ValueError as exc:
            raise ValueError(f"class {label!r}: {exc}") from None
    n = len(moments)
    mat = np.zeros((n, n), dtype=np.float64)
    for i in range(n):
        for j in range(i + 1, n):
            try:
                t = abs(welch_t(moments[i], moments[j]))
            except DegenerateInputError as exc:
                raise DegenerateInputError(
                    f"classes {labels[i]!r} and {labels[j]!r}: {exc}") from None
            mat[i, j] = mat[j, i] = t
    return labels, mat


def write_tmatrix_csv(path, labels, mat) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["class"] + list(labels))
        for label, row in zip(labels, mat):
            w.writerow([label] + [f"{v:.6g}" for v in row])


def read_class_samples_csv(path) -> dict[str, np.ndarray]:
    """Read power samples grouped by class label (columns: class, sample).

    A sample that is missing, not a number or not finite is an error naming
    the file and line; a class with fewer than 2 samples is one naming the
    file and class, and fewer than 2 classes is one naming the file.
    """
    groups: dict[str, list[float]] = {}
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        if reader.fieldnames is None or not {"class", "sample"}.issubset(reader.fieldnames):
            raise ValueError(f"class csv {path}: header must contain class, sample")
        for row in reader:
            try:
                value = float(row["sample"])
            except (TypeError, ValueError):
                value = math.nan
            if not math.isfinite(value):
                raise ValueError(f"class csv {path}: bad sample {row['sample']!r} "
                                 f"at row {reader.line_num}")
            groups.setdefault(row["class"], []).append(value)
    if len(groups) < 2:
        raise ValueError(f"class csv {path}: {len(groups)} class(es) after the header, "
                         "a t-matrix needs >= 2")
    for label, values in groups.items():
        if len(values) < 2:
            raise ValueError(f"class csv {path}: class {label!r} has {len(values)} sample, "
                             "a t-test needs >= 2")
    return {k: np.array(v) for k, v in groups.items()}
