"""Leakage metrics: Hamming models, pairwise-distance correlation, t-tests.

The per-module leakage score correlates two pattern vectors: pairwise Hamming
distances of an oracle trace (ground-truth values, one per run) against
pairwise distances of the module's concatenated signal word at each cycle.
The per-cycle score is the absolute Pearson coefficient and the module score
is the maximum over cycles.

Distances are integers, so the per-cycle Pearson is evaluated from exact
integer moments; the result is bit-for-bit reproducible and independent of
summation order. A permutation test (shuffling the oracle) provides a
self-calibrating noise floor for reports.
"""

from __future__ import annotations

import csv
import math
import re
from concurrent.futures import ThreadPoolExecutor
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


def pairwise_distances(items) -> np.ndarray:
    """Hamming distance for every unordered pair, canonical order."""
    values = list(items)
    n = len(values)
    if n < 2:
        raise ValueError(f"need at least 2 items, got {n}")
    return np.array([(values[i] ^ values[j]).bit_count()
                     for j in range(n) for i in range(j + 1, n)], dtype=np.int64)


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


def write_oracle_csv(path, oracles) -> None:
    """CSV with header run_index, point_label, value_hex (one row per run per label)."""
    if isinstance(oracles, OracleTrace):
        oracles = [oracles]
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
    plain hex digits is an error naming the file and line.
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


_PAIR_BLOCK_WORDS = 1 << 18  # per temporary while XORing a block of pairs


def _module_distance_matrix(runs: RunSet, node: ModuleNode, window):
    """Per-cycle pairwise Hamming distances of the module word.

    The word's distance is the sum of its 64-bit word columns' distances. A
    column with one value in every run and cycle of the window adds 0 to all
    of them, so only the other columns are packed into one (n, d_win, k)
    array. (Constant here means no run changes the column between the
    window's first and last edge and all runs agree on its value there.)
    Returns (ds (d_win, n_pairs) int64, xz_ratio).
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

    varying = cols[~const]
    packed = np.empty((runs.n_runs, d_win, len(varying)), dtype=np.uint64)
    for m, out in zip(runs.runs, packed):
        rows = m.rows(varying, start, end).T
        out[...] = m.values[rows]
        xz_bits += int(np.bitwise_count(m.xmask[rows] | m.zmask[rows]).sum())
    return _pair_distances(packed), xz_bits / (width * d_win * runs.n_runs)


def _pair_distances(packed: np.ndarray) -> np.ndarray:
    """(d, n_pairs) summed popcount of x ^ y over the last axis of (n, d, k)."""
    n, d, k = packed.shape
    i_idx, j_idx = pair_order(n)
    ds = np.zeros((d, len(i_idx)), dtype=np.int64)
    if k:
        step = max(1, _PAIR_BLOCK_WORDS // (d * k))
        for lo in range(0, len(i_idx), step):
            hi = lo + step
            x = np.bitwise_count(packed[i_idx[lo:hi]] ^ packed[j_idx[lo:hi]])
            ds[:, lo:hi] = x.sum(axis=2, dtype=np.int64).T
    return ds


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


def _oracle_moments(oracles):
    """Pair distances of each oracle, with their sums and sums of squares."""
    d_o = np.stack([pairwise_distances(o.values) for o in oracles])
    return d_o, d_o.sum(axis=1).astype(object), (d_o * d_o).sum(axis=1).astype(object)


def _score(runs, node, oracles, moments, start, end):
    """Score one module against the oracle it matches best (the first on ties).

    Returns (result, ds, that oracle). The Pearson moments are exact Python
    ints, and each float step (int to float, sqrt, divide, clip at 1) is the
    IEEE operation a per-cycle scalar evaluation would make, so the scores
    are bit-exact.
    """
    ds, xz_ratio = _module_distance_matrix(runs, node, (start, end))
    d_o, sx, sxx = moments
    n = ds.shape[1]
    sy = ds.sum(axis=1).astype(object)
    b = n * (ds * ds).sum(axis=1).astype(object) - sy * sy
    num = n * (ds @ d_o.T).astype(object) - sy[:, None] * sx[None, :]
    ab = (b[:, None] * (n * sxx - sx * sx)[None, :]).astype(np.float64)
    scores = np.zeros(ab.shape, dtype=np.float64)
    np.divide(np.abs(num).astype(np.float64), np.sqrt(ab), out=scores, where=ab > 0)
    scores = np.minimum(scores, 1.0).T  # (n_oracles, d_win)
    best = int(np.argmax(scores.max(axis=1)))
    peak = int(np.argmax(scores[best]))
    return SvfResult(
        module_path=_path_of(runs.hierarchy, node),
        svf=float(scores[best, peak]),
        peak_cycle=start + peak + 1,
        per_cycle_scores=scores[best].copy(),
        oracle_label=oracles[best].label,
        xz_ratio=xz_ratio,
    ), ds, oracles[best]


def svf_module(runs: RunSet, node: ModuleNode, oracle: OracleTrace,
               window=None) -> SvfResult:
    """Leakage score of one module against one oracle.

    ``window`` is an optional 1-based inclusive (start_cycle, end_cycle) pair
    restricting the analysis; cycle numbering in the result stays absolute.
    """
    if len(oracle) != runs.n_runs:
        raise ValueError(f"oracle has {len(oracle)} values but run set has {runs.n_runs} runs")
    start, end = _normalize_window(window, runs.n_cycles)
    return _score(runs, node, [oracle], _oracle_moments([oracle]), start, end)[0]


def _path_of(root: ModuleNode, node: ModuleNode) -> tuple[str, ...]:
    for path, cand in root.walk():
        if cand is node:
            return path
    return (node.name,)


def permutation_floor(runs: RunSet, node: ModuleNode, oracle: OracleTrace,
                      window=None, shuffles: int = 1000, percentile: float = 99.0,
                      seed: int = 0xF100D, ds=None) -> float:
    """Noise floor: high percentile of the module score under oracle shuffles."""
    start, end = _normalize_window(window, runs.n_cycles)
    if ds is None:
        ds, _ = _module_distance_matrix(runs, node, (start, end))
    i_idx, j_idx = pair_order(runs.n_runs)
    n_runs = runs.n_runs

    ds = ds.astype(np.float64)
    ds -= ds.mean(axis=1, keepdims=True)
    norms = np.sqrt((ds * ds).sum(axis=1))
    good = norms > 0
    ds[good] /= norms[good, None]
    ds[~good] = 0.0

    dist = np.zeros((n_runs, n_runs), dtype=np.float64)
    d_o = pairwise_distances(oracle.values)
    dist[i_idx, j_idx] = d_o
    dist[j_idx, i_idx] = d_o

    rng = np.random.default_rng(seed)
    perms = np.stack([rng.permutation(n_runs) for _ in range(shuffles)])
    po = dist[perms[:, i_idx], perms[:, j_idx]]  # (shuffles, n_pairs)
    po -= po.mean(axis=1, keepdims=True)
    pnorms = np.sqrt((po * po).sum(axis=1))
    pgood = pnorms > 0
    po[pgood] /= pnorms[pgood, None]
    po[~pgood] = 0.0

    maxima = np.abs(po @ ds.T).max(axis=1)
    return float(np.percentile(maxima, percentile))


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


def svf_all(runs: RunSet, hierarchy: ModuleNode, oracles, window=None,
            noise_floor_shuffles: int = 1000, floor_seed: int = 0xF100D,
            threads: int = 1) -> SvfReport:
    """Score every module owning signals; per module keep the worst oracle.

    Results are sorted by descending score (ties by module path) so the
    outcome does not depend on evaluation order or thread scheduling.
    """
    if noise_floor_shuffles < 0:
        raise ValueError(f"noise_floor_shuffles must be >= 0, got {noise_floor_shuffles}")
    oracles = [oracles] if isinstance(oracles, OracleTrace) else list(oracles)
    if not oracles:
        raise ValueError("need at least one oracle")
    for o in oracles:
        if len(o) != runs.n_runs:
            raise ValueError(
                f"oracle '{o.label}' has {len(o)} values but run set has {runs.n_runs} runs")
    nodes = [node for _, node in hierarchy.walk() if node.signals]
    start, end = _normalize_window(window, runs.n_cycles)
    moments = _oracle_moments(oracles)

    def score(node):
        best, ds, oracle = _score(runs, node, oracles, moments, start, end)
        if noise_floor_shuffles:
            best.noise_floor = permutation_floor(
                runs, node, oracle, window=window, shuffles=noise_floor_shuffles,
                seed=floor_seed, ds=ds,
            )
        return best

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(score, nodes))
    else:
        results = [score(n) for n in nodes]

    results.sort(key=lambda r: (-r.svf, r.module_path))
    return SvfReport(results=results)


# --- Welch t-tests -------------------------------------------------------------

def welch_t(group_a, group_b) -> float:
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


def pairwise_ttest_matrix(classes) -> tuple[list[str], np.ndarray]:
    """|t| between every pair of trace classes; diagonal zero.

    ``classes`` maps label -> 1-d samples (dict) or is a sequence of
    (label, samples) pairs.
    """
    if isinstance(classes, dict):
        items = list(classes.items())
    else:
        items = list(classes)
    if len(items) < 2:
        raise ValueError(f"need >= 2 classes, got {len(items)}")
    labels = [str(k) for k, _ in items]
    groups = [np.asarray(v, dtype=np.float64) for _, v in items]
    n = len(groups)
    mat = np.zeros((n, n), dtype=np.float64)
    for i in range(n):
        for j in range(i + 1, n):
            t = abs(welch_t(groups[i], groups[j]))
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
    the file and line.
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
    return {k: np.array(v) for k, v in groups.items()}
