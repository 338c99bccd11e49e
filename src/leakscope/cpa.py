"""First-order correlation power analysis against the AES first round.

For every key-byte guess the hypothesis is the Hamming weight of a chosen
first-round intermediate (S-box output by default), and guesses rank by their
best absolute Pearson correlation with any trace sample column. A hypothesis
depends only on the target plaintext byte, so the traces are read once, in
cache-sized row blocks, into a ``ClassSums`` state: per-byte counts, (256, d)
class sums of the traces minus a fixed shift and the columns' sums of
squares. An attack only scores a state: every guess's covariance is one row
of a (256 guesses x 256 bytes) product with the class sums. Hypotheses are
centred exactly in integers (``n*H - H @ counts``), so the shift cancels,
mirrored guesses (``xor_key`` g and g ^ 0xFF) score bit-identically and ties
go to the lower guess. Traces-to-disclosure and the correlation evolution
carry one state from checkpoint to checkpoint, adding only the rows since
the last one; MTD is the earliest checkpoint from which the true byte stays
rank 1.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .aes import POINT_FUNCTIONS

_HW8 = np.array([bin(v).count("1") for v in range(256)], dtype=np.int64)
_BLOCK_WORDS = 1 << 16  # trace samples per row block of an attack's one pass


@lru_cache(maxsize=8)
def _hw_table(point: str) -> np.ndarray:
    """(guess, plaintext byte) -> Hamming weight of the intermediate, int64."""
    try:
        fn = POINT_FUNCTIONS[point]
    except KeyError:
        raise ValueError(
            f"unknown interesting point '{point}', expected one of {sorted(POINT_FUNCTIONS)}"
        ) from None
    return _HW8[[[fn(p, g) for p in range(256)] for g in range(256)]]


@dataclass
class AttackResult:
    target_byte: int
    point: str
    correlations: np.ndarray   # (256 guesses, d samples) signed rho
    best_guess: int
    best_sample: int           # 1-based cycle index of the winning correlation
    ranks: np.ndarray          # guesses ordered by max |rho|, ties by lower guess
    n_traces: int

    @property
    def guess_scores(self) -> np.ndarray:
        return np.abs(self.correlations).max(axis=1)

    def rank_of(self, key_byte: int) -> int:
        """1-based rank of a key byte guess (1 = top)."""
        return int(np.where(self.ranks == key_byte)[0][0]) + 1

    def to_json_obj(self) -> dict:
        scores = self.guess_scores
        return {
            "target_byte": self.target_byte,
            "point": self.point,
            "n_traces": self.n_traces,
            "best_guess": self.best_guess,
            "best_sample": self.best_sample,
            "max_abs_rho": float(scores[self.best_guess]),
            "ranks": [int(g) for g in self.ranks],
            "guess_scores": [float(s) for s in scores],
        }


def _checked(traces, plaintexts, target_byte: int):
    """(traces, plaintexts) as arrays, or the ValueError that names the fault."""
    traces = np.asarray(traces)
    if traces.dtype.kind not in "biuf":
        traces = traces.astype(np.float64)
    plaintexts = np.asarray(plaintexts, dtype=np.uint8)
    if traces.ndim != 2 or traces.shape[1] == 0:
        raise ValueError(f"traces must be (N, d) with d >= 1, got {traces.shape}")
    if plaintexts.shape[0] != traces.shape[0]:
        raise ValueError(f"{traces.shape[0]} traces but {plaintexts.shape[0]} plaintexts")
    if not 0 <= target_byte < 16:
        raise ValueError(f"target_byte {target_byte} out of range")
    return traces, plaintexts


class ClassSums:
    """Everything an attack reads of the traces seen so far: their count
    ``n``, the per-byte ``counts`` of the target plaintext byte, the (256, d)
    class ``sums`` of ``rows - shift`` and the column sums of squares ``sq``
    of ``rows - shift``, where ``shift`` is the float64 column mean of the
    first row block and stays fixed after it."""

    def __init__(self, d: int, target_byte: int):
        self.target_byte = target_byte
        self.n = 0
        self.counts = np.zeros(256, dtype=np.int64)
        self.shift = None
        self.sums = np.zeros((256, d))
        self.sq = np.zeros(d)

    def update(self, traces, plaintexts) -> None:
        """Add (rows, d) traces and their (rows, 16) plaintexts, one row block
        at a time, each cast to float64 as the shift is taken off; a NaN or
        infinite sample is an error naming its row among all rows added."""
        d = self.sq.size
        pbytes = plaintexts[:, self.target_byte].astype(np.intp)
        self.counts += np.bincount(pbytes, minlength=256)
        flat = self.sums.reshape(-1)
        cols = np.arange(d)
        step = max(1, _BLOCK_WORDS // d)
        for lo in range(0, traces.shape[0], step):
            block = traces[lo:lo + step]
            if self.shift is None:
                self.shift = block.mean(axis=0, dtype=np.float64)
            with np.errstate(invalid="ignore"):
                tc = np.subtract(block, self.shift, dtype=np.float64)
                sq = np.einsum("ij,ij->j", tc, tc)
            # a finite overflow (an infinite square of finite samples) is no error
            if not np.isfinite(sq).all():
                bad = np.argwhere(~np.isfinite(block))
                if len(bad):
                    row, col = bad[0]
                    raise ValueError(f"trace row {self.n + lo + row}, cycle {col + 1}: "
                                     f"sample is {block[row, col]}")
            self.sq += sq
            cells = (pbytes[lo:lo + step, None] * d + cols).ravel()
            flat += np.bincount(cells, weights=tc.ravel(), minlength=256 * d)
        self.n += traces.shape[0]


def class_sums(traces, plaintexts, target_byte: int) -> ClassSums:
    """The ClassSums of a whole trace set of at least 2 traces."""
    traces, plaintexts = _checked(traces, plaintexts, target_byte)
    if traces.shape[0] < 2:
        raise ValueError(f"need at least 2 traces, got {traces.shape[0]}")
    state = ClassSums(traces.shape[1], target_byte)
    state.update(traces, plaintexts)
    return state


def cpa_attack(state: ClassSums, point: str = "sbox_out") -> AttackResult:
    """Correlate keyed hypotheses against every sample column of a state.

    The centred hypotheses ``hc`` sum to exactly 0 over ``counts``, so
    ``hc @ state.sums`` is the covariance numerator whatever the shift.
    Degenerate columns (constant traces, or a norm that overflowed) and
    degenerate hypothesis rows (constant plaintext byte) score 0 rather than
    raising.
    """
    table = _hw_table(point)
    n, counts = state.n, state.counts
    hc = (n * table - (table @ counts)[:, None]).astype(np.float64)   # n * centred, exact
    hnorm = np.sqrt((hc * hc) @ counts)                          # (256,)
    col = state.sums.sum(axis=0)
    with np.errstate(invalid="ignore"):    # inf - inf where squares overflowed
        tnorm = np.sqrt(np.maximum(state.sq - col * col / n, 0.0))   # (d,)
        corr = hc @ state.sums
        denom = hnorm[:, None] * tnorm[None, :]
        np.divide(corr, denom, out=corr, where=denom > 0)
    corr[:, (tnorm == 0) | ~np.isfinite(tnorm)] = 0.0
    corr[hnorm == 0, :] = 0.0

    scores = np.abs(corr).max(axis=1)
    order = np.lexsort((np.arange(256), -scores))
    best_guess = int(order[0])
    best_sample = int(np.abs(corr[best_guess]).argmax()) + 1
    return AttackResult(target_byte=state.target_byte, point=point, correlations=corr,
                        best_guess=best_guess, best_sample=best_sample,
                        ranks=order, n_traces=n)


def _checkpoints(n: int, step: int) -> list[int]:
    if step < 1:
        raise ValueError(f"checkpoint_step must be >= 1, got {step}")
    pts = list(range(step, n + 1, step))
    if not pts or pts[-1] != n:
        pts.append(n)
    return [p for p in pts if p >= 2]


@dataclass
class MtdCurve:
    checkpoints: list[tuple[int, int]]   # (trace_count, rank of true byte)
    mtd: int | None                      # None = not disclosed within budget

    def to_json_obj(self) -> dict:
        return {
            "checkpoints": [{"traces": n, "rank": r} for n, r in self.checkpoints],
            "mtd": self.mtd if self.mtd is not None else "not disclosed",
        }


def _prefix_attacks(traces, plaintexts, target_byte, checkpoint_step, point):
    """Yield (checkpoint, attack on the first checkpoint traces) per checkpoint;
    one ClassSums is carried from each checkpoint to the next, so every row
    is read once."""
    traces, plaintexts = _checked(traces, plaintexts, target_byte)
    state = ClassSums(traces.shape[1], target_byte)
    for cp in _checkpoints(traces.shape[0], checkpoint_step):
        state.update(traces[state.n:cp], plaintexts[state.n:cp])
        yield cp, cpa_attack(state, point=point)


def mtd(traces, plaintexts, target_byte: int, true_key_byte: int,
        checkpoint_step: int, point: str = "sbox_out") -> MtdCurve:
    """Stabilized traces-to-disclosure: rank 1 at a checkpoint and at every
    later checkpoint within the budget; scores the attack at each checkpoint."""
    if not 0 <= true_key_byte <= 0xFF:
        raise ValueError(f"true_key_byte {true_key_byte} out of range")
    points = [(cp, res.rank_of(true_key_byte)) for cp, res in
              _prefix_attacks(traces, plaintexts, target_byte, checkpoint_step, point)]
    disclosed = None
    for cp, rank in reversed(points):
        if rank != 1:
            break
        disclosed = cp
    return MtdCurve(checkpoints=points, mtd=disclosed)


def correlation_evolution(traces, plaintexts, target_byte: int,
                          checkpoint_step: int | None = None,
                          point: str = "sbox_out"):
    """Per-guess max |rho| at growing trace counts.

    Returns (checkpoints, series) where series[i, g] is guess g's best score
    using the first checkpoints[i] traces. Without a step the one checkpoint
    is the full trace count.
    """
    if checkpoint_step is None:
        checkpoint_step = len(traces)
    rows = [(cp, res.guess_scores) for cp, res in
            _prefix_attacks(traces, plaintexts, target_byte, checkpoint_step, point)]
    return [cp for cp, _ in rows], np.array([s for _, s in rows]).reshape(-1, 256)


def write_evolution_csv(path, checkpoints, series) -> None:
    """CSV columns: trace_count, guess, max_abs_rho."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["trace_count", "guess", "max_abs_rho"])
        for cp, row in zip(checkpoints, series):
            for g in range(256):
                w.writerow([cp, g, f"{row[g]:.8g}"])


def write_attack_json(path, result: AttackResult, mtd_curve: MtdCurve | None = None) -> None:
    doc = result.to_json_obj()
    if mtd_curve is not None:
        doc["mtd"] = mtd_curve.to_json_obj()
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
