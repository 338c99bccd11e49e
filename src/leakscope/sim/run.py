"""Batch drivers: AES trace acquisition and the cache-set sweep experiment.

All randomness (plaintexts, Gaussian noise, key material) flows from the
config seed through labeled substreams, so any artifact is reproducible from
its manifest. Most of it is also independent of batch sizes (``max_lanes``)
and evaluation order, with two exceptions:

- the cache-set sweep draws its noise per chunk (substream keyed by the
  chunk's first lane), so with ``noise_sigma > 0`` its samples change with
  ``max_lanes``;
- ``Machine`` draws its replacement counters with shape (sets, n_lanes), so
  which way a miss evicts, and with it the cycle logs and VCD bytes, can
  change with ``max_lanes``.

Run ``r``'s trace noise is its own substream, ``sub_rng(seed, "noise", r)``.
A chunk derives the seeds of all its runs' substreams in one vectorised pass
(``_noise_rows``), bit for bit as ``sub_rng`` would, rather than building a
generator per run.

Run ``r`` takes key epoch ``r // rekey_interval_runs`` (epochs are
consecutive LFSR draws) on a fresh cold lane, so no state carries over a
key change and no flush runs; ``tests/reference.py`` keeps the flush of
persistent state as the oracle that re-keying is one XOR per lane.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from .. import __version__
from ..feistel import KeyConstant, lfsr_from_seed, next_round_keys
from .config import SimConfig
from .cyclelog import CycleLog, extract_cycle_log
from .machine import Machine, SimError
from .program import (
    CT_ADDR,
    PT_ADDR,
    SINGLE_ACCESS_SAMPLE_CYCLE,
    SWEEP_ADDR,
    aes_workload_memory,
    build_aes_program,
    build_single_access_program,
)


def _tag(seed: int, *labels) -> bytes:
    return hashlib.sha256(
        str(seed).encode() + b"|" + b"|".join(str(l).encode() for l in labels)
    ).digest()


def sub_rng(seed: int, *labels) -> np.random.Generator:
    """Deterministic labeled substream of the master seed."""
    tag = _tag(seed, *labels)
    entropy = tuple(int.from_bytes(tag[i:i + 8], "big") for i in range(0, 32, 8))
    return np.random.default_rng(np.random.SeedSequence(entropy))


# numpy's SeedSequence hash constants (bit_generator.pyx) and PCG64's
# 128-bit LCG multiplier
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M32, _M128 = (1 << 32) - 1, (1 << 128) - 1


def _seed_states(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(row).generate_state(4, np.uint64)`` of every row of an
    (n, w) uint32 entropy array, w >= 4, in one pass over the rows.

    The hash constants evolve the same way for every row, so they are
    Python ints and only the data words are arrays.
    """
    entropy = np.asarray(entropy, dtype=np.uint32)
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * _MULT_A & _M32
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        r = _MIX_L * x - _MIX_R * y
        return r ^ (r >> np.uint32(16))

    pool = [hashmix(entropy[:, i]) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(4, entropy.shape[1]):
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(entropy[:, src]))
    # eight uint32 words cycling the pool, paired little-endian into uint64
    const = _INIT_B
    words = []
    for i in range(8):
        value = pool[i % 4] ^ np.uint32(const)
        const = const * _MULT_B & _M32
        value = value * np.uint32(const)
        words.append((value ^ (value >> np.uint32(16))).astype(np.uint64))
    return np.stack([words[i] | (words[i + 1] << np.uint64(32)) for i in range(0, 8, 2)],
                    axis=1)


def epoch_keys(cfg: SimConfig, n_epochs: int) -> list[tuple[int, int, int, int]]:
    """Round keys of epochs 0..n_epochs-1, drawn sequentially from the LFSR."""
    lfsr = lfsr_from_seed(cfg.seed)
    out = []
    for _ in range(n_epochs):
        keys, lfsr = next_round_keys(lfsr)
        out.append(keys.keys)
    return out


def _epoch_constants(cfg: SimConfig, n_epochs: int) -> KeyConstant:
    """``K(k)`` of epochs 0..n_epochs-1, one element per epoch; a batch
    computes it once and indexes it by each lane's epoch."""
    return KeyConstant.of(np.array(epoch_keys(cfg, n_epochs), dtype=np.uint32).T)


def _noise_rows(cfg: SimConfig, run_indices, out: np.ndarray) -> None:
    """Fill the rows it is handed: row ``i`` of the (len(run_indices), d)
    array ``out`` becomes ``sub_rng(cfg.seed, "noise", r).normal(0, sigma, d)``
    for ``r = run_indices[i]``, bit for bit.

    The substream seeds are derived for all runs at once: ``_seed_states``
    mixes every run's tag words, and each run's PCG64 state is set on one
    reused bit generator, as ``PCG64(SeedSequence)`` would seed it. A tag
    with a 64-bit word below 2**32 gives ``SeedSequence`` fewer than eight
    entropy words; such a run takes ``sub_rng`` itself.
    """
    run_indices = [int(r) for r in run_indices]
    d = out.shape[1]
    if not run_indices:
        return
    tags = b"".join(_tag(cfg.seed, "noise", r) for r in run_indices)
    # each big-endian 64-bit word is two uint32 entropy words, low word first
    words = np.frombuffer(tags, dtype=">u4").reshape(-1, 4, 2)[:, :, ::-1]
    short = (words[:, :, 1] == 0).any(axis=1).tolist()
    states = _seed_states(words.reshape(-1, 8)).tolist()
    bitgen = np.random.PCG64()
    gen = np.random.Generator(bitgen)
    for i, (r, (s_hi, s_lo, q_hi, q_lo)) in enumerate(zip(run_indices, states)):
        if short[i]:
            out[i] = sub_rng(cfg.seed, "noise", r).normal(0.0, cfg.noise_sigma, d)
            continue
        inc = ((q_hi << 64 | q_lo) << 1 | 1) & _M128
        state = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _M128
        bitgen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                        "has_uint32": 0, "uinteger": 0}
        out[i] = gen.normal(0.0, cfg.noise_sigma, d)
    want = sub_rng(cfg.seed, "noise", run_indices[0]).normal(0.0, cfg.noise_sigma, d)
    if not np.array_equal(out[0], want):
        raise SimError("bulk noise seeding no longer matches numpy's SeedSequence/PCG64; "
                       f"run {run_indices[0]} differs from its sub_rng stream")


def random_plaintexts(cfg: SimConfig, n: int) -> np.ndarray:
    """The batch's deterministic plaintext stream as an (n, 16) uint8 array."""
    return sub_rng(cfg.seed, "plaintexts").integers(0, 256, size=(n, 16), dtype=np.uint8)


@dataclass
class BatchResult:
    traces: np.ndarray               # (N, d) float64, or int64 when sigma == 0
    n_cycles: int
    ciphertexts: np.ndarray | None   # (N, 16) uint8 when the program ran 10 rounds
    logs: list[CycleLog] | None
    rekey_runs: list[int]            # run indices at which a new epoch begins


def run_aes_batch(cfg: SimConfig, plaintexts, key: bytes, *,
                  collect_logs: bool = False, run_offset: int = 0,
                  max_lanes: int = 8192) -> BatchResult:
    """Simulate one AES run per plaintext on independent cold-start lanes."""
    plaintexts = np.asarray(plaintexts, dtype=np.uint8)
    if plaintexts.ndim != 2 or plaintexts.shape[1] != 16:
        raise ValueError(f"plaintexts must be (N, 16) bytes, got {plaintexts.shape}")
    n_total = plaintexts.shape[0]
    program = build_aes_program(cfg.rounds)
    d = len(program) + 3
    init_mem = aes_workload_memory(key)

    noisy = cfg.noise_sigma > 0
    traces = np.empty((n_total, d), dtype=np.float64 if noisy else np.int64)
    cts = np.empty((n_total, 16), dtype=np.uint8) if cfg.rounds == 10 else None
    logs: list[CycleLog] | None = [] if collect_logs else None
    # run r is in key epoch r // interval; "never" re-keying keeps every run in epoch 0
    interval = cfg.rekey_interval_runs
    if cfg.param_mode and n_total:
        last_run = run_offset + n_total - 1
        table = _epoch_constants(cfg, last_run // interval + 1 if interval else 1)

    for base in range(0, n_total, max_lanes):
        chunk = plaintexts[base:base + max_lanes]
        lanes = chunk.shape[0]
        run_idx = np.arange(base, base + lanes) + run_offset
        kc = None
        if cfg.param_mode:
            kc = table[run_idx // interval if interval else np.zeros_like(run_idx)]
        machine = Machine(cfg, lanes, kc)
        for addr, blob in init_mem.items():
            machine.poke_bytes(addr, blob)
        machine.poke_bytes(PT_ADDR, chunk)
        toggles, blog = machine.run_program(program, collect_log=collect_logs)
        # noise first, toggles added in place: the same IEEE sum as
        # toggles + noise, without a chunk-sized temporary
        rows = traces[base:base + lanes]
        if noisy:
            _noise_rows(cfg, run_idx, rows)
            rows += toggles
        else:
            rows[...] = toggles
        if cts is not None:
            cts[base:base + lanes] = machine.peek_bytes(CT_ADDR, 16)
        if collect_logs:
            logs.extend(extract_cycle_log(blog, lane) for lane in range(lanes))
        # free this chunk's machine before the next one is built
        del machine, toggles, blog

    rekeys = []
    if cfg.param_mode and cfg.rekey_interval_runs is not None:
        rekeys = list(range(cfg.rekey_interval_runs, n_total, cfg.rekey_interval_runs))
    return BatchResult(traces=traces, n_cycles=d, ciphertexts=cts, logs=logs,
                       rekey_runs=rekeys)


def cache_set_experiment(cfg: SimConfig, reps: int, rekey_every: int = 1,
                         max_lanes: int = 8192):
    """Power samples of single cache-set accesses, grouped by set index.

    Every sample is one dword load issued on an idle cold lane: the sampled
    memory-stage cycle then carries the fill, line-buffer, hit-buffer and
    pipeline-latch activity of exactly that set, with no carry-over from a
    previous access. One rep covers all sets under one key epoch; in param
    mode the epoch advances every ``rekey_every`` reps, so the same
    architectural set lands on fresh cache locations and freshly-mixed data
    over the course of the experiment.
    """
    if rekey_every < 1:
        raise ValueError(f"rekey_every must be >= 1, got {rekey_every}")
    g = cfg.cache
    program = build_single_access_program()
    d = len(program) + 3
    total = reps * g.sets
    mem_rng = sub_rng(cfg.seed, "sweep-memory")
    # set s's line sits at SWEEP_ADDR + 64*s, so the region is one contiguous poke
    sweep_image = b"".join(mem_rng.integers(0, 256, size=64, dtype=np.uint8).tobytes()
                           for _ in range(g.sets))

    samples = np.empty(total, dtype=np.float64)
    if cfg.param_mode and total:
        table = _epoch_constants(cfg, (reps - 1) // rekey_every + 1)
    for base in range(0, total, max_lanes):
        lanes = min(max_lanes, total - base)
        lane_idx = np.arange(base, base + lanes)
        set_of = lane_idx % g.sets
        rep_of = lane_idx // g.sets
        kc = table[rep_of // rekey_every] if cfg.param_mode else None
        # the last chunk's machine lives until this rebinding: freeing it first
        # measured slower on a 2-vCPU host (ttest flow medians 0.778/0.610 ->
        # 0.963/0.773 s, items_per_s about -25 %) though peak RSS fell 108 -> 75 MB
        machine = Machine(cfg, lanes, kc)
        machine.poke_bytes(SWEEP_ADDR, sweep_image)
        machine.preset_register(1, (np.uint64(SWEEP_ADDR)
                                    + set_of.astype(np.uint64) * np.uint64(g.line_bytes)))
        toggles, _ = machine.run_program(program)
        col = toggles[:, SINGLE_ACCESS_SAMPLE_CYCLE - 1].astype(np.float64)
        if cfg.noise_sigma > 0:
            col = col + sub_rng(cfg.seed, "sweep-noise", base).normal(
                0.0, cfg.noise_sigma, lanes
            )
        samples[base:base + lanes] = col

    # lane i samples set i % sets, so set s's samples are column s, rep by rep
    by_set = np.ascontiguousarray(samples.reshape(reps, g.sets).T)
    return {f"set{s:02d}": by_set[s] for s in range(g.sets)}


# --- trace and manifest files ----------------------------------------------------

def save_traces_npz(path, traces, plaintexts, key: bytes | None = None,
                    meta: dict | None = None) -> None:
    """Write traces (as float32), plaintexts, key and meta to an ``.npz``.

    The archive is not compressed: noisy float samples deflate by only about
    9 %, and compressing 20 000 one-round param traces takes about 30 times
    as long as writing them plain. ``load_traces_npz`` reads compressed
    archives as well.
    """
    arrays = {
        "samples": np.asarray(traces, dtype=np.float32),
        "plaintexts": np.asarray(plaintexts, dtype=np.uint8),
    }
    if key is not None:
        arrays["key"] = np.frombuffer(bytes(key), dtype=np.uint8)
    arrays["meta"] = np.frombuffer(
        json.dumps(meta or {}, sort_keys=True).encode(), dtype=np.uint8
    )
    with open(path, "wb") as f:
        np.savez(f, **arrays)


def load_traces_npz(path):
    """(traces, plaintexts, key) of a trace archive: its 2-d ``samples`` as
    float64, its (N, 16) uint8 ``plaintexts`` and its 16-byte ``key`` (None
    when it has none). The ``meta`` member is not read."""
    try:
        archive = np.load(path)
    except (ValueError, EOFError):  # pickled or text data; an empty file
        archive = None
    if not isinstance(archive, np.lib.npyio.NpzFile):
        raise ValueError(f"{path}: not an .npz trace archive")

    def member(z, name):
        try:
            return z[name]
        except ValueError:  # an object array: loading it would unpickle
            raise ValueError(f"{path}: '{name}' array must be numeric, got an object "
                             "array") from None

    with archive as z:
        for name in ("samples", "plaintexts"):
            if name not in z:
                raise ValueError(f"{path}: no '{name}' array in the trace archive")
        samples, plaintexts = member(z, "samples"), member(z, "plaintexts")
        key = member(z, "key") if "key" in z else None

    def bad(name, arr, want):
        return ValueError(f"{path}: '{name}' array must be {want}, got {arr.shape} {arr.dtype}")

    if samples.ndim != 2 or samples.dtype.kind not in "biuf":
        raise bad("samples", samples, "(N, d) numbers")
    if plaintexts.dtype != np.uint8 or plaintexts.ndim != 2 or plaintexts.shape[1] != 16:
        raise bad("plaintexts", plaintexts, "(N, 16) uint8")
    if key is not None and (key.dtype != np.uint8 or key.shape != (16,)):
        raise bad("key", key, "16 uint8 bytes")
    return samples.astype(np.float64), plaintexts, None if key is None else key.tobytes()


def read_trace_csv(path) -> np.ndarray:
    """Read a power trace CSV into an (n_runs, n_cycles) array.

    Run indices count from 0 and cycles from 1, and every (run, cycle) cell
    must appear exactly once; a missing, repeated or out-of-range cell, or a
    sample that is not finite, is an error that names the file and a line.
    """
    cells: dict[tuple[int, int], tuple[float, int]] = {}
    lineno = 1
    with open(path) as f:
        header = f.readline().strip().split(",")
        if header != ["run_index", "cycle", "sample"]:
            raise ValueError(f"{path}: expected header run_index,cycle,sample")
        for lineno, line in enumerate(f, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            try:
                r, c, v = int(parts[0]), int(parts[1]), float(parts[2])
            except (IndexError, ValueError):
                raise ValueError(f"{path}: malformed trace row at line {lineno}") from None
            if not math.isfinite(v):
                raise ValueError(f"{path}: line {lineno}: trace row {r}, cycle {c}: "
                                 f"sample is {v} ({parts[2].strip()!r} is not finite)")
            if r < 0 or c < 1:
                raise ValueError(f"{path}: line {lineno}: run_index must be >= 0 and "
                                 f"cycle >= 1, got run_index {r}, cycle {c}")
            if (r, c) in cells:
                raise ValueError(f"{path}: line {lineno}: duplicate row for run_index {r}, "
                                 f"cycle {c} (first at line {cells[r, c][1]})")
            cells[r, c] = (v, lineno)
    if not cells:
        raise ValueError(f"{path}: no trace rows after the header (line 1)")
    n = max(r for r, _ in cells) + 1
    d = max(c for _, c in cells)
    if len(cells) != n * d:
        r, c = next((r, c) for r in range(n) for c in range(1, d + 1) if (r, c) not in cells)
        raise ValueError(f"{path}: no row for run_index {r}, cycle {c} "
                         f"(the rows up to line {lineno} span {n} runs x {d} cycles)")
    out = np.empty((n, d), dtype=np.float64)
    for (r, c), (v, _) in cells.items():
        out[r, c - 1] = v
    return out


def write_manifest(path, cfg: SimConfig, key_hex: str, plaintext_path: str,
                   artifacts: dict, rekey_runs) -> None:
    doc = {
        "tool": "leakscope",
        "version": __version__,
        "seed": cfg.seed,
        "config": cfg.to_dict(),
        "key_hex": key_hex,
        "plaintexts": str(plaintext_path),
        "artifacts": {k: str(v) for k, v in artifacts.items()},
        "rekey_runs": list(rekey_runs),
    }
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")

