"""Batch drivers: AES trace acquisition and the cache-set sweep experiment.

All randomness (plaintexts, Gaussian noise, key material) flows from the
config seed through labeled substreams, so any artifact is reproducible from
its manifest. Most of it is also independent of batch sizes (``max_lanes``)
and evaluation order, with two exceptions:

- the cache-set sweep draws its noise per ``max_lanes`` chunk of its
  ``reps * sets`` samples (substream keyed by the chunk's first sample), so
  with ``noise_sigma > 0`` its samples change with ``max_lanes``. Only the
  noise does: each sample before noise is simulated once per (key epoch,
  set), whatever the chunking;
- ``Machine`` draws its replacement counters with shape (sets, n_lanes), so
  which way a miss evicts, and with it the cycle logs and VCD bytes, can
  change with ``max_lanes``. A cold lane's single load toggles the same bits
  whichever way it fills, so the sweep's samples do not.

Run ``r``'s trace noise is its own substream, ``sub_rng(seed, "noise", r)``.
Each block of up to ``_ROW_BLOCK`` runs derives the seeds of all its runs'
substreams in one vectorised pass (``_noise_rows``), bit for bit as
``sub_rng`` would, rather than building a generator per run.

Run ``r`` takes key epoch ``r // rekey_interval_runs`` (epochs are
consecutive LFSR draws) on a fresh cold lane, so no state carries over a
key change and no flush runs; ``tests/reference.py`` keeps the flush of
persistent state as the oracle that re-keying is one XOR per lane.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import zipfile
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


def _noise_tags(seed: int, run_indices) -> bytes:
    """``_tag(seed, "noise", r)`` of every run ``r``, joined: the
    ``seed|noise|`` prefix is hashed once and its hasher copied per run."""
    prefix = hashlib.sha256(f"{seed}|noise|".encode())
    tags = []
    for r in run_indices:
        h = prefix.copy()
        h.update(str(r).encode())
        tags.append(h.digest())
    return b"".join(tags)


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
    tags = _noise_tags(cfg.seed, run_indices)
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


_ROW_BLOCK = 1024  # trace rows drawn, summed and written at a time


@dataclass
class BatchResult:
    # (N, d) float64, or int64 when sigma == 0; None when the rows went to an archive
    traces: np.ndarray | None
    n_cycles: int
    ciphertexts: np.ndarray | None   # (N, 16) uint8 when the program ran 10 rounds
    logs: list[CycleLog] | None
    rekey_runs: list[int]            # run indices at which a new epoch begins


def run_aes_batch(cfg: SimConfig, plaintexts, key: bytes, *,
                  collect_logs: bool = False, run_offset: int = 0,
                  max_lanes: int = 8192, out: TraceArchive | None = None) -> BatchResult:
    """Simulate one AES run per plaintext on independent cold-start lanes.

    With ``out``, each block of a chunk's trace rows is appended to that
    archive as soon as it is summed, so no (N, d) array is built and the
    result's ``traces`` is None.
    """
    plaintexts = np.asarray(plaintexts, dtype=np.uint8)
    if plaintexts.ndim != 2 or plaintexts.shape[1] != 16:
        raise ValueError(f"plaintexts must be (N, 16) bytes, got {plaintexts.shape}")
    n_total = plaintexts.shape[0]
    program = build_aes_program(cfg.rounds)
    d = len(program) + 3
    init_mem = aes_workload_memory(key)

    noisy = cfg.noise_sigma > 0
    dtype = np.float64 if noisy else np.int64
    if out is None:
        traces = np.empty((n_total, d), dtype=dtype)
    else:
        traces, block = None, np.empty((min(_ROW_BLOCK, n_total), d), dtype=dtype)
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
        for lo in range(0, lanes, _ROW_BLOCK):
            hi = min(lo + _ROW_BLOCK, lanes)
            rows = traces[base + lo:base + hi] if out is None else block[:hi - lo]
            # noise first, toggles added in place: the same IEEE sum as
            # toggles + noise, without a temporary; each run's noise is its
            # own substream, so the block split does not change a bit
            if noisy:
                _noise_rows(cfg, run_idx[lo:hi], rows)
                rows += toggles[lo:hi]
            else:
                rows[...] = toggles[lo:hi]
            if out is not None:
                out.write_rows(rows)
        if cts is not None:
            cts[base:base + lanes] = machine.peek_bytes(CT_ADDR, 16)
        if collect_logs:
            logs.extend(extract_cycle_log(blog, lane) for lane in range(lanes))
        # free this chunk's machine before the next one is built
        del machine, toggles, blog

    rekeys = []
    if cfg.param_mode and interval is not None:
        # batch index i begins an epoch when global run run_offset + i is a
        # positive multiple of interval (run 0 begins none)
        first = max(interval, -(-run_offset // interval) * interval) - run_offset
        rekeys = list(range(first, n_total, interval))
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

    Before noise a sample depends on its set and key epoch only: a cold lane
    holds zero tags, flags and payload rows, so a fill toggles the same bits
    whichever way it takes, and the poke and preset depend on the set alone.
    So each (epoch, set) pair is simulated once, on one lane, in
    ``max_lanes`` chunks of pairs: ``sets`` lanes in baseline mode and
    ``sets * ceil(reps / rekey_every)`` in param mode, whatever ``reps`` is.
    Every rep of an epoch repeats its pairs' samples; then each ``max_lanes``
    chunk of the ``reps * sets`` samples, rep-major, adds the noise of the
    substream keyed by its first sample.
    """
    if rekey_every < 1:
        raise ValueError(f"rekey_every must be >= 1, got {rekey_every}")
    g = cfg.cache
    program = build_single_access_program()
    total = reps * g.sets
    mem_rng = sub_rng(cfg.seed, "sweep-memory")
    # set s's line sits at SWEEP_ADDR + 64*s, so the region is one contiguous poke
    sweep_image = b"".join(mem_rng.integers(0, 256, size=64, dtype=np.uint8).tobytes()
                           for _ in range(g.sets))

    # baseline mode has one key epoch, which holds every rep; an epoch never
    # repeats its samples more than reps times, however long it is
    epoch_reps = max(min(rekey_every if cfg.param_mode else reps, reps), 1)
    n_epochs = -(-reps // epoch_reps)
    pairs = n_epochs * g.sets
    cols = np.empty(pairs, dtype=np.float64)
    if cfg.param_mode and pairs:
        table = _epoch_constants(cfg, n_epochs)
    for base in range(0, pairs, max_lanes):
        lanes = min(max_lanes, pairs - base)
        pair_idx = np.arange(base, base + lanes)
        set_of = pair_idx % g.sets
        kc = table[pair_idx // g.sets] if cfg.param_mode else None
        # the last chunk's machine lives until this rebinding: freeing it first
        # measured slower on a 2-vCPU host (perfbench ttest-sweep seeds 1000
        # and 1-9, ten alternated 36 s pairs: items_per_s median 2.19 M ->
        # 2.05 M, slower in 9 of 10) though peak RSS fell 64.3 -> 56.5 MB
        machine = Machine(cfg, lanes, kc)
        machine.poke_bytes(SWEEP_ADDR, sweep_image)
        machine.preset_register(1, (np.uint64(SWEEP_ADDR)
                                    + set_of.astype(np.uint64) * np.uint64(g.line_bytes)))
        toggles, _ = machine.run_program(program)
        cols[base:base + lanes] = toggles[:, SINGLE_ACCESS_SAMPLE_CYCLE - 1]

    # row r is rep r: epoch r // epoch_reps's samples, set by set
    samples = np.repeat(cols.reshape(n_epochs, g.sets), epoch_reps, axis=0)[:reps]
    if cfg.noise_sigma > 0:
        flat = samples.reshape(-1)
        for base in range(0, total, max_lanes):
            lanes = min(max_lanes, total - base)
            flat[base:base + lanes] += sub_rng(cfg.seed, "sweep-noise", base).normal(
                0.0, cfg.noise_sigma, lanes
            )

    # set s's samples are column s, rep by rep
    by_set = np.ascontiguousarray(samples.T)
    return {f"set{s:02d}": by_set[s] for s in range(g.sets)}


# --- trace and manifest files ----------------------------------------------------

class TraceArchive:
    """A trace archive being written: an uncompressed ``.npz`` whose
    ``samples`` member receives float32 rows block by block.

    The first ``write_rows`` writes the ``.npy`` header of the whole
    (n_rows, d) array, and every call appends its rows, so the archive never
    needs the (N, d) array; ``save_traces_npz`` then adds ``plaintexts``,
    ``key`` and ``meta`` and completes it. The file is written as
    ``<path>.part`` beside ``path`` and renamed to ``path`` only once every
    row and member is written. Leaving the ``with`` block before that, by an
    exception or otherwise, removes the partial file.

    The archive is not compressed: noisy float samples hardly deflate, and
    compressing them takes far longer than writing them plain.
    """

    def __init__(self, path, n_rows: int):
        self.path, self.n_rows = os.fspath(path), n_rows
        self._part = self.path + ".part"
        self._zip = zipfile.ZipFile(self._part, "w", zipfile.ZIP_STORED, allowZip64=True)
        self._samples = None   # the open ``samples`` member, after the first rows
        self._shape = (0, 0)   # rows written so far, columns
        self._done = False

    def write_rows(self, rows) -> None:
        """Append an (m, d) block of rows, stored as float32."""
        rows = np.asarray(rows)
        written, d = self._shape
        if self._samples is None and rows.ndim == 2:
            d = rows.shape[1]
            self._samples = self._zip.open("samples.npy", "w", force_zip64=True)
            np.lib.format.write_array_header_1_0(self._samples, {
                "descr": "<f4", "fortran_order": False, "shape": (self.n_rows, d)})
        if rows.ndim != 2 or rows.shape[1] != d or written + len(rows) > self.n_rows:
            raise ValueError(f"{self.path}: cannot append {rows.shape} rows, with {written} "
                             f"rows of ({self.n_rows}, {d}) written")
        for lo in range(0, len(rows), _ROW_BLOCK):
            self._samples.write(np.ascontiguousarray(rows[lo:lo + _ROW_BLOCK], dtype="<f4"))
        self._shape = (written + len(rows), d)

    def finish(self, arrays: dict) -> None:
        """Write the named arrays after ``samples`` and move the archive to
        ``path``; every row must have been written."""
        if self._shape[0] != self.n_rows or self._samples is None:
            raise ValueError(f"{self.path}: {self._shape[0]} of {self.n_rows} trace rows "
                             "written")
        self._samples.close()
        for name, arr in arrays.items():
            with self._zip.open(f"{name}.npy", "w", force_zip64=True) as f:
                np.lib.format.write_array(f, arr, allow_pickle=False)
        self._zip.close()
        os.replace(self._part, self.path)
        self._done = True

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self._done:
            return
        try:
            if self._samples is not None:
                self._samples.close()
            self._zip.close()
        except OSError:
            pass   # the partial file is removed below either way
        finally:
            os.remove(self._part)


def save_traces_npz(dest, traces, plaintexts, key: bytes | None = None,
                    meta: dict | None = None) -> None:
    """Write a trace archive: samples (as float32), plaintexts, key and meta.

    ``dest`` is a path, or an open ``TraceArchive`` that already holds the
    rows (``run_aes_batch(..., out=archive)``), and then ``traces`` is None.
    ``load_traces_npz`` reads compressed archives as well.
    """
    if not isinstance(dest, TraceArchive):
        with TraceArchive(dest, len(traces)) as archive:
            save_traces_npz(archive, traces, plaintexts, key=key, meta=meta)
        return
    if traces is not None:
        dest.write_rows(traces)
    arrays = {"plaintexts": np.asarray(plaintexts, dtype=np.uint8)}
    if key is not None:
        arrays["key"] = np.frombuffer(bytes(key), dtype=np.uint8)
    arrays["meta"] = np.frombuffer(
        json.dumps(meta or {}, sort_keys=True).encode(), dtype=np.uint8
    )
    dest.finish(arrays)


def _archive_member(path, z, name: str) -> np.ndarray:
    """Member ``name`` of the open archive ``z`` as an array, read without
    unpickling; anything else is a ValueError naming the file and member."""
    arcname = f"{name}.npy" if f"{name}.npy" in z.zip.namelist() else name
    try:
        with z.zip.open(arcname) as f:
            version = np.lib.format.read_magic(f)
            read_header = (np.lib.format.read_array_header_1_0 if version == (1, 0)
                           else np.lib.format.read_array_header_2_0)
            dtype = read_header(f)[2]
    except (ValueError, EOFError, zipfile.BadZipFile):
        raise ValueError(f"{path}: '{name}' member is not .npy data") from None
    if dtype.hasobject:  # loading it would unpickle
        raise ValueError(f"{path}: '{name}' array must be numeric, got an object array")
    try:
        return z[name]
    except (ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise ValueError(f"{path}: '{name}' array is truncated or unreadable ({exc})") from None


def load_traces_npz(path):
    """(traces, plaintexts, key) of a trace archive: its 2-d ``samples`` in
    their stored dtype (float32 in archives leakscope writes; no float64
    copy is made), its (N, 16) uint8 ``plaintexts`` and its 16-byte ``key``
    (None when it has none). The ``meta`` member is not read."""
    try:
        archive = np.load(path)
    except (ValueError, EOFError, zipfile.BadZipFile):  # pickled or text data; empty
        archive = None
    if not isinstance(archive, np.lib.npyio.NpzFile):
        raise ValueError(f"{path}: not an .npz trace archive")

    with archive as z:
        for name in ("samples", "plaintexts"):
            if name not in z:
                raise ValueError(f"{path}: no '{name}' array in the trace archive")
        samples = _archive_member(path, z, "samples")
        plaintexts = _archive_member(path, z, "plaintexts")
        key = _archive_member(path, z, "key") if "key" in z else None

    def bad(name, arr, want):
        return ValueError(f"{path}: '{name}' array must be {want}, got {arr.shape} {arr.dtype}")

    if samples.ndim != 2 or samples.shape[1] == 0 or samples.dtype.kind not in "biuf":
        raise bad("samples", samples, "(N, d) numbers with d >= 1")
    if plaintexts.dtype != np.uint8 or plaintexts.ndim != 2 or plaintexts.shape[1] != 16:
        raise bad("plaintexts", plaintexts, "(N, 16) uint8")
    if key is not None and (key.dtype != np.uint8 or key.shape != (16,)):
        raise bad("key", key, "16 uint8 bytes")
    return samples, plaintexts, None if key is None else key.tobytes()


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

