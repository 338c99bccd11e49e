import hashlib
import json
import random
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leakscope import aes
from leakscope.feistel import (
    KeyConstant,
    RoundKeys,
    deobfuscate32,
    deobfuscate64_vec,
    deobfuscate_address,
    lfsr_from_seed,
    obfuscate32,
    obfuscate32_vec,
    obfuscate64,
    obfuscate64_vec,
    obfuscate_address,
    remap,
)
from leakscope.metrics import hamming_distance
from leakscope.sim import (
    CT_ADDR,
    Machine,
    SimConfig,
    SimError,
    cache_set_experiment,
    emit_vcd,
    epoch_keys,
    extract_cycle_log,
    random_plaintexts,
    run_aes_batch,
    sub_rng,
)
from leakscope.sim.config import CacheGeometry, ConfigError, parse_config_file
from leakscope.sim.cyclelog import CycleLog
from leakscope.sim.machine import OP_A, OP_B, REG_ROWS, element_catalog
from leakscope.sim.program import (
    STATE_ADDR,
    SWEEP_ADDR,
    MicroOp,
    alu,
    aes_workload_memory,
    build_aes_program,
    load,
    store,
)
from leakscope.sim import machine as machine_module
from leakscope.sim import run as sim_run
from leakscope.sim.run import TraceArchive, load_traces_npz, read_trace_csv, save_traces_npz
from leakscope.vcd import parse_vcd, resample_per_cycle
from peak_rss import run_probe
from reference_cache import OneLaneCache
from reference import (
    DenseMachine,
    RawWriteLog,
    SequentialSession,
    build_fuzz_program,
    cell_values,
    change_tuples,
    dense_cache,
    dict_log,
    log_changes,
    log_initial,
    memory_image,
    naive_emit_vcd,
    naive_extract_cycle_log,
    per_lane_cache_set_experiment,
    rekey_flush,
    synth_power,
    value_columns,
    write_trace_csv,
)

KEY = bytes.fromhex("000102030405060708090a0b0c0d0e0f")


def epoch0_keys(cfg, lanes):
    """Round keys of key epoch 0 on every lane, as four (lanes,) arrays: the
    keys a batch gives runs 0..lanes-1 while lanes <= rekey_interval_runs."""
    return [np.full(lanes, k, dtype=np.uint32) for k in epoch_keys(cfg, 1)[0]]


def lane_view(m, line_addr):
    """The backing line at ``line_addr`` as every lane sees it, (n_lanes, 8)."""
    return np.broadcast_to(m.backing[line_addr], (m.n, 8))


def mk(mode="baseline", lanes=2, **kw):
    kw.setdefault("noise_sigma", 0.0)
    cfg = SimConfig(mode=mode, **kw)
    kc = KeyConstant.of(epoch0_keys(cfg, lanes)) if cfg.param_mode else None
    return cfg, Machine(cfg, lanes, kc)


# --- config -------------------------------------------------------------------

def test_config_validation_names_fields():
    with pytest.raises(ConfigError, match="mode"):
        SimConfig(mode="hardened")
    with pytest.raises(ConfigError, match="noise_sigma"):
        SimConfig(noise_sigma=-1)
    with pytest.raises(ConfigError, match="rounds"):
        SimConfig(rounds=11)
    for seed in (1 << 127, -(1 << 127) - 1):
        with pytest.raises(ConfigError, match="seed: must fit signed 128 bits"):
            SimConfig(seed=seed)
    for seed in ((1 << 127) - 1, -(1 << 127)):  # the bounds lfsr_from_seed takes
        lfsr_from_seed(SimConfig(mode="param", seed=seed).seed)
    with pytest.raises(ConfigError, match="sets"):
        SimConfig(cache=__import__("leakscope.sim.config", fromlist=["CacheGeometry"])
                  .CacheGeometry(sets=48))


def test_config_file_and_env(tmp_path):
    path = tmp_path / "cfg"
    path.write_text("mode = param\nnoise_sigma = 2.5  # comment\nseed = 9\n")
    cfg = parse_config_file(path, env={})
    assert cfg.mode == "param" and cfg.noise_sigma == 2.5 and cfg.seed == 9
    assert cfg.eda_fix_on  # param defaults the fix on
    cfg2 = parse_config_file(path, env={"LEAKSCOPE_MODE": "baseline"})
    assert cfg2.mode == "baseline" and not cfg2.eda_fix_on
    path.write_text("modes = param\n")
    with pytest.raises(ConfigError, match="modes"):
        parse_config_file(path, env={})
    path.write_text("rounds = soon\n")
    with pytest.raises(ConfigError, match="rounds"):
        parse_config_file(path, env={})
    path.write_text(f"mode = param\nseed = {1 << 127}\n")
    with pytest.raises(ConfigError, match="seed"):
        parse_config_file(path, env={})


# --- functional correctness ------------------------------------------------------

@pytest.mark.parametrize("mode", ["baseline", "param"])
def test_ciphertexts_match_reference(mode):
    cfg = SimConfig(mode=mode, noise_sigma=0.0, seed=21)
    pts = random_plaintexts(cfg, 8)
    res = run_aes_batch(cfg, pts, KEY)
    for i in range(8):
        assert bytes(res.ciphertexts[i]) == aes.aes128_encrypt(bytes(pts[i]), KEY)


def test_determinism_bitwise():
    cfg = SimConfig(mode="param", noise_sigma=1.5, seed=77, rounds=1)
    pts = random_plaintexts(cfg, 6)
    a = run_aes_batch(cfg, pts, KEY)
    b = run_aes_batch(cfg, pts, KEY)
    assert np.array_equal(a.traces, b.traces)


def test_determinism_across_batching():
    cfg = SimConfig(mode="param", noise_sigma=2.0, seed=13, rounds=1,
                    rekey_interval_runs=3)
    pts = random_plaintexts(cfg, 10)
    whole = run_aes_batch(cfg, pts, KEY)
    split = run_aes_batch(cfg, pts, KEY, max_lanes=4)
    assert np.array_equal(whole.traces, split.traces)


@pytest.mark.parametrize("interval", [2, 5, None])
def test_run_offset_continues_the_whole_batch(interval):
    # run r is in key epoch r // interval (epoch 0 throughout when never
    # re-keyed) and draws noise by r, wherever its batch starts; the batch
    # reports its epochs' first runs by its own index (run 5 is index 0)
    cfg = SimConfig(mode="param", noise_sigma=1.5, seed=23, rounds=1,
                    rekey_interval_runs=interval)
    pts = random_plaintexts(cfg, 9)
    whole = run_aes_batch(cfg, pts, KEY, max_lanes=4)
    tail = run_aes_batch(cfg, pts[5:], KEY, run_offset=5, max_lanes=3)
    assert np.array_equal(tail.traces, whole.traces[5:])
    assert tail.rekey_runs == [r - 5 for r in whole.rekey_runs if r >= 5]


def test_cycle_count_mode_invariance():
    cfg_b = SimConfig(mode="baseline", noise_sigma=0.0, seed=1)
    cfg_p = SimConfig(mode="param", noise_sigma=0.0, seed=1)
    pts = random_plaintexts(cfg_b, 5)
    assert run_aes_batch(cfg_b, pts, KEY).n_cycles == \
        run_aes_batch(cfg_p, pts, KEY).n_cycles == len(build_aes_program(10)) + 3


def test_single_run_batch_log_resynthesizes_its_trace():
    cfg = SimConfig(noise_sigma=0.0, seed=2, rounds=1)
    res = run_aes_batch(cfg, np.zeros((1, 16), dtype=np.uint8), KEY, collect_logs=True)
    log, trace = res.logs[0], res.traces[0]
    assert log.n_cycles == trace.shape[0]
    assert np.array_equal(synth_power(log), trace)


# --- cache behavior ------------------------------------------------------------------

def test_cache_cold_miss_then_hit():
    _, m = mk()
    m.poke_bytes(0x2000, bytes(range(64)))
    hit, val = m.cache_access(np.uint64(0x2000), "load")
    assert not hit.any()
    assert int(val[0]) == int.from_bytes(bytes(range(8)), "little")
    hit, val2 = m.cache_access(np.uint64(0x2000), "load")
    assert hit.all()
    assert np.array_equal(val, val2)


@pytest.mark.parametrize("mode", ["baseline", "param"])
def test_store_then_load_coherence(mode):
    _, m = mk(mode)
    data = np.full(2, 0x1122334455667788, dtype=np.uint64)
    m.cache_access(np.uint64(0x3000), "store", data=data)
    _, val = m.cache_access(np.uint64(0x3000), "load")
    assert np.array_equal(val, data)
    byte = np.full(2, 0xAB, dtype=np.uint64)
    m.cache_access(np.uint64(0x3003), "store", data=byte, size=1)
    _, val = m.cache_access(np.uint64(0x3003), "load", size=1)
    assert (val == 0xAB).all()
    _, whole = m.cache_access(np.uint64(0x3000), "load")
    assert int(whole[0]) == 0x11223344AB667788


def test_baseline_equal_set_index_shares_set():
    cfg, m = mk(lanes=1)
    set_stride = cfg.cache.sets * cfg.cache.line_bytes
    m.cache_access(np.uint64(0x2040), "load")
    m.cache_access(np.uint64(0x2040 + set_stride), "load")
    s = (0x2040 >> cfg.cache.offset_bits) & (cfg.cache.sets - 1)
    _, flags, _ = dense_cache(m)
    valid = (flags & 1).reshape(cfg.cache.sets, cfg.cache.ways, 1)
    assert int(valid[s].sum()) == 2
    assert int(valid.sum()) == 2


def test_param_set_mapping_matches_offline_obfuscation():
    cfg, m = mk("param", lanes=3, seed=4)
    addr = 0x1540
    m.cache_access(np.uint64(addr), "load")
    keys_arr = epoch0_keys(cfg, 3)
    geom = cfg.cache
    tags, flags, _ = dense_cache(m)
    flags, tags = (a.reshape(geom.sets, geom.ways, 3) for a in (flags, tags))
    for lane in range(3):
        rk = RoundKeys(tuple(int(k[lane]) for k in keys_arr))
        a_prime = obfuscate_address(addr, geom.address_geometry, rk)
        set_idx = (a_prime >> geom.offset_bits) & (geom.sets - 1)
        tag = a_prime >> (geom.offset_bits + geom.set_bits)
        found = [
            (s, w)
            for s in range(geom.sets)
            for w in range(geom.ways)
            if flags[s, w, lane] & 1 and tags[s, w, lane] == tag
        ]
        assert len(found) == 1
        assert found[0][0] == int(set_idx)


def test_cache_matches_flat_memory_oracle():
    # 10^4 random accesses against a plain dict-of-bytes model, both modes
    rng = np.random.default_rng(1234)
    lanes = 8
    line_bases = [0x4000 + 64 * i for i in range(24)]
    for mode in ("baseline", "param"):
        _, m = mk(mode, lanes=lanes, seed=6)
        flat = {}
        for base in line_bases:
            content = rng.integers(0, 256, 64, dtype=np.uint8).tobytes()
            m.poke_bytes(base, content)
            for lane in range(lanes):
                flat[lane] = flat.get(lane, {})
                for off in range(64):
                    flat[lane][base + off] = content[off]
        for _ in range(1250):
            base = line_bases[rng.integers(len(line_bases))]
            if rng.random() < 0.5:
                off = int(rng.integers(8)) * 8
                addrs = np.full(lanes, base + off, dtype=np.uint64)
                _, got = m.cache_access(addrs, "load")
                for lane in range(lanes):
                    want = int.from_bytes(
                        bytes(flat[lane][base + off + i] for i in range(8)), "little")
                    assert int(got[lane]) == want
            else:
                off = int(rng.integers(64))
                vals = rng.integers(0, 256, lanes, dtype=np.uint8)
                m.cache_access(np.full(lanes, base + off, dtype=np.uint64),
                               "store", data=vals.astype(np.uint64), size=1)
                for lane in range(lanes):
                    flat[lane][base + off] = int(vals[lane])


def test_miss_fill_lands_in_prf():
    cfg = SimConfig(mode="baseline", noise_sigma=0.0)
    m = Machine(cfg, 1)
    word = int.from_bytes(bytes(range(0x40, 0x48)), "little")
    m.poke_bytes(0x6000, bytes(range(0x40, 0x80)))
    _, blog = m.run_program([load(5, 0, 0x6000), load(6, 0, 0x6000)],
                            collect_log=True)
    from leakscope.sim import extract_cycle_log

    log = extract_cycle_log(blog, 0)
    prf_changes = [(c, n, v) for c, n, v in log_changes(log) if ".prf." in n]
    # miss fill writes one slot at the first load's memory stage; the second
    # load hits and its slot rewrite is value-identical, hence no change
    assert prf_changes == [(3, "core.prf.p0", word)]


def test_cache_errors():
    _, m = mk()
    with pytest.raises(SimError, match="unaligned"):
        m.cache_access(np.uint64(0x2001), "load")
    with pytest.raises(SimError, match="geometry"):
        m.cache_access(np.uint64(1 << 40), "load")
    with pytest.raises(SimError, match="store needs data"):
        m.cache_access(np.uint64(0x2000), "store")


@pytest.mark.parametrize("addr", [1 << 40, (1 << 38) - 8, -64])
def test_poke_and_peek_reject_addresses_outside_the_geometry(addr):
    _, m = mk()
    message = rf"{addr:#x}\.\..* outside the 38-bit address geometry"
    for data in (bytes(16), np.zeros((2, 16), dtype=np.uint8)):
        with pytest.raises(SimError, match=message):
            m.poke_bytes(addr, data)
    assert m.backing == {}
    with pytest.raises(SimError, match=message):
        m.peek_bytes(addr, 16)
    # the last 16 bytes of the address space are in range
    m.poke_bytes((1 << 38) - 16, bytes(range(16)))
    assert np.array_equal(m.peek_bytes((1 << 38) - 16, 16)[1], np.arange(16))


def test_misses_in_one_set_fill_its_ways_round_robin():
    # a replacement counter that wraps at 256 breaks the round robin of a
    # way count that does not divide 256: miss 254 would evict miss 253's line
    _, m = mk(lanes=1, cache=CacheGeometry(sets=1, ways=3))
    ways = []
    for i in range(300):
        hit, _ = m.cache_access(np.uint64(64 * i), "load")
        assert not hit.any()
        ways.append(int(m._lookup(np.uint32(i))[3][0]))
    assert ways == [(ways[0] + i) % 3 for i in range(300)]


def test_eviction_writes_back_dirty_victim():
    cfg, m = mk(lanes=1)
    ways = cfg.cache.ways
    set_stride = cfg.cache.sets * cfg.cache.line_bytes
    base = 0x8000  # all in the same set
    m.cache_access(np.uint64(base), "store",
                   data=np.full(1, 0xDEAD, dtype=np.uint64))
    for i in range(1, ways + 1):  # evict the dirty line
        m.cache_access(np.uint64(base + i * set_stride), "load")
    assert int(m.backing[base][0, 0]) == 0xDEAD
    _, val = m.cache_access(np.uint64(base), "load")
    assert int(val[0]) == 0xDEAD


@pytest.mark.parametrize("mode", ["baseline", "param"])
def test_power_log_consistent_across_dirty_eviction(mode):
    # a store followed by enough same-set loads to evict the dirty line;
    # the log-recomputed trace must match the machine's accumulation exactly
    cfg, m = mk(mode, lanes=2, seed=19)
    set_stride = cfg.cache.sets * cfg.cache.line_bytes
    base = 0x8000
    m.preset_register(2, np.uint64(0x1234FEDC))
    prog = [store(2, 0, base)]
    prog += [load(3, 0, base + i * set_stride) for i in range(1, cfg.cache.ways + 1)]
    prog.append(load(4, 0, base))
    toggles, blog = m.run_program(prog, collect_log=True)
    from leakscope.sim import extract_cycle_log

    for lane in range(2):
        log = extract_cycle_log(blog, lane)
        assert np.array_equal(synth_power(log), toggles[lane])
    assert int(m.arch_rf[4][0]) == 0x1234FEDC


@pytest.mark.parametrize("mode", ["baseline", "param"])
def test_flags_element_is_valid_and_dirty_bits(mode):
    # f{s}_{w} holds valid | dirty << 1: a load miss logs 1, a store 3; the
    # way-th same-set miss evicts the dirty line, writes its raw line back and
    # logs the refill's 1; a poke of a cached line clears its flags to 0
    cfg, m = mk(mode, lanes=1, seed=5)
    ways = cfg.cache.ways
    base = 0x8000
    set_of = lambda a: int(m._lookup(np.uint32(a >> 6))[1][0])
    s = set_of(base)
    others = [a for a in range(base + 64, 1 << 16, 64) if set_of(a) == s][:ways]
    m.poke_bytes(base, bytes(range(64)))
    m.preset_register(2, np.uint64(0xC0FFEE))
    prog = [load(3, 0, base), store(2, 0, base)] + [load(3, 0, a) for a in others]
    _, blog = m.run_program(prog, collect_log=True)

    flags = [(c, name, v) for c, name, v in log_changes(extract_cycle_log(blog, 0))
             if name.startswith("dcache.arrays.f")]
    name = flags[0][1]
    assert name.startswith(f"dcache.arrays.f{s}_")
    # op i reaches MEM at cycle i + 3
    assert [(c, v) for c, n, v in flags if n == name] == [(3, 1), (4, 3), (3 + len(prog) - 1, 1)]
    assert sorted(v for _, n, v in flags if n != name) == [1] * (ways - 1)
    written_back = lane_view(m, base).view(np.uint8)[0]
    assert int(written_back[:8].view(np.uint64)[0]) == 0xC0FFEE
    assert bytes(written_back[8:]) == bytes(range(8, 64))

    m.poke_bytes(others[-1], bytes(64))   # cached at the evicted line's entry
    _, blog = m.run_program([alu("xor", 4, 2, 2)], collect_log=True)
    start = log_initial(extract_cycle_log(blog, 0))
    assert start[name] == 0
    assert sorted(v for n, v in start.items() if n.startswith(f"dcache.arrays.f{s}_")) \
        == [0] + [1] * (ways - 1)


@pytest.mark.parametrize("mode", ["baseline", "param"])
def test_poke_drops_exactly_the_lanes_that_cached_the_line(mode):
    lanes = 6
    _, m = mk(mode, lanes=lanes)
    line, other = 0x2000, 0x4000
    m.poke_bytes(line, bytes(range(64)))
    m.poke_bytes(other, bytes(range(64, 128)))
    cached = np.array([True, False, True, False, False, True])
    # cached lanes hold `line` dirty; the rest hold `other`, which must survive
    m.cache_access(np.where(cached, line, other).astype(np.uint64), "store",
                   data=np.full(lanes, 0xDEAD, dtype=np.uint64))
    *_, way, row = m._lookup(np.full(lanes, line >> 6, dtype=np.uint32))
    assert np.array_equal(way >= 0, cached)
    at = row[cached] * m.geom.ways + way[cached]
    assert (m.flags[at] & 1).all() and (m.flags[at] & 2).all()   # valid, dirty

    new = bytes(range(100, 164))
    m.poke_bytes(line, new)
    assert not (m.flags[at] & 1).any() and not (m.flags[at] & 2).any()
    hit, _ = m.cache_access(np.where(cached, line, other).astype(np.uint64), "load")
    assert np.array_equal(hit, ~cached)
    assert np.array_equal(m.peek_bytes(line, 64),
                          np.tile(np.frombuffer(new, dtype=np.uint8), (lanes, 1)))
    _, val = m.cache_access(np.uint64(line + 8), "load")
    assert np.all(val == int.from_bytes(new[8:16], "little"))


@pytest.mark.parametrize("mode", ["baseline", "param"])
def test_poke_bytes_and_per_lane_array_write_the_same_backing(mode):
    data = bytes(random.Random(4).randrange(256) for _ in range(150))
    _, a = mk(mode, lanes=3)
    _, b = mk(mode, lanes=3)
    a.poke_bytes(0x2030, data)  # unaligned, spans four lines
    b.poke_bytes(0x2030, np.tile(np.frombuffer(data, dtype=np.uint8), (3, 1)))
    assert sorted(a.backing) == sorted(b.backing) == [0x2000, 0x2040, 0x2080, 0x20C0]
    for addr in a.backing:
        assert np.array_equal(lane_view(a, addr), lane_view(b, addr))


def test_poke_on_a_cold_cache_looks_nothing_up(monkeypatch):
    import leakscope.sim.machine as machine_mod

    _, m = mk("param", lanes=4)
    state = (m.flags.copy(), m.repl.copy())

    def forbidden(*args, **kwargs):
        raise AssertionError("cold poke looked up the cache")

    monkeypatch.setattr(Machine, "_lookup", forbidden)
    monkeypatch.setattr(machine_mod, "obfuscate32_vec", forbidden)
    m.poke_bytes(0x2010, bytes(range(64)))
    written = np.concatenate([lane_view(m, 0x2000).view(np.uint8)[:, 16:],
                              lane_view(m, 0x2040).view(np.uint8)[:, :16]], axis=1)
    assert np.array_equal(written, np.tile(np.arange(64, dtype=np.uint8), (4, 1)))
    for before, after in zip(state, (m.flags, m.repl)):
        assert np.array_equal(before, after)


def test_a_cold_machine_holds_no_array_of_every_cache_entry():
    # set rows are handed out on first fill: a cold machine's largest arrays
    # are per (set, lane), not per (set, way, lane)
    cfg = SimConfig(noise_sigma=0.0, cache=CacheGeometry(sets=64, ways=4))
    m = Machine(cfg, 1000)
    sizes = {name: a.size for name, a in vars(m).items() if isinstance(a, np.ndarray)}
    assert sizes["row_of"] == sizes["repl"] == 64 * 1000
    assert max(sizes.values()) < 64 * 4 * 1000, sizes


def test_machines_of_one_shape_start_from_one_read_only_counter_draw():
    cfg = SimConfig(mode="baseline", noise_sigma=0.0, seed=3,
                    cache=CacheGeometry(sets=4, ways=3))
    first, second = Machine(cfg, 5), Machine(cfg, 5)
    drawn = second.repl.copy()
    assert np.array_equal(first.repl, drawn)
    for i in range(6):   # cold misses in sets 0, 1, 2, 3, 0, 1 of every lane
        first.cache_access(np.uint64(64 * i), "load")
    assert not np.array_equal(first.repl, drawn)
    assert np.array_equal(second.repl, drawn)
    assert np.array_equal(Machine(cfg, 5).repl, drawn)
    shared = machine_module._repl_draw(cfg.seed, 4, 3, 5)
    assert not shared.flags.writeable and np.array_equal(shared, drawn)
    # another lane count takes a draw of its own shape
    other = Machine(cfg, 6).repl
    assert np.array_equal(other, np.random.default_rng(3 + 0x5EED).integers(
        0, 3, size=(4, 6), dtype=np.uint8).reshape(-1))
    assert machine_module._repl_draw(cfg.seed, 4, 3, 6) is not shared


# --- line pool and shared backing lines -------------------------------------------------

SCRATCH = STATE_ADDR + 0x100         # the line build_fuzz_program reads and writes
REGION = (SCRATCH - 0x80, SCRATCH + 0x100)   # six lines around it


def _random_keys(rng, lanes):
    return KeyConstant.of([np.array([rng.getrandbits(16) for _ in range(lanes)],
                                    dtype=np.uint32) for _ in range(4)])


def _region_ops(rng, n_ops):
    """Loads and stores at r0-based addresses anywhere in REGION."""
    ops = []
    for _ in range(n_ops):
        size = rng.choice([1, 8])
        addr = rng.randrange(*REGION, size)
        reg = rng.randint(1, 31)
        ops.append(load(reg, 0, addr, size=size) if rng.random() < 0.5
                   else store(reg, 0, addr, size=size))
    return ops


def _assert_same_state(a, b, lanes):
    assert np.array_equal(a.peek_bytes(REGION[0], REGION[1] - REGION[0]),
                          b.peek_bytes(REGION[0], REGION[1] - REGION[0]))
    img_a, img_b = memory_image(a), memory_image(b)
    assert sorted(img_a) == sorted(img_b)
    for addr, line in img_a.items():
        assert line.shape == (lanes, 8) and np.array_equal(line, img_b[addr]), hex(addr)
    regs_a, regs_b = a.functional_registers(), b.functional_registers()
    for name, value in regs_a.items():
        assert np.array_equal(value, regs_b[name]), name


@settings(max_examples=60, deadline=None, database=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 9), st.sampled_from(["baseline", "param"]),
       st.sampled_from([(64, 4), (1, 2), (2, 3), (4, 1)]))
def test_line_pool_and_shared_lines_match_the_dense_machine(seed, lanes, mode, shape):
    # small caches over six lines force dirty evictions; pokes mix shared
    # and per-lane lines over cached ones, and param runs re-key in between
    rng = random.Random(seed)
    cfg = SimConfig(mode=mode, noise_sigma=0.0, seed=seed, cache=CacheGeometry(*shape))
    kc = _random_keys(rng, lanes) if cfg.param_mode else None
    machines = (Machine(cfg, lanes, kc), DenseMachine(cfg, lanes, kc))
    for _ in range(3):
        for _ in range(rng.randint(1, 3)):
            k = rng.randint(1, 130)
            addr = rng.randrange(REGION[0], REGION[1] - k + 1)
            if rng.random() < 0.5:
                data = bytes(rng.getrandbits(8) for _ in range(k))
            else:
                data = np.array([[rng.getrandbits(8) for _ in range(k)] for _ in range(lanes)],
                                dtype=np.uint8)
            for m in machines:
                m.poke_bytes(addr, data)
        for r in rng.sample(range(1, 32), 4):
            values = [rng.getrandbits(64) for _ in range(lanes)]
            for m in machines:
                m.preset_register(r, values)
        prog = build_fuzz_program(rng, n_ops=rng.randint(1, 20)) + _region_ops(rng, 20)
        rng.shuffle(prog)
        (toggles, log), (want_toggles, want_log) = (m.run_program(prog, collect_log=True)
                                                    for m in machines)
        assert np.array_equal(toggles, want_toggles)
        for lane in range(lanes):
            got, want = extract_cycle_log(log, lane), extract_cycle_log(want_log, lane)
            assert log_initial(got) == log_initial(want) and log_changes(got) == log_changes(want)

        # per-lane addresses and data, outside a program
        addrs = np.array([rng.randrange(*REGION, 8) for _ in range(lanes)], dtype=np.uint64)
        words = np.array([rng.getrandbits(64) for _ in range(lanes)], dtype=np.uint64)
        op = rng.choice(["load", "store"])
        (hit, value), (want_hit, want_value) = (
            m.cache_access(addrs, op, data=words if op == "store" else None) for m in machines)
        assert np.array_equal(hit, want_hit)
        assert op == "store" or np.array_equal(value, want_value)

        if cfg.param_mode and rng.random() < 0.5:
            new_kc = _random_keys(rng, lanes)
            for m in machines:
                rekey_flush(m, new_kc)
        _assert_same_state(*machines, lanes)


def test_line_pool_holds_at_most_one_row_per_entry_plus_the_zero_row():
    lanes = 3
    _, m = mk(lanes=lanes, cache=CacheGeometry(sets=2, ways=2))
    rng = np.random.default_rng(0)
    for _ in range(200):
        addrs = rng.integers(0, 64, lanes).astype(np.uint64) * np.uint64(64)
        m.cache_access(addrs, "store", data=rng.integers(0, 1 << 63, lanes, dtype=np.uint64))
    # every entry has been written, each into a row of its own
    assert len(m.pool) == 2 * 2 * lanes + 1
    _, _, slots = dense_cache(m)
    assert sorted(slots.tolist()) == list(range(1, 2 * 2 * lanes + 1))


def _colliding_lines(geom, keys, rng, n_sets, per_set):
    """Addresses of ``per_set`` lines in each of ``n_sets`` sets of one lane
    whose round keys are ``keys`` (None: baseline), distinct tags each."""
    lines = []
    for s in rng.sample(range(geom.sets), n_sets):
        for tag in rng.sample(range(1, 1 << 12), per_set):
            tagset = tag << geom.set_bits | s
            lines.append((tagset if keys is None else deobfuscate32(tagset, keys)) << 6)
    return lines


def _assert_cache_matches(m, oracles):
    g = m.geom
    tags, flags, slots = (a.reshape(g.sets, g.ways, m.n) for a in dense_cache(m))
    assert np.array_equal(tags, np.array([o.tags for o in oracles]).transpose(1, 2, 0))
    assert np.array_equal(flags, np.array([o.flags for o in oracles]).transpose(1, 2, 0))
    want_lines = np.array([o.lines for o in oracles], dtype=np.uint64).transpose(1, 2, 0, 3)
    assert np.array_equal(m.pool[slots], want_lines)
    assert np.array_equal(m.repl.reshape(g.sets, m.n), np.array([o.counters for o in oracles]).T)


@settings(max_examples=30, deadline=None, database=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["baseline", "param"]),
       st.sampled_from([(4, 1), (4, 2), (64, 4)]), st.sampled_from([1, 7]))
def test_cache_access_matches_the_one_lane_oracle(seed, mode, shape, lanes):
    # every lane uses two more lines than ways in each of two of its sets,
    # so misses evict and stores leave dirty victims to write back. After
    # every access the hits, the loaded values, the replacement counters and
    # each lane's (set, way) tag, flags and stored payload equal those of
    # one oracle cache per lane
    rng = random.Random(seed)
    geom = CacheGeometry(*shape)
    cfg = SimConfig(mode=mode, noise_sigma=0.0, seed=seed, cache=geom)
    keys, kc = _lane_keys(rng, lanes) if cfg.param_mode else ([None] * lanes, None)
    m = Machine(cfg, lanes, kc)
    counters = m.repl.reshape(geom.sets, lanes)
    oracles = [OneLaneCache(geom, counters[:, lane], keys[lane]) for lane in range(lanes)]
    pools = [_colliding_lines(geom, k, rng, 2, geom.ways + 2) for k in keys]
    for line in sorted({a for pool in pools for a in pool}):
        data = np.array([[rng.getrandbits(8) for _ in range(64)] for _ in range(lanes)],
                        dtype=np.uint8)
        m.poke_bytes(line, data)
        for lane, o in enumerate(oracles):
            o.memory[line] = data[lane].view("<u8").tolist()
    _assert_cache_matches(m, oracles)
    for _ in range(40):
        op, size = rng.choice(["load", "store"]), rng.choice([1, 8])
        if rng.random() < 0.2:   # one address for every lane
            addrs = [rng.choice(pools[0]) + rng.randrange(0, 64, size)] * lanes
            addr = np.uint64(addrs[0])
        else:
            addrs = [rng.choice(pool) + rng.randrange(0, 64, size) for pool in pools]
            addr = np.array(addrs, dtype=np.uint64)
        data = [rng.getrandbits(64) for _ in range(lanes)]
        hit, value = m.cache_access(addr, op, data=np.array(data, dtype=np.uint64)
                                    if op == "store" else None, size=size)
        want = [o.access(a, op, d, size) for o, a, d in zip(oracles, addrs, data)]
        assert hit.tolist() == [h for h, _ in want]
        assert op == "store" or value.tolist() == [v for _, v in want]
        _assert_cache_matches(m, oracles)


def _lane_keys(rng, lanes):
    """Random round keys per lane and their ``KeyConstant``."""
    keys = [RoundKeys(tuple(rng.getrandbits(16) for _ in range(4))) for _ in range(lanes)]
    return keys, KeyConstant.of([np.array([k.keys[i] for k in keys], dtype=np.uint32)
                                 for i in range(4)])


def _same_set_lines(geom, keys, line, count, rng):
    """``count`` lines other than ``line`` in the set that ``line`` takes in
    one lane whose round keys are ``keys`` (None: baseline)."""
    tagset = line >> 6 if keys is None else obfuscate32(line >> 6, keys)
    s, tag = tagset & (geom.sets - 1), tagset >> geom.set_bits
    out = []
    for t in rng.sample([t for t in range(1, 1 << 12) if t != tag], count):
        other = t << geom.set_bits | s
        out.append((other if keys is None else deobfuscate32(other, keys)) << 6)
    return out


@settings(max_examples=25, deadline=None, database=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["baseline", "param"]),
       st.sampled_from([(4, 1), (4, 2), (64, 4)]), st.sampled_from([1, 7]))
def test_repeated_shared_address_accesses_match_the_one_lane_oracle(seed, mode, shape, lanes):
    # runs of loads and stores of bytes and words at one address for every
    # lane reuse the machine's last lookup of that line. Between runs,
    # per-lane fills of the line's set (which may evict it), pokes of whole
    # lines into the warm cache and, in param mode, re-keying move or drop
    # the remembered line. After every access the machine's hits, loaded
    # values and cache state equal those of one oracle cache per lane
    rng = random.Random(seed)
    geom = CacheGeometry(*shape)
    cfg = SimConfig(mode=mode, noise_sigma=0.0, seed=seed, cache=geom)
    keys, kc = _lane_keys(rng, lanes) if cfg.param_mode else ([None] * lanes, None)
    m = Machine(cfg, lanes, kc)
    counters = m.repl.reshape(geom.sets, lanes)
    oracles = [OneLaneCache(geom, counters[:, lane], keys[lane]) for lane in range(lanes)]
    shared = [rng.randrange(1, 1 << 14) << 6 for _ in range(2)]
    lookups = []
    m._lookup = lambda tagset, look=m._lookup: lookups.append(tagset) or look(tagset)
    reused = 0

    def access(addr, addrs, op, size):
        data = [rng.getrandbits(64) for _ in range(lanes)]
        hit, value = m.cache_access(addr, op, data=np.array(data, dtype=np.uint64)
                                    if op == "store" else None, size=size)
        want = [o.access(a, op, d, size) for o, a, d in zip(oracles, addrs, data)]
        assert hit.tolist() == [h for h, _ in want]
        assert op == "store" or value.tolist() == [v for _, v in want]
        _assert_cache_matches(m, oracles)

    for _ in range(12):
        line = rng.choice(shared)
        for _ in range(rng.randrange(2, 7)):
            op, size = rng.choice(["load", "store"]), rng.choice([1, 8])
            addr = line + rng.randrange(0, 64, size)
            before = len(lookups)
            access(np.uint64(addr), [addr] * lanes, op, size)
            reused += len(lookups) == before
        event = rng.choice(["fill", "poke", "rekey"] if cfg.param_mode else ["fill", "poke"])
        if event == "fill":
            count = rng.randrange(1, geom.ways + 2)
            others = [_same_set_lines(geom, k, line, count, rng) for k in keys]
            for step in zip(*others):
                size = rng.choice([1, 8])
                addrs = [a + rng.randrange(0, 64, size) for a in step]
                access(np.array(addrs, dtype=np.uint64), addrs, rng.choice(["load", "store"]),
                       size)
        elif event == "poke":
            target = rng.choice(shared)
            data = np.array([[rng.getrandbits(8) for _ in range(64)]] * lanes, dtype=np.uint8)
            if rng.random() < 0.5:
                m.poke_bytes(target, data[0].tobytes())
            else:
                data[:, rng.randrange(64)] ^= np.arange(lanes, dtype=np.uint8)
                m.poke_bytes(target, data)
            for o, row in zip(oracles, data):
                o.poke(target, row.view("<u8").tolist())
        else:
            keys, kc = _lane_keys(rng, lanes)
            rekey_flush(m, kc)
            for o, k in zip(oracles, keys):
                o.rekey(k)
        _assert_cache_matches(m, oracles)
    assert reused > 0


# The elements one stage of one op writes, by catalog-name prefix: an op
# forwards at most two operands through the PRF in ID and fills one PRF slot
# in MEM, and its MEM access writes one cache entry's tag, flags and data.
_STAGE_WRITES = {
    "ID": ("core.id_exe.payload", "core.prf.p", "core.prf.p"),
    "EX": ("core.alu.op_a", "core.alu.op_b", "core.alu.res", "core.fpu.shadow",
           "core.muldiv.shadow", "core.bpu.shadow", "core.csr.status", "core.exe_mem.payload"),
    "MEM": ("dcache.arrays.addr", "dcache.arrays.t", "dcache.arrays.f", "dcache.arrays.d",
            "dcache.lb.line", "dcache.hb.word", "core.prf.p", "core.mem_wb.payload"),
    "WB": ("core.rf.r",),
}


def _cycle_toggle_bound(cfg):
    """The most toggles one cycle can take: each of the four ops in flight
    writes each element of its stage at most once, by at most its width."""
    catalog = element_catalog(cfg)

    def width(prefix):
        return max(w for name, w in catalog if name.startswith(prefix))

    return sum(width(prefix) for names in _STAGE_WRITES.values() for prefix in names)


@pytest.mark.parametrize("mode", ["baseline", "param"])
def test_one_cycle_takes_fewer_toggles_than_the_ring_holds(mode):
    # run_program adds toggles into a uint16 ring of the cycles in flight,
    # so a cycle's total must stay below 2^16; a wider element fails here
    # rather than wrapping silently
    cfg, m = mk(mode, lanes=5, seed=3, eda_fix="off")
    bound = _cycle_toggle_bound(cfg)
    assert bound < 1 << 16
    # the stage table covers every write: the widths of the elements a
    # logged run writes in one cycle add up to at most the bound
    widths = np.array([w for _, w in element_catalog(cfg)])
    for addr, blob in aes_workload_memory(KEY).items():
        m.poke_bytes(addr, blob)
    prog = build_aes_program(1) + build_fuzz_program(random.Random(3), n_ops=60)
    _, blog = m.run_program(prog, collect_log=True)
    written = np.zeros(blog.n_cycles + 1, dtype=np.int64)
    for cycle, _, elem, _, _ in blog.writes[0] + blog.writes[1]:
        written[cycle] += np.max(widths[elem], initial=0)
    assert 0 < written.max() <= bound


_SWEEP_MEMORY_PROBE = """
import json
from leakscope.sim import SimConfig, cache_set_experiment
from peak_rss import peak_mb

cfg = SimConfig(mode="param", noise_sigma=0.0, seed=1)
before = peak_mb()
cache_set_experiment(cfg, reps=128)  # 128 reps x 64 sets: one 8192-lane chunk
print(json.dumps({"before": before, "peak": peak_mb()}))
"""

# An 8192-lane machine keeps an int32 set row and a uint8 replacement counter
# per (set, lane): 64 x 8192 x 5 bytes = 2.5 MiB. A one-load lane fills one
# set row, 4 ways x 9 bytes of tag (uint32), flags (uint8) and slot (int32),
# and writes one 64-byte pool row: about 100 bytes, 0.8 MiB in all. Its
# register banks and latches add about 6 MiB. Dense (set, way, lane) tags,
# flags and slots would take 18 MiB, and one dense (64, 4, 8192, 8) payload
# array 128 MiB on its own.
SWEEP_CHUNK_RSS_GROWTH_MB = 16


def test_sweep_chunk_memory_is_bounded():
    probe = run_probe(_SWEEP_MEMORY_PROBE)
    assert probe["peak"] - probe["before"] <= SWEEP_CHUNK_RSS_GROWTH_MB, probe


# --- re-keying -------------------------------------------------------------------------

def test_rekey_flush_requires_param():
    _, m = mk("baseline")
    with pytest.raises(SimError, match="param"):
        rekey_flush(m, KeyConstant.of([np.zeros(2, dtype=np.uint32)] * 4))


def test_rekey_flush_transparency_and_writeback():
    cfg, m = mk("param", lanes=2, seed=8)
    m.poke_bytes(0x5000, bytes(range(64)))
    m.cache_access(np.uint64(0x5000), "store",
                   data=np.full(2, 0xCAFEBABE, dtype=np.uint64))
    m.cache_access(np.uint64(0x5100), "load")
    before_regs = {k: v.copy() for k, v in m.functional_registers().items()}
    before_mem = memory_image(m)

    new_keys = [np.full(2, k, dtype=np.uint32)
                for k in (0x1234, 0x5678, 0x9ABC, 0xDEF0)]
    rekey_flush(m, KeyConstant.of(new_keys))

    # dirty line written back in the clear
    assert int(m.backing[0x5000][0, 0]) == 0xCAFEBABE
    assert not (m.flags & 1).any()
    after_regs = m.functional_registers()
    for name, want in before_regs.items():
        assert np.array_equal(after_regs[name], want), name
    after_mem = memory_image(m)
    zeros = np.zeros((2, 8), dtype=np.uint64)
    for addr in set(before_mem) | set(after_mem):
        assert np.array_equal(after_mem.get(addr, zeros),
                              before_mem.get(addr, zeros)), hex(addr)


SHADOWS = ("core.fpu.shadow", "core.muldiv.shadow", "core.bpu.shadow")


def _remap64(word, old, new):
    """Scalar re-keying of a 64-bit datapath word, one 32-bit half at a time."""
    return (remap(word >> 32, old, new) << 32) | remap(word & 0xFFFFFFFF, old, new)


@pytest.mark.parametrize("eda_fix", ["on", "off"])
def test_rekey_flush_remaps_every_stored_word_like_the_scalar_reference(eda_fix):
    lanes = 3
    cfg = SimConfig(mode="param", eda_fix=eda_fix, noise_sigma=0.0, seed=21)
    keys = epoch0_keys(cfg, lanes)
    m = Machine(cfg, lanes, KeyConstant.of(keys))
    rng = random.Random(21)
    for r in range(1, 32):
        m.preset_register(r, [rng.getrandbits(64) for _ in range(lanes)])
    m.poke_bytes(STATE_ADDR + 0x100, bytes(rng.getrandbits(8) for _ in range(0x40)))
    m.run_program([alu("xor", 3, 1, rs2=2)] + build_fuzz_program(rng, n_ops=40)
                  + [alu("add", 4, 3, rs2=5)])
    old_regs, old_lb = m.regs.copy(), m.lb.copy()
    new_keys = [np.array([rng.getrandbits(16) for _ in range(lanes)], dtype=np.uint32)
                for _ in range(4)]

    rekey_flush(m, KeyConstant.of(new_keys))

    geom = cfg.cache.address_geometry
    for lane in range(lanes):
        ko = RoundKeys(tuple(int(k[lane]) for k in keys))
        kn = RoundKeys(tuple(int(k[lane]) for k in new_keys))
        for w in range(8):
            assert int(m.lb[lane, w]) == _remap64(int(old_lb[lane, w]), ko, kn), (w, lane)
        for row, name in enumerate(REG_ROWS):
            before, got = int(old_regs[row, lane]), int(m.regs[row, lane])
            if name == "dcache.arrays.addr":
                assert got == obfuscate_address(deobfuscate_address(before, geom, ko), geom, kn)
            elif eda_fix == "on" and name in SHADOWS:
                # the translation fix hardwires the shadows: no datapath word to remap
                assert got == before == 1, name
            else:
                assert got == _remap64(before, ko, kn), (name, lane)


def _datapath_transforms(m, keys, rng):
    """Each key-dependent Machine transform next to the vector function called
    with the constant of ``keys`` (four per-lane arrays) on the same random input."""
    n = m.n
    kc = KeyConstant.of(keys)
    words = rng.integers(0, 1 << 63, size=n, dtype=np.uint64)
    lines = rng.integers(0, 1 << 63, size=(n, 8), dtype=np.uint64)
    tagsets = rng.integers(0, 1 << 32, size=n, dtype=np.uint64).astype(np.uint32)
    lanes = np.array([2, 0, 3, 2])
    return {
        "dp64": (m.dp64(words), obfuscate64_vec(words, kc)),
        "dp64 of a constant": (m.dp64(np.uint64(0x1234)),
                               obfuscate64_vec(np.full(n, 0x1234, dtype=np.uint64), kc)),
        "inv64": (m.inv64(words), deobfuscate64_vec(words, kc)),
        "_dp_lines": (m._dp_lines(lines[:4], lanes),
                      obfuscate64_vec(lines[:4], KeyConstant.of([k[lanes][:, None] for k in keys]))),
        "dp_tagset": (m.dp_tagset(tagsets), obfuscate32_vec(tagsets, kc)),
        "_raw_lines": (m._raw_lines(lines[:4], lanes),
                       deobfuscate64_vec(lines[:4],
                                         KeyConstant.of([k[lanes][:, None] for k in keys]))),
    }


@pytest.mark.parametrize("eda_fix", ["on", "off"])
def test_datapath_transforms_follow_the_keys_across_rekey_flush(eda_fix):
    # the Machine keeps K(k) per key epoch; a stale one would obfuscate with
    # the old keys after the flush
    lanes = 4
    cfg = SimConfig(mode="param", eda_fix=eda_fix, noise_sigma=0.0, seed=5)
    keys = epoch0_keys(cfg, lanes)
    m = Machine(cfg, lanes, KeyConstant.of(keys))
    rng = np.random.default_rng(5)
    for name, (got, want) in _datapath_transforms(m, keys, rng).items():
        assert np.array_equal(got, want), f"before the flush: {name}"

    new_keys = [rng.integers(0, 1 << 16, size=lanes, dtype=np.uint32) for _ in range(4)]
    rekey_flush(m, KeyConstant.of(new_keys))
    for name, (got, want) in _datapath_transforms(m, new_keys, rng).items():
        assert np.array_equal(got, want), f"after the flush: {name}"


def test_sequential_session_rekey_straddles_runs():
    cfg = SimConfig(mode="param", noise_sigma=0.0, seed=31, rekey_interval_runs=2)
    ses = SequentialSession(cfg, KEY, lanes=3)
    rng = np.random.default_rng(9)
    for _ in range(7):
        pts = rng.integers(0, 256, (3, 16), dtype=np.uint8)
        cts = ses.run_block(pts)
        for lane in range(3):
            assert bytes(cts[lane]) == aes.aes128_encrypt(bytes(pts[lane]), KEY)


# --- EDA-translation toggle ----------------------------------------------------------

def _shadow_events(log: CycleLog, name):
    return {c: v for c, n, v in log_changes(log) if n == name}


@pytest.mark.parametrize("eda_fix,expect_operand", [("off", True), ("on", False)])
def test_eda_shadow_latching(eda_fix, expect_operand):
    cfg = SimConfig(mode="baseline", eda_fix=eda_fix, noise_sigma=0.0, seed=3)
    m = Machine(cfg, 1)
    m.preset_register(5, np.uint64(0xAAAA5555DEADF00D))
    m.preset_register(6, np.uint64(0x1111222233334444))
    prog = [alu("xor", 7, 5, 6), alu("add", 8, 7, 5)]
    _, blog = m.run_program(prog, collect_log=True)
    from leakscope.sim import extract_cycle_log

    log = extract_cycle_log(blog, 0)
    fpu = _shadow_events(log, "core.fpu.shadow")
    bpu = _shadow_events(log, "core.bpu.shadow")
    if expect_operand:
        # op 0 executes at cycle 2: fpu gets operand a, bpu gets the result
        assert fpu[2] == 0xAAAA5555DEADF00D
        assert bpu[2] == 0xAAAA5555DEADF00D ^ 0x1111222233334444
    else:
        assert fpu == {2: 1}  # latched once, constant afterwards
        assert bpu == {2: 1}
        assert _shadow_events(log, "core.muldiv.shadow") == {2: 1}


# --- power synthesis --------------------------------------------------------------------

def test_synth_power_no_changes_is_zero():
    log = dict_log([("core.rf.r1", 64)], {"core.rf.r1": 7}, [], n_cycles=5)
    assert synth_power(log).tolist() == [0, 0, 0, 0, 0]


def test_synth_power_toggling_register():
    full = (1 << 64) - 1
    changes = [(c, "core.rf.r1", full if c % 2 else 0) for c in range(1, 7)]
    log = dict_log([("core.rf.r1", 64)], {"core.rf.r1": 0}, changes, n_cycles=6)
    assert synth_power(log).tolist() == [64] * 6


def test_synth_power_matches_machine_accumulation():
    cfg = SimConfig(mode="param", noise_sigma=0.0, seed=15, rounds=1)
    pts = random_plaintexts(cfg, 3)
    res = run_aes_batch(cfg, pts, KEY, collect_logs=True)
    for lane in range(3):
        recomputed = synth_power(res.logs[lane])
        assert np.array_equal(recomputed, res.traces[lane])
        # spot check one cycle against a hand walk with hamming_distance
        cur = log_initial(res.logs[lane])
        total = 0
        for cyc, name, value in log_changes(res.logs[lane]):
            if cyc == 5:
                total += hamming_distance(cur[name], value)
            if cyc <= 5:
                cur[name] = value
        assert total == res.traces[lane][4]


def test_synth_power_noise_seeded():
    log = dict_log([("core.rf.r1", 64)], {"core.rf.r1": 0}, [], n_cycles=4)
    a = synth_power(log, sigma=2.0, rng=42)
    b = synth_power(log, sigma=2.0, rng=42)
    assert np.array_equal(a, b)
    assert a.dtype == np.float64


# --- VCD emission --------------------------------------------------------------------------

def test_emit_vcd_empty_log_is_header_only():
    cfg = SimConfig(noise_sigma=0.0)
    m = Machine(cfg, 1)
    _, blog = m.run_program([], collect_log=True)
    from leakscope.sim import extract_cycle_log

    log = extract_cycle_log(blog, 0)
    assert log.n_cycles == 3  # pipeline drain only
    data = emit_vcd(log)
    assert data.count(b"$var") == len(log.elements) + 1  # plus the clock
    dump = parse_vcd(data)
    assert all(c.time == 0 for c in change_tuples(dump.changes) if c.id_code != "!")


def test_emit_vcd_cycle_count_and_edges():
    cfg = SimConfig(noise_sigma=0.0, seed=5)
    m = Machine(cfg, 1)
    prog = [alu("xor", 1, 0, 0, imm=0) for _ in range(7)]
    _, blog = m.run_program(prog, collect_log=True)
    from leakscope.sim import extract_cycle_log

    log = extract_cycle_log(blog, 0)
    dump = parse_vcd(emit_vcd(log))
    mat = resample_per_cycle(dump, "clk")
    assert mat.n_cycles == log.n_cycles == 10


def test_vcd_round_trip_fuzzed_programs():
    import random as pyrandom

    from leakscope.sim import extract_cycle_log

    rng = pyrandom.Random(2718)
    for trial in range(6):
        mode = rng.choice(["baseline", "param"])
        cfg = SimConfig(mode=mode, noise_sigma=0.0, seed=trial,
                        eda_fix=rng.choice(["on", "off"]))
        kc = KeyConstant.of(epoch0_keys(cfg, 2)) if cfg.param_mode else None
        m = Machine(cfg, 2, kc)
        m.poke_bytes(STATE_ADDR + 0x100, bytes(rng.getrandbits(8) for _ in range(64)))
        for r in range(1, 8):
            m.preset_register(r, np.uint64(rng.getrandbits(64)))
        prog = build_fuzz_program(rng, n_ops=rng.randint(5, 40))
        _, blog = m.run_program(prog, collect_log=True)
        lane = rng.randint(0, 1)
        log = extract_cycle_log(blog, lane)
        mat = resample_per_cycle(parse_vcd(emit_vcd(log)), "clk")
        cols = value_columns(log)
        code_of = {}
        dump = parse_vcd(emit_vcd(log))
        for decl in dump.declarations:
            code_of[".".join(decl.scope_path[1:] + (decl.name,))] = decl.id_code
        cells = cell_values(mat)
        for name, want in cols.items():
            assert cells[code_of[name]] == want, name


@pytest.mark.parametrize("mode", ["baseline", "param"])
def test_change_table_emits_the_bytes_of_the_event_walk(monkeypatch, mode):
    # 7 runs at max_lanes=3 span three chunks; every lane's log and VCD must
    # match the walk of its own batch's raw writes
    want = []
    real = sim_run.extract_cycle_log

    def spy(blog, lane):
        want.append(naive_extract_cycle_log(blog, lane))
        return real(blog, lane)

    monkeypatch.setattr(machine_module, "BatchLog", RawWriteLog)
    monkeypatch.setattr(sim_run, "extract_cycle_log", spy)
    cfg = SimConfig(mode=mode, noise_sigma=0.0, seed=21, rounds=1, rekey_interval_runs=2)
    res = run_aes_batch(cfg, random_plaintexts(cfg, 7), KEY, collect_logs=True, max_lanes=3)
    assert len(want) == len(res.logs) == 7
    for got, log in zip(res.logs, want):
        assert (log_initial(got), log_changes(got)) == (log_initial(log), log_changes(log))
        assert emit_vcd(got) == naive_emit_vcd(log) == emit_vcd(log)  # a view; a dict-built log


@pytest.mark.parametrize("mode", ["baseline", "param"])
def test_warm_machine_log_matches_the_raw_write_walk(monkeypatch, mode):
    # the second and third programs' changes are measured against the
    # registers, cache and line buffer the program before left, not against
    # a cold lane. Each program loads the scratch line first and stores to it
    # last, so the second starts on a dirty line, and the third, after a poke
    # invalidates the line, refills it clean and then dirties it: a change of
    # flags under the same tag
    monkeypatch.setattr(machine_module, "BatchLog", RawWriteLog)
    rng = random.Random(77 if mode == "baseline" else 78)
    _, m = mk(mode, lanes=3, seed=9)
    for r in range(1, 8):
        m.preset_register(r, np.array([rng.getrandbits(64) for _ in range(3)], dtype=np.uint64))
    logs = []
    for k in range(3):
        if k != 1:
            m.poke_bytes(STATE_ADDR + 0x100, np.array(
                [[rng.getrandbits(8) for _ in range(64)] for _ in range(3)], dtype=np.uint8))
        prog = ([load(1, 0, STATE_ADDR + 0x100)] + build_fuzz_program(rng, n_ops=30)
                + [store(2, 0, STATE_ADDR + 0x108)])
        logs.append(m.run_program(prog, collect_log=True)[1])
    _, flags, _ = dense_cache(logs[1])
    tags, _, _ = dense_cache(logs[2])
    assert (flags & 2).any() and tags.any()
    for blog in logs[1:]:
        for lane in range(3):
            got, want = extract_cycle_log(blog, lane), naive_extract_cycle_log(blog, lane)
            assert (log_initial(got), log_changes(got)) == (log_initial(want), log_changes(want))
            assert emit_vcd(got) == naive_emit_vcd(want)


@settings(max_examples=100, deadline=None, database=None)
@given(st.integers(0, 2**32 - 1))
def test_emit_vcd_formats_any_width_like_the_line_oracle(seed):
    # 1-bit elements print without 'b' and space; zero, short and multi-word
    # values keep exactly their significant bits
    rng = random.Random(seed)
    elements = [(f"m{k % 3}.s{k}", rng.choice([1, 2, 7, 64, 65, 128, 512]))
                for k in range(rng.randint(1, 10))]
    initial = {name: rng.getrandbits(w) >> rng.randint(0, w) for name, w in elements}
    n_cycles = rng.randint(0, 5)
    changes = sorted(((rng.randint(1, n_cycles), name, rng.getrandbits(w) >> rng.randint(0, w))
                      for name, w in rng.choices(elements, k=rng.randint(0, 12)) if n_cycles),
                     key=lambda c: c[0])
    log = dict_log(elements, initial, changes, n_cycles)
    assert emit_vcd(log) == naive_emit_vcd(log)


@pytest.mark.parametrize("eda_fix", ["off", "on"])
def test_unwritten_rows_read_as_the_reset_value_in_both_modes(eda_fix):
    # state resets to raw 0 in both modes (not to the obfuscated 0); the
    # functional view reads every row nothing has written as 0, so a param
    # machine's view matches the baseline one before and after a program
    views = {}
    for mode in ("baseline", "param"):
        cfg = SimConfig(mode=mode, eda_fix=eda_fix, noise_sigma=0.0, seed=4)
        m = Machine(cfg, 2, KeyConstant.of(epoch0_keys(cfg, 2)) if cfg.param_mode else None)
        assert not m.regs.any() and not m.lb.any()
        assert all(not v.any() for v in m.functional_registers().values())
        m.preset_register(5, np.array([0x1234, 0xFEDC], dtype=np.uint64))
        m.run_program([alu("xor", 6, 5, imm=0x55), store(6, 0, STATE_ADDR),
                       load(7, 0, STATE_ADDR)])
        views[mode] = m.functional_registers()
    assert not views["param"]["core.rf.r0"].any() and not views["param"]["core.rf.r9"].any()
    for r in (6, 7):  # written rows read their architectural values
        assert views["param"][f"core.rf.r{r}"].tolist() == [0x1234 ^ 0x55, 0xFEDC ^ 0x55]
    for name, value in views["baseline"].items():
        assert np.array_equal(views["param"][name], value), name


def test_operands_are_the_datapath_form_of_written_and_unwritten_registers():
    # a written register row already holds dp64 of its value; an unwritten
    # one holds raw 0, so reading it must still give dp64(0)
    cfg = SimConfig(mode="param", eda_fix="off", noise_sigma=0.0, seed=4)
    val = np.array([0x1234, 0xFEDC], dtype=np.uint64)
    zero = np.zeros(2, dtype=np.uint64)
    # r9 is never written; r6 is written back by the first op, read by the second
    for program, (op_a, op_b) in [([alu("add", 6, 5, 9)], (val, zero)),
                                  ([alu("add", 6, 5, 9), alu("xor", 7, 9, 6)], (zero, val))]:
        m = Machine(cfg, 2, KeyConstant.of(epoch0_keys(cfg, 2)))
        m.preset_register(5, val)
        m.run_program(program)
        assert np.array_equal(m.regs[OP_A], m.dp64(op_a))
        assert np.array_equal(m.regs[OP_B], m.dp64(op_b))


# --- misc -------------------------------------------------------------------------------

def test_store_without_data_register_is_rejected():
    with pytest.raises(ValueError, match="store needs rs2"):
        MicroOp(kind="store", imm=STATE_ADDR)


def test_preset_register_rejects_r0():
    _, m = mk()
    with pytest.raises(SimError):
        m.preset_register(0, np.uint64(5))


def test_param_machine_requires_keys():
    cfg = SimConfig(mode="param", noise_sigma=0.0)
    with pytest.raises(SimError, match="round keys"):
        Machine(cfg, 2)


def test_param_machine_rejects_keys_not_given_as_one_constant_per_lane():
    cfg = SimConfig(mode="param", noise_sigma=0.0)
    keys = epoch0_keys(cfg, 3)
    kc = KeyConstant.of(keys)
    # raw round keys, a 0-d constant, (n, 1) columns, and the wrong lane count
    for bad in (keys, KeyConstant.of(epoch_keys(cfg, 1)[0]), kc[:, None], kc[:2]):
        with pytest.raises(SimError, match=r"KeyConstant .* shape \(3,\)"):
            Machine(cfg, 3, bad)
    m = Machine(cfg, 3, kc)
    for bad in (keys, kc[:2]):
        with pytest.raises(SimError, match=r"KeyConstant .* shape \(3,\)"):
            rekey_flush(m, bad)
    assert m.kc is kc


def test_gfdbl_matches_xtime():
    _, m = mk(lanes=1)
    for v in (0x00, 0x57, 0x80, 0xFF):
        m.preset_register(1, np.uint64(v))
        m.run_program([alu("gfdbl", 2, 1)])
        assert int(m.arch_rf[2][0]) == aes.xtime(v)


def test_store_data_rides_pipeline_buffers():
    cfg = SimConfig(mode="baseline", noise_sigma=0.0)
    m = Machine(cfg, 1)
    m.preset_register(3, np.uint64(0x00000000000000EE))
    prog = [store(3, 0, STATE_ADDR, size=1)]
    _, blog = m.run_program(prog, collect_log=True)
    from leakscope.sim import extract_cycle_log

    log = extract_cycle_log(blog, 0)
    vals = {(c, n): v for c, n, v in log_changes(log)}
    assert vals[(1, "core.id_exe.payload")] == 0xEE
    assert vals[(2, "core.exe_mem.payload")] == 0xEE
    assert vals[(3, "core.mem_wb.payload")] == 0xEE


# --- trace CSV ------------------------------------------------------------------

TRACE_HEADER = "run_index,cycle,sample\n"


def test_trace_csv_roundtrip_any_row_order(tmp_path):
    traces = np.arange(6, dtype=np.float64).reshape(2, 3) / 4
    path = tmp_path / "t.csv"
    write_trace_csv(path, traces)
    assert np.array_equal(read_trace_csv(path), traces)
    header, *rows = path.read_text().splitlines()
    path.write_text("\n".join([header] + rows[::-1]) + "\n")
    assert np.array_equal(read_trace_csv(path), traces)


def test_trace_csv_rejects_missing_cell(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(TRACE_HEADER + "0,1,1.0\n0,2,2.0\n1,1,3.0\n")
    with pytest.raises(ValueError, match=r"t\.csv: no row for run_index 1, cycle 2 "
                                         r"\(the rows up to line 4"):
        read_trace_csv(path)


def test_trace_csv_rejects_duplicate_row(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(TRACE_HEADER + "0,1,1.0\n0,2,2.0\n0,1,9.0\n")
    with pytest.raises(ValueError, match=r"t\.csv: line 4: duplicate row for run_index 0, "
                                         r"cycle 1 \(first at line 2\)"):
        read_trace_csv(path)


@pytest.mark.parametrize("row", ["0,0,1.0", "-1,1,1.0"])
def test_trace_csv_rejects_out_of_range_index(tmp_path, row):
    path = tmp_path / "t.csv"
    path.write_text(TRACE_HEADER + "0,1,1.0\n" + row + "\n")
    with pytest.raises(ValueError, match=r"t\.csv: line 3: run_index must be >= 0"):
        read_trace_csv(path)


def test_trace_csv_rejects_empty_body(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(TRACE_HEADER + "\n")
    with pytest.raises(ValueError, match=r"t\.csv: no trace rows after the header"):
        read_trace_csv(path)


@pytest.mark.parametrize("text", ["nan", "NaN", "inf", "-inf", "1e999"])
def test_trace_csv_rejects_non_finite_sample(tmp_path, text):
    path = tmp_path / "t.csv"
    path.write_text(TRACE_HEADER + f"0,1,1.0\n0,2,{text}\n")
    with pytest.raises(ValueError, match=r"t\.csv: line 3: trace row 0, cycle 2: sample is "
                                         rf".*\('{text}' is not finite\)"):
        read_trace_csv(path)


# --- trace archives ------------------------------------------------------------------------

def _archive_meta(path):
    """The JSON ``meta`` member of a trace archive, which ``dpa`` does not read."""
    with np.load(path) as z:
        return json.loads(z["meta"].tobytes())


def test_traces_npz_roundtrip_is_exact_and_uncompressed(tmp_path):
    rng = np.random.default_rng(3)
    traces = rng.normal(0.0, 80.0, size=(7, 5))
    pts = rng.integers(0, 256, size=(7, 16), dtype=np.uint8)
    meta = {"mode": "param", "n_cycles": 5, "rekey_runs": [2, 4]}
    path = tmp_path / "traces.npz"
    save_traces_npz(path, traces, pts, key=KEY, meta=meta)

    got, got_pts, got_key = load_traces_npz(path)
    assert got.dtype == np.float32   # as stored: no float64 copy on load
    assert np.array_equal(got, traces.astype(np.float32))
    assert np.array_equal(got_pts, pts) and got_pts.dtype == np.uint8
    assert got_key == KEY and _archive_meta(path) == meta
    with zipfile.ZipFile(path) as z:
        assert {i.compress_type for i in z.infolist()} == {zipfile.ZIP_STORED}

    save_traces_npz(path, traces, pts)
    assert load_traces_npz(path)[2] is None and _archive_meta(path) == {}


def test_compressed_traces_npz_still_loads(tmp_path):
    # archives written before traces were stored uncompressed
    rng = np.random.default_rng(4)
    traces = rng.normal(0.0, 80.0, size=(6, 3))
    pts = rng.integers(0, 256, size=(6, 16), dtype=np.uint8)
    plain, packed = tmp_path / "plain.npz", tmp_path / "packed.npz"
    save_traces_npz(plain, traces, pts, key=KEY, meta={"seed": 4})
    with np.load(plain) as z:
        np.savez_compressed(packed, **{name: z[name] for name in z.files})
    with zipfile.ZipFile(packed) as z:
        assert {i.compress_type for i in z.infolist()} == {zipfile.ZIP_DEFLATED}

    want, got = load_traces_npz(plain), load_traces_npz(packed)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    assert got[2:] == want[2:]


def _archive_arrays(path):
    with np.load(path) as z:
        return {name: z[name] for name in z.files}


# max_lanes 1, 5 and >= N; a run_offset off a chunk boundary; both modes;
# sigma 0 (int toggles) and 80; rounds 10 (ciphertexts); logs (--vcd)
@pytest.mark.parametrize("mode, sigma, rounds, max_lanes, run_offset, logs", [
    ("param", 80.0, 1, 1, 0, False),
    ("param", 80.0, 1, 5, 3, False),
    ("baseline", 80.0, 1, 256, 0, False),
    ("param", 0.0, 1, 5, 7, False),
    ("baseline", 0.0, 1, 256, 2, False),
    ("baseline", 80.0, 10, 5, 1, True),
    ("param", 0.0, 10, 256, 0, True),
])
def test_streamed_archive_holds_the_arrays_of_a_whole_batch(tmp_path, monkeypatch, mode, sigma,
                                                            rounds, max_lanes, run_offset, logs):
    monkeypatch.setattr(sim_run, "_ROW_BLOCK", 3)   # several row blocks per chunk
    cfg = SimConfig(mode=mode, rounds=rounds, noise_sigma=sigma, rekey_interval_runs=4, seed=11)
    pts = random_plaintexts(cfg, 13)
    meta = {"n_cycles": 7}
    kw = {"collect_logs": logs, "run_offset": run_offset, "max_lanes": max_lanes}
    whole = run_aes_batch(cfg, pts, KEY, **kw)
    np.savez(tmp_path / "whole.npz", samples=whole.traces.astype(np.float32), plaintexts=pts,
             key=np.frombuffer(KEY, dtype=np.uint8),
             meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8))
    with TraceArchive(tmp_path / "streamed.npz", len(pts)) as archive:
        streamed = run_aes_batch(cfg, pts, KEY, out=archive, **kw)
        save_traces_npz(archive, streamed.traces, pts, key=KEY, meta=meta)

    assert streamed.traces is None
    got, want = _archive_arrays(tmp_path / "streamed.npz"), _archive_arrays(tmp_path / "whole.npz")
    assert list(got) == list(want) == ["samples", "plaintexts", "key", "meta"]
    for name in want:
        assert got[name].dtype == want[name].dtype and np.array_equal(got[name], want[name])
    with zipfile.ZipFile(tmp_path / "streamed.npz") as z:
        assert {i.compress_type for i in z.infolist()} == {zipfile.ZIP_STORED}
    assert streamed.n_cycles == whole.n_cycles and streamed.rekey_runs == whole.rekey_runs
    if rounds == 10:
        assert np.array_equal(streamed.ciphertexts, whole.ciphertexts)
    if logs:
        assert [emit_vcd(log) for log in streamed.logs] == [emit_vcd(log) for log in whole.logs]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["streamed.npz", "whole.npz"]


def test_trace_archive_refuses_rows_it_cannot_hold(tmp_path):
    path = tmp_path / "t.npz"
    with TraceArchive(path, 4) as archive:
        archive.write_rows(np.zeros((3, 5)))
        with pytest.raises(ValueError, match=r"cannot append \(2, 5\) rows, with 3 rows of \(4, 5\)"):
            archive.write_rows(np.zeros((2, 5)))
        with pytest.raises(ValueError, match=r"cannot append \(1, 6\) rows"):
            archive.write_rows(np.zeros((1, 6)))
        with pytest.raises(ValueError, match=r"t\.npz: 3 of 4 trace rows written"):
            save_traces_npz(archive, None, np.zeros((4, 16), np.uint8))
    # an archive left incomplete is removed, and none takes its name
    assert list(tmp_path.iterdir()) == []


# --- golden simulator outputs ------------------------------------------------------------

def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


# SHA-256 of simulator outputs for fixed inputs. A speed-up must leave them
# unchanged; a change that alters simulated outputs on purpose re-records them
# and says why.
GOLDEN_BATCH = {
    "param": "ca0bf78aed349bfdb67db8ab9bd50b6eec11b832715ef47ee48a5113b7b0ae88",
    "baseline": "394c8c2c1972b1d03d83388e01e3a4f6292167a0a36d0f6780c38f550661e49c",
}
GOLDEN_SWEEP = "f97c34397268922d733746e5f032fafa71235b1a021bd4f17ba8d91775607046"


@pytest.mark.parametrize("mode", ["param", "baseline"])
def test_aes_batch_matches_golden_hashes(mode):
    # 600 runs in 256-lane chunks: three machines, six key epochs in param mode
    cfg = SimConfig(mode=mode, rounds=10, noise_sigma=80.0, rekey_interval_runs=100, seed=7)
    res = run_aes_batch(cfg, random_plaintexts(cfg, 600), KEY, max_lanes=256)
    assert _digest(res.traces, res.ciphertexts) == GOLDEN_BATCH[mode]


def test_param_sweep_matches_golden_hash():
    cfg = SimConfig(mode="param", noise_sigma=0.0, seed=7)
    out = cache_set_experiment(cfg, reps=5, rekey_every=2, max_lanes=96)
    assert _digest(*(out[k] for k in sorted(out))) == GOLDEN_SWEEP


# SHA-256 of the toggles and of every lane's change log of warm machines:
# presets, then two programs back to back on caches small enough to evict
# dirty lines, with byte and word accesses at r0-based and per-lane addresses
GOLDEN_WARM = {
    ("baseline", "off"): "a14322f4d8dbf6ff950beda8af001824222836fe99744ec6885c471d20e8fc91",
    ("baseline", "on"): "efac11a6a67ab30c83834be39d72381d4c5ae440bf6b39f570d527d02d046b60",
    ("param", "off"): "810f17117ce4a451a011b364a0f826f75872f4aaa35ee8818257aa6115e47414",
    ("param", "on"): "8b7ddd09f053288c6149c84614a34a110a95b76954bcbe6629023dfa8fbbb986",
}


def _warm_program(rng):
    """Loads and stores through r1, preset per lane inside REGION, then
    fuzz and region ops in random order."""
    via_r1 = []
    for _ in range(12):
        size = rng.choice([1, 8])
        imm = rng.randrange(0, 64, size)
        reg = rng.randint(2, 31)
        via_r1.append(load(reg, 1, imm, size=size) if rng.random() < 0.5
                      else store(reg, 1, imm, size=size))
    rest = build_fuzz_program(rng, n_ops=25) + _region_ops(rng, 25)
    rng.shuffle(rest)
    return via_r1 + rest


def _warm_machines(rng, cfg, lanes, copies=1):
    """Machines with the same keys and per-lane bytes poked over REGION."""
    kc = _random_keys(rng, lanes) if cfg.param_mode else None
    data = np.array([[rng.getrandbits(8) for _ in range(REGION[1] - REGION[0])]
                     for _ in range(lanes)], dtype=np.uint8)
    machines = [Machine(cfg, lanes, kc) for _ in range(copies)]
    for m in machines:
        m.poke_bytes(REGION[0], data)
    return machines


def _preset_warm_registers(rng, machines, lanes):
    """r1 per lane inside REGION for ``_warm_program``, four more at random."""
    for r in [1] + rng.sample(range(2, 32), 4):
        values = [rng.getrandbits(64) for _ in range(lanes)]
        if r == 1:
            values = [rng.randrange(REGION[0], REGION[1] - 64, 8) for _ in range(lanes)]
        for m in machines:
            m.preset_register(r, values)


@pytest.mark.parametrize("mode", ["baseline", "param"])
@pytest.mark.parametrize("eda_fix", ["off", "on"])
def test_warm_machines_match_golden_hashes(mode, eda_fix):
    rng = random.Random(f"{mode}-{eda_fix}")
    lanes = 5
    h = hashlib.sha256()
    for shape in [(1, 2), (2, 3), (4, 1), (64, 4)]:
        cfg = SimConfig(mode=mode, eda_fix=eda_fix, noise_sigma=0.0, seed=3,
                        cache=CacheGeometry(*shape))
        m, = _warm_machines(rng, cfg, lanes)
        for _ in range(2):
            _preset_warm_registers(rng, [m], lanes)
            toggles, blog = m.run_program(_warm_program(rng), collect_log=True)
            h.update(_digest(toggles).encode())
            for lane in range(lanes):
                log = extract_cycle_log(blog, lane)
                h.update(repr((sorted(log_initial(log).items()), log_changes(log))).encode())
    assert h.hexdigest() == GOLDEN_WARM[mode, eda_fix]


@settings(max_examples=40, deadline=None, database=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["baseline", "param"]),
       st.sampled_from(["off", "on"]), st.sampled_from([1, 7]),
       st.sampled_from([(1, 2), (2, 3), (64, 4)]))
def test_run_program_toggles_do_not_depend_on_collecting_a_log(seed, mode, eda_fix, lanes,
                                                                shape):
    # a write skipped only when no log is kept would show as a difference;
    # the second program starts on the state the first one left
    rng = random.Random(seed)
    cfg = SimConfig(mode=mode, eda_fix=eda_fix, noise_sigma=0.0, seed=seed,
                    cache=CacheGeometry(*shape))
    plain, logged = _warm_machines(rng, cfg, lanes, copies=2)
    for _ in range(2):
        _preset_warm_registers(rng, [plain, logged], lanes)
        prog = _warm_program(rng)
        toggles, _ = plain.run_program(prog)
        want, log = logged.run_program(prog, collect_log=True)
        assert log is not None and np.array_equal(toggles, want)


@pytest.mark.parametrize("mode", ["baseline", "param"])
@pytest.mark.parametrize("collect_logs", [False, True])
def test_batch_frees_each_chunks_machine_before_the_next(monkeypatch, mode, collect_logs):
    import weakref

    alive, most = [0], [0]

    class Counted(Machine):
        def __init__(self, *args, **kwargs):
            alive[0] += 1
            most[0] = max(most[0], alive[0])
            weakref.finalize(self, lambda: alive.__setitem__(0, alive[0] - 1))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(sim_run, "Machine", Counted)
    cfg = SimConfig(mode=mode, rounds=1, noise_sigma=80.0, rekey_interval_runs=3, seed=5)
    res = run_aes_batch(cfg, random_plaintexts(cfg, 10), KEY, collect_logs=collect_logs,
                        max_lanes=4)   # three chunks
    assert most[0] == 1
    assert res.traces.shape[0] == 10


def test_run_program_results_are_independent():
    rng = random.Random(4)
    _, m = mk("param", lanes=3)
    first, _ = m.run_program(build_fuzz_program(rng, n_ops=12))
    kept = first.copy()
    second, _ = m.run_program(build_fuzz_program(rng, n_ops=12))
    assert not np.array_equal(second, kept)
    assert np.array_equal(first, kept)


# --- per-run noise substreams ------------------------------------------------------------

def _sub_rng_rows(seed, sigma, runs, d):
    return np.array([sub_rng(seed, "noise", r).normal(0.0, sigma, d) for r in runs]).reshape(-1, d)


def _bulk_rows(cfg, runs, d):
    out = np.full((len(runs), d), np.nan)
    sim_run._noise_rows(cfg, runs, out)
    return out


@pytest.mark.parametrize("seed, sigma, d", [
    (7, 80.0, 5), (0, 1.0, 1), (-3, 0.25, 17), (2**80 + 1, 800.0, 2),
])
def test_noise_rows_are_each_runs_own_substream(seed, sigma, d):
    runs = np.r_[np.arange(5000), np.arange(2**32 - 3, 2**32 + 3), 2**40]
    cfg = SimConfig(noise_sigma=sigma, seed=seed)
    assert np.array_equal(_bulk_rows(cfg, runs, d), _sub_rng_rows(seed, sigma, runs, d))
    assert _bulk_rows(cfg, [], d).shape == (0, d)


@pytest.mark.parametrize("seed", [0, -7, 2**100])
def test_noise_tags_hash_each_runs_own_label(seed):
    runs = [0, 1, 1023, 1024, 10**6]
    assert sim_run._noise_tags(seed, runs) == b"".join(sim_run._tag(seed, "noise", r)
                                                       for r in runs)
    assert sim_run._noise_tags(seed, []) == b""


def test_bulk_seed_states_match_seed_sequence():
    rng = np.random.default_rng(11)
    crafted = [rng.integers(0, 2**32, size=8, dtype=np.uint32) for _ in range(20)]
    crafted += [np.zeros(8, np.uint32), np.full(8, 2**32 - 1, np.uint32),
                np.arange(8, dtype=np.uint32)]
    got = sim_run._seed_states(np.array(crafted))
    for row, entropy in zip(got, crafted):
        assert np.array_equal(row, np.random.SeedSequence(entropy).generate_state(4, np.uint64))
    # entropy that fills the pool exactly, or mixes in fewer or more words
    for width in (4, 5, 12):
        words = rng.integers(0, 2**32, size=(6, width), dtype=np.uint32)
        want = [np.random.SeedSequence(w).generate_state(4, np.uint64) for w in words]
        assert np.array_equal(sim_run._seed_states(words), np.array(want))


def test_tag_with_a_short_word_takes_sub_rng(monkeypatch):
    real_tag, real_sub_rng = sim_run._tag, sim_run.sub_rng
    # run 5's third 64-bit tag word is below 2**32, so SeedSequence sees
    # seven entropy words, not eight
    short = real_tag(1, "x")[:16] + bytes(4) + real_tag(1, "x")[20:]
    monkeypatch.setattr(sim_run, "_tag", lambda seed, *labels: (
        short if labels == ("noise", 5) else real_tag(seed, *labels)))
    monkeypatch.setattr(sim_run, "_noise_tags", lambda seed, runs: b"".join(
        sim_run._tag(seed, "noise", r) for r in runs))
    entropy = np.frombuffer(short, ">u4").reshape(4, 2)[:, ::-1].reshape(1, 8)
    seeded = np.random.SeedSequence(
        tuple(int.from_bytes(short[i:i + 8], "big") for i in range(0, 32, 8)))
    assert not np.array_equal(sim_run._seed_states(entropy)[0],
                              seeded.generate_state(4, np.uint64))
    called = []
    monkeypatch.setattr(sim_run, "sub_rng",
                        lambda seed, *labels: called.append(labels) or real_sub_rng(seed, *labels))
    cfg = SimConfig(noise_sigma=80.0, seed=1)
    rows = _bulk_rows(cfg, range(3, 8), 9)
    # the short-word run, then the first-run guard
    assert called == [("noise", 5), ("noise", 3)]
    assert np.array_equal(rows, _sub_rng_rows(1, 80.0, range(3, 8), 9))


def test_bulk_noise_that_stops_matching_numpy_is_an_error(monkeypatch):
    monkeypatch.setattr(sim_run, "_PCG_MULT", sim_run._PCG_MULT + 2)
    with pytest.raises(SimError, match="run 4 differs from its sub_rng stream"):
        _bulk_rows(SimConfig(noise_sigma=80.0, seed=1), range(4, 10), 9)


# --- cache-set sweep ---------------------------------------------------------------------

@pytest.mark.parametrize("mode", ["baseline", "param"])
@pytest.mark.parametrize("rekey_every", [1, 2])
def test_sweep_samples_do_not_depend_on_chunk_size(mode, rekey_every):
    # 5 reps x 64 sets = 320 lanes: one chunk, 100-lane chunks that cut reps
    # apart, and 64-lane chunks of one rep each
    cfg = SimConfig(mode=mode, noise_sigma=0.0, seed=11)
    runs = [cache_set_experiment(cfg, reps=5, rekey_every=rekey_every, max_lanes=lanes)
            for lanes in (8192, 100, 64)]
    for other in runs[1:]:
        assert list(other) == list(runs[0])
        for label, samples in runs[0].items():
            assert np.array_equal(other[label], samples), label


@pytest.mark.parametrize("mode", ["baseline", "param"])
@pytest.mark.parametrize("sigma", [0.0, 80.0])
@pytest.mark.parametrize("rekey_every", [1, 2, 3, 10**12])
@pytest.mark.parametrize("shape", [(64, 4), (4, 1), (4, 2)])
def test_sweep_matches_the_per_lane_oracle(mode, sigma, rekey_every, shape):
    # 5 reps, so with rekey_every 2 or 3 the last epoch is partial, and with
    # 10**12 one epoch holds them all; chunks of one rep, chunks that cut reps
    # apart and one chunk
    cfg = SimConfig(mode=mode, noise_sigma=sigma, seed=11, cache=CacheGeometry(*shape))
    for lanes in (64, 100, 8192):
        got = cache_set_experiment(cfg, reps=5, rekey_every=rekey_every, max_lanes=lanes)
        want = per_lane_cache_set_experiment(cfg, reps=5, rekey_every=rekey_every,
                                             max_lanes=lanes)
        assert list(got) == list(want)
        for label, samples in want.items():
            assert got[label].dtype == samples.dtype
            assert np.array_equal(got[label], samples), (lanes, label)


@pytest.mark.parametrize("mode, reps, rekey_every, lanes", [
    ("baseline", 1500, 1, [64]),   # one epoch, whatever the reps
    ("param", 10, 4, [192]),       # ceil(10 / 4) = 3 epochs of 64 sets
    ("param", 10, 10**12, [64]),   # one epoch, however long it is
])
def test_sweep_simulates_each_epoch_and_set_once(monkeypatch, mode, reps, rekey_every,
                                                 lanes):
    built = []
    init = Machine.__init__

    def counting_init(self, cfg, n_lanes, *args, **kwargs):
        built.append(n_lanes)
        init(self, cfg, n_lanes, *args, **kwargs)

    monkeypatch.setattr(Machine, "__init__", counting_init)
    cfg = SimConfig(mode=mode, noise_sigma=80.0, seed=11)
    out = cache_set_experiment(cfg, reps=reps, rekey_every=rekey_every)
    assert built == lanes
    assert [len(v) for v in out.values()] == [reps] * cfg.cache.sets


@pytest.mark.parametrize("mode", ["baseline", "param"])
def test_sweep_rejects_a_rekey_interval_below_one(mode):
    cfg = SimConfig(mode=mode, noise_sigma=0.0)
    with pytest.raises(ValueError, match="rekey_every must be >= 1, got 0"):
        cache_set_experiment(cfg, reps=2, rekey_every=0)


def test_sweep_pokes_its_memory_once_per_chunk(monkeypatch):
    calls = []
    poke = Machine.poke_bytes

    def counting_poke(self, addr, data):
        calls.append((addr, len(data)))
        return poke(self, addr, data)

    monkeypatch.setattr(Machine, "poke_bytes", counting_poke)
    cfg = SimConfig(mode="param", noise_sigma=0.0, seed=11)
    cache_set_experiment(cfg, reps=3, max_lanes=100)  # 192 lanes: two chunks
    assert calls == [(SWEEP_ADDR, 64 * cfg.cache.sets)] * 2
