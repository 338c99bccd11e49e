"""Acceptance suite: every release criterion with its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion. The heavier criteria (the before/after key-recovery one in
particular) simulate tens of thousands of runs; the full module stays well
under the fifteen-minute budget on a desktop.
"""

import math
import random
import time

import numpy as np
import pytest

from leakscope import aes, feistel, metrics
from leakscope.cpa import mtd
from leakscope.feistel import (
    AddressGeometry,
    KeyConstant,
    RoundKeys,
    deobfuscate32,
    deobfuscate32_vec,
    obfuscate32,
    obfuscate32_vec,
    obfuscate_address,
    remap,
)
from leakscope.sim import (
    SimConfig,
    cache_set_experiment,
    emit_vcd,
    epoch_keys,
    extract_cycle_log,
    random_plaintexts,
    run_aes_batch,
)
from leakscope.sim.machine import Machine
from leakscope.sim.program import STATE_ADDR
from leakscope.vcd import load_run_set, parse_vcd, resample_per_cycle

from reference import build_fuzz_program, cell_values, log_changes, value_columns
from test_metrics import make_runset, module_score, naive_svf

KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")


def report(num, desc, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{tag}] criterion {num}: {desc}{suffix}")
    assert ok, f"criterion {num}: {desc}{suffix}"


# -------------------------------------------------------------------- 1

def test_criterion_1_feistel_roundtrip_bulk():
    rng = np.random.default_rng(0xC1)
    n = 1_000_000
    x = rng.integers(0, 2**32, size=n, dtype=np.uint64).astype(np.uint32)
    keys = [rng.integers(0, 2**16, size=n, dtype=np.uint32) for _ in range(4)]
    t0 = time.time()
    kc = KeyConstant.of(keys)
    back = deobfuscate32_vec(obfuscate32_vec(x, kc), kc)
    elapsed = time.time() - t0
    ok = bool(np.array_equal(back, x)) and elapsed < 10.0
    report(1, "forward/inverse identity on 10^6 random (value, keys) pairs",
           ok, f"{elapsed:.2f}s")


# -------------------------------------------------------------------- 2

def test_criterion_2_address_offset_preserved():
    geom = AddressGeometry(address_width=38, offset_bits=6)
    rng = random.Random(0xC2)
    bad = 0
    for _ in range(100_000):
        a = rng.getrandbits(38)
        keys = RoundKeys(tuple(rng.getrandbits(16) for _ in range(4)))
        if obfuscate_address(a, geom, keys) & 0x3F != a & 0x3F:
            bad += 1
    report(2, "offset bits preserved for 10^5 random addresses", bad == 0,
           f"{bad} violations")


# -------------------------------------------------------------------- 3

def test_criterion_3_remap_identity():
    rng = np.random.default_rng(0xC3)
    n = 100_000
    d = rng.integers(0, 2**32, size=n, dtype=np.uint64).astype(np.uint32)
    old = [rng.integers(0, 2**16, size=n, dtype=np.uint32) for _ in range(4)]
    new = [rng.integers(0, 2**16, size=n, dtype=np.uint32) for _ in range(4)]
    kc_old, kc_new = KeyConstant.of(old), KeyConstant.of(new)
    remapped = obfuscate32_vec(deobfuscate32_vec(d, kc_old), kc_new)
    lhs = deobfuscate32_vec(remapped, kc_new)
    rhs = deobfuscate32_vec(d, kc_old)
    ok = bool(np.array_equal(lhs, rhs))
    # scalar wrapper agrees on a spot sample
    for i in range(0, n, 25_000):
        ok &= remap(int(d[i]), RoundKeys(tuple(int(k[i]) for k in old)),
                    RoundKeys(tuple(int(k[i]) for k in new))) == int(remapped[i])
    report(3, "re-keying remap composition on 10^5 random triples", ok)


# -------------------------------------------------------------------- 4

def test_criterion_4_svf_correctness():
    rng = random.Random(0xC4)
    values = [rng.getrandbits(8) for _ in range(14)]
    rs = make_runset([[0x5A, v] for v in values], width=8)
    oracle = metrics.OracleTrace(values=tuple(values), width=8)
    equal_case = module_score(rs, rs.hierarchy, oracle)
    ok1 = abs(equal_case.svf - 1.0) <= 1e-9 and equal_case.peak_cycle == 2

    rs_const = make_runset([[0x77, 0x77]] * 10, width=8)
    const_case = module_score(rs_const, rs_const.hierarchy,
                              metrics.OracleTrace(values=tuple(range(10)), width=8))
    ok2 = const_case.svf == 0.0

    exact = 0
    for _ in range(100):
        n = rng.randint(3, 12)
        d = rng.randint(1, 8)
        width = rng.choice([4, 8, 16, 24])
        words = [[rng.getrandbits(width) for _ in range(d)] for _ in range(n)]
        ovals = [rng.getrandbits(width) for _ in range(n)]
        rs_i = make_runset(words, width=width)
        res = module_score(
            rs_i, rs_i.hierarchy, metrics.OracleTrace(values=tuple(ovals), width=width))
        if list(res.per_cycle_scores) == naive_svf(words, ovals):
            exact += 1
    report(4, "module score: equality=1.0/1e-9, constant=0.0, naive-exact x100",
           ok1 and ok2 and exact == 100, f"{exact}/100 exact")


# -------------------------------------------------------------------- 5

def test_criterion_5_primitive_oracles():
    rng = random.Random(0xC5)
    ok = True
    for _ in range(2000):
        x, y = rng.getrandbits(64), rng.getrandbits(64)
        ok &= metrics.hamming_weight(x) == bin(x).count("1")
        ok &= metrics.hamming_distance(x, y) == bin(x ^ y).count("1")
    worst = 0.0
    for _ in range(50):
        n = rng.randint(5, 400)
        xs = [rng.gauss(0, 5) for _ in range(n)]
        ys = [rng.gauss(2, 3) for _ in range(n)]
        got = metrics.pearson(xs, ys)
        mx, my = sum(xs) / n, sum(ys) / n
        num = sum((a - mx) * (b - my) for a, b in zip(xs, ys))
        den = math.sqrt(sum((a - mx) ** 2 for a in xs) * sum((b - my) ** 2 for b in ys))
        worst = max(worst, abs(got - num / den))
    report(5, "Hamming exact + Pearson within 1e-12 of brute force",
           ok and worst <= 1e-12, f"max pearson err {worst:.2e}")


# -------------------------------------------------------------------- 6

def test_criterion_6_aes_and_simulator_ciphertexts():
    fips_ok = aes.aes128_encrypt(
        bytes.fromhex("00112233445566778899aabbccddeeff"),
        bytes.fromhex("000102030405060708090a0b0c0d0e0f"),
    ).hex() == "69c4e0d86a7b0430d8cdb78070b4c55a"

    mism = 0
    for mode in ("baseline", "param"):
        cfg = SimConfig(mode=mode, noise_sigma=0.0, seed=0xC6, rounds=10,
                        rekey_interval_runs=100)
        pts = random_plaintexts(cfg, 1000)
        res = run_aes_batch(cfg, pts, KEY)
        for i in range(1000):
            if bytes(res.ciphertexts[i]) != aes.aes128_encrypt(bytes(pts[i]), KEY):
                mism += 1
    report(6, "FIPS vector exact; 1000 simulator ciphertexts per mode match",
           fips_ok and mism == 0, f"{mism} mismatches")


# -------------------------------------------------------------------- 7

def _canonical_lines(cols, cfg, rkeys, cycle, param):
    g = cfg.cache
    spec = feistel.default_spec()
    out = {}
    for s in range(g.sets):
        for w in range(g.ways):
            flags = cols[f"dcache.arrays.f{s}_{w}"][cycle]
            if not flags & 1:
                continue
            tag = cols[f"dcache.arrays.t{s}_{w}"][cycle]
            data = cols[f"dcache.arrays.d{s}_{w}"][cycle]
            tagset = (tag << g.set_bits) | s
            if param:
                tagset = deobfuscate32(tagset, rkeys, spec)
                data = _inv_wide(data, 512, rkeys)
            out[tagset << 6] = (data, flags)
    return out


def _inv64(v, rkeys):
    spec = feistel.default_spec()
    return (deobfuscate32(v >> 32, rkeys, spec) << 32) | \
        deobfuscate32(v & 0xFFFFFFFF, rkeys, spec)


def _inv_wide(v, width, rkeys):
    return sum(_inv64((v >> (64 * w)) & (2**64 - 1), rkeys) << (64 * w)
               for w in range(width // 64))


def test_criterion_7_functional_transparency_lockstep():
    cfg_b = SimConfig(mode="baseline", eda_fix="off", noise_sigma=0.0,
                      seed=0xC7, rounds=1)
    cfg_p = SimConfig(mode="param", eda_fix="off", noise_sigma=0.0,
                      seed=0xC7, rounds=1)
    pts = random_plaintexts(cfg_b, 1)
    rb = run_aes_batch(cfg_b, pts, KEY, collect_logs=True)
    rp = run_aes_batch(cfg_p, pts, KEY, collect_logs=True)
    cpi_ok = rb.n_cycles == rp.n_cycles

    rkeys = RoundKeys(epoch_keys(cfg_p, 1)[0])  # run 0 is in key epoch 0
    cols_b = value_columns(rb.logs[0])
    cols_p = value_columns(rp.logs[0])
    spec = feistel.default_spec()

    # registers hold the mode-independent reset constant until their first
    # datapath write; from then on the hardened value is the obfuscated image
    first_write = {}
    for c, name, _ in log_changes(rp.logs[0]):
        first_write.setdefault(name, c)

    mismatches = 0
    for name, width in rb.logs[0].elements:
        if name.startswith("dcache.arrays.") and name != "dcache.arrays.addr":
            continue
        fw = first_write.get(name, 10**9)
        for c in range(rb.n_cycles):
            vb, vp = cols_b[name][c], cols_p[name][c]
            if c + 1 < fw:
                raw = vp
            elif name == "dcache.arrays.addr":
                raw = (deobfuscate32(vp >> 6, rkeys, spec) << 6) | (vp & 63)
            elif width == 512:
                raw = _inv_wide(vp, 512, rkeys)
            else:
                raw = _inv64(vp, rkeys)
            mismatches += raw != vb
    for c in range(rb.n_cycles):
        if _canonical_lines(cols_b, cfg_b, rkeys, c, False) != \
                _canonical_lines(cols_p, cfg_p, rkeys, c, True):
            mismatches += 1
    report(7, "deobfuscated hardened state equals baseline state every cycle; "
              "cycle counts equal",
           cpi_ok and mismatches == 0,
           f"{rb.n_cycles} cycles, {mismatches} mismatches")


# -------------------------------------------------------------------- 8

def test_criterion_8_dpa_before_after():
    t_start = time.time()
    budget = 5000

    cfg_b = SimConfig(mode="baseline", seed=0xC8, rounds=1)
    pts_b = random_plaintexts(cfg_b, budget)
    res_b = run_aes_batch(cfg_b, pts_b, KEY)
    curve_b = mtd(res_b.traces, pts_b, 0, KEY[0], checkpoint_step=250)
    baseline_ok = curve_b.mtd is not None and curve_b.mtd <= budget

    cfg_p = SimConfig(mode="param", seed=0xC8, rounds=1, rekey_interval_runs=1000)
    n_param = 20 * budget
    pts_p = random_plaintexts(cfg_p, n_param)
    res_p = run_aes_batch(cfg_p, pts_p, KEY)
    curve_p = mtd(res_p.traces, pts_p, 0, KEY[0], checkpoint_step=5000)
    param_ok = curve_p.mtd is None

    elapsed = time.time() - t_start
    final_rank = curve_p.checkpoints[-1][1]
    report(8, "baseline key byte 0 disclosed within 5000 traces; hardened "
              "not disclosed within 20x that budget",
           baseline_ok and param_ok and elapsed < 900,
           f"baseline mtd={curve_b.mtd}, hardened rank@{n_param}={final_rank}, "
           f"{elapsed:.0f}s")


# -------------------------------------------------------------------- 9

def test_criterion_9_cache_set_ttest_before_after():
    reps = 1500
    cfg_b = SimConfig(mode="baseline", seed=0xC9)
    _, mat_b = metrics.pairwise_ttest_matrix(cache_set_experiment(cfg_b, reps=reps))
    cfg_p = SimConfig(mode="param", seed=0xC9)
    _, mat_p = metrics.pairwise_ttest_matrix(
        cache_set_experiment(cfg_p, reps=reps, rekey_every=1))
    iu = np.triu_indices(mat_b.shape[0], k=1)
    t_b = float(mat_b[iu].max())
    t_p = float(mat_p[iu].max())
    report(9, "cache-set |t| exceeds 4.5 in baseline and drops >= 5x with "
              "address obfuscation + re-keying",
           t_b > 4.5 and t_p <= t_b / 5.0,
           f"baseline max|t|={t_b:.1f}, hardened max|t|={t_p:.2f}, "
           f"ratio {t_b / t_p:.1f}x")


# ------------------------------------------------------------------- 10/11

SHADOWS = (("soc", "core", "fpu"), ("soc", "core", "muldiv"), ("soc", "core", "bpu"))
HOT_GROUP = (("soc", "dcache", "arrays"), ("soc", "dcache", "lb"),
             ("soc", "core", "mem_wb"), ("soc", "core", "rf"))


@pytest.fixture(scope="module")
def svf_runsets(tmp_path_factory):
    """Run sets through the full dump-and-reparse path: baseline with the
    translation fix off/on, plus the hardened configuration."""
    out = {}
    for label, mode, eda in (("off", "baseline", "off"), ("on", "baseline", "on"),
                             ("param", "param", "on")):
        cfg = SimConfig(mode=mode, eda_fix=eda, noise_sigma=0.0,
                        seed=0xCA, rounds=1)
        pts = random_plaintexts(cfg, 40)
        res = run_aes_batch(cfg, pts, KEY, collect_logs=True)
        d = tmp_path_factory.mktemp(f"svf_{label}")
        paths = []
        for i, log in enumerate(res.logs):
            p = d / f"run{i:03d}.vcd"
            p.write_bytes(emit_vcd(log))
            paths.append(p)
        runs = load_run_set(paths, "clk")
        out[label] = (runs, [bytes(p) for p in pts])
    return out


def test_criterion_10_eda_translation_toggle(svf_runsets):
    results = {}
    for eda in ("off", "on"):
        runs, pts = svf_runsets[eda]
        oracles = aes.all_first_round_oracles(pts, KEY)
        rep = metrics.svf_all(runs, oracles, noise_floor_shuffles=1000)
        results[eda] = {r.module_path: r for r in rep.results}
    above = all(
        results["off"][m].svf > results["off"][m].noise_floor for m in SHADOWS
    )
    below = all(
        results["on"][m].svf <= 2 * results["on"][m].noise_floor for m in SHADOWS
    )
    detail = ", ".join(
        f"{m[-1]}: {results['off'][m].svf:.2f}>{results['off'][m].noise_floor:.2f}"
        f" -> {results['on'][m].svf:.2f}" for m in SHADOWS
    )
    report(10, "shadow FPU/MulDiv/BPU leak above the permutation floor only "
               "without the translation fix", above and below, detail)


def test_criterion_11_module_ranking(svf_runsets):
    runs, pts = svf_runsets["on"]
    oracles = [aes.gen_oracle(pts, KEY, "sbox_out", b) for b in range(16)]
    rep = metrics.svf_all(runs, oracles, noise_floor_shuffles=200)
    worst_hot = max(rep.rank_of(m) for m in HOT_GROUP)
    best_shadow = min(rep.rank_of(m) for m in SHADOWS)
    order = ", ".join(r.module_name.replace("soc.", "")
                      for r in rep.results[:6])
    report(11, "memory-hierarchy/register group outranks the fixed shadow "
               "modules under the S-box oracle",
           worst_hot < best_shadow,
           f"top: {order}; worst hot rank {worst_hot}, best shadow rank {best_shadow}")


def test_example_hardening_lowers_top_module_score(svf_runsets):
    # end-to-end analysis example: under the same S-box oracles the hardened
    # design's worst module scores strictly below the baseline's worst module
    base_runs, base_pts = svf_runsets["off"]
    param_runs, param_pts = svf_runsets["param"]
    oracles_b = [aes.gen_oracle(base_pts, KEY, "sbox_out", b) for b in range(16)]
    oracles_p = [aes.gen_oracle(param_pts, KEY, "sbox_out", b) for b in range(16)]
    top_b = metrics.svf_all(base_runs, oracles_b, noise_floor_shuffles=0).results[0]
    top_p = metrics.svf_all(param_runs, oracles_p, noise_floor_shuffles=0).results[0]
    assert top_p.svf < top_b.svf
    print(f"[info] top module score: baseline {top_b.svf:.3f} "
          f"({top_b.module_name}) vs hardened {top_p.svf:.3f} ({top_p.module_name})")


# ------------------------------------------------------------------- 12

def test_criterion_12_vcd_round_trip_fuzzed():
    rng = random.Random(0xCC)
    failures = 0
    for trial in range(20):
        cfg = SimConfig(mode=rng.choice(["baseline", "param"]),
                        eda_fix=rng.choice(["on", "off"]),
                        noise_sigma=0.0, seed=trial)
        kc = KeyConstant.of([[k] for k in epoch_keys(cfg, 1)[0]]) if cfg.param_mode else None
        m = Machine(cfg, 1, kc)
        m.poke_bytes(STATE_ADDR + 0x100,
                     bytes(rng.getrandbits(8) for _ in range(64)))
        for r in range(1, 8):
            m.preset_register(r, np.uint64(rng.getrandbits(64)))
        prog = build_fuzz_program(rng, n_ops=rng.randint(4, 60))
        _, blog = m.run_program(prog, collect_log=True)
        log = extract_cycle_log(blog, 0)
        dump = parse_vcd(emit_vcd(log))
        mat = resample_per_cycle(dump, "clk")
        code_of = {".".join(d.scope_path[1:] + (d.name,)): d.id_code
                   for d in dump.declarations}
        cols, cells = value_columns(log), cell_values(mat)
        if mat.n_cycles != log.n_cycles or any(
                cells[code_of[name]] != col for name, col in cols.items()):
            failures += 1
    report(12, "emit -> parse -> resample reproduces 20 fuzzed workloads exactly",
           failures == 0, f"{failures} failures")
