import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leakscope import feistel
from leakscope.feistel import (
    KeyConstant,
    AddressGeometry,
    AffineSpec,
    Lfsr,
    ObfuscationError,
    RoundKeys,
    default_spec,
    deobfuscate32,
    deobfuscate32_vec,
    deobfuscate64,
    deobfuscate64_vec,
    lfsr_from_seed,
    next_round_keys,
    obfuscate32,
    obfuscate32_vec,
    obfuscate64,
    obfuscate64_vec,
    obfuscate_address,
    remap,
)
from reference import bitwise_next_round_keys, generate_affine_v1


# --- independent reference implementations (kept naive on purpose) ---------

def ref_affine_f(r, k, rows, const):
    v = ((r & 0xFFFF) << 16) | (k & 0xFFFF)
    out = 0
    for i in range(16):
        acc = 0
        for b in range(32):
            if (rows[i] >> b) & 1 and (v >> b) & 1:
                acc ^= 1
        out |= (acc ^ ((const >> i) & 1)) << i
    return out


def ref_obfuscate32(x, keys, rows, const):
    left, right = (x >> 16) & 0xFFFF, x & 0xFFFF
    for k in keys:
        left, right = right, left ^ ref_affine_f(right, k, rows, const)
    return (left << 16) | right


KEYS = RoundKeys((0x1111, 0x2222, 0x3333, 0x4444))


def test_affine_zero_matrix_is_zero_map():
    spec = AffineSpec(rows=tuple([1] * 16), const=0)
    zero = AffineSpec(rows=tuple([0x80000000] * 16), const=0)
    # rows that never overlap low 16 bits + r=0 input -> 0
    assert feistel.affine_f(0, 0, zero) == 0
    assert feistel.affine_f(0, 0, spec) == 0


def test_affine_projection_returns_r():
    # row i selects exactly bit i of R (R occupies bits 16..31 of the input)
    rows = tuple(1 << (16 + i) for i in range(16))
    spec = AffineSpec(rows=rows, const=0)
    for r in (0x0000, 0x1234, 0xFFFF, 0x8001):
        assert feistel.affine_f(r, 0xABCD, spec) == r


def test_affine_golden_vector():
    assert feistel.affine_f(0x1234, 0xABCD, default_spec()) == 0x572F


def test_affine_matches_bitwise_reference():
    spec = default_spec()
    rng = random.Random(7)
    for _ in range(200):
        r, k = rng.getrandbits(16), rng.getrandbits(16)
        assert feistel.affine_f(r, k, spec) == ref_affine_f(r, k, spec.rows, spec.const)


def test_obfuscate32_golden_vector():
    assert obfuscate32(0xDEADBEEF, KEYS) == 0x018CC81B
    assert deobfuscate32(0x018CC81B, KEYS) == 0xDEADBEEF


def test_obfuscate32_matches_round_by_round_reference():
    spec = default_spec()
    rng = random.Random(11)
    for _ in range(300):
        x = rng.getrandbits(32)
        ks = tuple(rng.getrandbits(16) for _ in range(4))
        assert obfuscate32(x, RoundKeys(ks), spec) == ref_obfuscate32(x, ks, spec.rows, spec.const)


def test_zero_round_function_is_half_shuffling_only():
    # with A = 0 and C = 0 each round is a pure half swap; four rounds with
    # the no-final-swap convention compose to the identity, so 0 maps to 0
    zero_spec = AffineSpec(rows=tuple([0] * 16), const=0)
    assert obfuscate32(0x00000000, KEYS, zero_spec) == 0x00000000
    for x in (0x12345678, 0xFFFF0000, 0x00010001):
        assert obfuscate32(x, KEYS, zero_spec) == x


def test_roundtrip_fuzz():
    spec = default_spec()
    rng = random.Random(2024)
    for _ in range(2000):
        x = rng.getrandbits(32)
        ks = RoundKeys(tuple(rng.getrandbits(16) for _ in range(4)))
        assert deobfuscate32(obfuscate32(x, ks, spec), ks, spec) == x


def test_roundtrip_vectorized_large():
    rng = np.random.default_rng(99)
    x = rng.integers(0, 2**32, size=200_000, dtype=np.uint64).astype(np.uint32)
    ks = KeyConstant.of([rng.integers(0, 2**16, size=x.size, dtype=np.uint32)
                         for _ in range(4)])
    y = obfuscate32_vec(x, ks)
    back = deobfuscate32_vec(y, ks)
    assert np.array_equal(back, x)


def test_vec_matches_scalar():
    rng = random.Random(5)
    xs = [rng.getrandbits(32) for _ in range(64)]
    ys = obfuscate32_vec(np.array(xs, dtype=np.uint32), KeyConstant.of(KEYS))
    for x, y in zip(xs, ys):
        assert obfuscate32(x, KEYS) == int(y)


def test_bijection_on_low_half():
    # full 2^16 sweep of the low half with the high half fixed
    xs = np.arange(2**16, dtype=np.uint32) | np.uint32(0xABCD0000)
    ys = obfuscate32_vec(xs, KeyConstant.of(KEYS))
    assert np.unique(ys).size == 2**16


def test_wrong_keys_do_not_invert():
    spec = default_spec()
    other = RoundKeys((0x1111, 0x2222, 0x3333, 0x4445))
    rng = random.Random(3)
    mismatches = 0
    for _ in range(200):
        x = rng.getrandbits(32)
        if deobfuscate32(obfuscate32(x, KEYS, spec), other, spec) != x:
            mismatches += 1
    assert mismatches == 200


def test_obfuscate64_roundtrip_and_halves():
    spec = default_spec()
    x = 0x0123456789ABCDEF
    y = obfuscate64(x, KEYS, spec)
    assert deobfuscate64(y, KEYS, spec) == x
    assert y >> 32 == obfuscate32(x >> 32, KEYS, spec)
    assert y & 0xFFFFFFFF == obfuscate32(x & 0xFFFFFFFF, KEYS, spec)


def test_avalanche_diagnostic():
    # flipping one input bit should flip >= 8 of 32 output bits on average
    rng = np.random.default_rng(17)
    x = rng.integers(0, 2**32, size=4000, dtype=np.uint64).astype(np.uint32)
    bits = rng.integers(0, 32, size=4000)
    kc = KeyConstant.of(KEYS)
    y0 = obfuscate32_vec(x, kc)
    y1 = obfuscate32_vec(x ^ (np.uint32(1) << bits.astype(np.uint32)), kc)
    flips = np.bitwise_count(y0 ^ y1)
    assert flips.mean() >= 8.0


GEOM = AddressGeometry(address_width=38, offset_bits=6)


def test_address_geometry_validation():
    with pytest.raises(ObfuscationError):
        AddressGeometry(address_width=40, offset_bits=6)
    with pytest.raises(ObfuscationError):
        AddressGeometry(address_width=33, offset_bits=0)


def test_address_offset_preserved_fuzz():
    rng = random.Random(41)
    for _ in range(5000):
        a = rng.getrandbits(38)
        ap = obfuscate_address(a, GEOM, KEYS)
        assert ap & 0x3F == a & 0x3F
        assert feistel.deobfuscate_address(ap, GEOM, KEYS) == a


def test_addresses_differing_only_in_offset():
    a = 0x12_3456_7880
    b = a | 0x3F
    ap, bp = obfuscate_address(a, GEOM, KEYS), obfuscate_address(b, GEOM, KEYS)
    assert ap >> 6 == bp >> 6
    assert ap & 0x3F == 0 and bp & 0x3F == 0x3F


def test_address_golden_vector():
    a = 0x3FFFFFFFC0
    assert obfuscate_address(a, GEOM, KEYS) == 0x0F03FDF840


def test_address_width_check():
    with pytest.raises(ObfuscationError):
        obfuscate_address(1 << 38, GEOM, KEYS)


def test_remap_identity_when_keys_equal():
    for x in (0, 1, 0xDEADBEEF, 0xFFFFFFFF):
        assert remap(x, KEYS, KEYS) == x


def test_remap_postcondition_fuzz():
    spec = default_spec()
    rng = random.Random(13)
    for _ in range(2000):
        d = rng.getrandbits(32)
        old = RoundKeys(tuple(rng.getrandbits(16) for _ in range(4)))
        new = RoundKeys(tuple(rng.getrandbits(16) for _ in range(4)))
        d2 = remap(d, old, new, spec)
        assert deobfuscate32(d2, new, spec) == deobfuscate32(d, old, spec)


def test_remap_chaining():
    rng = random.Random(29)
    for _ in range(200):
        d = rng.getrandbits(32)
        ka = RoundKeys(tuple(rng.getrandbits(16) for _ in range(4)))
        kb = RoundKeys(tuple(rng.getrandbits(16) for _ in range(4)))
        kc = RoundKeys(tuple(rng.getrandbits(16) for _ in range(4)))
        assert remap(remap(d, ka, kb), kb, kc) == remap(d, ka, kc)


def test_lfsr_rejects_zero_state():
    with pytest.raises(ObfuscationError):
        Lfsr(state=0)


def test_lfsr_determinism_and_epochs():
    k1, l1 = next_round_keys(Lfsr(state=0x123456789))
    k2, l2 = next_round_keys(Lfsr(state=0x123456789))
    assert k1 == k2 and l1 == l2
    k3, _ = next_round_keys(l1)  # the next epoch draws from the advanced state
    assert l1 != Lfsr(state=0x123456789) and k3 != k1


def test_lfsr_golden_first_draw():
    keys, lfsr = next_round_keys(Lfsr(state=1))
    assert keys.keys == (0x8000, 0x0000, 0x0000, 0x0000)
    assert lfsr.state == 0xB000000000000001
    keys2, lfsr2 = next_round_keys(lfsr)
    assert keys2.keys == (0x8000, 0x0000, 0x0000, 0x000D)
    assert lfsr2.state == 0x4500000000000001


def test_lfsr_matches_bit_reference():
    # the 64-step jump against 64 single steps, over 3000 consecutive epochs
    starts = [Lfsr(state=0xDEAD_0000_BEEF_1234)]
    starts += [lfsr_from_seed(seed) for seed in (0, 1, -7, 2**100, -2**127)]
    for start in starts:
        fast = slow = start
        for epoch in range(3000):
            want, slow = bitwise_next_round_keys(slow)
            keys, fast = next_round_keys(fast)
            assert (keys, fast) == (want, slow), (start, epoch)


def test_lfsr_no_short_cycle():
    # primitive taps: no state revisit within 10^6 steps from a fixed seed
    start = 0xACE1_ACE1_ACE1_ACE1
    state = start
    taps = feistel.DEFAULT_TAPS
    for _ in range(1_000_000):
        fb = (state & taps).bit_count() & 1
        state = (state >> 1) | (fb << 63)
        assert state != start
    assert state != 0


def test_shipped_golden_vector_file():
    from importlib import resources

    text = resources.files("leakscope").joinpath("data/feistel_golden.csv").read_text()
    rows = text.strip().splitlines()
    assert rows[0] == "x,k1,k2,k3,k4,expected"
    assert len(rows) >= 11
    for row in rows[1:]:
        x, k1, k2, k3, k4, want = row.split(",")
        keys = RoundKeys(tuple(int(k, 16) for k in (k1, k2, k3, k4)))
        assert obfuscate32(int(x, 16), keys) == int(want, 16)
        assert deobfuscate32(int(want, 16), keys) == int(x, 16)


def test_spec_json_roundtrip():
    spec = default_spec()
    again = AffineSpec.from_json(spec.to_json())
    assert again.rows == spec.rows and again.const == spec.const


def test_default_spec_matches_generator():
    rows, const = generate_affine_v1()
    spec = default_spec()
    assert spec.rows == rows and spec.const == const


def test_spec_validation_errors():
    with pytest.raises(ObfuscationError):
        AffineSpec(rows=tuple([1] * 15), const=0)
    with pytest.raises(ObfuscationError):
        AffineSpec(rows=tuple([1] * 16), const=0x10000)
    with pytest.raises(ObfuscationError):
        AffineSpec.from_json("{}")


# --- properties: the vector closed form against the round-by-round reference --

def _edgy(bits):
    """Integers of a width, with 0 and all-ones drawn often."""
    return st.one_of(st.sampled_from([0, (1 << bits) - 1]), st.integers(0, (1 << bits) - 1))


_KEYS = st.tuples(*[_edgy(16)] * 4)
_SPECS = st.one_of(
    st.just(None),
    st.builds(AffineSpec, rows=st.tuples(*[_edgy(32)] * 16), const=_edgy(16)),
)


def _key_arrays(keys, shape=None):
    """Per-element key arrays from a list of 4-tuples."""
    arrs = [np.array([k[r] for k in keys], dtype=np.uint32) for r in range(4)]
    return arrs if shape is None else [a.reshape(shape) for a in arrs]


def _key_constant(keys, spec=None, shape=None):
    """Per-element ``KeyConstant`` from a list of 4-tuples."""
    return KeyConstant.of(_key_arrays(keys, shape), spec)


def _ref64(x, keys, spec):
    """obfuscate64 from the naive round-by-round reference, half by half."""
    spec = spec or default_spec()
    return (ref_obfuscate32(x >> 32, keys, spec.rows, spec.const) << 32) | \
        ref_obfuscate32(x & 0xFFFFFFFF, keys, spec.rows, spec.const)


@settings(max_examples=60, deadline=None, database=None)
@given(st.lists(st.tuples(_edgy(32), _KEYS, _KEYS), min_size=1, max_size=12), _SPECS)
def test_vec32_forward_inverse_and_rekey_match_scalar_reference(cases, spec):
    xs = np.array([x for x, _, _ in cases], dtype=np.uint32)
    old = _key_constant([k for _, k, _ in cases], spec)
    new = _key_constant([k for _, _, k in cases], spec)
    ys = obfuscate32_vec(xs, old)
    back = deobfuscate32_vec(ys, old)
    rekeyed = ys ^ old.k32 ^ new.k32
    rows, const = (spec or default_spec()).rows, (spec or default_spec()).const
    for i, (x, ko, kn) in enumerate(cases):
        want = ref_obfuscate32(x, ko, rows, const)
        assert int(ys[i]) == want == obfuscate32(x, RoundKeys(ko), spec)
        assert int(back[i]) == x == deobfuscate32(want, RoundKeys(ko), spec)
        assert int(rekeyed[i]) == remap(want, RoundKeys(ko), RoundKeys(kn), spec) \
            == ref_obfuscate32(x, kn, rows, const)


@settings(max_examples=40, deadline=None, database=None)
@given(st.lists(st.tuples(_edgy(64), _KEYS), min_size=1, max_size=8), _SPECS)
def test_vec64_matches_scalar_reference(cases, spec):
    xs = np.array([x for x, _ in cases], dtype=np.uint64)
    ks = _key_constant([k for _, k in cases], spec)
    ys = obfuscate64_vec(xs, ks)
    assert [int(y) for y in ys] == [_ref64(x, k, spec) for x, k in cases]
    assert np.array_equal(deobfuscate64_vec(ys, ks), xs)
    for (x, k), y in zip(cases, ys):
        assert deobfuscate64(int(y), RoundKeys(k), spec) == x


@settings(max_examples=40, deadline=None, database=None)
@given(st.lists(st.tuples(st.lists(_edgy(64), min_size=8, max_size=8), _KEYS, _KEYS),
                min_size=1, max_size=5))
def test_vec64_line_keys_broadcast_matches_scalar_reference(lines):
    # cache lines: (n, 8) words, one key set per row given as (n, 1) arrays
    xs = np.array([words for words, _, _ in lines], dtype=np.uint64)
    old = _key_constant([k for _, k, _ in lines], shape=(-1, 1))
    new = _key_constant([k for _, _, k in lines], shape=(-1, 1))
    ys = obfuscate64_vec(xs, old)
    assert ys.shape == xs.shape
    assert np.array_equal(deobfuscate64_vec(ys, old), xs)
    mask = (old.k32 ^ new.k32).astype(np.uint64)
    rekeyed = ys ^ (mask | (mask << np.uint64(32)))
    for (words, ko, kn), row, rk_row in zip(lines, ys, rekeyed):
        assert [int(y) for y in row] == [_ref64(w, ko, None) for w in words]
        assert [int(y) for y in rk_row] == [_ref64(w, kn, None) for w in words]


@settings(max_examples=30, deadline=None, database=None)
@given(_KEYS, _SPECS)
def test_key_constant_is_the_image_of_zero(keys, spec):
    assert int(KeyConstant.of(RoundKeys(keys), spec).k32) == obfuscate32(0, RoundKeys(keys), spec)
    assert int(obfuscate32_vec(np.uint32(0), KeyConstant.of(keys, spec))) == \
        obfuscate32(0, RoundKeys(keys), spec)


@settings(max_examples=40, deadline=None, database=None)
@given(st.lists(st.tuples(_edgy(64), _KEYS), min_size=1, max_size=8), _edgy(64), _SPECS)
def test_key_constant_stands_in_for_the_keys(cases, const, spec):
    # a constant of per-element key arrays stands in for each element's round keys
    xs = np.array([x for x, _ in cases], dtype=np.uint64)
    ks = _key_arrays([k for _, k in cases])
    kc = KeyConstant.of(ks, spec)
    x32 = (xs >> np.uint64(16)).astype(np.uint32)
    for fn, scalar, x in ((obfuscate64_vec, obfuscate64, xs),
                          (deobfuscate64_vec, deobfuscate64, xs),
                          (obfuscate32_vec, obfuscate32, x32),
                          (deobfuscate32_vec, deobfuscate32, x32)):
        want = [scalar(int(v), RoundKeys(k), spec) for v, (_, k) in zip(x, cases)]
        assert [int(y) for y in fn(x, kc)] == want, fn.__name__
    # a 0-d word is one lookup, broadcast against the per-element K
    assert np.array_equal(obfuscate64_vec(np.uint64(const), kc),
                          obfuscate64_vec(np.full(len(xs), const, dtype=np.uint64), kc))
    # indexing selects elements, here as (n, 1) columns for cache lines
    lines = np.stack([xs, ~xs], axis=1)
    col = [k[:, None] for k in ks]
    assert np.array_equal(obfuscate64_vec(lines, kc[:, None]),
                          obfuscate64_vec(lines, KeyConstant.of(col, spec)))
    assert np.array_equal(deobfuscate64_vec(lines[::-1], kc[::-1, None]),
                          deobfuscate64_vec(lines[::-1],
                                            KeyConstant.of([c[::-1] for c in col], spec)))


# --- the security consequence of the closed form ----------------------------------

@settings(max_examples=200, deadline=None, database=None)
@given(_edgy(32), _edgy(32), _KEYS, _KEYS, _SPECS)
def test_within_an_epoch_the_obfuscated_distance_does_not_depend_on_the_key(x1, x2, ka, kb, spec):
    # obf(x1) ^ obf(x2) = L(x1 ^ x2): the same under every key, so the Hamming
    # distance between two words stored in one key epoch is key-independent
    da = obfuscate32(x1, RoundKeys(ka), spec) ^ obfuscate32(x2, RoundKeys(ka), spec)
    db = obfuscate32(x1, RoundKeys(kb), spec) ^ obfuscate32(x2, RoundKeys(kb), spec)
    assert da == db
    assert da.bit_count() == db.bit_count()
    assert da == obfuscate32(x1 ^ x2, RoundKeys((0, 0, 0, 0)), spec) ^ \
        obfuscate32(0, RoundKeys((0, 0, 0, 0)), spec)


@settings(max_examples=100, deadline=None, database=None)
@given(st.lists(_edgy(32), min_size=2, max_size=10), _KEYS, _KEYS, _SPECS)
def test_rekeying_xors_every_word_with_one_key_dependent_constant(xs, ka, kb, spec):
    old, new = RoundKeys(ka), RoundKeys(kb)
    shifts = {obfuscate32(x, new, spec) ^ obfuscate32(x, old, spec) for x in xs}
    assert shifts == {obfuscate32(0, old, spec) ^ obfuscate32(0, new, spec)}


@pytest.mark.parametrize("zero", ["in every word", "in some words", "in no word"])
def test_vec_matches_scalar_on_byte_positions_zero_in_every_or_some_words(zero):
    # the vector functions skip the lookups of a byte position that is 0 in
    # every word; one word with a nonzero byte there must still count
    rng = random.Random(zero)
    positions = rng.sample(range(8), 5)   # byte positions made zero
    keys = [tuple(rng.getrandbits(16) for _ in range(4)) for _ in range(7)]
    words = []
    for i in range(7):
        word = rng.getrandbits(64)
        for j in positions:
            if zero == "in every word" or (zero == "in some words" and i % 3 != 2):
                word &= ~(0xFF << 8 * j)
            else:
                word |= (rng.randint(1, 255) << 8 * j)
        words.append(word)
    xs = np.array(words, dtype=np.uint64)
    kc = _key_constant(keys)
    assert [int(y) for y in obfuscate64_vec(xs, kc)] == \
        [obfuscate64(w, RoundKeys(k)) for w, k in zip(words, keys)]
    assert [int(y) for y in deobfuscate64_vec(xs, kc)] == \
        [deobfuscate64(w, RoundKeys(k)) for w, k in zip(words, keys)]
    for half in (xs & np.uint64(0xFFFFFFFF), xs >> np.uint64(32)):
        half = half.astype(np.uint32)
        assert [int(y) for y in obfuscate32_vec(half, kc)] == \
            [obfuscate32(int(w), RoundKeys(k)) for w, k in zip(half, keys)]
        assert [int(y) for y in deobfuscate32_vec(half, kc)] == \
            [deobfuscate32(int(w), RoundKeys(k)) for w, k in zip(half, keys)]


def test_vec_of_an_empty_array_is_empty():
    kc = _key_constant([])
    for fn, dtype in ((obfuscate64_vec, np.uint64), (deobfuscate64_vec, np.uint64),
                      (obfuscate32_vec, np.uint32), (deobfuscate32_vec, np.uint32)):
        out = fn(np.array([], dtype=dtype), kc)
        assert out.shape == (0,) and out.dtype == dtype, fn.__name__
