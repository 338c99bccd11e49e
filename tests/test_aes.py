import random

import numpy as np
import pytest

from leakscope import aes


# --- independent oracles -----------------------------------------------------

def gf_mul(a, b):
    """GF(2^8) multiply by shift-and-add with explicit reduction."""
    acc = 0
    for i in range(8):
        if (b >> i) & 1:
            acc ^= a << i
    for bit in range(15, 7, -1):
        if (acc >> bit) & 1:
            acc ^= 0x11B << (bit - 8)
    return acc


def gf_inv(a):
    if a == 0:
        return 0
    for x in range(1, 256):
        if gf_mul(a, x) == 1:
            return x
    raise AssertionError


def reference_sbox_entry(a):
    """S-box from first principles: GF inverse then the bitwise affine map."""
    x = gf_inv(a)
    out = 0
    for i in range(8):
        bit = (
            (x >> i) ^ (x >> ((i + 4) % 8)) ^ (x >> ((i + 5) % 8))
            ^ (x >> ((i + 6) % 8)) ^ (x >> ((i + 7) % 8)) ^ (0x63 >> i)
        ) & 1
        out |= bit << i
    return out


def test_sbox_against_gf_construction():
    for a in range(256):
        assert aes.SBOX[a] == reference_sbox_entry(a)


def test_xtime_against_gf_multiply():
    for a in range(256):
        assert aes.xtime(a) == gf_mul(a, 2)
    assert aes.xtime(0x63) == 0xC6


def test_fips_appendix_vector():
    pt = bytes.fromhex("00112233445566778899aabbccddeeff")
    key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
    assert aes.aes128_encrypt(pt, key).hex() == "69c4e0d86a7b0430d8cdb78070b4c55a"


def test_key_schedule_known_first_words():
    # FIPS-197 Appendix A.1 expansion of 2b7e151628aed2a6abf7158809cf4f3c
    key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
    rks = aes.key_schedule(key)
    assert rks[0] == key
    assert rks[1].hex() == "a0fafe1788542cb123a339392a6c7605"
    assert rks[10].hex() == "d014f9a8c9ee2589e13f0cc8b6630ca6"


def test_against_cryptography_library():
    from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

    rng = random.Random(123)
    for _ in range(50):
        pt = rng.randbytes(16)
        key = rng.randbytes(16)
        enc = Cipher(algorithms.AES(key), modes.ECB()).encryptor()
        want = enc.update(pt) + enc.finalize()
        assert aes.aes128_encrypt(pt, key) == want


def test_encrypt_is_bijection_per_key():
    rng = random.Random(7)
    key = rng.randbytes(16)
    pts = {rng.randbytes(16) for _ in range(1000)}
    cts = {aes.aes128_encrypt(p, key) for p in pts}
    assert len(cts) == len(pts)


def test_sbox_zero():
    assert aes.SBOX[0x00] == 0x63
    assert aes.first_round_value(0x00, 0x00, "sbox_out") == 0x63


def test_first_round_value_trivials():
    assert aes.first_round_value(0x00, 0x00, "xor_key") == 0x00
    assert aes.first_round_value(0x00, 0x00, "sbox_out_times2") == 0xC6
    assert aes.first_round_value(0x53, 0xCA, "xor_key") == 0x53 ^ 0xCA


def test_first_round_value_errors():
    with pytest.raises(ValueError):
        aes.first_round_value(0, 0, "last_round")
    with pytest.raises(ValueError):
        aes.first_round_value(256, 0, "xor_key")


def test_xor_key_symmetric_in_arguments():
    rng = random.Random(5)
    for _ in range(200):
        p, k = rng.getrandbits(8), rng.getrandbits(8)
        assert aes.first_round_value(p, k, "xor_key") == aes.first_round_value(k, p, "xor_key")


@pytest.mark.parametrize("point", sorted(aes.POINT_FUNCTIONS))
def test_every_point_function_depends_only_on_plaintext_xor_guess(point):
    # f(p, g) = f(p ^ g, 0): a CPA hypothesis is a function of p ^ g alone,
    # which a Walsh-Hadamard correlation over the 256 guesses rests on
    fn = aes.POINT_FUNCTIONS[point]
    for p in range(256):
        assert [fn(p, g) for g in range(256)] == [fn(p ^ g, 0) for g in range(256)], p


def test_sbox_out_bijective_in_plaintext():
    for k in (0x00, 0x5A, 0xFF):
        seen = {aes.first_round_value(p, k, "sbox_out") for p in range(256)}
        assert len(seen) == 256


def test_gen_oracle_definition():
    key = bytes(range(16))
    pts = [bytes.fromhex("00" * 16), bytes.fromhex("ff" * 16)]
    o = aes.gen_oracle(pts, key, "xor_key", byte_index=0)
    assert o.values == (0x00 ^ key[0], 0xFF ^ key[0])
    assert o.label == "xor_key_b0"
    assert o.width == 8


def test_gen_oracle_constant_plaintexts():
    key = bytes(16)
    pts = [bytes(16)] * 5
    o = aes.gen_oracle(pts, key, "sbox_out", byte_index=3)
    assert set(o.values) == {0x63}


def test_gen_oracle_matches_instrumented_encrypt():
    # recompute S(p ^ k) for byte 5 by tracing the real cipher's first round
    rng = random.Random(99)
    key = rng.randbytes(16)
    pts = [rng.randbytes(16) for _ in range(100)]
    o = aes.gen_oracle(pts, key, "sbox_out", byte_index=5)
    rks = aes.key_schedule(key)
    for pt, got in zip(pts, o.values):
        state = bytearray(a ^ b for a, b in zip(pt, rks[0]))
        subbed = bytes(aes.SBOX[b] for b in state)
        assert got == subbed[5]


def test_gen_oracle_validation():
    with pytest.raises(ValueError):
        aes.gen_oracle([bytes(16)], bytes(16), "sbox_out")
    with pytest.raises(ValueError):
        aes.gen_oracle([bytes(16)] * 2, bytes(16), "sbox_out", byte_index=16)


def test_block_file_roundtrip(tmp_path):
    rng = random.Random(3)
    blocks = np.frombuffer(rng.randbytes(5 * 16), dtype=np.uint8).reshape(5, 16)
    path = tmp_path / "blocks.txt"
    aes.write_blocks_hex(path, blocks)
    got = aes.read_blocks_hex(path)
    assert got.dtype == np.uint8 and np.array_equal(got, blocks)


def test_block_file_writer_matches_one_line_per_block(tmp_path):
    # the bytes of the per-block writer the array writer replaced
    rng = random.Random(4)
    for n in (0, 1, 5000):
        blocks = np.frombuffer(rng.randbytes(n * 16), dtype=np.uint8).reshape(n, 16)
        path = tmp_path / f"blocks{n}.txt"
        aes.write_blocks_hex(path, blocks)
        assert path.read_bytes() == "".join(bytes(b).hex() + "\n" for b in blocks).encode()


def test_block_file_reader_skips_blank_and_comment_lines(tmp_path):
    rng = random.Random(5)
    blocks = [rng.randbytes(16) for _ in range(7)]
    # padded, upper case, and bytes apart: lines the reader takes
    lines = ["# header", ""] + [f"  {b.hex().upper()}  " for b in blocks[:3]] \
        + [blocks[3].hex(" "), "", "# mid"] + [b.hex() for b in blocks[4:]] + [""]
    path = tmp_path / "blocks.txt"
    path.write_text("\n".join(lines))
    got = aes.read_blocks_hex(path)
    assert got.shape == (7, 16) and bytes(got) == b"".join(blocks)
    path.write_text("# nothing\n\n")
    assert aes.read_blocks_hex(path).shape == (0, 16)
    path.write_text("\n".join([bytes(16).hex()] * 8 + ["00" * 15]))
    with pytest.raises(ValueError, match="line 9 is 15 bytes"):
        aes.read_blocks_hex(path)


def _block_lines(blocks, upper=()):
    return [b.hex().upper() if i in upper else b.hex() for i, b in enumerate(blocks)]


def test_block_file_reader_decodes_whole_reads_and_falls_back_line_by_line(tmp_path):
    # more lines than one read holds, so later reads and a switch to the
    # line loop inside a read are both taken
    rng = random.Random(8)
    n = aes._READ_LINES + 1000
    blocks = [rng.randbytes(16) for _ in range(n)]
    want = b"".join(blocks)
    path = tmp_path / "blocks.txt"
    mixed = _block_lines(blocks, upper=range(0, n, 3))
    cases = {
        "mixed case": "\n".join(mixed) + "\n",
        "no final newline": "\n".join(mixed),
        "comment and blank lines in a later read": "\n".join(
            mixed[:n - 10] + ["# mid", ""] + mixed[n - 10:]) + "\n",
    }
    for name, text in cases.items():
        path.write_text(text)
        assert bytes(aes.read_blocks_hex(path)) == want, name
    path.write_bytes(("\r\n".join(mixed) + "\r\n").encode())
    assert bytes(aes.read_blocks_hex(path)) == want


def test_block_file_errors_in_a_later_read_name_their_line(tmp_path):
    rng = random.Random(9)
    lines = _block_lines([rng.randbytes(16) for _ in range(aes._READ_LINES + 50)])
    path = tmp_path / "bad.txt"
    for at, bad, message in ((aes._READ_LINES + 7, "0g" * 16, "bad hex at line {}$"),
                             (aes._READ_LINES, "zz" * 16, "bad hex at line {}$"),
                             (aes._READ_LINES + 30, "00" * 17, "line {} is 17 bytes")):
        path.write_text("\n".join(lines[:at - 1] + [bad] + lines[at:]) + "\n")
        with pytest.raises(ValueError, match=message.format(at)):
            aes.read_blocks_hex(path)


def test_block_file_reading_holds_about_the_array(tmp_path):
    # 16 bytes a block, twice while the pieces are joined; a list of 49-byte
    # bytes objects alone takes about 5.7 MB for 100 000 blocks
    import tracemalloc

    n = 100_000
    blocks = np.random.default_rng(6).integers(0, 256, (n, 16), dtype=np.uint8)
    path = tmp_path / "blocks.txt"
    aes.write_blocks_hex(path, blocks)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        got = aes.read_blocks_hex(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, blocks)
    assert peak - base < 3 * 16 * n, peak - base


def test_block_file_errors(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("00112233\n")
    with pytest.raises(ValueError, match="line 1"):
        aes.read_blocks_hex(path)
    path.write_text("zz" * 16 + "\n")
    with pytest.raises(ValueError, match="bad hex"):
        aes.read_blocks_hex(path)


def test_block_file_errors_name_the_line_when_lengths_add_up(tmp_path):
    # two bad lines whose digits add up to two blocks still fail at line 1
    path = tmp_path / "bad.txt"
    path.write_text("00" * 15 + "\n" + "00" * 17 + "\n")
    with pytest.raises(ValueError, match="line 1 is 15 bytes, expected 16"):
        aes.read_blocks_hex(path)
    path.write_text("0" * 31 + "\n" + "0" * 33 + "\n")
    with pytest.raises(ValueError, match="bad hex at line 1"):
        aes.read_blocks_hex(path)
