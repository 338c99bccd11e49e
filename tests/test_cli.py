import functools
import io
import json
import os
import subprocess
import sys
import zipfile

import numpy as np
import pytest

from leakscope import aes, cli, cpa, metrics
from leakscope.cli import main
from leakscope.sim import save_traces_npz
from peak_rss import cli_rss_growth_mb
from reference import write_trace_csv

KEY_HEX = "2b7e151628aed2a6abf7158809cf4f3c"


def run_cli(*argv):
    return main(list(argv))


def test_obfuscate_roundtrip(capsys):
    assert run_cli("obfuscate", "deadbeef", "--keys", "1111,2222,3333,4444") == 0
    forward = capsys.readouterr().out.strip()
    assert forward == "018cc81b"
    assert run_cli("obfuscate", forward, "--keys", "1111,2222,3333,4444",
                   "--inverse") == 0
    assert capsys.readouterr().out.strip() == "deadbeef"


def test_obfuscate_zero_spec_override(tmp_path, capsys):
    # all-zero matrix: rounds only shuffle halves, zero maps to itself
    spec = {"version": "zero", "rows": ["00000000"] * 16, "const": "0000"}
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(spec))
    assert run_cli("obfuscate", "00000000", "--keys", "1,2,3,4",
                   "--spec", str(path)) == 0
    assert capsys.readouterr().out.strip() == "00000000"


def test_obfuscate_bad_inputs(capsys):
    assert run_cli("obfuscate", "zzz", "--keys", "1,2,3,4") == 2
    assert "zzz" in capsys.readouterr().err
    assert run_cli("obfuscate", "12", "--keys", "1,2,3") == 2
    assert "k1,k2,k3,k4" in capsys.readouterr().err


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim")
    cfg = out / "config"
    cfg.write_text("mode = param\nnoise_sigma = 1.0\nrounds = 10\n"
                   "rekey_interval_runs = 2\nseed = 44\n")
    code = run_cli("simulate", "--key", KEY_HEX, "--gen", "5",
                   "--config", str(cfg), "--out", str(out / "a"))
    assert code == 0
    return out


def test_simulate_artifacts_and_manifest(sim_dir):
    man = json.loads((sim_dir / "a" / "manifest.json").read_text())
    assert man["config"]["mode"] == "param"
    assert man["rekey_runs"] == [2, 4]
    assert man["key_hex"] == KEY_HEX
    pts = aes.read_blocks_hex(sim_dir / "a" / "plaintexts.txt")
    cts = aes.read_blocks_hex(sim_dir / "a" / "ciphertexts.txt")
    key = bytes.fromhex(KEY_HEX)
    assert len(pts) == len(cts) == 5
    assert all(aes.aes128_encrypt(bytes(p), key) == bytes(c) for p, c in zip(pts, cts))


def test_simulate_reproducible_byte_for_byte(sim_dir):
    cfg = sim_dir / "config"
    assert run_cli("simulate", "--key", KEY_HEX, "--gen", "5",
                   "--config", str(cfg), "--out", str(sim_dir / "b")) == 0
    for name in ("traces.npz", "plaintexts.txt", "ciphertexts.txt"):
        assert (sim_dir / "a" / name).read_bytes() == (sim_dir / "b" / name).read_bytes()
    ma = json.loads((sim_dir / "a" / "manifest.json").read_text())
    mb = json.loads((sim_dir / "b" / "manifest.json").read_text())
    for doc, sub in ((ma, "a"), (mb, "b")):
        doc["artifacts"] = {k: v.replace(f"/{sub}/", "/X/")
                            for k, v in doc["artifacts"].items()}
        doc["plaintexts"] = doc["plaintexts"].replace(f"/{sub}/", "/X/")
    assert ma == mb


# SHA-256 over runs.txt and every VCD of a 4-run baseline `simulate --vcd`
# (rounds 1, sigma 0, seed 9), recorded before the VCD header was built once
# per element catalog; it pins every byte of the dumps.
GOLDEN_VCD_RUN_SET = "c6fdd3821aae380b2055270950908d469bf67bffdf8ff4c7cb69dd0648faf953"


def test_simulate_vcd_run_set_matches_golden_hash(tmp_path):
    import hashlib

    cfg = tmp_path / "config"
    cfg.write_text("mode = baseline\nnoise_sigma = 0.0\nrounds = 1\nseed = 9\n")
    out = tmp_path / "v"
    assert run_cli("simulate", "--key", KEY_HEX, "--gen", "4", "--vcd",
                   "--config", str(cfg), "--out", str(out)) == 0
    h = hashlib.sha256()
    names = ["runs.txt"] + [line.split()[0] for line in
                            (out / "runs.txt").read_text().splitlines()]
    assert len(names) == 5
    for name in names:
        data = (out / name).read_bytes()
        h.update(f"{name} {len(data)}\n".encode())
        h.update(data)
    assert h.hexdigest() == GOLDEN_VCD_RUN_SET


# The same digest over a 5-run param `simulate --vcd` (rounds 1, sigma 0,
# seed 9) with a new key epoch every 2 runs, with the EDA translation fix on
# and off. It pins the param log path: obfuscated latches, shadow registers,
# PRF fills and the obfuscated address latch.
GOLDEN_PARAM_VCD_RUN_SET = {
    "on": "b3d217bc6eb29cf9db60e427b4ca01d8fc786cd71e840f6c6ab5a836bc517e0e",
    "off": "c318c8a203db8cf3f5d1e160cd3a7fefff8e5e0a8918e18d1d79c1fe867ad02f",
}


@pytest.mark.parametrize("eda_fix", ["on", "off"])
def test_param_simulate_vcd_run_set_matches_golden_hash(tmp_path, eda_fix):
    import hashlib

    cfg = tmp_path / "config"
    cfg.write_text(f"mode = param\neda_fix = {eda_fix}\nnoise_sigma = 0.0\nrounds = 1\n"
                   "rekey_interval_runs = 2\nseed = 9\n")
    out = tmp_path / "v"
    assert run_cli("simulate", "--key", KEY_HEX, "--gen", "5", "--vcd",
                   "--config", str(cfg), "--out", str(out)) == 0
    assert json.loads((out / "manifest.json").read_text())["rekey_runs"] == [2, 4]
    h = hashlib.sha256()
    names = ["runs.txt"] + [line.split()[0] for line in
                            (out / "runs.txt").read_text().splitlines()]
    assert len(names) == 6
    for name in names:
        data = (out / name).read_bytes()
        h.update(f"{name} {len(data)}\n".encode())
        h.update(data)
    assert h.hexdigest() == GOLDEN_PARAM_VCD_RUN_SET[eda_fix]


def test_manifest_schema(sim_dir):
    import jsonschema
    from importlib import resources

    schema = json.loads(
        resources.files("leakscope").joinpath("schemas/run_manifest.schema.json").read_text()
    )
    man = json.loads((sim_dir / "a" / "manifest.json").read_text())
    jsonschema.validate(man, schema)


LEAKY_VCD_HEADER = """\
$timescale 1ns $end
$scope module soc $end
$var wire 1 ! clk $end
$scope module leaky $end
$var wire 8 " word $end
$upscope $end
$scope module quiet $end
$var wire 8 # word $end
$upscope $end
$upscope $end
$enddefinitions $end
"""


def _fixture_vcd(value):
    body = [
        "#0", "$dumpvars", "0!", f"b{value:b} \"", "b1111111 #", "$end",
        "#10", "1!", "#15", "0!",
        "#20", "1!", "#25", "0!",
    ]
    return LEAKY_VCD_HEADER + "\n".join(body) + "\n"


def test_analyze_synthetic_two_module_fixture(tmp_path, capsys):
    rng = np.random.default_rng(12)
    values = rng.integers(0, 256, size=12)
    paths = []
    for i, v in enumerate(values):
        p = tmp_path / f"r{i}.vcd"
        p.write_text(_fixture_vcd(int(v)))
        paths.append(p)
    manifest = tmp_path / "runs.txt"
    manifest.write_text("".join(f"r{i}.vcd\n" for i in range(len(values))))
    oracle = metrics.OracleTrace(values=tuple(int(v) for v in values), width=8,
                                 label="direct")
    metrics.write_oracle_csv(tmp_path / "oracle.csv", [oracle])
    out = tmp_path / "report.json"
    code = run_cli("analyze", "--runs", str(manifest), "--oracle",
                   str(tmp_path / "oracle.csv"), "--out", str(out),
                   "--floor-shuffles", "300")
    assert code == 0
    doc = json.loads(out.read_text())
    by_name = {tuple(m["module_path"]): m for m in doc["modules"]}
    assert by_name[("soc", "leaky")]["severity"] == "red"
    assert by_name[("soc", "leaky")]["svf"] == pytest.approx(1.0, abs=1e-9)
    assert by_name[("soc", "quiet")]["severity"] == "blue"
    assert by_name[("soc", "quiet")]["svf"] == 0.0
    assert doc["modules"][0]["module_path"] == ["soc", "leaky"]

    import jsonschema
    from importlib import resources

    schema = json.loads(
        resources.files("leakscope").joinpath("schemas/leakage_report.schema.json").read_text()
    )
    jsonschema.validate(doc, schema)


def test_analyze_window_and_threads(tmp_path):
    rng = np.random.default_rng(3)
    values = rng.integers(0, 256, size=8)
    for i, v in enumerate(values):
        (tmp_path / f"r{i}.vcd").write_text(_fixture_vcd(int(v)))
    manifest = tmp_path / "runs.txt"
    manifest.write_text("".join(f"r{i}.vcd\n" for i in range(len(values))))
    oracle = metrics.OracleTrace(values=tuple(int(v) for v in values), width=8,
                                 label="direct")
    metrics.write_oracle_csv(tmp_path / "oracle.csv", [oracle])
    out = tmp_path / "report.json"
    code = run_cli("analyze", "--runs", str(manifest), "--oracle",
                   str(tmp_path / "oracle.csv"), "--out", str(out),
                   "--floor-shuffles", "50", "--window", "2:2", "--threads", "2")
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["window"] == [2, 2]
    # the fixture's value is constant from cycle 1 on; restricting to cycle 2
    # still sees it, and peak_cycle stays absolute
    by_name = {tuple(m["module_path"]): m for m in doc["modules"]}
    assert by_name[("soc", "leaky")]["peak_cycle"] == 2

    bad = run_cli("analyze", "--runs", str(manifest), "--oracle",
                  str(tmp_path / "oracle.csv"), "--out", str(out),
                  "--window", "nope")
    assert bad == 2


def test_analyze_negative_floor_shuffles_fails_before_loading(tmp_path, capsys, monkeypatch):
    def no_load(*args, **kwargs):
        raise AssertionError("runs loaded with an invalid --floor-shuffles")

    for i in range(2):
        (tmp_path / f"r{i}.vcd").write_text(_fixture_vcd(i))
    manifest = tmp_path / "runs.txt"
    manifest.write_text("r0.vcd\nr1.vcd\n")
    metrics.write_oracle_csv(tmp_path / "oracle.csv",
                             [metrics.OracleTrace(values=(1, 2), width=8, label="o")])
    monkeypatch.setattr(cli, "load_run_set", no_load)
    code = run_cli("analyze", "--runs", str(manifest), "--oracle", str(tmp_path / "oracle.csv"),
                   "--floor-shuffles", "-5", "--out", str(tmp_path / "x.json"))
    assert code == 2
    assert "--floor-shuffles: must be >= 0, got -5" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("window", ["5:2", "0:0", "3:0"])
def test_analyze_empty_window_fails_before_loading(tmp_path, capsys, monkeypatch, window):
    def no_load(*args, **kwargs):
        raise AssertionError("runs loaded with an empty --window")

    manifest = tmp_path / "runs.txt"
    manifest.write_text("r0.vcd\nr1.vcd\n")
    monkeypatch.setattr(cli, "load_run_set", no_load)
    code = run_cli("analyze", "--runs", str(manifest), "--oracle", str(tmp_path / "oracle.csv"),
                   "--window", window, "--out", str(tmp_path / "x.json"))
    assert code == 2
    assert f"--window: empty window {window}" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_analyze_threads_below_one_fails_before_loading(tmp_path, capsys, monkeypatch, threads):
    def no_load(*args, **kwargs):
        raise AssertionError("runs loaded with an invalid --threads")

    manifest = tmp_path / "runs.txt"
    manifest.write_text("r0.vcd\nr1.vcd\n")
    monkeypatch.setattr(cli, "load_run_set", no_load)
    code = run_cli("analyze", "--runs", str(manifest), "--oracle", str(tmp_path / "oracle.csv"),
                   "--threads", threads, "--out", str(tmp_path / "x.json"))
    assert code == 2
    assert f"--threads: must be >= 1, got {threads}" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


def test_analyze_oracle_count_mismatch(tmp_path, capsys):
    for i in range(2):
        (tmp_path / f"r{i}.vcd").write_text(_fixture_vcd(i))
    manifest = tmp_path / "runs.txt"
    manifest.write_text("r0.vcd\nr1.vcd\n")
    oracle = metrics.OracleTrace(values=(1, 2, 3), width=8, label="o")
    metrics.write_oracle_csv(tmp_path / "oracle.csv", [oracle])
    code = run_cli("analyze", "--runs", str(manifest), "--oracle",
                   str(tmp_path / "oracle.csv"), "--out", str(tmp_path / "x.json"))
    assert code == 2
    err = capsys.readouterr().err
    assert "3 values" in err and "2 runs" in err


def test_analyze_header_only_oracle_csv_names_the_file(tmp_path, capsys):
    for i in range(2):
        (tmp_path / f"r{i}.vcd").write_text(_fixture_vcd(i))
    manifest = tmp_path / "runs.txt"
    manifest.write_text("r0.vcd\nr1.vcd\n")
    oracle = tmp_path / "oracle.csv"
    oracle.write_text("run_index,point_label,value_hex\n")
    code = run_cli("analyze", "--runs", str(manifest), "--oracle", str(oracle),
                   "--out", str(tmp_path / "x.json"))
    assert code == 2
    assert f"oracle csv {oracle}: no oracle rows after the header" in capsys.readouterr().err


def test_analyze_malformed_vcd_names_the_file_and_line(tmp_path, capsys):
    for i in range(3):
        (tmp_path / f"r{i}.vcd").write_text(_fixture_vcd(i))
    bad = tmp_path / "r2.vcd"
    bad.write_text(bad.read_text() + "#zz\n")
    line = bad.read_text().count("\n")
    manifest = tmp_path / "runs.txt"
    manifest.write_text("r0.vcd\nr1.vcd\nr2.vcd\n")
    metrics.write_oracle_csv(tmp_path / "oracle.csv",
                             [metrics.OracleTrace(values=(1, 2, 3), width=8, label="o")])
    argv = ["analyze", "--runs", str(manifest), "--oracle", str(tmp_path / "oracle.csv"),
            "--out", str(tmp_path / "x.json")]
    assert run_cli(*argv) == 2
    assert capsys.readouterr().err == f"error: {bad}: line {line}: bad timestamp '#zz'\n"
    assert run_cli(*argv, "--clock", "nope") == 2
    assert capsys.readouterr().err == \
        f"error: {tmp_path / 'r0.vcd'}: clock signal 'nope' not found\n"


def test_dpa_on_simulated_traces(sim_dir, tmp_path, capsys):
    out = tmp_path / "dpa"
    code = run_cli("dpa", "--traces", str(sim_dir / "a" / "traces.npz"),
                   "--out", str(out), "--checkpoint", "3", "--target-byte", "0")
    assert code == 0
    doc = json.loads((out / "attack.json").read_text())
    assert "mtd" in doc and len(doc["ranks"]) == 256

    import jsonschema
    from importlib import resources

    schema = json.loads(
        resources.files("leakscope").joinpath("schemas/attack_result.schema.json").read_text()
    )
    jsonschema.validate(doc, schema)
    evo = (out / "evolution.csv").read_text().splitlines()
    assert evo[0] == "trace_count,guess,max_abs_rho"


# The loose bound of the block attacks: an attack that builds a trace-sized
# class index and centred copy grew RSS by about 125 MB. A float64 cast on
# load (source and result briefly live together, 1.5 times the float64
# bytes) grew it by 47 MB; the float32 samples alone are half the float64
# bytes, which the test below bounds.
def test_dpa_memory_is_bounded_by_the_traces(tmp_path):
    n, d = 20_000, 207
    rng = np.random.default_rng(3)
    path = tmp_path / "traces.npz"
    save_traces_npz(path, rng.normal(500, 80, size=(n, d)),
                    rng.integers(0, 256, size=(n, 16), dtype=np.uint8), key=bytes(16))
    growth = cli_rss_growth_mb(["dpa", "--traces", path, "--checkpoint", 1000,
                                "--out", tmp_path / "dpa"])
    trace_mb = n * d * 8 / 2**20
    assert growth <= 2 * trace_mb + 16, (growth, trace_mb)


# Loading keeps the archive's float32 samples (half the float64 bytes, 16 MB
# here) and the attacks add only cache-sized blocks: a float64 copy on load
# would add the other 32 MB.
def test_dpa_memory_holds_only_the_stored_float32_samples(tmp_path):
    n, d = 20_000, 207
    rng = np.random.default_rng(3)
    path = tmp_path / "traces.npz"
    save_traces_npz(path, rng.normal(500, 80, size=(n, d)),
                    rng.integers(0, 256, size=(n, 16), dtype=np.uint8), key=bytes(16))
    growth = cli_rss_growth_mb(["dpa", "--traces", path, "--checkpoint", 1000,
                                "--out", tmp_path / "dpa"])
    trace_mb = n * d * 8 / 2**20
    assert growth <= 0.5 * trace_mb + 16, (growth, trace_mb)


# simulate streams each chunk's rows into the archive, so what it holds is
# one chunk's machine and toggles, whatever the trace count; holding the
# (N, d) array and its float32 copy grew by about 115 MB more at 49 152
def test_simulate_memory_does_not_grow_with_the_trace_count(tmp_path):
    cfg = tmp_path / "param.cfg"
    cfg.write_text("mode = param\nrounds = 1\nnoise_sigma = 80.0\n"
                   "rekey_interval_runs = 1000\nseed = 1\n")
    growth = {n: cli_rss_growth_mb(["simulate", "--config", cfg, "--key", KEY_HEX,
                                    "--gen", n, "--out", tmp_path / str(n)])
              for n in (8192, 49_152)}
    assert growth[49_152] - growth[8192] < 16, growth


def test_simulate_failing_in_its_second_chunk_leaves_no_archive(tmp_path, monkeypatch, capsys):
    from leakscope.sim import TraceArchive

    out = tmp_path / "sim"
    monkeypatch.setattr(cli, "run_aes_batch", functools.partial(cli.run_aes_batch, max_lanes=4))
    write_rows, seen = TraceArchive.write_rows, []

    def full_disk_in_chunk_two(self, rows):
        seen.append(sorted(p.name for p in out.iterdir()))
        if len(seen) == 2:
            raise OSError(28, "No space left on device")
        write_rows(self, rows)

    monkeypatch.setattr(TraceArchive, "write_rows", full_disk_in_chunk_two)
    assert run_cli("simulate", "--key", KEY_HEX, "--gen", "10", "--out", str(out)) == 1
    assert "No space left on device" in capsys.readouterr().err
    # the first chunk's rows went to the temporary file; nothing is left of it
    assert seen == [["plaintexts.txt", "traces.npz.part"]] * 2
    assert sorted(p.name for p in out.iterdir()) == ["plaintexts.txt"]


def test_dpa_reads_a_compressed_traces_npz(sim_dir, tmp_path, capsys):
    # traces.npz files written before the archive was stored uncompressed
    packed = tmp_path / "packed.npz"
    with np.load(sim_dir / "a" / "traces.npz") as z:
        np.savez_compressed(packed, **{name: z[name] for name in z.files})
    outs = {}
    for label, path in (("plain", sim_dir / "a" / "traces.npz"), ("packed", packed)):
        outs[label] = tmp_path / label
        assert run_cli("dpa", "--traces", str(path), "--out", str(outs[label]),
                       "--checkpoint", "2", "--target-byte", "0") == 0
    for name in ("attack.json", "evolution.csv"):
        assert (outs["packed"] / name).read_bytes() == (outs["plain"] / name).read_bytes()


@pytest.mark.parametrize("missing", ["samples", "plaintexts"])
def test_dpa_npz_without_an_array_names_the_file_and_array(tmp_path, capsys, missing):
    arrays = {"samples": np.zeros((4, 3), np.float32), "plaintexts": np.zeros((4, 16), np.uint8)}
    del arrays[missing]
    path = tmp_path / "bad.npz"
    np.savez(path, traces=np.zeros((4, 3)), **arrays)
    assert run_cli("dpa", "--traces", str(path), "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and f"{path}: no '{missing}' array" in err


_GOOD_ARCHIVE = {"samples": np.arange(40, dtype=np.float32).reshape(10, 4),
                 "plaintexts": np.arange(160, dtype=np.uint8).reshape(10, 16),
                 "key": np.arange(16, dtype=np.uint8),
                 "meta": np.frombuffer(b"{}", dtype=np.uint8)}


@pytest.mark.parametrize("name, value, byte", [
    ("key", np.arange(5, dtype=np.uint8), "0"),
    ("key", np.arange(5, dtype=np.uint8), "7"),
    ("plaintexts", np.zeros((10, 8), np.uint8), "0"),
    ("plaintexts", np.zeros((10, 8), np.uint8), "10"),
    ("samples", np.zeros(10, np.float32), "0"),
    ("samples", np.full((10, 4), 0.5, dtype=object), "0"),
    ("samples", np.full((10, 4), "0.5"), "0"),
    ("plaintexts", np.zeros((10, 16), dtype=object), "0"),
    ("samples", np.zeros((10, 0), np.float32), "0"),
], ids=["key-5-bytes", "key-5-bytes-byte-7", "plaintexts-10x8", "plaintexts-10x8-byte-10",
        "samples-1d", "samples-objects", "samples-strings", "plaintexts-objects",
        "samples-no-cycles"])
def test_dpa_npz_with_a_malformed_array_names_the_file_and_array(tmp_path, capsys,
                                                                 name, value, byte):
    path = tmp_path / "bad.npz"
    np.savez(path, **{**_GOOD_ARCHIVE, name: value})
    assert run_cli("dpa", "--traces", str(path), "--target-byte", byte, "--checkpoint", "5",
                   "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and f"{path}: '{name}' array must be" in err
    assert not (tmp_path / "o").exists()


def _npy_bytes(arr):
    buf = io.BytesIO()
    np.save(buf, arr)
    return buf.getvalue()


_SAMPLES_NPY = _npy_bytes(_GOOD_ARCHIVE["samples"])   # its header promises 10 rows


@pytest.mark.parametrize("data, problem", [
    (_SAMPLES_NPY[:len(_SAMPLES_NPY) - 5 * 4 * 4], "array is truncated or unreadable"),
    (b"not .npy data at all", "member is not .npy data"),
], ids=["5-of-10-rows", "raw-bytes"])
def test_dpa_npz_with_an_unreadable_samples_member_names_the_file_and_member(tmp_path, capsys,
                                                                             data, problem):
    path = tmp_path / "trunc.npz"
    with zipfile.ZipFile(path, "w") as z:
        for name, arr in _GOOD_ARCHIVE.items():
            z.writestr(f"{name}.npy", data if name == "samples" else _npy_bytes(arr))
    assert run_cli("dpa", "--traces", str(path), "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and f"{path}: 'samples' {problem}" in err
    assert not (tmp_path / "o").exists()


def test_dpa_ignores_the_meta_member_of_a_trace_archive(tmp_path):
    path = tmp_path / "traces.npz"
    np.savez(path, **{**_GOOD_ARCHIVE, "meta": np.frombuffer(b"{not json", dtype=np.uint8)})
    assert run_cli("dpa", "--traces", str(path), "--checkpoint", "5",
                   "--out", str(tmp_path / "o")) == 0
    assert (tmp_path / "o" / "attack.json").exists()


def _write_npy(path):
    with open(path, "wb") as f:
        np.save(f, np.zeros((4, 3)))


def _write_cut_off_archive(path):
    np.savez(path, **_GOOD_ARCHIVE)
    path.write_bytes(path.read_bytes()[:-100])   # the zip directory is gone


@pytest.mark.parametrize("write", [_write_npy, lambda path: path.write_text("0,1,3.0\n"),
                                   lambda path: path.write_bytes(b""), _write_cut_off_archive],
                         ids=["npy-array", "text", "empty", "cut-off-zip"])
def test_dpa_npz_that_is_not_an_archive_names_the_file(tmp_path, capsys, write):
    path = tmp_path / "traces.npz"
    write(path)
    assert run_cli("dpa", "--traces", str(path), "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and f"{path}: not an .npz trace archive" in err
    assert not (tmp_path / "o").exists()


def _one_trace_archive():
    return {**_GOOD_ARCHIVE, "samples": _GOOD_ARCHIVE["samples"][:1],
            "plaintexts": _GOOD_ARCHIVE["plaintexts"][:1]}


def _nan_sample_archive():
    samples = _GOOD_ARCHIVE["samples"].copy()
    samples[7, 2] = np.nan
    return {**_GOOD_ARCHIVE, "samples": samples}


@pytest.mark.parametrize("arrays, message", [
    (_one_trace_archive, "need at least 2 traces, got 1"),
    (_nan_sample_archive, "trace row 7, cycle 3: sample is nan"),
], ids=["one-trace", "nan-sample"])
def test_dpa_on_traces_it_cannot_attack_writes_nothing(tmp_path, capsys, arrays, message):
    path = tmp_path / "traces.npz"
    np.savez(path, **arrays())
    assert run_cli("dpa", "--traces", str(path), "--checkpoint", "5",
                   "--out", str(tmp_path / "o")) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_dpa_malformed_csv_names_row(tmp_path, capsys):
    bad = tmp_path / "traces.csv"
    bad.write_text("run_index,cycle,sample\n0,1,3.0\n0,two,4\n")
    pts = tmp_path / "pts.txt"
    aes.write_blocks_hex(pts, np.zeros((2, 16), dtype=np.uint8))
    code = run_cli("dpa", "--traces", str(bad), "--plaintexts", str(pts),
                   "--out", str(tmp_path / "o"))
    assert code == 2
    assert "line 3" in capsys.readouterr().err


def _dpa_csv_inputs(tmp_path, traces):
    path = tmp_path / "traces.csv"
    write_trace_csv(path, traces)
    pts = tmp_path / "pts.txt"
    aes.write_blocks_hex(pts, np.repeat(np.arange(len(traces), dtype=np.uint8)[:, None], 16, 1))
    return ["--traces", str(path), "--plaintexts", str(pts)]


def test_dpa_non_finite_trace_names_row_and_cycle(tmp_path, capsys):
    traces = np.random.default_rng(2).normal(0, 1, size=(6, 3))
    traces[4, 1] = np.nan
    code = run_cli("dpa", *_dpa_csv_inputs(tmp_path, traces), "--out", str(tmp_path / "o"))
    assert code == 2
    assert "trace row 4, cycle 2: sample is nan" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("with_key", [False, True])
def test_dpa_checkpoint_zero_is_an_error(tmp_path, capsys, with_key):
    # CSV traces carry no key: without --key only the evolution sees the step
    traces = np.random.default_rng(3).normal(0, 1, size=(6, 3))
    key = ["--key", KEY_HEX] if with_key else []
    code = run_cli("dpa", *_dpa_csv_inputs(tmp_path, traces), "--checkpoint", "0",
                   *key, "--out", str(tmp_path / "o"))
    assert code == 2
    assert "checkpoint_step must be >= 1, got 0" in capsys.readouterr().err


@pytest.mark.parametrize("with_key", [False, True])
def test_dpa_checkpoint_zero_fails_before_any_work(tmp_path, capsys, monkeypatch, with_key):
    def no_attack(*args, **kwargs):
        raise AssertionError("attack ran with an invalid --checkpoint")

    monkeypatch.setattr(cpa, "cpa_attack", no_attack)
    traces = np.random.default_rng(3).normal(0, 1, size=(6, 3))
    key = ["--key", KEY_HEX] if with_key else []
    code = run_cli("dpa", *_dpa_csv_inputs(tmp_path, traces), "--checkpoint", "0",
                   *key, "--out", str(tmp_path / "o"))
    assert code == 2
    assert "--checkpoint" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_dpa_csv_without_plaintexts_fails_before_reading_traces(tmp_path, capsys, monkeypatch):
    def no_read(*args, **kwargs):
        raise AssertionError("CSV traces read without --plaintexts")

    args = _dpa_csv_inputs(tmp_path, np.random.default_rng(3).normal(0, 1, size=(6, 3)))
    monkeypatch.setattr(cli, "read_trace_csv", no_read)
    assert run_cli("dpa", *args[:2], "--out", str(tmp_path / "o")) == 2
    assert "CSV traces need --plaintexts" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("byte", ["16", "-1"])
def test_dpa_target_byte_out_of_range_fails_before_reading_traces(tmp_path, capsys,
                                                                   monkeypatch, byte):
    def no_read(*args, **kwargs):
        raise AssertionError("traces read with an invalid --target-byte")

    args = _dpa_csv_inputs(tmp_path, np.random.default_rng(3).normal(0, 1, size=(6, 3)))
    monkeypatch.setattr(cli, "read_trace_csv", no_read)
    code = run_cli("dpa", *args, "--target-byte", byte, "--out", str(tmp_path / "o"))
    assert code == 2
    assert f"--target-byte: must be in 0..15, got {byte}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_dpa_bad_key_fails_before_reading_traces(tmp_path, capsys, monkeypatch):
    def no_read(*args, **kwargs):
        raise AssertionError("traces read with an invalid --key")

    path = tmp_path / "traces.npz"
    np.savez(path, **_GOOD_ARCHIVE)
    monkeypatch.setattr(cli, "load_traces_npz", no_read)
    code = run_cli("dpa", "--traces", str(path), "--key", "zz", "--out", str(tmp_path / "o"))
    assert code == 2
    assert "key 'zz'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_dpa_non_finite_csv_sample_names_file_and_line(tmp_path, capsys):
    traces = np.random.default_rng(2).normal(0, 1, size=(3, 2))
    args = _dpa_csv_inputs(tmp_path, traces)
    path = tmp_path / "traces.csv"
    lines = path.read_text().splitlines()
    lines[4] = "1,2,1e999"
    path.write_text("\n".join(lines) + "\n")
    code = run_cli("dpa", *args, "--out", str(tmp_path / "o"))
    assert code == 2
    err = capsys.readouterr().err
    assert f"{path}: line 5: trace row 1, cycle 2: sample is inf" in err
    assert not (tmp_path / "o").exists()


def test_ttest_from_class_csv(tmp_path, capsys):
    path = tmp_path / "classes.csv"
    rows = ["class,sample"]
    rng = np.random.default_rng(5)
    for label, mean in (("a", 0.0), ("b", 10.0)):
        for v in rng.normal(mean, 0.5, 40):
            rows.append(f"{label},{v}")
    path.write_text("\n".join(rows) + "\n")
    out = tmp_path / "t.csv"
    assert run_cli("ttest", "--classes", str(path), "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "class,a,b"
    t_ab = float(lines[1].split(",")[2])
    assert t_ab > 4.5


def test_ttest_class_csv_with_a_one_sample_class_names_the_file_and_class(tmp_path, capsys):
    path = tmp_path / "f.csv"
    path.write_text("class,sample\na,1.0\na,2.0\nb,3.0\n")
    assert run_cli("ttest", "--classes", str(path), "--out", str(tmp_path / "t.csv")) == 2
    assert f"class csv {path}: class 'b' has 1 sample" in capsys.readouterr().err
    assert not (tmp_path / "t.csv").exists()


def test_ttest_class_csv_with_one_class_names_the_file(tmp_path, capsys):
    path = tmp_path / "f.csv"
    path.write_text("class,sample\na,1.0\na,2.0\n")
    assert run_cli("ttest", "--classes", str(path), "--out", str(tmp_path / "t.csv")) == 2
    assert f"class csv {path}: 1 class(es) after the header" in capsys.readouterr().err


def test_simulate_without_config_reads_the_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("LEAKSCOPE_MODE", "param")
    monkeypatch.setenv("LEAKSCOPE_ROUNDS", "1")
    out = tmp_path / "e"
    assert run_cli("simulate", "--key", KEY_HEX, "--gen", "2", "--out", str(out)) == 0
    config = json.loads((out / "manifest.json").read_text())["config"]
    assert config["mode"] == "param"
    assert config["rounds"] == 1


def test_simulate_without_config_rejects_an_unknown_env_key(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("LEAKSCOPE_BOGUS", "1")
    assert run_cli("simulate", "--key", KEY_HEX, "--gen", "2",
                   "--out", str(tmp_path / "e")) == 2
    assert "bogus: unknown config key" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["baseline", "param"])
def test_ttest_rekey_every_zero_is_a_usage_error(tmp_path, capsys, mode):
    cfg = tmp_path / "cfg"
    cfg.write_text(f"mode = {mode}\nnoise_sigma = 0.0\n")
    code = run_cli("ttest", "--config", str(cfg), "--reps", "2", "--rekey-every", "0",
                   "--out", str(tmp_path / "t.csv"))
    assert code == 2
    assert "--rekey-every: must be >= 1, got 0" in capsys.readouterr().err
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize("reps", ["0", "1", "-2"])
def test_ttest_reps_below_two_fails_before_the_sweep(tmp_path, capsys, monkeypatch, reps):
    def no_sweep(*args, **kwargs):
        raise AssertionError("sweep ran with an invalid --reps")

    monkeypatch.setattr(cli, "cache_set_experiment", no_sweep)
    code = run_cli("ttest", "--reps", reps, "--out", str(tmp_path / "t.csv"))
    assert code == 2
    assert f"--reps: must be >= 2, got {reps}" in capsys.readouterr().err
    assert not (tmp_path / "t.csv").exists()


def test_simulate_gen_below_one_fails_before_creating_out(tmp_path, capsys, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("simulated with an invalid --gen")

    monkeypatch.setattr(cli, "run_aes_batch", no_run)
    code = run_cli("simulate", "--key", KEY_HEX, "--gen", "-3", "--out", str(tmp_path / "o"))
    assert code == 2
    assert "--gen: must be >= 1, got -3" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("text, code", [(None, 1), ("00112233\n", 2), ("zz" * 16 + "\n", 2)],
                         ids=["missing", "short", "bad-hex"])
def test_simulate_bad_plaintexts_fail_before_creating_out(tmp_path, capsys, monkeypatch,
                                                          text, code):
    def no_run(*args, **kwargs):
        raise AssertionError("simulated with a bad --plaintexts file")

    monkeypatch.setattr(cli, "run_aes_batch", no_run)
    pts = tmp_path / "pts.txt"
    if text is not None:
        pts.write_text(text)
    assert run_cli("simulate", "--key", KEY_HEX, "--plaintexts", str(pts),
                   "--out", str(tmp_path / "o")) == code
    assert str(pts) in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv", [
    ["dpa", "--traces", "t.npz", "--out", "o", "--seed", "3"],
    ["dpa", "--traces", "t.npz", "--out", "o", "--threads", "2"],
    ["analyze", "--runs", "r", "--oracle", "o", "--out", "x", "--config", "c"],
    ["obfuscate", "deadbeef", "--keys", "1,2,3,4", "--seed", "3"],
    ["simulate", "--key", KEY_HEX, "--out", "o", "--threads", "2"],
    ["ttest", "--out", "t.csv", "--threads", "2"],
])
def test_options_belong_only_to_the_commands_that_read_them(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["analyze", "--runs", "r", "--oracle", "o", "--out", "x", "--floor-shuf", "5"],
    ["dpa", "--traces", "t.npz", "--out", "o", "--check", "7"],
    ["simulate", "--key", KEY_HEX, "--out", "o", "--conf", "c"],
    ["ttest", "--out", "t.csv", "--rekey", "2"],
])
def test_abbreviated_options_are_rejected(argv, capsys):
    # a prefix of a longer flag must not parse as that flag, so a renamed
    # option cannot live on under its old spelling
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_bad_config_names_field(tmp_path, capsys):
    cfg = tmp_path / "cfg"
    cfg.write_text("noise_sigma = loud\n")
    code = run_cli("simulate", "--key", KEY_HEX, "--config", str(cfg),
                   "--out", str(tmp_path / "o"))
    assert code == 2
    assert "noise_sigma" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "ttest"])
@pytest.mark.parametrize("seed", [1 << 127, -(1 << 127) - 1], ids=["2^127", "-2^127-1"])
def test_seed_past_128_bits_exits_2_before_writing(tmp_path, capsys, command, seed):
    cfg = tmp_path / "config"
    cfg.write_text("mode = param\nrounds = 1\n")
    args = {"simulate": ["--key", KEY_HEX, "--gen", "3", "--out", str(tmp_path / "o")],
            "ttest": ["--reps", "2", "--out", str(tmp_path / "t.csv")]}[command]
    assert run_cli(command, "--config", str(cfg), "--seed", str(seed), *args) == 2
    assert "seed: must fit signed 128 bits" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config"]


def test_config_file_seed_past_128_bits_exits_2(tmp_path, capsys):
    cfg = tmp_path / "config"
    cfg.write_text(f"mode = param\nrounds = 1\nseed = {1 << 127}\n")
    assert run_cli("simulate", "--key", KEY_HEX, "--gen", "3", "--config", str(cfg),
                   "--out", str(tmp_path / "o")) == 2
    assert "seed" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_bad_key_is_usage_error(tmp_path, capsys):
    code = run_cli("simulate", "--key", "abc", "--out", str(tmp_path / "o"))
    assert code == 2
    assert "key" in capsys.readouterr().err


def test_analyze_threads_write_identical_reports(tmp_path):
    cfg = tmp_path / "config"
    cfg.write_text("mode = baseline\nnoise_sigma = 0.0\nrounds = 1\nseed = 7\n")
    sim = tmp_path / "sim"
    assert run_cli("simulate", "--key", KEY_HEX, "--gen", "6", "--config", str(cfg),
                   "--vcd", "--out", str(sim)) == 0
    pts = aes.read_blocks_hex(sim / "plaintexts.txt")
    metrics.write_oracle_csv(tmp_path / "oracle.csv", aes.all_first_round_oracles(
        pts, bytes.fromhex(KEY_HEX)))
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / f"report{threads}.json"
        assert run_cli("analyze", "--runs", str(sim / "runs.txt"), "--oracle",
                       str(tmp_path / "oracle.csv"), "--floor-shuffles", "40",
                       "--window", "3:40", "--threads", threads, "--out", str(out)) == 0
        reports.append(out.read_bytes())
    assert len(json.loads(reports[0])["modules"]) > 10
    assert reports[0] == reports[1]


def test_analyze_report_does_not_depend_on_blas_threads(tmp_path):
    """``report.json`` has the same bytes under 1 and 2 BLAS threads: every
    score and floor comes from exact integer moments, whatever order BLAS
    sums a product in. On a 1-CPU host OpenBLAS may cap itself at one
    thread, and then this test cannot fail."""
    cfg = tmp_path / "config"
    cfg.write_text("mode = baseline\nnoise_sigma = 0.0\nrounds = 1\nseed = 7\n")
    sim = tmp_path / "sim"
    assert run_cli("simulate", "--key", KEY_HEX, "--gen", "40", "--config", str(cfg),
                   "--vcd", "--out", str(sim)) == 0
    pts = aes.read_blocks_hex(sim / "plaintexts.txt")
    metrics.write_oracle_csv(tmp_path / "oracle.csv", aes.all_first_round_oracles(
        pts, bytes.fromhex(KEY_HEX)))
    src = os.path.dirname(os.path.dirname(cli.__file__))
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / f"report{threads}.json"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        subprocess.run([sys.executable, "-m", "leakscope.cli", "analyze", "--runs",
                        str(sim / "runs.txt"), "--oracle", str(tmp_path / "oracle.csv"),
                        "--floor-shuffles", "1000", "--out", str(out)],
                       env=env, check=True, capture_output=True, timeout=120)
        reports.append(out.read_bytes())
    assert len(json.loads(reports[0])["modules"]) > 10
    assert reports[0] == reports[1]
