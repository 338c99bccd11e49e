"""Command-line front end: simulate, analyze, dpa, ttest, obfuscate.

Every command exits 0 on success and non-zero on errors, naming the offending
input on stderr. All artifacts are reproducible byte-for-byte from a
simulation manifest: no timestamps or machine-specific content is written.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import __version__, aes, cpa, metrics
from .feistel import AffineSpec, ObfuscationError, RoundKeys, deobfuscate32, obfuscate32
from .sim import (
    SimConfig,
    TraceArchive,
    cache_set_experiment,
    emit_vcd,
    load_traces_npz,
    parse_config_file,
    random_plaintexts,
    read_trace_csv,
    run_aes_batch,
    save_traces_npz,
    write_manifest,
)
from .vcd import load_run_set, read_manifest


class UsageError(ValueError):
    pass


def _load_config(args) -> SimConfig:
    cfg = parse_config_file(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    return cfg


def _parse_key(text: str) -> bytes:
    try:
        key = bytes.fromhex(text)
    except ValueError:
        raise UsageError(f"key '{text}': not valid hex") from None
    if len(key) != 16:
        raise UsageError(f"key '{text}': need 16 bytes, got {len(key)}")
    return key


_RED_ABS, _RED_MULT, _ORANGE_MULT = 0.5, 3.0, 2.0


def _severity(svf: float, floor: float | None) -> str:
    floor = floor or 0.0
    if svf >= max(_RED_ABS, _RED_MULT * floor):
        return "red"
    if svf >= _ORANGE_MULT * floor and svf > 0:
        return "orange"
    return "blue"


# --- simulate ----------------------------------------------------------------

def cmd_simulate(args) -> int:
    if not args.plaintexts and args.gen < 1:
        raise UsageError(f"--gen: must be >= 1, got {args.gen}")
    cfg = _load_config(args)
    key = _parse_key(args.key)
    if args.plaintexts:
        pts, pt_path = aes.read_blocks_hex(args.plaintexts), args.plaintexts
        if not len(pts):
            raise UsageError(f"plaintext file {args.plaintexts}: no blocks")
    os.makedirs(args.out, exist_ok=True)
    if not args.plaintexts:
        pts = random_plaintexts(cfg, args.gen)
        pt_path = os.path.join(args.out, "plaintexts.txt")
        aes.write_blocks_hex(pt_path, pts)

    # the rows stream into the archive chunk by chunk; it takes its name
    # only once complete
    trace_path = os.path.join(args.out, "traces.npz")
    with TraceArchive(trace_path, len(pts)) as archive:
        res = run_aes_batch(cfg, pts, key, collect_logs=args.vcd, out=archive)
        save_traces_npz(archive, res.traces, pts, key=key,
                        meta={"config": cfg.to_dict(), "n_cycles": res.n_cycles})
    artifacts = {"traces": trace_path}

    if res.ciphertexts is not None:
        ct_path = os.path.join(args.out, "ciphertexts.txt")
        aes.write_blocks_hex(ct_path, res.ciphertexts)
        artifacts["ciphertexts"] = ct_path

    if args.vcd:
        vcd_manifest = os.path.join(args.out, "runs.txt")
        with open(vcd_manifest, "w") as f:
            for i, log in enumerate(res.logs):
                name = f"run{i:05d}.vcd"
                with open(os.path.join(args.out, name), "wb") as vf:
                    vf.write(emit_vcd(log))
                f.write(f"{name} run{i}\n")
        artifacts["vcd_manifest"] = vcd_manifest

    manifest_path = os.path.join(args.out, "manifest.json")
    write_manifest(manifest_path, cfg, key.hex(), pt_path, artifacts, res.rekey_runs)
    print(f"simulated {pts.shape[0]} runs x {res.n_cycles} cycles "
          f"({cfg.mode}, eda_fix={'on' if cfg.eda_fix_on else 'off'}, "
          f"sigma={cfg.noise_sigma})")
    print(f"manifest: {manifest_path}")
    return 0


# --- analyze -----------------------------------------------------------------

def _parse_window(text):
    if not text:
        return None
    try:
        start, end = map(int, text.split(":"))
    except ValueError:
        raise UsageError(f"window '{text}': expected START:END cycles") from None
    if end < max(1, start):
        raise UsageError(f"--window: empty window {text}, END must be >= max(1, START)")
    return start, end


def cmd_analyze(args) -> int:
    if args.floor_shuffles < 0:
        raise UsageError(f"--floor-shuffles: must be >= 0, got {args.floor_shuffles}")
    if args.threads < 1:
        raise UsageError(f"--threads: must be >= 1, got {args.threads}")
    window = _parse_window(args.window)
    paths = read_manifest(args.runs)
    if len(paths) < 2:
        raise UsageError(f"run manifest {args.runs}: need at least 2 runs")
    runs = load_run_set(paths, args.clock)
    oracles = metrics.read_oracle_csv(args.oracle)
    report = metrics.svf_all(runs, oracles, window=window,
                             noise_floor_shuffles=args.floor_shuffles,
                             threads=args.threads)

    doc = {"n_runs": runs.n_runs, "n_cycles": runs.n_cycles,
           "window": list(window) if window else None, "modules": []}
    print(f"{'module':32s} {'svf':>7s} {'floor':>7s} {'peak':>6s} "
          f"{'sev':>6s}  oracle")
    for r in report.results:
        sev = _severity(r.svf, r.noise_floor)
        doc["modules"].append({
            "module_path": list(r.module_path),
            "svf": r.svf,
            "peak_cycle": r.peak_cycle,
            "noise_floor": r.noise_floor,
            "xz_ratio": r.xz_ratio,
            "oracle_label": r.oracle_label,
            "severity": sev,
        })
        print(f"{r.module_name:32s} {r.svf:7.4f} "
              f"{(r.noise_floor or 0.0):7.4f} {r.peak_cycle:6d} {sev:>6s}  "
              f"{r.oracle_label}")
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"report: {args.out}")
    return 0


# --- dpa ------------------------------------------------------------------------

def _load_traces(args):
    path = args.traces
    if path.endswith(".npz"):
        traces, pts, key = load_traces_npz(path)
        if args.plaintexts:
            pts = aes.read_blocks_hex(args.plaintexts)
        return traces, pts, key
    if not args.plaintexts:
        raise UsageError("CSV traces need --plaintexts")
    return read_trace_csv(path), aes.read_blocks_hex(args.plaintexts), None


def cmd_dpa(args) -> int:
    if args.checkpoint < 1:
        raise UsageError(f"--checkpoint: checkpoint_step must be >= 1, got {args.checkpoint}")
    if not 0 <= args.target_byte < 16:
        raise UsageError(f"--target-byte: must be in 0..15, got {args.target_byte}")
    traces, pts, key = _load_traces(args)
    if pts is None or pts.shape[0] != traces.shape[0]:
        raise UsageError(
            f"traces {args.traces}: {traces.shape[0]} rows but "
            f"{0 if pts is None else pts.shape[0]} plaintexts"
        )
    # reads and checks every row, so a bad archive fails before --out exists
    state = cpa.class_sums(traces, pts, args.target_byte)
    os.makedirs(args.out, exist_ok=True)
    result = cpa.cpa_attack(state, point=args.point)

    curve = None
    key_bytes = _parse_key(args.key) if args.key else key
    if key_bytes is not None:
        curve = cpa.mtd(traces, pts, args.target_byte,
                        key_bytes[args.target_byte], args.checkpoint,
                        point=args.point)
    cps, series = cpa.correlation_evolution(traces, pts, args.target_byte,
                                            checkpoint_step=args.checkpoint,
                                            point=args.point)
    attack_path = os.path.join(args.out, "attack.json")
    cpa.write_attack_json(attack_path, result, curve)
    evo_path = os.path.join(args.out, "evolution.csv")
    cpa.write_evolution_csv(evo_path, cps, series)

    print(f"target byte {args.target_byte} ({args.point}), "
          f"{result.n_traces} traces")
    print(f"best guess 0x{result.best_guess:02x} "
          f"|rho|={result.guess_scores[result.best_guess]:.4f} "
          f"at cycle {result.best_sample}")
    if curve is not None:
        shown = curve.mtd if curve.mtd is not None else "not disclosed"
        print(f"true byte 0x{key_bytes[args.target_byte]:02x} "
              f"rank {result.rank_of(key_bytes[args.target_byte])}; mtd: {shown}")
    print(f"artifacts: {attack_path}, {evo_path}")
    return 0


# --- ttest ------------------------------------------------------------------------

def cmd_ttest(args) -> int:
    if args.rekey_every < 1:
        raise UsageError(f"--rekey-every: must be >= 1, got {args.rekey_every}")
    if args.reps < 2:
        raise UsageError(f"--reps: must be >= 2, got {args.reps}")
    if args.classes:
        groups = metrics.read_class_samples_csv(args.classes)
    else:
        cfg = _load_config(args)
        groups = cache_set_experiment(cfg, reps=args.reps,
                                      rekey_every=args.rekey_every)
    labels, mat = metrics.pairwise_ttest_matrix(groups)
    metrics.write_tmatrix_csv(args.out, labels, mat)
    off = mat[np.triu_indices(len(labels), k=1)]
    print(f"{len(labels)} classes; max |t| = {off.max():.2f}, "
          f"median |t| = {np.median(off):.2f}")
    print(f"t-matrix: {args.out}")
    return 0


# --- obfuscate ----------------------------------------------------------------------

def cmd_obfuscate(args) -> int:
    try:
        value = int(args.value, 16)
    except ValueError:
        raise UsageError(f"value '{args.value}': not valid hex") from None
    if not 0 <= value < 2**32:
        raise UsageError(f"value '{args.value}': must fit in 32 bits")
    parts = args.keys.split(",")
    if len(parts) != 4:
        raise UsageError(f"keys '{args.keys}': expected k1,k2,k3,k4")
    try:
        keys = RoundKeys(tuple(int(p, 16) for p in parts))
    except (ValueError, ObfuscationError) as exc:
        raise UsageError(f"keys '{args.keys}': {exc}") from None
    spec = None
    if args.spec:
        try:
            with open(args.spec) as f:
                spec = AffineSpec.from_json(f.read())
        except (OSError, ObfuscationError) as exc:
            raise UsageError(f"spec {args.spec}: {exc}") from None
    fn = deobfuscate32 if args.inverse else obfuscate32
    print(f"{fn(value, keys, spec):08x}")
    return 0


# --- parser --------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leakscope",
        description="Power side-channel leakage analysis toolkit",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    # only the commands that simulate read a config
    simcfg = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    simcfg.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    simcfg.add_argument("--config", default=None,
                        help="key = value config file (env LEAKSCOPE_* overrides)")

    p = sub.add_parser("simulate", allow_abbrev=False, parents=[simcfg],
                       help="run the AES workload and write traces")
    p.add_argument("--plaintexts", default=None,
                   help="hex block file; omit to generate --gen random blocks")
    p.add_argument("--gen", type=int, default=16,
                   help="number of random plaintexts when none are supplied")
    p.add_argument("--key", required=True, help="AES-128 key (32 hex chars)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--vcd", action="store_true", help="also write per-run VCD dumps")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("analyze", allow_abbrev=False,
                       help="per-module leakage scores from VCD runs")
    p.add_argument("--runs", required=True, help="manifest: one VCD path per line")
    p.add_argument("--oracle", required=True, help="oracle CSV")
    p.add_argument("--clock", default="clk")
    p.add_argument("--window", default=None, help="restrict analysis to START:END cycles")
    p.add_argument("--floor-shuffles", type=int, default=1000)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--out", required=True, help="output JSON path")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("dpa", allow_abbrev=False,
                       help="correlation power analysis on recorded traces")
    p.add_argument("--traces", required=True, help="traces .npz or .csv")
    p.add_argument("--plaintexts", default=None, help="hex block file (for CSV traces)")
    p.add_argument("--target-byte", type=int, default=0)
    p.add_argument("--point", default="sbox_out",
                   choices=sorted(aes.POINT_FUNCTIONS))
    p.add_argument("--checkpoint", type=int, default=500)
    p.add_argument("--key", default=None,
                   help="true key (hex) for rank/MTD reporting")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(fn=cmd_dpa)

    p = sub.add_parser("ttest", allow_abbrev=False, parents=[simcfg],
                       help="pairwise Welch t-matrix over trace classes")
    p.add_argument("--classes", default=None,
                   help="CSV of class,sample rows; omit to run the cache-set sweep")
    p.add_argument("--reps", type=int, default=500,
                   help="sweep repetitions when --classes is omitted")
    p.add_argument("--rekey-every", type=int, default=1)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(fn=cmd_ttest)

    p = sub.add_parser("obfuscate", allow_abbrev=False,
                       help="apply the 32-bit obfuscation to a value")
    p.add_argument("value", help="32-bit value, hex")
    p.add_argument("--keys", required=True, help="four round keys k1,k2,k3,k4 (hex)")
    p.add_argument("--inverse", action="store_true")
    p.add_argument("--spec", default=None, help="affine spec JSON override")
    p.set_defaults(fn=cmd_obfuscate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:  # UsageError, ConfigError, ObfuscationError, VcdParseError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
