"""Batch pipeline/cache simulator: waveform logs, power traces, experiments."""

from .config import CacheGeometry, ConfigError, SimConfig, parse_config_file
from .cyclelog import CycleLog, emit_vcd, extract_cycle_log
from .machine import Machine, SimError, element_catalog
from .program import (
    CT_ADDR,
    KEY_ADDR,
    PT_ADDR,
    RK_ADDR,
    STATE_ADDR,
    SWEEP_ADDR,
    TABLE_ADDR,
    build_aes_program,
    build_single_access_program,
)
from .run import (
    BatchResult,
    TraceArchive,
    cache_set_experiment,
    epoch_keys,
    load_traces_npz,
    random_plaintexts,
    read_trace_csv,
    run_aes_batch,
    save_traces_npz,
    sub_rng,
    write_manifest,
)

__all__ = [
    "BatchResult", "CacheGeometry", "ConfigError", "CycleLog", "Machine",
    "SimConfig", "SimError", "TraceArchive", "build_aes_program",
    "build_single_access_program", "cache_set_experiment", "element_catalog",
    "emit_vcd", "epoch_keys", "extract_cycle_log", "load_traces_npz",
    "parse_config_file", "random_plaintexts", "read_trace_csv", "run_aes_batch",
    "save_traces_npz", "sub_rng", "write_manifest",
]
