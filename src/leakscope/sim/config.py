"""Simulator configuration and the key=value config file format."""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from ..feistel import AddressGeometry


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class CacheGeometry:
    """Data-cache shape; the line size is fixed at 64 bytes in this model."""

    sets: int = 64
    ways: int = 4
    line_bytes: int = 64

    def __post_init__(self):
        if self.line_bytes != 64:
            raise ConfigError(f"line_bytes: must be 64, got {self.line_bytes}")
        if self.sets < 1 or self.sets & (self.sets - 1):
            raise ConfigError(f"sets: must be a power of two >= 1, got {self.sets}")
        if self.ways < 1:
            raise ConfigError(f"ways: must be >= 1, got {self.ways}")

    @property
    def offset_bits(self) -> int:
        return self.line_bytes.bit_length() - 1

    @property
    def set_bits(self) -> int:
        return self.sets.bit_length() - 1

    @property
    def address_width(self) -> int:
        # tag + set index = 32 bits, matching the 32-bit obfuscation primitive
        return 32 + self.offset_bits

    @property
    def address_geometry(self) -> AddressGeometry:
        return AddressGeometry(address_width=self.address_width,
                               offset_bits=self.offset_bits)


MODES = ("baseline", "param")
EDA_CHOICES = ("on", "off")


@dataclass(frozen=True)
class SimConfig:
    """Knobs of one simulation: protection mode, noise, cache shape, seeds.

    ``eda_fix`` left as None resolves to "off" in baseline mode and "on" in
    param mode; both axes can be forced independently.
    """

    mode: str = "baseline"
    eda_fix: str | None = None
    noise_sigma: float = 80.0
    seed: int = 0
    cache: CacheGeometry = field(default_factory=CacheGeometry)
    rekey_interval_runs: int | None = 1000
    rounds: int = 10

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"mode: expected one of {MODES}, got '{self.mode}'")
        if self.eda_fix is not None and self.eda_fix not in EDA_CHOICES:
            raise ConfigError(f"eda_fix: expected on/off, got '{self.eda_fix}'")
        if self.noise_sigma < 0:
            raise ConfigError(f"noise_sigma: must be >= 0, got {self.noise_sigma}")
        if self.rekey_interval_runs is not None and self.rekey_interval_runs < 1:
            raise ConfigError(
                f"rekey_interval_runs: must be >= 1 or 'never', got {self.rekey_interval_runs}"
            )
        if not -(1 << 127) <= self.seed < 1 << 127:
            raise ConfigError(f"seed: must fit signed 128 bits, got {self.seed}")
        if not 1 <= self.rounds <= 10:
            raise ConfigError(f"rounds: must be in 1..10, got {self.rounds}")

    @property
    def param_mode(self) -> bool:
        return self.mode == "param"

    @property
    def eda_fix_on(self) -> bool:
        if self.eda_fix is None:
            return self.param_mode
        return self.eda_fix == "on"

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "eda_fix": self.eda_fix if self.eda_fix is not None else "auto",
            "noise_sigma": self.noise_sigma,
            "seed": self.seed,
            "sets": self.cache.sets,
            "ways": self.cache.ways,
            "line_bytes": self.cache.line_bytes,
            "rekey_interval_runs": (
                "never" if self.rekey_interval_runs is None else self.rekey_interval_runs
            ),
            "rounds": self.rounds,
        }


ENV_PREFIX = "LEAKSCOPE_"

_INT_KEYS = {"seed", "sets", "ways", "line_bytes", "rounds"}


def config_from_dict(pairs: dict) -> SimConfig:
    """Build a SimConfig from string key/value pairs, naming bad fields."""
    known = {"mode", "eda_fix", "noise_sigma", "seed", "sets", "ways",
             "line_bytes", "rekey_interval_runs", "rounds"}
    cfg: dict = {}
    cache: dict = {}
    for key, raw in pairs.items():
        if key not in known:
            raise ConfigError(f"{key}: unknown config key")
        value = raw.strip() if isinstance(raw, str) else raw
        try:
            if key in ("sets", "ways", "line_bytes"):
                cache[key] = int(value)
            elif key in _INT_KEYS:
                cfg[key] = int(value)
            elif key == "noise_sigma":
                cfg[key] = float(value)
            elif key == "rekey_interval_runs":
                cfg[key] = None if str(value) in ("never", "none") else int(value)
            elif key == "eda_fix":
                cfg[key] = None if str(value) == "auto" else str(value)
            else:
                cfg[key] = str(value)
        except (TypeError, ValueError):
            raise ConfigError(f"{key}: bad value '{raw}'") from None
    if cache:
        cfg["cache"] = CacheGeometry(**cache)
    return SimConfig(**cfg)


def parse_config_file(path, env=None) -> SimConfig:
    """Read ``key = value`` lines (none when ``path`` is None);
    LEAKSCOPE_<KEY> env vars override."""
    pairs: dict = {}
    if path is not None:
        with open(path) as f:
            for i, line in enumerate(f, start=1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{i}: expected 'key = value', got '{line}'")
                key, value = line.split("=", 1)
                pairs[key.strip()] = value.strip()
    env = os.environ if env is None else env
    for key, value in env.items():
        if key.startswith(ENV_PREFIX):
            pairs[key[len(ENV_PREFIX):].lower()] = value
    return config_from_dict(pairs)

