"""Experiment configuration: INI files with a fixed schema plus dotted overrides.

Resolution order is built-in defaults, then the config file, then ``--set``
overrides (last writer wins). Unknown sections or keys are rejected. The
kernel bandwidth has no built-in default on purpose: every shipped profile
states it explicitly and a user config that needs it must too.
"""

from __future__ import annotations

import configparser
import hashlib
from dataclasses import fields
from importlib import resources
from pathlib import Path

from .bench import RadarConstants, _delta_grid
from .correntropy import KernelSpec
from .sim import ShotNoiseSpec

__all__ = ["ConfigError", "ExperimentConfig", "DEFAULTS", "shipped_config_path"]


class ConfigError(Exception):
    """Invalid, unknown or missing configuration."""


# Each [model] and [shot_noise] key: the RadarConstants or ShotNoiseSpec
# field it sets and the parser of its value. DEFAULTS, radar_constants() and
# shot_spec() are built from this table. Every float field of RadarConstants
# is the [model] key of its name; a new [shot_noise] parameter is a
# ShotNoiseSpec field plus one row here.
_FIELDS = {
    "model": {
        item.name: (item.name, float)
        for item in fields(RadarConstants)
        if isinstance(item.default, float)
    },
    "shot_noise": {
        "fraction": ("corrupted_fraction", float),
        "magnitude_low": ("magnitude_low", int),
        "magnitude_high": ("magnitude_high", int),
        "window_start": ("window_start", int),
        "window_end": ("window_end", int),
        "targets": ("targets", str),
    },
}


def _built(name: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``, which checks its values, or a ConfigError naming ``name``."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"bad {name}: {exc}") from exc


def _defaults_of(section: str, default) -> dict:
    return {key: str(getattr(default, field)) for key, (field, _) in _FIELDS[section].items()}


DEFAULTS = {
    "model": _defaults_of("model", RadarConstants()),
    "kernel": {},
    "shot_noise": _defaults_of("shot_noise", ShotNoiseSpec()),
    "monte_carlo": {"runs": "100", "horizon": str(RadarConstants().horizon), "seed": "1"},
    "sweep": {"deltas": " ".join(f"1e-{i}" for i in range(1, 15))},
}

_KNOWN_KEYS = {section: set(keys) for section, keys in DEFAULTS.items()}
_KNOWN_KEYS["kernel"].add("sigma")


def shipped_config_path(profile: str):
    """Path of a packaged configuration profile (example1 or sweep)."""
    return resources.files("mcckf").joinpath(f"configs/{profile}.ini")


class ExperimentConfig:
    """Merged configuration with typed accessors."""

    def __init__(self, raw: dict):
        self.raw = raw

    @classmethod
    def load(cls, config_path=None, overrides=(), profile: str = "example1"):
        """Merge defaults, a config file and overrides.

        The entries of ``config_path``, read like the shipped profile it falls
        back to, then the ``section.key=value`` overrides pass one check.
        """
        raw = {section: dict(keys) for section, keys in DEFAULTS.items()}
        source = Path(config_path) if config_path is not None else shipped_config_path(profile)
        parser = configparser.ConfigParser()
        try:
            parser.read_string(source.read_text(), source=str(source))
        except OSError as exc:
            raise ConfigError(f"cannot read config file {source}: {exc.strerror}") from exc
        except configparser.Error as exc:  # its message spans several lines
            message = " ".join(line.strip() for line in str(exc).splitlines())
            raise ConfigError(f"cannot parse config {source}: {message}") from exc
        entries = [(section, parser.items(section)) for section in parser.sections()]
        for item in overrides:
            if "=" not in item:
                raise ConfigError(f"override {item!r} is not of the form section.key=value")
            dotted, value = item.split("=", 1)
            if dotted.count(".") != 1:
                raise ConfigError(f"override key {dotted!r} is not of the form section.key")
            if not value:
                raise ConfigError(f"override {dotted} has an empty value")
            section, key = dotted.split(".")
            entries.append((section, [(key, value)]))
        for section, items in entries:
            if section not in _KNOWN_KEYS:
                raise ConfigError(f"unknown config section [{section}]")
            for key, value in items:
                if key not in _KNOWN_KEYS[section]:
                    raise ConfigError(f"unknown config key {section}.{key}")
                raw[section][key] = value
        return cls(raw)

    def _get(self, section: str, key: str, parse):
        value = self.raw.get(section, {}).get(key)
        if value is None:
            raise ConfigError(f"missing config key {section}.{key}")
        try:
            return parse(value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad value for {section}.{key}: {value!r} ({exc})") from exc

    def _fields(self, section: str) -> dict:
        """The parsed ``_FIELDS`` of a section, by dataclass field."""
        table = _FIELDS[section].items()
        return {field: self._get(section, key, parse) for key, (field, parse) in table}

    def radar_constants(self) -> RadarConstants:
        return _built("[model]", RadarConstants, **self._fields("model"), horizon=self.horizon())

    def kernel_spec(self) -> KernelSpec:
        return _built("[kernel]", KernelSpec, sigma=self._get("kernel", "sigma", float))

    def shot_spec(self) -> ShotNoiseSpec:
        return _built("[shot_noise]", ShotNoiseSpec, **self._fields("shot_noise"))

    def _count(self, key: str, minimum: int) -> int:
        value = self._get("monte_carlo", key, int)
        if value < minimum:
            raise ConfigError(f"monte_carlo.{key} must be >= {minimum}, got {value}")
        return value

    def runs(self) -> int:
        return self._count("runs", 1)

    def horizon(self) -> int:
        return self._count("horizon", 1)

    def seed(self) -> int:
        return self._count("seed", 0)

    def sweep_deltas(self) -> list[float]:
        text = self._get("sweep", "deltas", str)
        try:
            deltas = [float(tok) for tok in text.split()]
        except ValueError as exc:
            raise ConfigError(f"bad sweep.deltas {text!r}: {exc}") from exc
        return _built("sweep.deltas", _delta_grid, deltas)

    def sha256(self) -> str:
        lines = [
            f"{section}.{key}={self.raw[section][key]}"
            for section in sorted(self.raw)
            for key in sorted(self.raw[section])
        ]
        return hashlib.sha256("\n".join(lines).encode()).hexdigest()
