"""Experiment configuration: built-in defaults."""

from mcckf.bench import RadarConstants
from mcckf.config import DEFAULTS, ExperimentConfig
from mcckf.sim import ShotNoiseSpec


def test_shot_noise_and_horizon_defaults_parse_back_to_the_dataclass_defaults():
    cfg = ExperimentConfig({section: dict(keys) for section, keys in DEFAULTS.items()})
    assert cfg.shot_spec() == ShotNoiseSpec()
    assert cfg.horizon() == RadarConstants().horizon
