"""Experiment configuration: built-in defaults and the shipped profiles."""

import pytest

from mcckf.bench import RadarConstants
from mcckf.config import DEFAULTS, ExperimentConfig
from mcckf.sim import ShotNoiseSpec


def test_shot_noise_and_horizon_defaults_parse_back_to_the_dataclass_defaults():
    cfg = ExperimentConfig({section: dict(keys) for section, keys in DEFAULTS.items()})
    assert cfg.shot_spec() == ShotNoiseSpec()
    assert cfg.horizon() == RadarConstants().horizon


@pytest.mark.parametrize(
    "profile, keys",
    [("example1", {"kernel.sigma"}), ("sweep", {"kernel.sigma", "monte_carlo.runs"})],
)
def test_shipped_profiles_set_only_the_keys_they_exist_for(profile, keys):
    raw = ExperimentConfig.load(profile=profile).raw
    differing = {
        f"{section}.{key}"
        for section, values in raw.items()
        for key, value in values.items()
        if value != DEFAULTS[section].get(key)
    }
    assert differing == keys
