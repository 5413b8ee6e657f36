"""Experiment configuration: built-in defaults and the shipped profiles."""

import dataclasses

import pytest

from mcckf.bench import RadarConstants
from mcckf.config import DEFAULTS, ConfigError, ExperimentConfig
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


@pytest.mark.parametrize(
    "key, field, value, parsed",
    [
        ("model.rho", "rho", "0.25", 0.25),
        ("model.sampling_period", "sampling_period", "2.5", 2.5),
        ("model.range_noise_var", "range_noise_var", "4e4", 4e4),
        ("model.bearing_noise_var", "bearing_noise_var", "1e-6", 1e-6),
        ("model.maneuver_var_1", "maneuver_var_1", "3", 3.0),
        ("model.maneuver_var_2", "maneuver_var_2", "7e-9", 7e-9),
        ("shot_noise.fraction", "corrupted_fraction", "0.5", 0.5),
        ("shot_noise.magnitude_low", "magnitude_low", "1", 1),
        ("shot_noise.magnitude_high", "magnitude_high", "7", 7),
        ("shot_noise.window_start", "window_start", "5", 5),
        ("shot_noise.window_end", "window_end", "50", 50),
        ("shot_noise.targets", "targets", "process", "process"),
    ],
)
def test_each_model_and_shot_noise_key_sets_its_field(key, field, value, parsed):
    cfg = ExperimentConfig.load(overrides=[f"{key}={value}"])
    got = {"model": cfg.radar_constants(), "shot_noise": cfg.shot_spec()}
    want = {"model": RadarConstants(), "shot_noise": ShotNoiseSpec()}
    section = key.split(".")[0]
    want[section] = dataclasses.replace(want[section], **{field: parsed})
    assert got == want
    assert type(getattr(got[section], field)) is type(parsed)


def test_defaults_and_shipped_profile_hashes_are_pinned():
    # the hash is meta.txt's config_sha256: a change here changes every run's meta.txt
    assert DEFAULTS == {
        "model": {
            "rho": "0.5",
            "sampling_period": "10.0",
            "range_noise_var": "1000000.0",
            "bearing_noise_var": "0.00028900000000000003",
            "maneuver_var_1": "1178.7777777777778",
            "maneuver_var_2": "1.3e-08",
        },
        "kernel": {},
        "shot_noise": {
            "fraction": "0.2",
            "magnitude_low": "0",
            "magnitude_high": "5",
            "window_start": "21",
            "window_end": "300",
            "targets": "both",
        },
        "monte_carlo": {"runs": "100", "horizon": "300", "seed": "1"},
        "sweep": {
            "deltas": "1e-1 1e-2 1e-3 1e-4 1e-5 1e-6 1e-7 1e-8 1e-9 1e-10 1e-11 1e-12 1e-13 1e-14"
        },
    }
    assert (
        ExperimentConfig.load(profile="example1").sha256()
        == "895e3209c30c43fa0f021b64b611ad155e63b4ed8bbd9cbd2fcfdf5cc607eb44"
    )
    assert (
        ExperimentConfig.load(profile="sweep").sha256()
        == "3b0a88c5d34054736415801eb2909ea7d89f85bb6e45e96bd90035c8039b9899"
    )


@pytest.mark.parametrize(
    "override, accessor, message",
    [
        ("model.rho=nan", "radar_constants", "bad [model]: rho must be finite, got nan"),
        ("kernel.sigma=-1", "kernel_spec", "bad [kernel]: kernel bandwidth must be inf or"),
        ("shot_noise.fraction=2", "shot_spec", "bad [shot_noise]: fraction must lie in [0, 1]"),
        (
            "sweep.deltas=1e-1 1e-1", "sweep_deltas",
            "bad sweep.deltas: delta grid must be non-empty, finite, positive and strictly",
        ),
    ],
)
def test_a_value_the_library_refuses_is_a_config_error(override, accessor, message):
    # config only parses; the object a section builds checks its values
    cfg = ExperimentConfig.load(profile="sweep", overrides=[override])
    with pytest.raises(ConfigError) as info:
        getattr(cfg, accessor)()
    assert str(info.value).startswith(message)
    assert isinstance(info.value.__cause__, ValueError)
