"""RuntimeConfig validation."""

import pytest

from repro.errors import ConfigurationError
from repro.runtime import RuntimeConfig


class TestValidation:
    def test_defaults_are_valid(self):
        config = RuntimeConfig()
        assert config.backend is None
        assert not config.parallel

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"backend": "turbo"},
            # Backend names are case-sensitive.
            {"backend": "Compiled"},
            {"workers": -1},
            {"shard_timeout": 0.0},
            {"shard_timeout": -1.0},
            # NaN passed the old ``x < 0`` guards.
            {"shard_timeout": float("nan")},
            {"max_retries": -1},
            # A calibration must be a loaded cost model: not a bare
            # threshold, not the path of its JSON file.
            {"calibration": object()},
            {"calibration": 4096},
            {"calibration": "BENCH_crossover.json"},
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            RuntimeConfig(**kwargs)

    def test_parallel_needs_more_than_one_worker(self):
        assert not RuntimeConfig(workers=1).parallel
        assert RuntimeConfig(workers=2).parallel

    def test_with_copies_validate(self):
        config = RuntimeConfig()
        assert config.with_backend("scalar").backend == "scalar"
        assert config.with_backend("scalar") is not config
        with pytest.raises(ConfigurationError):
            config.with_backend("turbo")
