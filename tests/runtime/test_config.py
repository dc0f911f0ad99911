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
            {"workers": -1},
            {"shards": 0},
            {"flush_threshold": 1.5},
            {"flush_threshold": -0.1},
            {"shard_timeout": 0.0},
            {"sharded_min_cells": -1},
            # NaN passed the old ``x < 0`` guards: a NaN backoff crashed
            # the first retry in time.sleep and a NaN cooldown kept a
            # tripped breaker open for good.
            {"retry_backoff": float("nan")},
            {"breaker_cooldown": float("nan")},
            {"shard_timeout": float("nan")},
            {"sharded_min_cells": float("nan")},
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
        assert config.with_workers(4).workers == 4
        assert config.with_backend("scalar") is not config
        with pytest.raises(ConfigurationError):
            config.with_backend("turbo")
