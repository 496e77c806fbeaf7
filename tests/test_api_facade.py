"""Tests for the unified experiment facade (:mod:`repro.api`).

Pins the contract: :class:`ExperimentConfig` is the one frozen,
keyword-only campaign-config type, the facade is the one executor, and
the config's wire identity (sweep fingerprints, worker task payloads)
is byte-stable, so checkpoints, cache entries and remote workers keep
agreeing on what a shard computes.
"""

import dataclasses
import json
import warnings

import pytest

import repro
from repro import api
from repro.api import ExperimentConfig
from repro.core.campaign import DEFAULT_DURATION
from repro.parallel.checkpoint import sweep_fingerprint
from repro.parallel.shard import PAYLOAD_VERSION
from repro.parallel.worker import TASK_VERSION
from repro.recovery.masking import MaskingPolicy
from repro.testbed.nodes import ALL_PROFILES

HOURS = 3600.0
DURATION = 1 * HOURS
SEED = 5


@pytest.fixture(scope="module")
def facade_result():
    """One short campaign through the facade, shared across assertions."""
    return api.run(duration=DURATION, seed=SEED)


class TestExperimentConfig:
    def test_constructor_is_keyword_only(self):
        with pytest.raises(TypeError):
            ExperimentConfig(DURATION, SEED)  # noqa: the point of the test

    def test_rejects_non_positive_duration(self):
        with pytest.raises(ValueError):
            ExperimentConfig(duration=0.0)
        with pytest.raises(ValueError):
            ExperimentConfig(duration=-1.0)

    def test_defaults(self):
        config = ExperimentConfig()
        assert config.duration == DEFAULT_DURATION
        assert config.seed == 0
        assert config.masking == MaskingPolicy.all_off()
        assert config.workloads == ("random", "realistic")
        assert config.profiles == ALL_PROFILES
        assert config.hardware_replacement is True
        assert config.fidelity == "bit"
        assert config.rare_boost == 1.0
        assert [f.name for f in dataclasses.fields(ExperimentConfig)] == [
            "duration", "seed", "masking", "workloads", "profiles",
            "hardware_replacement", "fidelity", "rare_boost",
        ]

    def test_validation_and_normalisation(self):
        with pytest.raises(ValueError, match="rare_boost"):
            ExperimentConfig(rare_boost=0.5)
        config = ExperimentConfig(
            duration=60, seed="3", masking=None, workloads=["random"]
        )
        assert config.duration == 60.0 and isinstance(config.duration, float)
        assert config.seed == 3
        assert config.masking == MaskingPolicy.all_off()
        assert config.workloads == ("random",)

    def test_payload_round_trip(self):
        config = ExperimentConfig(
            duration=DURATION,
            seed=SEED,
            masking=MaskingPolicy.all_on(),
            workloads=("random",),
            hardware_replacement=False,
        )
        wire = json.loads(json.dumps(config.to_payload()))
        assert ExperimentConfig.from_payload(wire) == config

    def test_replace_returns_modified_copy(self):
        config = ExperimentConfig(duration=DURATION, seed=SEED)
        other = dataclasses.replace(config, seed=SEED + 1)
        assert other.seed == SEED + 1
        assert other.duration == config.duration
        assert config.seed == SEED
        with pytest.raises(ValueError):
            dataclasses.replace(config, duration=0.0)

    def test_slots_prevent_ad_hoc_attributes(self):
        config = ExperimentConfig()
        with pytest.raises(AttributeError):
            config.typo_field = 1
        with pytest.raises(AttributeError):
            config.seed = 1

    def test_repr_names_every_field(self):
        text = repr(ExperimentConfig(duration=DURATION, seed=SEED))
        for field in ("duration", "seed", "masking", "workloads",
                      "profiles", "hardware_replacement"):
            assert field in text

    def test_exported_from_top_level(self):
        assert repro.ExperimentConfig is ExperimentConfig
        assert repro.api.run is api.run


class TestFacadeExecution:
    def test_run_produces_a_campaign(self, facade_result):
        assert facade_result.duration == DURATION
        assert facade_result.seed == SEED
        assert facade_result.repository.total_items > 0

    def test_module_run_equals_config_run(self, facade_result):
        via_config = ExperimentConfig(duration=DURATION, seed=SEED).run()
        assert (
            via_config.repository.to_payload()
            == facade_result.repository.to_payload()
        )

    def test_sweep_routes_campaign_keywords(self):
        result = api.sweep(2, jobs=1, duration=DURATION, seed=SEED)
        assert result.spec == ExperimentConfig(duration=DURATION, seed=SEED)
        assert len(result.shards) == 2

    def test_facade_emits_no_deprecation_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            api.run(duration=DURATION, seed=SEED)
            api.sweep(1, duration=DURATION, seed=SEED)
            ExperimentConfig(duration=DURATION, seed=SEED).run()


class TestWireIdentity:
    """Fingerprints and worker payloads, pinned to their 1.x values.

    A change here silently invalidates every sweep checkpoint and shard
    cache entry on disk and breaks remote workers of the other version.
    """

    CASES = [
        (
            {},
            False,
            "8457762eb00f919f6bd40ad5d82083abb11d86a233db4fe3aff56e93ef694c3e",
        ),
        (
            {"fidelity": "batch", "duration": 86400.0},
            False,
            "15e2dc4e2621ec1e4e10abd4dcfcb6609dfdcedaa51fb94e9dab99c299a07a3e",
        ),
        (
            {"fidelity": "batch", "rare_boost": 4.0},
            True,
            "b26fa30479db53bf0b7d353c3087bd8722584616fab246194d70bfdca92717cd",
        ),
        (
            {"masking": MaskingPolicy.all_on(), "workloads": ("random",)},
            False,
            "50269f81d139ae4380ce1fb480ad80fa86d729f0c9c6c8bc75ec5cb6e95def71",
        ),
    ]

    PROFILES = '["Giallo", "Verde", "Miseno", "Azzurro", "Win", "Ipaq H3870", "Zaurus SL-5600"]'
    OFF = '{"bind_wait": false, "retry": false, "sdp_before_pan": false}'
    ON = '{"bind_wait": true, "retry": true, "sdp_before_pan": true}'
    PAYLOADS = [
        f'{{"duration": 172800.0, "seed": 7, "masking": {OFF}, '
        f'"workloads": ["random", "realistic"], "profiles": {PROFILES}, '
        f'"hardware_replacement": true, "fidelity": "bit", "rare_boost": 1.0}}',
        f'{{"duration": 86400.0, "seed": 7, "masking": {OFF}, '
        f'"workloads": ["random", "realistic"], "profiles": {PROFILES}, '
        f'"hardware_replacement": true, "fidelity": "batch", "rare_boost": 1.0}}',
        f'{{"duration": 172800.0, "seed": 7, "masking": {OFF}, '
        f'"workloads": ["random", "realistic"], "profiles": {PROFILES}, '
        f'"hardware_replacement": true, "fidelity": "batch", "rare_boost": 4.0}}',
        f'{{"duration": 172800.0, "seed": 7, "masking": {ON}, '
        f'"workloads": ["random"], "profiles": {PROFILES}, '
        f'"hardware_replacement": true, "fidelity": "bit", "rare_boost": 1.0}}',
    ]

    @pytest.mark.parametrize("fields,with_metrics,digest", CASES)
    def test_sweep_fingerprint(self, fields, with_metrics, digest):
        config = ExperimentConfig(**fields)
        assert sweep_fingerprint(config, with_metrics) == digest
        # The seed is not part of the identity.
        assert sweep_fingerprint(
            dataclasses.replace(config, seed=99), with_metrics
        ) == digest

    @pytest.mark.parametrize("index", range(4))
    def test_worker_payload_at_seed_7(self, index):
        config = ExperimentConfig(**self.CASES[index][0], seed=7)
        assert json.dumps(config.to_payload()) == self.PAYLOADS[index]

    def test_wire_versions_unchanged(self):
        assert TASK_VERSION == 1
        assert PAYLOAD_VERSION == 3
