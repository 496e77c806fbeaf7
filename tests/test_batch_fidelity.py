"""Batch-fidelity tests: bulk GE samplers vs the oracle, plus threading.

Three layers:

* **Property tests** (hypothesis): every bulk sampler in
  :mod:`repro.bluetooth.batch_channel` against the scalar bit-accurate
  oracle — state occupancy, per-type payload outcome rates,
  retransmission-count means and transfer-level loss/mismatch rates all
  match within 4 sigma.  Batch is *analytic* equivalence, not draw
  replay, so every comparison is statistical.
* **Executor determinism**: batch campaigns are reproducible per seed
  and batch sweeps merge byte-identically at ``--jobs 1`` vs
  ``--jobs 4``.
* **Fidelity threading**: the ``fidelity`` keyword validates, survives
  the config payload round-trip, rejects per-packet observability, and
  keeps bit-mode checkpoint fingerprints unchanged.
"""

import dataclasses
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

np = pytest.importorskip("numpy")

from repro import api
from repro.bluetooth.baseband import TransferStatus, sample_transfer
from repro.bluetooth.batch_channel import (
    PAYLOAD_DROPPED,
    PAYLOAD_MISMATCH,
    PAYLOAD_RETRANSMITTED,
    TRANSFER_LOSS,
    TRANSFER_MISMATCH,
    bulk_payload_outcomes,
    bulk_retransmission_counts,
    bulk_state_occupancy,
    bulk_transfer_outcomes,
)
from repro.bluetooth.channel import Channel, ChannelConfig
from repro.bluetooth.packets import PacketType
from repro.obs import Observability
from repro.sim.rng import numpy_generator

N_SAMPLES = 4000
#: The retransmission-count mean test's own sample size: its heavy tail
#: needs 10x the samples to detect a 1.5x mean shift at 4 sigma.
N_RETX_SAMPLES = 40_000
SIGMA = 4.0


def two_sample_z(p1: float, p2: float, n: int) -> float:
    """z statistic for two empirical proportions of n samples each."""
    se = math.sqrt(p1 * (1.0 - p1) / n + p2 * (1.0 - p2) / n)
    if se == 0.0:
        return 0.0 if p1 == p2 else float("inf")
    return abs(p1 - p2) / se


channel_configs = st.builds(
    ChannelConfig,
    distance=st.floats(0.5, 7.0),
    burst_rate=st.floats(0.01, 2.0),
    mean_burst=st.floats(0.001, 0.1),
    ber_bad=st.floats(0.01, 0.2),
)


class TestBulkSamplersMatchOracle:
    @settings(max_examples=15, deadline=None)
    @given(config=channel_configs, seed=st.integers(0, 2**32 - 1))
    def test_state_occupancy_matches_stationary_probability(self, config, seed):
        gen = numpy_generator(seed, "occupancy")
        frac = float(bulk_state_occupancy(gen, config, N_SAMPLES).mean())
        p = config.stationary_bad
        sigma = math.sqrt(max(p * (1.0 - p), 1e-12) / N_SAMPLES)
        assert abs(frac - p) <= SIGMA * sigma + 1e-9

    @settings(max_examples=10, deadline=None)
    @given(config=channel_configs, seed=st.integers(0, 2**31))
    def test_payload_outcome_rates_match_scalar_oracle(self, config, seed):
        packet_type = PacketType.DH5
        channel = Channel(config, random.Random(seed))
        profile = channel.loss_profile(packet_type)
        oracle = [
            channel.sample_payload_outcome(packet_type)
            for _ in range(N_SAMPLES)
        ]
        gen = numpy_generator(seed, "payload")
        bulk = bulk_payload_outcomes(gen, profile, N_SAMPLES)
        for code, name in (
            (PAYLOAD_DROPPED, "dropped"),
            (PAYLOAD_MISMATCH, "mismatch"),
            (PAYLOAD_RETRANSMITTED, "retransmitted"),
        ):
            p_oracle = oracle.count(name) / N_SAMPLES
            p_bulk = float((bulk == code).mean())
            assert two_sample_z(p_oracle, p_bulk, N_SAMPLES) <= SIGMA, (
                f"{name}: oracle {p_oracle:.4f} vs bulk {p_bulk:.4f}"
            )

    @settings(max_examples=10, deadline=None)
    @given(config=channel_configs, seed=st.integers(0, 2**31))
    @example(
        # Rare-burst config where a sample-std tolerance false-alarmed
        # (the heavy-tailed count's sample std is often far too small).
        config=ChannelConfig(
            distance=1.0, burst_rate=0.125, mean_burst=0.015625, ber_bad=0.125
        ),
        seed=6486239,
    )
    def test_retransmission_count_mean_matches_closed_form(self, config, seed):
        packet_type = PacketType.DH5
        profile = Channel(config, random.Random(0)).loss_profile(packet_type)
        gen = numpy_generator(seed, "retx")
        counts = bulk_retransmission_counts(gen, profile, config, N_RETX_SAMPLES)
        limit = int(config.retransmit_limit)
        duration = packet_type.duration
        # Moments by total expectation over the hit/good split, using
        # E[min(C, L)] = sum_k P(C >= k) and
        # E[min(C, L)^2] = sum_k (2k - 1) P(C >= k), k = 1..L, for both laws.
        p_hit_tail = [
            math.exp(-(k - 1) * duration / config.mean_burst)
            for k in range(1, limit + 1)
        ]
        p_fail = profile.p_good_state_failure
        p_good_tail = [p_fail**k for k in range(1, limit + 1)]

        def moments(tail):
            first = sum(tail)
            second = sum((2 * k - 1) * p for k, p in enumerate(tail, start=1))
            return first, second

        hit_mean, hit_square = moments(p_hit_tail)
        good_mean, good_square = moments(p_good_tail)
        expected = profile.p_hit * hit_mean + (1.0 - profile.p_hit) * good_mean
        square = profile.p_hit * hit_square + (1.0 - profile.p_hit) * good_square
        # The closed-form std, not the sample std: a rare heavy tail
        # leaves the sample std far too small in most draws.
        std = math.sqrt(max(square - expected**2, 0.0))
        tolerance = SIGMA * max(std, 1e-6) / math.sqrt(N_RETX_SAMPLES)
        assert abs(float(counts.mean()) - expected) <= tolerance + 1e-9
        assert int(counts.max()) <= limit

    @settings(max_examples=8, deadline=None)
    @given(
        config=channel_configs,
        seed=st.integers(0, 2**31),
        n_payloads=st.integers(5, 400),
        break_hazard=st.floats(0.0, 5e-3),
    )
    def test_transfer_outcome_rates_match_sample_transfer(
        self, config, seed, n_payloads, break_hazard
    ):
        packet_type = PacketType.DH5
        channel = Channel(config, random.Random(seed))
        profile = channel.loss_profile(packet_type)
        rng = random.Random(seed + 1)
        n_runs = 1500
        oracle_loss = oracle_mismatch = 0
        for _ in range(n_runs):
            outcome = sample_transfer(
                rng, channel, packet_type, n_payloads, break_hazard
            )
            if outcome.status is TransferStatus.LOSS:
                oracle_loss += 1
            elif outcome.status is TransferStatus.MISMATCH:
                oracle_mismatch += 1
        gen = numpy_generator(seed, "transfer")
        h_const = profile.p_drop + break_hazard
        p_mismatch = profile.p_hit * profile.p_undetected
        status, _, _ = bulk_transfer_outcomes(
            gen.random(n_runs),
            gen.random(n_runs),
            np.full(n_runs, n_payloads, dtype=np.float64),
            np.full(n_runs, h_const),
            np.full(n_runs, p_mismatch),
            np.full(n_runs, profile.packet_type.duration),
        )
        p_loss = float((status == TRANSFER_LOSS).mean())
        p_mis = float((status == TRANSFER_MISMATCH).mean())
        assert two_sample_z(oracle_loss / n_runs, p_loss, n_runs) <= SIGMA
        assert two_sample_z(oracle_mismatch / n_runs, p_mis, n_runs) <= SIGMA


class TestBatchExecutorDeterminism:
    DURATION = 2 * 3600.0

    def test_same_seed_same_repository(self):
        first = api.run(duration=self.DURATION, seed=11, fidelity="batch")
        second = api.run(duration=self.DURATION, seed=11, fidelity="batch")
        assert [repr(r) for r in first.repository.iter_records(kind="test")] == [
            repr(r) for r in second.repository.iter_records(kind="test")
        ]
        assert [repr(r) for r in first.repository.iter_records(kind="system")] == [
            repr(r) for r in second.repository.iter_records(kind="system")
        ]
        assert first.events_processed == second.events_processed > 0

    def test_different_seeds_diverge(self):
        a = api.run(duration=self.DURATION, seed=1, fidelity="batch")
        b = api.run(duration=self.DURATION, seed=2, fidelity="batch")
        assert [repr(r) for r in a.repository.iter_records(kind="test")] != [
            repr(r) for r in b.repository.iter_records(kind="test")
        ]

    def test_sweep_merge_is_byte_stable_across_jobs(self, tmp_path):
        kwargs = dict(
            duration=self.DURATION, seed=5, fidelity="batch"
        )
        serial = api.sweep(4, jobs=1, **kwargs)
        pooled = api.sweep(4, jobs=4, **kwargs)
        assert serial.render() == pooled.render()
        assert serial.render_statistics() == pooled.render_statistics()
        serial.repository.flush(tmp_path / "serial")
        pooled.repository.flush(tmp_path / "pooled")
        for name in sorted(
            p.name for p in (tmp_path / "serial").iterdir()
        ):
            assert (tmp_path / "serial" / name).read_bytes() == (
                tmp_path / "pooled" / name
            ).read_bytes(), name


class TestFidelityThreading:
    def test_default_is_bit(self):
        assert api.ExperimentConfig().fidelity == "bit"

    def test_unknown_fidelity_rejected(self):
        with pytest.raises(ValueError, match="fidelity"):
            api.ExperimentConfig(fidelity="exact")
        with pytest.raises(ValueError, match="fidelity"):
            dataclasses.replace(api.ExperimentConfig(), fidelity="exact")

    def test_config_spec_round_trip(self):
        config = api.ExperimentConfig(fidelity="batch")
        wire = config.to_payload()
        assert wire["fidelity"] == "batch"
        assert api.ExperimentConfig.from_payload(wire) == config
        assert dataclasses.replace(config, seed=9).fidelity == "batch"

    def test_batch_rejects_observability(self):
        with pytest.raises(ValueError, match="observability"):
            api.run(
                duration=3600.0,
                seed=0,
                fidelity="batch",
                observability=Observability(),
            )

    def test_bit_fingerprint_unchanged_by_fidelity_field(self):
        # Pre-existing bit-mode sweep checkpoints must stay valid: the
        # fingerprint only grows a fidelity entry for non-default modes.
        bit = api.ExperimentConfig(fidelity="bit").fingerprint_data()
        assert "fidelity" not in bit
        batch = api.ExperimentConfig(fidelity="batch").fingerprint_data()
        assert batch["fidelity"] == "batch"

    def test_cli_rejects_batch_with_packet_observability(self, capsys):
        from repro.cli import main

        assert main(
            ["run", "--fidelity", "batch", "--metrics-out", "m.txt"]
        ) == 2
        assert "--fidelity bit" in capsys.readouterr().err
        assert main(
            ["sweep", "--fidelity", "batch", "--metrics-out", "m.txt"]
        ) == 2

    def test_cli_run_batch_dumps_repository(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "campaign"
        assert main(
            ["run", "--fidelity", "batch", "--hours", "1",
             "--seed", "3", "--out", str(out)]
        ) == 0
        assert (out / "analysis.txt").exists()
