"""Tests of the benchmark's own code, at tiny workload sizes.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run as bench  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from repro.collection.store import SQLiteStore  # noqa: E402
from repro.parallel.shard import ShardResult  # noqa: E402

#: Multiplies every simulated duration: seconds of work per operation.
TINY = 0.02


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_cli(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )


def test_benchmark_json_lists_what_the_runner_reports():
    document = spec()
    assert [w["name"] for w in document["workloads"]] == list(workloads.WORKLOADS)
    for entry in document["workloads"]:
        assert entry["why"] == workloads.WORKLOADS[entry["name"]].why
    assert {m["name"]: m["unit"] for m in document["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in document["per_layer"]} == (
        bench.per_layer_units()
    )


def test_mapping_names_only_reported_metrics_and_workloads():
    mapping = json.loads((BENCH / "mapping.json").read_text())
    layer_names = set(bench.per_layer_units())
    assert set(mapping["stages"]) == set(workloads.WORKLOADS)
    for prediction in mapping["predictions"]:
        assert prediction["moves"] in bench.END_TO_END
        assert prediction["on"] in workloads.WORKLOADS
        assert prediction["not_on"] in set(workloads.WORKLOADS) | {None}
        assert prediction["not_on"] != prediction["on"]
        assert set(prediction["layer_metrics"]) <= layer_names


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_every_named_metric_appears_with_its_unit(workload, trace):
    result = run_cli(
        "--workload", workload, "--seed", "3", "--seconds", "0.2",
        "--trace", trace, "--scale", str(TINY),
    )
    assert result.returncode == 0, result.stderr
    line = json.loads(result.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    key = "end_to_end" if trace == "0" else "per_layer"
    expected = {m["name"]: m["unit"] for m in spec()[key]}
    reported = {name: m["unit"] for name, m in line["metrics"].items()}
    assert reported == expected
    for name, metric in line["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    if trace == "0":
        assert all(m["value"] > 0 for m in line["metrics"].values())
    else:
        assert line["metrics"]["failed_ops_pct"]["value"] == 0.0
    assert not (ROOT / ".perfbench_work").exists()


def test_layer_self_times_sum_to_the_traced_total(tmp_path):
    workload = workloads.BitCampaign(2, tmp_path, scale=TINY)
    profile = tracing.LayerProfile(ROOT / "src" / "repro", workloads.ENTRIES)
    workload.traced = profile
    workload.run_once()
    report = profile.fold()
    assert set(report.self_s) == set(tracing.LAYERS) | {tracing.HARNESS}
    assert sum(report.self_s.values()) == pytest.approx(report.total_s, rel=1e-9)
    assert report.layer_s / report.total_s > 0.95
    assert report.self_s["repro.sim.engine"] > 0.0
    assert report.entries["api.run"][0] == 1


def test_non_repro_time_is_charged_to_the_calling_layer(tmp_path):
    workload = workloads.SweepStore(2, tmp_path, scale=TINY)
    profile = tracing.LayerProfile(ROOT / "src" / "repro", workloads.ENTRIES)
    workload.traced = profile
    workload.run_once()
    report = profile.fold()
    # sqlite3 cursor work has no frame of its own: the store pays for it.
    assert report.self_s["repro.collection.store"] > 0.0
    assert report.self_s["repro.sim.engine"] == 0.0
    assert report.self_s[tracing.HARNESS] < 0.05 * report.total_s


def test_layer_of_splits_the_named_packages():
    package = ROOT / "src" / "repro"
    assert tracing.layer_of(str(package / "sim" / "engine.py"), package) == (
        "repro.sim.engine"
    )
    assert tracing.layer_of(str(package / "bluetooth" / "l2cap.py"), package) == (
        "repro.bluetooth"
    )
    assert tracing.layer_of(str(package / "cli.py"), package) == "repro.other"
    assert tracing.layer_of(str(package / "__init__.py"), package) == "repro"
    assert tracing.layer_of("/usr/lib/python3/json/encoder.py", package) is None


def test_injected_store_corruption_raises_failed_ops_pct(tmp_path, monkeypatch):
    workload = workloads.SweepStore(2, tmp_path, scale=TINY)
    run = bench.Run(workload)
    run.repeat(0)
    assert run.failed == 0 and run.failed_ops_pct == 0.0
    original = SQLiteStore.iter_records

    def lossy(self, **query):
        rows = original(self, **query)
        next(rows, None)  # every cursor loses its first record
        yield from rows

    monkeypatch.setattr(SQLiteStore, "iter_records", lossy)
    run.repeat(0)
    assert run.failed == 1
    assert run.failed_ops_pct == pytest.approx(100.0 / (2 * workload.ops))


def test_injected_cache_corruption_fails_the_warm_shards(tmp_path, monkeypatch):
    workload = workloads.SweepStore(2, tmp_path, scale=TINY)
    run = bench.Run(workload)
    original = ShardResult.from_payload.__func__

    def skewed(cls, payload):
        shard = original(cls, payload)
        shard.statistics = dict(shard.statistics, mttf_s=-1.0)
        return shard

    monkeypatch.setattr(ShardResult, "from_payload", classmethod(skewed))
    run.repeat(0)
    assert run.attempted == workload.ops
    assert run.failed == workload.shards
    assert run.failed_ops_pct > 0.0


def test_golden_mismatch_fails_the_analysis(tmp_path):
    workload = workloads.BitCampaign(2, tmp_path, scale=TINY)
    workload.golden = "0" * 64
    outcome = workload.run_once()
    assert outcome.attempted == 2 and outcome.failed == 1
    assert any("golden" in problem for problem in outcome.problems)


def test_golden_digest_covers_the_bit_campaign_at_the_default_seed():
    key = workloads.golden_key(
        workloads.BitCampaign.name, workloads.DEFAULT_SEED,
        workloads.BitCampaign.base_duration,
    )
    assert len(workloads.load_golden()[key]) == 64


def test_a_directory_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    result = run_cli("--workload", "bit_campaign", "--seed", "1",
                     "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert result.returncode != 0
    assert result.stdout.strip() == ""
