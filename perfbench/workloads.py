"""The benchmark workloads and their output checks.

Each workload drives only the program's public entry points
(``repro.api.run``/``sweep``, ``SQLiteStore``, ``campaign_statistics``,
``summarize_repository(...).render()``) on inputs generated from the
workload seed, and splits one operation into two timed stages:

================  ==============================  =========================================
workload          produce stage                   consume stage
================  ==============================  =========================================
``bit_campaign``  ``api.run`` at bit fidelity     statistics + rendered report (in memory)
``sweep_store``   cold batch ``api.sweep`` into   warm ``api.sweep`` from that cache into a
                  a fresh shard cache             fresh SQLite store, then statistics +
                                                  rendered report off the store
================  ==============================  =========================================

Every operation (campaign, shard, analysis) is checked; one that
raises or fails its check counts as failed.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro import api
from repro.collection.records import SystemLogRecord, TestLogRecord
from repro.collection.store import SQLiteStore
from repro.core.classification import classify_user_record
from repro.core.coalescence import iter_coalesce
from repro.core.merge import iter_merged
from repro.core.relationship import build_relationship_table
from repro.core.sira_analysis import build_sira_table
from repro.core.summary import (
    AnalysisSummary,
    campaign_statistics,
    summarize_repository,
)
from repro.core.trends import campaign_trend
from repro.parallel.cache import ShardCache, payload_digest
from repro.parallel.shard import ShardResult
from repro.parallel.sweep import SweepResult

DAY = 86_400.0

#: Seed whose statistics digest is recorded in ``golden.json``.
DEFAULT_SEED = 1

GOLDEN_PATH = Path(__file__).with_name("golden.json")

#: Public entry points whose calls and cumulative time the traced run reports.
ENTRIES: Dict[str, Callable] = {
    "api.run": api.run,
    "SQLiteStore.ingest_store": SQLiteStore.ingest_store,
    "SQLiteStore.iter_records": SQLiteStore.iter_records,
    "classify_user_record": classify_user_record,
    "build_relationship_table": build_relationship_table,
    "build_sira_table": build_sira_table,
    "iter_merged": iter_merged,
    "iter_coalesce": iter_coalesce,
    "campaign_trend": campaign_trend,
    "AnalysisSummary.render": AnalysisSummary.render,
    "ShardCache.get": ShardCache.get,
    "ShardCache.put": ShardCache.put,
    "payload_digest": payload_digest,
    "ShardResult.to_payload": ShardResult.to_payload,
    "ShardResult.from_payload": ShardResult.from_payload,
    "ShardResult.repository": ShardResult.repository,
    "SweepResult.into_store": SweepResult.into_store,
}

#: Record constructors, one call per failure record built, for
#: ``records.built_per_item``.
RECORD_BUILDERS = (TestLogRecord.__init__, SystemLogRecord.__init__)

#: Exact counts every operation reports (0 where a workload has none).
COUNTS = (
    "engine.events",
    "campaign.cycles",
    "items.user",
    "items.system",
    "store.bytes_per_item",
    "cache.bytes",
    "cache.hit_ratio",
)

#: Stage figures under their own names (0 where a workload has no such stage).
STAGE_FIGURES = (
    "sim_rate",
    "analysis_items_per_s",
    "sweep_cold_s",
    "sweep_warm_s",
)


@dataclass
class Outcome:
    """One timed operation: stage walls, work done and check results."""

    produce_s: float
    consume_s: float
    #: Failure data items the operation went through.
    items: int
    attempted: int
    failed: int
    counts: Dict[str, float] = field(default_factory=dict)
    figures: Dict[str, float] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)


def statistics_digest(stats: Dict[str, float]) -> str:
    """SHA-256 of a statistics dict's canonical JSON."""
    canonical = json.dumps(stats, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def load_golden() -> Dict[str, str]:
    with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def golden_key(workload: str, seed: int, duration: float) -> str:
    return f"{workload}:seed={seed}:duration={duration:g}"


def cycles_of(result) -> int:
    return sum(stats.cycles for stats in result.client_stats())


def tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


class Workload:
    """A workload: repeatable set-up, one timed operation, its checks."""

    name = ""
    why = ""
    #: Operations one :meth:`run_once` attempts (counted failed if it raises).
    ops = 2

    def __init__(self, seed: int, workdir: Path, scale: float = 1.0) -> None:
        self.seed = seed
        self.workdir = workdir
        #: Multiplies every simulated duration (tests run at tiny scales).
        self.scale = scale
        self.reps = 0
        #: Wraps the timed stages; a traced run swaps in the profiler.
        self.traced: contextlib.AbstractContextManager = contextlib.nullcontext()

    def setup(self) -> None:
        """Build fresh state for the timed operations."""

    def run_once(self) -> Outcome:
        raise NotImplementedError

    def fresh_path(self, stem: str) -> Path:
        self.reps += 1
        path = self.workdir / f"{stem}-{self.reps}"
        if path.is_dir():
            shutil.rmtree(path)
        elif path.exists():
            path.unlink()
        return path


class BitCampaign(Workload):
    """One bit-fidelity campaign through ``api.run``, then its analysis in memory."""

    name = "bit_campaign"
    why = (
        "bit-fidelity campaign on both testbeds plus in-memory Table 1-4 "
        "analysis: the only workload where the event engine, PAN stack, "
        "BlueTest and fault injector run"
    )
    base_duration = 2 * DAY
    warmup_duration = 8 * 3600.0

    def __init__(self, seed: int, workdir: Path, scale: float = 1.0) -> None:
        super().__init__(seed, workdir, scale)
        self.duration = self.base_duration * scale
        self.golden: Optional[str] = load_golden().get(
            golden_key(self.name, seed, self.duration)
        )
        self.reference: Optional[Tuple[Tuple[int, ...], str, str]] = None

    def setup(self) -> None:
        # Warm-up: a short campaign fills lazy caches (loss profiles,
        # interned vocabularies) the timed campaigns then reuse.
        api.run(duration=self.warmup_duration * self.scale, seed=self.seed)

    def run_once(self) -> Outcome:
        with self.traced:
            started = time.perf_counter()
            result = api.run(duration=self.duration, seed=self.seed)
            produced = time.perf_counter()
            pairs = result.node_nap_pairs()
            stats = campaign_statistics(result.repository, pairs, self.duration)
            text = summarize_repository(result.repository, pairs, self.duration).render()
            consumed = time.perf_counter()

        summary = result.repository.summary()
        items = summary["total_failure_data_items"]
        fingerprint = (
            summary["user_level_reports"],
            summary["system_level_entries"],
            result.events_processed,
            cycles_of(result),
        )
        digest = statistics_digest(stats)
        if self.reference is None:
            self.reference = (fingerprint, digest, text)
        problems = []
        if (
            items <= 0
            or items != summary["user_level_reports"] + summary["system_level_entries"]
            or fingerprint != self.reference[0]
        ):
            problems.append("campaign: repository differs between identical runs")
        if stats["total_failure_data_items"] != items:
            problems.append("analysis: statistics disagree with the repository")
        if digest != self.reference[1] or text != self.reference[2]:
            problems.append("analysis: output differs between identical runs")
        if self.golden is not None and digest != self.golden:
            problems.append("analysis: statistics digest differs from golden.json")
        failed = int(any(p.startswith("campaign") for p in problems)) + int(
            any(p.startswith("analysis") for p in problems)
        )
        produce_s = produced - started
        consume_s = consumed - produced
        return Outcome(
            produce_s=produce_s,
            consume_s=consume_s,
            items=items,
            attempted=2,
            failed=failed,
            counts={
                "engine.events": float(result.events_processed),
                "campaign.cycles": float(fingerprint[3]),
                "items.user": float(summary["user_level_reports"]),
                "items.system": float(summary["system_level_entries"]),
            },
            figures={
                "sim_rate": self.duration / produce_s,
                "analysis_items_per_s": items / consume_s,
            },
            problems=problems,
        )


class SweepStore(Workload):
    """A cold batch sweep, the same sweep warm into a store, then its analysis."""

    name = "sweep_store"
    why = (
        "process-backend batch sweep cold into a fresh shard cache, then warm "
        "into a fresh SQLite store and analysed off it: batch executor, cache, "
        "payload codec, merge, spill, store scans"
    )
    shards = 4
    #: Every shard twice (cold, warm) plus the analysis of the store.
    ops = 2 * shards + 1
    base_duration = DAY

    def __init__(self, seed: int, workdir: Path, scale: float = 1.0) -> None:
        super().__init__(seed, workdir, scale)
        self.duration = self.base_duration * scale
        self.jobs = min(2, os.cpu_count() or 1)
        #: In-memory statistics and report of the merged sweep: the
        #: oracle the SQLite analysis must match byte for byte.
        self.reference: Optional[Tuple[Dict[str, float], str]] = None

    def sweep(self, **options: object) -> SweepResult:
        return api.sweep(
            self.shards,
            jobs=self.jobs,
            duration=self.duration,
            seed=self.seed,
            fidelity="batch",
            backend="process",
            **options,
        )

    def setup(self) -> None:
        # Warm-up: one in-process shard imports and primes the batch
        # executor and shard payload code the timed sweeps use.
        api.sweep(1, duration=self.duration, seed=self.seed, fidelity="batch",
                  backend="serial")

    def run_once(self) -> Outcome:
        cache = self.fresh_path("cache")
        target = self.fresh_path("sweep.sqlite")
        with self.traced:
            started = time.perf_counter()
            cold = self.sweep(cache_dir=cache)
            produced = time.perf_counter()
            warm = self.sweep(cache_dir=cache, store=target)
            swept = time.perf_counter()
            pairs = warm.node_nap_pairs()
            with SQLiteStore.open(target) as store:
                stats = campaign_statistics(store, pairs, self.duration)
                text = summarize_repository(store, pairs, self.duration).render()
                summary = store.summary()
            consumed = time.perf_counter()

        if self.reference is None:
            # Untimed, once: the oracle analysis over the merged in-memory stream.
            merged = cold.repository
            self.reference = (
                campaign_statistics(merged, pairs, self.duration),
                summarize_repository(merged, pairs, self.duration).render(),
            )
        user = sum(int(s.statistics["user_level_reports"]) for s in cold.shards)
        system = sum(int(s.statistics["system_level_entries"]) for s in cold.shards)
        items = user + system
        cache_bytes = tree_bytes(cache)
        store_bytes = target.stat().st_size
        shutil.rmtree(cache)
        target.unlink()

        problems = []
        # Cold shards: each simulated once, its statistics matching its records.
        cold_failed = sum(
            1
            for shard in cold.shards
            if shard.total_items
            != len(shard.repository_payload["test"])
            + len(shard.repository_payload["system"])
        )
        if cold.cached != 0 or len(cold.shards) != self.shards:
            cold_failed = self.shards
        if cold_failed:
            problems.append(f"cold sweep: {cold_failed} shard(s) wrong")
        # Warm shards: every one served by the cache, same render, same counts.
        expected = {
            "user_level_reports": user,
            "system_level_entries": system,
            "total_failure_data_items": items,
        }
        warm_failed = 0
        if (
            warm.cached != self.shards
            or warm.render() != cold.render()
            or summary != expected
        ):
            warm_failed = self.shards
            problems.append("warm sweep: cache or store output differs from cold")
        analysis_failed = 0
        if (stats, text) != self.reference:
            analysis_failed = 1
            problems.append("analysis: SQLite analysis differs from in-memory")
        produce_s = produced - started
        consume_s = consumed - produced
        cycles = sum(
            int(entry["cycles"]) for entry in cold.merged_cycle_stats().values()
        )
        return Outcome(
            produce_s=produce_s,
            consume_s=consume_s,
            items=items,
            attempted=self.ops,
            failed=cold_failed + warm_failed + analysis_failed,
            counts={
                "engine.events": float(sum(s.events for s in cold.shards)),
                "campaign.cycles": float(cycles),
                "items.user": float(user),
                "items.system": float(system),
                "store.bytes_per_item": store_bytes / items,
                "cache.bytes": float(cache_bytes),
                "cache.hit_ratio": (cold.cached + warm.cached) / (2 * self.shards),
            },
            figures={
                "sim_rate": self.shards * self.duration / produce_s,
                "sweep_cold_s": produce_s,
                "sweep_warm_s": swept - produced,
                "analysis_items_per_s": items / (consumed - swept),
            },
            problems=problems,
        )


WORKLOADS: Dict[str, type] = {cls.name: cls for cls in (BitCampaign, SweepStore)}
