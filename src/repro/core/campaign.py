"""End-to-end campaign drivers.

A *campaign* deploys the two testbeds (random + realistic workloads) on
one simulator, runs them for a stretch of simulated time, collects the
filtered failure data into a central repository, and hands everything
to the analysis functions.  The paper's campaign ran ~18 months of wall
clock; here the duration is a parameter — days of simulated time give
thousands of failure data items in seconds of CPU.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
    TypeVar,
    Union,
)

import contextlib
import functools
import gc
from pathlib import Path

from repro.collection.records import TestLogRecord
from repro.collection.repository import CentralRepository
from repro.obs import Observability
from repro.recovery.masking import MaskingPolicy
from repro.sim import RandomStreams, Simulator
from repro.testbed.nodes import (
    ALL_PROFILES,
    GIALLO,
    NodeProfile,
    VERDE,
    WIN,
    profile_by_name,
)
from repro.testbed.testbed import Testbed
from repro.workload.bluetest import CycleStats
from repro.workload.traffic import (
    FixedLengthWorkload,
    RandomWorkload,
    RealisticWorkload,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.injector import InjectorTuning
    from repro.obs.journal import SweepTelemetry
    from repro.parallel.backends import SweepBackend
    from repro.parallel.shard import ShardResult
    from repro.parallel.sweep import SweepResult

DAY = 86_400.0
#: Default campaign length used by examples and benchmarks.
DEFAULT_DURATION = 2 * DAY


@contextlib.contextmanager
def _gc_paused() -> Iterator[None]:
    """Pause cyclic garbage collection around the simulation hot loop.

    A campaign allocates heavily but almost everything dies by reference
    counting; the generational collector only finds the few cycles left
    by exception tracebacks, at the price of scanning every young
    allocation.  Collection resumes (and catches up naturally) as soon
    as the loop exits.  No-op when the caller already disabled gc.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


#: Valid :attr:`ExperimentConfig.fidelity` values.
FIDELITIES = ("bit", "batch")

_ConfigT = TypeVar("_ConfigT")


def _keyword_only(cls: Type[_ConfigT]) -> Type[_ConfigT]:
    """Make a dataclass constructor keyword-only (``kw_only=`` needs 3.10).

    Campaign call sites historically mixed positional ``duration``/``seed``
    orders; a keyword-only constructor makes that impossible.
    """
    init = cls.__init__

    @functools.wraps(init)
    def __init__(self: _ConfigT, **kwargs: Any) -> None:
        init(self, **kwargs)

    setattr(cls, "__init__", __init__)
    return cls


@_keyword_only
@dataclass(frozen=True, repr=False)
class ExperimentConfig:
    """Keyword-only, immutable description of one campaign experiment.

    The one campaign-config type: :mod:`repro.api` builds it, the sweep
    pool ships it across process boundaries (every field pickles without
    dragging a live simulator along), the standalone worker receives it
    as JSON (:meth:`to_payload`/:meth:`from_payload`), and sweep
    checkpoints and the shard cache fingerprint it
    (:meth:`fingerprint_data`).  Derive variants with
    :func:`dataclasses.replace`.
    """

    #: Simulated seconds each replicate runs for.
    duration: float = DEFAULT_DURATION
    #: Root seed (sweeps derive per-shard seeds from it).
    seed: int = 0
    #: The three §5 masking strategies (all off by default; None = off).
    masking: MaskingPolicy = MaskingPolicy.all_off()
    #: Which testbeds to deploy ("random" and/or "realistic").
    workloads: Tuple[str, ...] = ("random", "realistic")
    #: Node hardware/OS profiles to instantiate per testbed.
    profiles: Tuple[NodeProfile, ...] = ALL_PROFILES
    #: Replace Bluetooth dongles at the campaign midpoint (§3).
    hardware_replacement: bool = True
    #: Execution mode: ``"bit"`` walks every Baseband payload through the
    #: event engine (the oracle); ``"batch"`` samples per-cycle outcomes
    #: in bulk from the memoised Gilbert–Elliott closed forms
    #: (:mod:`repro.sim.batch`) — statistically equivalent (4-sigma gate)
    #: and ~10x faster, but without per-packet observability.
    fidelity: str = "bit"
    #: Rare-event importance-sampling boost: > 1 multiplies the
    #: activation probability of the low-rate operation-drawn failure
    #: classes (:func:`repro.faults.calibration.rare_failure_types`).
    #: A boosted replicate's raw tables are *tilted*; the sweep pool
    #: reweights them (:func:`repro.core.summary.importance_estimates`)
    #: so pooled count estimates stay unbiased.
    rare_boost: float = 1.0

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError("experiment duration must be positive")
        if self.fidelity not in FIDELITIES:
            raise ValueError(
                f"unknown fidelity: {self.fidelity!r} (expected 'bit' or 'batch')"
            )
        if self.rare_boost < 1.0:
            raise ValueError("rare_boost must be >= 1")
        normalised = {
            "duration": float(self.duration),
            "seed": int(self.seed),
            "masking": MaskingPolicy.all_off() if self.masking is None else self.masking,
            "workloads": tuple(self.workloads),
            "profiles": tuple(self.profiles),
            "hardware_replacement": bool(self.hardware_replacement),
            "rare_boost": float(self.rare_boost),
        }
        for name, value in normalised.items():
            object.__setattr__(self, name, value)

    def __repr__(self) -> str:
        # Profiles by name: their full dataclass reprs would drown the rest.
        shown = {f.name: getattr(self, f.name) for f in fields(self)}
        shown["profiles"] = tuple(p.name for p in self.profiles)
        body = ", ".join(f"{name}={value!r}" for name, value in shown.items())
        return f"ExperimentConfig({body})"

    # -- wire format -----------------------------------------------------------

    def to_payload(self) -> Dict[str, object]:
        """This config as plain JSON-able data (the worker wire format).

        Node profiles travel by *name* and are resolved against the
        receiving interpreter's registry by :meth:`from_payload`.
        """
        return {
            "duration": self.duration,
            "seed": self.seed,
            "masking": {
                "bind_wait": self.masking.bind_wait,
                "retry": self.masking.retry,
                "sdp_before_pan": self.masking.sdp_before_pan,
            },
            "workloads": list(self.workloads),
            "profiles": [profile.name for profile in self.profiles],
            "hardware_replacement": self.hardware_replacement,
            "fidelity": self.fidelity,
            "rare_boost": self.rare_boost,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "ExperimentConfig":
        """Rebuild a config from :meth:`to_payload` data.

        Raises ``KeyError`` for a profile name the receiving interpreter
        does not know — the clear failure mode for a version-skewed remote.
        """
        masking = payload.get("masking", {})
        if not isinstance(masking, dict):
            raise ValueError("config payload field 'masking' must be an object")
        return cls(
            duration=float(payload["duration"]),  # type: ignore[arg-type]
            seed=int(payload["seed"]),  # type: ignore[call-overload]
            masking=MaskingPolicy(
                bind_wait=bool(masking.get("bind_wait", False)),
                retry=bool(masking.get("retry", False)),
                sdp_before_pan=bool(masking.get("sdp_before_pan", False)),
            ),
            workloads=tuple(str(w) for w in payload["workloads"]),  # type: ignore[union-attr]
            profiles=tuple(
                profile_by_name(str(name))
                for name in payload["profiles"]  # type: ignore[union-attr]
            ),
            hardware_replacement=bool(payload.get("hardware_replacement", True)),
            fidelity=str(payload.get("fidelity", "bit")),
            rare_boost=float(payload.get("rare_boost", 1.0)),  # type: ignore[arg-type]
        )

    def fingerprint_data(self) -> Dict[str, object]:
        """Seed-independent identity of the run: :meth:`to_payload` minus the seed.

        Sweep checkpoints and the shard cache hash this (together with
        the seed list) to decide whether shard files on disk belong to
        the sweep being resumed.  ``fidelity`` and ``rare_boost`` enter
        only at non-default values, so fingerprints written before those
        fields existed stay valid — while a batch or boosted (tilted)
        run never shares a fingerprint, or a cache key, with a nominal
        bit run.
        """
        data = self.to_payload()
        del data["seed"]
        if self.fidelity == "bit":
            del data["fidelity"]
        if self.rare_boost == 1.0:
            del data["rare_boost"]
        return data

    # -- execution -------------------------------------------------------------

    def injector_tuning(self) -> Optional["InjectorTuning"]:
        """The fault-injector tuning this config implies (None = default)."""
        if self.rare_boost == 1.0:
            return None
        from repro.faults.calibration import rare_failure_types
        from repro.faults.injector import InjectorTuning

        return InjectorTuning(
            rare_boost=self.rare_boost, boosted=rare_failure_types()
        )

    def run(self, observability: Optional[Observability] = None) -> "CampaignResult":
        """Execute one replicate of this experiment.

        Pass an :class:`~repro.obs.Observability` bundle to instrument
        the run (metrics, propagation tracing, engine profiling); it is
        activated around the whole campaign and returned on the result.
        """
        return self._execute(observability=observability)

    def _execute(
        self,
        observability: Optional[Observability] = None,
        on_progress: Optional[Callable[[Simulator], None]] = None,
        progress_interval: Optional[float] = None,
    ) -> "CampaignResult":
        """Run on the executor this config's fidelity selects."""
        if self.fidelity == "batch":
            # Lazy import: the bit engine stays importable without numpy.
            from repro.sim.batch import execute_batch_campaign

            return execute_batch_campaign(
                self,
                observability=observability,
                on_progress=on_progress,
                progress_interval=progress_interval,
            )
        return _execute_campaign(
            self,
            observability=observability,
            on_progress=on_progress,
            progress_interval=progress_interval,
        )

    def sweep(
        self,
        seeds: Union[int, Sequence[int]],
        *,
        jobs: int = 1,
        checkpoint_dir: Optional[Union[str, Path]] = None,
        with_metrics: bool = False,
        progress: Optional[Callable[["ShardResult", bool], None]] = None,
        telemetry: Optional["SweepTelemetry"] = None,
        backend: Union[None, str, "SweepBackend"] = None,
        cache_dir: Optional[Union[str, Path]] = None,
        rare_boost: float = 1.0,
        boost_seeds: int = 0,
        target_ci: Optional[float] = None,
        max_seeds: int = 64,
        store: Union[None, str, Path] = None,
    ) -> "SweepResult":
        """Replicate this experiment across seeds and merge canonically.

        ``seeds`` is a count (shard seeds derive from :attr:`seed`) or
        an explicit seed sequence.  ``jobs`` caps backend concurrency;
        ``backend`` picks where shards run (``None`` = the local process
        pool, ``"serial"``, ``"process"``, ``"subprocess"``,
        ``"ssh:host1,host2"`` or a
        :class:`~repro.parallel.backends.SweepBackend`; every backend
        produces byte-identical results).  ``checkpoint_dir`` makes the
        sweep resumable; ``cache_dir`` layers the content-addressed
        shard cache on top, so repeated or overlapping sweeps reuse
        completed shards byte-identically.  ``progress`` is called with
        ``(shard, reused)`` as shards complete.  ``telemetry`` (a
        :class:`~repro.obs.journal.SweepTelemetry`) turns on the run
        journal, live monitoring and the stall watchdog — see
        :mod:`repro.obs.campaign`.

        ``rare_boost`` > 1 adds ``boost_seeds`` importance-sampled
        replicates (default: the nominal stratum size) that tighten the
        rare failure-class statistics without biasing them;
        ``target_ci`` keeps growing the strata (up to ``max_seeds``)
        until every pooled statistic's 95% CI is under that relative
        width.  The merged tables are byte-identical with telemetry on
        or off.  See :mod:`repro.parallel` for the determinism
        guarantees.

        ``store`` spills every nominal shard's records into the columnar
        SQLite store at that path as the sweep completes — shard by
        shard, in canonical seed order, so the merged record stream is
        queryable and analysable out-of-core without ever materialising
        in RAM.  Neither ``backend`` nor ``store`` can change a result
        byte, so neither is part of the config or its fingerprint.
        """
        from repro.parallel.sweep import _execute_sweep

        # The hand-off to the orchestrator, whose wall-clock reads time
        # shards and stamp journal envelopes but never feed sim time.
        return _execute_sweep(  # repro: allow[DET010] orchestration wall time only
            seeds,
            jobs=jobs,
            spec=self,
            checkpoint_dir=checkpoint_dir,
            with_metrics=with_metrics,
            progress=progress,
            telemetry=telemetry,
            backend=backend,
            cache=cache_dir,
            rare_boost=rare_boost,
            boost_seeds=boost_seeds,
            target_ci=target_ci,
            max_seeds=max_seeds,
            store=store,
        )


@dataclass
class CampaignResult:
    """Everything one campaign produced."""

    duration: float
    seed: int
    masking: MaskingPolicy
    repository: CentralRepository
    testbeds: Dict[str, Testbed]
    sim: Simulator
    #: Observability bundle active during the run (None when off): holds
    #: the metrics registry, the propagation tracer and the engine
    #: profiler for post-run export.
    observability: Optional[Observability] = None
    #: Engine events processed during the main run loop (0 when unknown,
    #: e.g. results built by legacy paths).
    events_processed: int = 0
    #: Columnar store the run's records were spilled to when
    #: ``api.run(store=...)`` asked for one (None otherwise).
    store_path: Optional[Path] = None

    # -- convenience accessors -------------------------------------------------

    def unmasked_failures(self, testbed: Optional[str] = None) -> List[TestLogRecord]:
        """Failure reports that actually manifested (masked ones excluded)."""
        return [
            r
            for r in self.repository.iter_records(kind="test", testbed=testbed)
            if not r.masked
        ]

    def masked_count(self, testbed: Optional[str] = None) -> int:
        """How many failures the masking strategies absorbed."""
        return sum(
            1
            for r in self.repository.iter_records(kind="test", testbed=testbed)
            if r.masked
        )

    def node_nap_pairs(self) -> List[Tuple[str, str]]:
        """(PANU, its NAP) log-identifier pairs across all testbeds."""
        pairs = []
        for testbed in self.testbeds.values():
            for panu in testbed.panus:
                pairs.append((panu.id, testbed.nap.id))
        return pairs

    def client_stats(self, testbed: Optional[str] = None) -> List[CycleStats]:
        """Aggregate cycle statistics of every client, optionally filtered."""
        stats = []
        for name, bed in self.testbeds.items():
            if testbed is not None and name != testbed:
                continue
            stats.extend(client.stats for client in bed.clients())
        return stats

    def cycles_by_packet_type(self, testbed: str = "random") -> Dict[str, int]:
        """Cycles run per Baseband packet type (normalises fig. 3a)."""
        merged: Dict[str, int] = {}
        for stats in self.client_stats(testbed):
            for key, count in stats.cycles_by_packet_type.items():
                merged[key] = merged.get(key, 0) + count
        return merged


def _execute_campaign(
    config: ExperimentConfig,
    observability: Optional[Observability] = None,
    on_progress: Optional[Callable[[Simulator], None]] = None,
    progress_interval: Optional[float] = None,
) -> CampaignResult:
    """The bit-fidelity campaign executor behind :meth:`ExperimentConfig.run`.

    Pass an :class:`~repro.obs.Observability` bundle to instrument the
    run: it is activated around testbed construction and execution (so
    every layer binds live metrics) and returned on the result for
    export.  ``None`` (the default) runs with the null registry —
    near-zero overhead.

    ``on_progress`` (with a positive ``progress_interval``) arms a
    read-only periodic probe over the running simulator: called once at
    t=0 and then every ``progress_interval`` simulated seconds.  The
    probe fires at maximum tie-break priority — strictly *after* every
    ordinary event at the same instant — and must not schedule or mutate
    sim state, so arming it cannot perturb the campaign's event order.
    """
    duration = config.duration
    factories: Dict[str, Callable] = {
        "random": RandomWorkload,
        "realistic": RealisticWorkload,
    }
    sim = Simulator()
    streams = RandomStreams(config.seed)
    repository = CentralRepository()
    testbeds: Dict[str, Testbed] = {}
    tuning = config.injector_tuning()
    scope = (
        observability.activate(sim)
        if observability is not None
        else contextlib.nullcontext()
    )
    with scope:
        for name in config.workloads:
            if name not in factories:
                raise ValueError(f"unknown workload: {name!r}")
            bed = Testbed(
                sim,
                name,
                factories[name],
                repository,
                streams,
                masking=config.masking,
                profiles=config.profiles,
                tuning=tuning,
            )
            if config.hardware_replacement:
                bed.schedule_hardware_replacement(duration / 2.0)
            bed.start()
            testbeds[name] = bed
        probe = None
        if on_progress is not None and progress_interval:
            on_progress(sim)
            # Maximum tie-break priority: the probe observes each instant
            # only after every same-time sim event has run.
            probe = sim.schedule_periodic(
                progress_interval, lambda: on_progress(sim), priority=1 << 30
            )
        try:
            with _gc_paused():
                events_processed = sim.run_until(duration)
        finally:
            if probe is not None:
                probe.cancel()
        if on_progress is not None:
            on_progress(sim)
        for bed in testbeds.values():
            bed.final_collection()
    return CampaignResult(
        duration=duration,
        seed=config.seed,
        masking=config.masking,
        repository=repository,
        testbeds=testbeds,
        sim=sim,
        observability=observability,
        events_processed=events_processed,
    )


def run_connection_length_experiment(
    duration: float = 2 * DAY,
    seed: int = 0,
) -> CampaignResult:
    """The figure-3b experiment: special random WL on Verde and Win.

    N fixed to 10000 packets, L_S = L_R = 1691 bytes (the BNEP MTU),
    run (in the paper) for two months on exactly those two machines.
    """
    sim = Simulator()
    streams = RandomStreams(seed)
    repository = CentralRepository()
    bed = Testbed(
        sim,
        "random",
        FixedLengthWorkload,
        repository,
        streams,
        masking=MaskingPolicy.all_off(),
        profiles=(GIALLO, VERDE, WIN),
    )
    bed.start()
    with _gc_paused():
        sim.run_until(duration)
    bed.final_collection()
    return CampaignResult(
        duration=duration,
        seed=seed,
        masking=MaskingPolicy.all_off(),
        repository=repository,
        testbeds={"random": bed},
        sim=sim,
    )


__all__ = [
    "CampaignResult",
    "ExperimentConfig",
    "run_connection_length_experiment",
    "DAY",
    "DEFAULT_DURATION",
]
