"""The unified experiment API.

One façade fronts every way of executing the paper's campaign:

* :class:`ExperimentConfig` — the frozen, keyword-only description of a
  campaign (duration, seed, masking, workloads, node profiles, hardware
  replacement, fidelity, rare-event boost) with two verbs:
  :meth:`~ExperimentConfig.run` executes a single replicate,
  :meth:`~ExperimentConfig.sweep` replicates it across N deterministic
  seeds on a pluggable backend.  It lives in :mod:`repro.core.campaign`
  so the executors can take it without depending on this module.
* :func:`run` / :func:`sweep` — one-shot module-level conveniences that
  build the config and execute it in a single call.

Where a run executes (``backend``) and where its records land
(``store``) cannot change a result byte, so both are arguments of the
verbs, never fields of the config.

Quickstart::

    from repro import api

    result = api.run(duration=86_400.0, seed=7)
    print(len(result.unmasked_failures()))

    sweep = api.sweep(8, jobs=4, duration=86_400.0, seed=7)
    print(sweep.render())
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Callable, Optional, Sequence, Union

from repro.core.campaign import CampaignResult, ExperimentConfig
from repro.obs import Observability

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.obs.journal import SweepTelemetry
    from repro.parallel.backends import SweepBackend
    from repro.parallel.shard import ShardResult
    from repro.parallel.sweep import SweepResult


def run(
    *,
    observability: Optional[Observability] = None,
    store: Union[None, str, Path] = None,
    **config: object,
) -> CampaignResult:
    """Build an :class:`ExperimentConfig` from keywords and run it once.

    With ``store`` set, the replicate's records are also appended to
    the columnar SQLite store at that path (created on first use) and
    ``result.store_path`` records where.
    """
    if store is not None and not isinstance(store, (str, Path)):
        raise ValueError(
            f"store must be a path to a SQLite failure store, got {store!r}"
        )
    result = ExperimentConfig(**config).run(  # type: ignore[arg-type]
        observability=observability
    )
    if store is not None:
        from repro.collection.store import SQLiteStore

        with SQLiteStore(store) as target:
            target.ingest_store(result.repository)
        result.store_path = Path(store)
    return result


def sweep(
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
    **config: object,
) -> "SweepResult":
    """Build an :class:`ExperimentConfig` from keywords and sweep it.

    Sweep-control keywords (``jobs``, ``checkpoint_dir``,
    ``with_metrics``, ``progress``, ``telemetry``, ``backend``,
    ``cache_dir``, ``rare_boost``, ``boost_seeds``, ``target_ci``,
    ``max_seeds``, ``store``) go to :meth:`ExperimentConfig.sweep`;
    everything else describes the campaign, exactly as :func:`run`
    takes it.
    """
    return ExperimentConfig(**config).sweep(  # type: ignore[arg-type]
        seeds,
        jobs=jobs,
        checkpoint_dir=checkpoint_dir,
        with_metrics=with_metrics,
        progress=progress,
        telemetry=telemetry,
        backend=backend,
        cache_dir=cache_dir,
        rare_boost=rare_boost,
        boost_seeds=boost_seeds,
        target_ci=target_ci,
        max_seeds=max_seeds,
        store=store,
    )


__all__ = ["ExperimentConfig", "run", "sweep"]
