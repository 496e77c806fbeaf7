"""Standalone shard worker: ``python -m repro.parallel.worker``.

The dispatch backends (:mod:`repro.parallel.backends`) ship shards to
places a :class:`concurrent.futures.ProcessPoolExecutor` cannot reach —
a fresh interpreter, another host over SSH.  This module is the far end
of that wire: it reads one JSON *task* from stdin, runs the shard, and
writes one JSON *reply* to stdout.  Nothing else touches stdout, so the
reply is machine-parseable even when the simulation logs to stderr.

The task carries the campaign config as plain JSON
(:meth:`~repro.core.campaign.ExperimentConfig.to_payload` /
:meth:`~repro.core.campaign.ExperimentConfig.from_payload`): node profiles
travel by *name* and are resolved against the receiving interpreter's
registry, so both ends must run the same repro version — which the
sweep fingerprint embedded in every checkpoint/cache entry enforces
downstream anyway.
"""

from __future__ import annotations

import json
import sys

from repro.core.campaign import ExperimentConfig

from .shard import run_shard

#: Version of the stdin/stdout wire format.
TASK_VERSION = 1


def main() -> int:
    """Run one task from stdin; reply on stdout; 0 on success."""
    try:
        task = json.load(sys.stdin)
    except ValueError as error:
        print(f"worker: unreadable task on stdin: {error}", file=sys.stderr)
        return 2
    if task.get("version") != TASK_VERSION:
        print(
            f"worker: task version {task.get('version')!r} != {TASK_VERSION}",
            file=sys.stderr,
        )
        return 2
    try:
        spec = ExperimentConfig.from_payload(task["spec"])
        shard = run_shard(spec, with_metrics=bool(task.get("with_metrics", False)))
    except Exception as error:  # noqa: BLE001 - the wire carries one verdict
        print(f"worker: {type(error).__name__}: {error}", file=sys.stderr)
        return 1
    json.dump(
        {"version": TASK_VERSION, "shard": shard.to_payload()},
        sys.stdout,
        separators=(",", ":"),
    )
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())


__all__ = ["TASK_VERSION", "main"]
