"""Sweep checkpointing: resume interrupted sweeps shard by shard.

A paper-scale sweep is hours of CPU; losing it to a crash at shard 7/8
is not acceptable.  The checkpoint directory holds one JSON file per
completed shard plus a manifest describing the sweep that produced
them.  Validity is decided per shard file against the sweep
*fingerprint* — a hash of everything that changes a shard's outcome
(campaign config, metrics on/off, payload schema version) — so a resumed
sweep reuses exactly the shards that would be recomputed identically,
and silently recomputes everything else.  Writes go through
:func:`repro.parallel.cache.atomic_write_json` (per-process temp name,
``fsync``, ``os.replace``): a shard killed mid-write leaves at worst an
orphaned temp file that no reader — neither resume nor the shard cache
seeded from checkpoints — can ever mistake for a completed shard.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, Optional, Sequence, Union

from repro import get_logger
from repro.core.campaign import ExperimentConfig

from .cache import atomic_write_json
from .shard import PAYLOAD_VERSION, ShardResult

log = get_logger("parallel.checkpoint")

MANIFEST_NAME = "sweep_manifest.json"


def sweep_fingerprint(spec: ExperimentConfig, with_metrics: bool) -> str:
    """Hex digest identifying what every shard of this sweep computes.

    The per-shard seed is excluded (it varies within one sweep and is
    part of the shard file name instead); everything else that affects
    a shard's payload is included.
    """
    identity = {
        "payload_version": PAYLOAD_VERSION,
        "spec": spec.fingerprint_data(),
        "with_metrics": bool(with_metrics),
    }
    canonical = json.dumps(identity, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class SweepCheckpoint:
    """Shard store of one sweep under a directory."""

    def __init__(self, directory: Union[str, Path], fingerprint: str) -> None:
        self.directory = Path(directory)
        self.fingerprint = fingerprint

    # -- paths ---------------------------------------------------------------

    def shard_path(self, seed: int) -> Path:
        return self.directory / f"shard-{int(seed)}.json"

    # -- manifest ------------------------------------------------------------

    def write_manifest(self, seeds: Sequence[int], root_seed: int) -> None:
        """Describe the sweep for humans and for resume sanity checks."""
        manifest = {
            "fingerprint": self.fingerprint,
            "root_seed": int(root_seed),
            "seeds": [int(seed) for seed in seeds],
        }
        self._write_json(self.directory / MANIFEST_NAME, manifest)

    # -- shard round-trip ----------------------------------------------------

    def load(self, seed: int) -> Optional[ShardResult]:
        """The completed shard for ``seed``, or None to recompute it."""
        path = self.shard_path(seed)
        if not path.exists():
            return None
        try:
            with open(path, "r", encoding="utf-8") as handle:
                document = json.load(handle)
            if document.get("fingerprint") != self.fingerprint:
                log.info("checkpoint %s: stale fingerprint, recomputing", path.name)
                return None
            return ShardResult.from_payload(document["shard"])
        except (ValueError, KeyError, OSError) as error:
            log.warning("checkpoint %s unreadable (%s), recomputing", path.name, error)
            return None

    def store(self, shard: ShardResult) -> Path:
        """Persist a completed shard atomically."""
        path = self.shard_path(shard.seed)
        self._write_json(
            path, {"fingerprint": self.fingerprint, "shard": shard.to_payload()}
        )
        return path

    def completed_seeds(self) -> Dict[int, Path]:
        """Seeds with a shard file on disk (not fingerprint-checked)."""
        found: Dict[int, Path] = {}
        for path in sorted(self.directory.glob("shard-*.json")):
            stem = path.stem.split("-", 1)[1]
            if stem.isdigit():
                found[int(stem)] = path
        return found

    def _write_json(self, path: Path, document: dict) -> None:
        atomic_write_json(path, document)


__all__ = ["MANIFEST_NAME", "SweepCheckpoint", "sweep_fingerprint"]
