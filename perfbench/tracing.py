"""Layer attribution of a ``cProfile`` run over the ``repro`` package.

A traced benchmark run profiles the timed operation with the standard
library's ``cProfile`` and folds the raw per-function statistics into
layer metrics named after the ``repro.*`` modules:

* ``<layer>.self_s`` — self time per layer.  One layer per top-level
  package, except that ``repro.sim``, ``repro.collection``,
  ``repro.core`` and ``repro.parallel`` are split per module.  Self
  time spent outside the package (stdlib, builtins, numpy, sqlite3,
  dataclass-generated ``__init__`` code) is charged to the nearest
  ``repro`` frame that called it.  Time with no ``repro`` frame above
  it at all (the benchmark's own code) is ``harness.self_s``, so the
  layers plus the harness sum to the profile's total.
* ``<entry>.calls`` / ``<entry>.cum_s`` — call count and cumulative
  time of named public entry points, identified by code object.
  ``cProfile`` counts every resumption of a generator as a call, so for
  the generator entries (``SQLiteStore.iter_records``, ``iter_merged``,
  ``iter_coalesce``) ``calls`` is items yielded plus one per cursor.

``cProfile`` records only one level of caller per function, so charging
a non-``repro`` function's self time walks up its callers in proportion
to the time each caller edge accounts for.  The first hop is exact (the
profiler keeps self time per caller edge); deeper hops are apportioned.
"""

from __future__ import annotations

import cProfile
from pathlib import Path
from types import CodeType
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: Packages whose modules each get their own layer.
SPLIT_PACKAGES = ("sim", "collection", "core", "parallel")

#: Layers reported by name, in report order.  Every ``repro`` module
#: maps to one of these by :func:`layer_of`; modules that no workload
#: executes (lint, CLI, extensions, checkpointing, remote workers,
#: exports) fold into ``repro.other``.
LAYERS: Tuple[str, ...] = (
    "repro",
    "repro.api",
    "repro.bluetooth",
    "repro.workload",
    "repro.faults",
    "repro.testbed",
    "repro.recovery",
    "repro.reporting",
    "repro.obs",
    "repro.sim",
    "repro.sim.engine",
    "repro.sim.process",
    "repro.sim.batch",
    "repro.sim.rng",
    "repro.sim.distributions",
    "repro.collection",
    "repro.collection.logs",
    "repro.collection.messages",
    "repro.collection.records",
    "repro.collection.filtering",
    "repro.collection.log_analyzer",
    "repro.collection.repository",
    "repro.collection.store",
    "repro.core",
    "repro.core.campaign",
    "repro.core.classification",
    "repro.core.merge",
    "repro.core.coalescence",
    "repro.core.relationship",
    "repro.core.sira_analysis",
    "repro.core.dependability",
    "repro.core.distributions",
    "repro.core.trends",
    "repro.core.failure_model",
    "repro.core.summary",
    "repro.parallel",
    "repro.parallel.backends",
    "repro.parallel.cache",
    "repro.parallel.seeds",
    "repro.parallel.shard",
    "repro.parallel.stats",
    "repro.parallel.sweep",
    "repro.other",
)

#: Self time with no ``repro`` frame above it.
HARNESS = "harness"


def layer_of(filename: str, package_root: Path) -> Optional[str]:
    """The layer a source file belongs to, or None outside ``repro``."""
    try:
        parts = Path(filename).resolve().relative_to(package_root).parts
    except ValueError:
        return None
    if not parts or not parts[-1].endswith(".py"):
        return None
    stem = parts[-1][:-3]
    if len(parts) == 1:
        name = "repro" if stem == "__init__" else f"repro.{stem}"
    elif parts[0] in SPLIT_PACKAGES and stem != "__init__":
        name = f"repro.{parts[0]}.{stem}"
    else:
        name = f"repro.{parts[0]}"
    return name if name in LAYERS else "repro.other"


class LayerProfile:
    """Accumulates ``cProfile`` statistics over one or more traced calls."""

    def __init__(self, package_root: Path, entries: Dict[str, Callable]) -> None:
        self.package_root = package_root.resolve()
        #: Entry name -> code object whose calls/cumulative time we report.
        self.entries: Dict[str, CodeType] = {
            name: _code_of(function) for name, function in entries.items()
        }
        self._profile = cProfile.Profile()
        self._layer_cache: Dict[str, Optional[str]] = {}

    def __enter__(self) -> "LayerProfile":
        self._profile.enable()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._profile.disable()

    # -- folding ------------------------------------------------------------

    def _layer(self, code: object) -> Optional[str]:
        if not isinstance(code, CodeType):
            return None
        filename = code.co_filename
        if filename not in self._layer_cache:
            self._layer_cache[filename] = layer_of(filename, self.package_root)
        return self._layer_cache[filename]

    def fold(self) -> "LayerReport":
        """Fold the raw statistics into per-layer self and entry times."""
        stats = self._profile.getstats()
        callers: Dict[object, List[Tuple[object, float, float]]] = {}
        for entry in stats:
            for sub in entry.calls or ():
                callers.setdefault(sub.code, []).append(
                    (entry.code, sub.totaltime, sub.inlinetime)
                )
        self_s = {name: 0.0 for name in LAYERS}
        self_s[HARNESS] = 0.0
        shares: Dict[object, Dict[str, float]] = {}

        def share_of(code: object, stack: Tuple[object, ...]) -> Dict[str, float]:
            """Layer fractions of a non-repro function's callers' time."""
            if code in shares:
                return shares[code]
            stack = stack + (code,)
            edges = [
                (caller, edge_total)
                for caller, edge_total, _ in callers.get(code, ())
                if caller not in stack
            ]
            weight = sum(edge_total for _, edge_total in edges)
            result: Dict[str, float] = {}
            if weight <= 0.0:
                result[HARNESS] = 1.0
            else:
                for caller, edge_total in edges:
                    spread(result, caller, edge_total / weight, stack)
            shares[code] = result
            return result

        def spread(into: Dict[str, float], caller: object, amount: float,
                   stack: Tuple[object, ...]) -> None:
            layer = self._layer(caller)
            if layer is not None:
                into[layer] = into.get(layer, 0.0) + amount
                return
            for name, fraction in share_of(caller, stack).items():
                into[name] = into.get(name, 0.0) + amount * fraction

        total = 0.0
        for entry in stats:
            total += entry.inlinetime
            layer = self._layer(entry.code)
            if layer is not None:
                self_s[layer] += entry.inlinetime
                continue
            # Charge each caller edge its exact share of this function's
            # self time; time with no recorded caller is harness.
            charged: Dict[str, float] = {}
            accounted = 0.0
            for caller, _, inline in callers.get(entry.code, ()):
                spread(charged, caller, inline, () if caller is entry.code
                       else (entry.code,))
                accounted += inline
            if entry.inlinetime > accounted:
                charged[HARNESS] = (
                    charged.get(HARNESS, 0.0) + entry.inlinetime - accounted
                )
            charged_total = sum(charged.values())
            if charged_total <= 0.0:
                continue
            for name, amount in charged.items():
                self_s[name] += amount * entry.inlinetime / charged_total

        entry_stats = {name: (0, 0.0) for name in self.entries}
        by_code = {code: name for name, code in self.entries.items()}
        for entry in stats:
            name = by_code.get(entry.code)
            if name is not None:
                entry_stats[name] = (entry.callcount, entry.totaltime)
        return LayerReport(self_s=self_s, total_s=total, entries=entry_stats,
                           calls=_call_counts(stats))


class LayerReport:
    """The folded result of a :class:`LayerProfile`."""

    def __init__(
        self,
        self_s: Dict[str, float],
        total_s: float,
        entries: Dict[str, Tuple[int, float]],
        calls: Dict[CodeType, int],
    ) -> None:
        #: Self seconds per layer (plus :data:`HARNESS`).
        self.self_s = self_s
        #: The profile's total: the sum of every function's self time.
        self.total_s = total_s
        #: Entry name -> (calls, cumulative seconds).
        self.entries = entries
        self._calls = calls

    @property
    def layer_s(self) -> float:
        """Self seconds inside ``repro`` layers (everything but harness)."""
        return sum(v for k, v in self.self_s.items() if k != HARNESS)

    def calls_of(self, functions: Iterable[Callable]) -> int:
        """Total profiled calls of the given functions."""
        return sum(self._calls.get(_code_of(f), 0) for f in functions)


def _code_of(function: Callable) -> CodeType:
    """The code object behind a function, method or classmethod."""
    function = getattr(function, "__func__", function)
    return function.__code__  # type: ignore[attr-defined]


def _call_counts(stats: list) -> Dict[CodeType, int]:
    return {
        entry.code: entry.callcount
        for entry in stats
        if isinstance(entry.code, CodeType)
    }
