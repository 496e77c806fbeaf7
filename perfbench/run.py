"""The repository benchmark: two workloads over the public ``repro`` API.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload bit_campaign --seed 1 --seconds 56 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 56 --trace 0

One run starts three fresh interpreters, one after another.  Each
imports the program from the checkout's ``src/``, sets the workload up
(``setup_s``, import included, is the median over the interpreters),
then repeats the workload's timed operation for its third of
``--seconds`` and checks every output.  Metrics are medians over every
operation of every interpreter.  The last line of standard output is
one JSON object::

    {"correct": true, "attempted": 8, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` the run spends half its time
untraced and half under ``cProfile`` and reports the per-layer metrics
(see ``tracing.py``), including the tracing coverage and overhead.
``--workload all`` runs every workload in its own interpreter and
prints a table of all of them.  Lines before the last one are for
people: the environment (python, numpy, sqlite, nproc), the share of
operations that failed, and each stage under its own name
(``sim_rate``, ``analysis_items_per_s``, ``sweep_cold_s``,
``sweep_warm_s``).  Failed checks are reported on
standard error.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Fresh interpreters per run, one after another.  Each sets the
#: workload up once (``setup_s`` is the median) and measures for its
#: share of ``--seconds``.
PROCESSES = 3

#: An interpreter still running this many seconds into the run is killed.
TIME_LIMIT_S = 170.0

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "produce_items_per_s": "items/s",
    "consume_items_per_s": "items/s",
    "peak_rss_mb": "MiB",
}


def per_layer_units() -> Dict[str, str]:
    """Per-layer metrics (``--trace 1``): name -> unit, in report order."""
    from tracing import HARNESS, LAYERS
    from workloads import COUNTS, ENTRIES, STAGE_FIGURES

    units: Dict[str, str] = {}
    for layer in LAYERS + (HARNESS,):
        units[f"{layer}.self_s"] = "s"
    for entry in ENTRIES:
        units[f"{entry}.calls"] = "count"
        units[f"{entry}.cum_s"] = "s"
    units["store.rows_per_item"] = "ratio"
    units["records.built_per_item"] = "ratio"
    units["classify.calls_per_user_report"] = "ratio"
    for count in COUNTS:
        if count.endswith("ratio"):
            units[count] = "ratio"
        elif count.endswith("bytes") or count.endswith("bytes_per_item"):
            units[count] = "bytes"
        else:
            units[count] = "count"
    for figure in STAGE_FIGURES:
        units[figure] = (
            "sim_s/s" if figure == "sim_rate"
            else "items/s" if figure.endswith("per_s") else "s"
        )
    units["failed_ops_pct"] = "%"
    units["trace.coverage_pct"] = "%"
    units["trace.overhead_pct"] = "%"
    return units


def import_program() -> None:
    """Put the checkout's ``src/`` first on the path and import ``repro``."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {SRC}/repro")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def environment() -> Dict[str, object]:
    import sqlite3

    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sqlite": sqlite3.sqlite_version,
        "nproc": os.cpu_count(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Run:
    """One interpreter's timed operations of one workload, with failure counts."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0

    def repeat(self, seconds: float) -> list:
        """Run the timed operation until ``seconds`` are spent (at least once).

        Stops before an operation that would overrun, judging by the last
        one.  An operation that raises counts all its work as failed.  The
        previous operation's cyclic garbage is collected before each one,
        untimed, so it neither lands in a timed stage nor piles onto the
        next operation's peak memory.
        """
        outcomes = []
        started = time.perf_counter()
        while True:
            gc.collect()
            rep_started = time.perf_counter()
            try:
                outcome = self.workload.run_once()
            except Exception:
                traceback.print_exc(file=sys.stderr)
                self.attempted += self.workload.ops
                self.failed += self.workload.ops
            else:
                self.attempted += outcome.attempted
                self.failed += outcome.failed
                for problem in outcome.problems:
                    print(f"# check failed: {problem}", file=sys.stderr)
                outcomes.append(outcome)
            now = time.perf_counter()
            if now - started + (now - rep_started) > seconds:
                return outcomes

    @property
    def failed_ops_pct(self) -> float:
        return 100.0 * self.failed / self.attempted if self.attempted else 100.0


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def figures(outcomes: list) -> Dict[str, float]:
    """Median named stage figures over the outcomes (0 when absent)."""
    from workloads import STAGE_FIGURES

    return {
        name: median([o["figures"][name] for o in outcomes if name in o["figures"]])
        for name in STAGE_FIGURES
    }


def per_layer(run: Run, untraced: list, traced: list, report) -> Dict[str, float]:
    """The traced half's per-layer metrics, per timed operation."""
    from workloads import COUNTS, ENTRIES, RECORD_BUILDERS, classify_user_record

    reps = len(traced)
    items = median([o.items for o in traced])
    counts = untraced[-1].counts
    user = counts.get("items.user", 0.0)
    metrics: Dict[str, float] = {}
    for layer, seconds in report.self_s.items():
        metrics[f"{layer}.self_s"] = seconds / reps
    for entry in ENTRIES:
        calls, cum_s = report.entries[entry]
        metrics[f"{entry}.calls"] = calls / reps
        metrics[f"{entry}.cum_s"] = cum_s / reps
    # Generator resumptions: one per row yielded, plus one per cursor.
    rows = report.entries["SQLiteStore.iter_records"][0] / reps
    metrics["store.rows_per_item"] = rows / items
    built = report.calls_of(RECORD_BUILDERS) / reps
    metrics["records.built_per_item"] = built / items
    classified = report.calls_of((classify_user_record,)) / reps
    metrics["classify.calls_per_user_report"] = classified / user if user else 0.0
    for count in COUNTS:
        metrics[count] = counts.get(count, 0.0)
    metrics.update(figures([vars(o) for o in untraced]))
    traced_wall = sum(o.produce_s + o.consume_s for o in traced)
    metrics["trace.coverage_pct"] = 100.0 * report.layer_s / traced_wall
    plain = median([o.produce_s + o.consume_s for o in untraced])
    wall = median([o.produce_s + o.consume_s for o in traced])
    metrics["trace.overhead_pct"] = 100.0 * (wall / plain - 1.0)
    return metrics


def measure(run: Run, seconds: float, trace: bool) -> Tuple[list, Optional[dict]]:
    """Repeat the timed operation; with ``trace``, half of it profiled."""
    if not trace:
        return run.repeat(seconds), None
    from tracing import LayerProfile
    from workloads import ENTRIES

    untraced = run.repeat(seconds / 2)
    profile = LayerProfile(SRC / "repro", ENTRIES)
    plain, run.workload.traced = run.workload.traced, profile
    try:
        traced = run.repeat(seconds / 2)
    finally:
        run.workload.traced = plain
    if not (untraced and traced):
        return untraced, None
    return untraced, per_layer(run, untraced, traced, profile.fold())


def run_child(args: argparse.Namespace, started: float) -> int:
    """One interpreter's share of a run: set up once, measure, report raw data."""
    from workloads import WORKLOADS

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    # Temporary files (SQLite sort spills, tempfile users) stay in the checkout.
    os.environ["TMPDIR"] = os.environ["SQLITE_TMPDIR"] = str(workdir)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir, scale=args.scale)
        run = Run(workload)
        workload.setup()
        setup_s = time.perf_counter() - started
        outcomes, layers = measure(run, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    print(json.dumps({
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "attempted": run.attempted,
        "failed": run.failed,
        "outcomes": [
            {"produce_s": o.produce_s, "consume_s": o.consume_s,
             "items": o.items, "figures": o.figures}
            for o in outcomes
        ],
        "per_layer": layers,
    }))
    return 0


def run_parent(args: argparse.Namespace, started: float) -> int:
    """A benchmark run: :data:`PROCESSES` fresh interpreters, one after another.

    Each interpreter imports the program, sets the workload up and
    measures for its share of ``--seconds``; the run reports medians
    over all of them, so one interpreter's memory layout or one burst of
    host contention cannot set the result.
    """
    from workloads import WORKLOADS

    children = []
    attempted = failed = 0
    for _ in range(PROCESSES):
        command = [
            sys.executable, str(Path(__file__).resolve()), "--child",
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds / PROCESSES),
            "--trace", str(args.trace), "--scale", str(args.scale),
        ]
        remaining = TIME_LIMIT_S - (time.perf_counter() - started)
        try:
            child = subprocess.run(command, capture_output=True, text=True,
                                   timeout=max(remaining, 1.0), check=False)
        except subprocess.TimeoutExpired as expired:
            sys.stderr.write(expired.stderr.decode() if expired.stderr else "")
            print("perfbench: run exceeded its time limit", file=sys.stderr)
            attempted += WORKLOADS[args.workload].ops
            failed += WORKLOADS[args.workload].ops
            break
        sys.stderr.write(child.stderr)
        lines = child.stdout.strip().splitlines()
        if child.returncode != 0 or not lines:
            attempted += WORKLOADS[args.workload].ops
            failed += WORKLOADS[args.workload].ops
            continue
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        children.append(result)
    outcomes = [o for child in children for o in child["outcomes"]]
    layered = [child["per_layer"] for child in children if child["per_layer"]]
    if not outcomes or (args.trace and not layered):
        print("perfbench: no operation completed", file=sys.stderr)
        return 1
    failed_pct = 100.0 * failed / attempted
    if args.trace:
        units = per_layer_units()
        metrics = {
            name: median([layers[name] for layers in layered])
            for name in units
            if name != "failed_ops_pct"
        }
        metrics["failed_ops_pct"] = failed_pct
    else:
        units = END_TO_END
        metrics = {
            "setup_s": median([child["setup_s"] for child in children]),
            "produce_items_per_s": median(
                [o["items"] / o["produce_s"] for o in outcomes]
            ),
            "consume_items_per_s": median(
                [o["items"] / o["consume_s"] for o in outcomes]
            ),
            "peak_rss_mb": median([child["peak_rss_mb"] for child in children]),
        }
    figure_units = per_layer_units()
    print("# env " + json.dumps(environment(), sort_keys=True))
    print(f"# {args.workload}: {len(outcomes)} timed operation(s) in "
          f"{len(children)} interpreter(s), failed_ops_pct {failed_pct:g} %")
    for name, value in figures(outcomes).items():
        if value:
            print(f"# {args.workload} {name} {value:.6g} {figure_units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own interpreter; one table, one summary line."""
    from workloads import WORKLOADS

    combined: Dict[str, dict] = {}
    attempted = failed = 0
    correct = True
    for name in WORKLOADS:
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--scale", str(args.scale),
        ]
        child = subprocess.run(command, capture_output=True, text=True, check=False)
        sys.stderr.write(child.stderr)
        lines = child.stdout.strip().splitlines()
        if child.returncode != 0 or not lines:
            print(f"# {name}: exited {child.returncode}")
            correct = False
            continue
        for line in lines[:-1]:
            print(line)
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        correct = correct and result["correct"]
        for metric, entry in result["metrics"].items():
            print(f"{name:<16} {metric:<40} {entry['value']:>16.6g} {entry['unit']}")
            combined[f"{name}/{metric}"] = entry
    print(json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed,
         "metrics": combined}
    ))
    return 0 if correct else 1


def write_golden() -> int:
    """Record the bit campaign's statistics digest at the default seed."""
    from workloads import DEFAULT_SEED, GOLDEN_PATH, BitCampaign, golden_key

    workload = BitCampaign(DEFAULT_SEED, ROOT)
    workload.run_once()
    golden = {
        golden_key(workload.name, DEFAULT_SEED, workload.duration): (
            workload.reference[1]
        )
    }
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
    return 0


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write-golden", action="store_true",
                        help="record the default-seed statistics digest and exit")
    parser.add_argument("--workload",
                        choices=("bit_campaign", "sweep_store", "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=56.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply every simulated duration (tests use tiny scales)")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    started = time.perf_counter()
    args = parse_args(argv)
    import_program()
    if args.write_golden:
        return write_golden()
    if args.workload is None:
        raise SystemExit("perfbench: --workload is required")
    if args.workload == "all":
        return run_all(args)
    if args.child:
        return run_child(args, started)
    return run_parent(args, started)


if __name__ == "__main__":
    sys.exit(main())
