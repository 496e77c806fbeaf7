"""WIRE001-WIRE003: wire-contract drift detection.

The sweep pipeline crosses four serialisation boundaries — shard
checkpoint payloads, worker stdin/stdout tasks and replies, cache
entries, and the run journal — and every one of them is a dict whose
producer and consumer live in different functions, sometimes different
processes.  Nothing ties the two sides together at runtime except the
keys happening to match: add a field to ``to_payload`` and forget
``from_payload`` and the value silently vanishes on restore; bump a
``*_VERSION`` constant without touching the reader and every old
artifact is either mis-parsed or rejected wholesale.

This pass checks the boundaries statically, from the shared project
graph:

* **WIRE001 — key drift.**  For each declared producer/consumer pair,
  extract the keys the producer writes (dict literals that are returned
  or passed to a serialiser — ``json.dumps``/``json.dump``/
  ``atomic_write_json`` — including nested dicts) and the keys the
  consumer reads (constant subscripts and ``.get("k")`` calls), and
  report keys written but never read and read but never written.
  Consumer functions are expected to be focused deserialisers; reads of
  unrelated dicts inside them would count, which is exactly why the
  wire format lives in dedicated ``from_payload``-style functions.

* **WIRE002 — journal schema drift.**  Every ``*.emit(EVENT, ...)``
  call site whose event argument resolves into
  :mod:`repro.obs.journal`'s constants is checked against the
  statically-extracted ``EVENT_SCHEMA``: keyword fields must be
  declared (required or optional) for that event, required fields must
  all be passed (skipped when the site forwards ``**fields``), and —
  when the graph contains the sweep orchestrator, i.e. this is a
  whole-tree run — every declared event type must be emitted somewhere.

* **WIRE003 — version discipline.**  Each wire format's producer must
  stamp its version key from the named constant (not an inline
  literal), and its consumer must compare that key against the same
  constant — so bumping the constant provably reaches both sides.

Contracts with a producer or consumer missing from the graph are
skipped: linting a subtree must not fabricate drift findings.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from .config import LintConfig
from .findings import Finding
from .graph import CallSite, ModuleGraph, ProjectGraph
from .registry import DeepPass, register_deep
from .rules import dotted_name

KEY_DRIFT_RULE = "WIRE001"
JOURNAL_SCHEMA_RULE = "WIRE002"
VERSION_RULE = "WIRE003"

#: Callables (last path component) whose dict arguments are wire writes.
SERIALIZERS = frozenset({"dump", "dumps", "atomic_write_json"})

#: Module holding the journal event vocabulary and schema.
JOURNAL_MODULE = "repro.obs.journal"

#: Module whose presence marks a whole-tree run (gates the
#: declared-but-never-emitted check).
ORCHESTRATOR_MODULE = "repro.parallel.sweep"

#: Journal envelope/base fields never declared per event.
_JOURNAL_BASE = frozenset({"seed", "wall"})


@dataclass(frozen=True)
class ContractSpec:
    """One producer/consumer dict boundary checked by WIRE001."""

    name: str
    #: Qualified name of the function writing the dict.
    producer: str
    #: Qualified name of the function reading it back.
    consumer: str


@dataclass(frozen=True)
class VersionSpec:
    """One versioned wire format checked by WIRE003."""

    name: str
    #: The version constant's bare name (``PAYLOAD_VERSION``).
    constant: str
    #: The dict key carrying the version (``version``, ``v``).
    key: str
    producer: str
    consumer: str


DEFAULT_CONTRACTS: Tuple[ContractSpec, ...] = (
    ContractSpec(
        name="shard-payload",
        producer="repro.parallel.shard.ShardResult.to_payload",
        consumer="repro.parallel.shard.ShardResult.from_payload",
    ),
    ContractSpec(
        name="campaign-spec",
        producer="repro.core.campaign.ExperimentConfig.to_payload",
        consumer="repro.core.campaign.ExperimentConfig.from_payload",
    ),
    ContractSpec(
        name="worker-task",
        producer="repro.parallel.backends.SubprocessBackend._dispatch",
        consumer="repro.parallel.worker.main",
    ),
    ContractSpec(
        name="worker-reply",
        producer="repro.parallel.worker.main",
        consumer="repro.parallel.backends.SubprocessBackend._dispatch",
    ),
    ContractSpec(
        name="cache-entry",
        producer="repro.parallel.cache.ShardCache.put",
        consumer="repro.parallel.cache.ShardCache.get",
    ),
    ContractSpec(
        name="store-meta",
        producer="repro.collection.store._meta_document",
        consumer="repro.collection.store._check_meta",
    ),
)

DEFAULT_VERSION_SPECS: Tuple[VersionSpec, ...] = (
    VersionSpec(
        name="shard-payload",
        constant="PAYLOAD_VERSION",
        key="version",
        producer="repro.parallel.shard.ShardResult.to_payload",
        consumer="repro.parallel.shard.ShardResult.from_payload",
    ),
    VersionSpec(
        name="worker-task",
        constant="TASK_VERSION",
        key="version",
        producer="repro.parallel.backends.SubprocessBackend._dispatch",
        consumer="repro.parallel.worker.main",
    ),
    VersionSpec(
        name="worker-reply",
        constant="TASK_VERSION",
        key="version",
        producer="repro.parallel.worker.main",
        consumer="repro.parallel.backends.SubprocessBackend._dispatch",
    ),
    VersionSpec(
        name="cache-entry",
        constant="CACHE_VERSION",
        key="version",
        producer="repro.parallel.cache.ShardCache.put",
        consumer="repro.parallel.cache.ShardCache.get",
    ),
    VersionSpec(
        name="journal",
        constant="JOURNAL_VERSION",
        key="v",
        producer="repro.obs.journal.JournalWriter.emit",
        consumer="repro.obs.journal.validate_events",
    ),
    VersionSpec(
        name="store-meta",
        constant="STORE_VERSION",
        key="version",
        producer="repro.collection.store._meta_document",
        consumer="repro.collection.store._check_meta",
    ),
)


#: key -> first (line, col) where it was written/read.
_KeySites = Dict[str, Tuple[int, int]]


def _collect_dict_keys(node: ast.Dict, keys: _KeySites) -> bool:
    """Record constant keys (recursing into nested dicts); True if any
    key is dynamic (``**merge`` or a computed key)."""
    dynamic = False
    for key, value in zip(node.keys, node.values):
        if key is None or not (
            isinstance(key, ast.Constant) and isinstance(key.value, str)
        ):
            dynamic = True
        else:
            keys.setdefault(key.value, (key.lineno, key.col_offset + 1))
        if isinstance(value, ast.Dict):
            dynamic = _collect_dict_keys(value, keys) or dynamic
    return dynamic


def _producer_keys(fn_node: ast.AST) -> Tuple[_KeySites, bool]:
    """Keys written by a producer: returned dicts + serialiser-arg dicts."""
    keys: _KeySites = {}
    dynamic = False
    for node in ast.walk(fn_node):
        literals: List[ast.Dict] = []
        if isinstance(node, ast.Return) and isinstance(node.value, ast.Dict):
            literals.append(node.value)
        elif isinstance(node, ast.Call):
            written = dotted_name(node.func)
            if written is not None and written.rsplit(".", 1)[-1] in SERIALIZERS:
                literals.extend(
                    arg for arg in node.args if isinstance(arg, ast.Dict)
                )
        for literal in literals:
            dynamic = _collect_dict_keys(literal, keys) or dynamic
    return keys, dynamic


def _consumer_reads(fn_node: ast.AST) -> _KeySites:
    """Keys a consumer reads: constant subscripts and ``.get("k")``."""
    reads: _KeySites = {}
    for node in ast.walk(fn_node):
        if (
            isinstance(node, ast.Subscript)
            and isinstance(node.slice, ast.Constant)
            and isinstance(node.slice.value, str)
        ):
            reads.setdefault(
                node.slice.value, (node.lineno, node.col_offset + 1)
            )
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "get"
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
        ):
            reads.setdefault(
                node.args[0].value, (node.lineno, node.col_offset + 1)
            )
    return reads


def _string_constants(tree: ast.Module) -> Dict[str, str]:
    """Module-level ``NAME = "literal"`` assignments."""
    constants: Dict[str, str] = {}
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)
        ):
            constants[node.targets[0].id] = node.value.value
    return constants


def _frozenset_literal(node: ast.expr) -> Optional[FrozenSet[str]]:
    """Evaluate ``frozenset()`` / ``frozenset({"a", "b"})`` statically."""
    if not (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "frozenset"
    ):
        return None
    if not node.args:
        return frozenset()
    if len(node.args) == 1 and isinstance(node.args[0], ast.Set):
        values = []
        for element in node.args[0].elts:
            if not (
                isinstance(element, ast.Constant)
                and isinstance(element.value, str)
            ):
                return None
            values.append(element.value)
        return frozenset(values)
    return None


#: event name -> (required fields, optional fields, schema line).
_Schema = Dict[str, Tuple[FrozenSet[str], FrozenSet[str], int]]


def _extract_event_schema(
    tree: ast.Module, constants: Dict[str, str]
) -> Tuple[_Schema, int]:
    """Statically evaluate ``EVENT_SCHEMA`` from the journal module AST."""
    schema: _Schema = {}
    schema_line = 1
    for node in tree.body:
        target: Optional[ast.expr]
        if isinstance(node, ast.AnnAssign):
            target = node.target
            value = node.value
        elif isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            value = node.value
        else:
            continue
        if not (
            isinstance(target, ast.Name)
            and target.id == "EVENT_SCHEMA"
            and isinstance(value, ast.Dict)
        ):
            continue
        schema_line = node.lineno
        for key, entry in zip(value.keys, value.values):
            name: Optional[str] = None
            if isinstance(key, ast.Name):
                name = constants.get(key.id)
            elif isinstance(key, ast.Constant) and isinstance(key.value, str):
                name = key.value
            if name is None:
                continue
            if not (isinstance(entry, ast.Tuple) and len(entry.elts) == 2):
                continue
            required = _frozenset_literal(entry.elts[0])
            optional = _frozenset_literal(entry.elts[1])
            if required is None or optional is None:
                continue
            schema[name] = (required, optional, key.lineno)
    return schema, schema_line


@register_deep
class WireContractPass(DeepPass):
    """The WIRE001-WIRE003 whole-program pass."""

    rules = {
        KEY_DRIFT_RULE: (
            "wire-format dict keys must be written and read by both "
            "ends of their contract (no drifting payloads)"
        ),
        JOURNAL_SCHEMA_RULE: (
            "journal emit sites must match EVENT_SCHEMA (declared "
            "fields only, all required fields, every event emitted)"
        ),
        VERSION_RULE: (
            "wire version keys must be stamped from and compared "
            "against their named constant on both ends"
        ),
    }

    contracts: Tuple[ContractSpec, ...] = DEFAULT_CONTRACTS
    version_specs: Tuple[VersionSpec, ...] = DEFAULT_VERSION_SPECS

    def run(
        self, graph: ProjectGraph, config: LintConfig, selected: Set[str]
    ) -> List[Finding]:
        findings: List[Finding] = []
        if KEY_DRIFT_RULE in selected:
            for contract in self.contracts:
                findings.extend(self._check_contract(graph, contract))
        if JOURNAL_SCHEMA_RULE in selected:
            findings.extend(self._check_journal(graph))
        if VERSION_RULE in selected:
            for spec in self.version_specs:
                findings.extend(self._check_version(graph, spec))
        return findings

    # -- WIRE001 -------------------------------------------------------------

    def _check_contract(
        self, graph: ProjectGraph, contract: ContractSpec
    ) -> List[Finding]:
        producer = graph.functions.get(contract.producer)
        consumer = graph.functions.get(contract.consumer)
        if (
            producer is None
            or consumer is None
            or producer.node is None
            or consumer.node is None
        ):
            return []  # subtree lint: one end out of scope, nothing to judge
        written, dynamic = _producer_keys(producer.node)
        read = _consumer_reads(consumer.node)
        findings: List[Finding] = []
        for key in sorted(set(written) - set(read)):
            line, col = written[key]
            findings.append(
                Finding(
                    path=producer.path,
                    line=line,
                    col=col,
                    rule=KEY_DRIFT_RULE,
                    message=(
                        f"[{contract.name}] key {key!r} is written by "
                        f"{contract.producer} but never read by "
                        f"{contract.consumer} — dead payload data or a "
                        "missing consumer field"
                    ),
                )
            )
        if not dynamic:  # dynamic writes may supply any key
            for key in sorted(set(read) - set(written)):
                line, col = read[key]
                findings.append(
                    Finding(
                        path=consumer.path,
                        line=line,
                        col=col,
                        rule=KEY_DRIFT_RULE,
                        message=(
                            f"[{contract.name}] key {key!r} is read by "
                            f"{contract.consumer} but never written by "
                            f"{contract.producer} — the value can only "
                            "ever be the fallback"
                        ),
                    )
                )
        return findings

    # -- WIRE002 -------------------------------------------------------------

    def _check_journal(self, graph: ProjectGraph) -> List[Finding]:
        journal = graph.modules.get(JOURNAL_MODULE)
        if journal is None:
            return []
        constants = _string_constants(journal.tree)
        schema, schema_line = _extract_event_schema(journal.tree, constants)
        if not schema:
            return []
        findings: List[Finding] = []
        emitted: Set[str] = set()
        for mod_key in sorted(graph.modules):
            mod = graph.modules[mod_key]
            if mod.key == JOURNAL_MODULE:
                continue  # the writer itself, not an emit site
            for qname in sorted(mod.functions):
                for site in mod.functions[qname].calls:
                    findings.extend(
                        self._check_emit_site(
                            mod, site, schema, constants, emitted
                        )
                    )
        if ORCHESTRATOR_MODULE in graph.modules:
            for event in sorted(set(schema) - emitted):
                findings.append(
                    Finding(
                        path=journal.path,
                        line=schema[event][2],
                        col=1,
                        rule=JOURNAL_SCHEMA_RULE,
                        message=(
                            f"event type {event!r} is declared in "
                            "EVENT_SCHEMA but never emitted anywhere in "
                            "the tree — dead vocabulary or a missing "
                            "emit site"
                        ),
                    )
                )
        return findings

    def _check_emit_site(
        self,
        mod: ModuleGraph,
        site: CallSite,
        schema: _Schema,
        constants: Dict[str, str],
        emitted: Set[str],
    ) -> List[Finding]:
        if site.written.rsplit(".", 1)[-1] != "emit" or not site.node.args:
            return []
        event = self._event_name(mod, site.node.args[0], constants)
        if event is None:
            return []  # not provably a journal emit
        if event not in schema:
            return [
                Finding(
                    path=mod.path,
                    line=site.line,
                    col=site.col,
                    rule=JOURNAL_SCHEMA_RULE,
                    message=(
                        f"emit of undeclared journal event {event!r} — "
                        "declare it in EVENT_SCHEMA or fix the constant"
                    ),
                )
            ]
        emitted.add(event)
        required, optional, _ = schema[event]
        keywords = {kw.arg for kw in site.node.keywords if kw.arg is not None}
        forwards_fields = any(kw.arg is None for kw in site.node.keywords)
        findings: List[Finding] = []
        for field in sorted(keywords - _JOURNAL_BASE - required - optional):
            findings.append(
                Finding(
                    path=mod.path,
                    line=site.line,
                    col=site.col,
                    rule=JOURNAL_SCHEMA_RULE,
                    message=(
                        f"{event} emit passes undeclared field {field!r} "
                        "— validate_events will reject it; declare it in "
                        "EVENT_SCHEMA or move it into the wall envelope"
                    ),
                )
            )
        if not forwards_fields:
            missing = sorted(required - keywords)
            if missing:
                findings.append(
                    Finding(
                        path=mod.path,
                        line=site.line,
                        col=site.col,
                        rule=JOURNAL_SCHEMA_RULE,
                        message=(
                            f"{event} emit is missing required field(s) "
                            f"{', '.join(missing)} — validate_events "
                            "will reject the event"
                        ),
                    )
                )
        return findings

    @staticmethod
    def _event_name(
        mod: ModuleGraph, arg: ast.expr, constants: Dict[str, str]
    ) -> Optional[str]:
        """The event string this emit's first argument names, if provable."""
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            # A raw string is only provably a journal event when it
            # matches the journal vocabulary — other subsystems may have
            # unrelated ``emit`` methods.
            return arg.value if arg.value in constants.values() else None
        written = dotted_name(arg)
        if written is None:
            return None
        head, _, rest = written.partition(".")
        target = mod.aliases.get(head)
        canonical = written
        if target is not None:
            canonical = f"{target[0]}.{rest}" if rest else target[0]
        if not canonical.startswith(JOURNAL_MODULE + "."):
            return None
        return constants.get(canonical.rsplit(".", 1)[-1])

    # -- WIRE003 -------------------------------------------------------------

    def _check_version(
        self, graph: ProjectGraph, spec: VersionSpec
    ) -> List[Finding]:
        producer = graph.functions.get(spec.producer)
        consumer = graph.functions.get(spec.consumer)
        if (
            producer is None
            or consumer is None
            or producer.node is None
            or consumer.node is None
        ):
            return []
        findings: List[Finding] = []
        stamp = self._version_stamp(producer.node, spec.key)
        if stamp is None:
            findings.append(
                Finding(
                    path=producer.path,
                    line=producer.line,
                    col=1,
                    rule=VERSION_RULE,
                    message=(
                        f"[{spec.name}] {spec.producer} never writes the "
                        f"version key {spec.key!r} — consumers cannot "
                        "detect format skew"
                    ),
                )
            )
        else:
            value, line, col = stamp
            if value != spec.constant:
                findings.append(
                    Finding(
                        path=producer.path,
                        line=line,
                        col=col,
                        rule=VERSION_RULE,
                        message=(
                            f"[{spec.name}] version key {spec.key!r} is "
                            f"stamped from {value or 'a literal'} instead "
                            f"of {spec.constant} — bumping the constant "
                            "will not reach this writer"
                        ),
                    )
                )
        if not self._compares_version(consumer.node, spec.key, spec.constant):
            findings.append(
                Finding(
                    path=consumer.path,
                    line=consumer.line,
                    col=1,
                    rule=VERSION_RULE,
                    message=(
                        f"[{spec.name}] {spec.consumer} never compares "
                        f"{spec.key!r} against {spec.constant} — a "
                        "version bump has no matching reader branch"
                    ),
                )
            )
        return findings

    @staticmethod
    def _version_stamp(
        fn_node: ast.AST, key: str
    ) -> Optional[Tuple[Optional[str], int, int]]:
        """(constant name or None-for-literal, line, col) of the stamp.

        Unlike WIRE001's producer extraction this scans *every* dict
        literal in the function: the journal builds its record in a
        local before serialising it.
        """
        for node in ast.walk(fn_node):
            if not isinstance(node, ast.Dict):
                continue
            for dict_key, value in zip(node.keys, node.values):
                if not (
                    isinstance(dict_key, ast.Constant)
                    and dict_key.value == key
                ):
                    continue
                name = dotted_name(value)
                stamped = name.rsplit(".", 1)[-1] if name else None
                return stamped, value.lineno, value.col_offset + 1
        return None

    @staticmethod
    def _compares_version(fn_node: ast.AST, key: str, constant: str) -> bool:
        for node in ast.walk(fn_node):
            if not isinstance(node, ast.Compare):
                continue
            sides = [node.left, *node.comparators]
            reads_key = False
            names_constant = False
            for side in sides:
                if (
                    isinstance(side, ast.Subscript)
                    and isinstance(side.slice, ast.Constant)
                    and side.slice.value == key
                ):
                    reads_key = True
                elif (
                    isinstance(side, ast.Call)
                    and isinstance(side.func, ast.Attribute)
                    and side.func.attr == "get"
                    and side.args
                    and isinstance(side.args[0], ast.Constant)
                    and side.args[0].value == key
                ):
                    reads_key = True
                else:
                    name = dotted_name(side)
                    if name is not None and name.rsplit(".", 1)[-1] == constant:
                        names_constant = True
            if reads_key and names_constant:
                return True
        return False


__all__ = [
    "DEFAULT_CONTRACTS",
    "DEFAULT_VERSION_SPECS",
    "JOURNAL_MODULE",
    "JOURNAL_SCHEMA_RULE",
    "KEY_DRIFT_RULE",
    "VERSION_RULE",
    "ContractSpec",
    "VersionSpec",
    "WireContractPass",
]
