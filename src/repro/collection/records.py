"""Log record schemas of the collection infrastructure.

Two kinds of records exist, mirroring the paper's two data sources:

* :class:`TestLogRecord` — a *user-level* failure report written by the
  instrumented BlueTest workload, containing the failure as a user
  perceives it plus the BT node status at the time (workload type,
  packet type, packets sent/received, ...) and the outcome of the
  recovery actions.
* :class:`SystemLogRecord` — a *system-level* entry as written by BT
  stack modules, daemons and OS drivers to the host's system log.

Records carry **raw message strings**, not failure-type enums: the
analysis pipeline must classify them, as the paper's SAS analysis did.

A multi-seed campaign materialises hundreds of thousands of records, so
the schemas are tuned for bulk allocation: every record class carries
``__slots__`` (no per-instance ``__dict__``), the short categorical
strings (node, facility, severity, phase, testbed, workload) are
interned so equality checks inside the analysis pipeline reduce to
pointer comparisons, and ``TestLogRecord.recovery`` is stored as a
tuple (accepting any sequence at construction).

Each record class's ordered field list is its row schema
(:class:`RowSchema`), from which every record codec derives: the plain
data of shard payloads and the JSONL repository, and the SQLite rows of
:mod:`repro.collection.store`.  No other module spells out the fields.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from operator import attrgetter
from sys import intern
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import get_logger

log = get_logger("collection.records")


def _add_slots(cls):
    """Rebuild a dataclass with ``__slots__`` (py3.9-compatible).

    ``@dataclass(slots=True)`` only exists from Python 3.10; this is the
    standard recipe — recreate the class with ``__slots__`` naming its
    fields and without the class-level default values (the generated
    ``__init__`` carries its own defaults), so instances drop their
    per-record ``__dict__``.
    """
    if "__slots__" in cls.__dict__:
        return cls
    field_names = tuple(f.name for f in fields(cls))
    cls_dict = dict(cls.__dict__)
    cls_dict["__slots__"] = field_names
    for name in field_names:
        cls_dict.pop(name, None)
    cls_dict.pop("__dict__", None)
    cls_dict.pop("__weakref__", None)
    new_cls = type(cls)(cls.__name__, cls.__bases__, cls_dict)
    new_cls.__qualname__ = cls.__qualname__
    return new_cls


class _Record:
    """Codec methods shared by the record classes, backed by their schema."""

    __slots__ = ()
    _schema: "RowSchema"

    def to_dict(self) -> Dict[str, Any]:
        """The record as plain JSON-able data, keys in field order."""
        return self._schema.to_dict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> Any:
        """Rebuild a record from :meth:`to_dict` data (unknown keys ignored)."""
        return cls._schema.from_dict(data)


@_add_slots
@dataclass(frozen=True)
class SystemLogRecord(_Record):
    """One line of a host's system log."""

    time: float  # simulated seconds since campaign start
    node: str  # host name (e.g. "Verde")
    facility: str  # logging component ("kernel", "hcid", "sdpd", "hal", ...)
    severity: str  # "info" | "warning" | "error"
    message: str  # raw log text

    def __post_init__(self) -> None:
        # The categorical fields repeat across hundreds of thousands of
        # records; interning collapses them to shared instances.
        object.__setattr__(self, "node", intern(self.node))
        object.__setattr__(self, "facility", intern(self.facility))
        object.__setattr__(self, "severity", intern(self.severity))


@_add_slots
@dataclass(frozen=True)
class RecoveryAttempt(_Record):
    """One software-implemented recovery action (SIRA) attempt."""

    action: str  # SIRA name, e.g. "bt_stack_reset"
    succeeded: bool
    duration: float  # seconds the attempt took


@_add_slots
@dataclass(frozen=True)
class TestLogRecord(_Record):
    """One user-level failure report from the BlueTest workload.

    ``recovery`` accepts any sequence of :class:`RecoveryAttempt` and is
    normalised to a tuple, so records are fully immutable and hashable.
    """

    time: float
    node: str
    testbed: str  # "random" | "realistic"
    workload: str  # emulated application ("random", "web", "p2p", ...)
    message: str  # raw failure text as the workload printed it
    phase: str  # BlueTest phase during which the failure manifested
    packet_type: Optional[str] = None  # Baseband packet type in use
    packets_sent: int = 0  # packets exchanged before the failure
    packets_expected: int = 0
    scan_flag: bool = False  # S: inquiry/scan performed this cycle
    sdp_flag: bool = False  # SDP: SDP search performed this cycle
    distance: float = 0.0  # antenna distance from the NAP (m)
    cycle_on_connection: int = 0  # 1-based index of the cycle on this connection
    idle_before_cycle: float = 0.0  # TW that preceded this cycle (s)
    masked: bool = False  # True if a masking strategy absorbed the failure
    recovery: Tuple[RecoveryAttempt, ...] = field(default=())

    def __post_init__(self) -> None:
        if type(self.recovery) is not tuple:
            object.__setattr__(self, "recovery", tuple(self.recovery))
        object.__setattr__(self, "node", intern(self.node))
        object.__setattr__(self, "testbed", intern(self.testbed))
        object.__setattr__(self, "workload", intern(self.workload))
        object.__setattr__(self, "phase", intern(self.phase))

    @property
    def recovered_by(self) -> Optional[str]:
        """Name of the SIRA that cleared the failure, if any."""
        for attempt in self.recovery:
            if attempt.succeeded:
                return attempt.action
        return None

    @property
    def time_to_recover(self) -> float:
        """Total time spent in recovery attempts for this failure."""
        return sum(a.duration for a in self.recovery)


# -- the row schema ------------------------------------------------------------

_ATTEMPTS = "Tuple[RecoveryAttempt, ...]"


def _attempts_to_data(attempts: Sequence[RecoveryAttempt]) -> List[Dict[str, Any]]:
    # List-typed in plain data (as it has always been) though the field
    # is a tuple, so dumped repositories stay stable across versions.
    return [attempt.to_dict() for attempt in attempts]


def _attempts_from_data(data: Sequence[Dict[str, Any]]) -> Tuple[RecoveryAttempt, ...]:
    return tuple(RecoveryAttempt.from_dict(attempt) for attempt in data)


#: Field annotation -> (SQLite column declaration, row encode, decode);
#: ``None`` stores the value as is.  Any other annotation fails at
#: import, so no field can skip a codec.
_SQL_CODECS = {
    "float": ("REAL NOT NULL", None, None),
    "int": ("INTEGER NOT NULL", None, None),
    "str": ("TEXT NOT NULL", None, None),
    "Optional[str]": ("TEXT", None, None),
    "bool": ("INTEGER NOT NULL", int, bool),
    _ATTEMPTS: (
        "TEXT NOT NULL",
        lambda attempts: json.dumps(_attempts_to_data(attempts), separators=(",", ":")),
        lambda text: _attempts_from_data(json.loads(text)),
    ),
}


class RowSchema:
    """One record class's ordered fields and the codecs derived from them.

    Plain data (``to_dict``/``from_dict``) keeps field order; the SQLite
    row (``to_row``/``from_row``) follows :attr:`columns`.  Decoding goes
    through the constructor, so ``__post_init__`` normalisation runs.
    """

    def __init__(self, cls: type) -> None:
        self.cls = cls
        types = [(f.name, f.type) for f in fields(cls)]
        self.names = tuple(name for name, _ in types)
        #: ``CREATE TABLE`` column definitions, in field order.
        self.columns = tuple(f"{name} {_SQL_CODECS[kind][0]}" for name, kind in types)
        self._known = frozenset(self.names)
        self._values = attrgetter(*self.names)
        self._attempts = [name for name, kind in types if kind == _ATTEMPTS]
        codecs = [(i, *_SQL_CODECS[kind][1:]) for i, (_, kind) in enumerate(types)]
        self._row = [codec for codec in codecs if codec[1] is not None]

    def to_dict(self, record: Any) -> Dict[str, Any]:
        """``record`` as plain JSON-able data."""
        data = dict(zip(self.names, self._values(record)))
        for name in self._attempts:
            data[name] = _attempts_to_data(data[name])
        return data

    def from_dict(self, data: Dict[str, Any]) -> Any:
        """Rebuild a record from plain data, ignoring unknown keys.

        Repositories dumped by newer versions may carry extra fields.
        """
        known = {key: value for key, value in data.items() if key in self._known}
        if len(known) != len(data):
            unknown = [key for key in data if key not in self._known]
            log.debug("%s: ignoring unknown fields %s", self.cls.__name__, unknown)
        for name in self._attempts:
            if name in known:
                known[name] = _attempts_from_data(known[name])
        return self.cls(**known)

    def to_row(self, record: Any) -> List[Any]:
        """``record`` as SQLite column values."""
        row = list(self._values(record))
        for index, encode, _ in self._row:
            row[index] = encode(row[index])
        return row

    def from_row(self, row: Sequence[Any]) -> Any:
        """Rebuild a record from its SQLite column values."""
        values = list(row)
        for index, _, decode in self._row:
            values[index] = decode(values[index])
        return self.cls(*values)


SYSTEM_SCHEMA = SystemLogRecord._schema = RowSchema(SystemLogRecord)
TEST_SCHEMA = TestLogRecord._schema = RowSchema(TestLogRecord)
RecoveryAttempt._schema = RowSchema(RecoveryAttempt)


__all__ = [
    "SystemLogRecord", "TestLogRecord", "RecoveryAttempt",
    "RowSchema", "SYSTEM_SCHEMA", "TEST_SCHEMA",
]
