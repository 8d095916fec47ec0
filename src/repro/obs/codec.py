"""The one record codec of the obs rings: a span ring entry or a trace
event is one packed ``bytes`` record, which holds no live object and is
never tracked by the garbage collector.  Labels (kinds, stages,
outcomes, modes, states, reasons, gateway names) are 16-bit codes from a
per-ring :class:`Labels` intern table, and a span's (kind, stage,
outcome) is one code from a :class:`Forms` table; a flow is a presence
tag, then a ``FlowKey`` as ``<BIHIH`` (zeros when absent).

The contract at the seam: a flow is a ``FlowKey`` or ``None``, a time is
a number (read back as a ``float``), a label is a ``str`` or ``None``.
Anything else raises ``TypeError`` or ``struct.error`` where the record
is packed; nothing is stored in a second format.
"""

from __future__ import annotations

import functools
import struct
from typing import Dict, List, Optional, Tuple

from ..packet.flow import FlowKey

__all__ = ["Labels", "Forms", "flow_fields", "ENTRY_HEAD", "SPAN", "entry", "Layout", "EVENTS"]


class Labels(dict):
    """Label -> 16-bit code, interned on first lookup; ``names[code]``
    is the label back.  Code 0 is ``None``."""

    def __init__(self):
        super().__init__({None: 0})
        self.names: List = [None]

    def __missing__(self, label) -> int:
        self.check(label)
        code = len(self.names)
        if code > 0xFFFF:
            raise struct.error("the label table is full")
        self.names.append(label)
        self[label] = code
        return code

    @staticmethod
    def check(label) -> None:
        if type(label) is not str:
            raise TypeError(f"a label is a str or None, not {type(label).__name__}")


class Forms(Labels):
    """A span's form — ``(kind, stage, outcome, keyed)``, *keyed* whether
    the span carries its entry's flow — interned like a label."""

    @staticmethod
    def check(form) -> None:
        for label in form[:3]:
            if label is not None:
                Labels.check(label)


#: The flow slot: a presence tag, then the key's five fields.
FLOW = "BBIHIH"
_NO_FLOW = (0, 0, 0, 0, 0, 0)


def flow_fields(flow) -> tuple:
    """*flow* as the six values of a ``FLOW`` slot."""
    if type(flow) is FlowKey:
        return (1, *flow)
    if flow is None:
        return _NO_FLOW
    raise TypeError(f"a flow is a FlowKey or None, not {type(flow).__name__}")


# A span ring entry is everything one worker call settles, packed once: a
# head (span count, close time, one flow), then per span its sid, open
# time, form code and parent count, then every span's parents in order.
ENTRY_HEAD = struct.Struct("<Hd" + FLOW)
SPAN = struct.Struct("<qdHH")


@functools.lru_cache(maxsize=256)
def entry(spans: int, parents: int) -> struct.Struct:
    """The layout of an entry of *spans* spans with *parents* parent ids."""
    return struct.Struct(ENTRY_HEAD.format + SPAN.format[1:] * spans + f"{parents}q")


# A trace event has one fixed layout per kind: ``<Bd`` (kind code, time),
# then the kind's fields, each an unsigned 32-bit int, a label, a float, a
# bool, a flow (absent: ``None`` or ``"-"``, read back as ``"-"``), or an
# unsigned 32-bit int that may be ``None``.
INT, LABEL, FLOAT, BOOL, OPTIONAL_INT = "I", "H", "d", "?", "?I"


class Layout:
    """One trace-event kind's record: ``pack(code, time, *values)``."""

    def __init__(self, code: int, kind: str, fields: Tuple[Tuple[str, str], ...]):
        self.code = code
        self.kind = kind
        self.fields = fields
        layout = struct.Struct("<Bd" + "".join(type_ for _, type_ in fields))
        self.pack, self.unpack = layout.pack, layout.unpack

    def encode(self, labels: Labels, time: float, fields: Dict[str, object]) -> bytes:
        """The record of one event given by field name."""
        values = [self.code, time]
        for name, type_ in self.fields:
            value = fields[name]
            if type_ == LABEL:
                values.append(labels[value])
            elif type_ == FLOW:
                values.extend(flow_fields(None if value == "-" else value))
            elif type_ == OPTIONAL_INT:
                values.extend((False, 0) if value is None else (True, value))
            else:
                values.append(value)
        return self.pack(*values)

    def decode(self, record: bytes, names: List[Optional[str]]) -> Dict[str, object]:
        """The event dict of one record, a flow as its ``str``."""
        values = self.unpack(record)
        event: Dict[str, object] = {"time": values[1], "kind": self.kind}
        at = 2
        for name, type_ in self.fields:
            value = values[at]
            if type_ == LABEL:
                value = names[value]
            elif type_ == FLOW:
                value = str(FlowKey(*values[at + 1:at + 6])) if value else "-"
            elif type_ == OPTIONAL_INT:
                value = values[at + 1] if value else None
            event[name] = value
            at += len(type_)  # one struct value per format character
        return event


#: The closed set of traced kinds, each with its one layout (its code is
#: its position).  A seam kind missing here (a span-only stage, a packet
#: settled ahead of the worker) is not traced; fields of a traced kind missing
#: here are not kept.
_KINDS = (
    ("ingress", (("worker", INT), ("bound", LABEL), ("proto", INT), ("bytes", INT),
                 ("flow", FLOW))),
    ("classify", (("worker", INT), ("flow", FLOW), ("elephant", BOOL))),
    ("merge", (("worker", INT), ("bytes", INT), ("spliced", BOOL))),
    ("split", (("worker", INT), ("segments", INT), ("bytes", INT))),
    ("caravan-built", (("worker", INT), ("inner", INT), ("bytes", INT))),
    ("caravan-opened", (("worker", INT), ("inner", INT))),
    ("egress", (("worker", INT), ("bound", LABEL), ("bytes", INT))),
    ("flush", (("worker", INT), ("packets", INT))),
    ("mode-transition", (("worker", INT), ("from_mode", LABEL), ("to_mode", LABEL))),
    ("stall", (("gateway", LABEL), ("until", FLOAT))),
    ("stall-drain", (("gateway", LABEL), ("queued", INT))),
    ("health-transition", (("gateway", LABEL), ("from_state", LABEL),
                           ("to_state", LABEL), ("reason", LABEL))),
    ("pmtud-probe", (("probe_id", INT), ("dst", INT), ("size", INT))),
    ("pmtud-report", (("probe_id", INT), ("pmtu", INT), ("fragments", INT))),
    ("pmtud-report-rejected", (("probe_id", INT), ("reason", LABEL),
                               ("pmtu", OPTIONAL_INT))),
    ("pmtud-timeout", (("probe_id", INT),)),
)
EVENTS: Dict[str, Layout] = {kind: Layout(code, kind, fields)
                             for code, (kind, fields) in enumerate(_KINDS)}
