"""Trace records and their on-disk format.

The simulation stores one :class:`Transmission` per on-air frame: its event
id, delivery time, sender, frame name and the receivers whose copy survived.
On disk each (transmission, receiver) pair becomes one tab-separated line:

    #<event-id>\t<time>\t<src> --> <receiver>\t<frame-name>

A frame delivered to several hosts therefore appears as consecutive lines
sharing one event id and timestamp, and a transmission that no receiver
heard writes no line at all.  Every host tuned to the channel gets a row,
including bystanders that hear a unicast frame addressed to another host.
Frame names come from a fixed vocabulary; data frames are named by their
payload tag (``ping3``, ``ping3-reply``).  :func:`rows` gives the per-line
view of stored transmissions; :func:`parse_trace_text` reads the text back
as rows.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional, TextIO

from .medium import Frame, FrameKind
from .simtime import format_time, parse_time

FRAME_NAMES = {
    FrameKind.BEACON: "Beacon",
    FrameKind.PROBE_REQUEST: "Probe Request",
    FrameKind.PROBE_RESPONSE: "Probe Response",
    FrameKind.GO_NEG_REQUEST: "GO Negotiation Request Frame",
    FrameKind.GO_NEG_RESPONSE: "GO Negotiation Response Frame",
    FrameKind.GO_NEG_CONFIRMATION: "GO Negotiation Confirmation Frame",
    FrameKind.PROVISION_DISCOVERY_REQUEST: "Provision Request",
    FrameKind.PROVISION_DISCOVERY_RESPONSE: "Provision discovery Response",
    FrameKind.AUTH: "Authentication",
    FrameKind.ACK: "ACK",
}

_NAME_TO_KIND = {name: kind for kind, name in FRAME_NAMES.items()}

TRACE_LINE_RE = re.compile(
    r"^#(?P<id>\d+)\t(?P<time>\d+\.\d{11,})\t(?P<src>\S+) --> (?P<dst>\S+)\t(?P<name>.+)$")

_PING_NAME_RE = re.compile(r"^(?P<prefix>[A-Za-z]+)(?P<seq>\d+)(?P<reply>-reply)?$")


def frame_name(frame: Frame) -> str:
    if frame.kind is FrameKind.DATA:
        if not frame.payload_tag:
            raise ValueError("data frame without payload tag")
        return frame.payload_tag
    return FRAME_NAMES[frame.kind]


def kind_for_name(name: str) -> FrameKind:
    """Map a trace frame name back to its kind (ping tags map to DATA)."""
    kind = _NAME_TO_KIND.get(name)
    if kind is not None:
        return kind
    if _PING_NAME_RE.match(name):
        return FrameKind.DATA
    raise ValueError(f"unknown frame name {name!r}")


class TraceRecord(NamedTuple):
    """One trace line: a transmission as heard by one receiver."""

    event_id: int
    time: int  # picoseconds
    src: str
    dst: str
    frame_name: str

    def line(self) -> str:
        tx = Transmission(self.event_id, self.time, self.src, self.frame_name,
                          kind_for_name(self.frame_name), [self.dst])
        return format_trace((tx,))[:-1]


@dataclass(slots=True)
class Transmission:
    """One on-air frame and every receiver whose copy survived, in
    registration order; the unit the simulation stores and formats, and the
    unit the trace checkers regroup parsed rows into."""

    event_id: int
    time: int  # picoseconds
    src: str
    frame_name: str
    kind: FrameKind
    receivers: list[str]
    acked_by: Optional[str] = None  # filled in by the ACK pairing pass
    unresolved: bool = False        # window still open when the trace ended


def rows(transmissions: Iterable[Transmission]) -> list[TraceRecord]:
    """The trace lines of *transmissions* as records, in line order."""
    new = tuple.__new__  # in C, past NamedTuple's Python __new__
    return [new(TraceRecord, (tx.event_id, tx.time, tx.src, dst, tx.frame_name))
            for tx in transmissions for dst in tx.receivers]


def parse_trace_text(text: str) -> list[TraceRecord]:
    """Parse a trace document into records, skipping blank lines.

    The rows of one transmission repeat its ``#id<TAB>time<TAB>`` prefix, so
    the event id and timestamp are converted once per run of rows that share
    their text, not once per row.  Errors name the offending line number."""
    records = []
    append = records.append
    match = TRACE_LINE_RE.match
    new = tuple.__new__  # in C, past NamedTuple's Python __new__
    id_text = time_text = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        m = match(line)
        if m is None:
            if not line.strip():
                continue
            raise ValueError(f"line {lineno}: malformed trace line: {line!r}")
        row_id, row_time, src, dst, name = m.groups()
        try:
            if row_id != id_text:
                event_id = int(row_id)
                id_text = row_id
            if row_time != time_text:
                time = parse_time(row_time)
                time_text = row_time
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        append(new(TraceRecord, (event_id, time, src, dst, name)))
    return records


class TraceCollector:
    """Accumulates transmissions in firing order; optionally mirrors their
    lines to a stream as they happen."""

    def __init__(self, stream: Optional[TextIO] = None):
        self.transmissions: list[Transmission] = []
        self._stream = stream

    @property
    def records(self) -> list[TraceRecord]:
        """One record per trace line, built on each access."""
        return rows(self.transmissions)

    def on_delivery(self, event_id: int, time: int, frame: Frame,
                    receivers: list[str]) -> None:
        """Record one transmission.  The collector keeps *receivers* itself,
        so the caller must not mutate the list afterwards; a transmission
        that no receiver heard has no trace line and is not stored."""
        if not receivers:
            return
        tx = Transmission(event_id, time, frame.src, frame_name(frame),
                          frame.kind, receivers)
        self.transmissions.append(tx)
        if self._stream is not None:
            self._stream.write(format_trace((tx,)))

    def text(self) -> str:
        return format_trace(self.transmissions)


def format_trace(transmissions: Iterable[Transmission]) -> str:
    """The on-disk form of *transmissions*: one newline-terminated line per
    receiver.  The lines of one transmission differ only in the receiver, so
    each transmission is written with one join over its receivers."""
    parts = []
    for tx in transmissions:
        if tx.receivers:
            head = f"#{tx.event_id}\t{format_time(tx.time)}\t{tx.src} --> "
            tail = f"\t{tx.frame_name}\n"
            parts.append(head + (tail + head).join(tx.receivers) + tail)
    return "".join(parts)
