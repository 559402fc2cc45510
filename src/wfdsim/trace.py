"""Trace records and their on-disk format.

Each delivered (frame, receiver) pair yields one tab-separated line:

    #<event-id>\t<time>\t<src> --> <receiver>\t<frame-name>

A frame delivered to several hosts therefore appears as consecutive lines
sharing one event id and timestamp.  Every host tuned to the channel gets a
row, including bystanders that hear a unicast frame addressed to another
host.  Frame names come from a fixed vocabulary; data frames are named by
their payload tag (``ping3``, ``ping3-reply``).
"""

from __future__ import annotations

import re
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
    """One delivered-frame observation."""

    event_id: int
    time: int  # picoseconds
    src: str
    dst: str
    frame_name: str

    def line(self) -> str:
        return format_trace((self,))[:-1]


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
    """Accumulates records in firing order; optionally mirrors to a stream."""

    def __init__(self, stream: Optional[TextIO] = None):
        self.records: list[TraceRecord] = []
        self._stream = stream

    def on_delivery(self, event_id: int, time: int, frame: Frame,
                    receivers: list[str]) -> None:
        """Record one transmission: a row per receiver that heard it."""
        name, src = frame_name(frame), frame.src
        new = tuple.__new__  # in C, past NamedTuple's Python __new__
        rows = [new(TraceRecord, (event_id, time, src, receiver, name))
                for receiver in receivers]
        self.records.extend(rows)
        if self._stream is not None:
            self._stream.write(format_trace(rows))

    def text(self) -> str:
        return format_trace(self.records)


def format_trace(records: Iterable[TraceRecord]) -> str:
    """The on-disk form of *records*: one line each, newline-terminated.

    Consecutive rows of one transmission share their ``#id<TAB>time<TAB>``
    prefix, which is formatted once."""
    parts = []
    last_id = last_time = head = None
    for event_id, time, src, dst, name in records:
        if event_id != last_id or time != last_time:
            last_id, last_time = event_id, time
            head = f"#{event_id}\t{format_time(time)}\t"
        parts.append(f"{head}{src} --> {dst}\t{name}\n")
    return "".join(parts)
