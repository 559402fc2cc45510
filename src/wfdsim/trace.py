"""Trace records and their on-disk format.

The simulation stores one :class:`Transmission` per on-air frame: its event
id, delivery time, sender, frame name and the receivers whose copy survived.
On disk each (transmission, receiver) pair becomes one tab-separated line:

    #<event-id>\t<time>\t<src> --> <receiver>\t<frame-name>

A frame delivered to several hosts therefore appears as consecutive lines
sharing one event id and timestamp, and a transmission that no receiver
heard writes no line at all.  Every host tuned to the channel gets a row,
including bystanders that hear a unicast frame addressed to another host.
A frame's name is its kind's value, except that data frames are named by
their payload tag (``ping3``, ``ping3-reply``).  :func:`parse_trace_text`
reads the text back as transmissions, one per run of consecutive lines that
differ only in the receiver, and :func:`rows` is the per-line view of stored
and parsed transmissions alike.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Optional

from .medium import DATA, Frame, FrameKind
from .simtime import format_time, parse_time
from .traffic import TAG_RE

# kind -> trace name and back, without DATA (see FrameKind)
FRAME_NAMES = {kind: kind.value for kind in FrameKind if kind is not DATA}
_NAME_TO_KIND = {name: kind for kind, name in FRAME_NAMES.items()}

# One run of lines that differ only in the receiver: the first line's
# ``#id<TAB>time<TAB>src --> `` head (group 1) and ``<TAB>name`` tail with
# its line end (group 5) repeat by backreference.  The name excludes every
# str.splitlines separator, and a line ends in ``\r\n``, in any one
# separator or at the end of the text.
_LINE_SEPARATORS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_RUN_RE = re.compile(
    r"(#(\d+)\t(\d+\.\d{11,})\t(\S+) --> )\S+(\t([^" + _LINE_SEPARATORS
    + r"]+)(?:\r\n|[" + _LINE_SEPARATORS + r"]|\Z))(?:\1\S+\5)*")
_LINE_END_RE = re.compile(r"\r\n|[" + _LINE_SEPARATORS + "]")


def frame_name(frame: Frame) -> str:
    kind = frame.kind
    if kind is DATA:
        if not frame.payload_tag:
            raise ValueError("data frame without payload tag")
        return frame.payload_tag
    return FRAME_NAMES[kind]


def _kind_or_none(name: str) -> Optional[FrameKind]:
    kind = _NAME_TO_KIND.get(name)
    if kind is None and TAG_RE.fullmatch(name):
        return DATA
    return kind


class TraceRecord(NamedTuple):
    """One trace line: a transmission as heard by one receiver."""

    event_id: int
    time: int  # picoseconds
    src: str
    dst: str
    frame_name: str

    def line(self) -> str:
        tx = Transmission(self.event_id, self.time, self.src, self.frame_name,
                          None, [self.dst])
        return format_trace((tx,))[:-1]


@dataclass(slots=True)
class Transmission:
    """One on-air frame and every receiver whose copy survived, in
    registration order; the unit the simulation stores and formats, the
    parser reads back and the trace checkers work on."""

    event_id: int
    time: int  # picoseconds
    src: str
    frame_name: str
    kind: Optional[FrameKind]  # None for a parsed name outside the vocabulary
    receivers: list[str]


def rows(transmissions: Iterable[Transmission]) -> list[TraceRecord]:
    """The trace lines of *transmissions* as records, in line order."""
    new = tuple.__new__  # in C, past NamedTuple's Python __new__
    return [new(TraceRecord, (tx.event_id, tx.time, tx.src, dst, tx.frame_name))
            for tx in transmissions for dst in tx.receivers]


def parse_trace_text(text: str) -> list[Transmission]:
    """Parse a trace document into one transmission per run of consecutive
    lines that differ only in the receiver, skipping blank lines.

    A line may end in any ``str.splitlines`` separator or at the end of the
    text.  A run is matched at once by ``_RUN_RE``; its event id and
    timestamp are converted once, and each distinct frame name is mapped to
    its kind once per parse.  A frame name outside the vocabulary gives
    ``kind=None``; the checkers report it.  Errors name the offending line
    number."""
    transmissions = []
    append = transmissions.append
    match_run = _RUN_RE.match
    kinds: dict[str, Optional[FrameKind]] = {}  # frame name -> kind
    end = len(text)
    pos = 0
    while pos < end:
        m = match_run(text, pos)
        if m is None:
            line_end = _LINE_END_RE.search(text, pos)
            line_stop, stop = line_end.span() if line_end else (end, end)
            line = text[pos:line_stop]
            if line.strip():
                raise ValueError(f"line {_line_number(text, pos)}: "
                                 f"malformed trace line: {line!r}")
            pos = stop
            continue
        head, id_text, time_text, src, tail, name = m.groups()
        stop = m.end()
        # a receiver holds no tab or line separator, so the separator occurs
        # only between receivers
        receivers = text[pos + len(head):stop - len(tail)].split(tail + head)
        try:
            event_id = int(id_text)
            time = parse_time(time_text)
        except ValueError as exc:
            raise ValueError(f"line {_line_number(text, pos)}: {exc}") from None
        try:
            kind = kinds[name]
        except KeyError:
            kind = kinds[name] = _kind_or_none(name)
        append(Transmission(event_id, time, src, name, kind, receivers))
        pos = stop
    return transmissions


def _line_number(text: str, pos: int) -> int:
    """The str.splitlines line number of the line starting at *pos*."""
    return len(_LINE_END_RE.findall(text, 0, pos)) + 1


class TraceCollector:
    """Accumulates transmissions in firing order."""

    def __init__(self):
        self.transmissions: list[Transmission] = []

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
        self.transmissions.append(Transmission(
            event_id, time, frame.src, frame_name(frame), frame.kind, receivers))

    def text(self) -> str:
        return format_trace(self.transmissions)


def format_trace(transmissions: Iterable[Transmission]) -> str:
    """The on-disk form of *transmissions*: one newline-terminated line per
    receiver, and none for a transmission without receivers."""
    return "".join(trace_parts(transmissions))


def trace_parts(transmissions: Iterable[Transmission]) -> Iterator[str]:
    """The text of :func:`format_trace` in pieces, for writing a trace to a
    stream without holding it whole.

    The lines of one transmission differ only in the receiver, so each
    transmission yields its ``#id<TAB>time<TAB>src --> `` head, one join of
    its receivers on tail + head, and its ``<TAB>name`` tail with the line
    end.  Yielding the three apart, rather than their concatenation, spares
    two copies of every line."""
    for tx in transmissions:
        receivers = tx.receivers
        if receivers:
            head = f"#{tx.event_id}\t{format_time(tx.time)}\t{tx.src} --> "
            tail = f"\t{tx.frame_name}\n"
            yield head
            yield (tail + head).join(receivers)
            yield tail
