"""Trace records and their on-disk format.

The simulation stores one entry per on-air frame, the tuple ``(event_id,
time, src, frame_name, *receivers)``: its event id, delivery time, sender,
frame name and the receivers whose copy survived.  On disk each
(transmission, receiver) pair becomes one tab-separated line:

    #<event-id>\t<time>\t<src> --> <receiver>\t<frame-name>

A frame delivered to several hosts therefore appears as consecutive lines
sharing one event id and timestamp, and a transmission that no receiver
heard writes no line at all.  Every host tuned to the channel gets a row,
including bystanders that hear a unicast frame addressed to another host.
A frame's name is its kind's value, except that data frames are named by
their payload tag (``ping3``, ``ping3-reply``).  Entries are the one form
the writer, the parser and the checkers pass: :func:`trace_parts` writes
them, :func:`parse_trace_text` reads the text back as one entry per run of
consecutive lines that differ only in the receiver, and :func:`rows` is
their per-line view.  :class:`Transmission` is the named view that
``RunResult.trace`` builds.
"""

from __future__ import annotations

import re
from typing import AbstractSet, Iterable, Iterator, NamedTuple, Optional

from .medium import DATA, Frame, FrameKind
from .simtime import format_time, parse_time
from .traffic import TAG_RE

# kind -> trace name and back, without DATA (see FrameKind)
FRAME_NAMES = {kind: kind.value for kind in FrameKind if kind is not DATA}
_NAME_TO_KIND = {name: kind for kind, name in FRAME_NAMES.items()}

# a TraceCollector entry's receivers start at this index
_RECEIVERS = 4

# One run of lines that differ only in the receiver, or else one line (group
# 8): the first line's ``#id<TAB>time<TAB>src --> `` head (group 1) and
# ``<TAB>name`` tail with its line end (group 6) repeat by backreference.
# The name excludes every str.splitlines separator, and a line ends in
# ``\r\n``, in any one separator or at the end of the text.  The id and time
# digits are ASCII, as the writer gives them: ``\d`` and ``int`` would also
# take every other Unicode decimal digit.
_LINE_SEPARATORS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_LINE_END = r"(?:\r\n|[" + _LINE_SEPARATORS + r"]|\Z)"
_RUN_RE = re.compile(
    r"(#([0-9]+)\t([0-9]+)\.([0-9]{11,})\t(\S+) --> )\S+(\t([^" + _LINE_SEPARATORS
    + r"]+)" + _LINE_END + r")(?:\1\S+\6)*|([^" + _LINE_SEPARATORS + r"]*)"
    + _LINE_END)
_LINE_END_RE = re.compile(r"\r\n|[" + _LINE_SEPARATORS + "]")


def frame_name(frame: Frame) -> str:
    kind = frame.kind
    if kind is DATA:
        if not frame.payload_tag:
            raise ValueError("data frame without payload tag")
        return frame.payload_tag
    return FRAME_NAMES[kind]


class _KindOfName(dict):
    """Frame name -> kind, adding the first 4,096 payload tags looked up:
    a trace of ever new tags cannot grow it without bound."""

    def __missing__(self, name: str) -> Optional[FrameKind]:
        if not TAG_RE.fullmatch(name):
            return None
        if len(self) < 4096:
            self[name] = DATA
        return DATA


# The kind a trace frame name names: the kind whose value it is, DATA for a
# payload tag, and None for any other name.  A dict lookup, as the checkers
# look up every transmission's name.
kind_of = _KindOfName(_NAME_TO_KIND).__getitem__


class TraceRecord(NamedTuple):
    """One trace line: a transmission as heard by one receiver."""

    event_id: int
    time: int  # picoseconds
    src: str
    dst: str
    frame_name: str

    def line(self) -> str:
        entry = (self.event_id, self.time, self.src, self.frame_name, self.dst)
        return "".join(trace_parts((entry,)))[:-1]


class Transmission(NamedTuple):
    """One on-air frame and every receiver whose copy survived, in
    registration order: the named view of an entry that
    :attr:`TraceCollector.transmissions` builds."""

    event_id: int
    time: int  # picoseconds
    src: str
    frame_name: str
    kind: FrameKind
    receivers: list[str]


def rows(entries: Iterable[tuple]) -> list[TraceRecord]:
    """The trace lines of *entries*, not Transmissions, in line order."""
    new = tuple.__new__  # in C, past NamedTuple's Python __new__
    return [new(TraceRecord, (entry[0], entry[1], entry[2], dst, entry[3]))
            for entry in entries for dst in entry[_RECEIVERS:]]


def parse_trace_text(text: str, *,
                     receivers_of: Optional[AbstractSet[FrameKind]] = None
                     ) -> list[tuple]:
    """Parse a trace document into one entry ``(event_id, time, src,
    frame_name, *receivers)`` per run of consecutive lines that differ only
    in the receiver, skipping blank lines.

    A line may end in any ``str.splitlines`` separator or at the end of the
    text.  ``_RUN_RE`` matches a run at once; its event id and timestamp
    are converted once, and each distinct frame name is looked up once per
    parse.  Errors name the offending line number.

    By default every run lists its receivers, and the simulator's own text
    parses to its ``TraceCollector.entries``.  Given *receivers_of*, a run
    of a known kind outside it ends at its name.  A run with an unknown
    name, or one reusing an earlier run's event id, still lists its
    receivers: grouping counts the lines of such a counted run."""
    entries = []
    append = entries.append
    listed_names: dict[str, bool] = {}  # whether a name's runs list receivers
    seen_ids: set[int] = set()
    add_seen = seen_ids.add
    for m in _RUN_RE.finditer(text):
        head, id_text, whole, frac, src, tail, name, line = m.groups()
        start, stop = m.span()
        if head is None:
            if line.strip():
                raise ValueError(f"line {_line_number(text, start)}: "
                                 f"malformed trace line: {line!r}")
            continue
        try:  # a 12-digit fraction needs no parse_time
            event_id = int(id_text)
            time = int(whole + frac) if len(frac) == 12 \
                else parse_time(whole + "." + frac)
        except ValueError as exc:
            raise ValueError(f"line {_line_number(text, start)}: {exc}") from None
        try:
            listed = listed_names[name]
        except KeyError:
            kind = kind_of(name)
            listed = listed_names[name] = receivers_of is None \
                or kind is None or kind in receivers_of
        if listed or event_id in seen_ids:
            # a receiver holds no tab or line separator, so the separator
            # occurs only between receivers
            append((event_id, time, src, name, *text[
                start + len(head):stop - len(tail)].split(tail + head)))
        else:
            append((event_id, time, src, name))
        add_seen(event_id)
    return entries


def _line_number(text: str, pos: int) -> int:
    """The str.splitlines line number of the line starting at *pos*."""
    return len(_LINE_END_RE.findall(text, 0, pos)) + 1


class TraceCollector:
    """Accumulates transmissions in firing order, each as one entry
    ``(event_id, time, src, frame_name, *receivers)``.

    An entry holds only ints and strs, so the garbage collector stops
    tracking it at its first pass, and no later pass walks the stored
    trace.  :attr:`transmissions` and :attr:`records` are built from the
    entries on each access, and :meth:`text` formats them directly."""

    def __init__(self):
        self.entries: list[tuple] = []

    @property
    def transmissions(self) -> list[Transmission]:
        """One transmission per entry, built on each access; a stored name
        is a frame kind's value or a payload tag, so it gives the kind."""
        new = tuple.__new__  # in C, past NamedTuple's Python __new__
        return [new(Transmission, (entry[0], entry[1], entry[2], entry[3],
                                   kind_of(entry[3]), list(entry[_RECEIVERS:])))
                for entry in self.entries]

    @property
    def records(self) -> list[TraceRecord]:
        """One record per trace line, built on each access."""
        return rows(self.entries)

    def row_count(self) -> int:
        """The number of trace lines, without building them."""
        entries = self.entries
        return sum(map(len, entries)) - _RECEIVERS * len(entries)

    def on_delivery(self, event_id: int, time: int, frame: Frame,
                    receivers: list[str]) -> None:
        """Record one transmission, copying *receivers*; a transmission that
        no receiver heard has no trace line and is not stored."""
        if receivers:
            self.entries.append(
                (event_id, time, frame.src, frame_name(frame), *receivers))

    def text(self) -> str:
        return "".join(trace_parts(self.entries))


def trace_parts(entries: Iterable[tuple]) -> Iterator[str]:
    """The trace text of collector entries in pieces, for writing a trace
    to a stream without holding it whole.

    The lines of one entry differ only in the receiver, so each entry
    yields its ``#id<TAB>time<TAB>src --> `` head, one join of its
    receivers on tail + head, and its ``<TAB>name`` tail with the line
    end.  Yielding the three apart, rather than their concatenation, spares
    two copies of every line.  Every entry must name a receiver."""
    for entry in entries:
        head = f"#{entry[0]}\t{format_time(entry[1])}\t{entry[2]} --> "
        tail = f"\t{entry[3]}\n"
        yield head
        yield (tail + head).join(entry[_RECEIVERS:])
        yield tail
