"""Trace line format, vocabulary and the duplicated-row convention."""

import gc
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import relay_config, run_standard
from wfdsim import Simulation, parse_config, seconds
from wfdsim.medium import BROADCAST, Frame, FrameKind
from wfdsim.simtime import PS_PER_SECOND, format_time
from wfdsim.trace import (
    _NAME_TO_KIND,
    TraceCollector,
    TraceRecord,
    Transmission,
    frame_name,
    kind_of,
    parse_trace_text,
    rows,
    trace_parts,
)
from wfdsim.validate import (
    Violation,
    group_transmissions,
    validate_trace_text,
    validate_transmissions,
)

LINE_RE = re.compile(r"^#\d+\t\d+\.\d{11,}\t\S+ --> \S+\t.+$")

VOCABULARY = {
    "Beacon", "Probe Request", "Probe Response",
    "GO Negotiation Request Frame", "GO Negotiation Response Frame",
    "GO Negotiation Confirmation Frame", "Provision Request",
    "Provision discovery Response", "Authentication", "ACK",
}
BROADCAST_KINDS = (FrameKind.BEACON, FrameKind.PROBE_REQUEST)
INTENT_KINDS = (FrameKind.GO_NEG_REQUEST, FrameKind.GO_NEG_RESPONSE)


def test_line_format_is_tab_separated():
    record = TraceRecord(288, 6403480943460, "host[1]", "host[0]",
                         "GO Negotiation Request Frame")
    assert record.line() == \
        "#288\t6.403480943460\thost[1] --> host[0]\tGO Negotiation Request Frame"


def test_line_round_trips():
    record = TraceRecord(42, 123456789012, "host[2]", "host[0]", "ping9-reply")
    [parsed] = rows(parse_trace_text(record.line()))
    assert parsed == record
    assert type(parsed) is TraceRecord
    assert parsed.line() == record.line()


def test_malformed_line_rejected():
    with pytest.raises(ValueError, match="malformed trace line"):
        parse_trace_text("#1 0.5 host[0] -> host[1] Beacon")


def test_every_emitted_line_matches_grammar_and_vocabulary():
    result = run_standard(hosts=3, seed=1, until=12)
    assert result.trace, "expected a non-empty trace"
    for record in result.collector.records:
        line = record.line()
        assert LINE_RE.match(line), line
        assert record.frame_name in VOCABULARY \
            or re.match(r"^ping\d+(-reply)?$", record.frame_name), line


def test_frame_delivered_to_two_hosts_shares_id_and_time():
    result = run_standard(hosts=3, seed=1, until=12)
    by_id = {}
    multi = 0
    for record in result.collector.records:
        by_id.setdefault(record.event_id, []).append(record)
    for group in by_id.values():
        if len(group) > 1:
            multi += 1
            assert len({r.time for r in group}) == 1
            assert len({r.src for r in group}) == 1
            assert len({r.frame_name for r in group}) == 1
            assert len({r.dst for r in group}) == len(group)
    assert multi > 0, "three-host traces must contain duplicated rows"


def _one_line(name):
    return f"#1\t0.000000000001\ta --> b\t{name}\n"


def parsed_kind(name):
    """The kind the checkers read for a one-line trace's frame *name*, or
    None when grouping drops the line as an unknown name."""
    grouped, _violations = group_transmissions(parse_trace_text(_one_line(name)))
    return kind_of(name) if grouped else None


def test_records_ordered_by_time_then_id():
    result = run_standard(hosts=3, seed=2, until=12)
    keys = [(r.time, r.event_id) for r in result.collector.records]
    assert keys == sorted(keys)


def test_data_frames_named_by_payload_tag():
    frame = Frame(kind=FrameKind.DATA, src="a", dst="b", channel=0,
                  payload_tag="ping9", final_dst="c", orig_src="a")
    assert frame_name(frame) == "ping9"
    assert parsed_kind("ping9") is FrameKind.DATA
    assert parsed_kind("ping9-reply") is FrameKind.DATA


def test_unknown_name_rejected():
    assert parsed_kind("Mystery Frame") is None
    assert validate_trace_text(_one_line("Mystery Frame")) == [
        Violation("grammar", "unknown frame name 'Mystery Frame'", 1)]


def test_payload_tag_takes_ascii_digits_only():
    # the writer numbers pings in ASCII; "ping١" is no tag it writes
    assert parsed_kind("ping١") is None
    assert validate_trace_text(_one_line("ping١")) == [
        Violation("grammar", "unknown frame name 'ping١'", 1)]


def test_parse_trace_text_reports_line_numbers():
    with pytest.raises(ValueError, match="line 2"):
        parse_trace_text("#1\t0.000000000001\ta --> b\tBeacon\nnot a line\n")


@pytest.mark.parametrize("end", ["\n", "\r\n", "\u2028", "no-final-newline"])
def test_counted_runs_hold_their_line_counts(end):
    # the runs whose lines grouping counts, those with an unknown name or a
    # reused event id, list their receivers whatever the kinds listed; the
    # others end at their names unless their kind is listed
    result = run_standard(hosts=3, seed=2, until=12)
    lines = result.trace_text().splitlines()
    # rename one beacon's lines, and repeat the first line at the end
    head = next(line for line in lines if line.endswith("\tBeacon")).split("\t")[0]
    lines = [line.replace("\tBeacon", "\tMystery") if line.startswith(head + "\t")
             else line for line in lines] + lines[:1]
    text = "\n".join(lines) if end == "no-final-newline" \
        else end.join(lines) + end
    listed = parse_trace_text(text)
    assert rows(listed) == [TraceRecord(*line) for line in map(_fields, lines)]
    counted = [run for run in listed if run[3] == "Mystery"] + listed[-1:]
    assert len(counted) == 2 and all(len(run) > 4 for run in counted)
    for kinds in (frozenset(), {FrameKind.ACK}):
        assert parse_trace_text(text, receivers_of=kinds) == [
            run if run in counted or kind_of(run[3]) in kinds else run[:4]
            for run in listed]


def _fields(line):
    """A trace line's record fields, by splitting."""
    head, stamp, route, name = line.split("\t")
    src, dst = route.split(" --> ")
    return (int(head[1:]), int(stamp.replace(".", "")), src, dst, name)


def test_counted_run_ending_the_text_is_one_line():
    # the second run reuses the first's event id, so it lists its receiver;
    # without a line end its tail "\tACK" also ends the sender's field
    text = ("#1\t1.000000000000\tACK --> b\tACK\n"
            "#1\t1.000000000000\tACK --> c\tACK")
    runs = parse_trace_text(text, receivers_of=frozenset())
    assert runs == [(1, PS_PER_SECOND, "ACK", "ACK"),
                    (1, PS_PER_SECOND, "ACK", "ACK", "c")]
    assert group_transmissions(runs) == (
        [(1, PS_PER_SECOND, "ACK", "ACK", "c")], [])


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(hosts=st.integers(2, 20), loss=st.sampled_from([0.0, 0.05, 0.2]),
       seed=st.integers(0, 2**32 - 1))
@example(hosts=20, loss=0.2, seed=7)
def test_trace_text_and_records_agree(hosts, loss, seed):
    config = parse_config(f"**.medium.lossProbability = {loss}\n",
                          host_count=hosts)
    sim = Simulation(config, seed=seed)
    result = sim.run()
    text = result.trace_text()
    parsed = parse_trace_text(text)
    assert parsed == sim.trace.entries
    # the stored transmissions are exactly what the checkers regroup, and
    # checking them leaves them as they are
    grouped, violations = group_transmissions(parsed)
    validate_transmissions(grouped)
    assert (grouped, violations) == (sim.trace.entries, [])
    records = sim.trace.records
    assert records == rows(parsed) and len(records) == text.count("\n")
    # rows are built past the TraceRecord constructor
    assert all(type(r) is TraceRecord for r in records)
    assert text == "".join(r.line() + "\n" for r in records)


def test_unheard_transmission_is_not_stored():
    collector = TraceCollector()
    collector.on_delivery(7, 1000, Frame(kind=FrameKind.BEACON, src="a",
                                         dst="*", channel=0), [])
    assert collector.transmissions == [] and collector.records == []
    assert collector.text() == ""
    collector.on_delivery(8, 2000, Frame(kind=FrameKind.BEACON, src="a",
                                         dst="*", channel=0), ["b", "c"])
    assert [tx.receivers for tx in collector.transmissions] == [["b", "c"]]
    assert collector.text() == (
        "#8\t0.000000002000\ta --> b\tBeacon\n"
        "#8\t0.000000002000\ta --> c\tBeacon\n")


def test_frame_names_are_the_kind_values():
    assert {kind.value for kind in FrameKind if kind is not FrameKind.DATA} \
        == VOCABULARY
    for kind in FrameKind:
        if kind is not FrameKind.DATA:
            frame = Frame(kind=kind, src="a", channel=0,
                          dst="*" if kind in BROADCAST_KINDS else "b",
                          go_intent=7 if kind in INTENT_KINDS else None)
            assert frame_name(frame) == kind.value
            assert parsed_kind(kind.value) is kind
    # DATA's value names no frame: a data frame is named by its payload tag
    assert parsed_kind(FrameKind.DATA.value) is None


def _oracle_stamp(t_ps):
    """A trace timestamp by division and a format spec."""
    return f"{t_ps // PS_PER_SECOND}.{t_ps % PS_PER_SECOND:012d}"


def _oracle_line(event_id, time, src, dst, frame_name):
    """One trace line, written on its own."""
    return f"#{event_id}\t{_oracle_stamp(time)}\t{src} --> {dst}\t{frame_name}"


def _oracle_text(entries):
    """A trace written one row at a time."""
    return "".join(_oracle_line(event_id, time, src, dst, name) + "\n"
                   for event_id, time, src, name, *receivers in entries
                   for dst in receivers)


@pytest.mark.parametrize("t_ps", [
    0, 1, PS_PER_SECOND - 1, PS_PER_SECOND, PS_PER_SECOND + 1,
    10 * PS_PER_SECOND - 1, 10 * PS_PER_SECOND, 2**63])
def test_format_time_matches_the_division_oracle(t_ps):
    assert format_time(t_ps) == _oracle_stamp(t_ps)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(t_ps=st.integers(0, 10**18))
def test_format_time_matches_the_division_oracle_over_range(t_ps):
    assert format_time(t_ps) == _oracle_stamp(t_ps)


def test_negative_time_is_refused():
    with pytest.raises(ValueError, match="negative simulation time"):
        format_time(-1)


# few names, hosts and times, so each repeats and interleaves; the two names
# outside the vocabulary and the two data tags each map to one kind, so a
# writer keyed by kind instead of name would write a wrong name
_NAMES = ["Beacon", "ACK", "Probe Response", "ping3", "ping3-reply",
          "Mystery Frame", "Other Frame"]
_HOSTS = [f"host[{i}]" for i in range(5)]

_entries = st.lists(st.builds(
    lambda event_id, time, src, name, receivers: (
        event_id, time, src, name, *receivers),
    st.integers(0, 10**6),
    st.sampled_from([0, PS_PER_SECOND, 6_403_480_943_460]) | st.integers(0, 10**14),
    st.sampled_from(_HOSTS),
    st.sampled_from(_NAMES),
    st.lists(st.sampled_from(_HOSTS), min_size=1, max_size=6)), max_size=12)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(entries=_entries)
@example(entries=[
    (1, 5, "host[0]", "Mystery Frame", "host[1]"),
    (3, 7, "host[2]", "Other Frame", "host[0]", "host[1]"),
    (4, 8, "host[0]", "Mystery Frame", "host[2]"),
])
def test_trace_parts_matches_the_per_row_oracle(entries):
    assert "".join(trace_parts(entries)) == _oracle_text(entries)
    for record in rows(entries):
        assert record.line() == _oracle_line(*record)


@pytest.fixture(scope="module")
def lossy_relay():
    sim = Simulation(relay_config(0.05), seed=3)
    return sim, sim.run(until=seconds(5))


def test_stored_entries_are_not_gc_tracked(lossy_relay):
    # an entry that held a FrameKind, a list or a Frame would stay tracked,
    # and every older-generation pass would walk the whole trace again
    sim, result = lossy_relay
    entries = sim.trace.entries
    assert {tx.kind for tx in result.trace} >= {
        FrameKind.DATA, FrameKind.ACK, FrameKind.BEACON}
    # one pass can leave an entry tracked when it is visited before its
    # contents are untracked
    gc.collect()
    gc.collect()
    assert not [entry for entry in entries if gc.is_tracked(entry)]


def test_built_kinds_match_the_parsed_kinds(lossy_relay):
    # the name lookup the parser, grouping and checkers share gives each
    # stored name the kind the built view holds: its value's kind, else DATA
    _sim, result = lossy_relay
    names = [entry[3] for entry in parse_trace_text(result.trace_text())]
    kinds = [kind_of(name) for name in names]
    assert [tx.kind for tx in result.trace] == kinds
    assert [_NAME_TO_KIND.get(name, FrameKind.DATA) for name in names] == kinds


_TAGS = st.builds(lambda prefix, seq, reply: prefix + str(seq) + reply,
                  st.sampled_from(["ping", "p", "App"]), st.integers(0, 10**4),
                  st.sampled_from(["", "-reply"]))


@st.composite
def _deliveries(draw):
    """One on_delivery call's arguments, and what the caller does to its
    receivers list afterwards."""
    kind = draw(st.sampled_from(list(FrameKind)))
    frame = Frame(kind=kind, src=draw(st.sampled_from(_HOSTS)),
                  dst=BROADCAST if kind in BROADCAST_KINDS
                  else draw(st.sampled_from(_HOSTS)),
                  go_intent=7 if kind in INTENT_KINDS else None,
                  payload_tag=draw(_TAGS) if kind is FrameKind.DATA else None)
    return (draw(st.integers(0, 10**6)), draw(st.integers(0, 10**14)), frame,
            draw(st.lists(st.sampled_from(_HOSTS), max_size=6)),
            draw(st.sampled_from([None, "append", "clear"])))


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(deliveries=st.lists(_deliveries(), max_size=12))
def test_collector_matches_a_store_of_transmissions(deliveries):
    collector = TraceCollector()
    reference = []  # each transmission stored whole, with the frame's kind
    for event_id, time, frame, receivers, after in deliveries:
        collector.on_delivery(event_id, time, frame, receivers)
        if receivers:
            reference.append(Transmission(event_id, time, frame.src,
                                          frame_name(frame), frame.kind,
                                          list(receivers)))
        if after == "append":
            receivers.append("host[9]")
        elif after == "clear":
            receivers.clear()
    assert collector.transmissions == reference
    lines = [TraceRecord(tx.event_id, tx.time, tx.src, dst, tx.frame_name)
             for tx in reference for dst in tx.receivers]
    assert collector.records == lines
    assert collector.text() == "".join(line.line() + "\n" for line in lines)
    assert collector.row_count() == len(lines)
