"""The conformance checkers: they accept the simulator's own lossless output
and flag targeted corruptions."""

import functools
import re
from decimal import Decimal

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from conftest import VERBATIM_AUTONOMOUS_CONFIG, relay_config, run_standard
from wfdsim import Simulation, default_scenario, parse_config, seconds
from wfdsim.history import History
from wfdsim.medium import (
    AUTH,
    BEACON,
    DATA,
    GO_NEG_KINDS,
    PROVISION_DISCOVERY_REQUEST,
    PROVISION_DISCOVERY_RESPONSE,
    FrameKind,
    MediumParams,
)
from wfdsim.simtime import PS_PER_SECOND, format_time, parse_time
from wfdsim.trace import (
    FRAME_NAMES,
    TraceRecord,
    Transmission,
    parse_trace_text,
    rows,
)
from wfdsim.validate import (
    ACK,
    UNICAST_KINDS,
    Violation,
    check_ack_pairing,
    check_emission_order,
    check_intent_argmax,
    check_relay_rule,
    check_single_go,
    check_single_go_history,
    check_transition_legality,
    group_transmissions,
    validate_history,
    validate_trace_text,
    validate_transmissions,
)


@pytest.fixture(scope="module")
def standard_result():
    return run_standard(hosts=3, seed=1, until=20)


@pytest.fixture(scope="module")
def autonomous_result():
    config = parse_config(VERBATIM_AUTONOMOUS_CONFIG)
    return Simulation(config, seed=15).run(until=seconds(10))


def test_accepts_own_standard_trace(standard_result):
    assert validate_trace_text(standard_result.trace_text()) == []


def test_accepts_own_autonomous_trace(autonomous_result):
    assert validate_trace_text(autonomous_result.trace_text()) == []


def test_accepts_own_histories(standard_result, autonomous_result):
    assert validate_history(standard_result.history) == []
    assert validate_history(autonomous_result.history) == []


@pytest.mark.parametrize("seed", [1 << 16, 2 << 16, 3 << 16])
def test_accepts_own_lossless_dense_trace(seed):
    # 30 hosts form several groups, each owner by a negotiation of its own
    result = Simulation(default_scenario(30), seed=seed).run()
    assert validate_trace_text(result.trace_text()) == []


@pytest.mark.xfail(strict=True, reason="ROADMAP item 7: single-go has no "
                   "group context")
def test_accepts_own_lossless_persistent_rerun_of_two_groups():
    # host[0] takes up its stored group again on its stored client's probe
    # response, with no negotiation and no PD Response before its first
    # beacon, so rule C2 takes it for a forged owner
    text = "".join(f"**.host[{i}].wlan[0].mgmt.persistent = true\n"
                   for i in range(4))
    config = parse_config(text, host_count=4)
    base = Simulation(config, seed=1 << 16).run(until=seconds(20))
    rerun = Simulation(config, seed=(1 << 16) + 1,
                       persistent_records=base.persistent_records).run(
        until=seconds(20))
    assert len({tx[2] for tx in rerun.collector.entries
                if tx[3] == "Beacon"}) == 2
    assert validate_trace_text(rerun.trace_text()) == []


def test_own_lossless_dense_trace_pairs_every_ack():
    # the ACK-pairing half of ROADMAP item 2, apart from single-go
    result = Simulation(default_scenario(40), seed=8 << 16).run()
    violations = validate_trace_text(result.trace_text())
    assert [v for v in violations if v.code == "ack-pairing"] == []


def test_own_lossless_two_host_trace_pairs_every_ack():
    # with no gap between search probes the searcher has left the
    # responder's channel when the ACK of frame #91, a Probe Response, is
    # due, so none is sent and the responder resends it
    text = "".join(f"**.host[{i}].wlan[0].mgmt.searchProbeGap = 0s\n"
                   for i in range(2))
    result = Simulation(parse_config(text, host_count=2), seed=2 << 16).run(
        until=seconds(20))
    assert sorted(result.final_states.values()) == \
        ["ClientAssociated", "GoOperating"]
    violations = validate_trace_text(result.trace_text())
    assert [v for v in violations if v.code == "ack-pairing"] == []


@pytest.mark.parametrize("hosts", [10, 30, 100])
@pytest.mark.parametrize("seed", [1 << 16, 2 << 16, 3 << 16])
def test_own_lossless_output_pairs_every_ack_and_relays(hosts, seed):
    result = Simulation(default_scenario(hosts), seed=seed).run()
    violations = validate_trace_text(result.trace_text())
    assert [v for v in violations if v.code in ("ack-pairing", "relay-rule")] == []


@pytest.mark.parametrize("hosts", [2, 3, 10, 40])
@pytest.mark.parametrize("loss", [0.0, 0.1])
@pytest.mark.parametrize("seed", [1 << 16, 2 << 16, 3 << 16])
def test_parsed_trace_is_the_run_trace(hosts, loss, seed):
    # the text parses back to the stored entries, and checking those in
    # process finds what checking the text finds
    config = parse_config(f"**.medium.lossProbability = {loss}\n",
                          host_count=hosts)
    result = Simulation(config, seed=seed).run()
    text = result.trace_text()
    assert parse_trace_text(text) == result.collector.entries
    assert validate_transmissions(result.collector.entries) == \
        validate_trace_text(text)


def test_run_trace_views_are_refused(standard_result):
    # the checkers read receivers as tx[4:], which in a RunResult.trace
    # view holds its kind and receivers list
    with pytest.raises(TypeError, match="collector.entries"):
        validate_transmissions(standard_result.trace)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 11")
def test_hosts_sharing_a_group_name_form_one_group():
    # all six hosts name group 'G'; host[1] and host[4] each come to own one
    text = "numHosts = 6\n" + "".join(
        f'**.host[{i}].wlan[0].mgmt.strGroup = "G"\n' for i in range(6))
    result = Simulation(parse_config(text), seed=4 << 16).run()
    assert validate_history(result.history) == []


def _lines(result):
    return result.trace_text().splitlines()


def test_flags_removed_ack(standard_result):
    lines = _lines(standard_result)
    ack_id = next(line.split("\t")[0] for line in lines if line.endswith("\tACK"))
    mutated = "\n".join(line for line in lines
                        if not line.startswith(ack_id + "\t")) + "\n"
    violations = validate_trace_text(mutated)
    assert any(v.code == "ack-pairing" for v in violations)


def test_flags_duplicated_owner(standard_result):
    lines = _lines(standard_result)
    beacon = next(line for line in lines if line.endswith("\tBeacon"))
    owner = beacon.split("\t")[2].split(" --> ")[0]
    imposter = "host[9]" if owner != "host[9]" else "host[8]"
    forged = beacon.replace(owner + " --> ", imposter + " --> ")
    # forge a beacon from a second device under a fresh event id
    forged = "#999999" + forged[forged.index("\t"):]
    mutated = "\n".join(lines + [forged]) + "\n"
    violations = validate_trace_text(mutated)
    assert any(v.code == "single-go" for v in violations)


def test_flags_beacon_from_a_client_that_negotiated(standard_result):
    # the client sent a GO Negotiation frame before its forged beacon, so
    # only the Authentication it exchanged with the owner gives it away
    trace = standard_result.trace
    owner = next(tx.src for tx in trace if tx.kind is BEACON)
    client = next(tx.src for tx in trace
                  if tx.kind in GO_NEG_KINDS and tx.src != owner)
    first_auth = next(tx.event_id for tx in trace
                      if tx.kind is AUTH and tx.src == client)
    lines = _lines(standard_result)
    _id, _time, hop, name = next(line for line in lines
                                 if line.endswith("\tBeacon")).split("\t")
    forged = "\t".join(["#999999", lines[-1].split("\t")[1],
                        hop.replace(owner + " --> ", client + " --> "), name])
    violations = validate_trace_text("\n".join(lines + [forged]) + "\n")
    assert violations == [Violation(
        "single-go",
        f"beacon sources {client} and {owner} exchanged Authentication",
        first_auth)]


def test_flags_direct_client_to_client_data(standard_result):
    lines = _lines(standard_result)
    owner = next(line for line in lines if line.endswith("\tBeacon")) \
        .split("\t")[2].split(" --> ")[0]
    clients = [h for h in ("host[0]", "host[1]", "host[2]") if h != owner]
    last_time = lines[-1].split("\t")[1]
    forged = [
        f"#999998\t{last_time}\t{clients[0]} --> {clients[1]}\tping99",
        f"#999999\t{last_time}\t{clients[1]} --> {clients[0]}\tACK",
    ]
    mutated = "\n".join(lines + forged) + "\n"
    violations = validate_trace_text(mutated)
    assert any(v.code == "relay-rule" for v in violations)


def test_flags_data_before_any_beacon():
    violations = validate_trace_text(
        "#1\t1.000000000000\thost[1] --> host[0]\tping1\n"
        "#2\t1.000354000000\thost[0] --> host[1]\tACK\n")
    assert Violation("relay-rule", "data frame before any beacon source is known",
                     1) in violations


def test_flags_illegal_protocol_jump(standard_result):
    lines = _lines(standard_result)
    owner = next(line for line in lines if line.endswith("\tBeacon")) \
        .split("\t")[2].split(" --> ")[0]
    client = next(h for h in ("host[0]", "host[1]", "host[2]") if h != owner)
    last_time = lines[-1].split("\t")[1]
    # a client that already authenticated suddenly negotiates again
    forged = [
        f"#999998\t{last_time}\t{client} --> {owner}\tGO Negotiation Request Frame",
        f"#999999\t{last_time}\t{owner} --> {client}\tACK",
    ]
    mutated = "\n".join(lines + forged) + "\n"
    violations = validate_trace_text(mutated)
    assert any(v.code == "state-legality" for v in violations)


def test_flags_malformed_line():
    violations = validate_trace_text("once upon a time\n")
    assert violations and violations[0].code == "grammar"


@pytest.mark.parametrize("line", [
    "#١\t١.000000000000\thost[0] --> host[1]\tBeacon",
    "#1\t1.٠٠٠٠٠٠٠٠٠٠٠٠\thost[0] --> host[1]\tBeacon",
    "#１\t1.000000000000\thost[0] --> host[1]\tBeacon",
    "#1\t１.000000000000\thost[0] --> host[1]\tBeacon",
], ids=["arabic-indic", "arabic-indic-fraction", "fullwidth-id",
        "fullwidth-time"])
def test_flags_non_ascii_digits(line):
    # the writer gives ASCII digits only, though int() reads any decimal digit
    violations = validate_trace_text(line + "\n")
    assert len(violations) == 1 and violations[0].code == "grammar"
    assert violations[0].message.startswith("line 1: malformed trace line: ")


def test_flags_unknown_frame_name(standard_result):
    lines = _lines(standard_result)
    last_time = lines[-1].split("\t")[1]
    mutated = "\n".join(lines + [
        f"#999999\t{last_time}\thost[0] --> host[1]\tFlux Capacitor Frame",
    ]) + "\n"
    violations = validate_trace_text(mutated)
    assert any(v.code == "grammar" for v in violations)


def test_history_checker_flags_illegal_transition():
    history = History()
    history.transition(0, "host[0]", "Idle", "Scan")
    history.transition(10, "host[0]", "Scan", "GoOperating")  # no such edge
    violations = check_transition_legality(history)
    assert len(violations) == 1
    assert "Scan -> GoOperating" in violations[0].message


def test_history_checker_flags_duplicate_owner():
    history = History()
    history.go_established(0, "host[0]", "g")
    history.go_established(5, "host[1]", "g")
    assert check_single_go_history(history)


def test_history_checker_accepts_two_groups_with_distinct_names():
    history = History()
    history.go_established(0, "host[0]", "alpha")
    history.go_established(5, "host[1]", "beta")
    assert check_single_go_history(history) == []


def test_history_checker_flags_wrong_winner():
    history = History()
    history.negotiation(0, "host[0]", 3, "host[1]", 9, winner="host[0]")
    assert check_intent_argmax(history)
    history2 = History()
    history2.negotiation(0, "host[0]", 3, "host[1]", 9, winner="host[1]")
    assert check_intent_argmax(history2) == []


# -- per-row reference: the oracle for the per-transmission fast paths --------


# the oracle's own copy of the line format, kept apart from the parser's
_REFERENCE_LINE_RE = re.compile(
    r"^#(?P<id>[0-9]+)\t(?P<time>[0-9]+\.[0-9]{11,})\t(?P<src>\S+) --> (?P<dst>\S+)"
    r"\t(?P<name>.+)$")


def _reference_parse(text):
    """Parse every row on its own: one regex match, ``int`` and ``Decimal``
    conversion per row, nothing carried over from the previous row."""
    records = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        m = _REFERENCE_LINE_RE.match(line)
        if m is None:
            raise ValueError(f"line {lineno}: malformed trace line: {line!r}")
        stamp = m.group("time")
        dec = Decimal(stamp) * PS_PER_SECOND
        if dec != dec.to_integral_value():
            raise ValueError(
                f"line {lineno}: timestamp {stamp!r} finer than a picosecond")
        records.append(TraceRecord(int(m.group("id")), int(dec), m.group("src"),
                                   m.group("dst"), m.group("name")))
    return records


_REFERENCE_KINDS = {name: kind for kind, name in FRAME_NAMES.items()}
_PING_TAG_RE = re.compile(r"[A-Za-z]+[0-9]+(-reply)?")


def _reference_kind(name):
    """A frame name's kind: the inverse of ``FRAME_NAMES``, and DATA for a
    ping payload tag; any other name is refused."""
    kind = _REFERENCE_KINDS.get(name)
    if kind is None and _PING_TAG_RE.fullmatch(name):
        kind = FrameKind.DATA
    if kind is None:
        raise ValueError(f"unknown frame name {name!r}")
    return kind


def _reference_group(records):
    """Group rows into transmissions, as entries, looking up every row's
    kind and id."""
    violations = []
    transmissions = []
    by_id = {}
    last_key = None
    for record in records:
        key = (record.time, record.event_id)
        if last_key is not None and key < last_key:
            violations.append(Violation(
                "ordering", "row out of (time, id) order", record.event_id))
        last_key = key
        try:
            kind = _reference_kind(record.frame_name)
        except ValueError as exc:
            violations.append(Violation("grammar", str(exc), record.event_id))
            continue
        tx = by_id.get(record.event_id)
        if tx is None:
            tx = Transmission(record.event_id, record.time, record.src,
                              record.frame_name, kind, [record.dst])
            by_id[record.event_id] = tx
            transmissions.append(tx)
        else:
            if (tx.time, tx.src, tx.frame_name) != \
                    (record.time, record.src, record.frame_name):
                violations.append(Violation(
                    "ordering",
                    f"event id {record.event_id} reused with different content",
                    record.event_id))
            tx.receivers.append(record.dst)
    return [(*tx[:4], *tx.receivers) for tx in transmissions], violations


def _views(entries):
    """Entries as Transmissions, for the references to read by field name."""
    return [Transmission(event_id, time, src, name, _reference_kind(name),
                         receivers)
            for event_id, time, src, name, *receivers in entries]


def _reference_ack_pairing(transmissions, params=MediumParams()):
    """The delay rule by brute force: each frame scans its sender's frames
    for the next one, each ACK scans every frame for those it can answer,
    and each unanswered frame walks back over its copies.  Returns
    ``check_ack_pairing``'s violations and pairing."""
    transmissions = _views(transmissions)
    delay = params.ack_turnaround + params.frame_airtime
    unicast = [tx for tx in transmissions if tx.kind in UNICAST_KINDS]

    def sent_by(frame, frames):
        return [tx for tx in frames if tx.src == frame.src]

    def resent(frame):
        later = sent_by(frame, unicast[unicast.index(frame) + 1:])
        return bool(later) and later[0].frame_name == frame.frame_name \
            and later[0].time - frame.time == params.ack_timeout

    violations = []
    pairing = {}
    for ack in transmissions:
        if ack.kind is not ACK:
            continue
        answerable = [tx for tx in unicast
                      if tx.time == ack.time - delay and ack.src in tx.receivers
                      and tx.event_id not in pairing]
        if not answerable:
            violations.append(Violation(
                "ack-pairing",
                f"ACK from {ack.src} matches no outstanding frame", ack.event_id))
            continue
        # a stable sort: the first not resent, else the first
        pairing[sorted(answerable, key=resent)[0].event_id] = ack.src
    for frame in unicast:
        later = sent_by(frame, unicast[unicast.index(frame) + 1:])
        if frame.event_id in pairing or not later \
                or (later[0].frame_name == frame.frame_name
                    and later[0].time - frame.time >= params.ack_timeout):
            continue
        earlier = sent_by(frame, unicast[:unicast.index(frame)])
        copies = 1
        while copies <= len(earlier) and resent(earlier[-copies]):
            copies += 1
        if copies < 1 + params.max_retries:
            violations.append(Violation(
                "ack-pairing",
                f"frame #{frame.event_id} ({frame.frame_name}) from {frame.src} "
                f"neither acknowledged nor resent", frame.event_id))
    violations.sort(key=lambda v: v.event_id)
    return violations, pairing


def _reference_emission_order(transmissions):
    """The emission-order rules as one set per sender and past kind and one
    branch per kind.  Returns ``check_emission_order``'s violations."""
    transmissions = _views(transmissions)
    violations = []
    sent_pd_request = set()
    sent_pd_response = set()
    sent_auth = set()
    sent_data = set()
    sent_goneg = set()
    beaconed = set()
    for tx in transmissions:
        src = tx.src
        if tx.kind in GO_NEG_KINDS:
            if src in beaconed or src in sent_auth or src in sent_data:
                violations.append(Violation(
                    "state-legality",
                    f"{src} sent {tx.frame_name} after provisioning or operating "
                    f"as owner", tx.event_id))
            sent_goneg.add(src)
        elif tx.kind is PROVISION_DISCOVERY_REQUEST:
            if src in beaconed or src in sent_data:
                violations.append(Violation(
                    "state-legality",
                    f"{src} sent {tx.frame_name} while operating or associated",
                    tx.event_id))
            sent_pd_request.add(src)
        elif tx.kind is PROVISION_DISCOVERY_RESPONSE:
            sent_pd_response.add(src)
        elif tx.kind is AUTH:
            if src not in sent_goneg and src not in sent_pd_request \
                    and src not in sent_pd_response and src not in beaconed:
                violations.append(Violation(
                    "state-legality",
                    f"{src} sent Authentication without negotiating or joining",
                    tx.event_id))
            sent_auth.add(src)
        elif tx.kind is DATA:
            if src not in beaconed and src not in sent_auth:
                violations.append(Violation(
                    "state-legality",
                    f"{src} sent data without associating", tx.event_id))
            sent_data.add(src)
        elif tx.kind is BEACON:
            if src in sent_pd_request:
                violations.append(Violation(
                    "state-legality",
                    f"{src} beacons after joining as client", tx.event_id))
            beaconed.add(src)
    return violations


@functools.lru_cache(maxsize=16)
def _real_trace_lines(hosts, loss, seed):
    config = parse_config(f"**.medium.lossProbability = {loss}\n",
                          host_count=hosts)
    sim = Simulation(config, seed=seed)
    sim.run(until=seconds(5))
    return tuple(sim.trace.text().splitlines())


CORRUPTIONS = ("drop", "duplicate", "swap", "time", "sender", "name",
               "blank", "malformed", "fine-time", "crlf", "no-final-newline",
               "separator", "id-text", "stamp-length")

# str.splitlines separators other than "\n" and "\r"
SEPARATORS = ["\x0b", "\x1c", "\u2028"]

ODD_NAMES = sorted(FRAME_NAMES.values()) + ["ping7", "ping7-reply",
                                             "Flux Capacitor Frame"]

MALFORMED = ["#1 0.5 host[0] -> host[1] Beacon", "once upon a time",
             "#12\t0.5\thost[0] --> host[1]\tBeacon",
             "#x\t1.000000000000\thost[0] --> host[1]\tBeacon"]


def _fields(line):
    head, stamp, route, name = line.split("\t")
    src, dst = route.split(" --> ")
    return head, stamp, src, dst, name


def _join(head, stamp, src, dst, name):
    return f"{head}\t{stamp}\t{src} --> {dst}\t{name}"


def _corrupt(lines, corruption, data):
    lines = list(lines)
    i = data.draw(st.integers(0, len(lines) - 1), label="row")
    head, stamp, src, dst, name = _fields(lines[i])
    if corruption == "drop":
        del lines[i]
    elif corruption == "duplicate":
        lines.insert(i, lines[i])
    elif corruption == "swap" and i + 1 < len(lines):
        lines[i], lines[i + 1] = lines[i + 1], lines[i]
    elif corruption == "time":
        stamp = data.draw(st.one_of(
            st.sampled_from([_fields(line)[1] for line in lines]),
            st.integers(0, 6 * PS_PER_SECOND).map(format_time)), label="time")
        lines[i] = _join(head, stamp, src, dst, name)
    elif corruption == "sender":
        src = data.draw(st.sampled_from(
            sorted({_fields(line)[2] for line in lines}) + ["host[99]"]),
            label="sender")
        lines[i] = _join(head, stamp, src, dst, name)
    elif corruption == "name":
        name = data.draw(st.sampled_from(ODD_NAMES), label="name")
        lines[i] = _join(head, stamp, src, dst, name)
    elif corruption == "blank":
        lines.insert(i, data.draw(st.sampled_from(["", "  ", "\t"]), label="blank"))
    elif corruption == "malformed":
        lines.insert(i, data.draw(st.one_of(st.sampled_from(MALFORMED),
                                            st.text(max_size=20)),
                                  label="malformed"))
    elif corruption == "fine-time":
        # 1-9 is finer than a picosecond; 0 is the same time in other text
        digit = data.draw(st.integers(0, 9), label="13th digit")
        lines[i] = _join(head, f"{stamp}{digit}", src, dst, name)
    elif corruption == "crlf":
        return "\r\n".join(lines) + "\r\n"
    elif corruption == "no-final-newline":
        return "\n".join(lines)
    elif corruption == "separator":
        at = data.draw(st.integers(0, len(lines[i])), label="at")
        separator = data.draw(st.sampled_from(SEPARATORS), label="separator")
        lines[i] = lines[i][:at] + separator + lines[i][at:]
    elif corruption == "id-text":
        # the same event id in other text
        lines[i] = _join("#0" + head[1:], stamp, src, dst, name)
    elif corruption == "stamp-length":
        # the same time in the other lengths the grammar accepts: 11
        # fractional digits when the 12th is 0, or 13-15 padded with zeros
        whole, frac = stamp.split(".")
        digits = data.draw(st.sampled_from(
            [11, 13, 14, 15] if frac.endswith("0") else [13, 14, 15]),
            label="fractional digits")
        lines[i] = _join(head, f"{whole}.{frac[:digits].ljust(digits, '0')}",
                         src, dst, name)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("corruption", CORRUPTIONS)
@settings(max_examples=5, deadline=None, database=None, derandomize=True)
@given(hosts=st.integers(2, 20), loss=st.sampled_from([0.0, 0.05, 0.2]),
       seed=st.integers(0, 2), data=st.data())
def test_fast_paths_agree_with_per_row_reference(corruption, hosts, loss, seed,
                                                 data):
    text = _corrupt(_real_trace_lines(hosts, loss, seed), corruption, data)
    try:
        expected_records = _reference_parse(text)
    except ValueError as exc:
        event("parse error")
        with pytest.raises(ValueError) as raised:
            parse_trace_text(text)
        assert str(raised.value) == str(exc)
        expected = [Violation("grammar", str(exc))]
    else:
        runs = parse_trace_text(text)
        assert rows(runs) == expected_records
        transmissions, expected = _reference_group(expected_records)
        grouped, grouping_violations = group_transmissions(runs)
        assert (grouped, grouping_violations) == (transmissions, expected)
        pairing_violations, pairing = _reference_ack_pairing(transmissions)
        assert check_ack_pairing(grouped) == (pairing_violations, pairing)
        expected += pairing_violations
        expected += check_single_go(transmissions, pairing)
        expected += check_relay_rule(transmissions, pairing)
        emission_violations = _reference_emission_order(transmissions)
        assert check_emission_order(grouped) == emission_violations
        expected += emission_violations
    assert [str(v) for v in validate_trace_text(text)] == \
        [str(v) for v in expected]


def _reference_violations(text):
    """``validate_trace_text``'s result by the per-row references."""
    transmissions, violations = _reference_group(_reference_parse(text))
    pairing_violations, pairing = _reference_ack_pairing(transmissions)
    return (violations + pairing_violations
            + check_single_go(transmissions, pairing)
            + check_relay_rule(transmissions, pairing)
            + _reference_emission_order(transmissions))


@pytest.mark.parametrize("split, name", [
    ("listed-then-counted", "Beacon"),
    ("listed-then-counted", "ACK"),
    ("counted-then-listed", "Beacon"),
    ("counted-then-listed", "ACK"),
    ("unknown-reuses-listed", "Flux Capacitor Frame"),
])
def test_runs_of_one_event_id_merge_across_listed_and_counted_kinds(
        standard_result, split, name):
    # validate_trace_text lists the receivers of unicast non-ACK runs only;
    # renaming some lines of one such frame splits its lines into runs of
    # one event id, some listed and some counted
    trace = standard_result.trace
    _violations, pairing = check_ack_pairing(standard_result.collector.entries)
    frame = next(tx for tx in trace if tx.kind in UNICAST_KINDS
                 and pairing.get(tx.event_id) in tx.receivers[1:])
    head = f"#{frame.event_id}\t"
    addressee = f" --> {pairing[frame.event_id]}\t"
    lines = _lines(standard_result)
    for i, line in enumerate(lines):
        # the addressee's line comes after another, so renaming it leaves a
        # listed run first; renaming every other line leaves it second
        if line.startswith(head) and \
                (addressee in line) != (split == "counted-then-listed"):
            lines[i] = line[:line.rindex("\t") + 1] + name
    text = "\n".join(lines) + "\n"
    assert len([run for run in parse_trace_text(text)
                if run[0] == frame.event_id]) == 2
    assert validate_trace_text(text) == _reference_violations(text)


@pytest.mark.parametrize("run", ["standard", "relay", "dense"])
def test_checkers_never_read_receivers_of_broadcast_or_ack_frames(
        standard_result, run):
    # validate_trace_text ends these frames' runs at their names
    if run == "standard":
        result = standard_result
    elif run == "relay":
        result = Simulation(relay_config(0.0), seed=1).run(until=seconds(20))
    else:
        result = Simulation(default_scenario(30), seed=1 << 16).run()
    trace, entries = result.trace, result.collector.entries
    cut = [entry if tx.kind in UNICAST_KINDS else entry[:4]
           for tx, entry in zip(trace, entries)]
    assert any(tx.kind is ACK for tx in trace) and any(
        tx.kind is BEACON for tx in trace)
    assert validate_transmissions(cut) == validate_transmissions(entries)


def test_crlf_trace_gives_the_violations_of_its_lf_form():
    # criterion 8's forged client-to-client data frame and its ACK break
    # some checker
    lines = _real_trace_lines(20, 0.2, 1)
    owners = {line.split("\t")[2].split(" --> ")[0] for line in lines
              if line.endswith("\tBeacon")}
    clients = [f"host[{i}]" for i in range(20) if f"host[{i}]" not in owners]
    last_time = lines[-1].split("\t")[1]
    text = "\n".join(lines + (
        f"#999998\t{last_time}\t{clients[0]} --> {clients[1]}\tping99",
        f"#999999\t{last_time}\t{clients[1]} --> {clients[0]}\tACK")) + "\n"
    violations = [str(v) for v in validate_trace_text(text)]
    assert violations, "the forged frames should break some checker"
    crlf = text.replace("\n", "\r\n")
    assert [str(v) for v in validate_trace_text(crlf)] == violations


BEACON_AT_1S = "#5\t1.000000000000\thost[0] --> host[1]\tBeacon"


def test_repeated_id_with_new_time_is_an_ordering_violation():
    text = BEACON_AT_1S + "\n#5\t2.000000000000\thost[0] --> host[2]\tBeacon\n"
    assert [r.time for r in rows(parse_trace_text(text))] == [
        PS_PER_SECOND, 2 * PS_PER_SECOND]
    assert [str(v) for v in validate_trace_text(text)] == [
        "ordering: event id 5 reused with different content (event #5)"]


def test_repeated_id_and_time_with_new_name_is_reuse():
    text = BEACON_AT_1S + "\n#5\t1.000000000000\thost[0] --> host[2]\tProbe Request\n"
    assert [str(v) for v in validate_trace_text(text)] == [
        "ordering: event id 5 reused with different content (event #5)"]


def test_unknown_name_inside_a_transmission_is_one_grammar_violation():
    records = parse_trace_text(
        BEACON_AT_1S + "\n"
        "#5\t1.000000000000\thost[0] --> host[2]\tFlux Capacitor Frame\n"
        "#5\t1.000000000000\thost[0] --> host[3]\tBeacon\n")
    transmissions, violations = group_transmissions(records)
    assert [str(v) for v in violations] == [
        "grammar: unknown frame name 'Flux Capacitor Frame' (event #5)"]
    assert [tx[4:] for tx in transmissions] == [("host[1]", "host[3]")]


def test_malformed_line_after_a_transmission_names_its_own_line():
    text = (BEACON_AT_1S + "\n"
            "#5\t1.000000000000\thost[0] --> host[2]\tBeacon\n"
            "#5\t1.000000000000\thost[0] --> host[3]\tBeacon\n"
            "#5\t1.000000000000\thost[0] -> host[4]\tBeacon\n")
    with pytest.raises(ValueError, match=r"^line 4: malformed trace line: "):
        parse_trace_text(text)
    violations = validate_trace_text(text)
    assert len(violations) == 1 and violations[0].code == "grammar"
    assert violations[0].message.startswith("line 4: ")


def test_line_numbers_count_every_line_separator():
    # "\r", "\x1c", "\r\n" and "\u2028" each end one line, as in str.splitlines
    text = (BEACON_AT_1S + "\r" + BEACON_AT_1S + "\x1c\r\n\u2028"
            "#5\t1.0000000000001\thost[0] --> host[2]\tBeacon\n")
    with pytest.raises(ValueError, match=r"^line 5: timestamp "):
        _reference_parse(text)
    with pytest.raises(ValueError, match=r"^line 5: timestamp "):
        parse_trace_text(text)


def test_parse_time_reads_only_the_trace_grammar():
    assert parse_time("6.40348094346") == 6_403_480_943_460
    assert parse_time("6.403480943460000") == 6_403_480_943_460
    with pytest.raises(ValueError, match="finer than a picosecond"):
        parse_time("6.4034809434601")
    for text in ("6", "6.", ".4", "-6.4", "6.4e3", " 6.4", "6_0.4", "١.5"):
        with pytest.raises(ValueError, match="unparsable timestamp"):
            parse_time(text)


def _grouped(text):
    """The transmissions of *text*, which must group cleanly."""
    transmissions, violations = group_transmissions(parse_trace_text(text))
    assert violations == []
    return transmissions


def test_ack_pairs_with_a_frame_heard_one_reply_delay_earlier():
    # host[1] heard two frames at 1 s and answers one a reply delay (40 us +
    # 314 us) later: not host[0]'s, which is resent 2 ms later, but
    # host[2]'s; an ACK at any other time answers none
    transmissions = _grouped(
        "#1\t1.000000000000\thost[0] --> host[1]\tAuthentication\n"
        "#2\t1.000000000000\thost[2] --> host[1]\tAuthentication\n"
        "#3\t1.000000000000\thost[1] --> host[0]\tACK\n"
        "#4\t1.000354000000\thost[1] --> host[0]\tACK\n"
        "#5\t1.002000000000\thost[0] --> host[1]\tAuthentication\n")
    expected = ([Violation("ack-pairing",
                           "ACK from host[1] matches no outstanding frame", 3)],
                {2: "host[1]"})
    assert check_ack_pairing(transmissions) == expected
    assert _reference_ack_pairing(transmissions) == expected


def test_ack_delay_comes_from_the_medium_parameters():
    transmissions = _grouped(
        "#1\t1.000000000000\thost[0] --> host[1]\tAuthentication\n"
        "#2\t1.000374000000\thost[1] --> host[0]\tACK\n")
    params = MediumParams(ack_turnaround=60_000_000)
    assert check_ack_pairing(transmissions, params) == ([], {1: "host[1]"})
    assert [v.event_id for v in check_ack_pairing(transmissions)[0]] == [2]


@pytest.mark.parametrize("frames, flagged", [
    # neither answered nor resent before a frame of another name
    ([(0, "Authentication"), (5, "Provision Request")], [1]),
    # the same name sooner than one ACK timeout later is no copy
    ([(0, "Authentication"), (1, "Authentication"), (5, "Provision Request")],
     [1, 2]),
    # resent, and then the last frame of the trace
    ([(0, "Authentication"), (2, "Authentication")], []),
    # a frame of its name later still: no one heard the copies between
    ([(0, "Authentication"), (9, "Authentication")], []),
    # a failed exchange: 1 + maxRetries copies, none answered
    ([(0, "Authentication"), (2, "Authentication"), (4, "Authentication"),
      (6, "Authentication"), (9, "Provision Request")], []),
    ([(0, "Authentication"), (2, "Authentication"), (4, "Authentication"),
      (9, "Provision Request")], [3]),
], ids=["not-resent", "too-soon", "resent", "copies-unheard",
        "failed-exchange", "exchange-cut-short"])
def test_unanswered_frame_must_be_resent(frames, flagged):
    # one frame from host[0] at each time in ms, and no ACK
    transmissions = _grouped("".join(
        f"#{i}\t1.{ms:03d}000000000\thost[0] --> host[1]\t{name}\n"
        for i, (ms, name) in enumerate(frames, 1)))
    violations, pairing = check_ack_pairing(transmissions)
    assert [v.event_id for v in violations] == flagged and pairing == {}
    assert _reference_ack_pairing(transmissions) == (violations, pairing)
    # with no retries every exchange ends after its first copy
    assert check_ack_pairing(transmissions, MediumParams(max_retries=0)) == ([], {})


@pytest.mark.parametrize("heard_by, flagged", [
    ("host[0]", False), ("host[2]", True)])
def test_unanswered_data_frame_must_reach_an_owner(heard_by, flagged):
    transmissions = _grouped(
        "#1\t1.000000000000\thost[0] --> host[1]\tBeacon\n"
        f"#2\t2.000000000000\thost[1] --> {heard_by}\tping1\n")
    _violations, pairing = check_ack_pairing(transmissions)
    assert pairing == {}
    assert bool(check_relay_rule(transmissions, pairing)) is flagged


def _emissions(*frames):
    """Transmissions of one frame per ``(sender, frame name)`` pair, each to
    host[9] at one second apart."""
    return _grouped("".join(f"#{i}\t{i}.000000000000\t{src} --> host[9]\t{name}\n"
                            for i, (src, name) in enumerate(frames, 1)))


GO_NEG_NAMES = sorted(kind.value for kind in GO_NEG_KINDS)


@pytest.mark.parametrize("frames, message", [
    *[([("host[0]", "Beacon"), ("host[0]", name)],
       f"host[0] sent {name} after provisioning or operating as owner")
      for name in GO_NEG_NAMES],
    ([("host[1]", "GO Negotiation Request Frame"), ("host[1]", "Authentication"),
      ("host[1]", "GO Negotiation Confirmation Frame")],
     "host[1] sent GO Negotiation Confirmation Frame after provisioning or "
     "operating as owner"),
    ([("host[0]", "Beacon"), ("host[0]", "Provision Request")],
     "host[0] sent Provision Request while operating or associated"),
    ([("host[1]", "Authentication")],
     "host[1] sent Authentication without negotiating or joining"),
    ([("host[1]", "Provision Request"), ("host[1]", "ping1")],
     "host[1] sent data without associating"),
    ([("host[1]", "Provision Request"), ("host[1]", "Beacon")],
     "host[1] beacons after joining as client"),
])
def test_emission_order_flags_each_rule_once(frames, message):
    transmissions = _emissions(*frames)
    expected = [Violation("state-legality", message, len(frames))]
    assert check_emission_order(transmissions) == expected
    assert _reference_emission_order(transmissions) == expected


@pytest.mark.parametrize("frames", [
    # a device whose counterpart was claimed by a third party abandons the
    # negotiation, finds the group that formed without it and joins it
    [("host[1]", "GO Negotiation Request Frame"), ("host[1]", "ACK"),
     ("host[1]", "Provision Request"), ("host[1]", "Authentication"),
     ("host[1]", "ping1")],
    # a persistent owner restored before its first beacon answers a client's
    # provision discovery and authenticates it
    [("host[0]", "Provision discovery Response"), ("host[0]", "Authentication"),
     ("host[0]", "Beacon"), ("host[0]", "ping1-reply")],
], ids=["pd-request-after-abandoned-negotiation",
        "owner-auth-after-pd-response"])
def test_emission_order_accepts_legal_sequences(frames):
    transmissions = _emissions(*frames)
    assert check_emission_order(transmissions) == []
    assert _reference_emission_order(transmissions) == []


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(st.lists(st.tuples(st.sampled_from(["host[0]", "host[1]", "host[2]"]),
                          st.sampled_from(ODD_NAMES[:-1])), max_size=12))
def test_emission_order_agrees_with_reference_on_any_sequence(frames):
    transmissions = _emissions(*frames)
    assert check_emission_order(transmissions) == \
        _reference_emission_order(transmissions)
