"""Protocol-shape checkers for traces and run histories.

Trace checkers work on the tab-separated trace and the run's medium
parameters and target lossless, single-group runs: acknowledgment pairing
by delay, a single beacon source, the two-hop relay rule for data frames,
and a per-device emission order that catches impossible protocol jumps.
The emission order is one rule table, :data:`EMISSION_RULES`, read for each
frame: the kinds its sender must not have sent before it, and those of
which it must have sent one.  The trace checkers read transmissions as the
collector stores them, entries ``(event_id, time, src, frame_name,
*receivers)``, and take each frame's kind from its name, so a run is
checked from its ``collector.entries`` directly, not ``RunResult.trace``.
The parser yields one entry per run of lines that differ only in the
receiver, listing the receivers only where a check reads them, and
:func:`group_transmissions` merges the runs of one transmission, checking
line order, frame names and event-id reuse on the way.  History checkers
additionally verify state-transition legality, the single-owner invariant
per group name and the intent-argmax rule for every completed negotiation.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from operator import attrgetter
from typing import Optional

from .history import History
from .medium import (
    ACK,
    ALL_KINDS,
    AUTH,
    BEACON,
    BROADCAST_KINDS,
    DATA,
    GO_NEG_KINDS,
    PROVISION_DISCOVERY_REQUEST,
    PROVISION_DISCOVERY_RESPONSE,
    FrameKind,
    MediumParams,
)
from .peer import LEGAL_TRANSITIONS
from .trace import kind_of, parse_trace_text

UNICAST_KINDS = ALL_KINDS - BROADCAST_KINDS - {ACK}

_NONE: frozenset[FrameKind] = frozenset()

#: The emission-order rules: per frame kind, the kinds its sender must not
#: have sent before it, the kinds of which it must have sent one (none when
#: empty) and the message, naming the sender ``{src}`` and the frame
#: ``{name}``.  ACK and probes have no row.
EMISSION_RULES: dict[FrameKind, tuple[frozenset, frozenset, str]] = {
    **dict.fromkeys(GO_NEG_KINDS, (frozenset({BEACON, AUTH, DATA}), _NONE,
        "{src} sent {name} after provisioning or operating as owner")),
    PROVISION_DISCOVERY_REQUEST: (frozenset({BEACON, DATA}), _NONE,
        "{src} sent {name} while operating or associated"),
    # unconstrained, but a prerequisite of Authentication: a persistent owner
    # restored before its first beacon authenticates after only a PD Response
    PROVISION_DISCOVERY_RESPONSE: (_NONE, _NONE, ""),
    AUTH: (_NONE, GO_NEG_KINDS | {PROVISION_DISCOVERY_REQUEST,
                                  PROVISION_DISCOVERY_RESPONSE, BEACON},
        "{src} sent Authentication without negotiating or joining"),
    DATA: (_NONE, frozenset({BEACON, AUTH}), "{src} sent data without associating"),
    BEACON: (frozenset({PROVISION_DISCOVERY_REQUEST}), _NONE,
        "{src} beacons after joining as client"),
}

# (old, new) state names of every legal transition, as the history logs them
_LEGAL_NAME_PAIRS = frozenset((old.value, new.value)
                               for old, new in LEGAL_TRANSITIONS)


@dataclass
class Violation:
    code: str
    message: str
    event_id: Optional[int] = None

    def __str__(self) -> str:
        where = f" (event #{self.event_id})" if self.event_id is not None else ""
        return f"{self.code}: {self.message}{where}"


def group_transmissions(runs: list[tuple]) -> tuple[list[tuple], list[Violation]]:
    """Merge parsed line runs, entries, into the transmissions they came
    from.

    The first run of an event id becomes its transmission, and every later
    run of that id adds its receivers, in line order.  Violations are
    counted per line, in line order: a run out of (time, id) order, a run
    with an unknown frame name (one per line, and the run is dropped) and a
    run reusing an event id with different content (one per line).  A run
    that :func:`parse_trace_text` ended at its name is of neither of the
    last two sorts; when it is a transmission's first run, the transmission
    lists only its later runs' receivers, of a kind no check reads them
    of."""
    violations: list[Violation] = []
    transmissions: list[tuple] = []
    index_of: dict[int, int] = {}  # event id -> its transmission's index
    # index -> the receivers of its later runs, added after the last run so
    # that many runs of one event id are not copied again at each
    later: defaultdict[int, list[str]] = defaultdict(list)
    last_time = last_id = -1  # no parsed time or id is negative
    for run in runs:
        event_id = run[0]
        time = run[1]
        if time <= last_time and (time < last_time or event_id < last_id):
            violations.append(Violation(
                "ordering", "row out of (time, id) order", event_id))
        last_time = time
        last_id = event_id
        name = run[3]
        if kind_of(name) is None:
            message = f"unknown frame name {name!r}"
            violations += [Violation("grammar", message, event_id)
                           for _ in range(len(run) - 4)]
            continue
        index = index_of.get(event_id)
        if index is None:
            index_of[event_id] = len(transmissions)
            transmissions.append(run)
            continue
        if transmissions[index][1:4] != run[1:4]:
            message = f"event id {event_id} reused with different content"
            violations += [Violation("ordering", message, event_id)
                           for _ in range(len(run) - 4)]
        later[index] += run[4:]
    for index, receivers in later.items():
        transmissions[index] += tuple(receivers)
    return transmissions, violations


def check_ack_pairing(transmissions: list[tuple],
                      params: Optional[MediumParams] = None
                      ) -> tuple[list[Violation], dict[int, str]]:
    """Pair each ACK with the frame it answers; flag an ACK that answers
    none and an unanswered frame that is not resent.

    A frame is resent when its sender's next unicast non-ACK frame has its
    name and follows it by ``ack_timeout``: the copies of one frame form
    such a chain.  An ACK from A delivered at time t answers a unicast
    non-ACK frame that A heard at t - (``ack_turnaround`` +
    ``frame_airtime``) and that no earlier ACK answered, the first of them
    not resent, else the first.  An unanswered frame (its addressee may
    have left the channel) must be followed, as its sender's next unicast
    non-ACK frame, by one of its name at least ``ack_timeout`` later (a
    copy, or a later frame when no one heard its copies), unless its chain
    has 1 + ``max_retries`` copies.  *params* are the run's medium
    parameters, which the trace does not carry; the defaults when absent.

    Returns the violations, by event id, and the pairing: each answered
    frame's event id maps to its ACK's sender."""
    medium = params or MediumParams()
    delay = medium.reply_delay
    max_copies = 1 + medium.max_retries
    timeout = medium.ack_timeout
    acks = []
    heard_at: defaultdict[int, list[tuple]] = defaultdict(list)  # by delivery time
    sent: defaultdict[str, list[tuple]] = defaultdict(list)  # by sender
    for tx in transmissions:
        kind = kind_of(tx[3])
        if kind is ACK:
            acks.append(tx)
        elif kind in UNICAST_KINDS:
            heard_at[tx[1]].append(tx)
            sent[tx[2]].append(tx)
    # event id -> delivery time, of every resent frame
    resent = {frame[0]: frame[1] for frames in sent.values()
              for frame, following in zip(frames, frames[1:])
              if following[3] == frame[3]
              and following[1] - frame[1] == timeout}
    for time in set(resent.values()):
        heard_at[time].sort(key=lambda frame: frame[0] in resent)
    violations: list[Violation] = []
    pairing: dict[int, str] = {}
    for ack in acks:
        src = ack[2]
        for frame in heard_at.get(ack[1] - delay, ()):
            if src in frame[4:]:
                break
        else:
            violations.append(Violation(
                "ack-pairing",
                f"ACK from {src} matches no outstanding frame", ack[0]))
            continue
        heard_at[frame[1]].remove(frame)
        pairing[frame[0]] = src
    for frames in sent.values():
        copies = 0  # of this frame, so far
        for frame, following in zip(frames, frames[1:]):
            copies += 1
            if frame[0] in resent:
                continue
            if copies < max_copies and frame[0] not in pairing and (
                    following[3] != frame[3] or following[1] - frame[1] < timeout):
                violations.append(Violation(
                    "ack-pairing",
                    f"frame #{frame[0]} ({frame[3]}) from {frame[2]} neither "
                    f"acknowledged nor resent", frame[0]))
            copies = 0
    violations.sort(key=attrgetter("event_id"))
    return violations, pairing


def check_single_go(transmissions: list[tuple]) -> list[Violation]:
    """A single-group trace must have exactly one beacon source."""
    sources = []
    for tx in transmissions:
        if kind_of(tx[3]) is BEACON and tx[2] not in sources:
            sources.append(tx[2])
    if len(sources) > 1:
        return [Violation("single-go",
                          f"multiple beacon sources: {', '.join(sources)}")]
    return []


def check_relay_rule(transmissions: list[tuple],
                     pairing: dict[int, str]) -> list[Violation]:
    """Data frames travel to or from the group owner, never client to client
    in one hop.  A data frame's hop destination is the sender of the ACK
    that *pairing*, as :func:`check_ack_pairing` returns it, gives it; a
    frame absent from *pairing* is flagged when no beacon source heard it."""
    violations = []
    by_kind = defaultdict(list)
    for tx in transmissions:
        by_kind[kind_of(tx[3])].append(tx)
    beacon_sources = {tx[2] for tx in by_kind[BEACON]}
    for tx in by_kind[DATA]:
        event_id, src = tx[0], tx[2]
        if not beacon_sources:
            violations.append(Violation(
                "relay-rule", "data frame before any beacon source is known",
                event_id))
            continue
        if src in beacon_sources:
            continue
        hop_dst = pairing.get(event_id)
        if hop_dst is None:
            bypassed = beacon_sources.isdisjoint(tx[4:])
        else:
            bypassed = hop_dst not in beacon_sources
        if bypassed:
            violations.append(Violation(
                "relay-rule",
                f"data frame from {src} delivered to "
                f"{hop_dst or 'no acknowledged destination'}, "
                f"bypassing the group owner", event_id))
    return violations


def check_emission_order(transmissions: list[tuple]) -> list[Violation]:
    """Flag frame emissions impossible for any legal peer state sequence in a
    lossless run: each frame of a kind in :data:`EMISSION_RULES` is judged
    by its row against the kinds its sender sent before it.

    A provision-discovery request after an abandoned negotiation is legal:
    a device whose counterpart was claimed by a third party falls back to
    find and joins the group that formed without it.
    """
    violations = []
    sent: defaultdict[str, set[FrameKind]] = defaultdict(set)
    for tx in transmissions:
        kind = kind_of(tx[3])
        rule = EMISSION_RULES.get(kind)
        if rule is None:
            continue
        kinds = sent[tx[2]]
        not_after, needs_one_of, message = rule
        if not kinds.isdisjoint(not_after) \
                or (needs_one_of and kinds.isdisjoint(needs_one_of)):
            violations.append(Violation(
                "state-legality", message.format(src=tx[2], name=tx[3]),
                tx[0]))
        kinds.add(kind)
    return violations


def validate_transmissions(transmissions: list[tuple],
                           params: Optional[MediumParams] = None) -> list[Violation]:
    """Run every trace checker on entries such as ``collector.entries``.  A
    ``RunResult.trace`` view, whose ``tx[4:]`` is no receivers, is refused."""
    if transmissions and isinstance(transmissions[0][-1], list):
        raise TypeError("validate_transmissions reads entries such as "
                        "RunResult.collector.entries, not RunResult.trace")
    violations, pairing = check_ack_pairing(transmissions, params)
    violations.extend(check_single_go(transmissions))
    violations.extend(check_relay_rule(transmissions, pairing))
    violations.extend(check_emission_order(transmissions))
    return violations


def validate_trace_text(text: str,
                        params: Optional[MediumParams] = None) -> list[Violation]:
    """Replay a trace document through every trace-level checker, with the
    run's medium parameters *params* (the defaults when absent).

    Only the runs of unicast non-ACK frames, whose receivers
    :func:`check_ack_pairing` and :func:`check_relay_rule` read, and those
    whose lines :func:`group_transmissions` counts are parsed with their
    receivers listed; every other run ends at its frame name."""
    try:
        runs = parse_trace_text(text, receivers_of=UNICAST_KINDS)
    except ValueError as exc:
        return [Violation("grammar", str(exc))]
    transmissions, violations = group_transmissions(runs)
    violations.extend(validate_transmissions(transmissions, params))
    return violations


# -- history-based checkers ---------------------------------------------------


def check_transition_legality(history: History) -> list[Violation]:
    violations = []
    for tr in history.transitions:
        if (tr.old, tr.new) not in _LEGAL_NAME_PAIRS:
            violations.append(Violation(
                "state-legality",
                f"{tr.host} made illegal transition {tr.old} -> {tr.new}"))
    return violations


def check_single_go_history(history: History) -> list[Violation]:
    """At most one owner may ever hold a given group name (owners never
    resign within a run)."""
    violations = []
    owners: dict[str, str] = {}
    for _time, host, ssid in history.go_events:
        if ssid in owners and owners[ssid] != host:
            violations.append(Violation(
                "single-go",
                f"group {ssid!r} owned by both {owners[ssid]} and {host}"))
        owners[ssid] = host
    return violations


def check_intent_argmax(history: History) -> list[Violation]:
    violations = []
    for neg in history.negotiations:
        expected = _argmax_owner(
            (neg.initiator_intent, neg.initiator),
            (neg.responder_intent, neg.responder))
        if neg.winner != expected:
            violations.append(Violation(
                "intent-argmax",
                f"negotiation between {neg.initiator} ({neg.initiator_intent}) "
                f"and {neg.responder} ({neg.responder_intent}) elected "
                f"{neg.winner}, expected {expected}"))
    return violations


def _argmax_owner(a: tuple[int, str], b: tuple[int, str]) -> str:
    # independent restatement of the role rule: maximise (intent, -address)
    ranked = sorted([a, b], key=lambda item: (-item[0], item[1]))
    return ranked[0][1]


def validate_history(history: History) -> list[Violation]:
    violations = []
    violations.extend(check_transition_legality(history))
    violations.extend(check_single_go_history(history))
    violations.extend(check_intent_argmax(history))
    return violations
