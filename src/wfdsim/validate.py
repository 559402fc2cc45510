"""Protocol-shape checkers for traces and run histories.

Trace checkers work on the tab-separated trace alone and target lossless,
single-group runs: acknowledgment pairing, a single beacon source, the
two-hop relay rule for data frames, and a per-device emission order that
catches impossible protocol jumps.  The emission order is one rule table,
:data:`EMISSION_RULES`, read for each frame: the kinds its sender must not
have sent before it, and those of which it must have sent one.  The trace
checkers run on transmissions: the parser yields one per run of lines that
differ only in the receiver, and :func:`group_transmissions` merges the
runs of one transmission, checking line order, frame names and event-id
reuse on the way.  History checkers additionally verify state-transition
legality, the single-owner invariant per group name and the intent-argmax
rule for every completed negotiation.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
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
)
from .peer import LEGAL_TRANSITIONS
from .trace import Transmission, parse_trace_text

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


def group_transmissions(runs: list[Transmission]) -> tuple[list[Transmission], list[Violation]]:
    """Merge parsed line runs into the transmissions they came from.

    Runs whose event id, time, sender and frame name are equal in value are
    one transmission: the first becomes it and later ones add their
    receivers, so the runs are consumed.  Violations are counted per line,
    in line order: a run out of (time, id) order, a run with an unknown
    frame name (one per line, and the run is dropped) and a run reusing an
    event id with different content (one per line)."""
    violations: list[Violation] = []
    transmissions: list[Transmission] = []
    by_id: dict[int, Transmission] = {}
    last_key = None
    for run in runs:
        event_id = run.event_id
        key = (run.time, event_id)
        if last_key is not None and key < last_key:
            violations.append(Violation(
                "ordering", "row out of (time, id) order", event_id))
        last_key = key
        if run.kind is None:
            message = f"unknown frame name {run.frame_name!r}"
            violations += [Violation("grammar", message, event_id)
                           for _ in run.receivers]
            continue
        tx = by_id.get(event_id)
        if tx is None:
            by_id[event_id] = run
            transmissions.append(run)
            continue
        if (tx.time, tx.src, tx.frame_name) != (run.time, run.src, run.frame_name):
            message = f"event id {event_id} reused with different content"
            violations += [Violation("ordering", message, event_id)
                           for _ in run.receivers]
        tx.receivers += run.receivers
    return transmissions, violations


def check_ack_pairing(transmissions: list[Transmission]
                      ) -> tuple[list[Violation], dict[int, Optional[str]]]:
    """Every unicast non-ACK frame must be answered by exactly one ACK from
    its destination before its sender's next unicast non-ACK frame.

    Broadcast frames are timer-driven and unacknowledged, so they do not
    close a pending window.  Windows still open at the end of the trace are
    tolerated (the run's horizon may cut an exchange short).

    Returns the violations and the pairing found: for each closed window,
    its frame's event id maps to the ACK's sender, or to ``None`` when the
    sender's next frame closed it.  A frame whose window was still open when
    the trace ended is absent.
    """
    violations: list[Violation] = []
    pairing: dict[int, Optional[str]] = {}
    open_frame: dict[str, Transmission] = {}
    for tx in transmissions:
        if tx.kind is ACK:
            # of the open frames the ACK's sender received and whose sender
            # heard the ACK, the one of lowest event id (the first on a tie)
            src, heard = tx.src, tx.receivers
            paired = None
            for pending in open_frame.values():
                if (paired is None or pending.event_id < paired.event_id) \
                        and src in pending.receivers and pending.src in heard:
                    paired = pending
            if paired is None:
                violations.append(Violation(
                    "ack-pairing",
                    f"ACK from {tx.src} matches no outstanding frame", tx.event_id))
                continue
            pairing[paired.event_id] = src
            del open_frame[paired.src]
        elif tx.kind in UNICAST_KINDS:
            stale = open_frame.get(tx.src)
            if stale is not None:
                violations.append(Violation(
                    "ack-pairing",
                    f"frame #{stale.event_id} ({stale.frame_name}) from {stale.src} "
                    f"not acknowledged before its next frame", stale.event_id))
                pairing[stale.event_id] = None
            open_frame[tx.src] = tx
    return violations, pairing


def check_single_go(transmissions: list[Transmission]) -> list[Violation]:
    """A single-group trace must have exactly one beacon source."""
    sources = []
    for tx in transmissions:
        if tx.kind is BEACON and tx.src not in sources:
            sources.append(tx.src)
    if len(sources) > 1:
        return [Violation("single-go",
                          f"multiple beacon sources: {', '.join(sources)}")]
    return []


def check_relay_rule(transmissions: list[Transmission],
                     pairing: dict[int, Optional[str]]) -> list[Violation]:
    """Data frames travel to or from the group owner, never client to client
    in one hop.  A data frame's hop destination is the sender of the ACK
    that *pairing*, as :func:`check_ack_pairing` returns it, gives it; a
    frame absent from *pairing* was cut short by the trace's end and is not
    judged."""
    violations = []
    beacon_sources = {tx.src for tx in transmissions if tx.kind is BEACON}
    for tx in transmissions:
        if tx.kind is not DATA:
            continue
        if not beacon_sources:
            violations.append(Violation(
                "relay-rule", "data frame before any beacon source is known",
                tx.event_id))
            continue
        if tx.src in beacon_sources or tx.event_id not in pairing:
            continue
        hop_dst = pairing[tx.event_id]
        if hop_dst is None or hop_dst not in beacon_sources:
            violations.append(Violation(
                "relay-rule",
                f"data frame from {tx.src} delivered to "
                f"{hop_dst or 'no acknowledged destination'}, "
                f"bypassing the group owner", tx.event_id))
    return violations


def check_emission_order(transmissions: list[Transmission]) -> list[Violation]:
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
        rule = EMISSION_RULES.get(tx.kind)
        if rule is None:
            continue
        kinds = sent[tx.src]
        not_after, needs_one_of, message = rule
        if not kinds.isdisjoint(not_after) \
                or (needs_one_of and kinds.isdisjoint(needs_one_of)):
            violations.append(Violation(
                "state-legality", message.format(src=tx.src, name=tx.frame_name),
                tx.event_id))
        kinds.add(tx.kind)
    return violations


def validate_transmissions(transmissions: list[Transmission]) -> list[Violation]:
    violations, pairing = check_ack_pairing(transmissions)
    violations.extend(check_single_go(transmissions))
    violations.extend(check_relay_rule(transmissions, pairing))
    violations.extend(check_emission_order(transmissions))
    return violations


def validate_trace_text(text: str) -> list[Violation]:
    """Replay a trace document through every trace-level checker."""
    try:
        runs = parse_trace_text(text)
    except ValueError as exc:
        return [Violation("grammar", str(exc))]
    transmissions, violations = group_transmissions(runs)
    violations.extend(validate_transmissions(transmissions))
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
