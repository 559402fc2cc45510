"""Protocol-shape checkers for traces and run histories.

Trace checkers work on the tab-separated trace alone and target lossless,
single-group runs: acknowledgment pairing, a single beacon source, the
two-hop relay rule for data frames, and a per-device emission order that
catches impossible protocol jumps.  They run on transmissions: the parser
yields one per run of lines that differ only in the receiver, and
:func:`group_transmissions` merges the runs of one transmission, checking
line order, frame names and event-id reuse on the way.  History checkers
additionally verify state-transition legality, the single-owner invariant
per group name and the intent-argmax rule for every completed negotiation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .history import History
from .medium import (
    ACK,
    AUTH,
    BEACON,
    DATA,
    GO_NEG_KINDS,
    PROBE_REQUEST,
    PROVISION_DISCOVERY_REQUEST,
    PROVISION_DISCOVERY_RESPONSE,
    FrameKind,
)
from .peer import LEGAL_TRANSITIONS
from .trace import Transmission, parse_trace_text

UNICAST_KINDS = frozenset(k for k in FrameKind
                          if k not in (BEACON, PROBE_REQUEST, ACK))

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


def check_ack_pairing(transmissions: list[Transmission]) -> list[Violation]:
    """Every unicast non-ACK frame must be answered by exactly one ACK from
    its destination before its sender's next unicast non-ACK frame.

    Broadcast frames are timer-driven and unacknowledged, so they do not
    close a pending window.  Windows still open at the end of the trace are
    tolerated (the run's horizon may cut an exchange short).
    """
    violations: list[Violation] = []
    open_frame: dict[str, Transmission] = {}
    for tx in transmissions:
        if tx.kind is ACK:
            paired = min(
                (pending for pending in open_frame.values()
                 if tx.src in pending.receivers and pending.src in tx.receivers),
                key=lambda pending: pending.event_id, default=None)
            if paired is None:
                violations.append(Violation(
                    "ack-pairing",
                    f"ACK from {tx.src} matches no outstanding frame", tx.event_id))
                continue
            paired.acked_by = tx.src
            del open_frame[paired.src]
        elif tx.kind in UNICAST_KINDS:
            stale = open_frame.get(tx.src)
            if stale is not None:
                violations.append(Violation(
                    "ack-pairing",
                    f"frame #{stale.event_id} ({stale.frame_name}) from {stale.src} "
                    f"not acknowledged before its next frame", stale.event_id))
            open_frame[tx.src] = tx
    for pending in open_frame.values():
        pending.unresolved = True  # horizon may cut the final exchange short
    return violations


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


def check_relay_rule(transmissions: list[Transmission]) -> list[Violation]:
    """Data frames travel to or from the group owner, never client to client
    in one hop.  Requires the ACK pairing pass to have run (it fills in each
    transmission's acknowledged destination)."""
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
        if tx.src in beacon_sources or tx.unresolved:
            continue
        hop_dst = tx.acked_by
        if hop_dst is None or hop_dst not in beacon_sources:
            violations.append(Violation(
                "relay-rule",
                f"data frame from {tx.src} delivered to "
                f"{hop_dst or 'no acknowledged destination'}, "
                f"bypassing the group owner", tx.event_id))
    return violations


def check_emission_order(transmissions: list[Transmission]) -> list[Violation]:
    """Flag frame emissions impossible for any legal peer state sequence in a
    lossless run: negotiating after provisioning or beaconing, joining after
    associating or beaconing, authenticating out of the blue, data from a
    device that never associated.

    A provision-discovery request after an abandoned negotiation is legal:
    a device whose counterpart was claimed by a third party falls back to
    find and joins the group that formed without it.
    """
    violations = []
    sent_pd_request: set[str] = set()
    sent_pd_response: set[str] = set()
    sent_auth: set[str] = set()
    sent_data: set[str] = set()
    sent_goneg: set[str] = set()
    beaconed: set[str] = set()
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


def validate_transmissions(transmissions: list[Transmission]) -> list[Violation]:
    violations = []
    violations.extend(check_ack_pairing(transmissions))
    violations.extend(check_single_go(transmissions))
    violations.extend(check_relay_rule(transmissions))
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
