"""The medium's per-device frame kinds follow each peer's state.

:class:`Medium` calls a broadcast receiver's handler only for a kind in
``medium.hears[receiver]``, and a peer keeps that entry equal to
``Peer.HANDLERS[state]`` by storing it wherever it assigns ``state``.  An
assignment anywhere else would leave the entry stale, and the peer would
miss broadcasts its state handles or be called for ones it ignores.
"""

import ast
from dataclasses import replace
from pathlib import Path

import wfdsim
from wfdsim import Simulation, default_scenario
from wfdsim.engine import Engine
from wfdsim.peer import Peer

PACKAGE = Path(wfdsim.__file__).resolve().parent


def state_assignments(source: str) -> list[tuple[str, int]]:
    """(enclosing ``Class.function``, line) for every assignment to an
    attribute named ``state``, and every ``setattr(_, "state", _)``."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for target in targets:
            for inner in ast.walk(target):
                if isinstance(inner, ast.Attribute) and inner.attr == "state":
                    found.append((scope, node.lineno))
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "setattr" and len(node.args) > 1
                and isinstance(node.args[1], ast.Constant)
                and node.args[1].value == "state"):
            found.append((scope, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "")
    return found


def test_state_is_assigned_only_where_the_peer_updates_its_entry():
    scopes = sorted(f"{path.name}:{scope}"
                    for path in PACKAGE.glob("*.py")
                    for scope, _line in state_assignments(path.read_text()))
    assert scopes == ["peer.py:Peer.__init__", "peer.py:Peer._set_state"]


def test_the_check_finds_every_form_of_state_assignment():
    source = (
        "class P:\n"
        "    def f(self):\n"
        "        self.state = 1\n"
        "        a.state, b = 2, 3\n"
        "        x.state += 1\n"
        "        setattr(self, 'state', 4)\n"
        "        state = 5\n"
        "        other.states = 6\n"
        "def g(peer):\n"
        "    peer.state: int = 7\n")
    assert state_assignments(source) == [
        ("P.f", 3), ("P.f", 4), ("P.f", 5), ("P.f", 6), ("g", 10)]


def test_every_fired_event_leaves_each_entry_on_its_peers_table(monkeypatch):
    # checked after every action, so a state change that skipped the entry
    # shows up at the event that made it
    peers = []
    checked = []
    schedule = Engine.schedule

    def check_after(action):
        def checked_action():
            action()
            for peer in peers:
                assert peer.medium.hears[peer.address] is Peer.HANDLERS[peer.state]
            checked.append(1)
        return checked_action

    def spy(engine, fire_time, action, tag="", target=""):
        return schedule(engine, fire_time, check_after(action), tag, target)

    monkeypatch.setattr(Engine, "schedule", spy)
    config = default_scenario(10)
    config = replace(config, medium=replace(config.medium, loss_probability=0.2))
    sim = Simulation(config, seed=1 << 16)
    peers.extend(sim.peers)
    sim.run()
    assert len(checked) == sim.engine.fired_count > 0
    states = {t.new for t in sim.history.transitions}
    assert {"Scan", "FindListen", "FindSearch", "Negotiating"} <= states
