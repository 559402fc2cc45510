"""Per-event code reads enum members through module constants.

On Python 3.10 and 3.11 ``EnumType`` defines ``__getattr__``, so each
``FrameKind.ACK`` or ``PeerState.SCAN`` read inside a function goes through
a Python-level hook.  The engine, medium, peer, traffic and trace modules bind
the members once at import and read those names instead; tables built once in
a module or class body may still spell members through the enum.
"""

import ast
import inspect

import pytest

from wfdsim import engine, medium, peer, trace, traffic
from wfdsim.medium import FrameKind
from wfdsim.peer import PeerState

HOT_MODULES = (engine, medium, peer, traffic, trace)

ENUMS = {"FrameKind": FrameKind, "PeerState": PeerState,
         "_K": FrameKind, "_S": PeerState}


def member_reads_in_functions(source: str) -> list[tuple[int, str]]:
    """(line, ``Enum.MEMBER``) for every member read through an enum name
    inside a function or lambda body, nested ones included."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            continue
        for inner in ast.walk(node):
            if (isinstance(inner, ast.Attribute)
                    and isinstance(inner.value, ast.Name)
                    and inner.value.id in ENUMS
                    and inner.attr in ENUMS[inner.value.id].__members__):
                found.add((inner.lineno, f"{inner.value.id}.{inner.attr}"))
    return sorted(found)


@pytest.mark.parametrize("module", HOT_MODULES, ids=lambda m: m.__name__)
def test_no_enum_member_read_inside_a_function(module):
    assert member_reads_in_functions(inspect.getsource(module)) == []


def test_the_check_flags_function_bodies_only():
    source = (
        "TABLE = {FrameKind.ACK: 1}\n"
        "class C:\n"
        "    HANDLERS = {_S.SCAN: {_K.BEACON: None}}\n"
        "    def f(self):\n"
        "        return PeerState.SCAN, FrameKind.value, _K.DATA\n"
        "def g():\n"
        "    def h():\n"
        "        return _S.IDLE\n"
        "    return lambda: FrameKind.AUTH\n")
    assert member_reads_in_functions(source) == [
        (5, "PeerState.SCAN"), (5, "_K.DATA"), (8, "_S.IDLE"),
        (9, "FrameKind.AUTH")]


def test_every_member_has_its_module_constant():
    for name, member in FrameKind.__members__.items():
        assert getattr(medium, name) is member
    for name, member in PeerState.__members__.items():
        assert getattr(peer, name) is member


@pytest.mark.parametrize("module", HOT_MODULES, ids=lambda m: m.__name__)
def test_member_named_constants_are_the_members(module):
    # a module name spelled like a member must be that member, wherever the
    # module got it from
    for enum in (FrameKind, PeerState):
        for name, member in enum.__members__.items():
            if name in vars(module):
                assert vars(module)[name] is member, f"{module.__name__}.{name}"
