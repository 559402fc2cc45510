"""Only the medium decides which channel a frame goes out on.

:meth:`Medium.transmit` stamps the sender's current channel on every frame
it sends, so no other module of the package names a channel when it builds
a frame.  A frame that carried its own channel could go out on one its
sender has left.
"""

import ast
from pathlib import Path

import pytest

import wfdsim

PACKAGE = Path(wfdsim.__file__).resolve().parent
OTHER_MODULES = sorted(path for path in PACKAGE.glob("*.py")
                       if path.name != "medium.py")

# Frame(kind, src, dst, channel, ...): a fourth positional argument
CHANNEL_POSITION = 3


def channel_namings(source: str) -> list[int]:
    """Lines that pass a channel to ``Frame(...)``, by keyword or position."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else \
            func.attr if isinstance(func, ast.Attribute) else None
        if name == "Frame" and (
                len(node.args) > CHANNEL_POSITION
                or any(kw.arg == "channel" for kw in node.keywords)):
            found.add(node.lineno)
    return sorted(found)


def test_the_package_has_frame_builders_to_check():
    names = {path.name for path in OTHER_MODULES}
    assert {"peer.py", "traffic.py"} <= names


@pytest.mark.parametrize("path", OTHER_MODULES, ids=lambda path: path.name)
def test_no_module_but_the_medium_names_a_frames_channel(path):
    assert channel_namings(path.read_text()) == []


def test_the_check_flags_frame_calls_that_name_a_channel():
    source = (
        "Frame(kind=K, src=a, dst=b, channel=3)\n"
        "medium.Frame(K, a, b, 3)\n"
        "Frame(K, a, b, group_ssid=s)\n"
        "channel = frame.channel\n"
        "medium.tune(a, channel=1)\n")
    assert channel_namings(source) == [1, 2]
