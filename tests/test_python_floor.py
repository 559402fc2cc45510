"""The package keeps to the Python floor that ``pyproject.toml`` declares.

``requires-python`` is ``>=3.10``.  Every module must parse as Python 3.10
syntax, and no compiled module-level pattern may use the possessive
quantifiers or atomic groups that ``re`` accepts only from 3.11 on: they
would import on a newer interpreter and fail at import on 3.10.
"""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import wfdsim

try:
    from re import _parser as sre_parser  # Python 3.11 and later
except ImportError:  # Python 3.10
    import sre_parse as sre_parser

FLOOR = (3, 10)
NEWER_OPS = {"POSSESSIVE_REPEAT", "ATOMIC_GROUP"}

PACKAGE_DIR = Path(wfdsim.__file__).parent
MODULES = sorted(path.name for path in PACKAGE_DIR.glob("*.py"))


def test_pyproject_declares_the_floor():
    pyproject = (PACKAGE_DIR.parents[1] / "pyproject.toml").read_text()
    assert 'requires-python = ">=3.10"' in pyproject


@pytest.mark.parametrize("name", MODULES)
def test_module_parses_as_the_floor_version(name):
    source = (PACKAGE_DIR / name).read_text(encoding="utf-8")
    ast.parse(source, filename=name, feature_version=FLOOR)


def _op_names(node):
    """The opcode names of a parsed pattern, nested ones included."""
    if isinstance(node, sre_parser.SubPattern):
        for op, argument in node:
            yield str(op)
            yield from _op_names(argument)
    elif isinstance(node, (list, tuple)):
        for item in node:
            yield from _op_names(item)


def _module_patterns():
    for info in pkgutil.iter_modules(wfdsim.__path__):
        module = importlib.import_module(f"wfdsim.{info.name}")
        for attr, value in vars(module).items():
            if isinstance(value, re.Pattern):
                yield f"wfdsim.{info.name}.{attr}", value


def test_package_has_module_level_patterns():
    assert any(name == "wfdsim.trace._RUN_RE" for name, _ in _module_patterns())


def test_no_pattern_needs_a_newer_re():
    for name, pattern in _module_patterns():
        parsed = sre_parser.parse(pattern.pattern, pattern.flags)
        assert not NEWER_OPS & set(_op_names(parsed)), name


@pytest.mark.skipif(not hasattr(sre_parser, "POSSESSIVE_REPEAT"),
                    reason="this re has no possessive quantifiers")
@pytest.mark.parametrize("text", ["a++", "(?:x|y*+)", "(?>ab)", "(a(?=b?+))"])
def test_the_check_sees_newer_ops(text):
    assert NEWER_OPS & set(_op_names(sre_parser.parse(text)))
