"""Fixed-point simulation time.

All times are integer picoseconds so that event ordering, trace output and
metrics are bit-identical across platforms.  Trace timestamps are printed as
decimal seconds with 12 fractional digits.
"""

from __future__ import annotations

import re
from decimal import Decimal, InvalidOperation, Overflow

PS_PER_SECOND = 10**12

SECOND = PS_PER_SECOND
MILLISECOND = PS_PER_SECOND // 10**3
MICROSECOND = PS_PER_SECOND // 10**6
NANOSECOND = PS_PER_SECOND // 10**9

_UNIT_PS = {
    "s": SECOND,
    "ms": MILLISECOND,
    "us": MICROSECOND,
    "ns": NANOSECOND,
    "ps": 1,
}


# int(), float() and Decimal() read every Unicode decimal digit, but the
# writers write ASCII 0-9 only: any other decimal digit
_OTHER_DIGIT_RE = re.compile(r"(?![0-9])\d")


def ascii_digits(text: str) -> str:
    """*text*, unless it holds a decimal digit other than ASCII 0-9, which
    raises ``ValueError``.  Number readers call it before converting."""
    if _OTHER_DIGIT_RE.search(text):
        raise ValueError(f"digits must be ASCII 0-9, got {text!r}")
    return text


def _picoseconds(dec: Decimal, unit_ps: int, shown: str, shown_scaled: str) -> int:
    """*dec* units of *unit_ps* as integer picoseconds; *shown* names a
    non-finite or out-of-range *dec*, *shown_scaled* a sub-picosecond one."""
    if not dec.is_finite():
        raise ValueError(f"non-finite duration {shown}")
    try:
        dec *= unit_ps
    except Overflow:
        raise ValueError(f"duration {shown} out of range") from None
    if dec != dec.to_integral_value():
        raise ValueError(f"duration {shown_scaled} has sub-picosecond precision")
    return int(dec)


def seconds(value: float | int | str) -> int:
    """Convert a duration in seconds to integer picoseconds (exactly); an
    unparsable, infinite, NaN or out-of-range one is refused."""
    try:
        dec = Decimal(str(value))
    except InvalidOperation:
        raise ValueError(f"unparsable duration {value!r}") from None
    return _picoseconds(dec, PS_PER_SECOND, repr(value), repr(value))


def parse_duration(text: str) -> int:
    """Parse a duration like ``1s``, ``100ms``, ``314us`` or a bare number
    of seconds into picoseconds.  A negative, infinite or NaN duration is
    refused, and so is one too large for decimal arithmetic or written with
    digits other than ASCII 0-9."""
    original = text = ascii_digits(text.strip())
    unit = "s"
    for suffix in ("ms", "us", "ns", "ps", "s"):
        if text.endswith(suffix):
            unit = suffix
            text = text[: -len(suffix)].strip()
            break
    try:
        dec = Decimal(text)
    except InvalidOperation:
        raise ValueError(f"unparsable duration {text!r}") from None
    ps = _picoseconds(dec, _UNIT_PS[unit], repr(original), f"{text!r}{unit}")
    if ps < 0:
        raise ValueError(f"negative duration {original!r}")
    return ps


def format_time(t_ps: int) -> str:
    """Render picoseconds as decimal seconds with 12 fractional digits,
    zero-padded to ``0.`` and twelve digits under one second; a negative
    time raises ``ValueError``."""
    if t_ps < 0:
        raise ValueError("negative simulation time")
    digits = str(t_ps)
    if t_ps < PS_PER_SECOND:
        return "0." + digits.zfill(12)
    return f"{digits[:-12]}.{digits[-12:]}"


def format_duration(t_ps: int) -> str:
    """Render picoseconds as a compact seconds string, e.g. ``0.1s``; a
    negative duration raises ``ValueError``."""
    if t_ps < 0:
        raise ValueError("negative duration")
    whole, frac = divmod(t_ps, PS_PER_SECOND)
    if frac == 0:
        return f"{whole}s"
    return f"{whole}.{frac:012d}".rstrip("0") + "s"


def parse_time(text: str) -> int:
    """Parse a trace timestamp, decimal seconds written ``digits.digits``,
    back into picoseconds.  The digits are ASCII, and fractional digits past
    the twelfth must be zeros."""
    whole, dot, frac = text.partition(".")
    if not (dot and whole.isdecimal() and frac.isdecimal() and text.isascii()):
        raise ValueError(f"unparsable timestamp {text!r}")
    if len(frac) > 12 and int(frac[12:]):
        raise ValueError(f"timestamp {text!r} finer than a picosecond")
    # the seconds digits and twelve fractional digits spell the picoseconds
    return int(whole + frac[:12].ljust(12, "0"))
