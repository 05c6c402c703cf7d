"""Bit-exact textual serialization of keys and ciphertexts.

Key file format (ASCII, LF line endings, no CR anywhere):

    MELLIN-KEY-V1
    s=<decimal>
    n=<decimal count>
    q1=<decimal quotient>
    ...
    qn=<decimal quotient>

Integers are canonical decimals: no sign, no leading zeros ("0" itself is
fine), and no more digits than the interpreter converts between int and
str (``sys.get_int_max_str_digits()``, 4300 by default). Reader and writer
share that limit, so every key that can be written can be read back; a
wider integer raises :class:`KeyFormatError` either way. The count line is
redundant with the quotient lines and must match; that is the format's only
corruption check. A ciphertext file is a single line of uppercase letters
terminated by LF.

Writers are deterministic, readers are exact inverses, and parsing depends
only on the bytes, never on locale or platform.
"""

from __future__ import annotations

import re
import sys

from .cipher import CipherKey, CipherText
from .errors import (
    BadField,
    BadMagic,
    CountMismatch,
    KeyFormatError,
    NonCanonicalInteger,
    TrailingGarbage,
    _quote,
)

KEY_MAGIC = "MELLIN-KEY-V1"

_CANONICAL_INT = re.compile(r"0|[1-9][0-9]*")


def _too_wide() -> str:
    return f"more than {sys.get_int_max_str_digits()} digits (sys.get_int_max_str_digits())"


def write_key(key: CipherKey) -> bytes:
    """Serialize a key to its canonical byte form."""
    tails: dict[int, str] = {}  # a key repeats each quotient once per schedule period
    try:
        parts = [f"{KEY_MAGIC}\ns={key.s}\nn={len(key.quotients)}\n"]
        for index, quotient in enumerate(key.quotients, start=1):
            tail = tails.get(quotient)
            if tail is None:
                tail = tails[quotient] = f"={quotient}\n"
            parts.append(f"q{index}")
            parts.append(tail)
    except ValueError:  # int -> str refuses integers past the digit limit
        raise KeyFormatError(f"cannot write key: an integer has {_too_wide()}") from None
    return "".join(parts).encode("ascii")


def _parse_int(text: str, line: int) -> int:
    if _CANONICAL_INT.fullmatch(text) is None:
        raise NonCanonicalInteger(line, text)
    try:
        return int(text)
    except ValueError:  # str -> int refuses integers past the digit limit
        raise BadField(line, f"integer has {_too_wide()}") from None


def _split_lines(data: bytes, context: str) -> list[str]:
    if b"\r" in data:
        raise BadField(data[: data.index(b"\r")].count(b"\n") + 1, "CR not allowed")
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise BadField(data[: exc.start].count(b"\n") + 1, f"non-ASCII byte in {context}") from exc
    if not text.endswith("\n"):
        raise BadField(text.count("\n") + 1, "missing trailing newline")
    return text[:-1].split("\n")


def read_key(data: bytes) -> CipherKey:
    """Parse key file bytes; exact inverse of :func:`write_key`."""
    if not data:
        raise BadMagic("empty key file")
    lines = _split_lines(data, "key file")
    if not lines or lines[0] != KEY_MAGIC:
        raise BadMagic(f"expected magic line {KEY_MAGIC!r}")
    if len(lines) < 3:
        raise BadField(len(lines) + 1, "missing s= or n= line")
    if not lines[1].startswith("s="):
        raise BadField(2, f"expected 's=<int>', got {_quote(lines[1])}")
    s = _parse_int(lines[1][2:], 2)
    if s < 1:
        raise BadField(2, f"secret parameter s must be >= 1, got {s}")
    if not lines[2].startswith("n="):
        raise BadField(3, f"expected 'n=<int>', got {_quote(lines[2])}")
    count = _parse_int(lines[2][2:], 3)

    quotients = []
    parsed: dict[str, int] = {}  # a key repeats each quotient once per schedule period
    for offset, line in enumerate(lines[3:], start=4):
        index = offset - 3
        if index > count:
            if line.startswith("q"):
                raise CountMismatch(f"declared n={count} but found more quotient lines")
            raise TrailingGarbage(f"unexpected content at line {offset}: {_quote(line)}")
        prefix = f"q{index}="
        if not line.startswith(prefix):
            raise BadField(offset, f"expected {prefix!r} prefix, got {_quote(line)}")
        text = line[len(prefix) :]
        quotient = parsed.get(text)
        if quotient is None:
            quotient = parsed[text] = _parse_int(text, offset)
        quotients.append(quotient)
    if len(quotients) != count:
        raise CountMismatch(f"declared n={count} but found {len(quotients)} quotient lines")
    return CipherKey(s, tuple(quotients))


def write_ciphertext(ct: CipherText) -> bytes:
    """Serialize a ciphertext as one uppercase line ending in LF."""
    return (ct.letters + "\n").encode("ascii")


def read_ciphertext(data: bytes) -> CipherText:
    """Parse ciphertext bytes; exact inverse of :func:`write_ciphertext`.

    Rejects any byte outside 'A'..'Z' before the trailing LF, reporting its
    0-based offset.
    """
    if b"\r" in data:
        raise BadField(1, "CR not allowed")
    newline = data.find(b"\n")
    if newline == -1:
        raise BadField(1, "missing trailing newline")
    if newline != len(data) - 1:
        raise TrailingGarbage(f"content after line 1 (byte offset {newline + 1})")
    return CipherText.from_letters(data[:newline].decode("latin-1"))  # byte i is chr(byte i)
