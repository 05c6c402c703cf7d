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

import functools
import sys

from .cipher import CipherKey, CipherText, _Memo
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
_KEY_MAGIC = KEY_MAGIC.encode()


def _too_wide() -> str:
    return f"more than {sys.get_int_max_str_digits()} digits (sys.get_int_max_str_digits())"


def _unwritable() -> KeyFormatError:
    return KeyFormatError(f"cannot write key: an integer has {_too_wide()}")


@functools.lru_cache(maxsize=1)  # consecutive keys of one length share their layout
def _layout(count: int) -> tuple[list[bytes], bytes]:
    """A ``count``-line key's quotient line heads (``q1=``, ...), and its template."""
    heads = [b"q%d=" % index for index in range(1, count + 1)]
    return heads, _KEY_MAGIC + b"\ns=%%d\nn=%d\n" % count + b"%b\n".join([*heads, b""])


def write_key(key: CipherKey) -> bytes:
    """Serialize a key to its canonical byte form."""
    try:  # a key repeats each quotient once per schedule period, so format each once
        digits = map(_Memo(b"%d".__mod__).__getitem__, key.quotients)
        return _layout(len(key.quotients))[1] % (key.s, *digits)
    except ValueError:  # int -> str refuses integers past the digit limit
        raise _unwritable() from None


def _parse_int(text: str, line: int) -> int:
    if not (text.isdigit() and (text == "0" or text[0] != "0")):  # text is ASCII
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
    """Parse key file bytes; exact inverse of :func:`write_key`.

    A key exactly as :func:`write_key` writes it is split at LF once and
    each distinct integer text is parsed once; any other input goes to the
    per-line reader, which names the fault.
    """
    data = bytes(data)  # once, for any bytes-like input: both readers need bytes
    key = _read_written_key(data)
    return _read_key_lines(data) if key is None else key  # the fast path's lines are freed by now


def _read_written_key(data: bytes) -> CipherKey | None:
    lines = data.split(b"\n")  # magic, s=, n=, the quotient lines, then what follows the last LF
    count = len(lines) - 4
    if count < 0 or lines[-1] or lines[0] != _KEY_MAGIC or lines[2] != b"n=%d" % count:
        return None
    if len(data) < 4 * count + sum(count + 1 - 10**k for k in range(len(b"%d" % count))):
        return None  # too short for count lines of q<i>=0 and LF: build no line heads for it
    parsed = _Memo(lambda text: _parse_int(text.decode("ascii"), 0))  # the per-line reader names it
    try:
        s = parsed[lines[1].removeprefix(b"s=")]
        texts = map(bytes.removeprefix, lines[3:], _layout(count)[0])  # a wrong head keeps its q
        quotients = tuple(map(parsed.__getitem__, texts))
    except (KeyFormatError, UnicodeDecodeError):
        return None
    # a line that lost its whole head (s= or q<i>=) passed as a text: it is all digits
    return CipherKey(s, quotients) if s >= 1 and not any(map(bytes.isdigit, lines)) else None


def _read_key_lines(data: bytes) -> CipherKey:
    """Parse a key line by line, raising the error that names its first fault."""
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

    quotients = []  # a key repeats each quotient once per schedule period: parse each text once
    parsed = _Memo(lambda text: _parse_int(text, offset))  # offset: the line being read
    for offset, line in enumerate(lines[3:], start=4):
        index = offset - 3
        if index > count:
            if line.startswith("q"):
                raise CountMismatch(f"declared n={count} but found more quotient lines")
            raise TrailingGarbage(f"unexpected content at line {offset}: {_quote(line)}")
        prefix = f"q{index}="
        if not line.startswith(prefix):
            raise BadField(offset, f"expected {prefix!r} prefix, got {_quote(line)}")
        quotients.append(parsed[line[len(prefix) :]])
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
    data = bytes(data)  # any bytes-like input
    if b"\r" in data:
        raise BadField(1, "CR not allowed")
    newline = data.find(b"\n")
    if newline == -1:
        raise BadField(1, "missing trailing newline")
    if newline != len(data) - 1:
        raise TrailingGarbage(f"content after line 1 (byte offset {newline + 1})")
    return CipherText.from_letters(data[:newline].decode("latin-1"))  # byte i is chr(byte i)
