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
        digits = _Memo(b"%d".__mod__)  # the key's quotients are exact ints
        return _layout(len(key.quotients))[1] % (key.s, *map(digits.__getitem__, key.quotients))
    except ValueError:  # int -> str refuses integers past the digit limit
        raise _unwritable() from None


def _parse_int(text: bytes, line: int) -> int:
    if not (text.isdigit() and (text == b"0" or text[:1] != b"0")):  # bytes.isdigit: ASCII only
        raise NonCanonicalInteger(line, text.decode("latin-1"))  # ASCII once read_key raises it
    try:
        return int(text)
    except ValueError:  # bytes -> int refuses integers past the digit limit
        raise BadField(line, f"integer has {_too_wide()}") from None


def _read_lines(data: bytes, lines: list[bytes]) -> CipherKey:
    """The key in ``data``, split at LF into ``lines``, or the first line fault in file order."""
    if lines[-1]:  # what follows the last LF
        raise BadField(len(lines), "missing trailing newline")
    if lines[0] != _KEY_MAGIC:
        raise BadMagic(f"expected magic line {KEY_MAGIC!r}")
    if len(lines) < 4:
        raise BadField(len(lines), "missing s= or n= line")
    if not lines[1].startswith(b"s="):
        raise BadField(2, f"expected 's=<int>', got {_quote(lines[1].decode('latin-1'))}")
    s = _parse_int(lines[1][2:], 2)
    if s < 1:
        raise BadField(2, f"secret parameter s must be >= 1, got {s}")
    if not lines[2].startswith(b"n="):
        raise BadField(3, f"expected 'n=<int>', got {_quote(lines[2].decode('latin-1'))}")
    count = _parse_int(lines[2][2:], 3)
    number = 0  # the line being read: 0 until the walk below names it
    parsed = _Memo(lambda text: _parse_int(text, number))
    if (
        count == len(lines) - 4
        # long enough for count lines of q<i>=0 and LF: build no line heads for a shorter file
        and len(data) >= 4 * count + sum(count + 1 - 10**k for k in range(len(b"%d" % count)))
        and not any(map(bytes.isdigit, lines))  # a line that lost its head (q<i>=) is all digits
    ):
        try:  # in bulk: a wrong head stays on its text, which then fails to parse
            texts = map(bytes.removeprefix, lines[3:], _layout(count)[0])
            return CipherKey._from_checked(s, tuple(map(parsed.__getitem__, texts)))
        except KeyFormatError:  # the walk below names its line
            pass
    for number, line in enumerate(lines[3:-1], start=4):
        if number - 3 > count:
            if line.startswith(b"q"):
                raise CountMismatch(f"declared n={count} but found more quotient lines")
            raise TrailingGarbage(f"unexpected content at line {number}: {_quote(line.decode('latin-1'))}")
        head = b"q%d=" % (number - 3)
        if not line.startswith(head):
            raise BadField(number, f"expected {head.decode()!r} prefix, got {_quote(line.decode('latin-1'))}")
        parsed[line.removeprefix(head)]  # raises at a bad integer
    if len(lines) - 4 == count:  # a faultless key, which the checks above accept
        raise AssertionError(f"read_key refused a valid key of {count} quotients")
    raise CountMismatch(f"declared n={count} but found {len(lines) - 4} quotient lines")


def read_key(data: bytes) -> CipherKey:
    """Parse key file bytes; exact inverse of :func:`write_key`.

    Byte faults are named first (an empty file, a CR, a non-ASCII byte, no LF
    at the end), then line faults in file order (magic, ``s=``, s >= 1, ``n=``,
    the quotient lines); a file is scanned for byte faults only once a line
    check fails. It is split at LF once, and each distinct integer parsed once.
    """
    data = data if type(data) is bytes else bytes(memoryview(data))  # bytes-like only: an int is a TypeError
    lines = data.split(b"\n")  # magic, s=, n=, the quotient lines, then what follows the last LF
    try:
        return _read_lines(data, lines)
    except KeyFormatError:
        # a byte fault fails a line check too: a line that passes is literals and ASCII digits
        if not data:
            raise BadMagic("empty key file") from None
        if b"\r" in data:
            raise BadField(data.count(b"\n", 0, data.index(b"\r")) + 1, "CR not allowed") from None
        if not data.isascii():
            number = next(number for number, line in enumerate(lines, 1) if not line.isascii())
            raise BadField(number, "non-ASCII byte in key file") from None
        raise


def write_ciphertext(ct: CipherText) -> bytes:
    """Serialize a ciphertext as one uppercase line ending in LF."""
    return (ct.letters + "\n").encode("ascii")


def read_ciphertext(data: bytes) -> CipherText:
    """Parse ciphertext bytes; exact inverse of :func:`write_ciphertext`.

    Rejects any byte outside 'A'..'Z' before the trailing LF, reporting its
    0-based offset.
    """
    data = data if type(data) is bytes else bytes(memoryview(data))  # bytes-like only: an int is a TypeError
    if b"\r" in data:
        raise BadField(1, "CR not allowed")
    newline = data.find(b"\n")
    if newline == -1:
        raise BadField(1, "missing trailing newline")
    if newline != len(data) - 1:
        raise TrailingGarbage(f"content after line 1 (byte offset {newline + 1})")
    return CipherText.from_letters(data[:newline].decode("latin-1"))  # byte i is chr(byte i)
