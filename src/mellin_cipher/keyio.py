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


_BLOCK = 1 << 16  # read_key splits and parses the quotient lines about this many bytes at a time


def _read_lines(data: bytes) -> CipherKey:
    """The key in ``data``, or its first line fault in file order."""
    if data[-1:] != b"\n":  # what follows the last LF
        raise BadField(data.count(b"\n") + 1, "missing trailing newline")
    if not data.startswith(_KEY_MAGIC + b"\n"):
        raise BadMagic(f"expected magic line {KEY_MAGIC!r}")
    start = len(_KEY_MAGIC) + 1  # where the s= line starts
    header = data.find(b"\n", data.find(b"\n", start) + 1)  # the third LF, or the first if there are two
    if header < start:
        raise BadField(data.count(b"\n") + 1, "missing s= or n= line")
    s_line, n_line = data[start:header].split(b"\n")
    if not s_line.startswith(b"s="):
        raise BadField(2, f"expected 's=<int>', got {_quote(s_line.decode('latin-1'))}")
    s = _parse_int(s_line[2:], 2)
    if s < 1:
        raise BadField(2, f"secret parameter s must be >= 1, got {s}")
    if not n_line.startswith(b"n="):
        raise BadField(3, f"expected 'n=<int>', got {_quote(n_line.decode('latin-1'))}")
    count = _parse_int(n_line[2:], 3)
    number = 3  # the last line read
    parsed = _Memo(lambda text: _parse_int(text, number))
    # long enough for count lines of q<i>=0 and LF: build no line heads for a shorter file
    bulk = len(data) >= 4 * count + sum(count + 1 - 10**k for k in range(len(b"%d" % count)))
    heads = iter(_layout(count)[0] if bulk else ())  # one iterator, shared by the blocks
    quotients, start = [], header + 1
    while start < len(data):  # a block ends at the first LF at or after start + _BLOCK
        end = data.find(b"\n", start + _BLOCK) + 1 or len(data)
        lines, start = data[start : end - 1].split(b"\n"), end
        # a line that lost its head (q<i>=) is all digits; no more lines than n are read in bulk
        if bulk and number + len(lines) <= count + 3 and not any(map(bytes.isdigit, lines)):
            try:  # in bulk: a wrong head stays on its text, which then fails to parse
                quotients += tuple(map(parsed.__getitem__, map(bytes.removeprefix, lines, heads)))
                number += len(lines)
                continue
            except KeyFormatError:  # the walk below names its line
                bulk = False  # heads is now out of step with the lines
        for number, line in enumerate(lines, number + 1):
            if number - 3 > count:
                if line.startswith(b"q"):
                    raise CountMismatch(f"declared n={count} but found more quotient lines")
                raise TrailingGarbage(f"unexpected content at line {number}: {_quote(line.decode('latin-1'))}")
            head = b"q%d=" % (number - 3)
            if not line.startswith(head):
                raise BadField(number, f"expected {head.decode()!r} prefix, got {_quote(line.decode('latin-1'))}")
            quotients.append(parsed[line.removeprefix(head)])  # raises at a bad integer
    if number - 3 != count:
        raise CountMismatch(f"declared n={count} but found {number - 3} quotient lines")
    return CipherKey._from_checked(s, tuple(quotients))


def read_key(data: bytes) -> CipherKey:
    """Parse key file bytes; exact inverse of :func:`write_key`.

    Byte faults are named first (an empty file, a CR, a non-ASCII byte, no LF
    at the end), then line faults in file order (magic, ``s=``, s >= 1, ``n=``,
    the quotient lines); a file is scanned for byte faults only once a line
    check fails. The quotient lines are split in blocks, each ending at the
    first LF at or after 64 KB from its start, and each distinct integer is
    parsed once.
    """
    data = data if type(data) is bytes else bytes(memoryview(data))  # bytes-like only: an int is a TypeError
    try:
        return _read_lines(data)
    except KeyFormatError:
        # a byte fault fails a line check too: a line that passes is literals and ASCII digits
        if not data:
            raise BadMagic("empty key file") from None
        if b"\r" in data:
            raise BadField(data.count(b"\n", 0, data.index(b"\r")) + 1, "CR not allowed") from None
        if not data.isascii():  # the first byte left once the ASCII bytes are deleted
            offset = data.index(data.translate(None, bytes(range(128)))[:1])
            raise BadField(data.count(b"\n", 0, offset) + 1, "non-ASCII byte in key file") from None
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
