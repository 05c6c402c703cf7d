"""Exception hierarchy shared across the toolkit.

Every error raised by this package derives from :class:`CipherToolkitError`,
so callers (and the CLI) can distinguish toolkit failures from bugs.
"""

from __future__ import annotations


class CipherToolkitError(Exception):
    """Base class for all toolkit errors."""


def _render_int(value: int) -> str:
    # int -> str is quadratic and refused past 4300 digits, so a message
    # states the bit length of anything wider than 64 bits instead
    bits = int(value).bit_length()  # numpy integers have no bit_length
    return str(value) if bits <= 64 else f"<{bits}-bit integer>"


_SHOWN_CHARS = 20  # an echoed input field is quoted up to this many characters


def _quote(text: str) -> str:
    return repr(text[:_SHOWN_CHARS]) + ("..." if len(text) > _SHOWN_CHARS else "")


class NonAlphabetCharacter(CipherToolkitError):
    """A character outside 'A'..'Z' where a letter was required."""

    def __init__(self, char: str, index: int, context: str = "input"):
        self.char = char
        self.index = index
        super().__init__(f"non-alphabet character {char!r} at index {index} in {context}")


class ValueOutOfRange(CipherToolkitError):
    """A letter value (or recovered coefficient) outside 1..26."""

    def __init__(self, value: int, where: str = "value"):
        self.value = value
        super().__init__(f"{where} {_render_int(value)} outside 1..26")


class InvalidParameter(CipherToolkitError):
    """A parameter outside its legal domain (e.g. secret parameter s < 1)."""


class NonPositiveInput(CipherToolkitError):
    """split_mod26 requires an input >= 1."""


class LengthMismatch(CipherToolkitError):
    """Ciphertext and quotient sequences have different lengths."""


class NotDivisible(CipherToolkitError):
    """A reconstructed coefficient is not an exact multiple of its factorial.

    Signals a corrupted key or ciphertext. ``position`` is 1-based.
    """

    def __init__(self, position: int, value: int, divisor: int):
        self.position = position
        self.value = value
        self.divisor = divisor
        super().__init__(
            f"coefficient {_render_int(value)} at position {position} "
            f"is not divisible by {_render_int(divisor)}"
        )


class ExactnessBoundExceeded(CipherToolkitError):
    """Requested integrand exponent is beyond the oracle's fixed exactness bound."""

    def __init__(self, exponent: int, bound: int):
        self.exponent = exponent
        self.bound = bound
        super().__init__(f"exponent {exponent} exceeds exactness bound {bound}")


class InvalidScale(CipherToolkitError):
    """Scaling factor must be strictly positive."""


class KeyFormatError(CipherToolkitError):
    """Base class for key/ciphertext file format errors."""


class BadMagic(KeyFormatError):
    """The key file does not start with the expected magic line."""


class BadField(KeyFormatError):
    """A malformed or out-of-place line in a key or ciphertext file."""

    def __init__(self, line: int, reason: str):
        self.line = line
        self.reason = reason
        super().__init__(f"line {line}: {reason}")


class CountMismatch(KeyFormatError):
    """The declared quotient count disagrees with the number of quotient lines."""


class NonCanonicalInteger(KeyFormatError):
    """An integer field with a leading sign or leading zeros."""

    def __init__(self, line: int, text: str):
        self.line = line
        self.text = text
        super().__init__(f"line {line}: non-canonical integer {_quote(text)}")


class TrailingGarbage(KeyFormatError):
    """Extra content after the last expected line."""
