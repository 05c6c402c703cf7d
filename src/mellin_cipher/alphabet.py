"""Bijective mapping between uppercase Latin text and letter values 1..26.

The convention is A=1, B=2, ..., Z=26. The cipher represents every mod-26
residue in 1..26 so each residue maps back to a letter; this module owns
that alphabet and nothing else. Anything outside 'A'..'Z' is rejected,
never dropped or substituted. Case folding (``fold_case``) runs first and is
``str.upper()``, which can change the text's length and turn a non-ASCII
character into letters in 'A'..'Z': "ß" becomes "SS", "ſ" becomes "S" and
"ﬁ" becomes "FI". The CLI folds only the bytes a..z. Both directions check
and translate in C; the cipher checks its letter values here too.
"""

from collections.abc import Iterable, Sequence
from itertools import accumulate

from .errors import NonAlphabetCharacter, ValueOutOfRange

ALPHABET = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
_VALUES = bytes(range(1, 27))
_TO_VALUES = bytes.maketrans(ALPHABET.encode(), _VALUES)
_TO_LETTERS = bytes.maketrans(_VALUES, ALPHABET.encode())


def _letter_values(text: str, context: str, fold_case: bool = False) -> bytes:
    folded = str.upper(text) if fold_case else text  # unbound str methods: a non-str text is a TypeError
    if rest := str.lstrip(folded, ALPHABET):  # the folded text from its first non-letter on
        index = len(folded) - len(rest)
        if fold_case:  # upper() folds each character alone: name the one whose fold holds rest[0]
            index = next(i for i, end in enumerate(accumulate(len(c.upper()) for c in text)) if end > index)
        raise NonAlphabetCharacter(rest[0], index, context)
    return folded.encode().translate(_TO_VALUES)


def encode_text(text: str, fold_case: bool = True) -> list[int]:
    """Map a string to its letter values, in order.

    With ``fold_case`` (the default) the text is uppercased by ``str.upper()``
    before validation. That can change its length and turn a non-ASCII
    character into letters: ``encode_text("ß") == [19, 19]``,
    ``encode_text("ſ") == [19]``, ``encode_text("ﬁ") == [6, 9]``. Without it
    each character gives one value. A character left outside 'A'..'Z' raises
    :class:`NonAlphabetCharacter` carrying it as folded and the 0-based index,
    in ``text`` as passed, of the character it was folded from.
    """
    return list(_letter_values(text, "plaintext", fold_case))


def _checked_values(values: Iterable[int], where: str) -> bytes:
    """The values 1..26 as bytes; a non-int value raises ``TypeError`` from ``bytes()``."""
    values = values if isinstance(values, Sequence) else list(values)  # a failure rereads them
    try:
        data = bytes(values)
    except ValueError:  # some value outside 0..255
        data = b"\0"
    if data.translate(None, delete=_VALUES):  # what is left is out of range
        index, value = next((i, v) for i, v in enumerate(values) if not 1 <= v <= 26)
        raise ValueOutOfRange(value, f"{where} at index {index}")
    return data


def decode_values(values: Iterable[int]) -> str:
    """Inverse of :func:`encode_text` on sequences of values in 1..26."""
    return _checked_values(values, "value").translate(_TO_LETTERS).decode()
