"""Bijective mapping between uppercase Latin text and letter values 1..26.

The convention is A=1, B=2, ..., Z=26. The cipher represents every mod-26
residue in 1..26 so each residue maps back to a letter; this module owns
that alphabet and nothing else. Anything outside 'A'..'Z' is rejected,
never dropped or substituted.
"""

from __future__ import annotations

from typing import Sequence

from .errors import NonAlphabetCharacter, ValueOutOfRange

ALPHABET = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
_A = ord("A")


def encode_text(text: str, fold_case: bool = True) -> list[int]:
    """Map a string to its letter values, preserving order and length.

    With ``fold_case`` (the default) lowercase letters are uppercased before
    validation; every other non-'A'..'Z' character raises
    :class:`NonAlphabetCharacter` carrying the offending 0-based index.
    """
    if fold_case:
        text = text.upper()
    values = []
    for index, char in enumerate(text):
        if not "A" <= char <= "Z":
            raise NonAlphabetCharacter(char, index, "plaintext")
        values.append(ord(char) - _A + 1)
    return values


def decode_values(values: Sequence[int]) -> str:
    """Inverse of :func:`encode_text` on sequences of values in 1..26."""
    chars = []
    for index, value in enumerate(values):
        if not 1 <= value <= 26:
            raise ValueOutOfRange(value, f"value at index {index}")
        chars.append(chr(_A + value - 1))
    return "".join(chars)
