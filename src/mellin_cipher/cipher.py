"""Factorial coefficient cipher: transform, mod-26 split, and key recovery.

Encryption maps each letter value g_i to the exact integer g_i * e_i!, where
the exponent schedule e_i cycles through s, s+1, ..., 2s with period s+1.
Each transformed coefficient is split by division by 26: the residue
(represented in 1..26) becomes a ciphertext letter, the quotient joins the
private key. Decryption reverses the split and divides out the factorial;
every step is exact integer arithmetic, so round trips are lossless.

The quotient key is as long as the message and, together with the
ciphertext, determines the secret parameter s by direct search
(:func:`recover_s`), so the scheme offers no real secrecy. It is
implemented here as a faithful, testable artifact, not as a secure cipher.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Callable, Iterable, Sequence
from operator import mul

from .alphabet import _checked_values, _letter_values, decode_values
from .errors import (
    InvalidParameter,
    LengthMismatch,
    NonPositiveInput,
    NotDivisible,
    ValueOutOfRange,
    _render_int,
)

MODULUS = 26


class _Record:
    """Immutable record whose fields are its ``__slots__``.

    Equality (same class only), hashing, the ``Name(field=value, ...)``
    repr, pickling and copying all follow the slots. Each subclass
    validates and stores its fields in an ``__init__`` of its own; after
    that, assigning or deleting a field raises ``AttributeError``.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({shown})"

    def __reduce__(self):
        return self.__class__, self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class CipherText(_Record):
    """Sequence of mod-26 residues, each represented in 1..26."""

    __slots__ = ("residues",)

    def __init__(self, residues: Iterable[int]):
        residues = tuple(residues)  # the same object for a tuple
        _checked_values(residues, "residue")
        object.__setattr__(self, "residues", residues)

    @classmethod
    def from_letters(cls, text: str) -> "CipherText":
        return cls(tuple(_letter_values(text, "ciphertext")))

    @property
    def letters(self) -> str:
        """The ciphertext as an uppercase string."""
        return decode_values(self.residues)

    def __len__(self) -> int:
        return len(self.residues)


def _check_s(s: int) -> None:
    if operator.index(s) < 1:  # a float s raises TypeError, as range and math.factorial do
        raise InvalidParameter(f"secret parameter s must be >= 1, got {s}")


class CipherKey(_Record):
    """Private key: the secret parameter s plus one quotient per position."""

    __slots__ = ("s", "quotients")

    def __init__(self, s: int, quotients: Iterable[int] = ()):
        _check_s(s)
        quotients = tuple(quotients)  # the same object for a tuple
        if quotients and min(quotients) < 0:
            index, quotient = next((i, q) for i, q in enumerate(quotients) if q < 0)
            error = ValueOutOfRange(quotient)  # its own text names the letter range 1..26
            error.args = (f"quotient at index {index} is {_render_int(quotient)}, must be >= 0",)
            raise error
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "quotients", quotients)

    def __len__(self) -> int:
        return len(self.quotients)


def exponent_schedule(s: int, n: int) -> list[int]:
    """First n factorial arguments for secret parameter s.

    Position i (1-based) gets exponent s + ((i-1) mod (s+1)), cycling
    through s..2s with period s+1.
    """
    _check_s(s)
    if n < 0:
        raise InvalidParameter(f"schedule length must be >= 0, got {n}")
    return list(itertools.islice(itertools.cycle(range(s, 2 * s + 1)), n))


def _weights(s: int) -> Callable[[int], int]:
    """``weight(slot) = (s + slot)!``, the factorial of schedule slot 0..s.

    The table grows on demand and in slot order: s! by one ``math.factorial``,
    each later slot from its predecessor. A caller that stops early (a
    corrupted key, say) has paid for no factorial past the slots it reached,
    and one that reaches none has paid for none.
    """
    _check_s(s)
    table: list[int] = []

    def weight(slot: int) -> int:
        while len(table) <= slot:
            table.append(table[-1] * (s + len(table)) if table else math.factorial(s))
        return table[slot]

    return weight


class _Memo(dict):
    """A dict whose missing key is filled with ``compute(key)``.

    A lookup that hits runs in C, so ``map(memo.__getitem__, keys)`` costs
    no Python frame per repeat; only a miss calls ``compute``.
    """

    __slots__ = ("compute",)

    def __init__(self, compute: Callable):
        self.compute = compute

    def __missing__(self, key):
        value = self[key] = self.compute(key)
        return value


def transform_coefficients(plain: Sequence[int], s: int) -> list[int]:
    """Scale each letter value by the factorial of its schedule exponent."""
    count = len(plain)
    weight = _weights(s)  # a bad s is named before a bad value
    values = _checked_values(plain, "plaintext value")
    weights = [weight(slot) for slot in range(min(count, s + 1))]
    return list(map(mul, values, itertools.cycle(weights)))


def split_mod26(n: int) -> tuple[int, int]:
    """Split n >= 1 into (quotient, residue) with the residue in 1..26.

    Always satisfies quotient * 26 + residue == n; when 26 divides n the
    residue is 26 and the quotient drops by one, so every residue maps to
    a letter.
    """
    if n < 1:
        raise NonPositiveInput(f"expected a positive integer, got {n}")
    quotient, residue = divmod(n - 1, MODULUS)
    return quotient, residue + 1


def encrypt(plaintext: str, s: int, fold_case: bool = True) -> tuple[CipherText, CipherKey]:
    """Encrypt an 'A'..'Z' string under secret parameter s.

    Returns the ciphertext residues and the private key (s plus the
    per-position quotients). Deterministic: equal inputs give equal outputs.
    """
    values = _letter_values(plaintext.upper() if fold_case else plaintext, "plaintext")
    weight, residues, quotients = _weights(s), bytearray(len(values)), [0] * len(values)
    for slot in range(min(len(values), s + 1)):  # a slot's column shares its factorial
        column, residue_of, quotient_of = values[slot :: s + 1], bytearray(256), [0] * 27
        for value in set(column):  # split each value the column holds, and only those
            quotient_of[value], residue_of[value] = split_mod26(value * weight(slot))
        residues[slot :: s + 1] = column.translate(residue_of)
        quotients[slot :: s + 1] = map(quotient_of.__getitem__, column)
    return CipherText(tuple(residues)), CipherKey(s, tuple(quotients))


def decrypt(ciphertext: CipherText, key: CipherKey) -> str:
    """Recover the plaintext from a ciphertext and its private key.

    Rebuilds each coefficient as quotient * 26 + residue, divides out the
    schedule factorial exactly, and maps the results back to letters.
    Raises :class:`NotDivisible` or :class:`ValueOutOfRange` (with 1-based
    position) when the pair is corrupted.
    """
    if len(ciphertext) != len(key):
        raise LengthMismatch(
            f"ciphertext has {len(ciphertext)} letters but key has {len(key)} quotients"
        )
    s, quotients, residues = key.s, key.quotients, ciphertext.residues
    weight = _weights(s)

    def recover(entry: tuple[int, int, int]) -> int:
        slot, quotient, residue = entry
        coefficient = operator.index(quotient) * MODULUS + residue  # a float quotient raises TypeError
        value, remainder = divmod(coefficient, weight(slot))
        if remainder == 0 and 1 <= value <= MODULUS:
            return value
        # Positions are looked up in order and a failing entry is never
        # memoised, so the fault is this slot's first position holding the pair.
        for index in range(slot, len(quotients), s + 1):
            if quotients[index] == quotient and residues[index] == residue:
                break
        if remainder != 0:
            raise NotDivisible(index + 1, coefficient, weight(slot))
        raise ValueOutOfRange(value, f"recovered value at position {index + 1}")

    entries = zip(itertools.cycle(range(s + 1)), quotients, residues)
    return decode_values(bytes(map(_Memo(recover).__getitem__, entries)))


def recover_s(ciphertext: CipherText, quotients: Iterable[int], max_s: int) -> set[int]:
    """Every s in 1..max_s under which (ciphertext, quotients) decrypts cleanly.

    This is the attack the quotient key invites: an eavesdropper holding the
    quotients needs no shared s, only a short scan. The true s is always in
    the returned set when max_s reaches it; small messages may admit several
    candidates, hence a set.
    """
    quotients = tuple(quotients)
    if len(ciphertext) != len(quotients):
        raise LengthMismatch(
            f"ciphertext has {len(ciphertext)} letters but {len(quotients)} quotients given"
        )
    if max_s < 1:
        raise InvalidParameter(f"max_s must be >= 1, got {max_s}")
    if not quotients:  # no letter can fail, so every s decrypts cleanly
        return set(range(1, max_s + 1))
    candidates = set()
    for s in range(1, max_s + 1):
        try:
            decrypt(ciphertext, CipherKey(s, quotients))
        except (NotDivisible, ValueOutOfRange):
            continue
        candidates.add(s)
    return candidates
