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
from collections.abc import Iterable, Iterator, Sequence
from operator import itemgetter

from .alphabet import _checked_values, _letter_values, decode_values, encode_text
from .errors import (
    InvalidParameter,
    LengthMismatch,
    NonPositiveInput,
    NotDivisible,
    ValueOutOfRange,
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

    def __init__(self, residues: tuple[int, ...]):
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


class CipherKey(_Record):
    """Private key: the secret parameter s plus one quotient per position."""

    __slots__ = ("s", "quotients")

    def __init__(self, s: int, quotients: tuple[int, ...] = ()):
        if s < 1:
            raise InvalidParameter(f"secret parameter s must be >= 1, got {s}")
        if quotients and min(quotients) < 0:
            index, quotient = next((i, q) for i, q in enumerate(quotients) if q < 0)
            raise ValueOutOfRange(quotient, f"quotient at index {index} (must be >= 0)")
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "quotients", quotients)

    def __len__(self) -> int:
        return len(self.quotients)


def exponent_schedule(s: int, n: int) -> list[int]:
    """First n factorial arguments for secret parameter s.

    Position i (1-based) gets exponent s + ((i-1) mod (s+1)), cycling
    through s..2s with period s+1.
    """
    if s < 1:
        raise InvalidParameter(f"secret parameter s must be >= 1, got {s}")
    if n < 0:
        raise InvalidParameter(f"schedule length must be >= 0, got {n}")
    return list(itertools.islice(itertools.cycle(range(s, 2 * s + 1)), n))


def _schedule_slots(s: int, n: int) -> Iterator[tuple[int, dict]]:
    """Lazily yield ``(e!, memo)`` for each exponent e of ``exponent_schedule(s, n)``.

    The schedule takes at most s+1 distinct exponents, first in increasing
    order, so each slot is built once: s! directly, every later factorial
    from its predecessor, each with an empty dict in which the caller keeps
    what it has already computed under that factorial. A slot is built only
    when a position first reaches it, so a caller that stops early (a
    corrupted key, say) has paid for no factorial beyond that position, and
    a memo holds entries only for the positions reached.
    """
    table: list[tuple[int, dict]] = []
    for exponent in exponent_schedule(s, min(n, s + 1)):  # validates s and n
        table.append((table[-1][0] * exponent if table else math.factorial(s), {}))
        yield table[-1]
    yield from itertools.islice(itertools.cycle(table), n - len(table))


def transform_coefficients(plain: Sequence[int], s: int) -> list[int]:
    """Scale each letter value by the factorial of its schedule exponent."""
    slots = _schedule_slots(s, len(plain))
    exponent_schedule(s, 0)  # a bad s is named before a bad value
    values = _checked_values(plain, "plaintext value")
    return [value * weight for (weight, _), value in zip(slots, values)]


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
    values = encode_text(plaintext, fold_case=fold_case)
    pairs = []
    for (weight, memo), value in zip(_schedule_slots(s, len(values)), values):
        pair = memo.get(value)
        if pair is None:
            pair = memo[value] = split_mod26(value * weight)
        pairs.append(pair)
    residues = tuple(map(itemgetter(1), pairs))  # not zip(*pairs): n iterators wake the GC
    return CipherText(residues), CipherKey(s, tuple(map(itemgetter(0), pairs)))


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
    values = []
    for position, ((divisor, memo), quotient, residue) in enumerate(
        zip(_schedule_slots(key.s, len(ciphertext)), key.quotients, ciphertext.residues),
        start=1,
    ):
        value = memo.get((quotient, residue))
        if value is None:
            coefficient = quotient * MODULUS + residue
            value, remainder = divmod(coefficient, divisor)
            if remainder != 0:
                raise NotDivisible(position, coefficient, divisor)
            if not 1 <= value <= MODULUS:
                raise ValueOutOfRange(value, f"recovered value at position {position}")
            memo[quotient, residue] = value
        values.append(value)
    return decode_values(values)


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
