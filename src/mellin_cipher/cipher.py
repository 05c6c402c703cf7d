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

import functools
import itertools
import math
import operator
import sys
from collections.abc import Callable, Iterable, Iterator, Sequence
from operator import getitem, mul

from .alphabet import _TO_LETTERS, _checked_values, _letter_values
from .errors import (
    InvalidParameter,
    LengthMismatch,
    NonPositiveInput,
    NotDivisible,
    ValueOutOfRange,
    _render_int,
)

MODULUS = 26
_EXACT_S = 10_000  # decrypt computes s! for an s up to this and refuses a larger one by size first


class _Record:
    """Immutable record whose fields are its ``__slots__``.

    Equality (same class only), hashing, the ``Name(field=value, ...)``
    repr, pickling and copying all follow the slots. Each subclass
    validates and stores its fields in an ``__init__`` of its own; after
    that, assigning or deleting a field raises ``AttributeError``.
    """

    __slots__ = ()

    @classmethod
    def _from_checked(cls, *values):  # field values the caller has checked: __init__ does not run
        record = object.__new__(cls)
        for name, value in zip(cls.__slots__, values):
            object.__setattr__(record, name, value)
        return record

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


class _Memo(dict):
    """A dict that fills a missing key with ``compute(key)``: only a miss costs a Python frame."""

    __slots__ = ("compute",)

    def __init__(self, compute: Callable):
        self.compute = compute

    def __missing__(self, key):
        value = self[key] = self.compute(key)
        return value


class CipherText(_Record):
    """Sequence of mod-26 residues, each represented in 1..26."""

    __slots__ = ("residues",)

    def __init__(self, residues: Iterable[int]):
        residues = tuple(residues)  # the same object for a tuple
        _checked_values(residues, "residue")
        object.__setattr__(self, "residues", residues)

    @classmethod
    def from_letters(cls, text: str) -> "CipherText":
        return cls._from_checked(tuple(_letter_values(text, "ciphertext")))

    @property
    def letters(self) -> str:
        """The ciphertext as an uppercase string."""
        return bytes(self.residues).translate(_TO_LETTERS).decode()  # each residue is in 1..26

    def __len__(self) -> int:
        return len(self.residues)


def _check_s(s: int) -> int:  # s as an exact int
    if (checked := operator.index(s)) < 1:  # a float s raises TypeError, as range and math.factorial do
        raise InvalidParameter(f"secret parameter s must be >= 1, got {_render_int(s)}")
    return checked


class CipherKey(_Record):
    """Private key: the secret parameter s plus one quotient per position."""

    __slots__ = ("s", "quotients")

    def __init__(self, s: int, quotients: Iterable[int] = ()):
        s = _check_s(s)
        quotients = tuple(map(operator.index, quotients))  # exact ints: a float or Fraction is a TypeError
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
    s = _check_s(s)
    if not 0 <= (n := operator.index(n)) <= sys.maxsize:  # a float n raises TypeError
        raise InvalidParameter(f"schedule length must be in 0..sys.maxsize, got {_render_int(n)}")
    return list(itertools.islice(itertools.cycle(range(s, 2 * s + 1)), n))


def _factorials(s: int) -> Iterator[int]:
    """(s + slot)! for schedule slots 0..s in order, for a checked s.

    Lazy: the first draw makes s! by one ``math.factorial``, each later draw
    is one product. A caller that stops early (a corrupted key, say) pays for
    no factorial past the slots it drew, and one that draws none for none: an
    s above sys.maxsize raises InvalidParameter at the first draw, so an empty
    message still encrypts and decrypts under it.
    """
    if s > sys.maxsize:  # math.factorial cannot take it
        raise InvalidParameter(f"secret parameter s must be <= sys.maxsize, got {_render_int(s)}")
    yield from itertools.accumulate(range(s + 1, 2 * s + 1), mul, initial=math.factorial(s))


def transform_coefficients(plain: Sequence[int], s: int) -> list[int]:
    """Scale each letter value by the factorial of its schedule exponent."""
    s = _check_s(s)  # a bad s is named before a bad value
    values = _checked_values(plain, "plaintext value")
    return list(map(mul, values, itertools.cycle(itertools.islice(_factorials(s), len(values)))))


def split_mod26(n: int) -> tuple[int, int]:
    """Split n >= 1 into (quotient, residue) with the residue in 1..26.

    Always satisfies quotient * 26 + residue == n; when 26 divides n the
    residue is 26 and the quotient drops by one, so every residue maps to
    a letter.
    """
    if (n := operator.index(n)) < 1:  # a float n raises TypeError
        raise NonPositiveInput(f"expected a positive integer, got {_render_int(n)}")
    quotient, residue = divmod(n - 1, MODULUS)
    return quotient, residue + 1


def encrypt(plaintext: str, s: int, fold_case: bool = True) -> tuple[CipherText, CipherKey]:
    """Encrypt an 'A'..'Z' string under secret parameter s.

    Returns the ciphertext residues and the private key (s plus the
    per-position quotients). Deterministic: equal inputs give equal outputs.
    With ``fold_case`` (the default) the plaintext is first uppercased by
    ``str.upper()``, as :func:`encode_text` does, which can change its length
    and turn a non-ASCII character into letters ("straße" is encrypted as
    "STRASSE").
    """
    values = _letter_values(plaintext, "plaintext", fold_case)
    s, residues, quotients = _check_s(s), bytearray(len(values)), [0] * len(values)
    for slot, factorial in enumerate(itertools.islice(_factorials(s), len(values))):  # one per column
        column, residue_of, quotient_of = values[slot :: s + 1], bytearray(256), [0] * 27
        for value in set(column):  # split each value the column holds, and only those
            quotient_of[value], residue_of[value] = split_mod26(value * factorial)
        residues[slot :: s + 1] = column.translate(residue_of)
        quotients[slot :: s + 1] = map(quotient_of.__getitem__, column)
    return CipherText._from_checked(tuple(residues)), CipherKey._from_checked(s, tuple(quotients))


_NO_ROW = bytes(MODULUS + 1)  # the one row of every quotient under which no residue decrypts


def _letter_row(weight: int, quotient: int) -> bytes:
    """At index r, the letter value of ``quotient * 26 + r`` for a slot's factorial ``weight``, or 0."""
    value, excess = divmod((quotient + 1) * MODULUS, weight)
    # r = 26 - excess makes quotient * 26 + r value times weight, each r weight lower once less; value > 26
    # makes every r more than 26 times, and excess >= 26 (value 0 implies it) leaves no r: the no-row early return
    if value > MODULUS or excess >= MODULUS:
        return _NO_ROW
    row = bytearray(_NO_ROW)
    for residue in range(MODULUS - excess, 0, -weight):
        row[residue] = value
        value -= 1
    return row


def decrypt(ciphertext: CipherText, key: CipherKey) -> str:
    """Recover the plaintext from a ciphertext and its private key.

    Each coefficient quotient * 26 + residue must be its schedule factorial
    times a letter value 1..26; :class:`NotDivisible` or :class:`ValueOutOfRange`
    names the first position (1-based) where it is not. Above s = 10**4, a key
    whose s! provably exceeds its first coefficient is refused by bit length
    before any factorial is computed: the :class:`NotDivisible` names s, and
    computes its ``divisor`` s! only when that is read.
    """
    if len(ciphertext) != len(key):
        raise LengthMismatch(f"ciphertext has {len(ciphertext)} letters but key has {len(key)} quotients")
    residues = bytes(ciphertext.residues)  # a column slice: 1/8 a tuple's
    if key.quotients and _EXACT_S < key.s <= sys.maxsize:  # c1 = g1 * s! cannot hold if s! > c1: prove it by size
        m, c1 = key.s // 2, key.quotients[0] * MODULUS + residues[0]  # s! > m**m >= 2**(m * (m.bit_length() - 1))
        if m * (m.bit_length() - 1) >= c1.bit_length():
            raise NotDivisible._below_factorial(1, c1, key.s)  # with no s! computed
    values, first, divisor = _decode(key.s, key.quotients, residues)
    if first < len(values):  # the decoder reports the first fault, and only decrypt raises it
        coefficient = key.quotients[first] * MODULUS + residues[first]
        value, remainder = divmod(coefficient, divisor)
        if remainder != 0:
            raise NotDivisible(first + 1, coefficient, divisor)
        raise ValueOutOfRange(value, f"recovered value at position {first + 1}")
    return values.translate(_TO_LETTERS).decode()  # each value is a row's, so in 1..26


def _decode(s: int, quotients: tuple, residues: bytes) -> tuple:  # one schedule column at a time; reports a fault
    values, first, divisor = bytearray(len(quotients)), len(quotients), 0  # the first fault (n: none), its factorial
    for slot, factorial in enumerate(itertools.islice(_factorials(s), len(quotients))):  # one per column
        rows = _Memo(functools.partial(_letter_row, factorial))  # one exact division per distinct quotient
        column = bytes(map(getitem, map(rows.__getitem__, quotients[slot :: s + 1]), residues[slot :: s + 1]))
        values[slot :: s + 1] = column
        if 0 in column and (position := slot + column.index(0) * (s + 1)) < first:  # the earliest fault yet
            first, divisor = position, factorial
        if first == slot:  # every later column starts after the first fault: draw no more factorials
            break
    return values, first, divisor


def recover_s(ciphertext: CipherText, quotients: Iterable[int], max_s: int) -> set[int]:
    """Every s in 1..max_s under which (ciphertext, quotients) decrypts cleanly.

    This is the attack the quotient key invites: an eavesdropper holding the
    quotients needs no shared s, only a short scan. The true s is always in
    the returned set when max_s reaches it; small messages may admit several
    candidates, hence a set. A letter other than Z rules out every s >= 13, so
    only an all-Z ciphertext is scanned past s = 12, up to max_s. An empty
    message returns every s in 1..max_s, so its memory is linear in max_s:
    the caller asked for that many values. The CLI streams the same values in
    ascending order.
    """
    return set(_candidates(ciphertext, quotients, max_s))


def _candidates(ciphertext: CipherText, quotients: Iterable[int], max_s: int) -> Iterable[int]:
    """recover_s's values in ascending order, lazily: every input is checked before this returns."""
    quotients = tuple(quotients)
    if len(ciphertext) != len(quotients):
        raise LengthMismatch(f"ciphertext has {len(ciphertext)} letters but {len(quotients)} quotients given")
    if operator.index(max_s) < 1:  # a float max_s is a TypeError
        raise InvalidParameter(f"max_s must be >= 1, got {_render_int(max_s)}")
    if not quotients:  # no letter can fail, so every s decrypts cleanly
        return range(1, max_s + 1)
    try:
        quotients = CipherKey(1, quotients).quotients  # the check a key of each s would run, run once
    except ValueOutOfRange:  # a negative quotient: no key holds it, so no s decrypts
        return ()
    residues, n = bytes(ciphertext.residues), len(quotients)
    candidates = range(1, max_s + 1)
    if residues.count(MODULUS) != n:  # 26 divides e! for e >= 13: an s >= 13 makes every letter Z
        candidates = candidates[:12]
    return (s for s in candidates if _decode(s, quotients, residues)[1] == n)  # fault index n: none
