import copy
import inspect
import pickle

import pytest

from mellin_cipher import errors
from mellin_cipher.cipher import CipherKey
from mellin_cipher.errors import (
    BadField,
    BadMagic,
    CipherToolkitError,
    CountMismatch,
    ExactnessBoundExceeded,
    InvalidParameter,
    InvalidScale,
    KeyFormatError,
    LengthMismatch,
    NonAlphabetCharacter,
    NonCanonicalInteger,
    NonPositiveInput,
    NotDivisible,
    TrailingGarbage,
    ValueOutOfRange,
)


def _rewritten_by_cipher_key():
    with pytest.raises(ValueOutOfRange) as exc_info:
        CipherKey(4, (7, -1))
    return exc_info.value  # args say "quotient at index 1 ...", not what __init__ would write


_ERRORS = {
    "base": lambda: CipherToolkitError("toolkit failure"),
    "non-alphabet": lambda: NonAlphabetCharacter("?", 3, "plaintext"),
    "out-of-range": lambda: ValueOutOfRange(27),
    "out-of-range-rewritten": _rewritten_by_cipher_key,
    "invalid-parameter": lambda: InvalidParameter("secret parameter s must be >= 1, got 0"),
    "non-positive": lambda: NonPositiveInput("expected a positive integer, got 0"),
    "length-mismatch": lambda: LengthMismatch("ciphertext has 2 letters but key has 1 quotients"),
    "not-divisible": lambda: NotDivisible(2, 24, 5040),
    "not-divisible-gated": lambda: NotDivisible._below_factorial(1, 192, 20),  # .divisor not read yet
    "exactness": lambda: ExactnessBoundExceeded(40, 30),
    "invalid-scale": lambda: InvalidScale("scale must be > 0, got 0"),
    "key-format": lambda: KeyFormatError("bad key"),
    "bad-magic": lambda: BadMagic("line 1: expected 'MELLIN-KEY-V1'"),
    "bad-field": lambda: BadField(3, "expected 'q1=<int>'"),
    "count-mismatch": lambda: CountMismatch("n=5 but 4 quotient lines"),
    "non-canonical": lambda: NonCanonicalInteger(4, "007"),
    "trailing-garbage": lambda: TrailingGarbage("line 9: unexpected content"),
}

_COPIES = {
    "pickle": lambda error: pickle.loads(pickle.dumps(error)),
    "pickle-protocol-0": lambda error: pickle.loads(pickle.dumps(error, protocol=0)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}


def test_every_error_class_has_a_case():
    classes = {cls for _, cls in inspect.getmembers(errors, inspect.isclass)}
    assert {cls for cls in classes if issubclass(cls, CipherToolkitError)} == {
        type(make()) for make in _ERRORS.values()
    }


@pytest.mark.parametrize("how", _COPIES)
@pytest.mark.parametrize("name", _ERRORS)
def test_error_survives_pickle_and_copy(name, how):
    error = _ERRORS[name]()
    fields = dict(vars(error))  # before the copy: a gated NotDivisible has no divisor yet
    twin = _COPIES[how](error)
    assert type(twin) is type(error)
    assert (str(twin), twin.args, vars(twin)) == (str(error), error.args, fields)
    if isinstance(error, NotDivisible):
        assert twin.divisor == error.divisor
