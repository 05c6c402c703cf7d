"""The immutable records: CipherText, CipherKey and OracleResult."""

import copy
import pickle

import pytest

from mellin_cipher.cipher import CipherKey, CipherText, encrypt
from mellin_cipher.keyio import read_ciphertext, read_key, write_ciphertext, write_key
from mellin_cipher.oracle import OracleResult

# one record per class with its exact repr, and a record of the same class that differs
_RECORDS = {
    "CipherText": (
        CipherText((10, 2, 8, 4, 14)),
        "CipherText(residues=(10, 2, 8, 4, 14))",
        CipherText((10, 2, 8, 4, 15)),
    ),
    "CipherKey": (
        CipherKey(4, (7, 23, 332, 2326, 23261)),
        "CipherKey(s=4, quotients=(7, 23, 332, 2326, 23261))",
        CipherKey(5, (7, 23, 332, 2326, 23261)),
    ),
    "OracleResult": (
        OracleResult(40320.000000000044, 40320, 1.0827317878249147e-15),
        "OracleResult(numeric=40320.000000000044, exact=40320, relative_error=1.0827317878249147e-15)",
        OracleResult(40320.000000000044, 40320, 0.0),
    ),
}


@pytest.mark.parametrize("name", _RECORDS)
def test_record_equality_hash_and_repr(name):
    record, text, other = _RECORDS[name]
    twin = eval(text)
    assert twin == record and not twin != record
    assert hash(twin) == hash(record)
    assert record != other
    assert repr(record) == text


def test_records_of_different_classes_are_unequal():
    records = [record for record, _, _ in _RECORDS.values()]
    for one in records:
        for two in records:
            assert (one == two) is (one is two)
    # same field values, different class
    assert CipherText((4,)) != CipherKey(4) and CipherKey(4) != (4, ())


@pytest.mark.parametrize("name", _RECORDS)
def test_record_fields_cannot_change(name):
    record, text, _ = _RECORDS[name]
    for field in type(record).__slots__:
        with pytest.raises(AttributeError):
            setattr(record, field, 1)
        with pytest.raises(AttributeError):
            delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert repr(record) == text


@pytest.mark.parametrize("name", _RECORDS)
@pytest.mark.parametrize(
    "clone",
    [lambda r: pickle.loads(pickle.dumps(r)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"],
)
def test_record_round_trips(name, clone):
    record, text, _ = _RECORDS[name]
    twin = clone(record)
    assert type(twin) is type(record)
    assert twin == record and repr(twin) == text


def test_record_keyword_construction():
    assert CipherText(residues=(1, 26)) == CipherText((1, 26))
    assert CipherKey(s=4, quotients=(7, 23)) == CipherKey(4, (7, 23))
    assert CipherKey(4) == CipherKey(4, ()) == CipherKey(s=4)
    assert CipherKey(4).quotients == ()
    assert OracleResult(numeric=2.0, exact=2, relative_error=0.0) == OracleResult(2.0, 2, 0.0)
    assert OracleResult.from_numeric(3.0, 2) == OracleResult(3.0, 2, 0.5)


@pytest.mark.parametrize("convert", [iter, list, lambda values: range(values[0], values[-1] + 1)])
def test_records_store_a_tuple_of_any_iterable(convert):
    key, text = CipherKey(4, convert((7, 8, 9))), CipherText(convert((1, 2, 3)))
    assert key == CipherKey(4, (7, 8, 9)) and hash(key) == hash(CipherKey(4, (7, 8, 9)))
    assert text == CipherText((1, 2, 3)) and hash(text) == hash(CipherText((1, 2, 3)))
    assert len(key) == len(text) == 3
    assert repr(key) == "CipherKey(s=4, quotients=(7, 8, 9))"


def _sealed_and_opened(s):
    """Records built without a second check: by encrypt, read_key, read_ciphertext and from_letters."""
    ciphertext, key = encrypt("HELLOWORLD" * 3, s)
    return [
        (ciphertext, CipherText(list(ciphertext.residues))),
        (key, CipherKey(s, list(key.quotients))),
        (read_key(write_key(key)), CipherKey(s, list(key.quotients))),
        (read_ciphertext(write_ciphertext(ciphertext)), CipherText(list(ciphertext.residues))),
        (CipherText.from_letters(ciphertext.letters), CipherText(list(ciphertext.residues))),
    ]


@pytest.mark.parametrize("s", [1, 4, 64])
def test_records_checked_once_equal_public_ones(s):
    for record, public in _sealed_and_opened(s):
        assert type(record) is type(public)
        assert record == public and public == record
        assert hash(record) == hash(public)
        assert repr(record) == repr(public)
        twin = pickle.loads(pickle.dumps(record))  # rebuilt through the public constructor
        assert type(twin) is type(record) and twin == public and repr(twin) == repr(public)
        for name in type(record).__slots__:  # the same field types, a tuple for a sequence
            assert type(getattr(record, name)) is type(getattr(public, name))
