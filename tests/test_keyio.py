import pytest
from hypothesis import given, strategies as st

from mellin_cipher.cipher import CipherKey, CipherText
from mellin_cipher.errors import (
    BadField,
    BadMagic,
    CountMismatch,
    KeyFormatError,
    NonAlphabetCharacter,
    NonCanonicalInteger,
    TrailingGarbage,
)
from mellin_cipher.keyio import read_ciphertext, read_key, write_ciphertext, write_key

EXAMPLE_KEY = CipherKey(4, (7, 23, 332, 2326, 23261))
EXAMPLE_KEY_BYTES = b"MELLIN-KEY-V1\ns=4\nn=5\nq1=7\nq2=23\nq3=332\nq4=2326\nq5=23261\n"


def test_write_key_exact_bytes():
    assert write_key(EXAMPLE_KEY) == EXAMPLE_KEY_BYTES


def test_write_key_empty():
    assert write_key(CipherKey(3, ())) == b"MELLIN-KEY-V1\ns=3\nn=0\n"


def test_write_key_second_example():
    data = write_key(CipherKey(3, (1, 4, 55, 332, 3)))
    assert data == b"MELLIN-KEY-V1\ns=3\nn=5\nq1=1\nq2=4\nq3=55\nq4=332\nq5=3\n"


def test_read_key_round_trip():
    assert read_key(EXAMPLE_KEY_BYTES) == EXAMPLE_KEY


def test_read_key_huge_quotient():
    key = CipherKey(9, (10**50 + 7, 0, 12))
    assert read_key(write_key(key)) == key


def test_read_key_bad_magic():
    with pytest.raises(BadMagic):
        read_key(b"MELLIN-KEY-V2\ns=4\nn=0\n")
    with pytest.raises(BadMagic):
        read_key(b"")


def test_read_key_count_mismatch():
    with pytest.raises(CountMismatch):
        read_key(b"MELLIN-KEY-V1\ns=4\nn=2\nq1=7\nq2=23\nq3=332\n")
    with pytest.raises(CountMismatch):
        read_key(b"MELLIN-KEY-V1\ns=4\nn=2\nq1=7\n")


def test_read_key_non_canonical_integer():
    with pytest.raises(NonCanonicalInteger):
        read_key(b"MELLIN-KEY-V1\ns=4\nn=1\nq1=007\n")
    with pytest.raises(NonCanonicalInteger):
        read_key(b"MELLIN-KEY-V1\ns=4\nn=1\nq1=+7\n")
    with pytest.raises(NonCanonicalInteger):
        read_key(b"MELLIN-KEY-V1\ns=4\nn=1\nq1=-7\n")
    with pytest.raises(NonCanonicalInteger):
        read_key(b"MELLIN-KEY-V1\ns=04\nn=0\n")
    with pytest.raises(NonCanonicalInteger):
        read_key(b"MELLIN-KEY-V1\ns=4\nn=1\nq1=\n")


def test_read_key_bad_field():
    with pytest.raises(BadField):
        read_key(b"MELLIN-KEY-V1\nz=4\nn=0\n")
    with pytest.raises(BadField):
        read_key(b"MELLIN-KEY-V1\ns=4\nm=0\n")
    with pytest.raises(BadField):
        read_key(b"MELLIN-KEY-V1\ns=4\nn=2\nq2=7\nq1=23\n")  # indices must ascend
    with pytest.raises(BadField):
        read_key(b"MELLIN-KEY-V1\ns=0\nn=0\n")
    with pytest.raises(BadField):
        read_key(b"MELLIN-KEY-V1\ns=4\n")  # n line missing


@pytest.mark.parametrize("field, line", [("s", 2), ("q1", 4)])
def test_read_key_rejects_integer_past_digit_limit(digit_limit, field, line):
    wide = "1" + "0" * digit_limit
    fields = {"s": "4", "q1": "7", field: wide}
    data = f"MELLIN-KEY-V1\ns={fields['s']}\nn=1\nq1={fields['q1']}\n".encode()
    with pytest.raises(BadField) as exc_info:
        read_key(data)
    assert exc_info.value.line == line
    assert f"more than {digit_limit} digits" in str(exc_info.value)


def test_write_key_rejects_integer_past_digit_limit(digit_limit):
    with pytest.raises(KeyFormatError, match=f"more than {digit_limit} digits"):
        write_key(CipherKey(4, (7, 10**digit_limit)))
    with pytest.raises(KeyFormatError):
        write_key(CipherKey(10**digit_limit, ()))


@pytest.mark.parametrize("over", [0, 1])
def test_reader_and_writer_share_digit_limit(digit_limit, over):
    digits = digit_limit + over
    key = CipherKey(1, (10 ** (digits - 1),))
    data = b"MELLIN-KEY-V1\ns=1\nn=1\nq1=1" + b"0" * (digits - 1) + b"\n"
    if digits <= digit_limit:
        assert write_key(key) == data
        assert read_key(data) == key
    else:
        with pytest.raises(KeyFormatError):
            write_key(key)
        with pytest.raises(KeyFormatError):
            read_key(data)


def test_read_key_rejects_cr():
    with pytest.raises(BadField) as exc_info:
        read_key(b"MELLIN-KEY-V1\r\ns=4\nn=0\n")
    assert "CR" in str(exc_info.value)


def test_read_key_missing_final_newline():
    with pytest.raises(BadField):
        read_key(EXAMPLE_KEY_BYTES[:-1])


def test_read_key_trailing_garbage():
    with pytest.raises(TrailingGarbage):
        read_key(EXAMPLE_KEY_BYTES + b"\n")
    with pytest.raises(TrailingGarbage):
        read_key(EXAMPLE_KEY_BYTES + b"extra\n")


def test_write_ciphertext():
    assert write_ciphertext(CipherText((10, 2, 8, 4, 14))) == b"JBHDN\n"
    assert write_ciphertext(CipherText(())) == b"\n"


def test_read_ciphertext_round_trip():
    ct = CipherText((10, 2, 8, 4, 14))
    assert read_ciphertext(write_ciphertext(ct)) == ct
    assert read_ciphertext(b"\n") == CipherText(())


def test_read_ciphertext_rejects_embedded_space():
    with pytest.raises(NonAlphabetCharacter) as exc_info:
        read_ciphertext(b"JB HDN\n")
    assert exc_info.value.index == 2


def test_read_ciphertext_rejects_lowercase():
    with pytest.raises(NonAlphabetCharacter):
        read_ciphertext(b"jbhdn\n")


def test_read_ciphertext_structure_errors():
    with pytest.raises(BadField):
        read_ciphertext(b"JBHDN")  # no trailing newline
    with pytest.raises(TrailingGarbage):
        read_ciphertext(b"JBH\nDN\n")
    with pytest.raises(BadField):
        read_ciphertext(b"JBHDN\r\n")


key_strategy = st.builds(
    CipherKey,
    st.integers(min_value=1, max_value=10**6),
    st.lists(st.integers(min_value=0, max_value=10**70), max_size=30).map(tuple),
)


@given(key_strategy)
def test_key_round_trip_property(key):
    data = write_key(key)
    assert read_key(data) == key
    assert write_key(read_key(data)) == data


@given(st.lists(st.integers(min_value=1, max_value=26), max_size=64).map(tuple))
def test_ciphertext_round_trip_property(residues):
    ct = CipherText(residues)
    assert read_ciphertext(write_ciphertext(ct)) == ct
