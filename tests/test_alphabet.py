import pytest
from hypothesis import given, strategies as st

from mellin_cipher.alphabet import ALPHABET, decode_values, encode_text
from mellin_cipher.errors import NonAlphabetCharacter, ValueOutOfRange


def test_char_to_value_known():
    assert encode_text("H") == [8]
    assert encode_text("A") == [1]
    assert encode_text("Z") == [26]


def test_value_to_char_known():
    assert decode_values([10]) == "J"
    assert decode_values([14]) == "N"
    assert decode_values([1]) == "A"


def test_bijection():
    assert encode_text(ALPHABET) == list(range(1, 27))
    assert decode_values(range(1, 27)) == ALPHABET
    for v in range(1, 27):
        assert encode_text(decode_values([v])) == [v]
    for c in ALPHABET:
        assert decode_values(encode_text(c)) == c


def test_encode_text_known():
    assert encode_text("HELLO") == [8, 5, 12, 12, 15]
    assert encode_text("") == []
    assert encode_text("AB") == [1, 2]


def test_encode_text_fold_case():
    assert encode_text("hello") == [8, 5, 12, 12, 15]
    with pytest.raises(NonAlphabetCharacter):
        encode_text("hello", fold_case=False)


@pytest.mark.parametrize("bad", ["a", " ", "3", "!", "Ä"])
def test_encode_text_rejects(bad):
    with pytest.raises(NonAlphabetCharacter) as exc_info:
        encode_text("AB" + bad, fold_case=False)
    assert exc_info.value.index == 2


def test_encode_text_reports_position():
    with pytest.raises(NonAlphabetCharacter) as exc_info:
        encode_text("AB CD")
    assert exc_info.value.index == 2
    assert exc_info.value.char == " "


def test_decode_values_known():
    assert decode_values([8, 5, 12, 12, 15]) == "HELLO"
    assert decode_values([]) == ""
    # residues of [48, 120, 1440, 8640, 90] mod 26, fifth letter forced
    # to L by 90 = 3*26 + 12
    assert decode_values([22, 16, 10, 8, 12]) == "VPJHL"


@pytest.mark.parametrize("bad", [0, 27, -1, 100])
def test_decode_values_rejects(bad):
    with pytest.raises(ValueOutOfRange):
        decode_values([bad])


def test_decode_values_rejects_with_index():
    with pytest.raises(ValueOutOfRange) as exc_info:
        decode_values([1, 2, 27])
    assert "index 2" in str(exc_info.value)


@given(st.text(alphabet=ALPHABET))
def test_round_trip_text(text):
    assert decode_values(encode_text(text)) == text


@given(st.lists(st.integers(min_value=1, max_value=26)))
def test_round_trip_values(values):
    assert encode_text(decode_values(values)) == values
