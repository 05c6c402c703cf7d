import pytest
from hypothesis import example, given, settings, strategies as st

from mellin_cipher.alphabet import ALPHABET, decode_values, encode_text
from mellin_cipher.cipher import encrypt
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


# The per-letter loops that the translate tables replaced, kept as references.


def _reference_encode_text(text, fold_case=True):
    # upper() folds each character alone; a bad folded character is named at its source's index
    values = []
    for index, char in enumerate(text):
        for folded in char.upper() if fold_case else char:
            if not "A" <= folded <= "Z":
                raise NonAlphabetCharacter(folded, index, "plaintext")
            values.append(ord(folded) - ord("A") + 1)
    return values


def _reference_decode_values(values):
    chars = []
    for index, value in enumerate(values):
        if not 1 <= value <= 26:
            raise ValueOutOfRange(value, f"value at index {index}")
        chars.append(chr(ord("A") + value - 1))
    return "".join(chars)


def _outcome(function, *args):
    try:
        return function(*args)
    except (NonAlphabetCharacter, ValueOutOfRange) as exc:
        # vars() holds .index and .char, or .value; its type tells False from 0
        return type(exc), str(exc), [(k, type(v), v) for k, v in vars(exc).items()]


# mostly letters, then characters that upper() turns into ASCII letters
# ("ß" -> "SS", "ﬁ" -> "FI", "ı" -> "I"), other non-ASCII, and anything at all
_texts = st.text(
    alphabet=st.one_of(
        st.sampled_from(ALPHABET + ALPHABET.lower()),
        st.sampled_from("ßﬁıÄäéÿ\u0100\U0001d400 !3\x00\x7f\n"),
        st.characters(),
    ),
    max_size=40,
)
# mostly letter values, then every kind of value the range check must name
_values = st.lists(
    st.one_of(
        st.integers(1, 26),
        st.integers(-300, 300),
        st.integers(min_value=2**63),
        st.integers(max_value=-(2**63)),
        st.booleans(),
    ),
    max_size=40,
)


@given(_texts, st.booleans())
@example("straße", True)
@example("ﬁx", True)
@example("ıi", True)
@example("ıi", False)
@settings(max_examples=400)
def test_encode_text_matches_reference(text, fold_case):
    expected = _outcome(_reference_encode_text, text, fold_case)
    assert _outcome(encode_text, text, fold_case) == expected


def test_fold_names_the_index_in_the_callers_text():
    for function in (encode_text, lambda text: encrypt(text, 4)):
        with pytest.raises(NonAlphabetCharacter) as exc_info:
            function("ßx!")
        assert (exc_info.value.char, exc_info.value.index) == ("!", 2)
        assert str(exc_info.value) == "non-alphabet character '!' at index 2 in plaintext"


@given(st.tuples(_texts, st.sampled_from("ßﬁﬃŉ"), _texts).map("".join))  # each folds into 2 or 3 characters
@example("ßx!")
@example("ŉ")  # upper() gives "ʼN": the stray is the fold's first character
@example("ﬁ\u0149")
def test_fold_error_points_into_the_callers_text(text):
    for function in (encode_text, lambda text: encrypt(text, 4)):
        try:
            function(text)
        except NonAlphabetCharacter as exc:
            assert exc.char in text[exc.index].upper()
            assert not text[: exc.index].upper().lstrip(ALPHABET)  # it is the first bad character


@given(_values, st.sampled_from([list, tuple, iter]))
@example([100], iter)
@example([1, True, False], list)
@example([26, 27, 10**30], iter)
@settings(max_examples=400)
def test_decode_values_matches_reference(values, container):
    expected = _outcome(_reference_decode_values, container(values))
    assert _outcome(decode_values, container(values)) == expected


@given(st.integers(-30, 60), st.integers(-30, 60), st.integers(1, 3))
def test_decode_values_of_range_matches_reference(start, stop, step):
    values = range(start, stop, step)
    assert _outcome(decode_values, values) == _outcome(_reference_decode_values, values)
