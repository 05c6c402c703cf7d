import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mellin_cipher import cipher
from mellin_cipher.alphabet import ALPHABET, decode_values, encode_text
from mellin_cipher.cipher import (
    CipherKey,
    CipherText,
    decrypt,
    encrypt,
    exponent_schedule,
    recover_s,
    split_mod26,
    transform_coefficients,
)
from mellin_cipher.errors import (
    CipherToolkitError,
    InvalidParameter,
    LengthMismatch,
    NonAlphabetCharacter,
    NonPositiveInput,
    NotDivisible,
    ValueOutOfRange,
    _render_int,
)

plaintexts = st.text(alphabet=ALPHABET, max_size=64)
secret_params = st.integers(min_value=1, max_value=12)


def test_exponent_schedule_known():
    assert exponent_schedule(4, 5) == [4, 5, 6, 7, 8]
    assert exponent_schedule(3, 5) == [3, 4, 5, 6, 3]
    assert exponent_schedule(1, 4) == [1, 2, 1, 2]
    assert exponent_schedule(5, 0) == []


def test_exponent_schedule_rejects():
    with pytest.raises(InvalidParameter):
        exponent_schedule(0, 5)
    with pytest.raises(InvalidParameter):
        exponent_schedule(3, -1)


@given(st.integers(min_value=1, max_value=20), st.integers(min_value=0, max_value=200))
def test_exponent_schedule_periodic(s, n):
    schedule = exponent_schedule(s, n)
    assert len(schedule) == n
    for i, e in enumerate(schedule):
        assert e == s + (i % (s + 1))
        if i + s + 1 < n:
            assert schedule[i + s + 1] == e


def test_transform_coefficients_known():
    assert transform_coefficients([8, 5, 12, 12, 15], 4) == [192, 600, 8640, 60480, 604800]
    assert transform_coefficients([8, 5, 12, 12, 15], 3) == [48, 120, 1440, 8640, 90]
    assert transform_coefficients([1], 1) == [1]


def test_transform_coefficients_rejects_bad_value():
    with pytest.raises(ValueOutOfRange):
        transform_coefficients([8, 0], 4)


def test_split_mod26_known():
    assert split_mod26(192) == (7, 10)
    assert split_mod26(604800) == (23261, 14)
    assert split_mod26(26) == (0, 26)
    assert split_mod26(1) == (0, 1)
    assert split_mod26(52) == (1, 26)


def test_split_mod26_rejects():
    with pytest.raises(NonPositiveInput):
        split_mod26(0)
    with pytest.raises(NonPositiveInput):
        split_mod26(-26)


@given(st.integers(min_value=1, max_value=10**80))
def test_split_mod26_reconstructs(n):
    quotient, residue = split_mod26(n)
    assert 1 <= residue <= 26
    assert quotient >= 0
    assert quotient * 26 + residue == n


def test_encrypt_first_worked_example():
    ciphertext, key = encrypt("HELLO", 4)
    assert ciphertext.letters == "JBHDN"
    assert ciphertext.residues == (10, 2, 8, 4, 14)
    assert key == CipherKey(4, (7, 23, 332, 2326, 23261))


def test_encrypt_second_worked_example():
    ciphertext, key = encrypt("HELLO", 3)
    assert ciphertext.residues == (22, 16, 10, 8, 12)
    assert ciphertext.letters == "VPJHL"
    assert key == CipherKey(3, (1, 4, 55, 332, 3))


def test_encrypt_empty():
    ciphertext, key = encrypt("", 7)
    assert ciphertext.letters == ""
    assert key == CipherKey(7, ())


def test_encrypt_folds_case_by_default():
    assert encrypt("hello", 4) == encrypt("HELLO", 4)


def test_same_plaintext_different_s_diverges():
    assert encrypt("HELLO", 4)[0].letters != encrypt("HELLO", 3)[0].letters


def test_decrypt_first_worked_example():
    plaintext = decrypt(CipherText.from_letters("JBHDN"), CipherKey(4, (7, 23, 332, 2326, 23261)))
    assert plaintext == "HELLO"


def test_decrypt_second_worked_example():
    plaintext = decrypt(CipherText.from_letters("VPJHL"), CipherKey(3, (1, 4, 55, 332, 3)))
    assert plaintext == "HELLO"


def test_decrypt_empty():
    assert decrypt(CipherText(()), CipherKey(5, ())) == ""


def test_decrypt_length_mismatch():
    with pytest.raises(LengthMismatch):
        decrypt(CipherText.from_letters("JB"), CipherKey(4, (7,)))


def test_decrypt_corrupted_quotient_not_divisible():
    # 23260*26 + 14 = 604774, not a multiple of 8! = 40320
    with pytest.raises(NotDivisible) as exc_info:
        decrypt(CipherText.from_letters("JBHDN"), CipherKey(4, (7, 23, 332, 2326, 23260)))
    assert exc_info.value.position == 5
    assert exc_info.value.value == 604774


def test_decrypt_corrupted_quotient_out_of_range():
    # doubling q1 keeps divisibility by 4! but pushes the value past 26:
    # (14*26 + 10) / 24 = 374/24 no; use q1 such that value = 27: 27*24 = 648 = 24*26 + 24
    with pytest.raises(ValueOutOfRange):
        decrypt(CipherText((24,)), CipherKey(4, (24,)))


def test_errors_render_wide_integers_as_bit_lengths():
    with pytest.raises(NotDivisible) as exc_info:
        decrypt(CipherText.from_letters("JBHDN"), CipherKey(4, (7, 23, 332, 2326, 23260)))
    assert str(exc_info.value) == "coefficient 604774 at position 5 is not divisible by 40320"
    # 2000! has 5736 digits, past the 4300-digit int -> str limit
    with pytest.raises(NotDivisible) as exc_info:
        decrypt(CipherText.from_letters("JBHDN"), CipherKey(2000, (7, 23, 332, 2326, 23261)))
    assert exc_info.value.divisor == math.factorial(2000)
    assert f"by <{math.factorial(2000).bit_length()}-bit integer>" in str(exc_info.value)
    coefficient = 10**4299 * 26 + 1
    with pytest.raises(ValueOutOfRange) as exc_info:
        decrypt(CipherText((1,)), CipherKey(1, (10**4299,)))
    assert exc_info.value.value == coefficient
    assert str(exc_info.value) == (
        f"recovered value at position 1 <{coefficient.bit_length()}-bit integer> outside 1..26"
    )


def test_cipher_key_validation():
    with pytest.raises(InvalidParameter):
        CipherKey(0, ())
    with pytest.raises(ValueOutOfRange):
        CipherKey(3, (-1,))


def test_ciphertext_validation():
    with pytest.raises(ValueOutOfRange):
        CipherText((0,))
    with pytest.raises(ValueOutOfRange):
        CipherText((27,))


@given(plaintexts, secret_params)
@settings(max_examples=300)
def test_round_trip(plaintext, s):
    ciphertext, key = encrypt(plaintext, s)
    assert len(ciphertext) == len(plaintext)
    assert decrypt(ciphertext, key) == plaintext


@given(plaintexts, secret_params)
def test_reconstruction_identity(plaintext, s):
    values = [ord(c) - ord("A") + 1 for c in plaintext]
    coefficients = transform_coefficients(values, s)
    ciphertext, key = encrypt(plaintext, s)
    for coefficient, quotient, residue in zip(coefficients, key.quotients, ciphertext.residues):
        assert quotient * 26 + residue == coefficient


@given(st.text(alphabet=ALPHABET, min_size=1, max_size=40), secret_params)
def test_equal_schedule_slots_give_equal_pairs(plaintext, s):
    # repeating the message after one full period reuses exponents, so
    # equal letters in equal slots must produce identical (q, r) pairs
    period = s + 1
    doubled = plaintext + "A" * (period * ((len(plaintext) + period - 1) // period) - len(plaintext))
    doubled = doubled + doubled
    ciphertext, key = encrypt(doubled, s)
    half = len(doubled) // 2
    for i in range(half):
        assert ciphertext.residues[i] == ciphertext.residues[i + half]
        assert key.quotients[i] == key.quotients[i + half]


def test_recover_s_worked_example():
    ciphertext = CipherText.from_letters("JBHDN")
    candidates = recover_s(ciphertext, [7, 23, 332, 2326, 23261], 32)
    assert 4 in candidates
    assert candidates == {4}  # 192/s! lands in 1..26 only for s=4


def test_recover_s_single_letter():
    # coefficient 0*26 + 1 = 1 demands e_1! == 1, so only s=1 fits
    candidates = recover_s(CipherText.from_letters("A"), [0], 8)
    assert 1 in candidates
    assert candidates == {1}


def test_recover_s_empty_message():
    assert recover_s(CipherText(()), [], 5) == {1, 2, 3, 4, 5}


def test_recover_s_length_mismatch():
    with pytest.raises(LengthMismatch):
        recover_s(CipherText.from_letters("AB"), [1], 4)


def test_recover_s_rejects_bad_bound():
    with pytest.raises(InvalidParameter):
        recover_s(CipherText(()), [], 0)


@given(st.text(alphabet=ALPHABET, min_size=1, max_size=24), st.integers(1, 10))
@settings(max_examples=60)
def test_recover_s_sound_and_complete(plaintext, s):
    ciphertext, key = encrypt(plaintext, s)
    candidates = recover_s(ciphertext, key.quotients, 16)
    assert s in candidates
    for candidate in candidates:
        recovered = decrypt(ciphertext, CipherKey(candidate, key.quotients))
        assert all("A" <= c <= "Z" for c in recovered)


@given(st.text(alphabet=ALPHABET, max_size=40), st.integers(13, 60))
def test_ciphertext_is_all_z_from_s_13(plaintext, s):
    # 26 = 2 * 13 divides e! for every e >= 13, so every residue is 26
    ciphertext, _ = encrypt(plaintext, s)
    assert ciphertext.letters == "Z" * len(plaintext)


def test_encrypt_and_decrypt_compute_one_factorial(monkeypatch):
    calls = []
    factorial = math.factorial
    monkeypatch.setattr(math, "factorial", lambda k: calls.append(k) or factorial(k))
    plaintext = ALPHABET * 400
    ciphertext, key = encrypt(plaintext, 64)
    assert calls == [64]
    assert decrypt(ciphertext, key) == plaintext
    assert calls == [64, 64]
    transform_coefficients(encode_text(plaintext), 64)
    assert calls == [64, 64, 64]


# The per-position loop and the full 1..max_s scan that the schedule
# factorial table and the early stop replaced, kept as references.


def _reference_encrypt(plaintext, s):
    values = encode_text(plaintext)
    quotients, residues = [], []
    for value, exponent in zip(values, exponent_schedule(s, len(values))):
        quotient, residue = divmod(value * math.factorial(exponent), 26)
        if residue == 0:
            quotient -= 1
            residue = 26
        quotients.append(quotient)
        residues.append(residue)
    return CipherText(tuple(residues)), CipherKey(s, tuple(quotients))


def _reference_decrypt(ciphertext, key):
    values = []
    for position, (quotient, residue, exponent) in enumerate(
        zip(key.quotients, ciphertext.residues, exponent_schedule(key.s, len(ciphertext))), start=1
    ):
        coefficient = quotient * 26 + residue
        divisor = math.factorial(exponent)
        value, remainder = divmod(coefficient, divisor)
        if remainder != 0:
            raise NotDivisible(position, coefficient, divisor)
        if not 1 <= value <= 26:
            raise ValueOutOfRange(value, f"recovered value at position {position}")
        values.append(value)
    return decode_values(values)


def _reference_recover_s(ciphertext, quotients, max_s):
    candidates = set()
    for s in range(1, max_s + 1):
        try:
            _reference_decrypt(ciphertext, CipherKey(s, tuple(quotients)))
        except (NotDivisible, ValueOutOfRange):
            continue
        candidates.add(s)
    return candidates


def _outcome(function, *args):
    try:
        return function(*args)
    except (NotDivisible, ValueOutOfRange) as exc:
        return type(exc), str(exc), vars(exc)


@st.composite
def tampered(draw):
    """A ciphertext with its key, some quotients nudged, under a possibly wrong s."""
    plaintext = draw(st.text(alphabet=ALPHABET, max_size=30))
    s = draw(st.integers(1, 20))
    ciphertext, key = encrypt(plaintext, s)
    quotients = list(key.quotients)
    for _ in range(draw(st.integers(0, 2))):
        if quotients:
            index = draw(st.integers(0, len(quotients) - 1))
            quotients[index] = max(0, quotients[index] + draw(st.integers(-3, 3)))
    return ciphertext, CipherKey(draw(st.sampled_from([s, draw(st.integers(1, 25))])), tuple(quotients))


@given(st.text(alphabet=ALPHABET, max_size=80), st.integers(1, 40))
@settings(max_examples=200)
def test_encrypt_matches_reference(plaintext, s):
    assert encrypt(plaintext, s) == _reference_encrypt(plaintext, s)


@pytest.mark.parametrize("fold_case", [True, False])
def test_encrypt_matches_reference_at_column_edges(fold_case):
    # encrypt fills each slot's column values[slot::s+1] at once; these lengths end a column
    # after its first entry, just before or after a full period, or one into the third period
    rng = random.Random(11)
    for s in range(1, 71):
        for n in sorted({0, 1, s, s + 1, s + 2, 2 * (s + 1) + 1}):
            plaintext = "".join(rng.choices("ABMNYZ", k=n))  # few values, so columns repeat them
            shown = plaintext.lower() if fold_case else plaintext
            assert encrypt(shown, s, fold_case) == _reference_encrypt(plaintext, s), (s, n)


def test_encrypt_splits_each_slot_value_once(monkeypatch):
    calls = []
    split = cipher.split_mod26
    monkeypatch.setattr(cipher, "split_mod26", lambda n: calls.append(n) or split(n))
    encrypt("AB", 3000)  # two slots of 3001, one value each: no table of 26 per slot
    assert calls == [math.factorial(3000), 2 * math.factorial(3001)]
    calls.clear()
    plaintext = "ABBAZZAB" * 5 + "C"
    encrypt(plaintext, 3)
    pairs = {(i % 4, letter) for i, letter in enumerate(plaintext)}
    assert sorted(calls) == sorted(
        (ord(letter) - 64) * math.factorial(3 + slot) for slot, letter in pairs
    )


@given(tampered())
# (0, 1) decrypts at slot 0 and is not divisible by 2! at slot 1
@example((CipherText((1, 1)), CipherKey(1, (0, 0))))
# position 8, in the third period, repeats at slot 1 the pair (1, 6) that
# decrypts at slot 0 (position 4); every other pair is valid
@example((CipherText((2, 6, 24, 6, 6, 24, 2, 6)), CipherKey(2, (0, 0, 0, 1, 0, 0, 0, 1))))
# 27 recovered at position 3, slot 0's second position
@example((CipherText((1, 2, 1)), CipherKey(1, (0, 0, 1))))
@settings(max_examples=300)
def test_decrypt_matches_reference(case):
    ciphertext, key = case
    assert _outcome(decrypt, ciphertext, key) == _outcome(_reference_decrypt, ciphertext, key)


def _column_edges(s, n):
    """Indexes where a schedule column starts or ends, and a fault in a later column."""
    return sorted({0, 1, 2, s - 1, s, s + 1, s + 2, 2 * s + 1, n - 2, n - 1} & set(range(n)))


def test_decrypt_matches_reference_at_column_edges():
    # decrypt decodes each slot's column quotients[slot::s+1] at once and stops at the first
    # column that starts past the earliest fault found; the fault it names must be the
    # reference's first, also when a later column holds it (faults at 2 and s+1, say)
    rng = random.Random(16)
    for s in range(1, 71):
        for n in sorted({1, 2, s, s + 1, s + 2, 2 * (s + 1) + 1}):
            ciphertext, key = encrypt("".join(rng.choices("ABMNYZ", k=n)), s)
            edges = _column_edges(s, n)
            for faults in [(i,) for i in edges] + list(itertools.combinations(edges, 2)):
                quotients = list(key.quotients)
                for index in faults:
                    weight = math.factorial(s + index % (s + 1))
                    # not divisible, or divisible with the value pushed past 26
                    quotients[index] += rng.choice([1, 2, weight, 26 * weight])
                tampered = CipherKey(s, tuple(quotients))
                expected = _outcome(_reference_decrypt, ciphertext, tampered)
                assert _outcome(decrypt, ciphertext, tampered) == expected, (s, n, faults)
            for index in edges:  # a float quotient stays a TypeError wherever it sits
                quotients = list(key.quotients)
                quotients[index] += 0.5
                with pytest.raises(TypeError):
                    decrypt(ciphertext, CipherKey(s, tuple(quotients)))


def test_decrypt_computes_no_factorial_past_the_first_fault(monkeypatch):
    calls = []
    factorial = math.factorial
    monkeypatch.setattr(math, "factorial", lambda k: calls.append(k) or factorial(k))
    ciphertext, key = encrypt("HELLOWORLD" * 40, 2000)
    assert calls == [2000]
    corrupted = CipherKey(2000, (key.quotients[0] + 1,) + key.quotients[1:])
    with pytest.raises(NotDivisible) as exc_info:
        decrypt(ciphertext, corrupted)
    assert exc_info.value.position == 1
    assert calls == [2000, 2000]


@given(tampered(), st.integers(1, 40))
@settings(max_examples=200)
def test_recover_s_matches_reference(case, max_s):
    ciphertext, key = case
    expected = _reference_recover_s(ciphertext, key.quotients, max_s)
    assert recover_s(ciphertext, key.quotients, max_s) == expected


@given(
    st.lists(st.tuples(st.integers(0, 10**30), st.integers(1, 26)), max_size=6),
    st.integers(1, 40),
)
def test_recover_s_matches_reference_on_arbitrary_pairs(pairs, max_s):
    ciphertext = CipherText(tuple(residue for _, residue in pairs))
    quotients = [quotient for quotient, _ in pairs]
    assert recover_s(ciphertext, quotients, max_s) == _reference_recover_s(ciphertext, quotients, max_s)


# The per-element checks that the min/max checks and the translate table
# replaced, kept as references. Each returns what the constructor stores.


def _reference_ciphertext(residues):
    for index, residue in enumerate(residues):
        if not 1 <= residue <= 26:
            raise ValueOutOfRange(residue, f"residue at index {index}")
    return residues


def _reference_cipher_key(s, quotients):
    if s < 1:
        raise InvalidParameter(f"secret parameter s must be >= 1, got {s}")
    for index, quotient in enumerate(quotients):
        if quotient < 0:
            error = ValueOutOfRange(quotient)
            error.args = (f"quotient at index {index} is {_render_int(quotient)}, must be >= 0",)
            raise error
    return s, quotients


def _reference_from_letters(text):
    # the old encode_text(text, fold_case=False), which named the context "plaintext"
    values = []
    for index, char in enumerate(text):
        if not "A" <= char <= "Z":
            raise NonAlphabetCharacter(char, index, "ciphertext")
        values.append(ord(char) - ord("A") + 1)
    return tuple(values)


def _checked(function, *args):
    try:
        return function(*args)
    except CipherToolkitError as exc:
        # the attribute types tell False from 0
        return type(exc), str(exc), [(k, type(v), v) for k, v in vars(exc).items()]


# mostly in range, then every kind of value a check must name
_wide_ints = st.one_of(
    st.sampled_from([-1, 0, 1, 26, 27]),
    st.integers(-300, 300),
    st.integers(min_value=2**63),
    st.integers(max_value=-(2**63)),
    st.booleans(),
)


@given(st.lists(st.one_of(st.integers(1, 26), _wide_ints), max_size=40).map(tuple))
@settings(max_examples=300)
def test_ciphertext_check_matches_reference(residues):
    expected = _checked(_reference_ciphertext, residues)
    assert _checked(lambda: CipherText(residues).residues) == expected


def _reference_transform_coefficients(plain, s):
    # the loop transform_coefficients ran before the alphabet checked its values
    coefficients = []
    for index, (exponent, value) in enumerate(zip(exponent_schedule(s, len(plain)), plain)):
        if not 1 <= value <= 26:
            raise ValueOutOfRange(value, f"plaintext value at index {index}")
        coefficients.append(value * math.factorial(exponent))
    return coefficients


# 26 * 20! overflows int64, so the reference scales a numpy array exactly only up to s = 18
@given(
    st.one_of(
        st.lists(st.one_of(st.integers(1, 26), _wide_ints), max_size=40),
        st.just(np.array([1, 26])),
    ),
    st.integers(-3, 18),
)
@example([0], 0)
@example([27, 1], -1)
@example([True, False], 3)
@example(np.array([1, 26]), 18)
@example(np.array([1, 26]), 0)
@settings(max_examples=300)
def test_transform_coefficients_matches_reference(plain, s):
    expected = _checked(_reference_transform_coefficients, plain, s)
    result = _checked(transform_coefficients, plain, s)
    assert result == expected
    if isinstance(result, list):
        assert {type(c) for c in result} <= {int}  # exact Python ints, numpy input or not


_HELLO = CipherText.from_letters("JBHDN")  # encrypt("HELLO", 4), quotients (7, 23, 332, 2326, 23261)


@pytest.mark.parametrize(
    "call",
    [
        lambda: CipherText((1.5,)),
        lambda: CipherText((1.0,)),
        lambda: CipherText((3, 1.5)),
        lambda: transform_coefficients([1.5], 3),
        lambda: decrypt(_HELLO, CipherKey(4, (7.5, 23, 332, 2326, 23261))),
        lambda: decrypt(_HELLO, CipherKey(4, (Fraction(15, 2), 23, 332, 2326, 23261))),
        lambda: recover_s(_HELLO, (7.5, 23, 332, 2326, 23261), 10),
        lambda: recover_s(_HELLO, (Fraction(15, 2), 23, 332, 2326, 23261), 10),
    ],
    ids=[
        "residue-1.5",
        "residue-1.0",
        "residue-after-int",
        "plaintext-1.5",
        "decrypt-quotient-7.5",
        "decrypt-quotient-fraction",
        "recover-quotient-7.5",
        "recover-quotient-fraction",
    ],
)
def test_non_int_value_is_type_error(call):
    with pytest.raises(TypeError):
        call()


def test_recover_s_of_a_negative_quotient_is_empty():
    # no CipherKey holds a negative quotient, so no s decrypts the pair; the one check
    # recover_s runs up front must not turn that into an error
    quotients = (-1, 23, 332, 2326, 23261)
    assert recover_s(_HELLO, quotients, 10) == set() == _reference_recover_s(_HELLO, quotients, 10)
    assert recover_s(_HELLO, (7, 23, 332, 2326, -(10**5000)), 10) == set()


def test_recover_s_checks_the_quotients_once(monkeypatch):
    checks = []
    init = CipherKey.__init__
    monkeypatch.setattr(CipherKey, "__init__", lambda key, *args: checks.append(args) or init(key, *args))
    ciphertext, key = encrypt("HELLOWORLD", 7)
    assert checks == []  # encrypt checked its own fields
    assert 7 in recover_s(ciphertext, key.quotients, 1000)
    assert len(checks) == 1  # not once per candidate s


_BEYOND_FACTORIAL = 2**63  # sys.maxsize + 1 on a 64-bit build: math.factorial raises OverflowError


@pytest.mark.parametrize(
    "call",
    [
        lambda: encrypt("A", _BEYOND_FACTORIAL),
        lambda: transform_coefficients([1], _BEYOND_FACTORIAL),
        lambda: decrypt(CipherText((1,)), CipherKey(_BEYOND_FACTORIAL, (0,))),
        lambda: exponent_schedule(1, _BEYOND_FACTORIAL),
        lambda: exponent_schedule(1, 10**5000),
        lambda: exponent_schedule(1, -(10**5000)),
        lambda: encrypt("A", -(10**5000)),
        lambda: recover_s(CipherText(()), [], -(10**5000)),
    ],
    ids=[
        "encrypt",
        "transform",
        "decrypt",
        "schedule",
        "schedule-wide",
        "schedule-negative-wide",
        "encrypt-negative-wide-s",
        "recover-negative-wide-max-s",
    ],
)
def test_extreme_parameters_are_invalid(call):
    # a message states an integer past 64 bits by its bit length, never by str()
    with pytest.raises(InvalidParameter, match="sys.maxsize|-bit integer"):
        call()


def test_numpy_parameters_are_named_in_messages():
    with pytest.raises(InvalidParameter, match="got 0"):
        encrypt("A", np.int64(0))
    with pytest.raises(InvalidParameter, match="got -1"):
        exponent_schedule(3, np.int64(-1))
    with pytest.raises(InvalidParameter, match="got 0"):
        recover_s(CipherText(()), [], np.int64(0))
    assert exponent_schedule(np.int64(3), np.int64(5)) == [3, 4, 5, 6, 3]
    assert recover_s(CipherText(()), [], np.int64(2)) == {1, 2}
    with pytest.raises(ValueOutOfRange, match="quotient at index 1 is -1, must be >= 0"):
        CipherKey(4, (np.int64(7), np.int64(-1)))


def test_empty_message_needs_no_factorial_of_a_huge_s():
    ciphertext, key = encrypt("", _BEYOND_FACTORIAL)
    assert ciphertext == CipherText(()) and key == CipherKey(_BEYOND_FACTORIAL, ())
    assert decrypt(ciphertext, key) == ""
    assert transform_coefficients([], _BEYOND_FACTORIAL) == []


def test_split_mod26_takes_exact_ints_only():
    with pytest.raises(TypeError):
        split_mod26(1.5)
    with pytest.raises(TypeError):
        split_mod26(27.0)
    assert split_mod26(np.int64(27)) == (1, 1)
    assert {type(part) for part in split_mod26(np.int64(27))} == {int}
    with pytest.raises(NonPositiveInput, match="-bit integer"):
        split_mod26(-(10**5000))


def test_numpy_quotient_decrypts_exactly():
    # quotient * 26 overflows int64 at s = 20; the quotient is taken as an exact int first
    ciphertext, key = encrypt("ZA", 20)
    quotients = tuple(map(np.int64, key.quotients))
    assert decrypt(ciphertext, CipherKey(20, quotients)) == "ZA"
    assert 20 in recover_s(ciphertext, quotients, 30)


@given(
    st.one_of(st.integers(-3, 70), st.booleans()),
    st.lists(st.one_of(st.integers(0, 10**30), _wide_ints), max_size=40).map(tuple),
)
@settings(max_examples=300)
def test_cipher_key_check_matches_reference(s, quotients):
    expected = _checked(_reference_cipher_key, s, quotients)

    def fields():
        key = CipherKey(s, quotients)
        return key.s, key.quotients

    assert _checked(fields) == expected


_letters_and_others = st.one_of(
    st.sampled_from(ALPHABET), st.sampled_from("azß ÄÿĀ\x00"), st.characters()
)


@given(st.text(alphabet=_letters_and_others, max_size=40))
@settings(max_examples=300)
def test_from_letters_matches_reference(text):
    expected = _checked(_reference_from_letters, text)
    assert _checked(lambda: CipherText.from_letters(text).residues) == expected
