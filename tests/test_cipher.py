import pytest
from hypothesis import given, settings, strategies as st

from mellin_cipher.alphabet import ALPHABET
from mellin_cipher.cipher import (
    CipherKey,
    CipherText,
    decrypt,
    encrypt,
    exponent_schedule,
    factorial,
    recover_s,
    split_mod26,
    transform_coefficients,
)
from mellin_cipher.errors import (
    InvalidParameter,
    LengthMismatch,
    NegativeArgument,
    NonPositiveInput,
    NotDivisible,
    ValueOutOfRange,
)

plaintexts = st.text(alphabet=ALPHABET, max_size=64)
secret_params = st.integers(min_value=1, max_value=12)


def test_factorial_known():
    assert factorial(4) == 24
    assert factorial(0) == 1
    assert factorial(8) == 40320  # 604800 / 15


def test_factorial_negative():
    with pytest.raises(NegativeArgument):
        factorial(-1)


def test_factorial_large_exact():
    value = factorial(30)
    assert value == 265252859812191058636308480000000
    assert value % factorial(29) == 0


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
    assert exc_info.value.divisor == factorial(2000)
    assert f"by <{factorial(2000).bit_length()}-bit integer>" in str(exc_info.value)
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
