import contextlib
import random
import re
import sys
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from mellin_cipher import keyio
from mellin_cipher.alphabet import ALPHABET
from mellin_cipher.cipher import CipherKey, CipherText, encrypt
from mellin_cipher.errors import (
    BadField,
    BadMagic,
    CipherToolkitError,
    CountMismatch,
    KeyFormatError,
    NonAlphabetCharacter,
    NonCanonicalInteger,
    TrailingGarbage,
)
from mellin_cipher.keyio import (
    KEY_MAGIC,
    _too_wide,
    read_ciphertext,
    read_key,
    write_ciphertext,
    write_key,
)

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


def test_write_key_refuses_a_non_int_field():
    # %d would write a float truncated, and the key would not read back as itself
    with pytest.raises(TypeError):
        write_key(CipherKey(4, (1.5, 2.9)))
    with pytest.raises(TypeError):
        CipherKey(4.9, (1,))
    assert write_key(CipherKey(True, (True, False))) == b"MELLIN-KEY-V1\ns=1\nn=2\nq1=1\nq2=0\n"


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


def test_read_key_shares_equal_quotients():
    # one int per distinct quotient text, so a long key holds only its distinct quotients
    key = encrypt(ALPHABET * 20, 12)[1]  # 520 quotients, 26 of them distinct
    opened = read_key(write_key(key))
    assert opened == key
    assert len({id(quotient) for quotient in opened.quotients}) == len(set(key.quotients)) == 26


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


# The per-line writer and reader that the memoised ones replaced, kept as references.

_REFERENCE_CANONICAL_INT = re.compile(r"0|[1-9][0-9]*")


def _reference_quote(text):
    # messages quote a key line, or a field of one, up to 20 characters
    return repr(text[:20]) + ("..." if len(text) > 20 else "")


def _reference_write_key(key):
    try:
        lines = [KEY_MAGIC, f"s={key.s}", f"n={len(key.quotients)}"]
        lines.extend(f"q{i}={q}" for i, q in enumerate(key.quotients, start=1))
    except ValueError:
        raise KeyFormatError(f"cannot write key: an integer has {_too_wide()}") from None
    return ("\n".join(lines) + "\n").encode("ascii")


def _reference_parse_int(text, line):
    if _REFERENCE_CANONICAL_INT.fullmatch(text) is None:
        raise NonCanonicalInteger(line, text)
    try:
        return int(text)
    except ValueError:
        raise BadField(line, f"integer has {_too_wide()}") from None


def _reference_split_lines(data, context):
    if b"\r" in data:
        raise BadField(data[: data.index(b"\r")].count(b"\n") + 1, "CR not allowed")
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise BadField(data[: exc.start].count(b"\n") + 1, f"non-ASCII byte in {context}") from exc
    if not text.endswith("\n"):
        raise BadField(text.count("\n") + 1, "missing trailing newline")
    return text[:-1].split("\n")


def _reference_read_key(data):
    if not data:
        raise BadMagic("empty key file")
    lines = _reference_split_lines(data, "key file")
    if not lines or lines[0] != "MELLIN-KEY-V1":
        raise BadMagic("expected magic line 'MELLIN-KEY-V1'")
    if len(lines) < 3:
        raise BadField(len(lines) + 1, "missing s= or n= line")
    if not lines[1].startswith("s="):
        raise BadField(2, f"expected 's=<int>', got {_reference_quote(lines[1])}")
    s = _reference_parse_int(lines[1][2:], 2)
    if s < 1:
        raise BadField(2, f"secret parameter s must be >= 1, got {s}")
    if not lines[2].startswith("n="):
        raise BadField(3, f"expected 'n=<int>', got {_reference_quote(lines[2])}")
    count = _reference_parse_int(lines[2][2:], 3)
    quotients = []
    for offset, line in enumerate(lines[3:], start=4):
        index = offset - 3
        if index > count:
            if line.startswith("q"):
                raise CountMismatch(f"declared n={count} but found more quotient lines")
            raise TrailingGarbage(f"unexpected content at line {offset}: {_reference_quote(line)}")
        prefix = f"q{index}="
        if not line.startswith(prefix):
            raise BadField(offset, f"expected {prefix!r} prefix, got {_reference_quote(line)}")
        quotients.append(_reference_parse_int(line[len(prefix) :], offset))
    if len(quotients) != count:
        raise CountMismatch(f"declared n={count} but found {len(quotients)} quotient lines")
    return CipherKey(s, tuple(quotients))


def _outcome(function, *args):
    try:
        return function(*args)
    except CipherToolkitError as exc:
        return type(exc), str(exc), vars(exc)


@st.composite
def repetitive_keys(draw):
    """Keys whose quotients repeat, as a real key's do once per schedule period."""
    if draw(st.booleans()):
        plaintext = draw(st.text(alphabet=ALPHABET, max_size=120))
        return encrypt(plaintext, draw(st.integers(1, 30)))[1]
    pool = draw(
        st.lists(
            st.one_of(st.integers(0, 10**70), st.sampled_from([10**4299, 10**4300])),
            min_size=1,
            max_size=6,
        )
    )
    quotients = draw(st.lists(st.sampled_from(pool), max_size=60))
    return CipherKey(draw(st.integers(1, 10**6)), tuple(quotients))


# bytes a mutation inserts: mostly the ones the key format is made of
_format_bytes = st.one_of(
    st.sampled_from([ord(c) for c in "0123456789qsn=\n\r+- "]), st.integers(0, 255)
)


@st.composite
def mutated(draw, files):
    """A valid file with a few bytes replaced, inserted, deleted or repeated."""
    data = bytearray(draw(files))
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data)))
        kind = draw(st.sampled_from(["replace", "insert", "delete", "repeat"]))
        if kind == "replace" and at < len(data):
            data[at] = draw(_format_bytes)
        elif kind == "insert":
            data[at:at] = bytes(draw(st.lists(_format_bytes, min_size=1, max_size=8)))
        elif kind == "delete":
            del data[at : at + draw(st.integers(1, 8))]
        elif kind == "repeat":
            data[at:at] = data[at : draw(st.integers(at, len(data)))]
    return bytes(data)


key_files = repetitive_keys().filter(lambda key: max(key.quotients, default=0) < 10**4299).map(
    write_key
)
ciphertext_files = st.text(alphabet=ALPHABET, max_size=40).map(lambda text: text.encode() + b"\n")


@given(repetitive_keys())
@settings(max_examples=200)
def test_write_key_matches_reference(key):
    assert _outcome(write_key, key) == _outcome(_reference_write_key, key)


@given(st.one_of(key_files, mutated(key_files)))
@settings(max_examples=400)
def test_read_key_matches_reference(data):
    assert _outcome(read_key, data) == _outcome(_reference_read_key, data)


@given(st.one_of(st.binary(max_size=200), mutated(key_files), mutated(ciphertext_files)))
@settings(max_examples=400)
def test_readers_raise_only_toolkit_errors(data):
    for reader in (read_key, read_ciphertext):
        try:
            reader(data)
        except CipherToolkitError:
            pass


@contextlib.contextmanager
def int_digits(limit):
    """Run the block under another int <-> str digit limit (0: none), then restore it."""
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(previous)


_KEY = b"MELLIN-KEY-V1\ns=4\nn=2\nq1=7\nq2=23\n"


# Inputs that a check of the whole layout could wrongly accept: each must give the per-line
# reader's result, or its exception with the same message and .line.
@pytest.mark.parametrize(
    "data",
    [
        _KEY,
        _KEY + b"7",  # a digit after the final LF
        _KEY + b"q3=5",  # a line after the final LF
        _KEY + b"\n",
        b"MELLIN-KEY-V1=s=1\nn=0\n",  # '=' and LF swapped
        b"MELLIN-KEY-V1\ns=1=n\n0\n",
        b"MELLIN-KEY-V1\ns=4\nn=2\nq2=23\nq1=7\n",  # swapped line numbers
        b"MELLIN-KEY-V1\ns=4\nn=2\nq=7\n1q2=23\n",  # a line number moved to the next line
        b"MELLIN-KEY-V1\ns=4\nn=2\nq12=7\nq=23\n",
        b"MELLIN-KEY-V1\ns=4\nn=2\nq1=7\nq2=23\nq3=5\n",  # declared n below the line count
        b"MELLIN-KEY-V1\ns=4\nn=3\nq1=7\nq2=23\n",  # declared n above it
        b"MELLIN-KEY-V1\ns=4\nn=02\nq1=7\nq2=23\n",
        b"MELLIN-KEY-V1\ns=4\nn=\nq1=7\nq2=23\n",
        b"MELLIN-KEY-V1\ns=4\nn=0\n",  # n=0
        b"MELLIN-KEY-V1\ns=4\nn=0\nq1=7\n",
        b"MELLIN-KEY-V2\ns=4\nn=0\n",  # digits in a line head
        b"MELLIN-KEY-V11\ns=4\nn=0\n",
        b"1MELLIN-KEY-V1\ns=4\nn=0\n",
        b"MELLIN-KEY-V1\n1s=4\nn=0\n",
        b"MELLIN-KEY-V1\ns1=4\nn=0\n",
        b"MELLIN-KEY-V1\ns=4\n0n=0\n",
        b"MELLIN-KEY-V1\ns=4\nn1=0\n",
        b"MELLIN-KEY-V1\ns=0\nn=0\n",  # integers: out of range, non-canonical, empty
        b"MELLIN-KEY-V1\ns=04\nn=0\n",
        b"MELLIN-KEY-V1\ns=\nn=0\n",
        b"MELLIN-KEY-V1\ns=4\nn=2\nq1=07\nq2=23\n",
        b"MELLIN-KEY-V1\ns=4\nn=2\nq1=7\nq2=\n",
        b"MELLIN-KEY-V1\ns=4\nn=2\nq1=0\nq2=0\n",
        b"MELLIN-KEY-V1\ns=4\r\nn=0\n",  # bytes outside the layout
        b"MELLIN-KEY-V1\ns=4\nn=1\nq1=\xb9\n",
        b"",  # too short to hold the layout
        b"\n",
        b"MELLIN-KEY-V1\ns=",
        b"MELLIN-KEY-V1\ns=4\nn",
        b"MELLIN-KEY-V1\ns=4\nn=",
        bytearray(_KEY),  # bytes-like input: read as bytes(data)
        memoryview(_KEY),
        memoryview(b"MELLIN-KEY-V1\ns=0\nn=0\n"),
        memoryview(b"MELLIN-KEY-V1\ns=4\nn=1\nq1=\xb9\n"),
    ],
)
def test_read_key_layout_cases_match_reference(data):
    assert _outcome(read_key, data) == _outcome(_reference_read_key, bytes(data))


# HELLO twice under s=4: each quotient text appears once in each schedule period
_PERIODIC = b"MELLIN-KEY-V1\ns=4\nn=10\n" + b"".join(
    b"q%d=%d\n" % (i, q) for i, q in enumerate((7, 23, 332, 2326, 23261) * 2, start=1)
)


# read_key parses each distinct text once; a fault in any repeat must still be named, with the
# per-line reader's result or its exception with the same message and .line
@pytest.mark.parametrize(
    "old, new",
    [
        (b"", b""),
        (b"q1=7\n", b"q1=07\n"),  # a leading zero in the first repeat of 7
        (b"q6=7\n", b"q6=07\n"),  # in the second
        (b"q7=23\n", b"q7=2x\n"),  # a non-digit in the second repeat of 23
        (b"q7=23\n", b"q7=+23\n"),
        (b"q7=23\n", "q7=\uff123\n".encode()),  # a fullwidth 2, a digit to str.isdigit
        (b"s=4\n", b"s=0\n"),
        (b"s=4\n", b"s=7\n"),
        (b"q3=332\n", b"q3\n332="),  # '=' and LF swapped
        (b"q4=", b"q5="),  # a head index off by one
        (b"q4=", b"q3="),
        (b"q7=23\n", b"q7=2\xff3\n"),  # a non-ASCII byte in the second repeat of 23
        (b"q7=23\n", b"q7=23\r\n"),
        (b"q7=23\n", b"q7=\n"),  # an empty text
        (b"q7=23\n", b"q7==23\n"),
        (b"q7=23\n", b"23\n"),  # a line without its head: its text is a parsed one
        (b"s=4\n", b"4\n"),
        (b"q10=23261\n", b"q10=23261\n\n"),  # a blank line before EOF
        (b"n=10\n", b"n=010\n"),
        (b"s=4\n", b"s=4x\n"),
    ],
)
def test_read_key_matches_per_line_reader_on_mutated_keys(old, new):
    data = _PERIODIC.replace(old, new, 1)
    assert _outcome(read_key, data) == _outcome(_reference_read_key, data)
    if old == new:
        assert data == write_key(encrypt("HELLO" * 2, 4)[1])


# _KEY with one line fault each: (old, new), the fault's type and its line (None: no line)
_LINE_FAULTS = {
    "bad-magic": ((b"V1", b"V2"), BadMagic, None),
    "missing-n-line": ((b"n=2\nq1=7\nq2=23\n", b""), BadField, 3),
    "bad-s-head": ((b"s=", b"S="), BadField, 2),
    "s-zero": ((b"s=4", b"s=0"), BadField, 2),
    "non-canonical-n": ((b"n=2", b"n=02"), NonCanonicalInteger, 3),
    "wrong-q-head": ((b"q2=", b"q3="), BadField, 5),
    "non-canonical-quotient": ((b"q1=7", b"q1=07"), NonCanonicalInteger, 4),
    "too-few-lines": ((b"n=2", b"n=3"), CountMismatch, None),
    "extra-q-line": ((b"q2=23\n", b"q2=23\nq3=5\n"), CountMismatch, None),
    "trailing-garbage": ((b"q2=23\n", b"q2=23\nx\n"), TrailingGarbage, None),
}


def _precedence_cases():
    """(file, (type, line, reason)): each line fault alone, then under each byte fault."""
    yield pytest.param(b"", (BadMagic, None, "empty key file"), id="empty")
    for name, ((old, new), kind, line) in _LINE_FAULTS.items():
        data = _KEY.replace(old, new)
        lines = data.split(b"\n")[:-1]
        yield pytest.param(data, (kind, line, None), id=name)
        yield pytest.param(data[:-1], (BadField, len(lines), "missing trailing newline"), id=f"{name}-no-lf")
        for at in range(len(lines)):  # a byte fault in each line: before, at and after the line fault
            for byte, reason in [(b"\r", "CR not allowed"), (b"\xb9", "non-ASCII byte in key file")]:
                faulty = [*lines[:at], lines[at][:2] + byte + lines[at][2:], *lines[at + 1 :]]
                case = f"{name}-{reason.split()[0]}-in-line-{at + 1}"
                yield pytest.param(b"\n".join(faulty) + b"\n", (BadField, at + 1, reason), id=case)


# Byte faults are named before any line fault, and line faults in file order. read_key runs the
# line checks first and looks for byte faults only once one fails, so it must agree on each file.
@pytest.mark.parametrize("data, expected", _precedence_cases())
def test_read_key_names_byte_faults_before_line_faults(data, expected):
    outcome = _outcome(read_key, data)
    assert outcome == _outcome(_reference_read_key, data)
    kind, line, reason = expected
    assert outcome[0] is kind
    assert outcome[2].get("line") == line
    assert reason in (None, outcome[2].get("reason", outcome[1]))


def _traced(function, *args):
    """The outcome of ``function(*args)`` and the peak of memory traced while it ran."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        outcome = _outcome(function, *args)
        return outcome, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


# A header declaring N lines, then N short lines that can hold no quotient line head: the
# reader must name the fault without building, or caching, the layout of N lines (about 58
# bytes a line). The bounds are the peaks of the replace-and-translate reader that this one
# replaced (24.1, 16.2 and 35.4 times the input), rounded down.
@pytest.mark.parametrize("line, bound", [(b"\n", 24), (b"=\n", 16), (b"q=\n", 35)])
def test_read_key_builds_no_line_heads_for_a_short_file(line, bound):
    count = 10**5
    data = b"MELLIN-KEY-V1\ns=1\nn=%d\n" % count + line * count
    cached = keyio._layout.cache_info()
    outcome, peak = _traced(read_key, data)
    assert outcome == _outcome(_reference_read_key, data)
    assert outcome[0] is BadField
    assert peak <= bound * len(data)
    assert keyio._layout.cache_info() == cached  # neither built nor looked up


def test_read_key_peak_memory_on_a_written_key():
    # 10^5 letters at s=64, about 16 MB: the lines and one text at a time, not copies of the file
    text = "".join(random.Random(12).choices(ALPHABET, k=10**5))
    key = encrypt(text, 64)[1]
    data = write_key(key)
    outcome, peak = _traced(read_key, data)
    assert outcome == key
    assert peak < 1.6 * len(data)


@pytest.mark.parametrize(
    "fault",
    [
        lambda data: data[: data.rindex(b"=") + 1] + b"0" + data[data.rindex(b"=") + 1 :],
        lambda data: data.replace(b"n=100000\n", b"n=100001\n", 1),
        lambda data: data.replace(b"MELLIN-KEY-V1", b"MELLIN-KEY-V2", 1),
    ],
    ids=["last-quotient", "count", "magic"],
)
def test_read_key_peak_memory_on_a_faulty_key(fault):
    # the same 16 MB key with one fault: naming it walks the lines already split, no decoded copy
    text = "".join(random.Random(12).choices(ALPHABET, k=10**5))
    data = fault(write_key(encrypt(text, 64)[1]))
    outcome, peak = _traced(read_key, data)
    assert outcome == _outcome(_reference_read_key, data)
    assert isinstance(outcome, tuple)
    assert peak < 1.6 * len(data)


def test_read_key_peak_memory_on_a_written_key_is_a_block_not_the_file():
    # read_key splits about 64 KB of lines at a time: with the layout cached (write_key builds it),
    # its peak is the quotients and one block, not a line object per line of the 16 MB file
    text = "".join(random.Random(12).choices(ALPHABET, k=10**5))
    key = encrypt(text, 64)[1]
    data = write_key(key)
    outcome, peak = _traced(read_key, data)
    assert outcome == key
    assert peak < 0.25 * len(data)


@pytest.mark.parametrize(
    "fault",
    [
        lambda data: data[:-3] + b"\xb9" + data[-2:],
        lambda data: data[:-3] + b"\r" + data[-2:],
        lambda data: data[:-1],
    ],
    ids=["non-ascii", "cr", "no-final-lf"],
)
def test_read_key_peak_memory_on_a_byte_fault(fault):
    # a byte fault in the last quotient line of the 16 MB key is named without a copy of the lines
    text = "".join(random.Random(12).choices(ALPHABET, k=10**5))
    data = fault(write_key(encrypt(text, 64)[1]))
    outcome, peak = _traced(read_key, data)
    assert outcome == _outcome(_reference_read_key, data)
    assert outcome[0] is BadField and outcome[2]["line"] == 10**5 + 3
    assert peak < 1.6 * len(data)


# 2,500 letters at s=64: a key of about 390 KB, which read_key reads in 6 blocks
_LONG_KEY = write_key(encrypt("".join(random.Random(35).choices(ALPHABET, k=2500)), 64)[1])


def _block_bounds(data):
    """The first and last line number of each block of quotient lines that read_key splits."""
    start = data.index(b"\n", data.index(b"\n", data.index(b"\n") + 1) + 1) + 1
    first = 4
    while start < len(data):
        end = data.find(b"\n", start + keyio._BLOCK) + 1 or len(data)
        last = first + data.count(b"\n", start, end) - 1
        yield first, last
        first, start = last + 1, end


# Faults in quotient line i: the line that replaces it (None: deleted) and the declared n (None:
# unchanged). All but the deletion keep the line's length, so the line keeps its place in its
# block, and the header's length moves no block boundary.
_BLOCK_FAULTS = {
    "wrong-head": lambda line, i: (line.replace(b"q%d=" % i, b"q%d=" % (i ^ 1), 1), None),
    "lost-head": lambda line, i: (line.replace(b"q%d=" % i, b"9" * len(b"q%d=" % i), 1), None),
    "non-canonical": lambda line, i: (line.replace(b"=", b"=0")[:-1], None),
    "extra-q-line": lambda line, i: (line, i - 1),
    "missing-line": lambda line, i: (None, None),
    "trailing-garbage": lambda line, i: (b"x" + line[1:], i - 1),
    "non-ascii": lambda line, i: (line[:-1] + b"\xb9", None),
    "cr": lambda line, i: (line[:-1] + b"\r", None),
}


# The bulk pass works block by block: a fault in the first or last line of any block, or in the
# file's last line, must be named as the per-line reader names it, with its line in the file
@pytest.mark.parametrize("fault", _BLOCK_FAULTS)
def test_read_key_names_faults_at_block_boundaries(fault):
    bounds = list(_block_bounds(_LONG_KEY))
    assert len(bounds) >= 5 and bounds[-1][1] == 2503
    assert read_key(_LONG_KEY) == _reference_read_key(_LONG_KEY)
    for number in sorted({line for bound in bounds for line in bound}):
        lines = _LONG_KEY.split(b"\n")
        line, count = _BLOCK_FAULTS[fault](lines[number - 1], number - 3)
        lines[number - 1 : number] = [] if line is None else [line]
        if count is not None:
            lines[2] = b"n=%d" % count
        data = b"\n".join(lines)
        outcome = _outcome(read_key, data)
        assert outcome == _outcome(_reference_read_key, data), number
        assert isinstance(outcome, tuple), number


@pytest.mark.parametrize("over", [0, 1])
@pytest.mark.parametrize("old", [b"=23261\n", b"s=4\n"], ids=["quotient", "s"])
def test_read_key_matches_per_line_reader_at_digit_limit(digit_limit, over, old):
    wide = b"9" * (digit_limit + over)
    data = _PERIODIC.replace(old, old[: old.index(b"=") + 1] + wide + b"\n")  # every repeat
    outcome = _outcome(read_key, data)
    assert outcome == _outcome(_reference_read_key, data)
    assert isinstance(outcome, CipherKey) == (over == 0)


@pytest.mark.parametrize(
    "s, quotient, line",
    [("4", "9" * 640, None), ("4", "9" * 641, 5), ("9" * 641, "7", 2)],
    ids=["at-limit", "quotient-past", "s-past"],
)
def test_read_key_follows_lowered_digit_limit(s, quotient, line):
    data = f"MELLIN-KEY-V1\ns={s}\nn=2\nq1=7\nq2={quotient}\n".encode()
    with int_digits(640):  # the least the interpreter allows
        outcome = _outcome(read_key, data)
        assert outcome == _outcome(_reference_read_key, data)
    if line is None:
        assert outcome == CipherKey(4, (7, int(quotient)))
    else:
        assert outcome[0] is BadField and outcome[2]["line"] == line


@given(repetitive_keys(), st.sampled_from([0, 640, 4300]))
@settings(max_examples=200)
def test_read_key_reads_written_keys_whole(key, limit):
    """A key as write_key writes it passes the C-level checks: a refused one ends in an error."""
    with int_digits(limit):
        try:
            data = write_key(key)
        except KeyFormatError:  # a quotient past this limit
            return
        assert read_key(data) == key


def _reference_read_ciphertext(data):
    # the per-byte loop that the translate table replaced
    if b"\r" in data:
        raise BadField(1, "CR not allowed")
    newline = data.find(b"\n")
    if newline == -1:
        raise BadField(1, "missing trailing newline")
    if newline != len(data) - 1:
        raise TrailingGarbage(f"content after line 1 (byte offset {newline + 1})")
    for offset, byte in enumerate(data[:newline]):
        if not ord("A") <= byte <= ord("Z"):
            raise NonAlphabetCharacter(chr(byte), offset, "ciphertext")
    return CipherText(tuple(byte - ord("A") + 1 for byte in data[:newline]))


# letters, lowercase, bytes >= 0x80 (each is one latin-1 character) and any byte
_ciphertext_bytes = st.one_of(
    st.sampled_from(ALPHABET.encode() + b"az \x00\x7f\x80\xc4\xdf\xff"), st.integers(0, 255)
)


@pytest.mark.parametrize("data", [b"JBHDN\n", b"JB\xc4DN\n", b"JB\rHDN\n", b"\n"])
def test_read_ciphertext_reads_bytes_like_input(data):
    expected = _outcome(_reference_read_ciphertext, data)
    assert _outcome(read_ciphertext, memoryview(data)) == expected
    assert _outcome(read_ciphertext, bytearray(data)) == expected


@given(
    st.one_of(
        st.lists(_ciphertext_bytes, max_size=40).map(lambda line: bytes(line) + b"\n"),
        mutated(ciphertext_files),
        st.binary(max_size=40),
    )
)
@settings(max_examples=400)
def test_read_ciphertext_matches_reference(data):
    assert _outcome(read_ciphertext, data) == _outcome(_reference_read_ciphertext, data)
