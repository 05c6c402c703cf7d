"""One input contract for every public name.

Each call returns, or raises a CipherToolkitError or a TypeError (a non-int
where an int is required), within a wall bound: never an OverflowError, a
stray ValueError or a stall. Every int argument is drawn from values that
probe a check: 0, -1, 2**63 (past sys.maxsize), 10**5000 (past the int -> str
digit limit), True, 1.5, Fraction(3, 2) and numpy.int64 values, plus 3 so
that some calls get past their checks. Scales and tolerances add Fraction
and Decimal values past the double range and the digit limit, and a Decimal
NaN. The readers also take those ints, and text takes None, an int and bytes.
The log_space flag also takes 1, 0, "", [1] and numpy.bool_(True), each read
by its truth value.

Each kind of argument has one reading rule, applied where it enters:
- an int goes through operator.index before anything compares it, so a
  float, Fraction or Decimal (a NaN too) is a TypeError;
- a real (a scale or a tolerance) is tested for NaN by self-inequality
  before it is ordered, as a Decimal NaN raises decimal.InvalidOperation on
  < and > but not on !=;
- a byte payload is an exact bytes or is read through memoryview, so an int
  is a TypeError and never a count of zero bytes (a numpy scalar exports a
  buffer and is read as its own bytes);
- text is read through unbound str methods, so a non-str is a TypeError.
Decimal("sNaN") is drawn only where an int is read: as a tolerance or scale
it still raises decimal.InvalidOperation, since a signaling NaN exists to
signal.

Left out: every valid s, schedule length or max_s drawn is at most 3, and the
next one drawn, 2**63, is past sys.maxsize, so no draw reaches 4..sys.maxsize
for any of them. Much of that range is the work the caller asked for: encrypt
and transform_coefficients under a large s, exponent_schedule of a long
length, recover_s over a large max_s (it tries that many s, and lists every
one for an empty message). decrypt under a large s is not in that list: above
s = 10**4 it refuses a key whose s! provably exceeds its first coefficient
before it computes any factorial, so a 5-letter key costs no factorial at
s = 10**6 (it took 10.6 s before that gate). tests/test_cipher.py and the
hostile-input gate in tests/test_cli.py (test_hostile_input_ends_in_a_documented_exit)
drive decrypt over that range instead.
"""

import math
import time
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mellin_cipher
from mellin_cipher import CipherKey, CipherText
from mellin_cipher.alphabet import ALPHABET
from mellin_cipher.errors import CipherToolkitError, ExactnessBoundExceeded, InvalidParameter, InvalidScale

_WALL_S = 5.0


class _Wide(int):
    """An int past the digit limit whose repr the test's own report can print; str() still refuses it."""

    def __repr__(self):
        return f"<{self.bit_length()}-bit int>"


class _WideFraction(Fraction):
    """A Fraction past the digit limit, printable as _Wide is."""

    def __repr__(self):
        return f"<{self.numerator.bit_length()}-bit Fraction>"


_INTS = st.sampled_from(
    [0, -1, 3, 2**63, _Wide(10**5000), True, 1.5, Fraction(3, 2), np.int64(3), np.int64(0), np.int64(-1)]
)
_TOLS = st.sampled_from(
    [1e-9, math.nan, -1.0, _Wide(-(10**5000)), _WideFraction(-(10**5000)), Decimal("NaN")]
)
_SCALES = _INTS | st.sampled_from(
    [0.5, math.inf, math.nan, Fraction(1, 10**400), Fraction(10**400), _WideFraction(10**5000), Decimal("1e-400"),
     Decimal("NaN")]
)
_MAX_S = _INTS.filter(lambda value: not value > 10**4)
# drawn for max_s and nodes after _MAX_S's filter, whose > would raise on them
_NANS = st.sampled_from([Decimal("NaN"), Decimal("sNaN")])
# flags read by truth value; [1] is unhashable
_FLAG_VALUES = [1, 0, "", [1], np.bool_(True)]
_FLAGS = st.sampled_from(_FLAG_VALUES)
_LISTS = st.lists(_INTS | st.integers(1, 26), max_size=4)
_TEXT = st.text(alphabet=ALPHABET + "az1 \xdf", max_size=8) | st.sampled_from([None, 3, b"AB"])
_BYTES = st.binary(max_size=12) | st.sampled_from(
    [b"JBHDN\n", b"MELLIN-KEY-V1\ns=4\nn=1\nq1=7\n", b"MELLIN-KEY-V1\ns=9223372036854775808\nn=1\nq1=0\n"]
) | _INTS  # no int from about 10**6 to 2**63, which a reader taking an int as a size would allocate


class _Build(tuple):
    """A record's constructor arguments: the record is built inside the timed call, so its checks count."""

    def __new__(cls, record, *args):
        return super().__new__(cls, (record, *args))

    def __call__(self):
        return self[0](*self[1:])


_KEYS = st.builds(_Build, st.just(CipherKey), _INTS, _LISTS)
_TEXTS = st.builds(_Build, st.just(CipherText), _LISTS)
_LETTERS = st.text(alphabet=ALPHABET, max_size=4).map(CipherText.from_letters)

# each public name's positional and keyword arguments
_CALLS = {
    "CipherKey": st.tuples(st.tuples(_INTS, _LISTS), st.just({})),
    "CipherText": st.tuples(st.tuples(_LISTS), st.just({})),
    "OracleResult": st.tuples(st.tuples(_SCALES, _INTS, _TOLS), st.just({})),
    "decode_values": st.tuples(st.tuples(_LISTS), st.just({})),
    "decrypt": st.tuples(st.tuples(_TEXTS | _LETTERS, _KEYS), st.just({})),
    "encode_text": st.tuples(st.tuples(_TEXT), st.fixed_dictionaries({"fold_case": st.booleans()})),
    "encrypt": st.tuples(st.tuples(_TEXT, _INTS), st.fixed_dictionaries({"fold_case": st.booleans()})),
    "exponent_schedule": st.tuples(st.tuples(_INTS, _INTS), st.just({})),
    "gamma_identity_check": st.tuples(st.tuples(_INTS, _INTS, _TOLS), st.just({})),
    "numeric_mellin": st.tuples(
        st.tuples(_INTS, _INTS),
        st.fixed_dictionaries({"nodes": st.none() | _INTS | _NANS, "log_space": st.booleans() | _FLAGS}),
    ),
    "read_ciphertext": st.tuples(st.tuples(_BYTES), st.just({})),
    "read_key": st.tuples(st.tuples(_BYTES), st.just({})),
    "recover_s": st.tuples(st.tuples(_TEXTS | _LETTERS, _LISTS, _MAX_S | _NANS), st.just({})),
    "scaling_check": st.tuples(st.tuples(_SCALES, _INTS, _INTS, _TOLS), st.just({})),
    "shift_check": st.tuples(st.tuples(_SCALES, _INTS, _INTS, _TOLS), st.just({})),
    "split_mod26": st.tuples(st.tuples(_INTS), st.just({})),
    "transform_coefficients": st.tuples(st.tuples(_LISTS, _INTS), st.just({})),
    "write_ciphertext": st.tuples(st.tuples(_TEXTS | _LETTERS), st.just({})),
    "write_key": st.tuples(st.tuples(_KEYS), st.just({})),
}


def test_every_public_name_has_a_contract_case():
    assert sorted(_CALLS) == sorted(mellin_cipher.__all__)


@given(st.sampled_from(sorted(_CALLS)).flatmap(lambda name: st.tuples(st.just(name), _CALLS[name])))
@settings(max_examples=600, deadline=None)
def test_public_names_keep_the_input_contract(case):
    name, (args, kwargs) = case
    start = time.perf_counter()
    try:
        args = [arg() if isinstance(arg, _Build) else arg for arg in args]
        getattr(mellin_cipher, name)(*args, **kwargs)
    except (CipherToolkitError, TypeError):
        pass
    assert time.perf_counter() - start < _WALL_S


_CT, _KEY = mellin_cipher.encrypt("HELLO", 4)

# per reading rule, the values an argument read its own way lets escape: a Decimal NaN as a stdlib error,
# an int as a count of zero bytes to read, an int or None as text
_READING_RULES = {
    "recover_s-nan-max_s": (lambda: mellin_cipher.recover_s(_CT, _KEY.quotients, Decimal("NaN")), TypeError),
    "numeric_mellin-nan-nodes": (lambda: mellin_cipher.numeric_mellin(1, 1, nodes=Decimal("NaN")), TypeError),
    "gamma_identity_check-nan-tol": (
        lambda: mellin_cipher.gamma_identity_check(1, 1, Decimal("NaN")), InvalidParameter
    ),
    "scaling_check-nan-scale": (lambda: mellin_cipher.scaling_check(Decimal("NaN"), 1, 1, 1e-9), InvalidScale),
    "scaling_check-nan-tol": (lambda: mellin_cipher.scaling_check(2.0, 1, 1, Decimal("NaN")), InvalidParameter),
    "shift_check-nan-tol": (lambda: mellin_cipher.shift_check(1, 1, 1, Decimal("NaN")), InvalidParameter),
    "read_key-2**63": (lambda: mellin_cipher.read_key(2**63), TypeError),
    "read_ciphertext-2**63": (lambda: mellin_cipher.read_ciphertext(2**63), TypeError),
    "read_key-10**8": (lambda: mellin_cipher.read_key(10**8), TypeError),
    "read_ciphertext-10**8": (lambda: mellin_cipher.read_ciphertext(10**8), TypeError),
    "encode_text-int": (lambda: mellin_cipher.encode_text(123), TypeError),
    "encrypt-none": (lambda: mellin_cipher.encrypt(None, 4), TypeError),
    "from_letters-int": (lambda: CipherText.from_letters(5), TypeError),
}


@pytest.mark.parametrize("name", _READING_RULES)
def test_each_argument_kind_is_read_by_one_rule(name):
    call, expected = _READING_RULES[name]
    with pytest.raises(expected):
        call()


@pytest.mark.parametrize("flag", _FLAG_VALUES, ids=repr)
def test_a_flag_reads_as_its_truth_value(flag):
    numeric_mellin = mellin_cipher.numeric_mellin
    for n, s in ((3, 4), (20, 21)):
        assert numeric_mellin(n, s, log_space=flag) == numeric_mellin(n, s, log_space=bool(flag))
    if flag:  # degree 41 is past the linear bound only
        assert numeric_mellin(20, 22, log_space=flag) == numeric_mellin(20, 22, log_space=True)
    else:
        with pytest.raises(ExactnessBoundExceeded):
            numeric_mellin(20, 22, log_space=flag)
