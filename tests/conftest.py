import sys

import pytest

DEFAULT_INT_MAX_STR_DIGITS = 4300


@pytest.fixture
def digit_limit():
    """The interpreter's int <-> str digit limit, pinned to its default for one test."""
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(DEFAULT_INT_MAX_STR_DIGITS)
    yield DEFAULT_INT_MAX_STR_DIGITS
    sys.set_int_max_str_digits(previous)
