import contextlib
import math
import sys

import pytest

DEFAULT_INT_MAX_STR_DIGITS = 4300


@contextlib.contextmanager
def default_digit_limit():
    """The interpreter's int <-> str digit limit, pinned to its default inside the block."""
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(DEFAULT_INT_MAX_STR_DIGITS)
    try:
        yield DEFAULT_INT_MAX_STR_DIGITS
    finally:
        sys.set_int_max_str_digits(previous)


@pytest.fixture
def digit_limit():
    """The default digit limit, pinned for one test."""
    with default_digit_limit() as limit:
        yield limit


def refuse_factorials_past(limit, factorial=math.factorial):
    """math.factorial that raises past ``limit``: a gate that lets a huge s through fails, not stalls."""

    def guarded(k):
        if k > limit:
            raise AssertionError(f"math.factorial({k}) computed")
        return factorial(k)

    return guarded
