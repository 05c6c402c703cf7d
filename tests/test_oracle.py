import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mellin_cipher
from mellin_cipher.errors import (
    CipherToolkitError,
    ExactnessBoundExceeded,
    InvalidParameter,
    InvalidScale,
)
from mellin_cipher.oracle import (
    DEFAULT_EXACTNESS_BOUND,
    OracleResult,
    gamma_identity_check,
    numeric_mellin,
    scaling_check,
    shift_check,
)


def test_numeric_mellin_known_values():
    assert numeric_mellin(1, 4).exact == 24
    assert numeric_mellin(1, 4).numeric == pytest.approx(24, rel=1e-12)
    assert numeric_mellin(5, 4).exact == 40320  # 604800 / 15
    assert numeric_mellin(5, 4).numeric == pytest.approx(40320, rel=1e-12)
    assert numeric_mellin(3, 3).exact == 120  # 1440 / 12
    assert numeric_mellin(3, 3).numeric == pytest.approx(120, rel=1e-12)


def test_numeric_mellin_rejects_bad_args():
    with pytest.raises(InvalidParameter):
        numeric_mellin(0, 4)
    with pytest.raises(InvalidParameter):
        numeric_mellin(4, 0)


def test_numeric_mellin_default_bound():
    assert numeric_mellin(1, DEFAULT_EXACTNESS_BOUND).exact == math.factorial(40)
    with pytest.raises(ExactnessBoundExceeded):
        numeric_mellin(2, DEFAULT_EXACTNESS_BOUND)


def test_numeric_mellin_node_budget():
    # 6 nodes integrate degree <= 11 exactly; degree 12 must be refused
    assert numeric_mellin(6, 6, nodes=7).relative_error < 1e-12
    with pytest.raises(InvalidParameter):
        numeric_mellin(7, 6, nodes=6)


def test_gamma_identity_grid():
    for n in range(1, 16):
        for s in range(1, 16):
            if s + n - 1 <= 15:
                assert gamma_identity_check(n, s, 1e-9)


def test_gamma_identity_check_large_exponents_relaxed_tol():
    for n, s in [(10, 10), (20, 21), (1, 40)]:
        assert gamma_identity_check(n, s, 1e-6)


def test_comparator_rejects_perturbation():
    clean = numeric_mellin(1, 1)
    perturbed = OracleResult.from_numeric(clean.numeric + 1e-6, clean.exact)
    assert perturbed.relative_error > 1e-15
    assert not perturbed.relative_error <= 1e-15


def test_gamma_identity_rejects_nonpositive_tol():
    with pytest.raises(InvalidParameter):
        gamma_identity_check(1, 1, 0.0)


def test_recurrence_between_neighbouring_s():
    for n in range(1, 6):
        for s in range(1, 6):
            ratio = numeric_mellin(n, s + 1).numeric / numeric_mellin(n, s).numeric
            assert ratio == pytest.approx(s + n, rel=1e-6)


def test_log_space_mode_matches_exact():
    for degree_args in [(5, 4), (30, 30), (100, 100), (150, 149)]:
        n, s = degree_args
        result = numeric_mellin(n, s, log_space=True)
        assert result.relative_error < 1e-9
        assert result.exact == math.factorial(s + n - 1)


def test_log_space_lifts_default_bound():
    assert numeric_mellin(30, 30, log_space=True).relative_error < 1e-9
    with pytest.raises(ExactnessBoundExceeded):
        numeric_mellin(200, 200, log_space=True)


def test_scaling_check_identity_scale():
    assert scaling_check(1.0, 2, 3, 1e-9)


def test_scaling_check_closed_forms():
    # a=2, n=1, s=4: integral = 2^(-4) * 4! = 1.5
    assert scaling_check(2.0, 1, 4, 1e-8)
    # a=0.5, n=3, s=2: integral = 0.5^(-2) * 4! = 96
    assert scaling_check(0.5, 3, 2, 1e-8)


def test_scaling_check_grid():
    for a in (1e-3, 0.5, 1.0, 2.0, 4.0, 1e3):
        for n in range(1, 7):
            for s in range(1, 7):
                assert scaling_check(a, n, s, 1e-8)


def test_scaling_check_rejects_bad_scale():
    with pytest.raises(InvalidScale):
        scaling_check(0.0, 1, 1, 1e-8)
    with pytest.raises(InvalidScale):
        scaling_check(-2.0, 1, 1, 1e-8)


def test_import_loads_numpy_alone():
    # numpy is the package's only runtime dependency; a fresh import loads no other package
    src = str(Path(mellin_cipher.__file__).resolve().parents[1])
    probe = (
        "import sys; before = set(sys.modules); import mellin_cipher; "
        "print(*{m.split('.')[0] for m in set(sys.modules) - before} - set(sys.stdlib_module_names))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert set(result.stdout.split()) <= {"mellin_cipher", "numpy"}


def test_shift_check_known():
    assert shift_check(0, 2, 3, 1e-12)
    assert shift_check(2, 1, 2, 1e-9)  # both sides Gamma(5) = 24
    assert shift_check(3, 2, 4, 1e-9)  # both sides Gamma(9) = 40320


def test_shift_check_grid():
    for a in (0, 1, 2, 3):
        for n in range(1, 6):
            for s in range(1, 6):
                assert shift_check(a, n, s, 1e-9)


def test_shift_check_bound():
    with pytest.raises(ExactnessBoundExceeded):
        shift_check(30, 6, 6, 1e-9)


def test_shift_check_rejects_negative_shift():
    with pytest.raises(InvalidParameter):
        shift_check(-1, 1, 1, 1e-9)


def test_shift_verdict_symmetric():
    # computing either side with the larger rule must not change the verdict
    for a, n, s in [(1, 2, 3), (2, 4, 1), (3, 1, 5)]:
        degree = s + a + n - 1
        base = degree // 2 + 2
        one = numeric_mellin(n + a, s, nodes=base).numeric
        two = numeric_mellin(n, s + a, nodes=base + 2).numeric
        swapped_one = numeric_mellin(n + a, s, nodes=base + 2).numeric
        swapped_two = numeric_mellin(n, s + a, nodes=base).numeric
        tol = 1e-9
        verdict = abs(one - two) / max(abs(one), abs(two)) <= tol
        swapped = abs(swapped_one - swapped_two) / max(abs(swapped_one), abs(swapped_two)) <= tol
        assert verdict == swapped == shift_check(a, n, s, tol)


def test_oracle_result_fields():
    result = numeric_mellin(2, 3)
    assert result.relative_error >= 0
    assert math.isfinite(result.relative_error)
    assert result.relative_error == abs(result.numeric - result.exact) / result.exact


# one valid call per oracle function; each fault below changes exactly one argument
_VALID_CALLS = {
    "numeric_mellin": (numeric_mellin, {"n": 2, "s": 3}),
    "gamma_identity_check": (gamma_identity_check, {"n": 2, "s": 3, "tol": 1e-9}),
    "scaling_check": (scaling_check, {"a": 1.0, "n": 2, "s": 3, "tol": 1e-9}),
    "shift_check": (shift_check, {"a": 1, "n": 2, "s": 3, "tol": 1e-9}),
}

_SINGLE_FAULTS = [
    ("numeric_mellin", {"n": 0}, InvalidParameter),
    ("numeric_mellin", {"s": 0}, InvalidParameter),
    ("numeric_mellin", {"s": 40}, ExactnessBoundExceeded),  # degree 41
    ("gamma_identity_check", {"n": 0}, InvalidParameter),
    ("gamma_identity_check", {"s": 0}, InvalidParameter),
    ("gamma_identity_check", {"tol": 0.0}, InvalidParameter),
    ("gamma_identity_check", {"s": 40}, ExactnessBoundExceeded),  # degree 41
    ("scaling_check", {"n": 0}, InvalidParameter),
    ("scaling_check", {"s": 0}, InvalidParameter),
    ("scaling_check", {"tol": 0.0}, InvalidParameter),
    ("scaling_check", {"a": 0.0}, InvalidScale),
    ("scaling_check", {"a": -1.0}, InvalidScale),
    ("scaling_check", {"s": 40}, ExactnessBoundExceeded),  # degree 41
    ("shift_check", {"n": 0}, InvalidParameter),
    ("shift_check", {"s": 0}, InvalidParameter),
    ("shift_check", {"tol": 0.0}, InvalidParameter),
    ("shift_check", {"a": -1}, InvalidParameter),
    ("shift_check", {"s": 39}, ExactnessBoundExceeded),  # degree 39 + 1 + 2 - 1 = 41
]


@pytest.mark.parametrize("name", _VALID_CALLS)
def test_oracle_valid_call(name):
    call, args = _VALID_CALLS[name]
    assert call(**args)


@pytest.mark.parametrize(
    "name, fault, expected",
    _SINGLE_FAULTS,
    ids=[f"{name}-{key}={value}" for name, fault, _ in _SINGLE_FAULTS for key, value in fault.items()],
)
def test_oracle_single_fault(name, fault, expected):
    call, args = _VALID_CALLS[name]
    with pytest.raises(CipherToolkitError) as caught:
        call(**{**args, **fault})
    assert type(caught.value) is expected
