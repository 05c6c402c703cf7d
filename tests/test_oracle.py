import math
import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mellin_cipher
from mellin_cipher import cli, oracle
from mellin_cipher.errors import (
    CipherToolkitError,
    ExactnessBoundExceeded,
    InvalidParameter,
    InvalidScale,
    _render_int,
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


def test_numeric_mellin_node_limit(monkeypatch):
    # 152 nodes serve degree 300 in log space; a larger count is refused before any rule is built
    assert numeric_mellin(150, 151, nodes=152, log_space=True).relative_error < 1e-9
    assert numeric_mellin(1, 1, nodes=152).relative_error < 1e-12

    def build(node_count):
        raise AssertionError(f"built a {node_count}-node rule")

    monkeypatch.setattr(oracle, "_laguerre_rule", build)
    for nodes in (153, 10**9):
        with pytest.raises(InvalidParameter, match="exceed"):
            numeric_mellin(1, 1, nodes=nodes)


def test_laguerre_rule_matches_numpy():
    # differential test against the eigenvalue rule this one replaced
    laguerre = pytest.importorskip("numpy.polynomial.laguerre")
    for m in range(1, 153):
        nodes, weights, log_nodes, log_weights = oracle._laguerre_rule(m)
        reference_nodes, reference_weights = laguerre.laggauss(m)
        assert len(nodes) == len(weights) == len(log_nodes) == len(log_weights) == m
        assert max(abs(x - y) / y for x, y in zip(nodes, reference_nodes)) <= 1e-12, m
        assert all(
            abs(w - v) <= 1e-9 * v for w, v in zip(weights, reference_weights) if v > 1e-290
        ), m
        assert log_nodes == tuple(map(math.log, nodes))
        assert weights == tuple(map(math.exp, log_weights))


def _newton_rules(count):
    """Rules 1..count as the oracle built them by Newton steps from a quadratic extrapolation: the
    reference for the Halley builder that replaced it. Returns {m: (nodes, log_weights)}."""
    rules = {}
    for m in range(1, count + 1):
        steps = [((2 * j + 1) / (j + 1), 1 / (j + 1), j / (j + 1)) for j in range(m)]
        guesses = []
        if m > 6:
            prev = [rules[m - k][0] for k in (1, 2, 3)]
            scaled = (3 * u * (4 * m - 2) - 3 * v * (4 * m - 6) + w * (4 * m - 10) for u, v, w in zip(*prev))
            guesses = [y / (4 * m + 2) for y in scaled][: m // 2]
            guesses += [3 * u - 3 * v + w for u, v, w in zip(*(r[::-1] for r in prev))][m - m // 2 - 1 :: -1]
        nodes, log_weights, z = [], [], 0.0
        for i in range(m):
            if guesses:
                z = guesses[i]
            elif i < 2:
                z += 3 / (1 + 2.4 * m) if i == 0 else 15 / (1 + 2.5 * m)
            else:
                z += (1 + 2.55 * (i - 1)) / (1.9 * (i - 1)) * (z - nodes[i - 2])
            while True:
                high, low = 1.0, 0.0
                for a, b, c in steps:
                    high, low = (a - b * z) * high - c * low, high
                dz = z * high / (m * (high - low))
                if abs(dz) <= 1e-13 * z:
                    break
                z -= dz
            low -= dz * ((z - m) * low + m * high) / z
            z -= dz
            nodes.append(z)
            log_weights.append(math.log(z) - 2 * math.log(abs(m * low)))
        rules[m] = nodes, log_weights
    return rules


def test_laguerre_rule_matches_newton_builder():
    # differential test against the builder the Halley steps replaced; needs no numpy
    for m, (reference_nodes, reference_log_weights) in _newton_rules(152).items():
        nodes, _, _, log_weights = oracle._laguerre_rule(m)
        assert max(abs(x - y) / y for x, y in zip(nodes, reference_nodes)) <= 1e-12, m
        assert max(abs(w - v) for w, v in zip(log_weights, reference_log_weights)) <= 1e-11, m


def test_laguerre_rules_interlace_and_sum():
    # a rule that converged to a wrong or repeated root breaks interlacing or the moments
    previous = ()
    for m in range(1, 153):
        nodes, weights, _, _ = oracle._laguerre_rule(m)
        assert all(a < b < c for a, b, c in zip(nodes, previous, nodes[1:])), m
        assert abs(math.fsum(weights) - 1) <= 1e-13, m
        assert abs(math.fsum(w * x for w, x in zip(weights, nodes)) - 1) <= 1e-13, m
        previous = nodes


def test_every_rule_integrates_its_top_degrees():
    # degrees m, 2m-2 and 2m-1 with the m-node rule, each within its mode's exactness bound
    for m in range(1, 153):
        for degree in {d for d in (m, 2 * m - 2, 2 * m - 1) if d >= 1}:
            if degree <= 300:
                assert numeric_mellin(1, degree, nodes=m, log_space=True).relative_error <= 1e-11, (m, degree)
            if degree <= 40:
                assert numeric_mellin(1, degree, nodes=m).relative_error <= 1e-12, (m, degree)


def test_numeric_mellin_worst_error():
    # the result depends on n and s only through the degree s+n-1
    assert max(numeric_mellin(1, degree).relative_error for degree in range(1, 41)) <= 1e-12
    worst_log = max(numeric_mellin(1, degree, log_space=True).relative_error for degree in range(1, 301))
    assert worst_log <= 1e-11


def _bits(result):
    return result.numeric.hex(), result.exact, result.relative_error.hex()


# (degree, node count, log_space) keys the oracle's callers use: every auto-node rule in both modes, and the two
# rules shift_check compares
_MEMO_KEYS = (
    [(degree, oracle._auto_node_count(degree), False) for degree in range(1, 41)]
    + [(degree, oracle._auto_node_count(degree), True) for degree in range(1, 301)]
    + [(degree, oracle._auto_node_count(degree) + 2, False) for degree in range(1, 41)]
)


def test_memoized_integral_matches_a_fresh_one():
    # differential test against the uncached quadrature: a result kept for one (n, s) serves every pair of its degree
    for degree, node_count, log_space in _MEMO_KEYS:
        fresh = _bits(oracle._integral.__wrapped__(degree, node_count, log_space))
        for n in {1, (degree + 1) // 2, degree}:
            result = numeric_mellin(n, degree - n + 1, nodes=node_count, log_space=log_space)
            assert _bits(result) == fresh, (n, degree, node_count, log_space)


@given(st.data(), st.booleans())
@settings(max_examples=200, deadline=None)
def test_pairs_of_one_degree_integrate_alike(data, log_space):
    degree = data.draw(st.integers(1, 300 if log_space else 40))
    n, n2 = data.draw(st.integers(1, degree)), data.draw(st.integers(1, degree))
    assert _bits(numeric_mellin(n, degree - n + 1, log_space=log_space)) == _bits(
        numeric_mellin(n2, degree - n2 + 1, log_space=log_space)
    )


def test_verify_transform_integrates_each_degree_once(capsys):
    # the default 6 x 6 grid spans degrees 1..11; its output is the one the uncached oracle printed
    oracle._integral.cache_clear()
    assert cli.main(["verify-transform"]) == cli.EXIT_OK
    assert oracle._integral.cache_info().misses == 11
    golden = (Path(__file__).parent / "data" / "verify_transform_default.txt").read_text()
    assert capsys.readouterr() == (golden, "verify-transform: 36/36 pass (tol 1e-09)\n")


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


@pytest.mark.parametrize(
    "a", [1e200, 1e-200, 1e300, 1e-300, Fraction(1, 10**400), Fraction(10**400), Fraction(10**5000), Decimal("1e-400")]
)
def test_scaling_check_rejects_scale_outside_double_range(a):
    # the nodes x/a or the reference a^(-s) * (s+n-1)! would overflow or underflow
    with pytest.raises(InvalidScale):
        scaling_check(a, 2, 3, 1e-9)


@pytest.mark.parametrize("a", [1e100, 1e-100, 1e200, 1e-200])
def test_scaling_check_extreme_scale_in_range(a):
    # at s=1, n=1 the nodes, the weights and the reference stay well inside it
    assert scaling_check(a, 1, 1, 1e-9)


def test_scaling_check_guard_over_every_double_scale():
    # every call gives a verdict or InvalidScale, never a float error; subnormal scales included
    scales = [10 ** (-320 + 628 * k / 599) for k in range(600)]
    verdicts = 0
    for a in scales:
        for n in range(1, 7):
            for s in range(1, 7):
                try:
                    assert scaling_check(a, n, s, 1e-8) is True, (a, n, s)
                except InvalidScale:
                    continue
                verdicts += 1
    assert 0 < verdicts < len(scales) * 36


def _log_scale_range(n, s):
    """The open interval of log(a) in which every value scaling_check forms stays within a factor e of
    the largest double and a factor 1/epsilon above the smallest normal one. scaling_check once derived
    it in log space; it now checks the doubles as it forms them, and this is the reference it must match.

    Each such value is exp(c - k*log(a)) for a c and k of the rule and the degree: the smallest and
    largest node x/a, the smallest weight w/a (the last one), the largest integrand value
    (a*x)^n * x^(s-1), a^(-s) and the reference a^(-s) * (s+n-1)!. At s=1 the integrand does not
    depend on a (k=0); its largest value, below 75^40, fits.
    """
    degree = s + n - 1
    _, _, log_nodes, log_weights = oracle._laguerre_rule(oracle._auto_node_count(degree))
    values = [
        (log_nodes[0], 1),
        (log_nodes[-1], 1),
        (log_weights[-1], 1),
        (degree * log_nodes[-1], s - 1),
        (0.0, s),
        (math.lgamma(degree + 1), s),
    ]
    low = math.log(sys.float_info.min / sys.float_info.epsilon)
    high = math.log(sys.float_info.max) - 1
    return max((c - high) / k for c, k in values if k), min((c - low) / k for c, k in values if k)


def test_scaling_check_refuses_the_scales_the_log_space_range_refused():
    # float, int and numpy scales from subnormal to past the largest double, on (n, s) pairs with
    # every degree up to the bound; a scale within rounding of a reference bound is left out
    floats = [10 ** (-320 + 628 * k / 249) for k in range(250)]
    scales = floats + [10**k for k in range(0, 420, 9)] + [np.float64(a) for a in floats[::10]] + [np.int64(10**18)]
    for n, s in [(n, s) for n in range(1, 41) for s in range(1, 42 - n)]:
        low, high = _log_scale_range(n, s)
        for a in scales:
            log_a = math.log(a)
            if min(abs(log_a - low), abs(log_a - high)) < 1e-12:
                continue
            try:
                scaling_check(a, n, s, 1.0)
            except InvalidScale as exc:
                assert not low < log_a < high, (a, n, s)
                assert str(exc) == f"scale factor {_render_int(a)} takes n={n}, s={s} outside the double range"
            else:
                assert low < log_a < high, (a, n, s)


@pytest.mark.parametrize(
    "check, args", [(gamma_identity_check, (1, 1)), (scaling_check, (2.0, 1, 1)), (shift_check, (1, 1, 1))]
)
def test_a_tolerance_past_the_digit_limit_is_named_by_its_bit_length(check, args):
    with pytest.raises(InvalidParameter, match="tolerance must be > 0, got <16610-bit integer>"):
        check(*args, Fraction(-(10**5000)))


def test_package_lends_the_oracle_names():
    for name in ("OracleResult", "gamma_identity_check", "numeric_mellin", "scaling_check", "shift_check"):
        assert getattr(mellin_cipher, name) is getattr(oracle, name)
    with pytest.raises(AttributeError, match="module 'mellin_cipher' has no attribute 'nothing'"):
        mellin_cipher.nothing


def test_import_loads_numpy_alone():
    # the package has no runtime dependency; a fresh import loads no other package, the oracle included
    src = str(Path(mellin_cipher.__file__).resolve().parents[1])
    probe = (
        "import sys; before = set(sys.modules); import mellin_cipher.oracle; "
        "print(*{m.split('.')[0] for m in set(sys.modules) - before} - set(sys.stdlib_module_names))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert set(result.stdout.split()) <= {"mellin_cipher"}


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
    ("gamma_identity_check", {"tol": math.nan}, InvalidParameter),
    ("gamma_identity_check", {"s": 40}, ExactnessBoundExceeded),  # degree 41
    ("scaling_check", {"n": 0}, InvalidParameter),
    ("scaling_check", {"s": 0}, InvalidParameter),
    ("scaling_check", {"tol": 0.0}, InvalidParameter),
    ("scaling_check", {"tol": math.nan}, InvalidParameter),
    ("scaling_check", {"a": 0.0}, InvalidScale),
    ("scaling_check", {"a": -1.0}, InvalidScale),
    ("scaling_check", {"a": math.nan}, InvalidScale),
    ("scaling_check", {"a": math.inf}, InvalidScale),
    ("scaling_check", {"s": 40}, ExactnessBoundExceeded),  # degree 41
    ("shift_check", {"n": 0}, InvalidParameter),
    ("shift_check", {"s": 0}, InvalidParameter),
    ("shift_check", {"tol": 0.0}, InvalidParameter),
    ("shift_check", {"tol": math.nan}, InvalidParameter),
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
