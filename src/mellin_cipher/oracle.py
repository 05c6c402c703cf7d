"""Numerical verification of the integral identities behind the cipher.

The cipher's coefficient transform rests on the identity

    integral_0^inf exp(-x) * x^(s+n-1) dx = (s+n-1)!

i.e. the transform of exp(-x) * x^n evaluated at s equals Gamma(s+n). This
module checks that identity, plus the scaling and exponent-shift properties
of the transform, by actually integrating.

The integrands are exp(-x) times a polynomial, so Gauss-Laguerre quadrature
with m nodes is exact for polynomial degree up to 2m-1; we always take at
least one node more than exactness requires, leaving floating-point rounding
as the only error source. Scaled integrands exp(-a*x) times a polynomial use
the same rule rescaled to the weight exp(-a*x): nodes x_k/a, weights w_k/a.

Exponents are bounded at 40, where the exact factorial still compares
meaningfully as a double. ``numeric_mellin(..., log_space=True)`` switches
the sum and the comparison to log scale (log-sum-exp against the
log-factorial) and raises the bound to 300. Every check goes through
:func:`numeric_mellin` except ``scaling_check``, whose integrand needs the
rescaled rule.
"""

import functools
import math
import operator
import sys
from itertools import repeat
from operator import mul

from .cipher import _Record
from .errors import ExactnessBoundExceeded, InvalidParameter, InvalidScale, _render_int

DEFAULT_EXACTNESS_BOUND = 40
LOG_SPACE_EXACTNESS_BOUND = 300


class OracleResult(_Record):
    """A numeric integral next to its exact factorial reference."""

    __slots__ = ("numeric", "exact", "relative_error")

    def __init__(self, numeric: float, exact: int, relative_error: float):
        object.__setattr__(self, "numeric", numeric)
        object.__setattr__(self, "exact", exact)
        object.__setattr__(self, "relative_error", relative_error)

    @classmethod
    def from_numeric(cls, numeric: float, exact: int) -> "OracleResult":
        return cls(numeric, exact, abs(numeric - exact) / exact)


def _auto_node_count(degree: int) -> int:
    # one node beyond the exactness minimum ceil((degree+1)/2)
    return degree // 2 + 2


_MAX_NODES = _auto_node_count(LOG_SPACE_EXACTNESS_BOUND)  # 152, the largest rule an allowed degree needs


@functools.cache
def _laguerre_rule(m: int) -> tuple:
    """The nodes, weights and log-weights of the m-node Gauss-Laguerre rule, by Halley's method on
    the recurrence (j+1) L_{j+1} = (2j+1-x) L_j - j L_{j-1}, started from Numerical Recipes'
    gaulag guesses (Press et al., section 4.5) up to 7 nodes and beyond from a cubic extrapolation
    of the last four rules: of x*(4m+2), which barely moves with m, at the small-end half, of x
    counted from the last node at the rest. The weight x / (m*L_{m-1}(x))^2 is formed as a log,
    as L_{m-1} overflows at large x."""
    steps = [((2 * j + 1) / (j + 1), 1 / (j + 1), j / (j + 1)) for j in range(m)]
    guesses = []
    if m > 7:
        for count in range(8, m):  # the smaller rules bottom-up, so a cold call nests one frame, not m
            _laguerre_rule(count)
        prev = [_laguerre_rule(m - k)[0] for k in (1, 2, 3, 4)]
        scaled = [[x * (4 * (m - k) + 2) for x in rule[: m // 2]] for k, rule in enumerate(prev, 1)]
        guesses = [(4 * u - 6 * v + 4 * w - t) / (4 * m + 2) for u, v, w, t in zip(*scaled)]
        guesses += [4 * u - 6 * v + 4 * w - t for u, v, w, t in zip(*(r[::-1] for r in prev))][m - m // 2 - 1 :: -1]
    nodes, log_weights, z = [], [], 0.0
    for i in range(m):
        if guesses:
            z = guesses[i]
        elif i < 2:
            z += 3 / (1 + 2.4 * m) if i == 0 else 15 / (1 + 2.5 * m)
        else:
            z += (1 + 2.55 * (i - 1)) / (1.9 * (i - 1)) * (z - nodes[i - 2])
        while True:
            high, low = 1.0, 0.0  # L_j(z), L_{j-1}(z)
            for a, b, c in steps:
                high, low = (a - b * z) * high - c * low, high
            ratio = z * high / (m * (high - low))  # L_m / L_m', as x L_m' = m (L_m - L_{m-1})
            dz = ratio / (1 - ratio * (z - 1 - m * ratio) / (2 * z))  # as x L_m'' = (x-1) L_m' - m L_m
            if abs(dz) <= 1e-6 * z:  # Halley's error is cubic: about 1e-18 z after this step
                break
            z -= dz
        slope = ((z - m) * low + m * high) / z  # L_{m-1}', as x L_{m-1}' = (x-m) L_{m-1} + m L_m
        # L_{m-1}(z-dz) to second order, as x L_{m-1}'' = (x-1) L_{m-1}' - (m-1) L_{m-1}
        low -= dz * (slope - dz * ((z - 1) * slope - (m - 1) * low) / (2 * z))
        z -= dz
        nodes.append(z)
        log_weights.append(math.log(z) - 2 * math.log(abs(m * low)))
    return tuple(nodes), tuple(map(math.exp, log_weights)), tuple(log_weights)


def _degree(n: int, s: int, bound: int) -> int:
    """The integrand's degree s + n - 1, for exact ints n, s >= 1 that keep it within bound."""
    degree = operator.index(s) + operator.index(n) - 1  # a float n or s raises TypeError
    if n < 1 or s < 1:
        raise InvalidParameter(f"n and s must be >= 1, got n={_render_int(n)}, s={_render_int(s)}")
    if degree > bound:
        raise ExactnessBoundExceeded(degree, bound)
    return degree


def numeric_mellin(
    n: int, s: int, *, nodes: int | None = None, log_space: bool = False
) -> OracleResult:
    """Integrate exp(-x) * x^n against x^(s-1) and compare to (s+n-1)!.

    The node count defaults to one more than polynomial exactness requires;
    pass ``nodes`` (at most 152) for a larger, still exact rule. Exponents
    beyond 40, or 300 in log-space mode, raise :class:`ExactnessBoundExceeded`.
    Pairs of equal s+n-1 share one kept result per node count and mode: at
    most 28,780 results over the allowed domain, from at most 152 kept rules.
    """
    degree = _degree(n, s, LOG_SPACE_EXACTNESS_BOUND if log_space else DEFAULT_EXACTNESS_BOUND)
    minimum = (degree + 2) // 2
    node_count = _auto_node_count(degree) if nodes is None else nodes
    if operator.index(node_count) < minimum:  # a float node count is a TypeError
        raise InvalidParameter(
            f"{_render_int(node_count)} nodes cannot integrate degree {degree} exactly (need >= {minimum})"
        )
    if node_count > _MAX_NODES:
        raise InvalidParameter(f"{_render_int(node_count)} nodes exceed the largest rule, {_MAX_NODES}")
    return _integral(degree, operator.index(node_count), bool(log_space))  # a log_space of [1] keys as True


@functools.cache
def _integral(degree: int, node_count: int, log_space: bool) -> OracleResult:
    x, w, log_w = _laguerre_rule(node_count)
    exact = math.factorial(degree)
    if not log_space:
        return OracleResult.from_numeric(math.fsum(map(mul, w, map(pow, x, repeat(degree)))), exact)
    terms = [lw + degree * lx for lw, lx in zip(log_w, map(math.log, x))]
    top = max(terms)  # every shifted term is in (0, 1], so a plain sum errs by at most m*epsilon
    log_numeric = top + math.log(sum([math.exp(t - top) for t in terms]))
    relative_error = abs(math.expm1(log_numeric - math.log(exact)))
    try:
        numeric = math.exp(log_numeric)
    except OverflowError:
        numeric = math.inf
    return OracleResult(numeric, exact, relative_error)


def _check_tol(tol: float) -> None:
    if tol != tol or not tol > 0:  # NaN too: a Decimal NaN signals on > but not on !=
        raise InvalidParameter(f"tolerance must be > 0, got {_render_int(tol)}")


def gamma_identity_check(n: int, s: int, tol: float) -> bool:
    """True iff the quadrature matches (s+n-1)! to within relative tol."""
    _check_tol(tol)
    return numeric_mellin(n, s).relative_error <= tol


# the open range scaling_check keeps its extremes in: a term lost to underflow is then below rounding
_SAFE_LOW, _SAFE_HIGH = sys.float_info.min / sys.float_info.epsilon, sys.float_info.max / math.e


def scaling_check(a: float, n: int, s: int, tol: float) -> bool:
    """Verify the scaling property: transforming exp(-a*x)*(a*x)^n at s
    multiplies the unscaled value by a^(-s).

    The integrand is exp(-a*x) times a polynomial of degree s+n-1, so it is
    integrated with the Gauss-Laguerre rule rescaled to the weight exp(-a*x)
    (nodes x_k/a, weights w_k/a) and compared against a^(-s) * (s+n-1)!.
    A scale of any real type raises :class:`InvalidScale` if a node, the
    smallest weight, the largest integrand value, a^(-s) or the reference,
    as doubles, comes within a factor e of the largest double or a factor
    1/epsilon of the smallest normal one.
    """
    if a != a or not 0 < a < math.inf:  # NaN and inf too; != tests NaN without ordering it
        raise InvalidScale(f"scale factor must be finite and > 0, got {_render_int(a)}")
    _check_tol(tol)
    s, n = operator.index(s), operator.index(n)  # numpy ints would make the powers below numpy's, which warn
    degree = _degree(n, s, DEFAULT_EXACTNESS_BOUND)
    nodes, weights, _ = _laguerre_rule(_auto_node_count(degree))
    try:  # an overflow, or a scale that is 0.0 as a double, is out of range
        scale = float(a)  # a numpy integer would refuse the negative power below
        shrink = scale ** (-s)
        integrand = [x**n * (x / scale) ** (s - 1) for x in nodes]  # largest at the largest node
        reference = shrink * math.factorial(degree)
        extremes = (nodes[0] / scale, nodes[-1] / scale, weights[-1] / scale, integrand[-1], shrink, reference)
        in_range = _SAFE_LOW < min(extremes) and max(extremes) < _SAFE_HIGH
    except (OverflowError, ZeroDivisionError):
        in_range = False
    if not in_range:
        raise InvalidScale(f"scale factor {_render_int(a)} takes n={n}, s={s} outside the double range")
    numeric = math.fsum([w / scale * f for w, f in zip(weights, integrand)])
    return abs(numeric - reference) / reference <= tol


def shift_check(a: int, n: int, s: int, tol: float) -> bool:
    """Verify that multiplying the integrand by x^a shifts the transform
    argument: the transform of x^a * exp(-x) * x^n at s agrees with the
    transform of exp(-x) * x^n at s+a.

    Both sides are degree s+a+n-1 quadratures; they are computed with
    different node counts so the agreement is between two genuinely distinct
    sums, and the verdict uses a symmetric relative difference.
    """
    a, n, s = operator.index(a), operator.index(n), operator.index(s)  # numpy ints could overflow below
    if a < 0:
        raise InvalidParameter(f"shift must be >= 0, got {_render_int(a)}")
    _check_tol(tol)
    base = _auto_node_count(s + a + n - 1)
    lifted = numeric_mellin(n + a, s, nodes=base).numeric  # x^a folded into the integrand
    shifted = numeric_mellin(n, s + a, nodes=base + 2).numeric  # plain integrand at s+a
    return abs(lifted - shifted) / max(abs(lifted), abs(shifted)) <= tol
