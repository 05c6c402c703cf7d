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

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.laguerre import laggauss

from .errors import ExactnessBoundExceeded, InvalidParameter, InvalidScale

DEFAULT_EXACTNESS_BOUND = 40
LOG_SPACE_EXACTNESS_BOUND = 300


@dataclass(frozen=True)
class OracleResult:
    """A numeric integral next to its exact factorial reference."""

    numeric: float
    exact: int
    relative_error: float

    @classmethod
    def from_numeric(cls, numeric: float, exact: int) -> "OracleResult":
        return cls(numeric, exact, abs(numeric - exact) / exact)


@lru_cache(maxsize=None)
def _laguerre_rule(node_count: int) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = laggauss(node_count)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _auto_node_count(degree: int) -> int:
    # one node beyond the exactness minimum ceil((degree+1)/2)
    return degree // 2 + 2


def numeric_mellin(
    n: int, s: int, *, nodes: int | None = None, log_space: bool = False
) -> OracleResult:
    """Integrate exp(-x) * x^n against x^(s-1) and compare to (s+n-1)!.

    The node count defaults to one more than polynomial exactness requires;
    pass ``nodes`` to request a (still exact) larger rule. Exponents beyond
    40, or 300 in log-space mode, raise :class:`ExactnessBoundExceeded`.
    """
    if n < 1 or s < 1:
        raise InvalidParameter(f"n and s must be >= 1, got n={n}, s={s}")
    degree = s + n - 1
    bound = LOG_SPACE_EXACTNESS_BOUND if log_space else DEFAULT_EXACTNESS_BOUND
    if degree > bound:
        raise ExactnessBoundExceeded(degree, bound)
    minimum = (degree + 2) // 2
    node_count = _auto_node_count(degree) if nodes is None else nodes
    if node_count < minimum:
        raise InvalidParameter(
            f"{node_count} nodes cannot integrate degree {degree} exactly (need >= {minimum})"
        )
    x, w = _laguerre_rule(node_count)
    exact = math.factorial(degree)
    if not log_space:
        return OracleResult.from_numeric(float(w @ x**degree), exact)
    log_numeric = float(np.logaddexp.reduce(np.log(w) + degree * np.log(x)))
    relative_error = abs(math.expm1(log_numeric - math.log(exact)))
    try:
        numeric = math.exp(log_numeric)
    except OverflowError:
        numeric = math.inf
    return OracleResult(numeric, exact, relative_error)


def _check_tol(tol: float) -> None:
    if tol <= 0:
        raise InvalidParameter(f"tolerance must be > 0, got {tol}")


def gamma_identity_check(n: int, s: int, tol: float) -> bool:
    """True iff the quadrature matches (s+n-1)! to within relative tol."""
    _check_tol(tol)
    return numeric_mellin(n, s).relative_error <= tol


def scaling_check(a: float, n: int, s: int, tol: float) -> bool:
    """Verify the scaling property: transforming exp(-a*x)*(a*x)^n at s
    multiplies the unscaled value by a^(-s).

    The integrand is exp(-a*x) times a polynomial of degree s+n-1, so it is
    integrated with the Gauss-Laguerre rule rescaled to the weight exp(-a*x)
    (nodes x_k/a, weights w_k/a) and compared against a^(-s) * (s+n-1)!.
    """
    if a <= 0:
        raise InvalidScale(f"scale factor must be > 0, got {a}")
    if n < 1 or s < 1:
        raise InvalidParameter(f"n and s must be >= 1, got n={n}, s={s}")
    _check_tol(tol)
    degree = s + n - 1
    if degree > DEFAULT_EXACTNESS_BOUND:
        raise ExactnessBoundExceeded(degree, DEFAULT_EXACTNESS_BOUND)
    nodes, weights = _laguerre_rule(_auto_node_count(degree))
    x = nodes / a
    numeric = float((weights / a) @ ((a * x) ** n * x ** (s - 1)))
    reference = a ** (-s) * math.factorial(degree)
    return abs(numeric - reference) / reference <= tol


def shift_check(a: int, n: int, s: int, tol: float) -> bool:
    """Verify that multiplying the integrand by x^a shifts the transform
    argument: the transform of x^a * exp(-x) * x^n at s agrees with the
    transform of exp(-x) * x^n at s+a.

    Both sides are degree s+a+n-1 quadratures; they are computed with
    different node counts so the agreement is between two genuinely distinct
    sums, and the verdict uses a symmetric relative difference.
    """
    if a < 0:
        raise InvalidParameter(f"shift must be >= 0, got {a}")
    _check_tol(tol)
    base = _auto_node_count(s + a + n - 1)
    lifted = numeric_mellin(n + a, s, nodes=base).numeric  # x^a folded into the integrand
    shifted = numeric_mellin(n, s + a, nodes=base + 2).numeric  # plain integrand at s+a
    return abs(lifted - shifted) / max(abs(lifted), abs(shifted)) <= tol
