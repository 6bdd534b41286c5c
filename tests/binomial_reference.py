"""The generalized binomial coefficient, kept as a test reference only.

`polynomials.phi_poly` and `psi_poly` step their coefficients along
binomial ratios; the tests check them against this direct definition.
"""

import math


def binomial(alpha: int, n: int) -> int:
    """Generalized binomial coefficient C(alpha, n), alpha any integer, n >= 0."""
    if n < 0:
        raise ValueError("lower index must be nonnegative")
    q, r = divmod(math.prod(alpha - i for i in range(n)), math.factorial(n))
    assert not r, (alpha, n)
    return q
