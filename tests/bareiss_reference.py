"""The oracle's Bareiss elimination with every entry pair multiplied.

`diagrams._laurent_det` skips products with a zero factor.  This is the
dense loop it replaced, kept verbatim as a test reference only.
"""

from pretzellinks.zpoly import LaurentZ


def dense_laurent_det(m: list[list[LaurentZ]]) -> LaurentZ:
    """Fraction-free (Bareiss) determinant over the Laurent ring."""
    n = len(m)
    sign = 1
    prev = LaurentZ.const(1)
    for k in range(n - 1):
        if m[k][k].is_zero():
            pivot = next((r for r in range(k + 1, n) if not m[r][k].is_zero()), None)
            if pivot is None:
                return LaurentZ.zero()
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                m[i][j] = num.exact_div(prev)
        prev = m[k][k]
    return m[n - 1][n - 1] * sign
