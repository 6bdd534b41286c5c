"""The oracle's Bareiss elimination as it was first written, kept as a test
reference only.

`diagrams._bareiss_det` eliminates over Z[y] on plain coefficient sequences
and skips products with a zero factor; `dense_laurent_det` is the dense
Laurent loop it descends from, verbatim.  `conway_from_seifert` eliminates
y*V - V^T in y = x^2; `x_form_conway` eliminates x*V - x^-1*V^T itself.
"""

from pretzellinks.zpoly import LaurentZ, ZPoly


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


def x_form_conway(rows) -> ZPoly:
    """det(x*V - x^-1*V^T) by the dense loop in x, rewritten in z."""
    n = len(rows)
    if n == 0:
        return ZPoly.one()
    m = [[LaurentZ(-1, (-rows[j][i], 0, rows[i][j])) for j in range(n)]
         for i in range(n)]
    return dense_laurent_det(m).substitute_z()
