"""Closed-form link invariants that no engine computes.

The determinant of a pretzel link P(k_1, ..., k_u) is
|e_{u-1}(k)| = |sum_i prod_{j != i} k_j|, the Goeritz-matrix count of the
standard diagram (Goeritz 1933; Gordon-Litherland 1978), and it equals
|Delta(-1)| = |nabla(2i)|.  The tags do not enter.  Both sides are exact
integers here: nabla(2i) is evaluated in the Gaussian integers.
"""

from pretzellinks.sequences import EnhancedSequence
from pretzellinks.zpoly import ZPoly


def elementary_u_minus_1(ks) -> int:
    """e_{u-1}(k) = sum_i prod_{j != i} k_j, by one pass of prefix products."""
    e_full, e_drop = 1, 0  # e_u and e_{u-1} of the entries read so far
    for k in ks:
        e_full, e_drop = e_full * k, e_drop * k + e_full
    return e_drop


def norm_at_2i(nabla: ZPoly) -> int:
    """|nabla(2i)|^2, evaluated exactly as a Gaussian integer."""
    re = im = 0
    power = (1, 0)  # (2i)^j as (real, imaginary)
    for c in nabla.coeffs:
        re += c * power[0]
        im += c * power[1]
        power = (-2 * power[1], 2 * power[0])
    return re * re + im * im


def determinant_identity_holds(seq: EnhancedSequence, nabla: ZPoly) -> bool:
    """|nabla(2i)|^2 == e_{u-1}(k)^2 for a user word and its Conway value."""
    return norm_at_2i(nabla) == elementary_u_minus_1([e.k for e in seq]) ** 2
