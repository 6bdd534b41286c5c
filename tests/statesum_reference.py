"""The state sum by its definition: every resolution state, one at a time.

`polynomials.statesum_conway` groups the states by the counts `base_conway`
reads.  This walk visits all 2^b states of a sequence with b two-way regions
and calls `base_conway` on each, so it is a test reference only.
"""

from pretzellinks.polynomials import (
    _require_realizable,
    base_conway,
    phi_poly,
    psi_poly,
)
from pretzellinks.sequences import INF, EnhancedSequence, Entry, R, S
from pretzellinks.zpoly import ZPoly


def _resolutions(e: Entry) -> list[tuple[ZPoly, Entry]]:
    if e.is_inf:
        return [(ZPoly.one(), e)]
    k = e.k
    if e.eps is S:
        if k % 2 == 0:
            p = k // 2
            return [(ZPoly.one(), Entry(0, S)), (ZPoly((0, -p)), Entry(INF, S))]
        p = (k - 1) // 2
        return [(ZPoly.one(), Entry(1, S)), (ZPoly((0, -p)), Entry(INF, R))]
    if k % 2 == 0:
        p = k // 2
        return [(phi_poly(p), Entry(1, R)), (psi_poly(p - 1), Entry(0, R))]
    p = (k - 1) // 2
    return [(psi_poly(p), Entry(1, R)), (phi_poly(p), Entry(0, R))]


def statesum_reference(seq: EnhancedSequence) -> ZPoly:
    """Conway polynomial as a sum over all per-region resolutions."""
    _require_realizable(seq)
    total = ZPoly.zero()
    choices = [_resolutions(e) for e in seq]
    stack = [(0, ZPoly.one(), [])]
    while stack:
        i, coeff, picked = stack.pop()
        if i == len(choices):
            base = EnhancedSequence(tuple(picked), base=True)
            total = total + coeff * base_conway(base)
            continue
        for gamma, entry in choices[i]:
            if gamma.is_zero():
                continue
            stack.append((i + 1, coeff * gamma, picked + [entry]))
    return total
