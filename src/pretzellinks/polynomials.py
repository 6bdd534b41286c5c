"""Conway polynomials of pretzel links by resolution and closed forms.

Two engines live here: a state sum over per-region resolutions and a
memoized twist-by-twist recursion.  Both bottom out in one count rule,
`_base_value`, which reads the value of a resolved word off counts of its
finite entries (`_base_counts`); a lemma on base-word orientations (see
`base_conway`) shows it covers every orientable base word, and the tests
check it against the diagram oracle.  The state sum groups its 2^u states
into count classes with one generating polynomial and reads `_base_value`
once per class on a plain list of entries: O(u^2) polynomial products when
every region is odd s or inf r, O(u) otherwise.  The twist recursion still
visits up to 2^u partial sequences, but counts its leaves and calls
`base_conway`, which checks its word before it applies the rule, once per
count class through a leaf table that lives for one call; only those
leaves and outside callers go through `base_conway`.  Both engines take
each region's resolutions and coefficient tuples from `_split_resolutions`,
a bounded cache, combine them with `zpoly.poly_mul` and `zpoly.poly_add`,
and build one ZPoly per call.  The coefficients are `torus_conway` values
and orientability comes from `sequences.orientation_data`: nothing here
imports the oracle.  Closed forms for the first two interesting
coefficients of 2-component pretzels are also provided, with the knot
components' a2 total that corrects a3.
"""

from __future__ import annotations

import functools
from typing import Sequence

from .errors import (
    InvalidSequenceError,
    UnrealizableOrientationError,
    UnsupportedError,
)
from .sequences import (
    INF,
    EnhancedSequence,
    Entry,
    R,
    S,
    TwistType,
    dihedral_canonical,
    orientation_data,
)
from .zpoly import ZPoly, exact_div, poly_add, poly_mul


def _diagonal_binomials(t: int, r: int, count: int):
    """C(t + i, 2i + r) for i < count, with r = 0 or 1.

    Each value comes from the one before by the ratio of consecutive
    binomials, C(n + 1, m + 2) = C(n, m) (n + 1)(n - m) / ((m + 1)(m + 2)),
    which holds for any integer n; every step is an exact division.
    """
    c = t if r else 1
    for i in range(count):
        yield c
        m = 2 * i + r
        c = exact_div(c * (t + i + 1) * (t - i - r), (m + 1) * (m + 2))


def phi_poly(t: int) -> ZPoly:
    """Odd twist-coefficient polynomial: sum of C(t+i, 2i+1) z^(2i+1).

    The support is finite (terms vanish for i >= |t|).
    """
    coeffs = [0] * (2 * abs(t) + 1)
    coeffs[1::2] = _diagonal_binomials(t, 1, abs(t))
    return ZPoly(coeffs)


def psi_poly(t: int) -> ZPoly:
    """Even twist-coefficient polynomial: sum of C(t+i, 2i) z^(2i)."""
    n_terms = t + 1 if t >= 0 else -t
    coeffs = [0] * (2 * n_terms)
    coeffs[0::2] = _diagonal_binomials(t, 0, n_terms)
    return ZPoly(coeffs)


def torus_conway(k, eps: TwistType) -> ZPoly:
    """Conway polynomial of the (2, k) torus link with orientation type eps."""
    if k is INF:
        if eps is S:
            return ZPoly.one()
        raise UnrealizableOrientationError(
            "the crossingless smoothing with parallel closure is not orientable")
    if k % 2 == 0:
        p = k // 2
        return ZPoly((0, -p)) if eps is S else phi_poly(p)
    if eps is R:
        return psi_poly((k - 1) // 2)
    raise UnrealizableOrientationError(
        "an odd twist region cannot carry anti-parallel strands in a torus closure")


# ---------------------------------------------------------------------------
# base sequences


def base_conway(seq: EnhancedSequence) -> ZPoly:
    """Conway polynomial of a fully resolved (base) pretzel closure.

    Entries must come from the resolution alphabet {0s, infs, 1s, infr, 1r,
    0r}.  The value depends only on counts over the finite entries:

    - no finite entries (every region a cap-cup, two circles): 0;
    - m finite entries, all 1s: the torus value torus_conway(-m, R);
    - otherwise two or more zeros: 0 (split); exactly one zero: 1 (unknot);
      no zeros, so m copies of 1r: torus_conway(-m, S).

    These rules cover every orientable base word.  `orientation_data`
    accepts a word only if bot = c * top with one c all round the cycle (see
    its docstring); on base entries c = +1 for 1s and infr and c = -1 for 1r,
    0s, 0r and infs.  The orientable words are therefore exactly (A) every entry in
    {1s, infr}, and (B) every entry in {1r, 0s, 0r, infs} with an even number
    of 1r and 0r (the top-bridge parity).  So the finite entries are all 1s
    (class A) or all in {1r, 0s, 0r} (class B), and in class B with no zeros
    m is even.  The tests and the selftest check the rules against the
    diagram oracle.  The rules themselves live in `_base_value`.
    """
    counts = _base_counts(seq.entries)
    # Reject unrealizable tag patterns up front (the rules assume a diagram).
    orientation_data(seq)
    return ZPoly(_base_value(*counts))


def _base_value(m: int, zeros: int, ones_s: int) -> tuple[int, ...]:
    """Coefficients of an orientable base word's value from its
    `_base_counts`, by the rules of `base_conway`."""
    if not m:
        return ()
    if ones_s == m:
        return torus_conway(-m, R).coeffs
    if zeros >= 2:
        return ()
    if zeros == 1:
        return (1,)
    return torus_conway(-m, S).coeffs


def _base_counts(entries: Sequence[Entry]) -> tuple[int, int, int]:
    """(m, zeros, 1s) of a base word: its finite entries, its 0s and 0r,
    and its 1s, the counts `_base_value` reads its value from."""
    m = zeros = ones_s = 0
    for e in entries:
        k = e.k
        if k is INF:
            continue
        if k == 0:
            zeros += 1
        elif k == 1:
            ones_s += e.eps is S
        else:
            raise InvalidSequenceError(f"{e} is not a base entry")
        m += 1
    return m, zeros, ones_s


# ---------------------------------------------------------------------------
# state sum


@functools.lru_cache(maxsize=1024)
def _split_resolutions(e: Entry) -> tuple[tuple[int, ...], Entry, tuple[int, ...], Entry]:
    """Region e's resolutions as (marked coefficients, marked entry, other
    coefficients, other entry).

    The marked resolution is the one `_base_value` counts: 1s for an odd s
    region (the other is inf r), a zero for any other finite region (the
    other is inf s or 1r).  An inf region resolves to itself, unmarked.  At
    most one of the two coefficient tuples is empty (zero).

    By Conway's skein relation (Conway 1970) each coefficient is a (2, k)
    torus value from `torus_conway`: k - 1 and k for an r region's zero and
    1r; 1 and k - k % 2, anti-parallel, for an s region's marked and inf.

    The split depends on the entry alone, and a word uses few distinct
    entries, so each is computed once and kept in a bounded cache that
    lives across calls; every value in it is immutable.
    """
    k = e.k
    if k is INF:
        return (), e, (1,), e
    if e.eps is R:
        return (torus_conway(k - 1, R).coeffs, Entry(0, R),
                torus_conway(k, R).coeffs, Entry(1, R))
    odd = k % 2
    return ((1,), Entry(odd, S), torus_conway(k - odd, S).coeffs,
            Entry(INF, R if odd else S))


def statesum_conway(seq: EnhancedSequence) -> ZPoly:
    """Conway polynomial as a sum over per-region resolutions, grouped by
    the counts `_base_value` reads.

    The state sum adds, over every choice of one resolution per region, the
    product of the chosen coefficients times the value of the resolved
    word.  By `base_conway`'s lemma every state of a realizable sequence
    lies in one class, and `_require_realizable` tells which.  Class A
    (every region odd s or inf r) resolves each region to 1s or inf r, and
    a state's value depends only on its number j of 1s.  Class B resolves
    each finite region to a zero or to inf s or 1r, and a state's value
    depends only on its number j of zeros: every finite r region that is
    not a zero is 1r, so a state with no zero has the sequence's number of
    finite r regions as its m.  Two or more zeros are worth 0.

    Mark each region's counted resolution by t.  The t^j coefficient of
    prod_i (other_i + marked_i * t) is the summed coefficient of the states
    with count j, so the sum is sum_j [t^j] * value(one state with count
    j).  Class A keeps every j: O(u^2) polynomial products.  Class B cuts
    the product after t^1: O(u) products.  Each kept class is read as
    `_base_value` of the `_base_counts` of one state, a plain list of
    entries that takes each region's only resolution where it has one, and
    the marked one in the first j - (forced count) regions that have two:
    no state is built as a sequence or goes through `base_conway`.  The
    products and the sum run on coefficient tuples, and one ZPoly is built
    at the end.

    A resolution keeps whether its region reverses the top bridges and which
    bottom rule it obeys (c in `orientation_data`), so every state is
    orientable exactly when the sequence is; `_require_realizable` checks
    that once.
    """
    class_a = _require_realizable(seq)
    splits = [_split_resolutions(e) for e in seq]
    cap = len(seq) if class_a else 1  # largest count kept
    gen = [(1,)]  # gen[j]: summed coefficient of the states with count j
    state = []  # the state with the fewest marked resolutions
    forced = 0  # regions whose only resolution is the marked one
    free = []  # regions with two resolutions, in order
    for i, (marked, marked_entry, other, other_entry) in enumerate(splits):
        nxt = [poly_mul(g, other) for g in gen]
        if marked:
            nxt.append(())
            for j, g in enumerate(gen, 1):
                nxt[j] = poly_add(nxt[j], poly_mul(g, marked))
            if other:
                free.append(i)
        gen = nxt[:cap + 1]
        state.append(other_entry if other else marked_entry)
        forced += not other
    total = ()
    for j in range(forced, len(gen)):  # the kept counts a state can have
        if j > forced:
            i = free[j - forced - 1]
            state[i] = splits[i][1]
        total = poly_add(total, poly_mul(gen[j], _base_value(*_base_counts(state))))
    return ZPoly(total)


# ---------------------------------------------------------------------------
# twist reduction

def twistreduce_conway(seq: EnhancedSequence) -> ZPoly:
    """Conway polynomial by recursive two-term reduction of one region at a
    time, memoized on the cyclic-dihedral form of the partial sequence.

    The recursion combines coefficient sequences (`poly_mul`, `poly_add`),
    as the state sum does, and one ZPoly is built at the end.  Its leaves
    are resolved words, and by `base_conway`'s lemma a leaf's value depends
    only on its counts; every leaf is orientable because the sequence is
    (`_require_realizable`).  So, as in the state sum, `base_conway` runs
    once per count class: on the first leaf with those counts, and a leaf
    table that lives for this call gives the value to the rest."""
    _require_realizable(seq)
    splits = [_split_resolutions(e) for e in seq]
    return ZPoly(_reduce(seq.entries, 0, splits, {}, {}))


def _reduce(entries: tuple[Entry, ...], i: int, splits: list,
            memo: dict, leaves: dict) -> Sequence[int]:
    """Coefficients of the value of entries: reduce the first region at or
    after i whose split has two nonzero coefficients; every region before i
    is already resolved.

    splits holds each region's `_split_resolutions`.  memo
    maps dihedral forms of partial sequences to values; leaves maps the
    `_base_counts` of resolved words to values, so no leaf is built as a
    sequence once its count class has been seen."""
    u = len(entries)
    while i < u and not (splits[i][0] and splits[i][2]):
        i += 1
    if i == u:
        counts = _base_counts(entries)
        value = leaves.get(counts)
        if value is None:
            value = leaves[counts] = base_conway(
                EnhancedSequence(entries, base=True)).coeffs
        return value
    key = dihedral_canonical(entries)
    cached = memo.get(key)
    if cached is not None:
        return cached
    marked, marked_entry, other, other_entry = splits[i]
    head, tail = entries[:i], entries[i + 1:]
    value = poly_add(
        poly_mul(marked,
                 _reduce(head + (marked_entry,) + tail, i + 1, splits, memo, leaves)),
        poly_mul(other,
                 _reduce(head + (other_entry,) + tail, i + 1, splits, memo, leaves)))
    memo[key] = value
    return value


def _require_realizable(seq: EnhancedSequence) -> bool:
    """Raise unless seq is orientable; return whether c = +1 (top == bot in
    `orientation_data`), the state sum's class A."""
    try:
        top, bot = orientation_data(seq)
    except UnrealizableOrientationError:
        if seq.base:  # internal sequences keep orientation_data's error
            raise
        raise UnrealizableOrientationError(f"{seq} admits no oriented diagram") from None
    return top == bot


# ---------------------------------------------------------------------------
# closed forms for 2-component pretzels


def a1a3_odd(seq: EnhancedSequence) -> tuple[int, int]:
    """(a1, a3) of an all-odd, even-length pretzel with uniform type."""
    u = len(seq)
    if u % 2 != 0 or any(not e.is_odd for e in seq):
        raise InvalidSequenceError("expected an all-odd sequence of even length")
    eps_set = {e.eps for e in seq}
    if len(eps_set) != 1:
        raise InvalidSequenceError("expected a uniform orientation type")
    eps = eps_set.pop()
    nu = u // 2
    ps = [(e.k - 1) // 2 for e in seq]
    e1 = sum(ps)
    if eps is R:
        a1 = nu + e1
        a3 = (exact_div(a1 * sum(p * (p + 1) for p in ps), 2)
              - exact_div(sum(p * (p + 1) * (2 * p + 1) for p in ps), 6))
        return a1, a3
    a1 = -nu - e1
    # elementary symmetric sums of degree 2 and 3, by Newton's identities
    p2 = sum(p * p for p in ps)
    p3 = sum(p * p * p for p in ps)
    e2 = exact_div(e1 * e1 - p2, 2)
    e3 = exact_div(e1 ** 3 - 3 * e1 * p2 + 2 * p3, 6)
    a3 = -(exact_div(nu * (nu * nu - 1), 6)
           + exact_div(nu * (nu - 1), 2) * e1
           + (nu - 1) * e2
           + e3)
    return a1, a3


def a1a3_even(p: int, q: int, eps1: TwistType, eps2: TwistType, m: int) -> tuple[int, int]:
    """(a1, a3) of the 2-component pretzel with even entries 2p, 2q followed
    by |m| single twists of sign m (the standard shape, whose knot components
    are unknots).  For a general even pretzel use a1a3_and_component_a2,
    which adds the component correction."""
    if (eps1, eps2) == (R, S):
        p, q = q, p
        eps1, eps2 = S, R
    if (eps1, eps2) == (S, S):
        return -(p + q), exact_div(m * p * q, 2)
    if (eps1, eps2) == (R, R):
        a3 = (exact_div((p + q + 1) * (p + q) * (p + q - 1), 6)
              + exact_div(m * p * q, 2))
        return p + q, a3
    a3 = exact_div(q * (q * q - 1), 6) - exact_div((m + q) * p * q, 2)
    return q - p, a3


def a1a3_and_component_a2(seq: EnhancedSequence) -> tuple[int, int, int]:
    """(a1, a3, total a2 of the knot components) of any realizable
    2-component pretzel via the closed forms.

    An all-odd pretzel has crossingless components.  For an even one the
    two even parameters give (p, q); the odd twist total m is the sum of
    the odd parameters (entry positions are immaterial).  The raw two-even
    closed form computes the sequence with every odd run spread into single
    twists, whose components are unknots; spreading a run changes a3 by a1
    times the components' a2 total, which is added back here.  That total
    is computed once and returned too, since the self-delta invariant
    subtracts it again.
    """
    evens = [e for e in seq if e.is_even]
    if not evens:
        return (*a1a3_odd(seq), 0)
    if len(evens) != 2:
        raise UnsupportedError("closed forms require a 2-component pretzel")
    m = sum(e.k for e in seq if e.is_odd)
    first, second = evens
    a1, a3 = a1a3_even(first.k // 2, second.k // 2, first.eps, second.eps, m)
    # The components are the side closures of the odd runs: connected sums
    # of (2, k) torus knots, each with a2 = p(p + 1)/2 for k = 2p + 1.
    a2_total = sum(p * (p + 1) // 2 for p in ((e.k - 1) // 2 for e in seq if e.is_odd))
    return a1, a3 + a1 * a2_total, a2_total
