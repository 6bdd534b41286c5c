"""Explicit oriented pretzel diagrams and the Seifert-matrix Conway oracle.

A diagram is built directly from the cyclic sequence: u twist regions with
|k_i| crossings each (right-handed for k_i > 0), joined cyclically by top and
bottom bridges.  Orientations come from `sequences.orientation_data`,
propagated from a positive first top bridge.  The oracle computes a Seifert
matrix for the surface obtained by orientation-respecting smoothing and
evaluates det(x*V - x^-1*V^T) exactly, rewritten in z = x - x^-1.  Factoring
x^-1 out of each of the n rows gives det(x*V - x^-1*V^T) = x^-n *
det(y*V - V^T) at y = x^2, so the elimination runs in Z[y], on plain
coefficient sequences and the `zpoly` kernels; one LaurentZ is built per
determinant, for the rewrite in z.  Nothing here imports the resolution
engines in `polynomials`.  `component_conway(diagram, j)` takes a built
diagram and evaluates the side-closure of component j with the oracle, so a
caller that needs every component builds the full diagram once.

Crossing-sign and pushoff conventions are frozen by calibration fixtures
(P(1s,1s) -> -z, P(1r,1r) -> z, anti-parallel torus twists -> -p*z); the test
suite re-checks them.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import (
    InternalConsistencyError,
    InvalidSequenceError,
    SplitDiagramError,
)
from .sequences import INF, EnhancedSequence, Entry, R, S, orientation_data
from .zpoly import (
    LaurentZ,
    ZPoly,
    exact_div,
    poly_add,
    poly_exact_div,
    poly_mul,
)

# ---------------------------------------------------------------------------
# diagram construction


@dataclass(frozen=True)
class Crossing:
    """One crossing: PD-ordered arc ids and sign."""

    arcs: tuple[int, int, int, int]  # ccw from the incoming under-strand
    sign: int


@dataclass(frozen=True)
class RegionInfo:
    crossings: int
    sign: Optional[int]          # common crossing sign, None when crossingless
    comp_left: int               # component of the strand entering at top-left
    comp_right: int


@dataclass(frozen=True)
class Diagram:
    """Oriented pretzel diagram with component labels and crossing data."""

    seq: EnhancedSequence
    or_top: tuple[int, ...]
    regions: tuple[RegionInfo, ...]
    crossings: tuple[Crossing, ...]
    ncomponents: int
    is_split: bool
    seifert_circles: int
    free_loops: int


# Node offsets: a region's block holds its four terminals, then four corners
# per crossing (crossing j's corner q at _FIRST_CORNER + 4 * j + q).
_TL, _TR, _BL, _BR = range(4)
_NW, _NE, _SW, _SE = range(4)
_FIRST_CORNER = 4

# A crossing's corners counterclockwise from the incoming under-strand, keyed
# by (under-strand on the NW-SE diagonal, under-strand runs down).
_PD_ORDER = {
    (True, True): (_NW, _SW, _SE, _NE),
    (True, False): (_SE, _NE, _NW, _SW),
    (False, True): (_NE, _NW, _SW, _SE),
    (False, False): (_SW, _SE, _NE, _NW),
}


def _classes(n: int, joins) -> list[int]:
    """Class label of each of range(n) under the joins, numbered in order of
    each class's smallest element."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    for a, b in joins:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    labels: dict[int, int] = {}
    return [labels.setdefault(find(x), len(labels)) for x in range(n)]


def build_diagram(seq: EnhancedSequence) -> Diagram:
    """Realize the sequence as an explicit oriented crossing-level diagram.

    Numbering contract: components are numbered by the first region they
    touch, and within a region top-left before top-right before the bottom
    strands.  Arc ids follow crossing order, each crossing's four arcs
    counterclockwise from the incoming under-strand; crossingless loops
    come last.

    Strand A enters a twist region at top-left and strand B at top-right;
    they swap diagonals at every crossing, A on NW-SE at even j.  The over
    strand lies on NW-SE when k > 0, so the under-strand at crossing j is A
    exactly when (k < 0) == (j is even).  Sign rule: every crossing of a
    region has sign sign(k), negated when the strands are anti-parallel
    (one runs down, the other up; read from or_top).  PD start corner: the
    under-strand comes in at the upper end of its diagonal (NW or NE) when
    it runs down, at the lower end (SE or SW) when it runs up.
    """
    or_top = orientation_data(seq)[0]
    u = len(seq)
    twists = [0 if e.is_inf else abs(e.k) for e in seq]
    offsets = list(accumulate((_FIRST_CORNER + 4 * n for n in twists), initial=0))

    wires = []
    for i, e in enumerate(seq):
        o, nxt = offsets[i], offsets[(i + 1) % u]
        wires += [(o + _TR, nxt + _TL), (o + _BR, nxt + _BL)]
        n = twists[i]
        if e.is_inf:
            wires += [(o + _TL, o + _TR), (o + _BL, o + _BR)]
        elif n == 0:
            wires += [(o + _TL, o + _BL), (o + _TR, o + _BR)]
        else:
            c = o + _FIRST_CORNER
            last = c + 4 * (n - 1)
            wires += [(o + _TL, c + _NW), (o + _TR, c + _NE),
                      (last + _SW, o + _BL), (last + _SE, o + _BR)]
            for x in range(c, last, 4):
                wires += [(x + _SW, x + 4 + _NW), (x + _SE, x + 4 + _NE)]
    arc_of = _classes(offsets[u], wires)

    # Crossing joins on the arcs: the strands through each crossing (link
    # components), all four corners (split test), and the orientation-
    # respecting smoothing (Seifert circles).
    strand_joins, side_joins, seifert_joins = [], [], []
    placed = []
    region_sign: list[Optional[int]] = [None] * u
    for i, e in enumerate(seq):
        n = twists[i]
        if n == 0:
            continue
        a_down = or_top[(i - 1) % u] == 1
        b_down = or_top[i] == -1
        parallel = (a_down == b_down)
        under_on_nwse = e.k < 0
        sign = region_sign[i] = (1 if e.k > 0 else -1) * (1 if parallel else -1)
        for j in range(n):
            first = offsets[i] + _FIRST_CORNER + 4 * j
            corner_arcs = arc_of[first:first + 4]
            nw, ne, sw, se = corner_arcs
            strand_joins += [(nw, se), (ne, sw)]
            side_joins.append((nw, ne))
            seifert_joins += ([(nw, sw), (ne, se)] if parallel
                              else [(nw, ne), (sw, se)])
            under_down = a_down if under_on_nwse == (j % 2 == 0) else b_down
            order = _PD_ORDER[under_on_nwse, under_down]
            placed.append((tuple(corner_arcs[q] for q in order), sign))

    narcs = max(arc_of) + 1
    comp_of = _classes(narcs, strand_joins)
    pd_id: dict[int, int] = {}
    crossings = tuple(
        Crossing(tuple(pd_id.setdefault(a, len(pd_id)) for a in arcs), sign)
        for arcs, sign in placed)
    regions = tuple(
        RegionInfo(twists[i], region_sign[i],
                   comp_of[arc_of[offsets[i] + _TL]],
                   comp_of[arc_of[offsets[i] + _TR]])
        for i in range(u))

    return Diagram(
        seq=seq, or_top=or_top, regions=regions, crossings=crossings,
        ncomponents=max(comp_of) + 1,
        is_split=max(_classes(narcs, strand_joins + side_joins)) > 0,
        seifert_circles=max(_classes(narcs, seifert_joins)) + 1,
        free_loops=narcs - len(pd_id))


def pd_code(diagram: Diagram) -> str:
    """PD-style text export: one 'X a b c d sign' line per crossing.

    Arc ids are 1-based; the four arcs are listed counterclockwise starting
    from the incoming under-strand.  Crossingless circles are reported in a
    trailing 'loops' line.
    """
    lines = []
    for c in diagram.crossings:
        a, b, cc, d = (x + 1 for x in c.arcs)
        lines.append(f"X {a} {b} {cc} {d} {'+' if c.sign > 0 else '-'}1")
    if diagram.free_loops:
        lines.append(f"loops {diagram.free_loops}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Seifert matrix of the smoothed surface


@dataclass(frozen=True)
class SeifertMatrix:
    """Integer Seifert matrix; rows[i][j] = lk(cycle_i^+, cycle_j)."""

    rows: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return len(self.rows)


def _is_open(e: Entry) -> bool:
    # Open regions smooth to two vertical strands: parallel-type twists and
    # crossingless vertical pairs.  Closed regions smooth to a cap and cup.
    return (not e.is_inf) and (e.eps is R or e.k == 0)


def seifert_matrix(diagram: Diagram) -> SeifertMatrix:
    """Seifert matrix for the surface from orientation-respecting smoothing.

    The basis holds crossings - Seifert circles + 1 cycles; that count and
    the halving of every doubled entry are checked here.
    """
    if diagram.is_split:
        raise SplitDiagramError(f"{diagram.seq} is a split diagram")
    entries = diagram.seq.entries
    opens = [i for i, e in enumerate(entries) if _is_open(e)]
    doubled = (_necklace_cycles(entries, diagram.or_top, opens) if opens
               else _chain_cycles(entries))
    rows = tuple(tuple(exact_div(v, 2) for v in row) for row in doubled)
    expected = len(diagram.crossings) - diagram.seifert_circles + 1
    if len(rows) != expected:
        raise InternalConsistencyError(
            f"basis size {len(rows)} != crossings - circles + 1 = {expected}")
    return SeifertMatrix(rows)


def _chain_cycles(entries):
    """All regions closed (anti-parallel or infinity): chain between the two
    boundary circles, one cycle per adjacent banded pair.

    Every banded region here is a finite s region with k != 0, since k = 0
    and finite r regions are open.  orientation_data gives odd s regions
    c = +1 and even ones c = -1 and allows one c per word, so all bands
    share one parity: neighbouring cycles couple skew-symmetrically by one
    exactly when it is odd.
    """
    w = [-e.k for e in entries if not e.is_inf]  # signed half-twists of each band
    size = max(len(w) - 1, 0)
    doubled = [[0] * size for _ in range(size)]
    for q in range(size):
        doubled[q][q] = w[q] + w[q + 1]
    for q in range(size - 1):
        shared = w[q + 1]
        doubled[q][q + 1] = -shared + shared % 2
        doubled[q + 1][q] = -shared - shared % 2
    return doubled


def _necklace_cycles(entries, top, opens):
    """Open regions present: ring of necklace disks, parallel bands between
    consecutive disks, one cable band per closed region.

    Basis order: the |k| - 1 pair cycles of each open region, one cable per
    closed finite region, and last the ring, present when every open region
    has crossings.  By orientation_data's rule, which gives every open
    region (finite r, or 0s) c = -1 and odd s regions c = +1:
    - every closed finite region is an even s region (it is s with k != 0);
    - the top orientation is constant across each gap between open regions,
      since only finite r regions reverse it and they are all open;
    - a ring crosses an even number of disks: every open region is then
      finite r, and the top bridges close up after an even number of flips.
    """
    # Disk a's normal follows the gap after it; the last gap is drawn around
    # the outside, which flips its normal.
    normals = [-top[ro] for ro in opens]
    normals[-1] = -normals[-1]
    closed = [r for r, e in enumerate(entries) if not (e.is_inf or _is_open(e))]
    ring = all(entries[ro].k != 0 for ro in opens)
    size = (sum(max(abs(entries[ro].k) - 1, 0) for ro in opens)
            + len(closed) + ring)
    doubled = [[0] * size for _ in range(size)]
    g = size - 1  # the ring cycle, when there is one
    p = 0  # the next cycle to number
    for a, ro in enumerate(opens):
        k = entries[ro].k
        sigma = 1 if k > 0 else -1
        n_left = normals[a - 1]
        pairs = range(p, p + abs(k) - 1)
        for q in pairs:
            doubled[q][q] = 2 * sigma
        for q in pairs[:-1]:
            doubled[q][q + 1] = -sigma + n_left
            doubled[q + 1][q] = -sigma - n_left
        if ring and pairs:
            doubled[g][p] = sigma + normals[a]
            doubled[p][g] = sigma - normals[a]
        p += len(pairs)

    for r in closed:
        doubled[p][p] = -entries[r].k
        if ring:
            n_d = normals[bisect_right(opens, r) - 1]
            doubled[g][p] = -n_d - 1
            doubled[p][g] = n_d - 1
        p += 1

    if ring:
        doubled[g][g] = sum(1 if entries[ro].k > 0 else -1 for ro in opens)
    return doubled


# ---------------------------------------------------------------------------
# Conway polynomial from a Seifert matrix


def conway_from_seifert(matrix: SeifertMatrix | Sequence[Sequence[int]]) -> ZPoly:
    """det(x*V - x^-1*V^T) rewritten exactly in z = x - x^-1.

    Factoring x^-1 out of each of the n rows gives
    det(x*V - x^-1*V^T) = x^-n * P(x^2) with P(y) = det(y*V - V^T), so the
    elimination runs on two-term entries in y = x^2, and only the final
    x^-n * P(x^2) is a LaurentZ.
    """
    if isinstance(matrix, SeifertMatrix):
        rows = matrix.rows
    else:
        try:
            rows = tuple(tuple(row) for row in matrix)
        except TypeError:
            raise InvalidSequenceError(
                "Seifert matrix must be a sequence of rows") from None
        for v in (v for row in rows for v in row):
            if type(v) is not int:  # so a bool is rejected
                raise InvalidSequenceError(f"non-integer Seifert entry {v!r}")
    n = len(rows)
    for row in rows:
        if len(row) != n:
            raise InvalidSequenceError("Seifert matrix must be square")
    if n == 0:
        return ZPoly.one()
    p = _bareiss_det([[_y_entry(-rows[j][i], rows[i][j]) for j in range(n)]
                      for i in range(n)])
    spread = [0] * (2 * len(p) - 1)  # empty when P is zero
    spread[::2] = p
    return LaurentZ(-n, spread).substitute_z()


def _y_entry(c0: int, c1: int) -> tuple[int, ...]:
    """c0 + c1*y as a coefficient tuple that ends in a nonzero coefficient."""
    return (c0, c1) if c1 else (c0,) if c0 else ()


def _bareiss_det(m: list[list[Sequence[int]]]) -> Sequence[int]:
    """Fraction-free (Bareiss 1968) determinant over Z[y].

    Every entry is a coefficient sequence, lowest degree first, that ends
    in a nonzero coefficient (zero is ()); so is the result.  Step k
    updates m[i][j] to (m[i][j] * pivot - m[i][k] * m[k][j]) / prev, and
    each quotient is exact in Z[y].  No product with a zero factor is
    formed: where m[i][k] or m[k][j] is zero the update is
    m[i][j] * pivot / prev, so an entry that is zero as well stays zero.
    Seifert matrices are banded with one ring row and column, so most
    entries take one of these shortcuts.
    """
    n = len(m)
    sign = 1
    prev = (1,)
    for k in range(n - 1):
        if not m[k][k]:
            pivot = next((r for r in range(k + 1, n) if m[r][k]), None)
            if pivot is None:
                return ()
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        top = m[k]
        piv = top[k]
        for row in m[k + 1:]:
            neg_lead = [-c for c in row[k]]
            for j in range(k + 1, n):
                a, b = row[j], top[j]
                if not neg_lead or not b:
                    if not a:
                        continue
                    num = poly_mul(a, piv)
                elif not a:
                    num = poly_mul(neg_lead, b)
                else:
                    num = poly_add(poly_mul(a, piv), poly_mul(neg_lead, b))
                row[j] = poly_exact_div(num, prev)
        prev = piv
    det = m[n - 1][n - 1]
    return det if sign > 0 else [-c for c in det]


# ---------------------------------------------------------------------------
# the oracle proper


def oracle_conway(seq: EnhancedSequence) -> ZPoly:
    """Conway polynomial via build -> split check -> Seifert matrix -> det."""
    return _conway_of(build_diagram(seq))


def _conway_of(diagram: Diagram) -> ZPoly:
    if diagram.is_split:
        return ZPoly.zero()
    return conway_from_seifert(seifert_matrix(diagram))


def component_conway(diagram: Diagram, j: int) -> ZPoly:
    """Conway polynomial of component j (1-based) after deleting the others.

    j's self-crossings lie in the regions it owns (both strands on j).  A
    vertical region (k = 0 or even) joins the top and bottom bridge on each
    side; any other region carries one bridge pair's strands to the next.
    So with two or more vertical regions each component owns the regions
    strictly between two neighbouring ones, a contiguous run, and
    side-closing it gives a pretzel diagram with one crossingless region
    appended.  One vertical region leaves one component; with none and
    mu = 2, j owns only infinity regions, keeps no crossing and is an unknot.
    """
    seq = diagram.seq
    mu = diagram.ncomponents
    if not 1 <= j <= mu:
        raise InvalidSequenceError(f"component index {j} out of range 1..{mu}")
    if mu == 1:
        return _conway_of(diagram)
    comp = j - 1
    u = len(seq)
    owned = {i for i, info in enumerate(diagram.regions)
             if info.comp_left == comp == info.comp_right}
    if not any(diagram.regions[i].crossings for i in owned):
        return ZPoly.one()
    start = next(i for i in range(u) if i not in owned)  # a vertical region
    run = [seq[i] for i in ((start + off) % u for off in range(1, u)) if i in owned]
    flips = sum(1 for e in run if e.eps is R)
    closer = Entry(0, R if flips % 2 else S)
    return oracle_conway(EnhancedSequence(tuple(run) + (closer,), base=True))


# ---------------------------------------------------------------------------
# skein-relation spot checks


def skein_checks(seq: EnhancedSequence) -> list[tuple[int, bool]]:
    """Verify the twist-recursion skein identities on every twist region.

    Conway's skein relation at one crossing of each region, d = sign(k):
    the diagram's value equals that with k - 2d plus c*z times that of the
    smoothing (k - d for r, inf for s), where c is the crossing sign, d for
    r and -d for s.  Every value is computed by the oracle itself.
    """
    results = []
    nabla = oracle_conway(seq)
    for i, e in enumerate(seq):
        if e.is_inf or e.k == 0:
            continue
        k, eps = e.k, e.eps
        d = 1 if k > 0 else -1
        if eps is R:
            sign, smooth = d, Entry(k - d, R)
        else:
            sign, smooth = -d, Entry(INF, S if k % 2 == 0 else R)
        rhs = (oracle_conway(seq.replace(i, Entry(k - 2 * d, eps)))
               + ZPoly.term(sign, 1) * oracle_conway(seq.replace(i, smooth)))
        results.append((i, rhs == nabla))
    return results
