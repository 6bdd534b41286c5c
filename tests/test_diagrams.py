import hashlib
import itertools
import random

import pytest

from bareiss_reference import dense_laurent_det, x_form_conway
from conftest import (
    all_plain_sequences,
    parity_law_ok,
    random_deep_words,
    random_realizable,
    seq,
)
from link_reference import region_linking_matrix, region_signs
from pretzellinks import diagrams
from pretzellinks.diagrams import (
    Diagram,
    SeifertMatrix,
    _bareiss_det,
    build_diagram,
    component_conways,
    conway_from_seifert,
    oracle_conway,
    orientation_data,
    pd_code,
    seifert_matrix,
    skein_checks,
)
from pretzellinks.errors import (
    InvalidSequenceError,
    SplitDiagramError,
    UnrealizableOrientationError,
)
from pretzellinks.polynomials import psi_poly, statesum_conway, twistreduce_conway
from pretzellinks.sequences import (
    INF,
    EnhancedSequence,
    Entry,
    R,
    S,
    component_count,
    component_runs,
    enumerate_enhancements,
    linking_matrix,
)
from pretzellinks.zpoly import LaurentZ, ZPoly


# -- construction -------------------------------------------------------------


def test_build_diagram_counts():
    d = build_diagram(seq((1, S), (1, S)))
    assert len(d.crossings) == 2 and d.ncomponents == 2
    d = build_diagram(seq((4, S), (5, R), (6, R), (-2, R), (-3, R)))
    assert len(d.crossings) == 20 and d.ncomponents == 3
    with pytest.raises(UnrealizableOrientationError):
        build_diagram(seq((2, R), (3, R), (4, R)))


def test_orientation_matches_realizability():
    from pretzellinks.sequences import is_realizable
    values = [k for k in range(-3, 4) if k != 0]
    for u in range(1, 5):
        for ks in itertools.product(values, repeat=u):
            for eps in itertools.product([S, R], repeat=u):
                s = EnhancedSequence.of(*zip(ks, eps))
                ok = True
                try:
                    orientation_data(s)
                except UnrealizableOrientationError:
                    ok = False
                assert ok == is_realizable(s), str(s)


def test_component_count_matches_diagram():
    values = [k for k in range(-4, 5) if k != 0]
    rng = random.Random(11)
    for _ in range(400):
        u = rng.randint(1, 6)
        ks = tuple(rng.choice(values) for _ in range(u))
        enh = enumerate_enhancements(ks)
        if not enh:
            continue
        s = rng.choice(enh)
        assert build_diagram(s).ncomponents == component_count(ks), str(s)


def test_crossing_signs_follow_tags():
    """Each crossing of a region with parameter k has sign sign(k), negated
    for anti-parallel (s) strands: P(1s,1s) -> -z, P(1r,1r) -> z."""
    for ks in all_plain_sequences(4, 4):
        for s in enumerate_enhancements(ks):
            expected = [(1 if e.k > 0 else -1) * (1 if e.eps is R else -1)
                        for e in s for _ in range(abs(e.k))]
            assert [c.sign for c in build_diagram(s).crossings] == expected, str(s)


def test_seifert_matrix_size_invariant():
    values = [k for k in range(-3, 4) if k != 0]
    for u in range(1, 4):
        for ks in itertools.product(values, repeat=u):
            for s in enumerate_enhancements(ks):
                d = build_diagram(s)
                if d.is_split:
                    continue
                v = seifert_matrix(d)
                assert v.size == len(d.crossings) - d.seifert_circles + 1


# -- linking numbers -----------------------------------------------------------


def test_linking_examples():
    examples = [(seq((1, S), (1, S)), ((0, -1), (-1, 0))),
                (seq((2, S), (-2, S)), ((0, 0), (0, 0))),
                (seq((2, S), (2, S), (2, S)), ((0, -1, -1), (-1, 0, -1), (-1, -1, 0)))]
    for s, lk in examples:
        assert region_linking_matrix(build_diagram(s)) == lk
        assert linking_matrix(s) == lk


def test_word_linking_matrix_equals_the_region_sum():
    # Exact equality, components in the same order, on every realizable
    # word with u <= 4 and |k| <= 4; so are the regions each component owns.
    words = [s for ks in all_plain_sequences(4, 4) for s in enumerate_enhancements(ks)]
    assert len(words) == 11752
    for s in words:
        d = build_diagram(s)
        assert linking_matrix(s) == region_linking_matrix(d), str(s)
        runs = component_runs(s)
        assert len(runs) == d.ncomponents, str(s)
        for c, run in enumerate(runs):
            owned = [i for i, r in enumerate(d.regions) if r.comp_left == r.comp_right == c]
            assert sorted(run) == owned, (str(s), c)


def test_linking_equals_a1_for_two_components():
    values = [k for k in range(-3, 4) if k != 0]
    rng = random.Random(5)
    for _ in range(150):
        u = rng.randint(2, 5)
        ks = tuple(rng.choice(values) for _ in range(u))
        if component_count(ks) != 2:
            continue
        for s in enumerate_enhancements(ks):
            lk = region_linking_matrix(build_diagram(s))[0][1]
            assert lk == oracle_conway(s).coefficient(1), str(s)


def spanning_tree_sum(lk):
    """Total tree weight of the linking matrix (classical a_{mu-1} formula)."""
    mu = len(lk)
    if mu == 1:
        return 1
    total = 0
    verts = range(mu)
    for edges in itertools.combinations(
            [(i, j) for i in verts for j in verts if i < j], mu - 1):
        parent = list(verts)

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        ok = True
        for i, j in edges:
            ri, rj = find(i), find(j)
            if ri == rj:
                ok = False
                break
            parent[ri] = rj
        if not ok:
            continue
        w = 1
        for i, j in edges:
            w *= lk[i][j]
        total += w
    return total


def test_hoste_spanning_tree_cross_check():
    values = [k for k in range(-4, 5) if k != 0]
    rng = random.Random(23)
    checked = 0
    while checked < 60:
        u = rng.randint(2, 6)
        ks = tuple(rng.choice(values) for _ in range(u))
        mu = component_count(ks)
        if mu > 4:
            continue
        for s in enumerate_enhancements(ks):
            d = build_diagram(s)
            nabla = oracle_conway(s)
            assert nabla.coefficient(mu - 1) == spanning_tree_sum(
                region_linking_matrix(d)), str(s)
            checked += 1


# -- Seifert matrices and the determinant form --------------------------------


def test_conway_from_seifert_examples():
    assert conway_from_seifert([[-1]]) == ZPoly((0, -1))
    assert conway_from_seifert([[-1, 1], [0, -1]]) == ZPoly((1, 0, 1))
    assert conway_from_seifert([]) == ZPoly.one()
    with pytest.raises(InvalidSequenceError):
        conway_from_seifert([[1, 2]])
    for malformed in ([[1.5]], [[True]], [["2"]], [[1.9, 0], [0, 1]],
                      [1, 2], None):
        with pytest.raises(InvalidSequenceError):
            conway_from_seifert(malformed)


def _random_matrices(rng):
    """600 integer matrices, n <= 9, entries -3..3, sparse to dense: singular
    ones and zero leading pivots occur."""
    for density in (0.15, 0.3, 0.6, 1.0):
        for _ in range(150):
            n = rng.randint(1, 9)
            yield [[rng.randint(-3, 3) if rng.random() < density else 0
                    for _ in range(n)] for _ in range(n)]


def test_conway_from_seifert_matches_the_x_form():
    """The elimination in y = x^2 against the dense one on x*V - x^-1*V^T."""
    zeros = 0
    for rows in _random_matrices(random.Random(1970)):
        expected = x_form_conway(rows)
        assert conway_from_seifert(rows) == expected, rows
        zeros += expected.is_zero()
    assert zeros
    words = random_deep_words(random.Random(2009))
    words.append(EnhancedSequence.parse("10r,-9r,11r,2r"))
    for s in words:
        rows = seifert_matrix(build_diagram(s)).rows
        assert conway_from_seifert(rows) == x_form_conway(rows), str(s)


def _polynomial_forms(rows):
    """y*V - V^T, x^2*V - V^T in x (a zero between the two terms of every
    entry) and V itself, each as (coefficient tuples, LaurentZ entries)."""
    n = len(rows)
    for spread in ((), (0,), None):
        cells = [[(rows[i][j],) if spread is None
                  else (-rows[j][i], *spread, rows[i][j]) for j in range(n)]
                 for i in range(n)]
        yield ([[ZPoly(c).coeffs for c in row] for row in cells],
               [[LaurentZ(0, c) for c in row] for row in cells])


def test_laurent_det_matches_the_dense_elimination():
    """The elimination in Z[y] on seeded sparse and dense integer matrices,
    singular ones and zero leading pivots included, against the Laurent
    loop that multiplies every pair."""
    singular = swapped = 0
    for rows in _random_matrices(random.Random(1968)):
        for m, laurent in _polynomial_forms(rows):
            swapped += not m[0][0]
            expected = dense_laurent_det(laurent)
            assert LaurentZ(0, _bareiss_det(m)) == expected, rows
            singular += expected.is_zero()
    assert singular and swapped


def _counted_products(monkeypatch):
    """Route the oracle's products through a counter: [products, pairs]."""
    counts = [0, 0]

    def counted(a, b, _mul=diagrams.poly_mul):
        counts[0] += 1
        counts[1] += len(a) * len(b)
        return _mul(a, b)

    monkeypatch.setattr(diagrams, "poly_mul", counted)
    return counts


def test_laurent_det_skips_zero_products(monkeypatch):
    """The banded n = 29 matrix of 10r,-9r,11r,2r takes 1,214 products in
    the elimination, against 15,428 when every entry pair is multiplied."""
    s = EnhancedSequence.parse("10r,-9r,11r,2r")
    rows = seifert_matrix(build_diagram(s)).rows
    assert len(rows) == 29
    counts = _counted_products(monkeypatch)
    value = oracle_conway(s)
    assert 0 < counts[0] <= 1500
    assert value == x_form_conway(rows)


# Coefficient pairs over the oracle's elimination products, as upper
# bounds: word -> (Seifert-matrix size n, pairs measured).
ORACLE_PAIRS = {
    "5r,-4r,6r,2r": (14, 11_197),
    "10r,-9r,11r,2r": (29, 191_842),
    "20r,-19r,21r,2r": (59, 3_159_232),
}


@pytest.mark.parametrize("word", sorted(ORACLE_PAIRS, key=ORACLE_PAIRS.get))
def test_oracle_forms_few_coefficient_pairs(monkeypatch, word):
    """Coefficient pairs over the elimination's products in y = x^2, pinned
    at n = 14, 29 and 59; at n = 29 the same elimination on three-slot
    entries in x formed 688,106."""
    s = EnhancedSequence.parse(word)
    size, pin = ORACLE_PAIRS[word]
    rows = seifert_matrix(build_diagram(s)).rows
    assert len(rows) == size
    counts = _counted_products(monkeypatch)
    value = oracle_conway(s)
    assert 0 < counts[1] <= pin
    assert value == x_form_conway(rows)


def test_seifert_matrix_split_raises():
    d = build_diagram(seq((0, S), (0, S), base=True))
    assert d.is_split
    with pytest.raises(SplitDiagramError):
        seifert_matrix(d)
    assert oracle_conway(seq((0, S), (0, S), base=True)) == ZPoly.zero()


def test_hopf_type_matrix():
    v = seifert_matrix(build_diagram(seq((1, S), (1, S))))
    assert v.rows == ((-1,),)


def test_crossingless_unknot_matrix_is_empty():
    v = seifert_matrix(build_diagram(seq((0, S), base=True)))
    assert v.rows == ()
    assert conway_from_seifert(v) == ZPoly.one()


def _seifert_inputs():
    """Every realizable word with u <= 4, |k| <= 4 (11,752) and every base
    word with u <= 3 over k in {0, +-1, +-2, inf} x {s, r} (1,884)."""
    for ks in all_plain_sequences(4, 4):
        yield from enumerate_enhancements(ks)
    alphabet = [Entry(k, eps) for k in (0, 1, -1, 2, -2, INF) for eps in (S, R)]
    for u in range(1, 4):
        for combo in itertools.product(alphabet, repeat=u):
            yield EnhancedSequence(combo, base=True)


# SHA-256 of seifert_matrix(build_diagram(s)).rows, or the exception type and
# message, over _seifert_inputs(): 12,146 matrices (752 chain bases, 11,232
# with a ring cycle, 162 necklaces without one), 54 split diagrams and 1,436
# unorientable base words.
GOLDEN_SEIFERT_DIGEST = (
    "c8ff5555248c59d015b1da1edaa864363d264ea89c3a32394b854920677bb193")


def test_seifert_matrix_golden():
    """Pins every Seifert matrix, and the errors, byte for byte."""
    digest = hashlib.sha256()
    count = 0
    for s in _seifert_inputs():
        try:
            result = seifert_matrix(build_diagram(s)).rows
        except (SplitDiagramError, UnrealizableOrientationError) as exc:
            result = (type(exc).__name__, str(exc))
        digest.update(repr((str(s), result)).encode() + b"\n")
        count += 1
    assert count == 13636
    assert digest.hexdigest() == GOLDEN_SEIFERT_DIGEST


def test_seifert_basis_layout_follows_orientation_rule():
    """The facts _chain_cycles and _necklace_cycles build on, on every word
    of _seifert_inputs() that orientation_data accepts.  A region is open
    when it is finite and r, or has k = 0."""
    cases = {"chain": 0, "ring": 0, "no ring": 0}
    for s in _seifert_inputs():
        try:
            top, _ = orientation_data(s)
        except UnrealizableOrientationError:
            continue
        entries = s.entries
        is_open = [not e.is_inf and (e.eps is R or e.k == 0) for e in entries]
        finite_closed = [e for e, o in zip(entries, is_open) if not (o or e.is_inf)]
        if not any(is_open):
            # All bands of a chain share one parity.
            assert len({e.k % 2 for e in finite_closed}) <= 1, str(s)
            cases["chain"] += 1
            continue
        # Every closed finite region of a necklace is an even s region.
        assert all(e.eps is S and e.k % 2 == 0 for e in finite_closed), str(s)
        # Only open regions reverse the top orientation, so it is constant
        # across each gap between open regions.
        for i, o in enumerate(is_open):
            assert o or top[i] == top[i - 1], str(s)
        # A ring crosses an even number of disks.
        ring = all(e.k != 0 for e, o in zip(entries, is_open) if o)
        assert not ring or sum(is_open) % 2 == 0, str(s)
        cases["ring" if ring else "no ring"] += 1
    assert cases == {"chain": 758, "ring": 11232, "no ring": 210}


# -- oracle fixtures -----------------------------------------------------------


def test_oracle_fixture_values():
    assert oracle_conway(seq((6, R), (-6, R), (1, R), (1, R))) == \
        ZPoly((0, 0, 0, -9, 0, -24, 0, -22, 0, -8, 0, -1))
    assert oracle_conway(seq((1, S), (1, S))) == ZPoly((0, -1))
    assert oracle_conway(seq((2, S), (-2, R), (2, S), (-2, R))) == \
        ZPoly((0, 0, 0, -4, 0, -1))


def test_oracle_torus_closures():
    from pretzellinks.polynomials import phi_poly
    for p in range(-6, 7):
        if p != 0:
            got = oracle_conway(seq((2 * p, S), (0, S), base=True))
            assert got == ZPoly((0, -p)), p
    # cyclic single anti-parallel crossings close into (2, -m) torus diagrams
    for m in range(1, 8):
        got = oracle_conway(EnhancedSequence.of(*[(1, S)] * m))
        if m % 2 == 0:
            assert got == phi_poly(-m // 2), m
        else:
            assert got == psi_poly(-(m + 1) // 2), m


def test_unknot_and_degenerate_closures():
    assert oracle_conway(seq((5, R), (0, R), base=True)) == psi_poly(2)
    assert oracle_conway(seq((0, S), base=True)) == ZPoly.one()
    assert oracle_conway(seq((INF, S), base=True)) == ZPoly.zero()
    assert oracle_conway(seq((2, S), (INF, S), base=True)) == ZPoly.one()
    assert oracle_conway(seq((3, S), base=True)) == ZPoly.one()


# -- structural invariances -----------------------------------------------------


def test_rotation_reflection_invariance():
    rng = random.Random(3)
    values = [k for k in range(-4, 5) if k != 0]
    for _ in range(60):
        u = rng.randint(2, 6)
        ks = tuple(rng.choice(values) for _ in range(u))
        enh = enumerate_enhancements(ks)
        if not enh:
            continue
        s = rng.choice(enh)
        base = oracle_conway(s)
        t = rng.randrange(u)
        rotated = EnhancedSequence(s.entries[t:] + s.entries[:t])
        reflected = EnhancedSequence(tuple(reversed(s.entries)))
        assert oracle_conway(rotated) == base
        assert oracle_conway(reflected) == base
        # The components are relabelled, but their polynomials are the same.
        comps = [sorted(str(c) for c in component_conways(w))
                 for w in (s, rotated, reflected)]
        assert comps[0] == comps[1] == comps[2], str(s)
    # Long words through the state sum, in both of its classes: class A
    # (every region odd s) and class B (the rest).
    for u in (50, 100, 200):
        words = {}
        while len(words) < 2:
            s = random_realizable(rng, u, 30, all_odd=rng.random() < 0.5)
            words.setdefault(all(e.eps is S and e.k % 2 for e in s), s)
        for s in words.values():
            t = rng.randrange(1, u)
            base = statesum_conway(s)
            assert statesum_conway(EnhancedSequence(s.entries[t:] + s.entries[:t])) == base
            assert statesum_conway(EnhancedSequence(s.entries[::-1])) == base


def test_minus_two_normalization_isotopy():
    rng = random.Random(17)
    values = [k for k in range(-4, 5) if k != 0]
    checked = 0
    while checked < 40:
        u = rng.randint(2, 5)
        ks = tuple(rng.choice(values) for _ in range(u))
        if -2 not in ks:
            continue
        for s in enumerate_enhancements(ks):
            i = next(i for i, e in enumerate(s) if e.k == -2)
            ent = list(s.entries)
            ent[i] = Entry(2, s[i].eps.flipped)
            ent.insert(i + 1, Entry(-1, R))
            s2 = EnhancedSequence(tuple(ent))
            assert oracle_conway(s) == oracle_conway(s2), str(s)
            assert region_linking_matrix(build_diagram(s)) == \
                region_linking_matrix(build_diagram(s2)), str(s)
            checked += 1


def test_unit_twist_flype_swap():
    rng = random.Random(29)
    values = [k for k in range(-4, 5) if k != 0]
    checked = 0
    while checked < 40:
        u = rng.randint(2, 5)
        ks = tuple(rng.choice(values) for _ in range(u))
        if 1 not in ks and -1 not in ks:
            continue
        for s in enumerate_enhancements(ks):
            i = next((i for i, e in enumerate(s)
                      if e.k in (1, -1) and e.eps is R), None)
            if i is None:
                continue
            j = (i + 1) % u
            ent = list(s.entries)
            ent[i], ent[j] = ent[j], ent[i]
            s2 = EnhancedSequence(tuple(ent))
            assert oracle_conway(s) == oracle_conway(s2), str(s)
            checked += 1


def test_odd_spread_preserves_linking():
    # Spreading an odd entry k into |k| unit twists preserves all linking
    # numbers (the moves involved keep every component's class).
    for s in (seq((4, S), (5, R), (6, R), (-2, R), (-3, R)),
              seq((2, S), (3, R), (4, S), (3, R))):
        d = build_diagram(s)
        i, e = next((i, e) for i, e in enumerate(s) if e.k % 2 and abs(e.k) >= 3)
        unit = Entry(1 if e.k > 0 else -1, R)
        ent = list(s.entries)
        ent[i:i + 1] = [unit] * abs(e.k)
        s2 = EnhancedSequence(tuple(ent))
        assert region_linking_matrix(d) == region_linking_matrix(build_diagram(s2))


# -- skein checks ----------------------------------------------------------------


def test_skein_checks_pass_on_samples():
    """Every region of every realizable word with u <= 3, |k| <= 3: both tags,
    both signs of k, and the k = +-1, +-2 steps that reach 0 or a smoothing."""
    regions = 0
    for ks in all_plain_sequences(3, 3):
        for s in enumerate_enhancements(ks):
            checks = skein_checks(s)
            assert len(checks) == len(s) and all(ok for _, ok in checks), str(s)
            regions += len(checks)
    assert regions == 982


# -- components -------------------------------------------------------------------


def test_component_conway_values():
    k1 = seq((6, R), (-6, R), (1, R), (1, R))
    assert component_conways(k1) == (ZPoly.one(), ZPoly.one())
    # Normal-form sequences have trivial components.
    nf = seq((4, S), (6, R), (2, S), (1, R))
    assert component_conways(nf) == (ZPoly.one(),) * 3
    # A 3-twist run side-closes into a trefoil component.
    s = seq((-2, S), (2, R), (-3, R))
    assert sorted(str(c) for c in component_conways(s)) == ["1", "1 + z^2"]
    # Whole diagram for a knot.
    knot = seq((2, S), (3, R), (3, R))
    assert component_conways(knot) == (oracle_conway(knot),)
    assert component_conways(knot) == (twistreduce_conway(knot),)
    # Components are read off a user-level word; a base word is refused.
    with pytest.raises(InvalidSequenceError, match="user-level"):
        component_conways(EnhancedSequence.parse("1s,1s,infr", base=True))
    # With no even region both components of a 2-component word own no
    # region, keep no crossing and are unknots.
    for s in (seq((1, S), (1, S)), seq((3, R), (-1, R), (5, R), (1, R))):
        assert component_runs(s) == ((), ())
        assert component_conways(s) == (ZPoly.one(),) * 2


def test_component_owns_one_run():
    """A component owns the regions strictly between two neighbouring
    vertical regions (k = 0 or even), one cyclic run; with no vertical
    region it owns at most crossingless infinity regions."""
    for s in _seifert_inputs():
        try:
            d = build_diagram(s)
        except UnrealizableOrientationError:
            continue
        if d.ncomponents == 1:
            continue
        u = len(s)
        vertical = any(not e.is_inf and e.k % 2 == 0 for e in s)
        for comp in range(d.ncomponents):
            owned = [r.comp_left == comp == r.comp_right for r in d.regions]
            if not vertical:
                assert all(s[i].is_inf for i in range(u) if owned[i]), str(s)
                continue
            starts = sum(1 for i in range(u) if owned[i] and not owned[i - 1])
            assert starts <= 1, (str(s), comp)


# -- PD export ---------------------------------------------------------------------


def test_pd_code_structure():
    d = build_diagram(seq((2, S), (3, R), (3, R)))
    lines = [ln for ln in pd_code(d).splitlines() if ln.startswith("X")]
    assert len(lines) == 8
    counts = {}
    for ln in lines:
        parts = ln.split()
        assert parts[5] in ("+1", "-1")
        for a in parts[1:5]:
            counts[a] = counts.get(a, 0) + 1
    # every arc is incident to exactly two crossing corners
    assert all(c == 2 for c in counts.values())


# SHA-256 of the records below over every realizable sequence with u <= 4,
# |k| <= 3 (2,782) and every orientable base word with u <= 3 (56).
GOLDEN_DIAGRAM_DIGEST = (
    "f6b5c6d5e5af327f6644ab5e775715ed6c2e5db7d15662270588aec06546d6fa")


def _golden_inputs():
    for ks in all_plain_sequences(4, 3):
        yield from enumerate_enhancements(ks)
    alphabet = [Entry(0, S), Entry(INF, S), Entry(1, S),
                Entry(INF, R), Entry(1, R), Entry(0, R)]
    for u in range(1, 4):
        for combo in itertools.product(alphabet, repeat=u):
            s = EnhancedSequence(combo, base=True)
            try:
                orientation_data(s)
            except UnrealizableOrientationError:
                continue
            yield s


def test_diagram_outputs_golden():
    """Pins component numbering, arc ids, signs and counts byte for byte."""
    digest = hashlib.sha256()
    count = 0
    for s in _golden_inputs():
        d = build_diagram(s)
        regions = tuple((r.comp_left, r.comp_right, sign)
                        for r, sign in zip(d.regions, region_signs(d)))
        record = repr((str(s), pd_code(d), region_linking_matrix(d),
                       d.ncomponents, d.is_split, d.seifert_circles,
                       d.free_loops, regions))
        digest.update(record.encode() + b"\n")
        count += 1
    assert count == 2782 + 56
    assert digest.hexdigest() == GOLDEN_DIAGRAM_DIGEST


# SHA-256 of orientation_data's result, or its exception type and message,
# on every base word with u <= 5 (9,330, orientable or not) and every
# realizable sequence with u <= 4, |k| <= 3 (2,782).
GOLDEN_ORIENTATION_DIGEST = (
    "3c207f166b481bdd41e760adddb923fa3f2f88e5faf41838aecedf390c9d1074")


def _orientation_inputs():
    alphabet = [Entry(0, S), Entry(INF, S), Entry(1, S),
                Entry(INF, R), Entry(1, R), Entry(0, R)]
    for u in range(1, 6):
        for combo in itertools.product(alphabet, repeat=u):
            yield EnhancedSequence(combo, base=True)
    for ks in all_plain_sequences(4, 3):
        yield from enumerate_enhancements(ks)


def test_orientation_data_golden():
    """Pins orientation_data's values and error messages byte for byte."""
    digest = hashlib.sha256()
    count = 0
    for s in _orientation_inputs():
        try:
            result = orientation_data(s)
        except UnrealizableOrientationError as exc:
            result = (type(exc).__name__, str(exc))
        digest.update(repr((str(s), result)).encode() + b"\n")
        count += 1
    assert count == 9330 + 2782
    assert digest.hexdigest() == GOLDEN_ORIENTATION_DIGEST


def test_parity_law_on_oracle_values(small_realizable):
    for s in small_realizable:
        mu = build_diagram(s).ncomponents
        assert parity_law_ok(oracle_conway(s), mu), str(s)
