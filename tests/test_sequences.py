import itertools
import random

import pytest
from hypothesis import given, strategies as st

from conftest import seq
from pretzellinks.classify import class_key
from pretzellinks.errors import InvalidSequenceError, ParseError
from pretzellinks.sequences import (
    INF,
    EnhancedSequence,
    Entry,
    R,
    S,
    _entry_sort_key,
    canonical_key,
    component_count,
    dihedral_canonical,
    dihedral_words,
    enumerate_enhancements,
    even_subsequence,
    is_erasable,
    is_realizable,
    normalize_even,
    orientation_respecting_pairing,
    pairing_respects_orientation,
    parse_plain,
    twist_surplus,
)

nonzero = st.integers(-6, 6).filter(lambda k: k != 0)
plain_seqs = st.lists(nonzero, min_size=1, max_size=6).map(tuple)
types = st.sampled_from([S, R])
enhanced_seqs = st.lists(st.tuples(nonzero, types), min_size=1, max_size=6).map(
    lambda pairs: EnhancedSequence.of(*pairs))


# -- component_count -----------------------------------------------------


def test_component_count_examples():
    assert component_count((4, 5, 6, -2, -3)) == 3
    assert component_count((1, 1, 1)) == 1
    assert component_count((3, 5)) == 2
    assert component_count((2,)) == 1
    assert component_count((2, 4)) == 2


def test_component_count_rejects_zero():
    with pytest.raises(InvalidSequenceError):
        component_count((1, 0, 3))


# -- realizability -------------------------------------------------------


def test_is_realizable_examples():
    assert is_realizable(seq((1, S), (1, S), (1, S)))
    assert not is_realizable(seq((2, R), (3, R), (4, R)))
    assert is_realizable(seq((2, S), (3, R), (4, R)))
    assert not is_realizable(seq((1, R), (1, R), (1, R)))
    assert is_realizable(seq((3, S), (3, S)))
    assert is_realizable(seq((3, R), (3, R)))
    assert not is_realizable(seq((3, S), (3, R)))


def test_enumerate_enhancements_examples():
    assert enumerate_enhancements((1, 1, 1)) == [seq((1, S), (1, S), (1, S))]
    assert enumerate_enhancements((3, 3)) == [seq((3, S), (3, S)),
                                              seq((3, R), (3, R))]
    assert enumerate_enhancements((2, 3)) == [seq((2, R), (3, R))]


def test_enumerate_enhancements_is_the_realizable_filter():
    # Definition: every tag word in binary-counter order (first entry most
    # significant, S = 0), kept when is_realizable.
    values = [k for k in range(-3, 4) if k != 0]
    for u in range(1, 6):
        for ks in itertools.product(values, repeat=u):
            want = [w for w in (
                EnhancedSequence(tuple(map(Entry, ks, tags)))
                for tags in itertools.product((S, R), repeat=u))
                if is_realizable(w)]
            assert enumerate_enhancements(ks) == want, ks


@given(plain_seqs)
def test_enhancements_are_realizable_with_even_r_count(ks):
    for s in enumerate_enhancements(ks):
        assert is_realizable(s)
        assert sum(1 for e in s if e.eps is R) % 2 == 0


# -- even subsequence, twist surplus, normalization --------------------------------


def test_even_subsequence_examples():
    s = seq((4, S), (5, R), (6, R), (-2, R), (-3, R))
    assert even_subsequence(s) == seq((4, S), (6, R), (-2, R))
    assert even_subsequence(seq((2, S), (-2, S))) == seq((2, S), (-2, S))
    with pytest.raises(InvalidSequenceError):
        even_subsequence(seq((1, S), (1, S)))


def test_twist_surplus_examples():
    assert twist_surplus(seq((4, S), (5, R), (6, R), (-2, R), (-3, R))) == 1
    assert twist_surplus(seq((6, R), (2, S), (7, R), (4, S), (-5, R), (-1, R))) == 1
    assert twist_surplus(seq((2, S), (4, S), (6, S))) == 0


@given(enhanced_seqs, st.integers(0, 5))
def test_twist_surplus_rotation_reversal_invariant(s, t):
    t %= len(s)
    rotated = EnhancedSequence(s.entries[t:] + s.entries[:t])
    reversed_ = EnhancedSequence(tuple(reversed(s.entries)))
    assert twist_surplus(rotated) == twist_surplus(s) == twist_surplus(reversed_)


def test_normalize_even_examples():
    assert normalize_even(seq((4, S), (6, R), (-2, R))) == seq((4, S), (6, R), (2, S))
    assert normalize_even(seq((-2, S), (-2, R))) == seq((2, R), (2, S))
    assert normalize_even(seq((4, S), (6, R))) == seq((4, S), (6, R))
    with pytest.raises(InvalidSequenceError):
        normalize_even(seq((3, S), (4, S)))


@given(st.lists(st.tuples(st.sampled_from([-4, -2, 2, 4, 6]), types),
                min_size=1, max_size=5))
def test_normalize_even_idempotent(pairs):
    s = EnhancedSequence.of(*pairs)
    assert normalize_even(normalize_even(s)) == normalize_even(s)


# -- cyclic equivalence and canonical keys -------------------------------


def same_orbit(a, b):
    """Cyclic equivalence: b is a rotation or reflection of a."""
    return b.entries in set(dihedral_words(a.entries))


def test_cyc_equivalent_examples():
    # Cyclic words are equivalent exactly when their dihedral_canonical agree.
    def canon(*pairs):
        return dihedral_canonical(seq(*pairs).entries)

    assert canon((4, S), (6, R), (2, S)) == canon((6, R), (2, S), (4, S))
    assert canon((2, S), (4, R), (6, S)) == canon((6, S), (4, R), (2, S))
    assert canon((2, S), (4, S)) != canon((2, S), (6, S))


@given(enhanced_seqs, enhanced_seqs, enhanced_seqs)
def test_cyc_equivalence_relation(a, b, c):
    assert same_orbit(a, a)
    assert same_orbit(a, b) == (dihedral_canonical(a.entries) == dihedral_canonical(b.entries))
    if same_orbit(a, b):
        assert same_orbit(b, a)
        if same_orbit(b, c):
            assert same_orbit(a, c)


def test_canonical_key_examples():
    assert canonical_key(seq((4, S), (6, R), (-2, R))) == seq((2, S), (4, S), (6, R))
    assert canonical_key(seq((6, R), (2, S), (4, S))) == seq((2, S), (4, S), (6, R))
    assert canonical_key(seq((2, S))) == seq((2, S))


def test_canonical_key_separates_orbits_exhaustively():
    # All all-even sequences with u <= 3 over {-4,-2,2,4}: keys agree exactly
    # on cyclic-dihedral orbits after the -2 identification.
    values = [-4, -2, 2, 4]
    pool = []
    for u in range(1, 4):
        for ks in itertools.product(values, repeat=u):
            for eps in itertools.product([S, R], repeat=u):
                pool.append(EnhancedSequence.of(*zip(ks, eps)))
    for a in pool[::7]:
        for b in pool[::11]:
            if len(a) != len(b):
                continue
            same_key = canonical_key(a).entries == canonical_key(b).entries
            assert same_key == same_orbit(normalize_even(a), normalize_even(b))


@given(enhanced_seqs)
def test_dihedral_canonical_is_orbit_invariant(s):
    base = dihedral_canonical(s.entries)
    for t in range(len(s)):
        rot = s.entries[t:] + s.entries[:t]
        assert dihedral_canonical(rot) == base
    assert dihedral_canonical(tuple(reversed(s.entries))) == base


def test_dihedral_canonical_is_least_by_definition():
    # Every word with u <= 4 over k in {-2..2, INF} x {s, r} (22,620 words).
    alphabet = [Entry(k, eps) for k in (-2, -1, 0, 1, 2, INF) for eps in (S, R)]
    count = 0
    for u in range(1, 5):
        for w in itertools.product(alphabet, repeat=u):
            least = min(dihedral_words(w),
                        key=lambda word: tuple(_entry_sort_key(e) for e in word))
            assert dihedral_canonical(w) == least, w
            count += 1
    assert count == 22620


def test_dihedral_canonical_is_least_on_wide_tied_words():
    """Seeded words of wide's lengths, u = 5..12, over 2 or 3 entries that
    include a zero or an INF, so that the least entry often recurs."""
    rng = random.Random(1985)
    alphabet = [Entry(k, eps) for k in (-1, 0, 1, 2, INF) for eps in (S, R)]
    specials = [e for e in alphabet if e.k == 0 or e.k is INF]
    tied = 0
    for _ in range(3000):
        letters = [rng.choice(specials)] + rng.sample(alphabet, rng.randint(1, 2))
        w = tuple(rng.choice(letters) for _ in range(rng.randint(5, 12)))
        least = min(dihedral_words(w),
                    key=lambda word: tuple(_entry_sort_key(e) for e in word))
        assert dihedral_canonical(w) == least, w
        low = min(map(_entry_sort_key, w))
        tied += sum(_entry_sort_key(e) == low for e in w) > 1
    assert tied > 2000


# -- erasability ---------------------------------------------------------


def test_is_erasable_examples():
    assert is_erasable((2, -2)) == ((0, 1),)
    assert is_erasable((3, -3, 5, -5)) == ((0, 1), (2, 3))
    assert is_erasable((2, 2, -4)) is None
    assert is_erasable((2, 2, -4, 4)) is None


def brute_force_erasable(ks):
    if not ks:
        return True
    if len(ks) % 2 != 0:
        return False
    for i in range(1, len(ks)):
        if ks[0] + ks[i] == 0:
            rest = ks[1:i] + ks[i + 1:]
            if brute_force_erasable(rest):
                return True
    return False


@given(st.lists(st.integers(-4, 4).filter(bool), min_size=1, max_size=8).map(tuple))
def test_is_erasable_matches_recursive_deletion(ks):
    assert (is_erasable(ks) is not None) == brute_force_erasable(ks)


def test_erasable_witness_is_valid_pairing():
    ks = (3, -3, 2, 4, -4, -2)
    pairing = is_erasable(ks)
    used = set()
    for i, j in pairing:
        assert ks[i] + ks[j] == 0
        used.update((i, j))
    assert used == set(range(6))


# -- pairings and orientation --------------------------------------------


def test_pairing_respects_orientation_examples():
    assert pairing_respects_orientation(seq((2, S), (-2, S)), ((0, 1),))
    s = seq((2, S), (-2, R), (2, S), (-2, R))
    for pairing in (((0, 1), (2, 3)), ((0, 3), (2, 1))):
        assert not pairing_respects_orientation(s, pairing)
    assert pairing_respects_orientation(
        seq((3, R), (-3, R), (2, S), (-2, S)), ((0, 1), (2, 3)))
    with pytest.raises(InvalidSequenceError):
        pairing_respects_orientation(seq((2, S), (-2, S)), ((0, 0),))


def test_orientation_respecting_pairing():
    assert orientation_respecting_pairing(seq((2, S), (-2, R), (2, S), (-2, R))) is None
    got = orientation_respecting_pairing(seq((2, S), (-2, R), (-2, S), (2, R)))
    assert got is not None and pairing_respects_orientation(
        seq((2, S), (-2, R), (-2, S), (2, R)), got)


# -- normal form -----------------------------------------------------------


def test_self_delta_normal_form_examples():
    # With three or more components the class key is the normal form: the
    # canonical even key (-2 read as 2 of the other type) and twist surplus.
    a = seq((4, S), (5, R), (6, R), (-2, R), (-3, R))
    assert class_key(a) == (3, "even=2s,4s,6r;surplus=1")
    assert class_key(EnhancedSequence(a.entries[2:] + a.entries[:2])) == class_key(a)
    assert class_key(seq((2, S), (4, S), (6, S))) == (3, "even=2s,4s,6s;surplus=0")
    assert class_key(seq((2, S), (4, S), (-2, S))) == (3, "even=2s,2r,4s;surplus=-1")
    # Two components are keyed by their coefficient invariants instead.
    assert class_key(seq((1, S), (1, S))) == (2, "a1=-1;c3=0")


# -- parsing and validation -------------------------------------------------


def test_parse_grammar():
    s = EnhancedSequence.parse(" P( 4s, 5R , 6r, -2r, -3r ) ")
    assert s == seq((4, S), (5, R), (6, R), (-2, R), (-3, R))
    assert str(s) == "4s,5r,6r,-2r,-3r"
    assert parse_plain("4, 5, 6, -2, -3") == (4, 5, 6, -2, -3)
    with pytest.raises(ParseError):
        EnhancedSequence.parse("4s,5")
    with pytest.raises(ParseError):
        parse_plain("4s,5r")
    with pytest.raises(ParseError):
        EnhancedSequence.parse("")
    for text in ("1s,,1s", "1s,", ",1s", "P(4s,,5r)"):
        with pytest.raises(ParseError):
            EnhancedSequence.parse(text)
    for text in ("1,,1", "1,", ",1", "P(4,,5)"):
        with pytest.raises(ParseError):
            parse_plain(text)
    # Only ASCII digits: full-width and Arabic-Indic 3 are not numbers here.
    for text in ("\uff13s,\uff13s", "\u0663s"):
        with pytest.raises(ParseError):
            EnhancedSequence.parse(text)
    with pytest.raises(ParseError):
        parse_plain("\uff13,\uff13")


def test_user_level_entries_validated():
    with pytest.raises(InvalidSequenceError):
        EnhancedSequence.of((0, S), (2, R))
    with pytest.raises(InvalidSequenceError):
        EnhancedSequence.of((INF, S))
    for flag in (True, False):
        with pytest.raises(InvalidSequenceError):
            EnhancedSequence.of((flag, S))
        with pytest.raises(InvalidSequenceError):
            EnhancedSequence.of((flag, S), base=True)
    EnhancedSequence.of((0, S), (2, R), base=True)  # internal builds allowed
