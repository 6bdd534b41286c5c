import collections
import hashlib
import itertools
import random
import time

import pytest
from hypothesis import given, strategies as st

from conftest import parity_law_ok, seq
from statesum_reference import _resolutions, statesum_reference
from pretzellinks import diagrams, polynomials
from pretzellinks.errors import (
    InvalidSequenceError,
    PretzelInputError,
    UnrealizableOrientationError,
)
from pretzellinks.polynomials import (
    a1a3_and_component_a2,
    a1a3_even,
    a1a3_odd,
    base_conway,
    phi_poly,
    psi_poly,
    statesum_conway,
    torus_conway,
    twistreduce_conway,
)
from pretzellinks.sequences import (
    INF,
    EnhancedSequence,
    Entry,
    R,
    S,
    enumerate_enhancements,
)
from pretzellinks.zpoly import ZPoly, binomial

Z = ZPoly.term(1, 1)


# -- phi / psi ---------------------------------------------------------------


def test_phi_psi_values():
    assert phi_poly(3) == ZPoly((0, 3, 0, 4, 0, 1))
    assert phi_poly(0) == ZPoly.zero()
    assert psi_poly(0) == ZPoly.one()
    assert psi_poly(-1) == ZPoly.one()
    assert psi_poly(2) == ZPoly((1, 0, 3, 0, 1))


def test_phi_psi_support():
    for t in range(-6, 7):
        phi = phi_poly(t)
        assert phi.degree <= 2 * abs(t) - 1 if t else phi.is_zero()
        n = t + 1 if t >= 0 else -t
        assert psi_poly(t).degree <= 2 * n - 2


def test_phi_psi_match_binomial_definition():
    # The coefficients step by binomial ratios; check each against binomial().
    for t in range(-60, 61):
        assert phi_poly(t) == ZPoly(
            binomial(t + (j - 1) // 2, j) if j % 2 else 0
            for j in range(2 * abs(t)))
        n = t + 1 if t >= 0 else -t
        assert psi_poly(t) == ZPoly(
            0 if j % 2 else binomial(t + j // 2, j)
            for j in range(2 * n - 1))


@given(st.integers(-20, 20))
def test_pascal_identities(p):
    assert phi_poly(-p) == -phi_poly(p)
    assert psi_poly(-p - 1) == psi_poly(p)
    assert phi_poly(p) + Z * psi_poly(p) == phi_poly(p + 1)
    assert psi_poly(p - 1) + Z * phi_poly(p) == psi_poly(p)


# -- torus links -------------------------------------------------------------


def test_torus_conway_values():
    assert torus_conway(6, S) == ZPoly((0, -3))
    assert torus_conway(4, R) == ZPoly((0, 2, 0, 1))
    assert torus_conway(0, S) == ZPoly.zero()
    assert torus_conway(0, R) == ZPoly.zero()
    assert torus_conway(1, R) == ZPoly.one()
    assert torus_conway(INF, S) == ZPoly.one()
    with pytest.raises(UnrealizableOrientationError):
        torus_conway(3, S)
    with pytest.raises(UnrealizableOrientationError):
        torus_conway(INF, R)


def tau_as_pretzel(k, eps):
    """Side closure of one twist region, realized as a two-region diagram."""
    for closer in (S, R):
        try:
            return diagrams.oracle_conway(seq((k, eps), (0, closer), base=True))
        except UnrealizableOrientationError:
            continue
    raise UnrealizableOrientationError(f"tau({k}{eps}) is not orientable")


def test_torus_conway_matches_oracle():
    for k in range(-8, 9):
        for eps in (S, R):
            if k % 2 != 0 and eps is S:
                continue
            if k == 0:
                continue
            assert torus_conway(k, eps) == tau_as_pretzel(k, eps), (k, eps)


def test_torus_pairs_distinct_except_listed():
    # (a1, a3) classification data of the 2-component torus closures.
    pairs = {}
    for p in range(-6, 7):
        for eps in (S, R):
            nabla = torus_conway(2 * p, eps)
            pairs[(2 * p, eps)] = (nabla.coefficient(1), nabla.coefficient(3))
    allowed = {
        frozenset([(0, S), (0, R)]),
        frozenset([(2, S), (-2, R)]),
        frozenset([(-2, S), (2, R)]),
    }
    for a in pairs:
        for b in pairs:
            if a >= b:
                continue
            if pairs[a] == pairs[b]:
                assert frozenset([a, b]) in allowed, (a, b)


# -- base sequences ----------------------------------------------------------


def test_base_conway_examples():
    assert base_conway(seq((1, S), (1, S), base=True)) == ZPoly((0, -1))
    assert base_conway(seq((1, R), (1, R), base=True)) == ZPoly((0, 1))
    assert base_conway(seq((1, R), (0, R), (1, R), (0, R), base=True)) == ZPoly.zero()
    assert base_conway(seq((0, S), (1, R), (1, R), base=True)) == ZPoly.one()
    assert base_conway(seq((INF, S), (0, S), base=True)) == ZPoly.one()
    assert base_conway(seq((INF, S), (INF, S), base=True)) == ZPoly.zero()
    with pytest.raises(InvalidSequenceError):
        base_conway(seq((2, S), (1, R), base=True))


BASE_ALPHABET = [Entry(0, S), Entry(INF, S), Entry(1, S),
                 Entry(INF, R), Entry(1, R), Entry(0, R)]


def test_base_conway_agrees_with_oracle_exhaustively():
    """On every orientable base word with u <= 6, base_conway equals the
    oracle, and the oracle's value depends only on the word's
    `_base_counts`: the lemma the twist recursion's leaf table and the
    state sum's count classes rely on.  `_base_value` reads it off those
    counts alone."""
    by_counts = {}
    checked = 0
    for u in range(1, 7):
        for combo in itertools.product(BASE_ALPHABET, repeat=u):
            s = EnhancedSequence(combo, base=True)
            try:
                diagrams.orientation_data(s)
            except UnrealizableOrientationError:
                continue
            d = diagrams.build_diagram(s)
            want = ZPoly.zero() if d.is_split else diagrams._conway_of(d)
            assert base_conway(s) == want, str(s)
            counts = polynomials._base_counts(combo)
            assert by_counts.setdefault(counts, want) == want, str(s)
            assert polynomials._base_value(*counts) == base_conway(s).coeffs, str(s)
            checked += 1
    assert checked == 2856  # sum over u of 2^u + 2^(2u-1)
    assert len(by_counts) == 31


def test_orientable_base_words_are_classes_a_and_b():
    # The lemma behind base_conway's rules: a base word is orientable exactly
    # when all its entries are in {1s, infr} (A), or all are in
    # {1r, 0s, 0r, infs} with an even number of 1r and 0r (B).
    class_a = {Entry(1, S), Entry(INF, R)}
    for u in range(1, 7):
        for combo in itertools.product(BASE_ALPHABET, repeat=u):
            in_a = all(e in class_a for e in combo)
            in_b = (not any(e in class_a for e in combo)
                    and sum(1 for e in combo if not e.is_inf and e.eps is R) % 2 == 0)
            try:
                diagrams.orientation_data(EnhancedSequence(combo, base=True))
                orientable = True
            except UnrealizableOrientationError:
                orientable = False
            assert orientable == (in_a or in_b), combo


# -- the two resolution engines ---------------------------------------------


WORKED_EXAMPLES = [
    (seq((6, R), (-6, R), (1, R), (1, R)),
     ZPoly((0, 0, 0, -9, 0, -24, 0, -22, 0, -8, 0, -1))),
    (seq((4, S), (4, R), (1, R), (1, R), (1, R)), ZPoly((0, 0, 0, -9, 0, -4))),
    (seq((2, S), (-2, R), (2, S), (-2, R)), ZPoly((0, 0, 0, -4, 0, -1))),
]


@pytest.mark.parametrize("s,want", WORKED_EXAMPLES)
def test_statesum_worked_examples(s, want):
    assert statesum_conway(s) == want


@pytest.mark.parametrize("s,want", WORKED_EXAMPLES)
def test_twistreduce_worked_examples(s, want):
    assert twistreduce_conway(s) == want


def test_twistreduce_base_cases():
    assert twistreduce_conway(seq((1, S), (1, S))) == ZPoly((0, -1))
    assert twistreduce_conway(seq((2, S), (-2, S))) == ZPoly.zero()


def test_engines_reject_unrealizable():
    with pytest.raises(UnrealizableOrientationError):
        statesum_conway(seq((2, R), (3, R), (4, R)))
    with pytest.raises(UnrealizableOrientationError):
        twistreduce_conway(seq((2, R), (3, R), (4, R)))


def test_engines_agree_small(small_realizable):
    for s in small_realizable:
        a = statesum_conway(s)
        b = twistreduce_conway(s)
        c = diagrams.oracle_conway(s)
        assert a == b == c, str(s)
        mu = len([e for e in s if e.is_even]) or (2 - len(s) % 2)
        assert parity_law_ok(a, mu), str(s)


@given(st.lists(st.tuples(st.integers(-5, 5).filter(bool),
                          st.sampled_from([S, R])),
                min_size=1, max_size=4))
def test_engines_agree_property(pairs):
    from hypothesis import assume
    from pretzellinks.sequences import is_realizable

    s = EnhancedSequence.of(*pairs)
    assume(is_realizable(s))
    assert statesum_conway(s) == twistreduce_conway(s) == \
        diagrams.oracle_conway(s)


def test_engines_agree_high_twist_samples():
    import random
    rng = random.Random(71)
    values = [k for k in range(-8, 9) if k != 0]
    done = 0
    while done < 150:
        u = rng.randint(1, 4)
        ks = tuple(rng.choice(values) for _ in range(u))
        enh = enumerate_enhancements(ks)
        if not enh:
            continue
        s = rng.choice(enh)
        a = statesum_conway(s)
        assert a == twistreduce_conway(s) == diagrams.oracle_conway(s), str(s)
        done += 1


# SHA-256 of statesum_conway's coefficients, or its exception type and
# message, on every base word with u <= 5 (9,330, orientable or not).
GOLDEN_STATESUM_BASE_DIGEST = (
    "c85291be360d11eaa68c947cb0a5ac5fbf94f625d0d93a92353f5c57c2d428f5")


def test_statesum_base_words_golden():
    """Pins the state sum's values and errors on base words byte for byte."""
    digest = hashlib.sha256()
    count = 0
    for u in range(1, 6):
        for combo in itertools.product(BASE_ALPHABET, repeat=u):
            s = EnhancedSequence(combo, base=True)
            try:
                result = statesum_conway(s).coeffs
            except UnrealizableOrientationError as exc:
                result = (type(exc).__name__, str(exc))
            digest.update(repr((str(s), result)).encode() + b"\n")
            count += 1
    assert count == 9330
    assert digest.hexdigest() == GOLDEN_STATESUM_BASE_DIGEST


def test_split_resolutions_match_reference_table():
    """The cached coefficient tuples equal the test reference's phi/psi
    table on its nonzero terms, well past the goldens' |k| <= 4."""
    for k in [*range(-60, 61), INF]:
        for eps in (S, R):
            e = Entry(k, eps)
            split = polynomials._split_resolutions(e)
            got = {pair for pair in (split[:2], split[2:]) if pair[0]}
            want = {(gamma.coeffs, entry) for gamma, entry in _resolutions(e) if gamma}
            assert got == want, str(e)


# SHA-256 of twistreduce_conway's coefficients, or its exception type and
# message, on every tagged word with u <= 3 and k in {±1, ±2, ±3} (1,884, of
# which 1,534 raise) and every orientable base word with u <= 4 (200).
GOLDEN_TWISTREDUCE_DIGEST = (
    "309342da84db3f86477b1cbf78f939e4dde0c873a46290dd37c0b35059887836")


def test_twistreduce_golden():
    """Pins the twist recursion's values and errors byte for byte."""
    tagged = [Entry(k, eps) for k in (-3, -2, -1, 1, 2, 3) for eps in (S, R)]
    words = [EnhancedSequence(combo)
             for u in range(1, 4) for combo in itertools.product(tagged, repeat=u)]
    for u in range(1, 5):
        for combo in itertools.product(BASE_ALPHABET, repeat=u):
            s = EnhancedSequence(combo, base=True)
            try:
                diagrams.orientation_data(s)
            except UnrealizableOrientationError:
                continue
            words.append(s)
    assert len(words) == 1884 + 200
    digest = hashlib.sha256()
    for s in words:
        try:
            result = twistreduce_conway(s).coeffs
        except PretzelInputError as exc:
            result = (type(exc).__name__, str(exc))
        digest.update(repr((str(s), result)).encode() + b"\n")
    assert digest.hexdigest() == GOLDEN_TWISTREDUCE_DIGEST


def test_goldens_hold_with_a_cold_and_a_warm_split_cache():
    """The split cache is bounded and changes no value: each golden passes
    from an empty cache, then again from the cache it filled, which the
    second pass reads without a miss."""
    cache = polynomials._split_resolutions
    assert cache.cache_info().maxsize is not None
    for golden in (test_statesum_base_words_golden, test_twistreduce_golden):
        cache.cache_clear()
        golden()
        cold = cache.cache_info()
        assert 0 < cold.misses <= cold.maxsize and cold.hits > 0
        golden()
        warm = cache.cache_info()
        assert warm.misses == cold.misses and warm.hits > cold.hits


def test_twistreduce_builds_one_table_per_call(monkeypatch):
    """phi/psi run at most once per region per call, and the memo's visits
    (dihedral_canonical calls), the leaves (count passes outside
    base_conway) and the base_conway calls, one per count class, are
    pinned."""
    counts = collections.Counter()
    for name in ("phi_poly", "psi_poly", "dihedral_canonical", "base_conway",
                 "_base_counts"):
        def counted(*args, _f=getattr(polynomials, name), _name=name):
            counts[_name] += 1
            return _f(*args)
        monkeypatch.setattr(polynomials, name, counted)
    s = EnhancedSequence.parse(",".join(["3r", "-2r"] * 6))
    twistreduce_conway(s)
    assert counts["phi_poly"] <= len(s) and counts["psi_poly"] <= len(s)
    assert counts["dihedral_canonical"] == 1461
    assert counts["_base_counts"] - counts["base_conway"] == 1098
    assert counts["base_conway"] == 13


def test_twistreduce_leaf_table_lives_for_one_call(monkeypatch):
    """Two calls on different words that share count classes each run
    base_conway once per class: no leaf value passes between calls."""
    calls = []
    def counted(seq, _f=polynomials.base_conway):
        calls[-1].append(polynomials._base_counts(seq.entries))
        return _f(seq)
    monkeypatch.setattr(polynomials, "base_conway", counted)
    for text in ("3r,-2r,3r,-2r,3r,-2r", "2r,-3r,2s,5r,2s,-3r"):
        calls.append([])
        twistreduce_conway(EnhancedSequence.parse(text))
    first, second = calls
    assert len(set(first)) == len(first) and len(set(second)) == len(second)
    assert set(first) & set(second)


def test_statesum_reads_counts_only(monkeypatch):
    """The state sum reads each count class off `_base_value`: no state goes
    through base_conway, and orientation_data runs once per call, in
    `_require_realizable`.  Class A, class B, and a base word with two
    forced zeros, past class B's cap."""
    words = [EnhancedSequence.parse(",".join(["3s", "-5s"] * 3)),
             EnhancedSequence.parse(",".join(["3r", "-2r"] * 3)),
             EnhancedSequence.parse("0r,0r,2s", base=True)]
    wants = [statesum_reference(s) for s in words]
    assert wants[2] == ZPoly.zero()
    counts = collections.Counter()
    for name in ("base_conway", "orientation_data"):
        def counted(*args, _f=getattr(polynomials, name), _name=name):
            counts[_name] += 1
            return _f(*args)
        monkeypatch.setattr(polynomials, name, counted)
    for s, want in zip(words, wants):
        counts.clear()
        assert statesum_conway(s) == want, str(s)
        assert counts == {"orientation_data": 1}, (str(s), counts)


@pytest.mark.parametrize("u", [10, 12])
def test_engines_agree_on_alternating_words(u):
    s = EnhancedSequence.parse(",".join(["3r", "-2r"] * (u // 2)))
    assert statesum_conway(s) == twistreduce_conway(s)


def test_engines_agree_on_random_wide_sequences():
    rng = random.Random(509)
    values = [k for k in range(-7, 8) if k != 0]
    done = 0
    while done < 40:
        ks = tuple(rng.choice(values) for _ in range(rng.randint(5, 9)))
        enh = enumerate_enhancements(ks)
        if not enh:
            continue
        s = rng.choice(enh)
        assert statesum_conway(s) == twistreduce_conway(s), str(s)
        done += 1


@pytest.mark.parametrize("word", [
    ["3s", "-5s"],   # class A: every region odd s
    ["3r", "-2r"],   # class B
])
def test_statesum_is_polynomial_in_u(word):
    s = EnhancedSequence.parse(",".join(word * 100))
    t0 = time.perf_counter()
    nabla = statesum_conway(s)
    elapsed = time.perf_counter() - t0
    assert not nabla.is_zero()
    assert elapsed < 2.0, elapsed


# -- twist-pair cancellation identities ---------------------------------------

TAILS = [
    ((1, R), (1, R)),
    ((1, R), (3, R)),
    ((3, R), (3, R)),
    ((1, R), (1, R), (1, R), (1, R)),
    ((2, R), (2, R)),
    ((2, S), (1, R), (1, R)),
]


def test_cancellation_cross_ratios_parallel_even():
    for tail in TAILS:
        for p in range(1, 4):
            for q in range(1, 4):
                left = twistreduce_conway(seq((2 * p, R), (-2 * p, R), *tail))
                right = twistreduce_conway(seq((2 * q, R), (-2 * q, R), *tail))
                assert left * phi_poly(q) * phi_poly(q) == \
                    right * phi_poly(p) * phi_poly(p)


def test_cancellation_cross_ratios_parallel_odd():
    for tail in TAILS:
        for p in range(1, 4):
            for q in range(1, 4):
                left = twistreduce_conway(seq((2 * p + 1, R), (-2 * p - 1, R), *tail))
                right = twistreduce_conway(seq((2 * q + 1, R), (-2 * q - 1, R), *tail))
                assert left * psi_poly(q) * psi_poly(q) == \
                    right * psi_poly(p) * psi_poly(p)


def test_cancellation_cross_ratios_antiparallel():
    for tail in TAILS:
        for p in range(1, 4):
            for q in range(1, 4):
                left = twistreduce_conway(seq((2 * p, S), (-2 * p, S), *tail))
                right = twistreduce_conway(seq((2 * q, S), (-2 * q, S), *tail))
                assert left * ZPoly((0, 0, q * q)) == right * ZPoly((0, 0, p * p))


def test_odd_antiparallel_cancellation_factor():
    # The cancelling factor for an anti-parallel odd pair (2p+1, -2p-1) is
    # 1 - p(p+1) z^2, fixed here on a closed instance.
    got = twistreduce_conway(seq((3, S), (-3, S), (1, S), (1, S)))
    context = twistreduce_conway(seq((1, S), (1, S)))
    assert got == ZPoly((1, 0, -2)) * context


# -- closed forms -------------------------------------------------------------


def test_a1a3_odd_examples():
    assert a1a3_odd(seq((1, S), (1, S), (1, S), (1, S))) == (-2, -1)
    assert a1a3_odd(seq((3, R), (3, R))) == (3, 4)
    assert a1a3_odd(seq((1, S), (1, S))) == (-1, 0)
    with pytest.raises(InvalidSequenceError):
        a1a3_odd(seq((1, S), (2, S)))
    with pytest.raises(InvalidSequenceError):
        a1a3_odd(seq((1, S), (1, S), (1, S)))
    with pytest.raises(InvalidSequenceError):
        a1a3_odd(seq((1, S), (1, R)))


def test_a1a3_even_examples():
    assert a1a3_even(3, -3, R, R, 2) == (0, -9)
    assert a1a3_even(2, 2, S, R, 3) == (0, -9)
    assert a1a3_even(1, -1, S, S, 0) == (0, 0)
    # (R, S) is normalized by swapping roles
    assert a1a3_even(2, 1, R, S, 3) == a1a3_even(1, 2, S, R, 3)


def test_a1a3_even_from_sequence():
    def a1a3(s):
        return a1a3_and_component_a2(s)[:2]
    assert a1a3(seq((6, R), (-6, R), (1, R), (1, R))) == (0, -9)
    assert a1a3(seq((4, S), (4, R), (1, R), (1, R), (1, R))) == (0, -9)
    assert a1a3(seq((2, S), (-2, S))) == (0, 0)


def test_closed_forms_match_oracle_on_two_component_sweep():
    values = [k for k in range(-3, 4) if k != 0]
    checked = 0
    for u in range(2, 5):
        for ks in itertools.product(values, repeat=u):
            evens = sum(1 for k in ks if k % 2 == 0)
            if not (evens == 2 or (evens == 0 and u % 2 == 0)):
                continue
            for s in enumerate_enhancements(ks):
                nabla = twistreduce_conway(s)
                assert a1a3_and_component_a2(s)[:2] == (
                    nabla.coefficient(1), nabla.coefficient(3)), str(s)
                checked += 1
    assert checked > 400
