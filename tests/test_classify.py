import collections
import functools
import hashlib
import itertools
import random
import time

import pytest

from conftest import all_plain_sequences, seq
from link_reference import region_linking_matrix
from pretzellinks import diagrams, polynomials
from pretzellinks.classify import (
    KNOT_UNDETERMINED,
    NOT_SLICE_SHAPE,
    SLICE_SHAPE_2COMP,
    class_key,
    conway_vanishing_predict,
    delta_equivalent,
    enumerate_classes,
    invariants,
    necessary_data,
    self_delta_necessary,
    self_delta_equivalent,
    self_delta_trivial_2comp,
    slice_shape,
)
from pretzellinks.errors import (
    InternalConsistencyError,
    InvalidSequenceError,
    ResourceLimitError,
    UnsupportedError,
)
from pretzellinks.sequences import (
    INF,
    EnhancedSequence,
    R,
    S,
    dihedral_canonical,
    dihedral_words,
    enumerate_enhancements,
)
from pretzellinks.zpoly import ZPoly

A = seq((4, S), (5, R), (6, R), (-2, R), (-3, R))
B = seq((6, R), (2, S), (7, R), (4, S), (-5, R), (-1, R))
K1 = seq((6, R), (-6, R), (1, R), (1, R))
K2 = seq((4, S), (4, R), (1, R), (1, R), (1, R))


# -- invariants ----------------------------------------------------------------


def test_invariants_report_fields():
    rep = invariants(A)
    assert rep.mu == 3
    assert rep.twist_surplus == 1
    assert str(rep.even_key) == "2s,4s,6r"
    assert rep.a_lower == rep.conway.coefficient(2)
    assert rep.a_upper == rep.conway.coefficient(4)
    assert rep.a_upper_corrected == \
        rep.a_upper - rep.a_lower * rep.component_a2_sum
    rep2 = invariants(K1)
    assert rep2.mu == 2
    assert (rep2.conway.coefficient(1), rep2.conway.coefficient(3)) == (0, -9)
    assert all(c == ZPoly.one() for c in rep2.component_conways)
    rep3 = invariants(seq((1, S), (1, S), (1, S)))
    assert rep3.mu == 1 and rep3.twist_surplus == 3
    assert rep3.conway == ZPoly((1, 0, 1))
    assert rep3.even_key is None


def test_invariants_builds_the_diagram_once(monkeypatch):
    build = diagrams.build_diagram
    built = []

    def counting_build(s):
        built.append(s)
        return build(s)

    monkeypatch.setattr(diagrams, "build_diagram", counting_build)
    for s in (A, K1, seq((-2, S), (2, R), (-3, R)), seq((1, S), (1, S), (1, S))):
        built.clear()
        invariants(s)
        assert built.count(s) == 1, str(s)


def test_invariants_evaluates_a_knot_determinant_once(monkeypatch):
    evaluate = diagrams.conway_from_seifert
    calls = []

    def counting_evaluate(matrix):
        calls.append(matrix)
        return evaluate(matrix)

    monkeypatch.setattr(diagrams, "conway_from_seifert", counting_evaluate)
    rep = invariants(seq((2, S), (3, R), (3, R)))
    assert rep.mu == 1
    assert rep.component_conways == (rep.conway,)
    assert len(calls) == 1


def test_invariants_checks_component_a2_against_the_closed_form(monkeypatch):
    component = diagrams.component_conway

    def shifted(diagram, j):
        value = component(diagram, j)
        return value + ZPoly((0, 0, 1)) if j == 1 else value

    monkeypatch.setattr(diagrams, "component_conway", shifted)
    with pytest.raises(InternalConsistencyError, match="component a2"):
        invariants(K1)


def test_invariants_a2_sum_vanishes_for_trivial_components():
    rep = invariants(K2)
    assert all(c == ZPoly.one() for c in rep.component_conways)
    assert rep.component_a2_sum == 0


# -- delta equivalence ----------------------------------------------------------


def test_delta_equivalent_examples():
    assert delta_equivalent(seq((2, S), (3, R), (3, R)), seq((4, S), (1, R), (1, R)))
    assert not delta_equivalent(seq((1, S), (1, S)),
                                seq((1, S), (1, S), (1, S), (1, S)))
    assert delta_equivalent(A, A)


def test_delta_needs_matching_linking_pattern():
    # same mu, different linking numbers
    assert not delta_equivalent(seq((2, S), (2, S)), seq((4, S), (4, S)))
    # dihedral correspondence is allowed
    assert delta_equivalent(seq((2, S), (4, S), (2, S)),
                            seq((4, S), (2, S), (2, S)))
    # three distinct linking numbers: only a reflection matches the reverse
    assert delta_equivalent(seq((2, S), (4, S), (6, S)),
                            seq((6, S), (4, S), (2, S)))


def test_delta_equivalent_builds_no_diagram(monkeypatch):
    def refuse(s):
        raise AssertionError(f"delta_equivalent built a diagram of {s}")

    monkeypatch.setattr(diagrams, "build_diagram", refuse)
    pairs = [(A, seq((-3, R), (-2, R), (6, R), (5, R), (4, S))),
             (seq((1, S), (1, S)), seq((1, S), (1, S), (1, S), (1, S))),
             (seq((3, S),), seq((1, S), (1, S), (1, S))),
             (seq((2, S), (4, S), (2, S)), seq((4, S), (2, S), (2, S)))]
    assert [delta_equivalent(a, b) for a, b in pairs] == [True, False, True, True]


def test_delta_equivalent_refuses_base_words():
    # A base word (a 0 or inf entry) is no user link: it is refused, as
    # component_count refuses it, rather than answered from a diagram.
    for s in (seq((0, S), (2, S), base=True), seq((INF, S), (2, S), base=True)):
        with pytest.raises(InvalidSequenceError):
            delta_equivalent(s, s)


_LINKING: dict = {}


def _linking(entries):
    """Linking matrix of the diagram of a user word, built once per word."""
    if entries not in _LINKING:
        diagram = diagrams.build_diagram(EnhancedSequence(entries))
        _LINKING[entries] = region_linking_matrix(diagram)
    return _LINKING[entries]


def _variant_matrices(b):
    """Linking matrices of b's rebuilt rotations and reflections."""
    return {_linking(w) for w in dihedral_words(b.entries)}


def _reference_delta_equivalent(a, b):
    """The rebuild-every-variant decider: same component count, and a's
    linking matrix among those of b's rebuilt dihedral variants."""
    lk_a = _linking(a.entries)
    return len(lk_a) == len(_linking(b.entries)) and lk_a in _variant_matrices(b)


def test_variant_linking_matrices_are_dihedral_relabellings():
    # b's rotations and reflections have exactly the linking matrices of b
    # relabelled by the 2 mu rotations and reflections of range(mu).
    words = [s for ks in all_plain_sequences(4, 3) for s in enumerate_enhancements(ks)]
    words += [s for ks in itertools.product((-2, -1, 1, 2), repeat=5)
              for s in enumerate_enhancements(ks)]
    mus = set()
    for b in words:
        lk = _linking(b.entries)
        mus.add(len(lk))
        relabelled = {tuple(tuple(lk[i][j] for j in p) for i in p)
                      for p in dihedral_words(tuple(range(len(lk))))}
        assert _variant_matrices(b) == relabelled, b
    assert mus == {1, 2, 3, 4, 5}


def test_delta_equivalent_matches_rebuild_reference(small_realizable):
    by_u: dict[int, list] = {}
    for s in small_realizable:
        by_u.setdefault(len(s), []).append(s)
    pairs = [(a, b) for group in by_u.values() for a in group for b in group]
    # Seeded u = 4 pairs: random pairs, and words against a random rotation
    # or reflection of themselves; |k| = 4 gives distinct linking numbers
    # on one component cycle, so some matches need a reflection.
    u4 = [s for ks in itertools.product((-4, -2, -1, 1, 2, 4), repeat=4)
          for s in enumerate_enhancements(ks)]
    rng = random.Random(10)
    for _ in range(300):
        a = rng.choice(u4)
        variant = EnhancedSequence(rng.choice(list(dihedral_words(a.entries))))
        pairs += [(a, rng.choice(u4)), (a, variant)]
    verdicts = [delta_equivalent(a, b) for a, b in pairs]
    assert verdicts == [_reference_delta_equivalent(a, b) for a, b in pairs]
    assert 0 < sum(verdicts) < len(pairs)


# -- self-delta equivalence -------------------------------------------------------


def test_self_delta_fixture_pair():
    res = self_delta_equivalent(A, B)
    assert res.equivalent and res.kind == "even-key"
    key, surplus, transform = res.certificate
    assert key == "2s,4s,6r" and surplus == 1
    assert transform[0] in ("rotation", "reflection")


def test_self_delta_two_component_pair():
    assert self_delta_equivalent(K1, K2)
    assert not self_delta_equivalent(K1, seq((2, S), (-2, S)))


def test_self_delta_key_mismatch():
    assert not self_delta_equivalent(seq((2, S), (4, S), (6, S)),
                                     seq((2, S), (4, S), (8, S)))
    # same even key but different twist surplus
    assert not self_delta_equivalent(seq((2, S), (4, S), (6, S)),
                                     seq((2, S), (4, S), (6, S), (1, R), (1, R)))


def test_self_delta_knots_always_equivalent():
    assert self_delta_equivalent(seq((1, S), (1, S), (1, S)),
                                 seq((2, S), (3, R), (3, R)))


def test_self_delta_rejects_unrealizable():
    with pytest.raises(InvalidSequenceError):
        self_delta_equivalent(seq((2, R), (3, R), (4, R)), A)


def test_self_delta_respects_twist_spread():
    # spreading an odd entry into unit twists is a self-delta reduction
    a = seq((-2, S), (2, R), (-3, R))
    b = seq((-2, S), (2, R), (-1, R), (-1, R), (-1, R))
    assert self_delta_equivalent(a, b)


def test_self_delta_is_equivalence_on_small_classes():
    pool = []
    for ks in itertools.product([-2, -1, 1, 2], repeat=3):
        pool.extend(enumerate_enhancements(ks))
    pool = pool[:40]
    for x in pool[:10]:
        assert self_delta_equivalent(x, x)
    for x in pool[:8]:
        for y in pool[:8]:
            assert bool(self_delta_equivalent(x, y)) == \
                bool(self_delta_equivalent(y, x))


# -- triviality and slice shapes ---------------------------------------------------


def test_self_delta_trivial_examples():
    assert self_delta_trivial_2comp(seq((4, R), (-4, R), (1, R), (-3, R),
                                        (-5, R), (7, R)))
    assert not self_delta_trivial_2comp(K1)
    assert self_delta_trivial_2comp(seq((2, S), (-2, S)))
    with pytest.raises(UnsupportedError):
        self_delta_trivial_2comp(seq((1, S), (1, S), (1, S)))
    with pytest.raises(UnsupportedError):
        self_delta_trivial_2comp(seq((2, S), (2, S), (2, S)))


def test_slice_shape_examples():
    assert slice_shape(seq((3, R), (-3, R), (5, R), (-5, R))).verdict == \
        SLICE_SHAPE_2COMP
    assert slice_shape(K1).verdict == NOT_SLICE_SHAPE
    assert slice_shape(seq((2, S), (3, R), (3, R))).verdict == KNOT_UNDETERMINED
    assert slice_shape(seq((2, S), (-2, S))).verdict == SLICE_SHAPE_2COMP
    assert slice_shape(seq((2, S), (4, S))).verdict == NOT_SLICE_SHAPE
    assert slice_shape(seq((2, S), (2, S), (2, S))).verdict == NOT_SLICE_SHAPE


def test_triviality_and_slice_shape_use_the_state_sum(monkeypatch):
    """Both take the polynomial from the state sum, so a u = 20 word is
    answered without the 2^u twist recursion."""
    def refuse(seq):
        raise AssertionError(f"twist recursion called on {seq}")
    monkeypatch.setattr(polynomials, "twistreduce_conway", refuse)
    s = EnhancedSequence.parse(",".join(["3r", "-3r"] * 10))
    assert self_delta_trivial_2comp(s)
    assert slice_shape(s).verdict == SLICE_SHAPE_2COMP


def test_conway_vanishing_examples():
    assert conway_vanishing_predict(seq((3, R), (-3, R), (5, R), (-5, R)))
    assert not conway_vanishing_predict(seq((2, S), (-2, R), (2, S), (-2, R)))
    assert conway_vanishing_predict(seq((2, S), (-2, S)))
    assert not conway_vanishing_predict(seq((1, S), (1, S), (1, S)))


# -- necessary conditions ------------------------------------------------------------


def test_self_delta_equivalent_agrees_with_class_key_on_every_small_pair(monkeypatch):
    # Every same-length pair of dihedral-orbit representatives with u <= 4
    # and |k| <= 3, each pair once and each word with itself.  The twist
    # recursion is memoized here, so each word's polynomial is computed once
    # and the decision itself runs on all 96,788 pairs.
    monkeypatch.setattr(polynomials, "twistreduce_conway",
                        functools.cache(polynomials.twistreduce_conway))
    values = [k for k in range(-3, 4) if k]
    pairs = equivalent = 0
    for u in range(1, 5):
        reps = [s for ks in itertools.product(values, repeat=u)
                for s in enumerate_enhancements(ks)
                if dihedral_canonical(s.entries) == s.entries]
        keys = [class_key(s) for s in reps]
        for i, a in enumerate(reps):
            for j in range(i, len(reps)):
                result = self_delta_equivalent(a, reps[j])
                assert result.equivalent == (keys[i] == keys[j]), (str(a), str(reps[j]))
                pairs += 1
                equivalent += result.equivalent
    assert (pairs, equivalent) == (96_788, 5_676)


def test_self_delta_necessary_on_fixture_pair():
    assert self_delta_necessary(A, B)
    assert self_delta_necessary(A, A)


def test_necessary_data_handles_non_pretzel_inputs():
    # 3-component trivial link vs Hopf-plus-unknot: identical coefficient
    # data (all zero) but different linking numbers, so the necessary test
    # passes while delta-equivalence fails.  Supplied as hand-coded data
    # since neither is a nonzero-parameter pretzel.
    trivial3 = (3, 0, 0)
    hopf_plus_unknot = (3, 0, 0)
    assert trivial3 == hopf_plus_unknot
    lk_trivial = ((0, 0, 0), (0, 0, 0), (0, 0, 0))
    lk_hopf = ((0, 1, 0), (1, 0, 0), (0, 0, 0))
    assert lk_trivial != lk_hopf


def test_necessary_mismatched_mu_is_false():
    assert not self_delta_necessary(seq((1, S), (1, S)), seq((2, S), (2, S), (2, S)))


def test_equivalent_pairs_satisfy_necessary_conditions():
    pairs = [(A, B), (K1, K2)]
    for x, y in pairs:
        assert self_delta_equivalent(x, y)
        assert self_delta_necessary(x, y)


# -- enumeration ------------------------------------------------------------------


@pytest.mark.parametrize("u", [40, 120, 200])
def test_class_key_checks_long_all_odd_s_words(u):
    """class_key checks a1a3_odd's closed forms against the state sum."""
    rng = random.Random(u)
    s = EnhancedSequence.of(*((rng.choice([-7, -5, -3, -1, 1, 3, 5, 7]), S)
                              for _ in range(u)))
    mu, key = class_key(s)
    a1, _ = polynomials.a1a3_odd(s)
    assert mu == 2 and key.startswith(f"a1={a1};c3=")


def test_enumerate_classes_small():
    table = enumerate_classes(2, 2, components=2)
    by_key = dict(table.classes)
    assert "1s,1s" in by_key["a1=-1;c3=0"]
    assert "2s,-2s" in by_key["a1=0;c3=0"]
    assert "-2s,2s" in by_key["a1=0;c3=0"]


def test_enumerate_classes_groups_fixture_pair():
    table = enumerate_classes(2, 2)
    assert all(r.mu == class_key(EnhancedSequence.parse(r.sequence))[0]
               for r in table.rows[:10])
    k1_key = class_key(K1)[1]
    k2_key = class_key(K2)[1]
    assert k1_key == k2_key == "a1=0;c3=-9"


def test_enumerate_classes_resource_limit():
    # Huge bounds fail at once, with a message that names the limit.
    for bounds in [(8, 9), (100_000, 1), (2, 10**1000)]:
        t0 = time.perf_counter()
        with pytest.raises(ResourceLimitError) as exc:
            enumerate_classes(*bounds)
        assert time.perf_counter() - t0 < 1.0
        assert len(str(exc.value)) < 200 and "400000" in str(exc.value)


def test_enumerate_classes_csv_and_json():
    table = enumerate_classes(1, 2)
    text = table.to_csv()
    assert text.splitlines()[0] == "sequence,mu,key,surplus,a1,a3,conway"
    import json
    data = json.loads(table.to_json())
    assert set(data) == {"rows", "classes"}


# SHA-256 of the class-table CSVs, equal to the digests in perfbench/spec.json.
TABLE_DIGESTS = {
    (3, 2): "85990a7da52e2e54850175d88174a45ffea254267cf163a65c8c5a73296f296a",
    (4, 3): "e26f164364dd4ec6340fab1ec7e979ccdf2307aa647da939d234e83aafa37c5f",
}


@pytest.mark.parametrize("bounds", sorted(TABLE_DIGESTS))
def test_enumerate_classes_csv_digest(bounds):
    csv_text = enumerate_classes(*bounds).to_csv()
    assert hashlib.sha256(csv_text.encode()).hexdigest() == TABLE_DIGESTS[bounds]


def test_enumerate_classes_analyses_each_orbit_once_per_call(monkeypatch):
    # One state sum and one class key per dihedral orbit.  The twist
    # surplus depends on the plain word alone: once per visited twist word,
    # plus once inside the class key of each orbit with mu >= 3.
    from pretzellinks import classify, sequences
    calls = collections.Counter()
    for module, name in ((polynomials, "statesum_conway"), (classify, "class_key"),
                         (sequences, "twist_surplus"),
                         (sequences, "enumerate_enhancements")):
        def counting(*args, _f=getattr(module, name), _name=name):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(module, name, counting)

    def forbidden(s):
        raise AssertionError(f"twist recursion called on {s}")

    monkeypatch.setattr(polynomials, "twistreduce_conway", forbidden)
    table = enumerate_classes(3, 2)
    orbits = {dihedral_canonical(EnhancedSequence.parse(r.sequence).entries): r.mu
              for r in table.rows}
    assert len(orbits) == 48 and len(orbits) < len(table.rows)
    assert sum(mu >= 3 for mu in orbits.values()) == 10
    first = dict(calls)
    assert first == {"statesum_conway": 48, "class_key": 48,
                     "enumerate_enhancements": 34, "twist_surplus": 34 + 10}
    # No state survives the call: a second call does the same work again.
    enumerate_classes(3, 2)
    assert calls == {name: 2 * n for name, n in first.items()}


@pytest.mark.parametrize("bounds", [(3, 2), (4, 3)])
def test_enumerate_classes_rows_match_fresh_analysis(bounds):
    # Each row's orbit-shared fields equal a fresh analysis of its own
    # sequence, with the polynomial from the twist recursion.
    from pretzellinks.polynomials import twistreduce_conway
    from pretzellinks.sequences import twist_surplus
    for r in enumerate_classes(*bounds).rows:
        s = EnhancedSequence.parse(r.sequence)
        nabla = twistreduce_conway(s)
        assert (r.mu, r.key) == class_key(s, nabla)
        assert r.surplus == twist_surplus(s)
        assert (r.conway, r.a1, r.a3) == (
            str(nabla), nabla.coefficient(1), nabla.coefficient(3))


@pytest.mark.parametrize("bounds, components", [
    ((4, 2), None), ((2, 4), None), ((3, 3), None),
    ((4, 2), 1), ((4, 2), 2), ((4, 2), 3)])
def test_enumerate_classes_emits_every_realizable_word_once(bounds, components):
    # The table walks orbits from the least twist word of each; its rows
    # must still be every realizable word within the bounds, each once.
    from pretzellinks.sequences import Entry, component_count, is_realizable
    expected = sorted(
        str(s) for ks in all_plain_sequences(*bounds)
        if components is None or component_count(ks) == components
        for tags in itertools.product((S, R), repeat=len(ks))
        for s in [EnhancedSequence(tuple(map(Entry, ks, tags)))]
        if is_realizable(s))
    texts = [r.sequence for r in enumerate_classes(*bounds, components).rows]
    assert sorted(texts) == expected
    # Among them are words fixed by a rotation or reflection, whose images
    # repeat, so the walk meets such a word more than once.
    fixed = [w for w in ("1s,1s,1s", "2s,-2s", "2s,2s,2s", "1r,2s,1r,2s")
             if w in expected]
    assert fixed
    for w in fixed:
        entries = EnhancedSequence.parse(w).entries
        assert len(set(dihedral_words(entries))) < 2 * len(entries)


def test_enumerate_classes_checks_every_two_component_row(monkeypatch):
    # 2s,-2s is a later row of the orbit of -2s,2s: its analysis is reused,
    # but its closed forms are still checked.
    from pretzellinks import polynomials
    closed = polynomials.a1a3_and_component_a2
    monkeypatch.setattr(polynomials, "a1a3_and_component_a2", lambda s: (
        (99, 99, 0) if str(s) == "2s,-2s" else closed(s)))
    with pytest.raises(InternalConsistencyError, match="2s,-2s"):
        enumerate_classes(2, 2)


def test_two_component_key_reads_the_component_a2_total_once(monkeypatch):
    calls = []
    closed = polynomials.a1a3_and_component_a2

    def counting(s):
        calls.append(s)
        return closed(s)

    monkeypatch.setattr(polynomials, "a1a3_and_component_a2", counting)
    assert class_key(K1) == (2, "a1=0;c3=-9")
    assert calls == [K1]


def test_enumerate_classes_component_filter():
    full = enumerate_classes(3, 2)
    for n in (1, 2, 3):
        rows = enumerate_classes(3, 2, components=n).rows
        assert rows and rows == tuple(r for r in full.rows if r.mu == n)
    assert enumerate_classes(3, 2, components=4).rows == ()
    for n in (0, -3):
        with pytest.raises(InvalidSequenceError):
            enumerate_classes(3, 2, components=n)


def test_class_members_share_invariant_keys():
    table = enumerate_classes(3, 2)
    for key, members in table.classes:
        for m in members[:3]:
            s = EnhancedSequence.parse(m)
            assert class_key(s)[1] == key


def append_unit_twists(standard, m):
    from pretzellinks.sequences import Entry
    unit = Entry(1 if m > 0 else -1, R)
    return EnhancedSequence(standard.entries + (unit,) * abs(m))


def test_standard_links_with_equal_keys_agree():
    # Standard sequences (all even, no -2) equal up to rotation/reflection,
    # with the same number of appended unit twists, give the same link data.
    from pretzellinks.diagrams import oracle_conway
    base = seq((2, S), (4, S), (6, R))
    variants = [
        EnhancedSequence(base.entries[1:] + base.entries[:1]),
        EnhancedSequence(tuple(reversed(base.entries))),
    ]
    for m in (1, -1, 3):
        reference = append_unit_twists(base, m)
        for v in variants:
            other = append_unit_twists(v, m)
            assert oracle_conway(reference) == oracle_conway(other)
            assert delta_equivalent(reference, other)
            assert self_delta_equivalent(reference, other)
