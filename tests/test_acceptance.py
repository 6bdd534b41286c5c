"""Acceptance criteria, one test per criterion, all exact-integer checks.

Each test prints a single PASS line (visible with pytest -s) summarizing the
volume checked.  The engine-agreement sweep covers every realizable enhanced
sequence with u <= 4, |k| <= 4 and one representative per cyclic-dihedral
orbit for u = 5 (rotations and reflections are rigid isotopies of the
diagram, and rotation-invariance of every engine is asserted separately on
random samples).
"""

import itertools
import random
import time

import pytest

from closed_form_reference import determinant_identity_holds
from conftest import parity_law_ok, seq
from link_reference import region_linking_matrix
from statesum_reference import statesum_reference
from pretzellinks import diagrams
from pretzellinks.classify import (
    SLICE_SHAPE_2COMP,
    invariants,
    necessary_data,
    self_delta_equivalent,
    self_delta_trivial_2comp,
    slice_shape,
)
from pretzellinks.diagrams import (
    build_diagram,
    oracle_conway,
    skein_checks,
)
from pretzellinks.polynomials import (
    a1a3_and_component_a2,
    phi_poly,
    psi_poly,
    statesum_conway,
    torus_conway,
    twistreduce_conway,
)
from pretzellinks.sequences import (
    EnhancedSequence,
    Entry,
    R,
    S,
    canonical_key,
    component_count,
    dihedral_canonical,
    dihedral_words,
    enumerate_enhancements,
    orientation_respecting_pairing,
    twist_surplus,
)
from pretzellinks.zpoly import ZPoly

Z = ZPoly.term(1, 1)

PARITY_FAILURES = []


def _watch_parity(s, nabla, mu):
    if not parity_law_ok(nabla, mu):
        PARITY_FAILURES.append((str(s), str(nabla), mu))


def _all_sequences(u, max_twist):
    values = [k for k in range(-max_twist, max_twist + 1) if k != 0]
    for ks in itertools.product(values, repeat=u):
        yield from enumerate_enhancements(ks)


@pytest.fixture(scope="module")
def engine_sweep():
    """(sequence, mu, conway) for the criterion-3 sweep, engines compared."""
    results = []
    mismatches = []
    t0 = time.perf_counter()
    for u in range(1, 5):
        for s in _all_sequences(u, 4):
            _sweep_one(s, results, mismatches)
    seen = set()
    for s in _all_sequences(5, 4):
        key = dihedral_canonical(s.entries)
        if key in seen:
            continue
        seen.add(key)
        _sweep_one(s, results, mismatches)
    elapsed = time.perf_counter() - t0
    return results, mismatches, elapsed


def _sweep_one(s, results, mismatches):
    a = statesum_conway(s)
    b = twistreduce_conway(s)
    c = oracle_conway(s)
    if not (a == b == c):
        mismatches.append((str(s), str(a), str(b), str(c)))
        return
    mu = component_count(s.plain())
    _watch_parity(s, a, mu)
    results.append((s, mu, a))


def test_criterion_1_worked_example_values():
    t0 = time.perf_counter()
    want1 = ZPoly((0, 0, 0, -9, 0, -24, 0, -22, 0, -8, 0, -1))
    want2 = ZPoly((0, 0, 0, -9, 0, -4))
    k1 = seq((6, R), (-6, R), (1, R), (1, R))
    k2 = seq((4, S), (4, R), (1, R), (1, R), (1, R))
    for s, want in ((k1, want1), (k2, want2)):
        for engine in (statesum_conway, twistreduce_conway, oracle_conway):
            assert engine(s) == want
        _watch_parity(s, want, 2)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1: PASS (both fixtures, three engines, {elapsed:.3f}s)")


def test_criterion_2_classification_fixture():
    t0 = time.perf_counter()
    a = seq((4, S), (5, R), (6, R), (-2, R), (-3, R))
    b = seq((6, R), (2, S), (7, R), (4, S), (-5, R), (-1, R))
    result = self_delta_equivalent(a, b)
    assert result.equivalent
    key, surplus_value, _ = result.certificate
    assert key == "2s,4s,6r"
    assert surplus_value == 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 2: PASS (equivalent, key 2s,4s,6r, surplus 1, {elapsed:.3f}s)")


def test_criterion_3_engine_agreement_sweep(engine_sweep):
    results, mismatches, elapsed = engine_sweep
    assert not mismatches, mismatches[:5]
    assert len(results) > 20000
    assert elapsed < 300.0
    print(f"\nACCEPTANCE 3: PASS ({len(results)} sequences, "
          f"statesum = twistreduce = seifert, {elapsed:.1f}s)")


def test_engine_sweep_u6_orbit_representatives():
    """The wider three-engine sweep, first tier: one word per dihedral
    orbit with u = 6 and |k| <= 3, taken over the twist words that are
    least in their own orbit.  Every word gets all three engines, the
    determinant identity and the parity law.  It has its own time bound;
    criterion 3's stays where it is."""
    t0 = time.perf_counter()
    words = 0
    mismatches = []
    for ks in itertools.product((-3, -2, -1, 1, 2, 3), repeat=6):
        if ks != min(dihedral_words(ks)):
            continue
        seen = set()
        for s in enumerate_enhancements(ks):
            key = dihedral_canonical(s.entries)
            if key in seen:
                continue
            seen.add(key)
            words += 1
            a, b, c = statesum_conway(s), twistreduce_conway(s), oracle_conway(s)
            if not (a == b == c and determinant_identity_holds(s, a)
                    and parity_law_ok(a, component_count(s))):
                mismatches.append((str(s), str(a), str(b), str(c)))
    elapsed = time.perf_counter() - t0
    assert not mismatches, mismatches[:5]
    assert words == 12342
    assert elapsed < 120.0
    print(f"\nu = 6 sweep: {words} orbit representatives, three engines, "
          f"determinant identity and parity law, {elapsed:.1f}s")


def test_statesum_matches_the_state_walk_on_the_sweep(engine_sweep):
    # Every state of every criterion-3 sequence, visited one at a time,
    # against the count-class sum that the sweep recorded.
    results, _, _ = engine_sweep
    for s, _, nabla in results:
        assert statesum_reference(s) == nabla, str(s)
    print(f"\nstate walk = statesum_conway on {len(results)} sequences")


def test_determinant_identity_on_the_sweep(engine_sweep):
    # |nabla(2i)| = |e_{u-1}(k)| on every criterion-3 result: a closed form
    # that none of the three engines computes.
    results, _, _ = engine_sweep
    for s, _, nabla in results:
        assert determinant_identity_holds(s, nabla), str(s)
    print(f"\ndeterminant identity on {len(results)} sweep values")


def test_criterion_4_closed_forms(engine_sweep):
    results, _, _ = engine_sweep
    two_comp = 0
    for s, mu, nabla in results:
        if mu != 2:
            continue
        assert a1a3_and_component_a2(s)[:2] == (
            nabla.coefficient(1), nabla.coefficient(3)), str(s)
        two_comp += 1
    assert two_comp > 3000
    torus_checked = 0
    for k in range(-12, 13):
        if k == 0:
            continue
        for eps in (S, R):
            if k % 2 != 0 and eps is S:
                continue
            want = torus_conway(k, eps)
            closer = eps if k % 2 == 0 else R
            got = oracle_conway(seq((k, eps), (0, closer), base=True))
            assert got == want, (k, eps)
            torus_checked += 1
    print(f"\nACCEPTANCE 4: PASS ({two_comp} two-component closed forms, "
          f"{torus_checked} torus closures)")


def test_criterion_5_identity_suites():
    for p in range(-20, 21):
        assert phi_poly(-p) == -phi_poly(p)
        assert psi_poly(-p - 1) == psi_poly(p)
        assert phi_poly(p) + Z * psi_poly(p) == phi_poly(p + 1)
        assert psi_poly(p - 1) + Z * phi_poly(p) == psi_poly(p)

    tails = [((1, R), (1, R)), ((1, R), (3, R)), ((3, R), (3, R)),
             ((1, R), (1, R), (1, R), (1, R)), ((2, R), (2, R)),
             ((2, S), (1, R), (1, R))]
    cancel_checked = 0
    for tail in tails:
        for p in range(1, 4):
            for q in range(1, 4):
                even_p = twistreduce_conway(seq((2 * p, R), (-2 * p, R), *tail))
                even_q = twistreduce_conway(seq((2 * q, R), (-2 * q, R), *tail))
                assert even_p * phi_poly(q) * phi_poly(q) == \
                    even_q * phi_poly(p) * phi_poly(p)
                odd_p = twistreduce_conway(
                    seq((2 * p + 1, R), (-2 * p - 1, R), *tail))
                odd_q = twistreduce_conway(
                    seq((2 * q + 1, R), (-2 * q - 1, R), *tail))
                assert odd_p * psi_poly(q) * psi_poly(q) == \
                    odd_q * psi_poly(p) * psi_poly(p)
                anti_p = twistreduce_conway(seq((2 * p, S), (-2 * p, S), *tail))
                anti_q = twistreduce_conway(seq((2 * q, S), (-2 * q, S), *tail))
                assert anti_p * ZPoly((0, 0, q * q)) == \
                    anti_q * ZPoly((0, 0, p * p))
                cancel_checked += 3

    rng = random.Random(2024)
    values = [k for k in range(-5, 6) if k != 0]
    regions_checked = 0
    diagrams_checked = 0
    while diagrams_checked < 100:
        u = rng.randint(1, 6)
        ks = tuple(rng.choice(values) for _ in range(u))
        enh = enumerate_enhancements(ks)
        if not enh:
            continue
        s = rng.choice(enh)
        checks = skein_checks(s)
        assert all(ok for _, ok in checks), str(s)
        regions_checked += len(checks)
        diagrams_checked += 1
    print(f"\nACCEPTANCE 5: PASS (164 twist-identities, {cancel_checked} "
          f"cancellation ratios, {regions_checked} skein checks on "
          f"{diagrams_checked} diagrams)")


def _erasable_pools(max_pairs, max_twist):
    """Dihedral representatives of enhancements of erasable plain sequences:
    all realizable ones, and the subset with a type-respecting pairing."""
    values = [k for k in range(-max_twist, max_twist + 1) if k != 0]
    realizable = {}
    respecting = {}
    for v in range(1, max_pairs + 1):
        for ks in itertools.product(values, repeat=2 * v):
            counts = {}
            for k in ks:
                counts[k] = counts.get(k, 0) + 1
            if any(counts.get(k, 0) != counts.get(-k, 0) for k in counts):
                continue
            for s in enumerate_enhancements(ks):
                key = dihedral_canonical(s.entries)
                realizable.setdefault(key, s)
                if orientation_respecting_pairing(s) is not None:
                    respecting.setdefault(key, s)
    return list(realizable.values()), list(respecting.values())


def test_criterion_6_erasable_suite():
    realizable, respecting = _erasable_pools(3, 5)
    assert len(respecting) > 800
    for s in respecting:
        nabla = twistreduce_conway(s)
        assert nabla.is_zero(), str(s)
        _watch_parity(s, nabla, component_count(s.plain()))
    rng = random.Random(9)
    for s in rng.sample(respecting, 120):
        assert oracle_conway(s).is_zero(), str(s)

    counterexample = seq((2, S), (-2, R), (2, S), (-2, R))
    assert oracle_conway(counterexample) == ZPoly((0, 0, 0, -4, 0, -1))

    # Every 2-component enhancement of an erasable plain admits a
    # type-respecting pairing, so the slice-shape sweep loses nothing.
    slice_shaped = 0
    respecting_keys = {dihedral_canonical(s.entries) for s in respecting}
    for s in realizable:
        ks = s.plain()
        if component_count(ks) != 2:
            continue
        assert dihedral_canonical(s.entries) in respecting_keys, str(s)
        if any(abs(k) < 2 for k in ks):
            continue
        assert slice_shape(s).verdict == SLICE_SHAPE_2COMP, str(s)
        assert self_delta_trivial_2comp(s), str(s)
        slice_shaped += 1
    assert slice_shaped > 200
    print(f"\nACCEPTANCE 6: PASS ({len(respecting)} erasable reps vanish, "
          f"counterexample exact, {slice_shaped} slice shapes trivial)")


def test_criterion_7_mutation_invariance():
    rng = random.Random(4096)
    values = [k for k in range(-5, 6) if k != 0]
    done = 0
    while done < 200:
        u = rng.randint(2, 6)
        ks = tuple(rng.choice(values) for _ in range(u))
        enh = enumerate_enhancements(ks)
        if not enh:
            continue
        s = rng.choice(enh)
        i = rng.randrange(u)
        j = (i + 1) % u
        ent = list(s.entries)
        ent[i], ent[j] = ent[j], ent[i]
        mutated = EnhancedSequence(tuple(ent))
        nabla = oracle_conway(s)
        assert nabla == oracle_conway(mutated), (str(s), str(mutated))
        _watch_parity(s, nabla, component_count(ks))
        done += 1
    print(f"\nACCEPTANCE 7: PASS ({done} random adjacent transpositions)")


def _gap_linking(s):
    """Linking matrix indexed by the gaps between even entries (cyclic)."""
    d = build_diagram(s)
    lk = region_linking_matrix(d)
    evens = [i for i, e in enumerate(s) if e.is_even]
    comps = [d.regions[i].comp_right for i in evens]
    mu = len(evens)
    return [[lk[comps[a]][comps[b]] for b in range(mu)] for a in range(mu)]


def _even_word(s):
    return tuple(Entry(2, e.eps.flipped) if e.k == -2 else e for e in s if e.k % 2 == 0)


def _certificate_gap_permutation(x, y):
    """Gap relabeling induced by the dihedral match of the even words."""
    ea, eb = _even_word(x), _even_word(y)
    mu = len(ea)
    for t in range(mu):
        if ea[t:] + ea[:t] == eb:
            return lambda j: (j + t) % mu
    rev = tuple(reversed(ea))
    for t in range(mu):
        if rev[t:] + rev[:t] == eb:
            return lambda j: (mu - 2 - t - j) % mu
    raise AssertionError("certificate disappeared")


def test_criterion_8_necessary_condition_soundness():
    classes = {}
    seen = set()
    for u in range(3, 6):
        for s in _all_sequences(u, 4):
            if sum(1 for e in s if e.is_even) != 3:
                continue
            key = dihedral_canonical(s.entries)
            if key in seen:
                continue
            seen.add(key)
            label = (str(canonical_key(s)), twist_surplus(s))
            classes.setdefault(label, []).append(s)
    pairs_checked = 0
    multi = 0
    for label, members in classes.items():
        if len(members) < 2:
            continue
        multi += 1
        datas = [necessary_data(invariants(m)) for m in members]
        assert all(datas[0] == d for d in datas[1:]), label
        for x, y in zip(members, members[1:]):
            assert self_delta_equivalent(x, y).equivalent
            perm = _certificate_gap_permutation(x, y)
            gx, gy = _gap_linking(x), _gap_linking(y)
            mu = len(gx)
            for a in range(mu):
                for b in range(mu):
                    assert gy[a][b] == gx[perm(a)][perm(b)], (str(x), str(y))
            pairs_checked += 1
    assert pairs_checked > 500
    print(f"\nACCEPTANCE 8: PASS ({multi} multi-member classes, "
          f"{pairs_checked} equivalent pairs satisfy necessary conditions)")


def test_criterion_9_parity_law(engine_sweep):
    results, _, _ = engine_sweep
    assert len(results) > 20000
    for s, mu, nabla in results[::17]:
        assert parity_law_ok(nabla, mu), str(s)
    assert not PARITY_FAILURES, PARITY_FAILURES[:5]
    print(f"\nACCEPTANCE 9: PASS (parity law on {len(results)} sweep values "
          "and every polynomial watched in criteria 1-8)")
