"""Engine-free checks: the determinant |nabla(2i)| = |e_{u-1}(k)|, the
mirror identity nabla(mirror) = nabla(-z), and each knot component's nabla
as a product of torus values."""

import itertools
import random

import pytest

from closed_form_reference import determinant_identity_holds, elementary_u_minus_1
from conftest import random_deep_words, random_realizable
from pretzellinks.diagrams import build_diagram, component_conway, oracle_conway
from pretzellinks.polynomials import statesum_conway, torus_conway, twistreduce_conway
from pretzellinks.sequences import (
    EnhancedSequence,
    Entry,
    R,
    dihedral_words,
    enumerate_enhancements,
)
from pretzellinks.zpoly import ZPoly


def test_elementary_u_minus_1():
    assert elementary_u_minus_1([5]) == 1
    assert elementary_u_minus_1([2, 3]) == 5
    assert elementary_u_minus_1([-2, 3, 4]) == 3 * 4 - 2 * 4 - 2 * 3


@pytest.mark.parametrize("text", ["10r,-9r,11r,2r", "20r,-19r,21r,2r"])
def test_determinant_identity_oracle_large(text):
    s = EnhancedSequence.parse(text)
    assert determinant_identity_holds(s, oracle_conway(s))


def test_determinant_identity_oracle_deep():
    """Deep-shaped words: few regions, many twists; the n = 59 word above
    is the large case."""
    for s in random_deep_words(random.Random(1933)):
        assert determinant_identity_holds(s, oracle_conway(s)), str(s)


def test_determinant_identity_statesum():
    """Small words of every shape, then words far past the oracle's and
    the twist recursion's reach, up to u = 200."""
    rng = random.Random(1978)
    words = [random_realizable(rng, rng.randint(1, 12), 30, all_odd=rng.random() < 0.2)
             for _ in range(300)]
    words += [random_realizable(rng, u, 30, all_odd=all_odd)
              for u in (25, 50, 100, 150, 199, 200) for all_odd in (False, True)]
    for s in words:
        assert determinant_identity_holds(s, statesum_conway(s)), str(s)


def _mirror(s):
    """Negate every k and keep the tags."""
    return EnhancedSequence(tuple(Entry(-e.k, e.eps) for e in s))


def _at_minus_z(nabla):
    """nabla(-z): every odd coefficient changes sign."""
    return ZPoly([-c if i % 2 else c for i, c in enumerate(nabla.coeffs)])


def test_mirror_identity():
    """Mirroring gives exactly nabla(-z), so the signs of the odd
    coefficients are checked, which |nabla(2i)| cannot see: all three
    engines on sweep-shaped words, the oracle and the state sum on deep
    words, and the state sum alone up to u = 200."""
    rng = random.Random(1970)
    sweep = [random_realizable(rng, rng.randint(1, 6), 5) for _ in range(300)]
    deep = random_deep_words(rng) + [EnhancedSequence.parse("10r,-9r,11r,2r")]
    large = [random_realizable(rng, u, 30, all_odd=all_odd)
             for u in (25, 50, 100, 200) for all_odd in (False, True)]
    checks = [(sweep, (statesum_conway, twistreduce_conway, oracle_conway)),
              (deep, (statesum_conway, oracle_conway)),
              (large, (statesum_conway,))]
    for words, engines in checks:
        for s in words:
            for engine in engines:
                assert engine(_mirror(s)) == _at_minus_z(engine(s)), (str(s), engine)


def test_components_are_products_of_torus_values():
    """Each component of a link is the side closure of the regions it owns
    (both strands on it), so its nabla is the product of torus_conway(k, R)
    over the odd entries among them; an even owned region is crossingless
    there.  Checked on every realizable tag word over the twist words with
    u <= 5 and |k| <= 3 that are least in their dihedral orbit, mu >= 2."""
    checked = 0
    for u in range(1, 6):
        for ks in itertools.product((-3, -2, -1, 1, 2, 3), repeat=u):
            if min(dihedral_words(ks)) != ks:
                continue
            for s in enumerate_enhancements(ks):
                d = build_diagram(s)
                if d.ncomponents < 2:
                    continue
                for j in range(1, d.ncomponents + 1):
                    want = ZPoly.one()
                    for info, e in zip(d.regions, s):
                        if info.comp_left == info.comp_right == j - 1 and e.k % 2:
                            want = want * torus_conway(e.k, R)
                    assert component_conway(d, j) == want, (str(s), j)
                    checked += 1
    assert checked == 5912
