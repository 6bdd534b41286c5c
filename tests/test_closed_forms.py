"""Engine-free checks: the determinant |nabla(2i)| = |e_{u-1}(k)|."""

import random

import pytest

from closed_form_reference import determinant_identity_holds, elementary_u_minus_1
from pretzellinks.diagrams import oracle_conway
from pretzellinks.polynomials import statesum_conway
from pretzellinks.sequences import EnhancedSequence, Entry, R, S


def _random_realizable(rng, u, max_k, min_k=1, all_odd=False):
    """A realizable user word: with no even entry all s (or all r when u is
    even); otherwise every odd entry r and an even number of r."""
    values = [k for k in range(min_k, max_k + 1) if k % 2 or not all_odd]
    ks = [rng.choice((-1, 1)) * rng.choice(values) for _ in range(u)]
    evens = [i for i, k in enumerate(ks) if k % 2 == 0]
    if not evens:
        tags = [R if u % 2 == 0 and rng.random() < 0.5 else S] * u
    else:
        tags = [R if k % 2 else rng.choice((S, R)) for k in ks]
        if tags.count(R) % 2:
            i = rng.choice(evens)
            tags[i] = S if tags[i] is R else R
    return EnhancedSequence(tuple(map(Entry, ks, tags)))


def test_elementary_u_minus_1():
    assert elementary_u_minus_1([5]) == 1
    assert elementary_u_minus_1([2, 3]) == 5
    assert elementary_u_minus_1([-2, 3, 4]) == 3 * 4 - 2 * 4 - 2 * 3


@pytest.mark.parametrize("text", ["10r,-9r,11r,2r", "20r,-19r,21r,2r"])
def test_determinant_identity_oracle_large(text):
    s = EnhancedSequence.parse(text)
    assert determinant_identity_holds(s, oracle_conway(s))


def test_determinant_identity_oracle_deep():
    """Deep-shaped words: few regions, many twists.  A Seifert matrix has
    at most one row per crossing, so total |k| <= 50 keeps it at most 50
    rows; the n = 59 word above is the large case."""
    rng = random.Random(1933)
    done = 0
    while done < 20:
        s = _random_realizable(rng, rng.randint(2, 4), 20, min_k=7)
        if sum(abs(e.k) for e in s) > 50:
            continue
        assert determinant_identity_holds(s, oracle_conway(s)), str(s)
        done += 1


def test_determinant_identity_statesum():
    """Small words of every shape, then words far past the oracle's and
    the twist recursion's reach, up to u = 200."""
    rng = random.Random(1978)
    words = [_random_realizable(rng, rng.randint(1, 12), 30, all_odd=rng.random() < 0.2)
             for _ in range(300)]
    words += [_random_realizable(rng, u, 30, all_odd=all_odd)
              for u in (25, 50, 100, 150, 199, 200) for all_odd in (False, True)]
    for s in words:
        assert determinant_identity_holds(s, statesum_conway(s)), str(s)
