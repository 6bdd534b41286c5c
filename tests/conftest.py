import itertools

import pytest
from hypothesis import settings

from pretzellinks.sequences import EnhancedSequence, Entry, R, S, TwistType

settings.register_profile("suite", deadline=None, max_examples=120)
settings.load_profile("suite")


def seq(*pairs, base=False):
    """Shorthand: seq((4, S), (5, R), ...) -> EnhancedSequence."""
    return EnhancedSequence.of(*pairs, base=base)


def parity_law_ok(nabla, mu):
    """Low coefficients vanish and only one parity survives."""
    for i in range(max(mu - 1, 0)):
        if nabla.coefficient(i) != 0:
            return False
    for i, c in enumerate(nabla.coeffs):
        if c != 0 and i % 2 == mu % 2:
            return False
    return True


def all_plain_sequences(max_u, max_twist):
    values = [k for k in range(-max_twist, max_twist + 1) if k != 0]
    for u in range(1, max_u + 1):
        yield from itertools.product(values, repeat=u)


def random_realizable(rng, u, max_k, min_k=1, all_odd=False):
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


def random_deep_words(rng, count=20):
    """Deep-shaped words: u 2..4 and 7 <= |k| <= 20.  A Seifert matrix has
    at most one row per crossing, so total |k| <= 50 keeps it at most 50
    rows."""
    words = []
    while len(words) < count:
        s = random_realizable(rng, rng.randint(2, 4), 20, min_k=7)
        if sum(abs(e.k) for e in s) <= 50:
            words.append(s)
    return words


@pytest.fixture(scope="session")
def small_realizable():
    """Every realizable enhanced sequence with u <= 3, |k| <= 2."""
    from pretzellinks.sequences import enumerate_enhancements
    out = []
    for ks in all_plain_sequences(3, 2):
        out.extend(enumerate_enhancements(ks))
    return out
