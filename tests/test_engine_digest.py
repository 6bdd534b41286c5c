"""A fixed-input digest of every engine's output.

A seeded word list shaped like the benchmark's sweep, wide and deep
workloads runs through the state sum, the twist recursion, the Seifert
oracle and `dihedral_canonical`.  The three engines must agree on each
word, and the SHA-256 of their common value and the canonical form is
pinned.  A change that should keep outputs (a speed-up, a refactor) must
keep the digest; a change that means to alter an output re-pins it and
says why.  The words are drawn here from `random` alone, so a change to the
package cannot change the list.
"""

import hashlib
import random

from pretzellinks.diagrams import oracle_conway
from pretzellinks.polynomials import statesum_conway, twistreduce_conway
from pretzellinks.sequences import EnhancedSequence, dihedral_canonical

SEED = 2113
DIGEST = "53d53931cb51ae320a76be28f6a821528a637269cc398c792f361df1e4f9156e"


def _realizable_text(rng, ks):
    """Text of ks with a realizable tag choice: with no even entry all s
    (or all r when u is even); otherwise every odd entry r and an even
    number of r."""
    u = len(ks)
    evens = [i for i, k in enumerate(ks) if k % 2 == 0]
    if not evens:
        tags = [u % 2 == 0 and rng.random() < 0.5] * u
    else:
        tags = [bool(k % 2) or rng.random() < 0.5 for k in ks]
        if sum(tags) % 2:
            i = rng.choice(evens)
            tags[i] = not tags[i]
    return ",".join(f"{k}{'r' if t else 's'}" for k, t in zip(ks, tags))


def _signed(rng, lo, hi):
    return rng.choice((-1, 1)) * rng.randint(lo, hi)


def digest_words():
    """600 sweep-shaped words (u 1..6, |k| <= 5), 200 wide-shaped words
    (u 9..12, |k| <= 3, 7 to 9 regions with k != 1) and 60 deep-shaped
    words (u 2..4, 7 <= |k| <= 20, total |k| <= 50)."""
    rng = random.Random(SEED)
    words = []
    for _ in range(600):
        u = rng.randint(1, 6)
        words.append(_realizable_text(rng, [_signed(rng, 1, 5) for _ in range(u)]))
    others = [k for k in range(-3, 4) if k not in (0, 1)]
    for i in range(200):
        u, b = 9 + i % 4, 7 + i % 3
        ks = [1] * (u - b) + [rng.choice(others) for _ in range(b)]
        rng.shuffle(ks)
        words.append(_realizable_text(rng, ks))
    while len(words) < 860:
        ks = [_signed(rng, 7, 20) for _ in range(rng.randint(2, 4))]
        if sum(map(abs, ks)) <= 50:
            words.append(_realizable_text(rng, ks))
    return words


def test_engine_outputs_match_the_pinned_digest():
    h = hashlib.sha256()
    for text in digest_words():
        s = EnhancedSequence.parse(text)
        values = [f(s).coeffs for f in (statesum_conway, twistreduce_conway, oracle_conway)]
        assert values[0] == values[1] == values[2], text
        canon = ",".join(map(str, dihedral_canonical(s.entries)))
        h.update(f"{text}|{values[0]}|{canon}\n".encode())
    assert h.hexdigest() == DIGEST
