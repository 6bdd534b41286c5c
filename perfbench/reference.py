"""A fixed pure-Python reference kernel that gauges the machine's speed.

On a shared machine the same code can run 1.5 times slower for minutes at a
time, and every layer of the package slows with it.  The benchmark times
this kernel before and after each of its rounds and scales the round's
times to the kernel's nominal speed, so that a slow spell of the machine
does not read as a slow program.  The kernel never calls the package, and it
must not change: its nominal time is part of the benchmark's definition.

It does the kinds of work the package does: least rotation or reflection of
cyclic words of tuples, dictionary memo lookups, small polynomial products
with integer coefficients, and fraction-free elimination on an integer
matrix whose entries grow into big integers.
"""

from __future__ import annotations

import random
import time

# Seconds one call of kernel() takes at the machine's nominal speed: about
# the median on a shared 2-vCPU Intel Xeon (2.0 GHz) VM, Python 3.11.7.
NOMINAL_S = 0.015


def _words(rng: random.Random, n: int):
    return [tuple((rng.randint(-3, 3), rng.random() < 0.5) for _ in range(rng.randint(4, 9)))
            for _ in range(n)]


_RNG = random.Random("reference")
WORDS = _words(_RNG, 200)
POLYS = [tuple(_RNG.randint(-9, 9) for _ in range(_RNG.randint(2, 7))) for _ in range(60)]
MATRIX = [[_RNG.randint(-4, 4) for _ in range(9)] for _ in range(9)]


def _least(word):
    rev = word[::-1]
    return min(min(w[t:] + w[:t] for t in range(len(w))) for w in (word, rev))


def _polymul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def _bareiss(rows):
    m = [list(r) for r in rows]
    n = len(m)
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return m[-1][-1]


def kernel() -> int:
    """One fixed unit of reference work (about 15 ms); returns a checksum."""
    memo: dict = {}
    acc = 0
    for _ in range(2):
        for w in WORDS:
            key = _least(w)
            memo[key] = memo.get(key, 0) + 1
        for a in POLYS:
            for b in POLYS[:12]:
                acc += sum(_polymul(a, b))
        big = [[x * 10**12 + 7 for x in row] for row in MATRIX]
        acc += _bareiss(big) % 1000003
    return acc + len(memo)


def sample(calls: int) -> list[float]:
    """Seconds of each of `calls` kernel() calls."""
    out = []
    for _ in range(calls):
        t0 = time.perf_counter()
        kernel()
        out.append(time.perf_counter() - t0)
    return out
