"""Combinatorics of enhanced pretzel sequences.

A pretzel sequence is a cyclic word of nonzero integers (half-twist counts).
An enhanced sequence additionally tags each entry with its strand-orientation
type: S for anti-parallel strands, R for parallel strands.  Everything here
is pure and value-based.  The orientation rule lives here: `orientation_data`
decides which tag words are realizable and orients their bridges, and
`is_realizable`, `enumerate_enhancements`, the resolution engines and the
diagram construction in `diagrams` all take it from here.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Iterator, NamedTuple, Optional, Sequence

from .errors import (
    InvalidSequenceError,
    ParseError,
    UnrealizableOrientationError,
)


class TwistType(IntEnum):
    """Orientation type of a twist region: S anti-parallel, R parallel."""

    S = 0
    R = 1

    def __str__(self) -> str:
        return "s" if self is TwistType.S else "r"

    @property
    def flipped(self) -> "TwistType":
        return TwistType.R if self is TwistType.S else TwistType.S


S = TwistType.S
R = TwistType.R


class _Infinity:
    """Symbolic infinity parameter for internal base entries."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "INF"


INF = _Infinity()


class Entry(NamedTuple):
    """One twist region: half-twist count and orientation type."""

    k: object  # int, or INF in internal base sequences
    eps: TwistType

    @property
    def is_inf(self) -> bool:
        return self.k is INF

    @property
    def is_even(self) -> bool:
        return self.k is not INF and self.k % 2 == 0

    @property
    def is_odd(self) -> bool:
        return self.k is not INF and self.k % 2 != 0

    def __str__(self) -> str:
        return f"{'inf' if self.is_inf else self.k}{self.eps}"


_ENTRY_RE = re.compile(r"^\s*(?P<k>[+-]?\d+|inf)\s*(?P<eps>[srSR])?\s*$", re.ASCII)


@dataclass(frozen=True)
class EnhancedSequence:
    """Cyclic word of (k, eps) entries; the central combinatorial object.

    User-level sequences require every k to be a nonzero finite integer.
    Sequences built internally during resolution may carry k = 0 or k = INF
    and must be flagged with base=True.
    """

    entries: tuple[Entry, ...]
    base: bool = field(default=False, compare=False)

    def __post_init__(self):
        if not self.entries:
            raise InvalidSequenceError("a pretzel sequence needs at least one entry")
        for e in self.entries:
            if not isinstance(e, Entry):
                raise InvalidSequenceError(f"not an Entry: {e!r}")
            if not isinstance(e.eps, TwistType):
                raise InvalidSequenceError(f"bad twist type in {e!r}")
            if type(e.k) is not int and e.k is not INF:  # so a bool is rejected
                raise InvalidSequenceError(f"non-integer parameter in {e!r}")
            if (e.k is INF or e.k == 0) and not self.base:
                raise InvalidSequenceError(
                    f"entry {e} is only allowed in internal base sequences")

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[Entry]:
        return iter(self.entries)

    def __getitem__(self, i: int) -> Entry:
        return self.entries[i]

    def __str__(self) -> str:
        return ",".join(str(e) for e in self.entries)

    def plain(self) -> tuple[int, ...]:
        if any(e.is_inf for e in self.entries):
            raise InvalidSequenceError("plain part undefined with infinite entries")
        return tuple(e.k for e in self.entries)

    def replace(self, i: int, entry: Entry) -> "EnhancedSequence":
        new = list(self.entries)
        new[i] = entry
        base = self.base or entry.is_inf or entry.k == 0
        return EnhancedSequence(tuple(new), base=base)

    @classmethod
    def of(cls, *pairs, base: bool = False) -> "EnhancedSequence":
        """Build from (k, eps) pairs, e.g. EnhancedSequence.of((4, S), (5, R))."""
        return cls(tuple(Entry(k, eps) for k, eps in pairs), base=base)

    @classmethod
    def parse(cls, text: str, base: bool = False) -> "EnhancedSequence":
        """Parse the text grammar, e.g. '4s,5r,6r,-2r,-3r' or 'P(4s,5r)'."""
        entries = []
        for tok in _split_sequence_text(text):
            m = _ENTRY_RE.match(tok)
            if not m or m.group("eps") is None:
                raise ParseError(f"bad enhanced entry: {tok!r}")
            k_s = m.group("k")
            k = INF if k_s == "inf" else int(k_s)
            eps = S if m.group("eps").lower() == "s" else R
            entries.append(Entry(k, eps))
        return cls(tuple(entries), base=base)


def _split_sequence_text(text: str) -> list[str]:
    s = text.strip()
    m = re.match(r"^[pP]\s*\((?P<body>.*)\)\s*$", s)
    if m:
        s = m.group("body")
    if not s.strip():
        raise ParseError(f"empty sequence text: {text!r}")
    toks = [p.strip() for p in s.split(",")]
    if not all(toks):
        raise ParseError(f"empty entry in sequence text: {text!r}")
    return toks


def parse_plain(text: str) -> tuple[int, ...]:
    """Parse a plain sequence like '4,5,6,-2,-3' (optionally P(...)-wrapped)."""
    ks = []
    for tok in _split_sequence_text(text):
        m = _ENTRY_RE.match(tok)
        if not m or m.group("eps") is not None or m.group("k") == "inf":
            raise ParseError(f"bad plain entry: {tok!r}")
        ks.append(int(m.group("k")))
    return tuple(ks)


# A pairing is a tuple of index pairs (i, j), 0-based, each index used once,
# pairing entries whose parameters sum to zero.
Pairing = tuple[tuple[int, int], ...]


def _check_plain(ks: Sequence[int]) -> tuple[int, ...]:
    ks = tuple(ks)
    if not ks:
        raise InvalidSequenceError("empty pretzel sequence")
    if any(k == 0 for k in ks):
        raise InvalidSequenceError("pretzel parameters must be nonzero")
    return ks


def component_count(ks: Sequence[int] | EnhancedSequence) -> int:
    """Number of link components of the pretzel with these parameters.

    A user-level EnhancedSequence stands for its plain part, read as it is,
    since its constructor has checked every parameter; a base one may hold
    0 or INF and is refused.
    """
    if isinstance(ks, EnhancedSequence):
        if ks.base:
            raise InvalidSequenceError("component count needs a user-level sequence")
        ks = [e.k for e in ks.entries]
    else:
        ks = _check_plain(ks)
    evens = sum(1 for k in ks if k % 2 == 0)
    if evens == 0:
        return 1 if len(ks) % 2 == 1 else 2
    return evens


def orientation_data(seq: EnhancedSequence) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Orientations (+1 forward / -1 backward) of top and bottom bridges.

    Bridge i joins region i to region i+1 (indices mod u); the first top
    bridge is pinned positive.  Raises UnrealizableOrientationError when the
    tags admit no consistent assignment.

    A finite r region reverses the top orientation across it; any other
    region keeps it.  Once the top bridges close up, each region forces
    bot = c * top on both of its bridges, with c = +1 for odd s and inf r
    regions and c = -1 for the rest.  Neighbouring regions share a bridge,
    so the bottom bridges are consistent exactly when c is the same for
    every region.
    """
    top = []
    side = 1  # top bridge right of this region, relative to the one left of region 0
    plus = minus = False
    for k, eps in seq.entries:
        if k is INF:
            c_plus = eps is R
        elif eps is R:
            side = -side
            c_plus = False
        else:
            c_plus = k % 2 != 0
        if c_plus:
            plus = True
        else:
            minus = True
        top.append(side)
    if side != 1:
        raise UnrealizableOrientationError(
            f"top-bridge orientations are inconsistent for {seq}")
    if plus and minus:
        raise UnrealizableOrientationError(
            f"bottom-bridge orientations are inconsistent for {seq}")
    # Pin the first top bridge positive; then bot = c * top is the pinned
    # top itself when c = +1 and its negation when c = -1.
    pinned = tuple(top) if top[0] == 1 else tuple([-t for t in top])
    return pinned, pinned if plus else tuple([-t for t in pinned])


def is_realizable(seq: EnhancedSequence) -> bool:
    """Whether the tagged orientation pattern is realizable on the diagram,
    that is, whether `orientation_data` accepts the user word."""
    if any(e.is_inf or e.k == 0 for e in seq):
        raise InvalidSequenceError("realizability is a user-level question")
    try:
        orientation_data(seq)
    except UnrealizableOrientationError:
        return False
    return True


def enumerate_enhancements(ks: Sequence[int]) -> list[EnhancedSequence]:
    """All realizable type assignments, in binary-counter order (S before R,
    the first entry most significant).

    Only realizable words are built: the words `orientation_data` accepts,
    c = +1 or c = -1.  With c = +1 every region is odd s, and the top
    bridges close up, so all S with no even entry.  With c = -1 no region is
    odd s, so every odd entry is R, and the number of R is even for the top
    bridges to close up; with no even entry that is all R when u is even.
    `itertools.product` over each entry's allowed tags runs in counter order.
    """
    ks = _check_plain(ks)
    if all(k % 2 for k in ks):
        words = [(S,) * len(ks)] + ([(R,) * len(ks)] if len(ks) % 2 == 0 else [])
    else:
        allowed = [(S, R) if k % 2 == 0 else (R,) for k in ks]
        words = [w for w in itertools.product(*allowed) if w.count(R) % 2 == 0]
    return [EnhancedSequence(tuple(map(Entry, ks, tags))) for tags in words]


def even_subsequence(seq: EnhancedSequence) -> EnhancedSequence:
    """Subsequence of even-parameter entries, in original cyclic order."""
    evens = tuple(e for e in seq if e.is_even)
    if not evens:
        raise InvalidSequenceError("sequence has no even parameters")
    return EnhancedSequence(evens, base=seq.base)


def twist_surplus(seq: EnhancedSequence) -> int:
    """Sum of the odd parameters minus the number of parameters equal to -2."""
    odd_sum = sum(e.k for e in seq if e.is_odd)
    minus_twos = sum(1 for e in seq if not e.is_inf and e.k == -2)
    return odd_sum - minus_twos


def normalize_even(seq: EnhancedSequence) -> EnhancedSequence:
    """Flip every -2 entry to +2 with the opposite type; requires all-even input."""
    if any(not e.is_even for e in seq):
        raise InvalidSequenceError("normalize_even expects an all-even sequence")
    return EnhancedSequence(_normal_evens(seq.entries), base=seq.base)


def _normal_evens(entries: tuple[Entry, ...]) -> tuple[Entry, ...]:
    """The even entries in cyclic order, each -2 flipped to +2 with the
    opposite type."""
    return tuple(Entry(2, e.eps.flipped) if e.k == -2 else e
                 for e in entries if e.is_even)


def dihedral_words(entries: tuple[Entry, ...]) -> Iterator[tuple[Entry, ...]]:
    """The 2u words of the dihedral orbit: every rotation of the word, then
    every rotation of its reverse (rotation t of either starts at index t)."""
    for word in (entries, entries[::-1]):
        for t in range(len(word)):
            yield word[t:] + word[:t]


def _entry_sort_key(e: Entry):
    # INF sorts after all integers; S before R.
    return (1, 0, int(e.eps)) if e.k is INF else (0, e.k, int(e.eps))


def dihedral_canonical(entries: tuple[Entry, ...]) -> tuple[Entry, ...]:
    """Lexicographically least word over all rotations and reflections."""
    # Words compare by their entries' sort keys, computed once per entry;
    # the key is one-to-one, so the least word of keys names the least word.
    # It starts at a least key, so only the rotations of the word and of its
    # reverse that start there are compared.
    keys = [_entry_sort_key(e) for e in entries]
    u = len(keys)
    low = min(keys)
    ring = keys + keys
    back = ring[::-1]  # back[u - 1 - t:] reads the word backwards from t
    least = None
    for t in range(u):
        if keys[t] == low:
            word = ring[t:t + u]
            if least is None or word < least:
                least, start, reverse = word, t, False
            word = back[u - 1 - t:2 * u - 1 - t]
            if word < least:
                least, start, reverse = word, t, True
    if reverse:
        return tuple(entries[(start - i) % u] for i in range(u))
    return entries[start:] + entries[:start]


def canonical_key(seq: EnhancedSequence) -> EnhancedSequence:
    """Canonical representative of the even subsequence modulo rotation,
    reflection and the 2r = -2s / 2s = -2r identification; an all-even
    sequence is its own even subsequence.

    The normalised even word is built once, as entries, and only the key
    is built as a sequence.
    """
    evens = _normal_evens(seq.entries)
    if not evens:
        raise InvalidSequenceError("sequence has no even parameters")
    return EnhancedSequence(dihedral_canonical(evens), base=seq.base)


def is_erasable(ks: Sequence[int]) -> Optional[Pairing]:
    """Witness pairing with k_i + k_sigma(i) = 0 for all i, or None.

    Erasability is equivalent to every value n occurring as often as -n; the
    witness returned is the lexicographically first pairing (each index pairs
    with the earliest available partner).  Odd-length sequences are never
    erasable and yield None.
    """
    ks = tuple(ks)
    if any(k == 0 for k in ks):
        raise InvalidSequenceError("pretzel parameters must be nonzero")
    return _cancelling_pairing([(k, None) for k in ks])


def _cancelling_pairing(keys: Sequence[tuple]) -> Optional[Pairing]:
    """Pair each (k, tag) with the earliest unpaired (-k, tag) before it;
    None unless every index ends up paired (never for odd length)."""
    if len(keys) % 2 != 0:
        return None
    unpaired: dict[tuple, list[int]] = {}
    pairs = []
    for i, (k, tag) in enumerate(keys):
        bucket = unpaired.get((-k, tag))
        if bucket:
            pairs.append((bucket.pop(0), i))
        else:
            unpaired.setdefault((k, tag), []).append(i)
    return tuple(pairs) if 2 * len(pairs) == len(keys) else None


def pairing_respects_orientation(seq: EnhancedSequence, pairing: Pairing) -> bool:
    """Whether eps is constant on every pair of the pairing."""
    seen = set()
    ks = [e.k for e in seq]
    for i, j in pairing:
        if not (0 <= i < len(seq) and 0 <= j < len(seq)) or i == j:
            raise InvalidSequenceError(f"bad pairing pair ({i}, {j})")
        if i in seen or j in seen:
            raise InvalidSequenceError("pairing reuses an index")
        seen.update((i, j))
        if ks[i] + ks[j] != 0:
            raise InvalidSequenceError(
                f"pairing pair ({i}, {j}) does not cancel: {ks[i]} + {ks[j]}")
    if len(seen) != len(seq):
        raise InvalidSequenceError("pairing does not cover the sequence")
    return all(seq[i].eps is seq[j].eps for i, j in pairing)


def orientation_respecting_pairing(seq: EnhancedSequence) -> Optional[Pairing]:
    """A cancelling pairing that also preserves types, if one exists."""
    return _cancelling_pairing([(e.k, e.eps) for e in seq])

