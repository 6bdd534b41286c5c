"""Equivalence deciders and invariant reports for pretzel links.

Delta-equivalence is decided by the word's component count and linking numbers.
Self-delta classes are stated once, by `_class_invariant`, which
`class_key` formats and `self_delta_equivalent` compares: the canonical
even-subsequence key and twist surplus for three or more components, and
for two the complete coefficient invariants (a1, a3 - a1 * sum of component
a2), the correction being nonzero exactly when an odd run side-closes into
a nontrivial torus-knot component.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import operator
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

from . import diagrams, polynomials, sequences
from .errors import (
    InternalConsistencyError,
    InvalidSequenceError,
    ResourceLimitError,
    UnsupportedError,
)
from .sequences import R, S, EnhancedSequence, Entry, Pairing
from .zpoly import ZPoly


@dataclass(frozen=True)
class InvariantReport:
    """Bundle of the invariants used by the deciders."""

    sequence: EnhancedSequence
    mu: int
    linking: tuple[tuple[int, ...], ...]
    conway: ZPoly
    a_lower: int                      # coefficient mu - 1
    a_upper: int                      # coefficient mu + 1
    component_conways: tuple[ZPoly, ...]
    component_a2_sum: int
    a_upper_corrected: int        # a_upper - a_lower * sum(a2 of components)
    twist_surplus: int
    even_key: Optional[EnhancedSequence]


def invariants(seq: EnhancedSequence) -> InvariantReport:
    """The full invariant report: the oracle's polynomials of the link and of
    each component (`diagrams.component_conways`), closed forms checked."""
    nabla = diagrams.oracle_conway(seq)
    linking = sequences.linking_matrix(seq)
    mu = len(linking)
    # A knot is its own only component: reuse nabla, not a second determinant.
    comps = (nabla,) if mu == 1 else diagrams.component_conways(seq)
    a2_sum = sum(c.coefficient(2) for c in comps)
    a_lower = nabla.coefficient(mu - 1)
    a_upper = nabla.coefficient(mu + 1)
    if mu == 2 and _closed_forms(seq, nabla)[2] != a2_sum:
        raise InternalConsistencyError(
            f"closed-form component a2 total disagrees with the oracle's "
            f"{a2_sum} on {seq}")
    key = sequences.canonical_key(seq) if any(e.is_even for e in seq) else None
    return InvariantReport(
        sequence=seq, mu=mu, linking=linking,
        conway=nabla, a_lower=a_lower, a_upper=a_upper,
        component_conways=comps, component_a2_sum=a2_sum,
        a_upper_corrected=a_upper - a_lower * a2_sum,
        twist_surplus=sequences.twist_surplus(seq), even_key=key)


# ---------------------------------------------------------------------------
# delta-equivalence


def delta_equivalent(a: EnhancedSequence, b: EnhancedSequence) -> bool:
    """Same component count, and linking matrices equal up to a rotation or
    reflection of the component cycle (Murakami-Nakanishi 1989).

    `sequences.linking_matrix` reads the matrices off the words, no diagram
    built.  With mu >= 3 the components are the runs of
    `sequences.component_runs`, numbered round the cycle, so b's rotations
    and reflections have exactly b's matrix under the 2 mu dihedral
    relabellings of range(mu).  With mu <= 2 every relabelling fixes it.
    """
    lk_a, lk_b = (sequences.linking_matrix(s) for s in (a, b))
    return len(lk_a) == len(lk_b) and any(
        lk_a == tuple(tuple(lk_b[i][j] for j in p) for i in p)
        for p in sequences.dihedral_words(tuple(range(len(lk_a)))))


# ---------------------------------------------------------------------------
# self-delta-equivalence


@dataclass(frozen=True)
class SelfDeltaResult:
    """Decision plus a certificate of how the sequences were matched."""

    equivalent: bool
    kind: str                      # 'knot', 'two-component', 'even-key'
    certificate: Optional[tuple] = None

    def __bool__(self) -> bool:
        return self.equivalent


def self_delta_equivalent(a: EnhancedSequence, b: EnhancedSequence) -> SelfDeltaResult:
    """Decide self-delta-equivalence of two realizable pretzel links."""
    for s in (a, b):
        if not sequences.is_realizable(s):
            raise InvalidSequenceError(f"{s} admits no oriented diagram")
    mu_a, mu_b = (sequences.component_count(s) for s in (a, b))
    if mu_a != mu_b:
        return SelfDeltaResult(False, "component-count",
                               certificate=(mu_a, mu_b))
    if mu_a == 1:
        return SelfDeltaResult(True, "knot")
    (_, inv_a), (_, inv_b) = (
        _class_invariant(s, polynomials.twistreduce_conway) for s in (a, b))
    if mu_a == 2:
        return SelfDeltaResult(inv_a == inv_b, "two-component",
                               certificate=(inv_a, inv_b))
    if inv_a != inv_b:
        return SelfDeltaResult(False, "even-key", certificate=(inv_a, inv_b))
    return SelfDeltaResult(True, "even-key",
                           certificate=(*inv_a, _matching_transform(a, b)))


def _class_invariant(seq: EnhancedSequence,
                     conway: Callable[[EnhancedSequence], ZPoly]) -> tuple[int, tuple]:
    """(mu, invariant), equal for two sequences exactly when they are
    self-delta-equivalent: () for a knot; for two components (a1, a3 - a1 *
    total a2 of the components), checked against conway(seq); for more,
    (canonical even key text, twist surplus)."""
    mu = sequences.component_count(seq)
    if mu == 1:
        return mu, ()
    if mu == 2:
        a1, a3, a2_total = _closed_forms(seq, conway(seq))
        return mu, (a1, a3 - a1 * a2_total)
    return mu, (str(sequences.canonical_key(seq)), sequences.twist_surplus(seq))


def _closed_forms(seq: EnhancedSequence, nabla: ZPoly) -> tuple[int, int, int]:
    """(a1, a3, total a2 of the components) of a 2-component seq by the
    closed forms, with (a1, a3) checked against its polynomial nabla."""
    a1, a3, a2_total = polynomials.a1a3_and_component_a2(seq)
    coefficients = (nabla.coefficient(1), nabla.coefficient(3))
    if (a1, a3) != coefficients:
        raise InternalConsistencyError(
            f"closed forms {(a1, a3)} disagree with the polynomial's "
            f"{coefficients} on {seq}")
    return a1, a3, a2_total


def _matching_transform(a: EnhancedSequence, b: EnhancedSequence):
    """Rotation/reflection aligning the normalized even subsequences."""
    ea = sequences._normal_evens(a.entries)
    eb = sequences._normal_evens(b.entries)
    u = len(ea)
    for i, word in enumerate(sequences.dihedral_words(ea)):
        if word == eb:
            return ("rotation", i) if i < u else ("reflection", i - u)
    raise InternalConsistencyError("equal canonical keys but no dihedral match")


def self_delta_trivial_2comp(seq: EnhancedSequence) -> bool:
    """Whether a 2-component pretzel is self-delta-equivalent to the trivial
    2-component link (a1 = a3 = 0), by the state sum's polynomial."""
    mu, invariant = _class_invariant(seq, polynomials.statesum_conway)
    if mu != 2:
        raise UnsupportedError("triviality test is for 2-component pretzels")
    return invariant == (0, 0)


# ---------------------------------------------------------------------------
# necessary conditions


def necessary_data(report: InvariantReport) -> tuple[int, int, int]:
    """(mu, a_{mu-1}, a_{mu+1} - a_{mu-1}*sum a2) as used by the necessary test."""
    return (report.mu, report.a_lower, report.a_upper_corrected)


def self_delta_necessary(a: EnhancedSequence, b: EnhancedSequence) -> bool:
    """Necessary condition for self-delta-equivalence from coefficient data
    (not sufficient in general)."""
    return necessary_data(invariants(a)) == necessary_data(invariants(b))


# ---------------------------------------------------------------------------
# slice shapes and vanishing


KNOT_UNDETERMINED = "knot-undetermined"
SLICE_SHAPE_2COMP = "slice-shape-2comp"
NOT_SLICE_SHAPE = "not-slice-shape"


@dataclass(frozen=True)
class SliceShape:
    verdict: str
    pairing: Optional[Pairing] = None


def slice_shape(seq: EnhancedSequence) -> SliceShape:
    """Classify against the possible shapes of slice pretzel links.

    Knots are out of scope (undetermined).  A 2-component pretzel has slice
    shape iff its length is even, its plain sequence is erasable, and every
    parameter has absolute value at least 2; such links must also be
    self-delta-trivial, which is verified here.
    """
    mu = sequences.component_count(seq)
    if mu == 1:
        return SliceShape(KNOT_UNDETERMINED)
    if mu != 2:
        return SliceShape(NOT_SLICE_SHAPE)
    ks = seq.plain()
    if len(ks) % 2 != 0 or any(abs(k) < 2 for k in ks):
        return SliceShape(NOT_SLICE_SHAPE)
    pairing = sequences.is_erasable(ks)
    if pairing is None:
        return SliceShape(NOT_SLICE_SHAPE)
    if not self_delta_trivial_2comp(seq):
        raise InternalConsistencyError(
            f"slice-shaped {seq} is not self-delta-trivial")
    return SliceShape(SLICE_SHAPE_2COMP, pairing)


def conway_vanishing_predict(seq: EnhancedSequence) -> bool:
    """Predict a vanishing Conway polynomial from an erasable, type-respecting
    pairing; the prediction is verified against the oracle before returning."""
    if len(seq) % 2 != 0:
        return False
    pairing = sequences.orientation_respecting_pairing(seq)
    if pairing is None:
        return False
    if not diagrams.oracle_conway(seq).is_zero():
        raise InternalConsistencyError(
            f"{seq} has a type-respecting cancelling pairing but nonzero Conway")
    return True


# ---------------------------------------------------------------------------
# bulk classification


class ClassRow(NamedTuple):
    sequence: str
    mu: int
    key: str
    surplus: int
    a1: int
    a3: int
    conway: str


@dataclass(frozen=True)
class ClassTable:
    rows: tuple[ClassRow, ...]
    classes: tuple[tuple[str, tuple[str, ...]], ...]

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(ClassRow._fields)
        writer.writerows(self.rows)
        return buf.getvalue()

    def to_json(self) -> str:
        return json.dumps({
            "rows": [r._asdict() for r in self.rows],
            "classes": {k: list(v) for k, v in self.classes},
        }, indent=2)


def class_key(seq: EnhancedSequence, nabla: Optional[ZPoly] = None) -> tuple[int, str]:
    """(mu, textual class key) for the self-delta class of the sequence.

    A 2-component key needs the Conway polynomial: pass it as nabla when it
    is already known, else it is computed by the state sum.
    """
    conway = polynomials.statesum_conway if nabla is None else lambda _: nabla
    mu, invariant = _class_invariant(seq, conway)
    if mu == 1:
        return mu, "knot"
    if mu == 2:
        return mu, "a1={};c3={}".format(*invariant)
    return mu, "even={};surplus={}".format(*invariant)


# Largest bound volume (enhanced sequences) enumerate_classes accepts.
MAX_ENUMERATION = 400_000


def enumerate_classes(max_u: int, max_twist: int,
                      components: Optional[int] = None) -> ClassTable:
    """Classify every realizable sequence within the bounds.

    The rows of one dihedral orbit (the rotations and reflections of one
    enhanced word) agree on every field but their sequence text: mu, the
    polynomial and so a1 and a3, and the class key are link invariants and
    the words are isotopic, and the twist surplus is a sum over the
    multiset of entries, which a rotation or reflection keeps.  So the walk
    goes by orbits, not rows.  Only twist words ks that are the least of
    their own dihedral orbit are visited (`sequences.is_dihedral_least`
    compares only the rotations and reflections that start at the least
    value); every other twist word is the plain part of an image of some
    word over such a ks.  The realizable tag words over ks come unbuilt
    from `sequences.enumerate_enhancements`, and a sequence is built only
    for a word not yet seen, which is analysed once: its polynomial from
    the state sum and its class key.  The surplus depends on ks alone and
    is read once, from the first word.  One row is emitted for each
    distinct rotation or reflection of the word, as a plain tuple (the
    rows are sorted, then made ClassRows, at the end), with the text joined
    from a table of entry texts built once per call.  A set of the images
    emitted for this ks is enough to skip the rest of the orbit: the
    orbit's other words over ks are among them, and its words over other
    twist words are reached from no other ks, since their plain parts lie
    in the orbit of ks.  No table state is kept between calls; what
    persists is the state sum's two bounded caches, of per-entry
    resolution pairs and of base values by counts, whose values are
    immutable.  Every 2-component row is still checked against the closed
    forms for (a1, a3) by `_closed_forms`: the analysed word inside
    `class_key`, a sequence of each of its other images here.  With
    `components`, other component counts are skipped before any polynomial
    work.

    Raises InvalidSequenceError for bounds or `components` below 1, and
    ResourceLimitError when the bounds span more than MAX_ENUMERATION
    enhanced sequences, both before doing any work.
    """
    if max_u < 1 or max_twist < 1:
        raise InvalidSequenceError("bounds must be positive")
    if components is not None and components < 1:
        raise InvalidSequenceError("a link has at least one component")
    # Word length u gives (2 max_twist)^u twist words times 2^u tag words,
    # at least 4^u, so the running total passes the cap within ten terms.
    volume = 0
    for u in range(1, max_u + 1):
        volume += (4 * max_twist) ** u
        if volume > MAX_ENUMERATION:
            raise ResourceLimitError(
                "the bounds max_u and max_twist enumerate more than "
                f"{MAX_ENUMERATION} sequences (the limit)")
    values = [k for k in range(-max_twist, max_twist + 1) if k != 0]
    text_of = {e: str(e) for k in values for e in (Entry(k, S), Entry(k, R))}
    rows = []  # (sequence, mu, key, surplus, a1, a3, conway) tuples
    for u in range(1, max_u + 1):
        for ks in itertools.product(values, repeat=u):
            if not sequences.is_dihedral_least(ks):
                continue
            if components is not None and sequences.component_count(ks) != components:
                continue
            seen = set()
            for word in sequences.enumerate_enhancements(ks, build=False):
                if word in seen:
                    continue
                seq = EnhancedSequence(word)
                if not seen:
                    surplus = sequences.twist_surplus(seq)
                orbit = set(sequences.dihedral_words(word))
                seen |= orbit
                nabla = polynomials.statesum_conway(seq)
                mu, key = class_key(seq, nabla)
                fields = (mu, key, surplus,
                          nabla.coefficient(1), nabla.coefficient(3), str(nabla))
                for image in orbit:
                    if mu == 2 and image != word:
                        _closed_forms(EnhancedSequence(image), nabla)
                    text = ",".join([text_of[e] for e in image])
                    rows.append((text, *fields))
    rows.sort(key=operator.itemgetter(1, 2, 0))
    # A key fixes mu, so each class's rows are consecutive, in text order.
    classes = sorted((key, tuple([r[0] for r in group]))
                     for key, group in itertools.groupby(rows, operator.itemgetter(2)))
    return ClassTable(rows=tuple(map(ClassRow._make, rows)), classes=tuple(classes))
