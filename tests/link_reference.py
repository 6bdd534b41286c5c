"""Linking numbers by the region sum over a built diagram, kept as a test
reference only.

`sequences.linking_matrix` reads the matrix off the word.  This sum reads
each region's crossing count, the sign of its first crossing (all of a
region's crossings share it) and the components of its two strands off
`diagrams.build_diagram`, so the two share no rule.  It takes base words (0
and INF entries) too, which the golden diagram record holds.
"""

from pretzellinks.diagrams import Diagram
from pretzellinks.zpoly import exact_div


def region_signs(diagram: Diagram) -> tuple:
    """Each region's crossing sign, read off its first crossing (the
    crossings run region by region), or None when it has no crossing."""
    signs = []
    first = 0
    for info in diagram.regions:
        signs.append(diagram.crossings[first].sign if info.crossings else None)
        first += info.crossings
    return tuple(signs)


def region_linking_matrix(diagram: Diagram) -> tuple[tuple[int, ...], ...]:
    """Pairwise linking numbers (diagonal zero) in the diagram's component
    order: half the signed crossings between each pair of components."""
    mu = diagram.ncomponents
    doubled = [[0] * mu for _ in range(mu)]
    for info, sign in zip(diagram.regions, region_signs(diagram)):
        if info.crossings == 0 or info.comp_left == info.comp_right:
            continue
        a, b = info.comp_left, info.comp_right
        doubled[a][b] += sign * info.crossings
        doubled[b][a] += sign * info.crossings
    return tuple(tuple(exact_div(v, 2) for v in row) for row in doubled)
