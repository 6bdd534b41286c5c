"""Linking numbers by the region sum over a built diagram, kept as a test
reference only.

`sequences.linking_matrix` reads the matrix off the word.  This sum reads
each region's crossing count, common sign and the components of its two
strands off `diagrams.build_diagram`, so the two share no rule.  It takes
base words (0 and INF entries) too, which the golden diagram record holds.
"""

from pretzellinks.diagrams import Diagram
from pretzellinks.zpoly import exact_div


def region_linking_matrix(diagram: Diagram) -> tuple[tuple[int, ...], ...]:
    """Pairwise linking numbers (diagonal zero) in the diagram's component
    order: half the signed crossings between each pair of components."""
    mu = diagram.ncomponents
    doubled = [[0] * mu for _ in range(mu)]
    for info in diagram.regions:
        if info.crossings == 0 or info.comp_left == info.comp_right:
            continue
        a, b = info.comp_left, info.comp_right
        doubled[a][b] += info.sign * info.crossings
        doubled[b][a] += info.sign * info.crossings
    return tuple(tuple(exact_div(v, 2) for v in row) for row in doubled)
