"""Statement polarity from negations on the path to the root.

Figure 5 of the paper: starting from the property token with polarity
+1, walk up the dependency tree to the root and flip the sign at every
negated token (a token with a negation child). An odd number of
negations makes the statement negative; double negations ("I don't
think that snakes are never dangerous") resolve back to positive.
"""

from __future__ import annotations

from ..core.types import Polarity
from ..nlp.deptree import DepNode, DepTree, NEG


def negation_count(tree: DepTree, property_node: DepNode) -> int:
    """Number of negations on the path from the property to the root
    of its ``tree``.

    Counts individual negation children rather than negated tokens so
    the (rare) stacked case "isn't never" flips twice on one node;
    for the paper's examples the two formulations coincide.
    """
    return sum(
        len(node.children_by_rel(NEG))
        for node in tree.path_to_root(property_node)
    )


def statement_polarity(tree: DepTree, property_node: DepNode) -> Polarity:
    """Polarity of the statement anchored at ``property_node``."""
    if negation_count(tree, property_node) % 2 == 1:
        return Polarity.NEGATIVE
    return Polarity.POSITIVE
