"""Statement polarity from negations on the path to the root.

Figure 5 of the paper: starting from the property token with polarity
+1, walk up the dependency tree to the root and flip the sign at every
negated token (a token with a negation child). An odd number of
negations makes the statement negative; double negations ("I don't
think that snakes are never dangerous") resolve back to positive.
"""

from __future__ import annotations

from ..core.types import Polarity
from ..nlp.deptree import REL_NEG, children_with
from ..nlp.tokens import Sentence


def negation_count(sentence: Sentence, node: int) -> int:
    """Number of negations on the path from token ``node`` to the root
    of its sentence's parse.

    Counts individual negation children rather than negated tokens so
    the (rare) stacked case "isn't never" flips twice on one node;
    for the paper's examples the two formulations coincide.
    """
    heads = sentence.heads
    count = 0
    while node >= 0:
        count += len(children_with(sentence, node, REL_NEG))
        node = heads[node]
    return count


def statement_polarity(sentence: Sentence, node: int) -> Polarity:
    """Polarity of the statement anchored at token ``node``."""
    if negation_count(sentence, node) % 2 == 1:
        return Polarity.NEGATIVE
    return Polarity.POSITIVE
