"""Intrinsicness filters (Section 4).

Two heuristics keep only statements claiming an *intrinsic* property:

* **Constriction subtrees** — a prepositional subtree hanging off the
  predicate ("New York is bad *for parking*") restricts the claim to an
  aspect of the entity; such statements are discarded.
* **Coreference requirement for adjectival modifiers** — an amod
  extraction is kept only when the modified noun is coreferential with
  the entity mention, i.e. it is a predicate nominal naming the
  entity's own type ("Snakes are dangerous *animals*", "Greece is a
  southern *country*"). A direct modifier on the mention itself
  ("*Southern* France is warm") refers to a part of the entity and is
  dropped.

The paper notes these checks are conservative but improve precision
significantly; Table 4 quantifies the recall cost.
"""

from __future__ import annotations

from ..nlp import lexicon
from ..nlp.deptree import REL_PREP, child_with
from ..nlp.tokens import Sentence


def has_constriction(sentence: Sentence, predicate: int) -> bool:
    """Whether the predicate carries a restricting prepositional subtree."""
    return child_with(sentence, predicate, REL_PREP) >= 0


def is_coreferential_amod(
    sentence: Sentence, head_noun: int, entity_type: str
) -> bool:
    """Whether an amod head noun corefers with the entity mention.

    True when the noun names the entity's own type (``city`` for a
    city): the sentence then predicates the property of the entity as
    a whole. Plural and synonym forms resolve through the type-noun
    lexicon.
    """
    indicated = lexicon.TYPE_NOUNS.get(sentence.lemmas[head_noun])
    return indicated == entity_type
