"""Dependency-tree extraction patterns (Figure 4) and their versions.

Three patterns connect an entity mention to a property:

* **adjectival complement** (Fig. 4b): the entity is the ``nsubj`` of a
  predicate adjective with a copula — "Chicago is very big";
* **adjectival modifier** (Fig. 4a): an adjective modifies a noun that
  mentions (or corefers with) the entity — "Snakes are dangerous
  animals", "the cute cat";
* **conjunction** (Fig. 4c): an adjective conjoined with a matched one
  inherits the entity — "Soccer is a fast and exciting sport" also
  yields (soccer, exciting).

Appendix B describes four configurations tried during development;
:data:`PATTERN_VERSIONS` reproduces them. Version 4 (amod + acomp,
verb "to be" only, intrinsicness checks on) is the shipped default.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.types import SubjectiveProperty
from ..nlp import lexicon
from ..nlp.annotate import AnnotatedSentence
from ..nlp.deptree import (
    ADVMOD,
    AMOD,
    APPOS,
    CONJ,
    COP,
    DepNode,
    NSUBJ,
    XCOMP,
)
from ..nlp.tokens import EntityMention, POS
from . import filters


@dataclass(frozen=True, slots=True)
class PatternConfig:
    """One row of Table 4."""

    name: str
    use_amod: bool
    use_acomp: bool
    verbs: frozenset[str]
    intrinsic_checks: bool
    use_conjunction: bool = True

    @property
    def broad_verbs(self) -> bool:
        """Whether the copula class goes beyond "to be"."""
        return self.verbs != frozenset({"be"})


#: Appendix B, Table 4: the four configurations tried by the authors.
PATTERN_VERSIONS: dict[int, PatternConfig] = {
    1: PatternConfig(
        name="v1-amod-copula",
        use_amod=True,
        use_acomp=False,
        verbs=lexicon.COPULA_LEMMAS,
        intrinsic_checks=False,
    ),
    2: PatternConfig(
        name="v2-amod-acomp-copula",
        use_amod=True,
        use_acomp=True,
        verbs=lexicon.COPULA_LEMMAS,
        intrinsic_checks=False,
    ),
    3: PatternConfig(
        name="v3-acomp-tobe-checked",
        use_amod=False,
        use_acomp=True,
        verbs=frozenset({"be"}),
        intrinsic_checks=True,
    ),
    4: PatternConfig(
        name="v4-amod-acomp-tobe-checked",
        use_amod=True,
        use_acomp=True,
        verbs=frozenset({"be"}),
        intrinsic_checks=True,
    ),
}

#: The configuration used for all experiments (Appendix B's final pick).
DEFAULT_PATTERNS = PATTERN_VERSIONS[4]


@dataclass(frozen=True, slots=True)
class PatternMatch:
    """One pattern instance: an entity tied to a property node."""

    mention: EntityMention
    property_node: DepNode
    property: SubjectiveProperty
    pattern: str


def find_matches(
    annotated: AnnotatedSentence,
    config: PatternConfig = DEFAULT_PATTERNS,
) -> list[PatternMatch]:
    """All pattern instances in one annotated sentence."""
    sentence = annotated.sentence
    if not sentence.mentions or annotated.tree is None:
        return []
    matches: list[PatternMatch] = []
    for node in annotated.tree.all_nodes():
        if node.token.pos is not POS.ADJ:
            continue
        if config.use_acomp:
            matches.extend(_match_acomp(annotated, node, config))
        if config.use_amod:
            matches.extend(_match_amod(annotated, node, config))
    if config.use_conjunction:
        matches.extend(_expand_conjunctions(matches))
    return matches


# ---------------------------------------------------------------------------
# Adjectival complement (Fig. 4b)
# ---------------------------------------------------------------------------

def _match_acomp(
    annotated: AnnotatedSentence, node: DepNode, config: PatternConfig
) -> list[PatternMatch]:
    cop = node.child_by_rel(COP)
    subject = node.child_by_rel(NSUBJ)
    if subject is None:
        return []
    if cop is not None:
        cop_lemma = lexicon.COPULA_FORMS.get(cop.token.lemma)
        if cop_lemma not in config.verbs:
            return []
    else:
        # Small clause under an attitude verb ("I find kittens cute"):
        # only the broad-verb configurations accept it.
        if node.deprel != XCOMP or not config.broad_verbs:
            return []
    mention = _mention_for(annotated, subject)
    if mention is None:
        return []
    if config.intrinsic_checks and filters.has_constriction(node):
        return []
    return [
        PatternMatch(
            mention=mention,
            property_node=node,
            property=_property_of(node),
            pattern="acomp",
        )
    ]


# ---------------------------------------------------------------------------
# Adjectival modifier (Fig. 4a)
# ---------------------------------------------------------------------------

def _match_amod(
    annotated: AnnotatedSentence, node: DepNode, config: PatternConfig
) -> list[PatternMatch]:
    if node.deprel != AMOD:
        return []
    tree = annotated.tree
    head = tree.parent_of(node)
    if head is None:
        return []

    # Case (b): predicate nominal coreferential with the subject
    # mention — "Snakes are dangerous animals".
    cop = head.child_by_rel(COP)
    subject = head.child_by_rel(NSUBJ)
    if cop is not None and subject is not None:
        cop_lemma = lexicon.COPULA_FORMS.get(cop.token.lemma)
        if cop_lemma not in config.verbs:
            return []
        mention = _mention_for(annotated, subject)
        if mention is None:
            return []
        if config.intrinsic_checks:
            if not filters.is_coreferential_amod(
                head, mention.entity_type
            ):
                return []
            if filters.has_constriction(head):
                return []
        return [
            PatternMatch(
                mention=mention,
                property_node=node,
                property=_property_of(node),
                pattern="amod",
            )
        ]

    # Case (b'): appositive nominal — "Tokyo , a big city , is ...".
    # The appositive noun corefers with its governor by construction;
    # the same type check applies under intrinsicness checking.
    governor = tree.parent_of(head) if head.deprel == APPOS else None
    if governor is not None:
        mention = _mention_for(annotated, governor)
        if mention is None:
            return []
        if config.intrinsic_checks:
            if not filters.is_coreferential_amod(
                head, mention.entity_type
            ):
                return []
            if filters.has_constriction(head):
                return []
        return [
            PatternMatch(
                mention=mention,
                property_node=node,
                property=_property_of(node),
                pattern="amod-appos",
            )
        ]

    # Case (a): direct modifier on the mention itself — "the cute cat",
    # "Southern France is warm". Dropped by the coreference check.
    if config.intrinsic_checks:
        return []
    mention = _mention_for(annotated, head)
    if mention is None:
        return []
    return [
        PatternMatch(
            mention=mention,
            property_node=node,
            property=_property_of(node),
            pattern="amod-direct",
        )
    ]


# ---------------------------------------------------------------------------
# Conjunction (Fig. 4c)
# ---------------------------------------------------------------------------

def _expand_conjunctions(
    matches: list[PatternMatch],
) -> list[PatternMatch]:
    expansions: list[PatternMatch] = []
    for match in matches:
        for conjunct in match.property_node.children_by_rel(CONJ):
            if conjunct.token.pos is not POS.ADJ:
                continue
            expansions.append(
                PatternMatch(
                    mention=match.mention,
                    property_node=conjunct,
                    property=_property_of(conjunct),
                    pattern="conj",
                )
            )
    return expansions


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

def _mention_for(
    annotated: AnnotatedSentence, node: DepNode
) -> EntityMention | None:
    """The entity mention covering a node or its compound children."""
    mention = annotated.sentence.mention_at(node.token.index)
    if mention is not None:
        return mention
    for child in node.children_by_rel("compound"):
        mention = annotated.sentence.mention_at(child.token.index)
        if mention is not None:
            return mention
    return None


def _property_of(node: DepNode) -> SubjectiveProperty:
    """Adjective plus its degree-adverb modifiers, in surface order."""
    adverbs = sorted(
        (
            child.token
            for child in node.children_by_rel(ADVMOD)
            if child.token.pos is POS.ADV
        ),
        key=lambda token: token.index,
    )
    return SubjectiveProperty(
        adjective=node.token.lemma,
        adverbs=tuple(token.lemma for token in adverbs),
    )
