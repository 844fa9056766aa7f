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
    REL_ADVMOD, REL_AMOD, REL_APPOS, REL_COMPOUND, REL_CONJ, REL_COP,
    REL_NSUBJ, REL_XCOMP, child_with, children_with,
)
from ..nlp.tokens import ADJ, ADV, EntityMention, Sentence
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
    """One pattern instance: an entity tied to a property token."""

    mention: EntityMention
    #: Token index of the property's adjective.
    property_index: int
    property: SubjectiveProperty
    pattern: str


def find_matches(
    annotated: AnnotatedSentence,
    config: PatternConfig = DEFAULT_PATTERNS,
) -> list[PatternMatch]:
    """All pattern instances in one annotated sentence.

    ``ADJ`` tokens are visited in the tree's pre-order, the acomp
    pattern before the amod one for each; conjunction expansions come
    last. Statement order follows, and provenance keeps the first
    statements in that order.
    """
    sentence = annotated.sentence
    if (
        not annotated.mentions
        or sentence.order is None
        or ADJ not in sentence.tags
    ):
        return []
    tags = sentence.tags
    matches: list[PatternMatch] = []
    for node in sentence.order:
        if tags[node] != ADJ:
            continue
        if config.use_acomp:
            match = _match_acomp(annotated, node, config)
            if match is not None:
                matches.append(match)
        if config.use_amod:
            match = _match_amod(annotated, node, config)
            if match is not None:
                matches.append(match)
    if config.use_conjunction and matches:
        matches.extend(_expand_conjunctions(sentence, matches))
    return matches


# ---------------------------------------------------------------------------
# Adjectival complement (Fig. 4b)
# ---------------------------------------------------------------------------

def _match_acomp(
    annotated: AnnotatedSentence, node: int, config: PatternConfig
) -> PatternMatch | None:
    sentence = annotated.sentence
    subject = child_with(sentence, node, REL_NSUBJ)
    if subject < 0:
        return None
    cop = child_with(sentence, node, REL_COP)
    if cop >= 0:
        if _copula(sentence, cop) not in config.verbs:
            return None
    elif sentence.labels[node] != REL_XCOMP or not config.broad_verbs:
        # Small clause under an attitude verb ("I find kittens cute"):
        # only the broad-verb configurations accept it.
        return None
    mention = _mention_for(annotated, subject)
    if mention is None:
        return None
    if config.intrinsic_checks and filters.has_constriction(
        sentence, node
    ):
        return None
    return _match(mention, sentence, node, "acomp")


# ---------------------------------------------------------------------------
# Adjectival modifier (Fig. 4a)
# ---------------------------------------------------------------------------

def _match_amod(
    annotated: AnnotatedSentence, node: int, config: PatternConfig
) -> PatternMatch | None:
    sentence = annotated.sentence
    if sentence.labels[node] != REL_AMOD:
        return None
    head = sentence.heads[node]
    cop = child_with(sentence, head, REL_COP)
    subject = child_with(sentence, head, REL_NSUBJ)
    if cop >= 0 and subject >= 0:
        # Case (b): predicate nominal coreferential with the subject
        # mention — "Snakes are dangerous animals".
        if _copula(sentence, cop) not in config.verbs:
            return None
        anchor, pattern = subject, "amod"
    elif sentence.labels[head] == REL_APPOS:
        # Case (b'): appositive nominal — "Tokyo , a big city , is
        # ...". The appositive noun corefers with its governor by
        # construction; the same type check applies under
        # intrinsicness checking.
        anchor, pattern = sentence.heads[head], "amod-appos"
    elif config.intrinsic_checks:
        # Case (a): direct modifier on the mention itself — "the cute
        # cat", "Southern France is warm". Dropped by the coreference
        # check.
        return None
    else:
        anchor, pattern = head, "amod-direct"
    mention = _mention_for(annotated, anchor)
    if mention is None:
        return None
    if config.intrinsic_checks and (
        not filters.is_coreferential_amod(
            sentence, head, mention.entity_type
        )
        or filters.has_constriction(sentence, head)
    ):
        return None
    return _match(mention, sentence, node, pattern)


# ---------------------------------------------------------------------------
# Conjunction (Fig. 4c)
# ---------------------------------------------------------------------------

def _expand_conjunctions(
    sentence: Sentence, matches: list[PatternMatch]
) -> list[PatternMatch]:
    expansions: list[PatternMatch] = []
    for match in matches:
        for conjunct in children_with(
            sentence, match.property_index, REL_CONJ
        ):
            if sentence.tags[conjunct] != ADJ:
                continue
            expansions.append(
                _match(match.mention, sentence, conjunct, "conj")
            )
    return expansions


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

def _match(
    mention: EntityMention, sentence: Sentence, node: int, pattern: str
) -> PatternMatch:
    return PatternMatch(
        mention=mention,
        property_index=node,
        property=_property_of(sentence, node),
        pattern=pattern,
    )


def _copula(sentence: Sentence, cop: int) -> str | None:
    """The copula lemma ("be", "seem", ...) of token ``cop``."""
    return lexicon.COPULA_FORMS.get(sentence.lemmas[cop])


def _mention_for(
    annotated: AnnotatedSentence, node: int
) -> EntityMention | None:
    """The entity mention covering a node or its compound children."""
    mention = annotated.mention_at(node)
    if mention is not None:
        return mention
    for child in children_with(annotated.sentence, node, REL_COMPOUND):
        mention = annotated.mention_at(child)
        if mention is not None:
            return mention
    return None


def _property_of(sentence: Sentence, node: int) -> SubjectiveProperty:
    """Adjective plus its degree-adverb modifiers, in surface order."""
    lemmas = sentence.lemmas
    tags = sentence.tags
    return SubjectiveProperty(
        adjective=lemmas[node],
        adverbs=tuple(
            lemmas[child]
            for child in children_with(sentence, node, REL_ADVMOD)
            if tags[child] == ADV
        ),
    )
