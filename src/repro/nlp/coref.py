"""Lightweight pronoun coreference resolution.

The paper's corpus arrives pre-annotated by an entity tagger whose
annotations cover coreferential mentions (the Figure 4(a) example
relies on "animals" coreferring with "snakes"). Type-noun coreference
is handled by the extraction filters; this module adds the *pronoun*
dimension: a third-person pronoun is resolved to the most recent
compatible entity mention in the document, so "We visited Tokyo last
week. It is hectic." yields a (tokyo, hectic) statement.

Resolution is deliberately conservative — recency plus a human/
non-human compatibility check — matching the precision-over-recall
stance of the extraction stage.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .tokens import PRON, EntityMention, Sentence

#: Entity types treated as human for pronoun agreement.
HUMAN_TYPES: frozenset[str] = frozenset({"celebrity", "profession"})

#: Pronouns resolved to non-human antecedents.
_NEUTRAL_PRONOUNS = frozenset({"it", "they", "them"})

#: Pronouns resolved to human antecedents.
_PERSONAL_PRONOUNS = frozenset({"he", "she", "him", "her"})


@dataclass
class PronounResolver:
    """Per-document resolver; feed sentences in reading order."""

    human_types: frozenset[str] = HUMAN_TYPES
    _last_human: EntityMention | None = field(
        default=None, init=False, repr=False
    )
    _last_neutral: EntityMention | None = field(
        default=None, init=False, repr=False
    )

    def resolve_sentence(
        self, sentence: Sentence, mentions: list[EntityMention]
    ) -> int:
        """Append mentions for the sentence's resolvable pronouns to
        ``mentions`` (its linked mentions); returns how many.

        Antecedent bookkeeping is updated *after* resolution so a
        pronoun never resolves to a mention later in its own sentence.
        """
        linked = len(mentions)
        tags = sentence.tags
        index = tags.find(PRON)
        while index >= 0:
            antecedent = self._antecedent_for(sentence.lemmas[index])
            if antecedent is not None and not any(
                mention.start <= index < mention.end
                for mention in mentions
            ):
                mentions.append(
                    EntityMention(
                        index,
                        index + 1,
                        antecedent.entity_id,
                        antecedent.entity_type,
                        sentence.texts[index],
                    )
                )
            index = tags.find(PRON, index + 1)
        # Pronoun-derived mentions do not overwrite the antecedent — a
        # chain of "it ... it" keeps pointing at the original entity.
        for mention in mentions[:linked]:
            if mention.entity_type in self.human_types:
                self._last_human = mention
            else:
                self._last_neutral = mention
        return len(mentions) - linked

    def _antecedent_for(self, lemma: str) -> EntityMention | None:
        if lemma in _NEUTRAL_PRONOUNS:
            return self._last_neutral
        if lemma in _PERSONAL_PRONOUNS:
            return self._last_human
        return None
