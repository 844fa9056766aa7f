"""Entity mention detection and disambiguation.

The paper's corpus arrives pre-annotated by "an entity tagger using
state-of-the-art means for disambiguation" (Section 2 shows why this
matters: 11 of 23 frequently-mentioned city names were ambiguous). We
implement the equivalent: a longest-match surface scanner over the
knowledge base's alias table plus a context-based disambiguator.

Disambiguation strategy, in order:

1. if only one candidate entity matches the surface form, link it;
2. otherwise score each candidate by type-indicator words present in
   the sentence (``city``, ``animal``, ...; see
   :data:`repro.nlp.lexicon.TYPE_NOUNS`) and, as a weaker signal, in
   the rest of the document;
3. a unique top scorer wins; ties mean the mention stays unlinked —
   exactly the conservative discard the paper applies to ambiguous
   city names.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

from ..kb.entity import Entity
from ..kb.knowledge_base import KnowledgeBase
from .tokens import EntityMention, Sentence

_MAX_MENTION_TOKENS = 4


@dataclass(slots=True)
class LinkerStats:
    """Counts of linking outcomes, reported by the pipeline."""

    linked: int = 0
    ambiguous_dropped: int = 0

    def merge(self, other: "LinkerStats") -> None:
        self.linked += other.linked
        self.ambiguous_dropped += other.ambiguous_dropped


@dataclass
class EntityLinker:
    """Links sentence spans to knowledge-base entities."""

    kb: KnowledgeBase
    stats: LinkerStats = field(default_factory=LinkerStats)

    def link_sentence(
        self, sentence: Sentence, document_context: Counter | None = None
    ) -> list[EntityMention]:
        """Detect and link the sentence's mentions and return them.

        ``document_context`` is a counter of type-indicator hits for
        the whole document, used as a fallback disambiguation signal.
        """
        mentions, linked, dropped = self.resolve(
            sentence, self.scan(sentence), document_context
        )
        self.stats.linked += linked
        self.stats.ambiguous_dropped += dropped
        return mentions

    def scan(self, sentence: Sentence) -> tuple:
        """The matching pass: greedy left-to-right longest matches,
        flat as ``(start, end, key)`` per match, where ``key`` is the
        knowledge base's surface form the tokens ``[start, end)``
        matched.

        Pure function of the sentence's token texts (disambiguation
        never moves the scan cursor), which is what lets the fast path
        cache scan results per unique sentence text.
        """
        lowered = [text.lower() for text in sentence.texts]
        matches: list = []
        heads = self.kb._head_widths
        index = 0
        n_tokens = len(lowered)
        while index < n_tokens:
            word = lowered[index]
            if word not in heads and not word.endswith("s"):
                # No alias starts here, and no plural back-off applies.
                index += 1
                continue
            match = self._longest_match(lowered, index)
            if match is None:
                index += 1
                continue
            end, key = match
            matches += (index, end, key)
            index = end
        return tuple(matches)

    def context_types(self, matches: tuple) -> tuple[str, ...]:
        """The entity types whose document-context counts can decide
        between the candidates of ambiguous ``matches``, sorted."""
        by_surface = self.kb._by_surface
        return tuple(
            sorted(
                {
                    entity_type
                    for key in matches[2::3]
                    if len(by_surface.get(key, ())) > 1
                    for entity in by_surface[key]
                    for entity_type in entity.all_types
                }
            )
        )

    def resolve(
        self,
        sentence: Sentence,
        matches: tuple,
        document_context: Counter | None = None,
    ) -> tuple[list[EntityMention], int, int]:
        """The disambiguation pass over scanned matches.

        Returns ``(mentions, linked, dropped)`` without touching
        ``self.stats`` — the caller (or the fast path's memo, replaying
        cached results) applies them.
        """
        by_surface = self.kb._by_surface
        texts = sentence.texts
        type_nouns = sentence.type_nouns
        mentions: list[EntityMention] = []
        linked = 0
        dropped = 0
        flat = iter(matches)
        for start, end, key in zip(flat, flat, flat):
            entity = self._disambiguate(
                by_surface.get(key, ()), type_nouns, document_context
            )
            if entity is not None:
                mentions.append(
                    EntityMention(
                        start,
                        end,
                        entity.id,
                        entity.entity_type,
                        " ".join(texts[start:end]),
                    )
                )
                linked += 1
            else:
                dropped += 1
        return mentions, linked, dropped

    # ------------------------------------------------------------------
    # Matching
    # ------------------------------------------------------------------
    def _longest_match(
        self, lowered: Sequence[str], start: int
    ) -> tuple[int, str] | None:
        """``(end, key)`` of the longest alias match beginning at token
        ``start``.

        ``lowered`` is the sentence's token texts, lower-cased once by
        the caller (:meth:`scan`) instead of per candidate span. Tokens
        hold no spaces (the tokenizer splits on them), so an alias
        spanning ``[start, end)`` starts with the word at ``start``:
        the knowledge base's head widths bound the window there, and a
        word no alias starts with can only match through the plural
        back-off.
        """
        by_surface = self.kb._by_surface
        word = lowered[start]
        width = self.kb._head_widths.get(word, 0)
        max_end = min(
            start + min(width, _MAX_MENTION_TOKENS), len(lowered)
        )
        for end in range(max_end, start + 1, -1):
            key = " ".join(lowered[start:end])
            if by_surface.get(key):
                return end, key
        if width and by_surface.get(word):
            return start + 1, word
        # Naive plural back-off: "kittens" -> "kitten".
        if word.endswith("s") and by_surface.get(word[:-1]):
            return start + 1, word[:-1]
        return None

    # ------------------------------------------------------------------
    # Disambiguation
    # ------------------------------------------------------------------
    def _disambiguate(
        self,
        candidates: Sequence[Entity],
        type_nouns: tuple[str, ...],
        document_context: Counter | None,
    ) -> Entity | None:
        if len(candidates) == 1:
            return candidates[0]
        scores: dict[str, float] = {}
        for entity in candidates:
            # An in-sentence type indicator must always outrank any
            # amount of document-level background. Secondary type
            # memberships contribute at half weight.
            score = 0.0
            for weight, entity_type in zip(
                (1.0, *(0.5,) * len(entity.other_types)),
                entity.all_types,
            ):
                score += 1000.0 * weight * type_nouns.count(entity_type)
                if document_context is not None:
                    score += weight * min(
                        document_context.get(entity_type, 0), 999
                    )
            scores[entity.id] = score
        best = max(scores.values())
        winners = [e for e in candidates if scores[e.id] == best]
        if best > 0 and len(winners) == 1:
            return winners[0]
        return None


def document_type_context(sentences: Iterable[Sentence]) -> Counter:
    """Aggregate type-indicator hits across a document's sentences."""
    context: Counter = Counter()
    for sentence in sentences:
        context.update(sentence.type_nouns)
    return context
