"""Candidate prefilter and annotation memo — the extraction fast path.

The Section 7.1 benchmark shows extraction dominating pipeline wall
time: every sentence pays the full tokenize→tag→link→parse stack even
when it cannot possibly yield evidence. The paper's own design only
extracts from sentences that mention KB entities (§4), so the fast
path screens each *raw* sentence string first:

* **alias screen** — an Aho-Corasick multi-pattern automaton compiled
  once from the knowledge base's alias table. Each pattern is the
  longest whitespace-delimited word of one alias; because the linker
  matches whole tokens (with single-token plural back-off), any
  linkable sentence must contain one of these words as a substring of
  its lower-cased raw text. The screen therefore over-approximates:
  false positives only cost speed, never correctness.
* **adjective screen** — no extraction pattern fires without a token
  the tagger could label ``ADJ``, which is decidable from the lexicon
  plus suffix morphology (see :func:`could_be_adjective`).
* **pronoun screen** — coreference can only add mentions when one of
  the resolver's pronouns is present.

Sentences failing every screen skip tagging, linking, coreference and
parsing entirely. On top of the screens sits a bounded LRU
:class:`AnnotationMemo`: machine-rendered Web text repeats heavily, so
per-sentence annotation work (tokens, tags, parse tree, link results)
is cached keyed on the raw sentence text — link results additionally
on the document type context slice that disambiguation consults.

The fast path is bit-identical in output to the reference path; the
``strict_parity`` pipeline mode (and the differential tests) runs both
and asserts it.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Any, Iterable

from ..kb.knowledge_base import KnowledgeBase
from . import lexicon

#: Default bound on memoized sentences per shard worker.
DEFAULT_MEMO_SIZE = 65536

#: Pronouns the coreference resolver can resolve (see
#: :mod:`repro.nlp.coref`); a sentence without any of them can never
#: gain a mention from coreference.
COREF_PRONOUNS: frozenset[str] = frozenset(
    {"it", "they", "them", "he", "she", "him", "her"}
)

#: Lemmas claimed by a closed class the tagger consults *before* the
#: adjective lexicon and suffix morphology — such a token can never be
#: tagged ``ADJ`` (the one exception, "pretty", lives in ADJECTIVES and
#: is handled by the first branch of :func:`could_be_adjective`).
_ADJ_SHADOW: frozenset[str] = frozenset(
    set(lexicon.NEGATION_FORMS)
    | set(lexicon.AUX_DO_FORMS)
    | set(lexicon.COPULA_FORMS)
    | set(lexicon.OPINION_VERB_FORMS)
    | set(lexicon.DETERMINERS)
    | set(lexicon.PRONOUNS)
    | set(lexicon.ADVERBS)
    | set(lexicon.PREPOSITIONS)
    | set(lexicon.COORDINATORS)
    | set(lexicon.TYPE_NOUNS)
    | set(lexicon.COMMON_NOUNS)
)


def could_be_adjective(lemma: str) -> bool:
    """Whether the tagger could ever label a token with this lemma ADJ.

    Over-approximates: ``True`` may be wrong (costs a skip), ``False``
    is exact — the lemma is either claimed by an earlier closed class
    or lacks both lexicon membership and an adjective suffix, so
    neither the lexicon pass, the "pretty" repair, nor suffix
    morphology can produce ``ADJ`` for it.
    """
    if lemma in lexicon.ADJECTIVES:
        return True
    if lemma in _ADJ_SHADOW:
        return False
    return lemma.endswith(lexicon.ADJECTIVE_SUFFIXES)


class AhoCorasick:
    """Multi-pattern substring matcher answering "any pattern present?".

    Classic Aho-Corasick trie with failure links; only the boolean
    any-match question is exposed because the prefilter never needs
    match positions.
    """

    __slots__ = ("_goto", "_fail", "_out", "n_patterns")

    def __init__(self, patterns: Iterable[str]) -> None:
        goto: list[dict[str, int]] = [{}]
        out = [False]
        count = 0
        for pattern in patterns:
            if not pattern:
                continue
            count += 1
            state = 0
            for char in pattern:
                nxt = goto[state].get(char)
                if nxt is None:
                    nxt = len(goto)
                    goto[state][char] = nxt
                    goto.append({})
                    out.append(False)
                state = nxt
            out[state] = True
        fail = [0] * len(goto)
        queue: deque[int] = deque(goto[0].values())
        while queue:
            state = queue.popleft()
            for char, nxt in goto[state].items():
                queue.append(nxt)
                fallback = fail[state]
                while fallback and char not in goto[fallback]:
                    fallback = fail[fallback]
                target = goto[fallback].get(char, 0)
                fail[nxt] = target if target != nxt else 0
                out[nxt] = out[nxt] or out[fail[nxt]]
        self._goto = goto
        self._fail = fail
        self._out = out
        self.n_patterns = count

    def matches(self, text: str) -> bool:
        """Whether any pattern occurs as a substring of ``text``."""
        goto, fail, out = self._goto, self._fail, self._out
        state = 0
        for char in text:
            while state and char not in goto[state]:
                state = fail[state]
            state = goto[state].get(char, 0)
            if out[state]:
                return True
        return False


def alias_patterns(kb: KnowledgeBase) -> set[str]:
    """The alias-screen pattern set for one knowledge base.

    One pattern per alias: its longest whitespace-delimited word. The
    linker only matches an alias when every one of its words appears as
    a token (joined by single spaces), and every token's text is a
    literal substring of the raw sentence — so a sentence the linker
    can match always contains the alias's longest word as a substring
    of its lower-cased raw text. Plural ("kittens") and possessive
    ("Tokyo's") variants are covered for free: the base word is a
    prefix of the inflected token.
    """
    patterns: set[str] = set()
    for surface in kb.surface_forms():
        words = surface.split()
        if words:
            patterns.add(max(words, key=len))
    return patterns


class SentencePrefilter:
    """The compiled candidate screen, built once per pipeline run.

    Build it in the parent process (:meth:`from_kb`) and hand it to
    every worker's :class:`~repro.nlp.annotate.Annotator`; the
    automaton pickles with the pipeline, so pool workers receive it
    once per shard instead of recompiling it per document.
    """

    __slots__ = ("automaton",)

    def __init__(self, automaton: AhoCorasick) -> None:
        self.automaton = automaton

    @classmethod
    def from_kb(cls, kb: KnowledgeBase) -> "SentencePrefilter":
        return cls(AhoCorasick(sorted(alias_patterns(kb))))

    def alias_hit(self, raw_sentence: str) -> bool:
        """Whether the sentence might mention any KB entity."""
        return self.automaton.matches(raw_sentence.lower())


@dataclass(slots=True)
class FastPathStats:
    """Per-annotator fast-path accounting (shipped back by workers)."""

    sentences: int = 0
    skipped: int = 0
    memo_hits: int = 0
    memo_misses: int = 0
    memo_evictions: int = 0

    @property
    def skip_rate(self) -> float:
        if not self.sentences:
            return 0.0
        return self.skipped / self.sentences

    def as_counters(self) -> dict[str, int]:
        """Primitive dict for :class:`WorkerTelemetry` transport."""
        return {
            "sentences": self.sentences,
            "skipped": self.skipped,
            "memo_hits": self.memo_hits,
            "memo_misses": self.memo_misses,
            "memo_evictions": self.memo_evictions,
        }


class AnnotationMemo:
    """Bounded LRU memo for per-sentence annotation work.

    Two keyspaces: sentence records keyed on the raw sentence text
    (tokens, tags, scan, parse — all pure functions of the text), and
    link results keyed on (text, context slice) because disambiguation
    also reads the document's type-indicator counts (on the text alone
    when no match is ambiguous).
    The link table gets twice the entry bound; both evict
    least-recently-used and report evictions to the caller, which owns
    the counters (one memo may serve several annotators).
    """

    def __init__(self, max_entries: int = DEFAULT_MEMO_SIZE) -> None:
        self.max_entries = max(1, int(max_entries))
        self._entries: OrderedDict[str, Any] = OrderedDict()
        self._links: OrderedDict[tuple | str, Any] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, text: str) -> Any | None:
        entry = self._entries.get(text)
        if entry is not None:
            self._entries.move_to_end(text)
        return entry

    def put(self, text: str, entry: Any) -> bool:
        """Store one entry; returns whether an old one was evicted."""
        self._entries[text] = entry
        if len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            return True
        return False

    def get_links(self, key: tuple | str) -> Any | None:
        links = self._links.get(key)
        if links is not None:
            self._links.move_to_end(key)
        return links

    def put_links(self, key: tuple | str, links: Any) -> bool:
        """Store one link result; returns whether one was evicted."""
        self._links[key] = links
        if len(self._links) > 2 * self.max_entries:
            self._links.popitem(last=False)
            return True
        return False
