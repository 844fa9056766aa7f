"""Deterministic dependency parser for copular and attributive clauses.

The extraction stage only consumes a specific family of tree shapes —
the three patterns of Figure 4 plus the negation/embedding structure of
Figure 5 — so instead of a general statistical parser (unavailable
offline) this module implements a recursive-descent parser over tagged
tokens that produces Stanford-style typed dependency trees for:

* copular clauses: ``Kittens are (very) cute``, ``X is a big city``,
  ``X seems like a big city``;
* attitude embeddings: ``I do n't think that snakes are dangerous``;
* small clauses: ``I find kittens cute``;
* attributive noun phrases: ``the cute cat purrs``;
* negations at any level, including double negations;
* trailing prepositional phrases: ``New York is bad for parking``.

Sentences outside this family degrade gracefully to a flat tree that no
extraction pattern matches — mirroring a real pipeline where most Web
sentences simply contain no pattern instance.
"""

from __future__ import annotations

from . import lexicon
from .deptree import (
    REL_ADVMOD, REL_AMOD, REL_APPOS, REL_AUX, REL_CC, REL_CCOMP,
    REL_COMPOUND, REL_CONJ, REL_COP, REL_DEP, REL_DET, REL_MARK, REL_NEG,
    REL_NSUBJ, REL_POBJ, REL_PREP, REL_PUNCT, REL_ROOT, REL_XCOMP,
)
from .tagger import tag
from .tokens import (
    ADJ, ADV, AUX, CONJ, DET, MARK, NEG, NOUN, PREP, PRON, PROPN, PUNCT,
    VERB, X, Sentence,
)

#: The tag the cursor reads past the last token.
END = -1

_NOMINAL_TAGS = frozenset((NOUN, PROPN, X))
_LEAD_IN_TAGS = frozenset((DET, PRON, NOUN, PROPN))


class _Cursor:
    """The parse state: a position over the sentence's
    non-punctuation tokens, and the attachments made so far.

    ``attach`` writes a token's head and label straight into the head
    list and label buffer and logs the token; ``restore`` returns to a
    saved position and resets every token attached since, so a branch
    the parser backs out of leaves nothing behind.
    """

    __slots__ = (
        "tokens", "content_tags", "tags", "lemmas", "index", "heads",
        "labels", "attached",
    )

    def __init__(self, sentence: Sentence) -> None:
        tags = sentence.tags
        self.tokens = [i for i, code in enumerate(tags) if code != PUNCT]
        self.content_tags = tags.replace(bytes((PUNCT,)), b"")
        self.tags = tags
        self.lemmas = sentence.lemmas
        self.index = 0
        size = len(sentence.texts)
        self.heads = [-1] * size
        self.labels = bytearray(size)
        self.attached: list[int] = []

    def tag(self, offset: int = 0) -> int:
        """The tag ``offset`` tokens ahead; ``END`` past the end."""
        position = self.index + offset
        if position < len(self.content_tags):
            return self.content_tags[position]
        return END

    def lemma(self) -> str:
        return self.lemmas[self.tokens[self.index]]

    def advance(self) -> int:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def at_end(self) -> bool:
        return self.index >= len(self.tokens)

    def save(self) -> tuple[int, int]:
        return self.index, len(self.attached)

    def restore(self, state: tuple[int, int]) -> None:
        self.index, kept = state
        attached = self.attached
        if len(attached) > kept:
            heads, labels = self.heads, self.labels
            for token in attached[kept:]:
                heads[token] = -1
                labels[token] = REL_DEP
            del attached[kept:]

    def attach(self, head: int, token: int, label: int) -> None:
        self.heads[token] = head
        self.labels[token] = label
        self.attached.append(token)


class DependencyParser:
    """Parses tagged sentences into dependency columns."""

    def parse(self, sentence: Sentence) -> Sentence:
        """Tag (if needed) and parse one sentence: fill its ``heads``,
        ``labels`` and ``order`` and return it."""
        if sentence.tags is None:
            tag(sentence)
        cursor = _Cursor(sentence)
        root = self._parse_sentence(cursor) if cursor.tokens else None
        if root is None or not cursor.at_end():
            cursor.restore((0, 0))
            root = _attach_flat(cursor)
        else:
            for index, code in enumerate(sentence.tags):
                if code == PUNCT:
                    cursor.attach(root, index, REL_PUNCT)
        if root is None:
            sentence.order = ()
        else:
            cursor.labels[root] = REL_ROOT
            sentence.order = _preorder(root, cursor.heads, cursor.attached)
        sentence.heads = tuple(cursor.heads)
        sentence.labels = bytes(cursor.labels)
        return sentence

    # ------------------------------------------------------------------
    # Sentence level
    # ------------------------------------------------------------------
    def _parse_sentence(self, cursor: _Cursor) -> int | None:
        if cursor.tag() == MARK:
            # A sentence-initial subordinator ("If only Chicago were
            # warm") signals a hypothetical — no assertive clause to
            # extract from; fall back to the flat tree.
            return None
        self._skip_lead_in(cursor)
        state = cursor.save()
        matrix = self._parse_matrix(cursor)
        if matrix is not None:
            return matrix
        cursor.restore(state)
        return self._parse_clause(cursor)

    def _skip_lead_in(self, cursor: _Cursor) -> None:
        """Skip openers like ``Honestly ,`` or ``In my opinion ,``.

        The skipped tokens are simply dropped from the tree — they never
        participate in any pattern and carry no negation.
        """
        state = cursor.save()
        first = cursor.tag()
        if first == END:
            return
        second = cursor.tag(1)
        # A sentence-initial adverb that does not modify a following
        # adjective is a discourse opener ("Honestly , kittens ...").
        if first == ADV and second != END and second != ADJ:
            cursor.advance()
            return
        if first == PREP:
            cursor.advance()
            depth = 0
            while depth < 4 and cursor.tag() in _LEAD_IN_TAGS:
                cursor.advance()
                depth += 1
            if depth > 0:
                return
            cursor.restore(state)

    # ------------------------------------------------------------------
    # Matrix clauses: "I (do n't) think that <clause>", "I find NP ADJ"
    # ------------------------------------------------------------------
    def _parse_matrix(self, cursor: _Cursor) -> int | None:
        subject = self._parse_noun_phrase(cursor)
        if subject is None:
            return None
        aux = neg = None
        code = cursor.tag()
        if code == AUX:
            aux = cursor.advance()
            code = cursor.tag()
        if code == NEG:
            neg = cursor.advance()
            code = cursor.tag()
        if code != VERB:
            return None
        lemma = lexicon.OPINION_VERB_FORMS.get(cursor.lemma())
        if lemma is None:
            return None
        verb = cursor.advance()
        cursor.attach(verb, subject, REL_NSUBJ)
        if aux is not None:
            cursor.attach(verb, aux, REL_AUX)
        if neg is not None:
            cursor.attach(verb, neg, REL_NEG)

        if cursor.tag() == MARK:
            mark = cursor.advance()
            clause = self._parse_clause(cursor)
            if clause is None:
                return None
            cursor.attach(clause, mark, REL_MARK)
            cursor.attach(verb, clause, REL_CCOMP)
            return verb
        if lemma in ("find", "consider"):
            small = self._parse_small_clause(cursor)
            if small is None:
                return None
            cursor.attach(verb, small, REL_XCOMP)
            return verb
        # "I think snakes are dangerous" — bare ccomp without "that".
        clause = self._parse_clause(cursor)
        if clause is None:
            return None
        cursor.attach(verb, clause, REL_CCOMP)
        return verb

    def _parse_small_clause(self, cursor: _Cursor) -> int | None:
        """``find kittens (very) cute`` — adjective with internal subject."""
        subject = self._parse_noun_phrase(cursor)
        if subject is None:
            return None
        adjective = self._parse_adjective_group(cursor)
        if adjective is None:
            return None
        cursor.attach(adjective, subject, REL_NSUBJ)
        return adjective

    # ------------------------------------------------------------------
    # Core copular clause
    # ------------------------------------------------------------------
    def _parse_clause(self, cursor: _Cursor) -> int | None:
        subject = self._parse_noun_phrase(cursor)
        if subject is None:
            return None
        self._maybe_attach_appositive(cursor, subject)
        if cursor.at_end():
            # Bare NP sentence (a mention with no claim), possibly
            # with an appositive ("Tokyo , a big city .").
            return subject

        negs: list[int] = []
        code = cursor.tag()
        while code == NEG:
            negs.append(cursor.advance())
            code = cursor.tag()
        if code != VERB:
            return None
        cop_lemma = lexicon.COPULA_FORMS.get(cursor.lemma())
        if cop_lemma is None:
            return None
        cop = cursor.advance()

        code = cursor.tag()
        while code == NEG:
            negs.append(cursor.advance())
            code = cursor.tag()
        # "seems like a big city" — transparent "like".
        if code != END and cop_lemma != "be" and cursor.lemma() == "like":
            cursor.advance()

        predicate = self._parse_predicate(cursor)
        if predicate is None:
            return None
        cursor.attach(predicate, subject, REL_NSUBJ)
        cursor.attach(predicate, cop, REL_COP)
        for neg in negs:
            cursor.attach(predicate, neg, REL_NEG)
        self._parse_trailing_preps(cursor, predicate)
        return predicate

    def _maybe_attach_appositive(
        self, cursor: _Cursor, subject: int
    ) -> None:
        """Attach "Tokyo , a big city , ..." style appositives.

        Commas are stripped before parsing, so the appositive shows as
        a determiner-led NP directly after the subject; it is only
        committed when what follows is a copula or the sentence end —
        otherwise the tokens are left for the clause parser.
        """
        if cursor.tag() != DET:
            return
        state = cursor.save()
        appositive = self._parse_noun_phrase(cursor)
        if appositive is None:
            cursor.restore(state)
            return
        code = cursor.tag()
        if code == END or (
            code == VERB and cursor.lemma() in lexicon.COPULA_FORMS
        ):
            cursor.attach(subject, appositive, REL_APPOS)
            return
        cursor.restore(state)

    def _parse_predicate(self, cursor: _Cursor) -> int | None:
        """Either a predicate nominal (``a big city``) or an adjective
        group (``very cute and friendly``)."""
        state = cursor.save()
        nominal = self._parse_noun_phrase(cursor)
        if nominal is not None and cursor.tags[nominal] in _NOMINAL_TAGS:
            return nominal
        cursor.restore(state)
        return self._parse_adjective_group(cursor)

    def _parse_adjective_group(self, cursor: _Cursor) -> int | None:
        """``(adv*) ADJ ((, ADJ)* (and ADJ))?`` with conj attachments."""
        adverbs: list[int] = []
        code = cursor.tag()
        while code == ADV:
            adverbs.append(cursor.advance())
            code = cursor.tag()
        if code != ADJ:
            return None
        head = cursor.advance()
        for adverb in adverbs:
            cursor.attach(head, adverb, REL_ADVMOD)
        # Conjoined adjectives: "fast and exciting".
        while cursor.tag() == CONJ:
            cc = cursor.advance()
            conjunct = self._parse_adjective_atom(cursor)
            if conjunct is None:
                cursor.index -= 1
                break
            cursor.attach(head, cc, REL_CC)
            cursor.attach(head, conjunct, REL_CONJ)
        return head

    def _parse_adjective_atom(self, cursor: _Cursor) -> int | None:
        adverbs: list[int] = []
        while cursor.tag() == ADV:
            adverbs.append(cursor.advance())
        if cursor.tag() != ADJ:
            cursor.index -= len(adverbs)
            return None
        node = cursor.advance()
        for adverb in adverbs:
            cursor.attach(node, adverb, REL_ADVMOD)
        return node

    # ------------------------------------------------------------------
    # Noun phrases and PPs
    # ------------------------------------------------------------------
    def _parse_noun_phrase(self, cursor: _Cursor) -> int | None:
        """An NP's head, with its det/amod/advmod/compound children
        attached."""
        start = cursor.save()
        det = None
        code = cursor.tag()
        if code == DET:
            det = cursor.advance()
            code = cursor.tag()

        # Each modifier is (adjective, adverbs, conjuncts) where
        # conjuncts carries coordinated adjectives with their cc token:
        # "a fast and exciting sport" -> fast with conj child exciting.
        modifiers: list[tuple[int, list[int], list[tuple[int, int]]]] = []
        while True:
            if code == ADJ:
                adjective = cursor.advance()
                conjuncts = self._parse_amod_conjuncts(cursor)
                modifiers.append((adjective, [], conjuncts))
                code = cursor.tag()
                continue
            if code == ADV:
                # Adverb(s) then adjective: "densely populated area".
                adverb_state = cursor.save()
                adverbs = [cursor.advance()]
                while cursor.tag() == ADV:
                    adverbs.append(cursor.advance())
                if cursor.tag() == ADJ:
                    adjective = cursor.advance()
                    conjuncts = self._parse_amod_conjuncts(cursor)
                    modifiers.append((adjective, adverbs, conjuncts))
                    code = cursor.tag()
                    continue
                cursor.restore(adverb_state)
            break

        if code == PRON:
            head = cursor.advance()
            if det is not None or modifiers:
                cursor.restore(start)
                return None
            return head

        nominals: list[int] = []
        while code in _NOMINAL_TAGS:
            nominals.append(cursor.advance())
            code = cursor.tag()
        if not nominals:
            cursor.restore(start)
            return None
        head = nominals.pop()
        for other in nominals:
            cursor.attach(head, other, REL_COMPOUND)
        if det is not None:
            cursor.attach(head, det, REL_DET)
        for adjective, adverbs, conjuncts in modifiers:
            cursor.attach(head, adjective, REL_AMOD)
            for adverb in adverbs:
                cursor.attach(adjective, adverb, REL_ADVMOD)
            for cc, conjunct in conjuncts:
                cursor.attach(adjective, cc, REL_CC)
                cursor.attach(adjective, conjunct, REL_CONJ)
        return head

    def _parse_amod_conjuncts(
        self, cursor: _Cursor
    ) -> list[tuple[int, int]]:
        """Coordinated attributive adjectives after an amod adjective.

        Only commits when the coordination is followed by another
        adjective and, further on, a nominal — so the clause-level
        coordination in "X is big and Y is small" is left alone.
        """
        conjuncts: list[tuple[int, int]] = []
        while (
            cursor.tag() == CONJ
            and cursor.tag(1) == ADJ
            and cursor.tag(2) in _NOMINAL_TAGS
        ):
            cc = cursor.advance()
            conjuncts.append((cc, cursor.advance()))
        return conjuncts

    def _parse_trailing_preps(
        self, cursor: _Cursor, predicate: int
    ) -> None:
        """Attach trailing PPs (``for parking``) under the predicate."""
        while cursor.tag() == PREP:
            prep = cursor.advance()
            np = self._parse_noun_phrase(cursor)
            if np is None:
                code = cursor.tag()
                if code == VERB or code == ADJ:
                    cursor.attach(prep, cursor.advance(), REL_POBJ)
                else:
                    cursor.index -= 1
                    return
            else:
                cursor.attach(prep, np, REL_POBJ)
            cursor.attach(predicate, prep, REL_PREP)


def _attach_flat(cursor: _Cursor) -> int | None:
    """Fallback parse: first token is root, the rest are flat deps.

    Negation children are still attached to the directly preceding
    token so the polarity walk remains meaningful even for sentences
    outside the supported grammar. ``None`` for an empty sentence.
    """
    tags = cursor.tags
    if not tags:
        return None
    previous = 0
    for index in range(1, len(tags)):
        code = tags[index]
        if code == NEG:
            cursor.attach(previous, index, REL_NEG)
        elif code == PUNCT:
            cursor.attach(0, index, REL_PUNCT)
        else:
            cursor.attach(0, index, REL_DEP)
            previous = index
    return 0


def _preorder(
    root: int, heads: list[int], attached: list[int]
) -> tuple[int, ...]:
    """The tree's tokens in pre-order, children in attachment order."""
    # Each node's children, last attached first: the order the stack
    # below must push them in.
    children: dict[int, list[int]] = {}
    for token in reversed(attached):
        head = heads[token]
        if head in children:
            children[head].append(token)
        else:
            children[head] = [token]
    order = []
    stack = [root]
    while stack:
        node = stack.pop()
        order.append(node)
        if node in children:
            stack.extend(children[node])
    return tuple(order)
