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

from dataclasses import dataclass

from . import lexicon
from .deptree import (
    ADVMOD,
    AMOD,
    APPOS,
    AUX,
    CC,
    CCOMP,
    CONJ,
    COP,
    DEP,
    DET,
    DepNode,
    DepTree,
    MARK,
    NEG,
    NSUBJ,
    POBJ,
    PREP,
    PUNCT,
    XCOMP,
)
from .tagger import tag
from .tokens import POS, Sentence, Token

_NOMINAL_TAGS = (POS.NOUN, POS.PROPN, POS.X)


@dataclass(slots=True)
class _Cursor:
    """Position tracker over the token list."""

    tokens: list[Token]
    index: int = 0

    def peek(self, offset: int = 0) -> Token | None:
        position = self.index + offset
        if 0 <= position < len(self.tokens):
            return self.tokens[position]
        return None

    def advance(self) -> Token:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def at_end(self) -> bool:
        return self.index >= len(self.tokens)

    def save(self) -> int:
        return self.index

    def restore(self, state: int) -> None:
        self.index = state


@dataclass(slots=True)
class _NounPhrase:
    """Parsed NP: head node with det/amod/advmod children attached."""

    head: DepNode
    start: int
    end: int


class DependencyParser:
    """Parses tagged sentences into :class:`DepTree` objects."""

    def parse(self, sentence: Sentence) -> DepTree:
        """Tag (if needed) and parse one sentence."""
        if all(token.pos is POS.X for token in sentence.tokens):
            tag(sentence)
        content = [
            token for token in sentence.tokens if token.pos is not POS.PUNCT
        ]
        if not content:
            return _flat_tree(sentence)
        cursor = _Cursor(content)
        root = self._parse_sentence(cursor)
        if root is None or not cursor.at_end():
            return _flat_tree(sentence)
        for token in sentence.tokens:
            if token.pos is POS.PUNCT:
                root.attach(DepNode(token), PUNCT)
        return DepTree.from_root(root)

    # ------------------------------------------------------------------
    # Sentence level
    # ------------------------------------------------------------------
    def _parse_sentence(self, cursor: _Cursor) -> DepNode | None:
        first = cursor.peek()
        if first is not None and first.pos is POS.MARK:
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
        first = cursor.peek()
        if first is None:
            return
        second = cursor.peek(1)
        # A sentence-initial adverb that does not modify a following
        # adjective is a discourse opener ("Honestly , kittens ...").
        if (
            first.pos is POS.ADV
            and second is not None
            and second.pos is not POS.ADJ
        ):
            cursor.advance()
            return
        if first.pos is POS.PREP:
            cursor.advance()
            depth = 0
            while not cursor.at_end() and depth < 4:
                token = cursor.peek()
                assert token is not None
                if token.pos in (POS.DET, POS.PRON, POS.NOUN, POS.PROPN):
                    cursor.advance()
                    depth += 1
                    continue
                break
            if depth > 0:
                return
            cursor.restore(state)

    # ------------------------------------------------------------------
    # Matrix clauses: "I (do n't) think that <clause>", "I find NP ADJ"
    # ------------------------------------------------------------------
    def _parse_matrix(self, cursor: _Cursor) -> DepNode | None:
        subject = self._parse_noun_phrase(cursor)
        if subject is None:
            return None
        aux_token: Token | None = None
        neg_token: Token | None = None
        token = cursor.peek()
        if token is not None and token.pos is POS.AUX:
            aux_token = cursor.advance()
            token = cursor.peek()
        if token is not None and token.pos is POS.NEG:
            neg_token = cursor.advance()
            token = cursor.peek()
        if token is None or token.pos is not POS.VERB:
            return None
        lemma = lexicon.OPINION_VERB_FORMS.get(token.lemma)
        if lemma is None:
            return None
        verb_token = cursor.advance()
        verb = DepNode(verb_token)
        verb.attach(subject.head, NSUBJ)
        if aux_token is not None:
            verb.attach(DepNode(aux_token), AUX)
        if neg_token is not None:
            verb.attach(DepNode(neg_token), NEG)

        nxt = cursor.peek()
        if nxt is not None and nxt.pos is POS.MARK:
            mark_token = cursor.advance()
            clause = self._parse_clause(cursor)
            if clause is None:
                return None
            clause.attach(DepNode(mark_token), MARK)
            verb.attach(clause, CCOMP)
            return verb
        if lemma in ("find", "consider"):
            small = self._parse_small_clause(cursor)
            if small is None:
                return None
            verb.attach(small, XCOMP)
            return verb
        # "I think snakes are dangerous" — bare ccomp without "that".
        clause = self._parse_clause(cursor)
        if clause is None:
            return None
        verb.attach(clause, CCOMP)
        return verb

    def _parse_small_clause(self, cursor: _Cursor) -> DepNode | None:
        """``find kittens (very) cute`` — adjective with internal subject."""
        subject = self._parse_noun_phrase(cursor)
        if subject is None:
            return None
        adjective = self._parse_adjective_group(cursor)
        if adjective is None:
            return None
        adjective.attach(subject.head, NSUBJ)
        return adjective

    # ------------------------------------------------------------------
    # Core copular clause
    # ------------------------------------------------------------------
    def _parse_clause(self, cursor: _Cursor) -> DepNode | None:
        subject = self._parse_noun_phrase(cursor)
        if subject is None:
            return None
        self._maybe_attach_appositive(cursor, subject.head)
        if cursor.at_end():
            # Bare NP sentence (a mention with no claim), possibly
            # with an appositive ("Tokyo , a big city .").
            return subject.head

        pre_negs: list[Token] = []
        token = cursor.peek()
        while token is not None and token.pos is POS.NEG:
            pre_negs.append(cursor.advance())
            token = cursor.peek()

        if token is None or token.pos is not POS.VERB:
            return None
        if token.lemma not in lexicon.COPULA_FORMS:
            return None
        cop_token = cursor.advance()
        cop_lemma = lexicon.COPULA_FORMS[cop_token.lemma]

        post_negs: list[Token] = []
        token = cursor.peek()
        while token is not None and token.pos is POS.NEG:
            post_negs.append(cursor.advance())
            token = cursor.peek()
        # "seems like a big city" — transparent "like".
        if (
            token is not None
            and token.lemma == "like"
            and cop_lemma != "be"
        ):
            cursor.advance()
            token = cursor.peek()

        predicate = self._parse_predicate(cursor)
        if predicate is None:
            return None
        predicate.attach(subject.head, NSUBJ)
        cop_node = DepNode(cop_token)
        predicate.attach(cop_node, COP)
        for neg_token in (*pre_negs, *post_negs):
            predicate.attach(DepNode(neg_token), NEG)
        self._parse_trailing_preps(cursor, predicate)
        return predicate

    def _maybe_attach_appositive(
        self, cursor: _Cursor, subject_head: DepNode
    ) -> None:
        """Attach "Tokyo , a big city , ..." style appositives.

        Commas are stripped before parsing, so the appositive shows as
        a determiner-led NP directly after the subject; it is only
        committed when what follows is a copula or the sentence end —
        otherwise the tokens are left for the clause parser.
        """
        token = cursor.peek()
        if token is None or token.pos is not POS.DET:
            return
        state = cursor.save()
        appositive = self._parse_noun_phrase(cursor)
        if appositive is None:
            cursor.restore(state)
            return
        nxt = cursor.peek()
        if nxt is None or (
            nxt.pos is POS.VERB and nxt.lemma in lexicon.COPULA_FORMS
        ):
            subject_head.attach(appositive.head, APPOS)
            return
        cursor.restore(state)

    def _parse_predicate(self, cursor: _Cursor) -> DepNode | None:
        """Either a predicate nominal (``a big city``) or an adjective
        group (``very cute and friendly``)."""
        state = cursor.save()
        nominal = self._parse_noun_phrase(cursor)
        if nominal is not None and nominal.head.token.pos in (
            POS.NOUN,
            POS.PROPN,
            POS.X,
        ):
            return nominal.head
        cursor.restore(state)
        return self._parse_adjective_group(cursor)

    def _parse_adjective_group(self, cursor: _Cursor) -> DepNode | None:
        """``(adv*) ADJ ((, ADJ)* (and ADJ))?`` with conj attachments."""
        adverbs: list[Token] = []
        token = cursor.peek()
        while token is not None and token.pos in (POS.ADV, POS.NEG):
            if token.pos is POS.NEG:
                break
            adverbs.append(cursor.advance())
            token = cursor.peek()
        if token is None or token.pos is not POS.ADJ:
            return None
        head = DepNode(cursor.advance())
        for adverb in adverbs:
            head.attach(DepNode(adverb), ADVMOD)
        # Conjoined adjectives: "fast and exciting".
        while True:
            nxt = cursor.peek()
            if nxt is None:
                break
            if nxt.pos is POS.CONJ:
                cc_token = cursor.advance()
                conjunct = self._parse_adjective_atom(cursor)
                if conjunct is None:
                    cursor.index -= 1
                    break
                head.attach(DepNode(cc_token), CC)
                head.attach(conjunct, CONJ)
                continue
            break
        return head

    def _parse_adjective_atom(self, cursor: _Cursor) -> DepNode | None:
        adverbs: list[Token] = []
        token = cursor.peek()
        while token is not None and token.pos is POS.ADV:
            adverbs.append(cursor.advance())
            token = cursor.peek()
        if token is None or token.pos is not POS.ADJ:
            for _ in adverbs:
                cursor.index -= 1
            return None
        node = DepNode(cursor.advance())
        for adverb in adverbs:
            node.attach(DepNode(adverb), ADVMOD)
        return node

    # ------------------------------------------------------------------
    # Noun phrases and PPs
    # ------------------------------------------------------------------
    def _parse_noun_phrase(self, cursor: _Cursor) -> _NounPhrase | None:
        start = cursor.save()
        det_token: Token | None = None
        token = cursor.peek()
        if token is not None and token.pos is POS.DET:
            det_token = cursor.advance()
            token = cursor.peek()

        # Each modifier is (adjective, adverbs, conjuncts) where
        # conjuncts carries coordinated adjectives with their cc token:
        # "a fast and exciting sport" -> fast with conj child exciting.
        modifiers: list[tuple[Token, list[Token], list[tuple[Token, Token]]]] = []
        while token is not None:
            if token.pos is POS.ADJ:
                adj_token = cursor.advance()
                conjuncts = self._parse_amod_conjuncts(cursor)
                modifiers.append((adj_token, [], conjuncts))
                token = cursor.peek()
                continue
            if token.pos is POS.ADV:
                # Adverb(s) then adjective: "densely populated area".
                adverb_state = cursor.save()
                adverbs = [cursor.advance()]
                inner = cursor.peek()
                while inner is not None and inner.pos is POS.ADV:
                    adverbs.append(cursor.advance())
                    inner = cursor.peek()
                if inner is not None and inner.pos is POS.ADJ:
                    adj_token = cursor.advance()
                    conjuncts = self._parse_amod_conjuncts(cursor)
                    modifiers.append((adj_token, adverbs, conjuncts))
                    token = cursor.peek()
                    continue
                cursor.restore(adverb_state)
            break

        if token is not None and token.pos is POS.PRON:
            head = DepNode(cursor.advance())
            if det_token is not None or modifiers:
                cursor.restore(start)
                return None
            return _NounPhrase(head=head, start=start, end=cursor.save())

        nominals: list[Token] = []
        while token is not None and token.pos in _NOMINAL_TAGS:
            nominals.append(cursor.advance())
            token = cursor.peek()
        if not nominals:
            cursor.restore(start)
            return None
        head = DepNode(nominals[-1])
        for other in nominals[:-1]:
            head.attach(DepNode(other), "compound")
        if det_token is not None:
            head.attach(DepNode(det_token), DET)
        for adj_token, adverbs, conjuncts in modifiers:
            adj_node = head.attach(DepNode(adj_token), AMOD)
            for adverb in adverbs:
                adj_node.attach(DepNode(adverb), ADVMOD)
            for cc_token, conj_token in conjuncts:
                adj_node.attach(DepNode(cc_token), CC)
                adj_node.attach(DepNode(conj_token), CONJ)
        return _NounPhrase(head=head, start=start, end=cursor.save())

    def _parse_amod_conjuncts(
        self, cursor: _Cursor
    ) -> list[tuple[Token, Token]]:
        """Coordinated attributive adjectives after an amod adjective.

        Only commits when the coordination is followed by another
        adjective and, further on, a nominal — so the clause-level
        coordination in "X is big and Y is small" is left alone.
        """
        conjuncts: list[tuple[Token, Token]] = []
        while True:
            token = cursor.peek()
            nxt = cursor.peek(1)
            after = cursor.peek(2)
            if (
                token is None
                or token.pos is not POS.CONJ
                or nxt is None
                or nxt.pos is not POS.ADJ
                or after is None
                or after.pos not in _NOMINAL_TAGS
            ):
                return conjuncts
            cc_token = cursor.advance()
            conjuncts.append((cc_token, cursor.advance()))

    def _parse_trailing_preps(
        self, cursor: _Cursor, predicate: DepNode
    ) -> None:
        """Attach trailing PPs (``for parking``) under the predicate."""
        while True:
            token = cursor.peek()
            if token is None or token.pos is not POS.PREP:
                return
            prep_node = DepNode(cursor.advance())
            np = self._parse_noun_phrase(cursor)
            if np is None:
                inner = cursor.peek()
                if inner is not None and inner.pos in (POS.VERB, POS.ADJ):
                    prep_node.attach(DepNode(cursor.advance()), POBJ)
                else:
                    cursor.index -= 1
                    return
            else:
                prep_node.attach(np.head, POBJ)
            predicate.attach(prep_node, PREP)


def _flat_tree(sentence: Sentence) -> DepTree:
    """Fallback parse: first token is root, the rest are flat deps.

    Negation children are still attached to the directly preceding
    token so the polarity walk remains meaningful even for sentences
    outside the supported grammar.
    """
    tokens = sentence.tokens
    root = DepNode(tokens[0], deprel="root") if tokens else DepNode(
        Token(0, "")
    )
    previous = root
    for token in tokens[1:]:
        node = DepNode(token)
        if token.pos is POS.NEG:
            previous.attach(node, NEG)
        elif token.pos is POS.PUNCT:
            root.attach(node, PUNCT)
        else:
            root.attach(node, DEP)
            previous = node
    return DepTree.from_root(root)
