"""Sentence splitting and tokenization.

Deliberately simple: the corpus is machine-rendered English, so a
regex-based splitter with clitic handling (``don't`` -> ``do`` +
``n't``) covers the input space. The tokenizer is still written
defensively (abbreviation-safe splitting, punctuation isolation) so
hand-typed example text also parses.
"""

from __future__ import annotations

import re

from .tokens import Sentence

_SENTENCE_BOUNDARY = re.compile(r"(?<=[.!?])\s+")
#: Where a boundary can be; most documents have none (one sentence).
_SENTENCE_END = re.compile(r"[.!?]\s")
_TOKEN = re.compile(
    r"n't|'s|'re|'ve|'ll|'d|[A-Za-z]+(?:-[A-Za-z]+)*|\d+(?:[.,]\d+)*|[.,!?;:()\"']"
)
_CLITIC_SPLIT = re.compile(r"(?i)^([a-z]+)(n't)$")


def split_sentences(text: str) -> list[str]:
    """Split raw text into sentence strings."""
    text = text.strip()
    if _SENTENCE_END.search(text) is None:
        return [text] if text else []
    return list(filter(None, map(str.strip, _SENTENCE_BOUNDARY.split(text))))


def tokenize(sentence_text: str) -> Sentence:
    """Tokenize one sentence string into a :class:`Sentence` record.

    Contracted negations are split into the host verb and ``n't``
    (lemma ``not``) so the parser sees a dedicated negation token, as
    Stanford-style pipelines do.
    """
    texts: list[str] = []
    lemmas: list[str] = []
    for chunk in sentence_text.split():
        if chunk.isalpha() and chunk.isascii():
            # A plain word is its own single token.
            texts.append(chunk)
            lemmas.append(chunk.lower())
            continue
        clitic = _CLITIC_SPLIT.match(chunk.strip("\"'().,!?;:"))
        if clitic:
            pieces = [clitic.group(1), clitic.group(2)]
            trailing = _trailing_punct(chunk)
            if trailing:
                pieces.append(trailing)
        else:
            pieces = _TOKEN.findall(chunk)
        for text in pieces:
            lemma = text.lower()
            if lemma == "n't":
                lemma = "not"
            texts.append(text)
            lemmas.append(lemma)
    return Sentence(tuple(texts), tuple(lemmas))


def tokenize_document(text: str) -> list[Sentence]:
    """Split and tokenize a whole document."""
    return [tokenize(part) for part in split_sentences(text)]


def _trailing_punct(chunk: str) -> str | None:
    stripped = chunk.rstrip("\"')")
    if stripped and stripped[-1] in ".,!?;:":
        return stripped[-1]
    return None
