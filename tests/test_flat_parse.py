"""Property tests: the parser's columns encode one well-formed tree.

A parse lives on its sentence record as a head index and a relation
code per token plus the tree's pre-order. Over random token sequences
(lexicon words, capitalised names, punctuation, clitics) the columns
must describe a single rooted tree, the pre-order must be that tree's
pre-order, and the negation count read from the columns must equal a
recount along the node view's path to the root.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.extraction import negation_count
from repro.nlp import DependencyParser, lexicon, tokenize
from repro.nlp.deptree import NEG, REL_DEP, REL_ROOT

PROFILE = settings(max_examples=50, deadline=None, derandomize=True)

LEXICON_WORDS = sorted(
    set().union(
        lexicon.NEGATION_FORMS,
        lexicon.AUX_DO_FORMS,
        lexicon.COPULA_FORMS,
        lexicon.OPINION_VERB_FORMS,
        lexicon.DETERMINERS,
        lexicon.PRONOUNS,
        lexicon.ADVERBS,
        lexicon.ADJECTIVES,
        lexicon.PREPOSITIONS,
        lexicon.COORDINATORS,
        lexicon.COMPLEMENTIZERS,
        lexicon.TYPE_NOUNS,
        lexicon.COMMON_NOUNS,
    )
)

names = st.builds(
    lambda syllables: "".join(syllables).capitalize(),
    st.lists(
        st.builds(
            str.__add__,
            st.sampled_from("bdfgkmnprstvz"),
            st.sampled_from("aeiou"),
        ),
        min_size=1,
        max_size=3,
    ),
)

words = st.one_of(
    st.sampled_from(LEXICON_WORDS),
    names,
    st.sampled_from(list(".,!?;:()\"'")),
    st.sampled_from(("don't", "isn't", "aren't", "n't", "'s", "like")),
)

sentences = st.lists(words, min_size=1, max_size=16).map(" ".join)

PARSER = DependencyParser()


@PROFILE
@given(text=sentences)
def test_columns_encode_one_rooted_tree(text):
    sentence = PARSER.parse(tokenize(text))
    heads, labels, order = sentence.heads, sentence.labels, sentence.order
    size = len(sentence)
    assert len(heads) == len(labels) == size
    assert all(-1 <= head < size for head in heads)
    roots = [i for i in range(size) if labels[i] == REL_ROOT]
    assert len(roots) == (1 if size else 0)
    assert all(heads[root] == -1 for root in roots)
    outside = [i for i in range(size) if heads[i] == -1 and i not in roots]
    assert all(labels[i] == REL_DEP for i in outside)
    # No token is its own ancestor: every walk up ends at the root.
    for token in range(size):
        seen = set()
        while heads[token] != -1:
            assert token not in seen
            seen.add(token)
            token = heads[token]
    # The pre-order covers exactly the tree's tokens, once each.
    in_tree = {i for i in range(size) if heads[i] != -1} | set(roots)
    assert sorted(order) == sorted(in_tree)
    if size:
        assert order[0] == roots[0]


@PROFILE
@given(text=sentences)
def test_preorder_and_negations_agree_with_the_node_view(text):
    sentence = PARSER.parse(tokenize(text))
    tree = sentence.tree()
    if tree is None:
        assert len(sentence) == 0
        return
    # The view is built from the order; a depth-first walk of it
    # visits the same sequence only if the order is a pre-order.
    assert [node.token.index for node in tree.root.subtree()] == list(
        sentence.order
    )
    for index in sentence.order:
        path = tree.path_to_root(tree.node_at(index))
        assert negation_count(sentence, index) == sum(
            len(node.children_by_rel(NEG)) for node in path
        )
