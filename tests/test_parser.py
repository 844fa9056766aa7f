"""Tests for the dependency parser — tree shapes per sentence family."""

from __future__ import annotations

import pytest

from repro.nlp import DependencyParser, tag, tokenize
from repro.nlp.deptree import (
    AMOD,
    CCOMP,
    CONJ,
    COP,
    DepTree,
    NEG,
    NSUBJ,
    PREP,
    XCOMP,
)


@pytest.fixture(scope="module")
def parse():
    parser = DependencyParser()

    def _parse(text: str) -> DepTree:
        return parser.parse(tag(tokenize(text))).tree()

    return _parse


class TestCopularClauses:
    def test_simple_predicate_adjective(self, parse):
        tree = parse("Kittens are cute.")
        assert tree.root.token.text == "cute"
        assert tree.root.child_by_rel(NSUBJ).token.text == "Kittens"
        assert tree.root.child_by_rel(COP).token.text == "are"

    def test_adverb_attaches_to_adjective(self, parse):
        tree = parse("The kitten is very cute.")
        advmods = tree.root.children_by_rel("advmod")
        assert [n.token.text for n in advmods] == ["very"]

    def test_predicate_nominal_with_amod(self, parse):
        tree = parse("Chicago is a big city.")
        assert tree.root.token.text == "city"
        amod = tree.root.child_by_rel(AMOD)
        assert amod.token.text == "big"
        assert tree.root.child_by_rel(NSUBJ).token.text == "Chicago"

    def test_negated_copular_clause(self, parse):
        tree = parse("San Francisco is not a big city.")
        assert tree.root.child_by_rel(NEG).token.text == "not"

    def test_multiword_subject_compound(self, parse):
        tree = parse("San Francisco is big.")
        subject = tree.root.child_by_rel(NSUBJ)
        assert subject.token.text == "Francisco"
        compounds = subject.children_by_rel("compound")
        assert [n.token.text for n in compounds] == ["San"]

    def test_seems_like_construction(self, parse):
        tree = parse("Chicago seems like a big city.")
        assert tree.root.token.text == "city"
        assert tree.root.child_by_rel(COP).token.text == "seems"

    def test_broad_copula(self, parse):
        tree = parse("The kitten looks cute.")
        assert tree.root.token.text == "cute"
        assert tree.root.child_by_rel(COP).token.text == "looks"


class TestEmbedding:
    def test_think_that_clause(self, parse):
        tree = parse("I think that snakes are dangerous.")
        assert tree.root.token.text == "think"
        ccomp = tree.root.child_by_rel(CCOMP)
        assert ccomp.token.text == "dangerous"
        assert ccomp.child_by_rel("mark").token.text == "that"

    def test_figure5_double_negation_structure(self, parse):
        """'I do n't think that snakes are never dangerous': negations
        on 'think' (via n't) and on 'dangerous' (via never)."""
        tree = parse("I don't think that snakes are never dangerous.")
        assert tree.root.token.text == "think"
        assert tree.root.is_negated
        ccomp = tree.root.child_by_rel(CCOMP)
        assert ccomp.token.text == "dangerous"
        assert ccomp.is_negated

    def test_bare_ccomp_without_that(self, parse):
        tree = parse("I think snakes are dangerous.")
        assert tree.root.token.text == "think"
        assert tree.root.child_by_rel(CCOMP).token.text == "dangerous"

    def test_find_small_clause(self, parse):
        tree = parse("I find kittens cute.")
        assert tree.root.token.text == "find"
        xcomp = tree.root.child_by_rel(XCOMP)
        assert xcomp.token.text == "cute"
        assert xcomp.child_by_rel(NSUBJ).token.text == "kittens"


class TestModifiersAndConjunction:
    def test_predicate_adjective_conjunction(self, parse):
        tree = parse("The game is fast and exciting.")
        assert tree.root.token.text == "fast"
        conj = tree.root.child_by_rel(CONJ)
        assert conj.token.text == "exciting"

    def test_amod_conjunction_inside_np(self, parse):
        tree = parse("Soccer is a fast and exciting sport.")
        amod = tree.root.child_by_rel(AMOD)
        assert amod.token.text == "fast"
        assert amod.child_by_rel(CONJ).token.text == "exciting"

    def test_direct_amod_on_subject(self, parse):
        tree = parse("Southern France is warm.")
        subject = tree.root.child_by_rel(NSUBJ)
        assert subject.token.text == "France"
        assert subject.child_by_rel(AMOD).token.text == "Southern"

    def test_amod_with_adverb(self, parse):
        tree = parse("Tokyo is a very big city.")
        amod = tree.root.child_by_rel(AMOD)
        assert amod.token.text == "big"
        assert amod.child_by_rel("advmod").token.text == "very"


class TestAppositives:
    def test_appositive_before_copula(self, parse):
        tree = parse("Tokyo , a big city , is wonderful .")
        subject = tree.root.child_by_rel(NSUBJ)
        appos = subject.child_by_rel("appos")
        assert appos.token.text == "city"
        assert appos.child_by_rel(AMOD).token.text == "big"

    def test_appositive_fragment(self, parse):
        tree = parse("Tokyo , a very big city .")
        appos = tree.root.child_by_rel("appos")
        assert appos is not None
        amod = appos.child_by_rel(AMOD)
        assert amod.child_by_rel("advmod").token.text == "very"

    def test_predicate_nominal_not_mistaken_for_appositive(self, parse):
        tree = parse("Tokyo is a big city .")
        assert tree.root.token.text == "city"
        assert tree.root.child_by_rel("appos") is None


class TestPrepositionalPhrases:
    def test_trailing_pp_attaches_to_predicate(self, parse):
        tree = parse("New York is bad for parking.")
        prep = tree.root.child_by_rel(PREP)
        assert prep.token.text == "for"
        assert prep.child_by_rel("pobj").token.text == "parking"

    def test_pp_on_predicate_nominal(self, parse):
        tree = parse("Tokyo is a big city in Japan.")
        assert tree.root.token.text == "city"
        assert tree.root.child_by_rel(PREP) is not None


class TestFallback:
    def test_unparseable_sentence_gets_flat_tree(self, parse):
        tree = parse("Seventeen quickly jumped under.")
        # Every token present, no crash.
        assert len(tree.nodes) >= 4

    def test_flat_tree_preserves_negation_attachment(self, parse):
        tree = parse("Nobody goes there not ever anyway")
        negs = [
            node
            for node in tree.all_nodes()
            if node.children_by_rel(NEG)
        ]
        assert negs  # "not" attached to its preceding token

    def test_empty_like_sentence(self, parse):
        tree = parse("!")
        assert tree.root is not None


class TestTreeUtilities:
    def test_path_to_root(self, parse):
        tree = parse("I think that snakes are dangerous.")
        ccomp = tree.root.child_by_rel(CCOMP)
        path = [n.token.text for n in tree.path_to_root(ccomp)]
        assert path == ["dangerous", "think"]

    def test_subtree_iteration(self, parse):
        tree = parse("Kittens are cute.")
        texts = {n.token.text for n in tree.root.subtree()}
        assert {"cute", "Kittens", "are"} <= texts

    def test_node_at(self, parse):
        tree = parse("Kittens are cute.")
        assert tree.node_at(0).token.text == "Kittens"

    def test_render_contains_all_tokens(self, parse):
        tree = parse("Kittens are cute.")
        rendering = tree.render()
        for word in ("Kittens", "are", "cute"):
            assert word in rendering
