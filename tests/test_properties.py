"""Property-based tests (hypothesis) on core invariants."""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    EMLearner,
    EvidenceCounts,
    ModelParameters,
    UserBehaviorModel,
)

parameters = st.builds(
    ModelParameters,
    agreement=st.floats(0.55, 0.99),
    rate_positive=st.floats(0.1, 200.0),
    rate_negative=st.floats(0.1, 200.0),
)

counts = st.builds(
    EvidenceCounts,
    positive=st.integers(0, 500),
    negative=st.integers(0, 500),
)


class TestModelInvariants:
    @given(params=parameters, evidence=counts)
    def test_posterior_is_probability(self, params, evidence):
        posterior = UserBehaviorModel(params).posterior_positive(evidence)
        assert 0.0 <= posterior <= 1.0
        assert not math.isnan(posterior)

    @given(params=parameters, evidence=counts)
    def test_posteriors_of_complementary_classes_sum_to_one(
        self, params, evidence
    ):
        """Pr(D=+|C) + Pr(D=-|C) = 1 by construction: verify through
        the two log-likelihood branches."""
        model = UserBehaviorModel(params)
        log_pos = model.log_likelihood(evidence, True)
        log_neg = model.log_likelihood(evidence, False)
        posterior = model.posterior_positive(evidence)
        if log_pos > -math.inf or log_neg > -math.inf:
            complement = 1.0 / (1.0 + math.exp(min(log_pos - log_neg, 700)))
            assert posterior + complement == (
                1.0
            ) or abs(posterior + complement - 1.0) < 1e-9

    @given(params=parameters, evidence=counts)
    def test_more_positive_evidence_never_lowers_posterior(
        self, params, evidence
    ):
        model = UserBehaviorModel(params)
        base = model.posterior_positive(evidence)
        bumped = model.posterior_positive(
            EvidenceCounts(evidence.positive + 1, evidence.negative)
        )
        # Adding one positive statement moves the posterior toward the
        # class with the higher positive rate. When the agreement is
        # above 0.5 and rate_positive is shared, lambda++ > lambda+-
        # always holds, so the posterior cannot decrease.
        assert bumped >= base - 1e-12

    @given(params=parameters)
    def test_rates_are_consistent_with_parameters(self, params):
        rates = params.poisson_rates()
        assert rates.pos_given_pos + rates.pos_given_neg == (
            params.rate_positive
        ) or abs(
            rates.pos_given_pos
            + rates.pos_given_neg
            - params.rate_positive
        ) < 1e-9
        assert rates.pos_given_pos >= rates.pos_given_neg  # pA > 0.5


class TestEMInvariants:
    @settings(max_examples=25, deadline=None)
    @given(
        data=st.lists(counts, min_size=2, max_size=40),
    )
    def test_em_always_returns_valid_parameters(self, data):
        result = EMLearner(max_iterations=10).fit(data)
        params = result.parameters
        assert 0.5 < params.agreement < 1.0
        assert params.rate_positive >= 0.0
        assert params.rate_negative >= 0.0
        assert len(result.responsibilities) == len(data)
        assert all(0.0 <= r <= 1.0 for r in result.responsibilities)

    @settings(max_examples=15, deadline=None)
    @given(data=st.lists(counts, min_size=2, max_size=25))
    def test_em_deterministic(self, data):
        first = EMLearner(max_iterations=5).fit(data)
        second = EMLearner(max_iterations=5).fit(data)
        assert first.parameters == second.parameters


class TestCounterInvariants:
    @given(
        entries=st.lists(
            st.tuples(
                st.sampled_from(["a", "b", "c"]),
                st.booleans(),
            ),
            max_size=60,
        )
    )
    def test_counter_totals_match_inserts(self, entries):
        from repro.core import Polarity, SubjectiveProperty
        from repro.extraction import EvidenceCounter, EvidenceStatement

        counter = EvidenceCounter()
        for entity, positive in entries:
            counter.add(
                EvidenceStatement(
                    entity_id=f"/animal/{entity}",
                    entity_type="animal",
                    property=SubjectiveProperty("cute"),
                    polarity=(
                        Polarity.POSITIVE if positive else Polarity.NEGATIVE
                    ),
                    pattern="acomp",
                )
            )
        assert counter.n_statements == len(entries)
        total = sum(
            counts.total
            for key in counter.keys()
            for counts in counter.counts_for(key).values()
        )
        assert total == len(entries)

    @given(
        left_entries=st.lists(st.integers(0, 20), max_size=20),
        right_entries=st.lists(st.integers(0, 20), max_size=20),
    )
    def test_merge_is_additive(self, left_entries, right_entries):
        from repro.core import Polarity, SubjectiveProperty
        from repro.extraction import EvidenceCounter, EvidenceStatement

        def build(values):
            counter = EvidenceCounter()
            for value in values:
                counter.add(
                    EvidenceStatement(
                        entity_id=f"/animal/e{value}",
                        entity_type="animal",
                        property=SubjectiveProperty("cute"),
                        polarity=Polarity.POSITIVE,
                        pattern="acomp",
                    )
                )
            return counter

        left = build(left_entries)
        right = build(right_entries)
        left.merge(right)
        assert left.n_statements == len(left_entries) + len(right_entries)


class TestTokenizerInvariants:
    @given(
        words=st.lists(
            st.text(
                alphabet=st.characters(
                    whitelist_categories=("Ll", "Lu")
                ),
                min_size=1,
                max_size=12,
            ),
            min_size=1,
            max_size=15,
        )
    )
    def test_tokenizer_never_crashes_and_indexes_sequentially(self, words):
        from repro.nlp import tokenize

        sentence = tokenize(" ".join(words))
        assert [t.index for t in sentence.tokens] == list(
            range(len(sentence.tokens))
        )

    @given(
        words=st.lists(
            st.sampled_from(
                ["kittens", "are", "not", "cute", "the", "very",
                 "big", "city", "I", "think", "that", "never"]
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_parser_total_on_arbitrary_word_salad(self, words):
        from repro.nlp import DependencyParser, tag, tokenize

        sentence = tag(tokenize(" ".join(words) + " ."))
        tree = DependencyParser().parse(sentence).tree()
        assert tree.root is not None
        # All non-dropped nodes map back to token indices.
        for index, node in tree.nodes.items():
            assert node.token.index == index
