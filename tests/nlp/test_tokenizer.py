"""Tests for the offset-preserving tokenizer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nlp import Token, is_capitalized, sentences, tokenize
from repro.nlp.tokenizer import is_number_text


class TestTokenize:
    def test_simple_sentence(self):
        tokens = tokenize("The cat sat.")
        assert [t.text for t in tokens] == ["The", "cat", "sat", "."]

    def test_offsets_point_into_source(self):
        text = "Where is the Taj Mahal?"
        for tok in tokenize(text):
            assert text[tok.start : tok.end] == tok.text

    def test_numbers_with_separators(self):
        tokens = tokenize("about 1,234.56 units")
        assert "1,234.56" in [t.text for t in tokens]

    def test_money_and_percent(self):
        texts = [t.text for t in tokenize("$3 million is 12% of it")]
        assert "$3" in texts
        assert "12%" in texts

    def test_internal_apostrophe_kept(self):
        texts = [t.text for t in tokenize("Tourette's Syndrome")]
        assert "Tourette's" in texts

    def test_punctuation_split_individually(self):
        texts = [t.text for t in tokenize("wait, (really)?")]
        assert texts == ["wait", ",", "(", "really", ")", "?"]

    def test_empty_string(self):
        assert tokenize("") == []

    def test_whitespace_only(self):
        assert tokenize("  \n\t ") == []

    def test_token_len_is_span_length(self):
        tok = tokenize("hello")[0]
        assert len(tok) == 5

    def test_is_word(self):
        tokens = tokenize("cat , 42")
        assert [tok.is_word for tok in tokens] == [True, False, False]

    @given(st.text(max_size=300))
    @settings(max_examples=150, deadline=None)
    def test_offsets_always_consistent(self, text):
        previous_end = 0
        for tok in tokenize(text):
            assert text[tok.start : tok.end] == tok.text
            assert tok.start >= previous_end
            previous_end = tok.end


class TestSentences:
    def test_two_sentences(self):
        text = "First sentence here. Second one follows."
        spans = sentences(text)
        assert len(spans) == 2
        assert text[spans[0][0] : spans[0][1]].startswith("First")
        assert text[spans[1][0] : spans[1][1]].startswith("Second")

    def test_single_sentence_no_trailing_space(self):
        assert len(sentences("Only one sentence.")) == 1

    def test_empty_text(self):
        assert sentences("") == []

    def test_question_marks_split(self):
        spans = sentences("Is it true? Yes it is.")
        assert len(spans) == 2


class TestHelpers:
    def test_is_capitalized(self):
        toks = tokenize("Paris loves paris")
        assert is_capitalized(toks[0])
        assert not is_capitalized(toks[2])

    def test_is_capitalized_false_for_number(self):
        tok = tokenize("1999")[0]
        assert not is_capitalized(tok)

    def test_is_number_token(self):
        toks = tokenize("42 $5 7% cats")
        assert [is_number_text(tok.text) for tok in toks] == [True, True, True, False]
