"""Tests for Zipf vocabulary generation and sampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus import ZipfSampler, make_vocabulary


class TestVocabulary:
    def test_size_and_uniqueness(self):
        vocab = make_vocabulary(500, seed=1)
        assert len(vocab) == 500
        assert len(set(vocab)) == 500

    def test_deterministic(self):
        assert make_vocabulary(200, seed=5) == make_vocabulary(200, seed=5)

    def test_different_seeds_differ(self):
        assert make_vocabulary(200, seed=1) != make_vocabulary(200, seed=2)

    def test_words_are_lowercase_alpha(self):
        for w in make_vocabulary(300, seed=3):
            assert w.isalpha()
            assert w == w.lower()

    def test_frequent_words_shorter_on_average(self):
        vocab = make_vocabulary(2000, seed=4)
        head = np.mean([len(w) for w in vocab[:200]])
        tail = np.mean([len(w) for w in vocab[-200:]])
        assert head < tail


class TestZipfSampler:
    def test_sample_shape_and_range(self):
        s = ZipfSampler(1000, seed=0)
        idx = s.sample(5000)
        assert idx.shape == (5000,)
        assert idx.min() >= 0
        assert idx.max() < 1000

    def test_rank_frequency_is_zipf_like(self):
        s = ZipfSampler(2000, exponent=1.0, seed=1)
        idx = s.sample(200_000)
        counts = np.bincount(idx, minlength=2000)
        # Top word should appear far more often than the 100th word —
        # roughly by the rank ratio for exponent 1.
        ratio = counts[0] / max(1, counts[99])
        assert 40 < ratio < 250

    def test_topic_shift_changes_tail_not_head(self):
        a = ZipfSampler(1000, topic_shift=0.0, seed=2)
        b = ZipfSampler(1000, topic_shift=0.5, seed=2)
        ia = a.sample(50_000)
        ib = b.sample(50_000)
        ca = np.bincount(ia, minlength=1000)
        cb = np.bincount(ib, minlength=1000)
        head = slice(0, 50)
        # Head (function-word) frequencies stay similar.
        assert np.corrcoef(ca[head], cb[head])[0, 1] > 0.95
        # Tail frequencies get rearranged.
        tail = slice(100, 1000)
        assert np.corrcoef(ca[tail], cb[tail])[0, 1] < 0.9

    def test_seed_determinism(self):
        a = ZipfSampler(500, seed=7).sample(100)
        b = ZipfSampler(500, seed=7).sample(100)
        assert (a == b).all()

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            ZipfSampler(5)
        with pytest.raises(ValueError):
            ZipfSampler(100, topic_shift=1.0)

    @given(shift=st.floats(min_value=0.0, max_value=0.99))
    @settings(max_examples=20, deadline=None)
    def test_probabilities_always_valid(self, shift):
        s = ZipfSampler(200, topic_shift=shift, seed=0)
        idx = s.sample(1000)
        assert ((idx >= 0) & (idx < 200)).all()
