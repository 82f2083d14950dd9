"""Zipfian vocabulary generation and sampling.

Natural-language collections have Zipf-distributed word frequencies; the
paper's PR-granularity variance ("the PR sub-task granularities vary
drastically based on the frequencies of the keywords in the given
sub-collection", Section 6.2) is a direct consequence.  The synthetic
corpus therefore samples its running text from a Zipf distribution over a
generated pseudo-word vocabulary, with per-sub-collection *topic bias* so
that document frequencies differ across sub-collections the way news topics
do.
"""

from __future__ import annotations

import numpy as np

__all__ = ["make_vocabulary", "ZipfSampler"]

#: Fewest uniforms one refill draws (see :meth:`ZipfSampler.take`).
_BLOCK = 4096

_ONSETS = [
    "b", "br", "c", "ch", "cl", "d", "dr", "f", "fl", "g", "gr", "h", "j",
    "k", "l", "m", "n", "p", "pl", "pr", "qu", "r", "s", "sh", "sl", "st",
    "t", "th", "tr", "v", "w",
]
_NUCLEI = ["a", "e", "i", "o", "u", "ai", "ea", "ee", "io", "ou"]
_CODAS = ["", "b", "d", "g", "k", "l", "m", "n", "nd", "nt", "p", "r", "s", "st", "t"]


def _pick(rng: np.random.Generator, seq: list[str]) -> str:
    """``rng.choice(seq)`` without converting ``seq`` to an array per call
    (it draws the same one bounded integer)."""
    return seq[int(rng.integers(0, len(seq)))]


def _pseudo_word(rng: np.random.Generator, n_syllables: int) -> str:
    parts = []
    for _ in range(n_syllables):
        parts.append(_pick(rng, _ONSETS))
        parts.append(_pick(rng, _NUCLEI))
    parts.append(_pick(rng, _CODAS))
    return "".join(parts)


def make_vocabulary(size: int, seed: int = 0) -> list[str]:
    """Generate ``size`` distinct pronounceable pseudo-words.

    Shorter words are assigned to lower (more frequent) ranks, mimicking
    the length/frequency anticorrelation of natural language — which also
    makes the keyword-selection heuristic ("longer word = rarer") sound on
    this corpus.
    """
    rng = np.random.default_rng(seed)
    words: list[str] = []
    seen: set[str] = set()
    # Frequent strata get 1-2 syllables, rare strata up to 4.
    while len(words) < size:
        frac = len(words) / size
        n_syll = 1 + int(frac * 3) + int(rng.integers(0, 2))
        w = _pseudo_word(rng, max(1, min(4, n_syll)))
        if w not in seen and len(w) >= 2:
            seen.add(w)
            words.append(w)
    return words


class ZipfSampler:
    """Samples word indices from a (possibly topic-biased) Zipf law.

    Parameters
    ----------
    vocab_size:
        Number of word types.
    exponent:
        Zipf exponent ``s`` (≈1 for natural text).
    topic_shift:
        Optional permutation bias: a value in [0, 1) rotating a fraction
        of the mid-frequency vocabulary, so two samplers with different
    shifts share function words but differ in topical vocabulary.
    seed:
        RNG seed for reproducibility.

    Draws are made in blocks of at least ``_BLOCK`` uniforms, each mapped
    to word indices with one ``searchsorted``, and handed out in order.
    PCG64 doubles are sequential, so any split of the draws yields the
    same values: ``sample(a)`` then ``sample(b)`` returns what
    ``rng.random(a)`` then ``rng.random(b)`` map to.
    """

    def __init__(
        self,
        vocab_size: int,
        exponent: float = 1.05,
        topic_shift: float = 0.0,
        seed: int = 0,
    ) -> None:
        if vocab_size < 10:
            raise ValueError("vocabulary too small")
        if not 0.0 <= topic_shift < 1.0:
            raise ValueError("topic_shift must be in [0, 1)")
        self.vocab_size = vocab_size
        self.exponent = exponent
        self.rng = np.random.default_rng(seed)

        ranks = np.arange(1, vocab_size + 1, dtype=np.float64)
        weights = ranks**-exponent
        probs = weights / weights.sum()

        # Topic bias: rotate the tail (everything beyond the top 5 %) by a
        # shift-dependent offset so topical words swap frequency strata.
        order = np.arange(vocab_size)
        if topic_shift > 0.0:
            head = max(10, vocab_size // 20)
            tail = order[head:]
            offset = int(topic_shift * len(tail))
            order = np.concatenate([order[:head], np.roll(tail, offset)])
        self._word_for_slot = order
        self._cum = np.cumsum(probs)
        #: Drawn word indices not handed out yet start at ``_next``.
        self._block: list[int] = []
        self._next = 0

    def take(self, n: int) -> list[int]:
        """The next ``n`` word indices, as a list (inverse-CDF sampling)."""
        if n < 0:
            raise ValueError("cannot draw a negative number of words")
        end = self._next + n
        if end > len(self._block):
            rest = self._block[self._next :]
            u = self.rng.random(max(_BLOCK, n - len(rest)))
            slots = np.searchsorted(self._cum, u, side="right")
            words = self._word_for_slot[np.minimum(slots, self.vocab_size - 1)]
            self._block = rest + words.tolist()
            self._next, end = 0, n
        out = self._block[self._next : end]
        self._next = end
        return out

    def sample(self, n: int) -> np.ndarray:
        """Draw ``n`` word indices, as an array."""
        return np.array(self.take(n), dtype=self._word_for_slot.dtype)
