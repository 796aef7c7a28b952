"""Dictionary-based classification: SAX bag-of-words (BOSS-family-lite).

The paper's related work (Sec. IV-A) surveys the bake-off families —
"intervals, shapelets, or word dictionaries".  This module provides the
dictionary family: series are discretised with SAX (piecewise aggregate
approximation + Gaussian breakpoints, Lin et al. 2007), sliding windows
become words, per-channel word histograms are concatenated, and a ridge
classifier separates the histograms — the same pipeline shape as BOSS with
SAX in place of SFA.
"""

from __future__ import annotations

import numpy as np

from .base import RidgeFeatureClassifier
from .ridge import RidgeClassifierCV

__all__ = ["paa", "sax_words", "SAXDictionaryClassifier"]


def paa(series: np.ndarray, n_segments: int) -> np.ndarray:
    """Piecewise aggregate approximation of a 1-D series."""
    series = np.asarray(series, dtype=float)
    t = series.size
    n_segments = max(1, min(n_segments, t))
    edges = np.linspace(0, t, n_segments + 1).astype(int)
    return np.array([series[a:b].mean() for a, b in zip(edges[:-1], edges[1:])])


def _breakpoints(alphabet_size: int) -> np.ndarray:
    """Gaussian equi-probable breakpoints for the SAX alphabet."""
    from scipy.stats import norm  # SAX alone needs scipy; serving never runs it

    return norm.ppf(np.linspace(0, 1, alphabet_size + 1)[1:-1])


def sax_words(series: np.ndarray, *, window: int, word_length: int,
              alphabet_size: int) -> list[tuple[int, ...]]:
    """Sliding-window SAX words of a 1-D series.

    Each window is z-normalised, PAA-reduced to *word_length* segments and
    quantised against Gaussian breakpoints; the word is the tuple of symbol
    indices.  Flat windows (zero variance) map to the all-middle word.
    """
    series = np.asarray(series, dtype=float)
    if window > series.size:
        window = series.size
    breakpoints = _breakpoints(alphabet_size)
    words = []
    for start in range(series.size - window + 1):
        segment = series[start : start + window]
        std = segment.std()
        normalized = (segment - segment.mean()) / std if std > 1e-12 else np.zeros(window)
        reduced = paa(normalized, word_length)
        words.append(tuple(int(np.searchsorted(breakpoints, v)) for v in reduced))
    return words


class SAXDictionaryClassifier(RidgeFeatureClassifier):
    """Bag-of-SAX-words + ridge, per channel.

    Parameters follow the usual BOSS-ish ranges: *window* defaults to a
    quarter of the series, *word_length* 4 symbols, *alphabet_size* 4.
    Numerosity reduction (collapsing runs of identical words) is applied as
    in BOSS to avoid over-counting stable regions.
    """

    def __init__(self, *, window: int | None = None, word_length: int = 4,
                 alphabet_size: int = 4, numerosity_reduction: bool = True,
                 seed: int | np.random.Generator | None = None):
        if word_length < 1 or alphabet_size < 2:
            raise ValueError("need word_length >= 1 and alphabet_size >= 2")
        self.window = window
        self.word_length = int(word_length)
        self.alphabet_size = int(alphabet_size)
        self.numerosity_reduction = numerosity_reduction
        self.seed = seed
        self.ridge = RidgeClassifierCV()

    def _series_words(self, channel_series: np.ndarray, window: int):
        words = sax_words(channel_series, window=window,
                          word_length=self.word_length,
                          alphabet_size=self.alphabet_size)
        if self.numerosity_reduction:
            words = [w for i, w in enumerate(words) if i == 0 or w != words[i - 1]]
        return words

    def _histograms(self, X: np.ndarray) -> np.ndarray:
        n, m, t = X.shape
        window = self.window or max(3, t // 4)
        rows = []
        for i in range(n):
            features = np.zeros(m * len(self._vocabulary))
            for channel in range(m):
                offset = channel * len(self._vocabulary)
                for word in self._series_words(X[i, channel], window):
                    index = self._vocabulary.get(word)
                    if index is not None:
                        features[offset + index] += 1.0
            total = features.sum()
            rows.append(features / total if total else features)
        return np.asarray(rows)

    def fit(self, X, y):
        X = self._clean(X)
        self._remember_shape(X)
        y = np.asarray(y)
        window = self.window or max(3, X.shape[2] // 4)
        # Build the vocabulary from the training data only.
        seen: dict[tuple[int, ...], int] = {}
        for i in range(X.shape[0]):
            for channel in range(X.shape[1]):
                for word in self._series_words(X[i, channel], window):
                    if word not in seen:
                        seen[word] = len(seen)
        if not seen:
            raise ValueError("no SAX words extracted; series too short?")
        self._vocabulary = seen
        self.ridge.fit(self._histograms(X), y)
        return self

    def _features(self, X):
        if not hasattr(self, "_vocabulary"):
            raise RuntimeError("predict called before fit")
        X = self._clean(X)
        self._check_shape(X)
        return self._histograms(X)
