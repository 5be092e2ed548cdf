"""N-gram overlap (ROUGE-1/2) and longest-common-subsequence (ROUGE-L) scores.

All functions take token sequences (see :func:`sectsum.corpus.tokenize`) and
return precision/recall/F1. Counts are clipped per n-gram type, matching the
standard recall-oriented overlap definition. ROUGE-L uses the exact
bit-parallel LCS of Allison & Dix (1986) and Hyyrö (2004), one integer
bitmask over the reference updated once per system token it holds: O(|sys|
* ceil(|ref| / 64)) word operations instead of a |sys| x |ref| table.
A :class:`Reference` counts a reference once for every score against it, and
its LCS row resumes from any earlier row (:meth:`Reference.lcs_row`), so a
selection that grows in the middle reruns only the tokens after the change.
A :class:`RunningOverlap` keeps the ROUGE-1/2 counts of the oracle's growing
selection in integer arrays and scores every candidate sentence in one array
pass.
"""

from __future__ import annotations

from bisect import bisect
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = ["RougeScore", "Reference", "RunningOverlap", "rouge_n", "rouge_l"]


@dataclass(frozen=True)
class RougeScore:
    """Precision, recall and F1; ``evaluation.seg_f1`` returns one too."""

    precision: float
    recall: float
    f1: float


def _score(overlap, n_system, n_reference):
    precision = overlap / n_system if n_system else 0.0
    recall = overlap / n_reference if n_reference else 0.0
    total = precision + recall
    return RougeScore(precision, recall,
                      2.0 * precision * recall / total if total else 0.0)


def _ngrams(tokens, n):
    """N-gram counts: unigrams keyed by the token itself, longer n-grams by
    tuples."""
    return Counter(tokens if n == 1 else zip(*(tokens[i:] for i in range(n))))


class Reference:
    """A reference summary counted once: its tokens, its n-gram counts (each
    order counted on first use) and its LCS bitmasks. :func:`rouge_n` and
    :func:`rouge_l` take one wherever they take reference tokens."""

    def __init__(self, tokens):
        self.tokens = tuple(tokens)
        self._counts = {}

    def ngrams(self, n):
        if n not in self._counts:
            self._counts[n] = _ngrams(self.tokens, n)
        return self._counts[n]

    @cached_property
    def masks(self):
        """Per token type, the bitmask of its positions in the reference."""
        masks = {}
        for j, y in enumerate(self.tokens):
            masks[y] = masks.get(y, 0) | (1 << j)
        return masks

    def lcs_row(self, system_tokens, v=None):
        """The LCS table row over the reference after ``system_tokens``,
        resumed from row ``v`` (None: the empty system's row, every bit set).

        Bit-parallel and exact (Allison & Dix 1986; Hyyrö 2004): ``v`` is one
        row of the LCS table over the reference, bit j clear where the row
        steps up at j, so the LCS length is the reference length minus the set
        bits. Each system token ``x`` updates it with ``u = v & mask[x]``,
        ``v = (v + u) | (v - u)``.
        """
        masks, full = self.masks, (1 << len(self.tokens)) - 1
        if v is None:
            v = full
        for x in system_tokens:
            if x in masks:  # any other token leaves the row as it is
                u = v & masks[x]
                v = ((v + u) | (v - u)) & full
        return v

    def lcs(self, system_tokens):
        """Length of the longest common subsequence of ``system_tokens`` and
        the reference, from :meth:`lcs_row`."""
        return len(self.tokens) - self.lcs_row(system_tokens).bit_count()


def rouge_n(system_tokens, reference, n):
    """Clipped n-gram overlap score of order ``n`` (1 for unigrams, ...)
    against reference tokens or a :class:`Reference`.

    Precision = clipped overlap / system n-grams, recall = clipped overlap /
    reference n-grams, F1 their harmonic mean. All zero when either side has
    no n-grams of order ``n``.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not isinstance(reference, Reference):
        reference = Reference(reference)
    ref_counts = reference.ngrams(n)
    overlap = sum(min(c, ref_counts.get(g, 0))
                  for g, c in _ngrams(system_tokens, n).items())
    return _score(overlap, max(len(system_tokens) - n + 1, 0),
                  max(len(reference.tokens) - n + 1, 0))


def rouge_l(system_tokens, reference):
    """Longest-common-subsequence score over the flat token sequences.

    Precision = LCS / system length, recall = LCS / reference length, F1 the
    harmonic mean. Zero when either side is empty. ``reference`` is a token
    sequence or a :class:`Reference`.
    """
    if not isinstance(reference, Reference):
        reference = Reference(reference)
    return _score(reference.lcs(system_tokens), len(system_tokens),
                  len(reference.tokens))


def _f1(overlap, n_system, n_reference):
    """``_score(...).f1`` elementwise over integer arrays (``n_reference`` one
    count), in its float order; a zero denominator gives 0.0 there too."""
    precision = np.divide(overlap, n_system, out=np.zeros(len(overlap)), where=n_system > 0)
    recall = overlap / n_reference if n_reference else np.zeros(len(overlap))
    total = precision + recall
    return np.divide(2.0 * precision * recall, total, out=np.zeros(len(overlap)),
                     where=total > 0)


class RunningOverlap:
    """The greedy oracle's scorer: clipped ROUGE-1/2 counts of a growing
    selection of a document's sentences (token sequences) against a
    :class:`Reference`, where :meth:`joined` scores every open candidate at
    once. The selection reads in document order: a sentence landing between
    selected ``a < i < b`` adds its n-grams and the junction bigrams
    (last(a), first(i)) and (last(i), first(b)), and removes (last(a),
    first(b)).

    Reference unigrams get ids 0..u-1 and bigrams u+1..u+b; id u is any other
    n-gram or a missing neighbour. ``_counts`` is the sentence x n-gram count
    matrix (one bincount), ``_pair`` maps two unigram ids to a bigram id,
    ``_before``/``_after`` hold the ids of the tokens next to each sentence in
    the selection, and ``room`` the reference count minus the selection's per
    n-gram. Sentences without tokens never enter ``spans``."""

    def __init__(self, reference, sentences):
        ids, pairs = {}, {}  # pairs: bigram id by x * (u + 1) + y
        ref1 = [ids.setdefault(t, len(ids)) for t in reference.tokens]
        u = len(ids)
        ref2 = [pairs.setdefault(x * (u + 1) + y, u + 1 + len(pairs))
                for x, y in zip(ref1, ref1[1:])]
        width = u + 1 + len(pairs)
        self._pair = np.full((u + 1, u + 1), u, dtype=np.intp)
        self._pair.flat[list(pairs)] = list(pairs.values())
        self.room = np.bincount(ref1 + ref2, minlength=width)
        self._u, self.n_reference = u, len(reference.tokens)
        self._n_bigrams = max(self.n_reference - 1, 0)
        n = len(sentences)
        self._lengths = np.array([len(s) for s in sentences], dtype=np.intp)
        # each sentence's token ids and then id u, so the bigrams that
        # straddle two sentences land in column u
        flat = np.array([ids.get(t, u) for s in sentences for t in (*s, None)], dtype=np.intp)
        rows = np.repeat(np.arange(n), self._lengths + 1)
        cells = np.concatenate((rows * width + flat,
                                rows[1:] * width + self._pair[flat[:-1], flat[1:]]))
        self._counts = np.bincount(cells, minlength=n * width).reshape(n, width)
        self._scratch = np.empty_like(self._counts)
        ends = np.cumsum(self._lengths + 1)
        self._first, self._last = flat[ends - self._lengths - 1], flat[ends - 2]
        self._before, self._after = np.full((2, n), u)
        self.spans = []  # selected sentences with tokens, in document order
        self.n_tokens = 0

    def _junctions(self, i):
        """Bigram ids of the two junctions sentence(s) ``i`` would make on
        joining the selection, and of the one it would break."""
        before, after = self._before[i], self._after[i]
        return (self._pair[before, self._first[i]], self._pair[self._last[i], after],
                self._pair[before, after])

    def joined(self, candidates):
        """ROUGE-1 and ROUGE-2 F1 arrays, the floats :func:`rouge_n` gives, if
        each of ``candidates`` (an index array, with tokens, not selected)
        joined the selection alone; one array pass, O(candidates * (u + b))."""
        u, room, rows = self._u, self.room, np.arange(len(candidates))
        # a fresh candidates x n-grams array per step would be mapped and unmapped
        # anew; "clip" writes straight into the scratch rows, "raise" would buffer
        delta = np.take(self._counts, candidates, axis=0, mode="clip",
                        out=self._scratch[:len(candidates)])
        # one junction per statement, so no (row, column) repeats within one
        for column, change in zip(self._junctions(candidates), (1, 1, -1)):
            delta[rows, column] += change
        # with count changes d, sum(min(sys + d, ref)) = sum(sys) + sum(min(d, room))
        clipped = np.minimum(delta, room, out=delta)
        overlap1 = self.n_reference - int(room[:u].sum()) + clipped[:, :u].sum(1)
        overlap2 = self._n_bigrams - int(room[u + 1:].sum()) + clipped[:, u + 1:].sum(1)
        size = self.n_tokens + self._lengths[candidates]
        return (_f1(overlap1, size, self.n_reference), _f1(overlap2, size - 1, self._n_bigrams))

    def add(self, i):
        """Add sentence ``i`` (not selected) to the selection."""
        if not self._lengths[i]:
            return
        self.room -= self._counts[i]
        for column, change in zip(self._junctions(i), (1, 1, -1)):
            self.room[column] -= change
        self.n_tokens += int(self._lengths[i])
        k = bisect(self.spans, i)
        self._after[self.spans[k - 1] + 1 if k else 0:i] = self._first[i]
        self._before[i + 1:self.spans[k] if k < len(self.spans) else None] = self._last[i]
        self.spans.insert(k, i)
