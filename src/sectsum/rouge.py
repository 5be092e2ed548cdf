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
A :class:`Selection` keeps the ROUGE-1/2 counts of a growing selection of a
document's sentences in dicts, O(tokens) per sentence added. A
:class:`RunningOverlap` keeps them for the oracle's selections of a group of
documents in integer arrays and scores every candidate in one array pass.
"""

from __future__ import annotations

from bisect import bisect
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat

import numpy as np

__all__ = ["RougeScore", "Reference", "Selection", "RunningOverlap", "rouge_n", "rouge_l"]


@dataclass(frozen=True)
class RougeScore:
    """Precision, recall and F1; ``evaluation.seg_f1`` returns one too."""

    precision: float
    recall: float
    f1: float


def _prf(overlap, n_system, n_reference):
    """A :class:`RougeScore`'s fields as a plain tuple, which is faster to build."""
    precision = overlap / n_system if n_system else 0.0
    recall = overlap / n_reference if n_reference else 0.0
    total = precision + recall
    return precision, recall, 2.0 * precision * recall / total if total else 0.0


def _ngrams(tokens, n):
    """N-gram counts: unigrams keyed by the token itself, longer n-grams by
    tuples."""
    if n == 1:
        return Counter(tokens)
    return Counter(zip(tokens, tokens[1:]) if n == 2 else zip(*(tokens[i:] for i in range(n))))


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
    ref_counts, counts = reference.ngrams(n), _ngrams(system_tokens, n)
    overlap = sum(map(min, counts.values(), map(ref_counts.get, counts, repeat(0))))
    return RougeScore(*_prf(overlap, max(len(system_tokens) - n + 1, 0),
                            max(len(reference.tokens) - n + 1, 0)))


def rouge_l(system_tokens, reference):
    """Longest-common-subsequence score over the flat token sequences.

    Precision = LCS / system length, recall = LCS / reference length, F1 the
    harmonic mean. Zero when either side is empty. ``reference`` is a token
    sequence or a :class:`Reference`.
    """
    if not isinstance(reference, Reference):
        reference = Reference(reference)
    return RougeScore(*_prf(reference.lcs(system_tokens), len(system_tokens),
                            len(reference.tokens)))


def _join(counts, reference_counts, grams):
    """Add ``grams`` to ``counts``, a selection's counts of the reference
    n-grams; returns the clipped overlap they add."""
    added = 0
    for g in grams:
        if g in reference_counts:
            c = counts.get(g, 0)
            if c < reference_counts[g]:
                added += 1
            counts[g] = c + 1
    return added


class Selection:
    """A growing selection of a document's sentences, read in document order,
    with its clipped ROUGE-1/2 overlap against a :class:`Reference` kept in
    dicts. A sentence landing between selected ``a < i < b`` adds its n-grams
    and the junction bigrams (last(a), first(i)) and (last(i), first(b)), and
    removes (last(a), first(b)). ``spans`` holds the selected sentences with
    tokens, in document order, and ``tokens`` their token sequences."""

    def __init__(self, reference):
        self._ref1, self._ref2 = reference.ngrams(1), reference.ngrams(2)
        self._n_reference = len(reference.tokens)
        self._counts1, self._counts2, self.spans, self.tokens = {}, {}, [], []
        self.overlap1 = self.overlap2 = self.size = 0

    def add(self, i, tokens):
        """Add sentence ``i`` (not selected) with its ``tokens``; returns its
        place in ``spans``, or None for a sentence without tokens."""
        if not tokens:
            return None
        selected, ref2, counts2 = self.tokens, self._ref2, self._counts2
        p = bisect(self.spans, i)
        # a missing neighbour is None, and no reference bigram holds None
        before = selected[p - 1][-1] if p else None
        after = selected[p][0] if p < len(selected) else None
        self.overlap1 += _join(self._counts1, self._ref1, tokens)
        self.overlap2 += _join(counts2, ref2, [
            (before, tokens[0]), *zip(tokens, tokens[1:]), (tokens[-1], after)])
        if (before, after) in ref2:  # the junction it breaks
            counts2[before, after] -= 1
            if counts2[before, after] < ref2[before, after]:
                self.overlap2 -= 1
        self.size += len(tokens)
        self.spans.insert(p, i)
        selected.insert(p, tokens)
        return p

    def f1(self):
        """ROUGE-1 and ROUGE-2 F1, the floats :func:`rouge_n` gives on the selection."""
        return (_prf(self.overlap1, self.size, self._n_reference)[2],
                _prf(self.overlap2, max(self.size - 1, 0), max(self._n_reference - 1, 0))[2])


def _f1(overlap, n_system, n_reference):
    """``_prf(...)[2]`` elementwise over integer arrays, in its float order;
    a zero denominator gives 0.0 there too."""
    zeros = np.zeros(len(overlap))
    precision = np.divide(overlap, n_system, out=zeros.copy(), where=n_system > 0)
    recall = np.divide(overlap, n_reference, out=zeros.copy(), where=n_reference > 0)
    total = precision + recall
    return np.divide(2.0 * precision * recall, total, out=zeros, where=total > 0)


class RunningOverlap:
    """The greedy oracle's scorer for a group of documents: clipped ROUGE-1/2
    counts of each document's growing selection of its sentences (token
    sequences) against its :class:`Reference`, where :meth:`joined` scores
    every open candidate of every document at once. Sentences are numbered
    across the group, document after document (``doc`` holds each one's
    document). A selection reads in document order, its junction bigrams
    counted as in :class:`Selection`.

    The columns are [reference unigrams padded to U | other | reference
    bigrams padded to B], U and B the group's largest type counts: a
    document's unigram types take columns 0.. in first-seen order, its
    bigram types U+1.., and column U any other n-gram or a missing
    neighbour. A padded column has count 0 and room 0, so it adds exactly 0
    to an overlap. ``_counts`` is the sentence x column count matrix (one
    bincount), ``_pair`` the (document, unigram, unigram) table of bigram
    columns, ``_before``/``_after`` the columns of the tokens next to each
    sentence in its document's selection, and ``room`` the document x column
    reference count minus the selection's."""

    def __init__(self, references, documents):
        unigrams = [r.ngrams(1) for r in references]
        bigrams = [r.ngrams(2) for r in references]
        u = self._u = max(map(len, unigrams), default=0)
        width = u + 1 + max(map(len, bigrams), default=0)
        ids = [{t: j for j, t in enumerate(c)} for c in unigrams]
        self._pair = np.full((len(references), u + 1, u + 1), u, dtype=np.intp)
        self.room = np.zeros((len(references), width), dtype=np.int32)
        for d, (one, two) in enumerate(zip(unigrams, bigrams)):
            self._pair[d, [ids[d][x] for x, _ in two], [ids[d][y] for _, y in two]] = \
                range(u + 1, u + 1 + len(two))
            self.room[d, :len(one)] = list(one.values())
            self.room[d, u + 1:u + 1 + len(two)] = list(two.values())
        self.n_reference = np.array([len(r.tokens) for r in references], dtype=np.intp)
        self._n_bigrams = np.maximum(self.n_reference - 1, 0)
        self.n_tokens = np.zeros(len(references), dtype=np.intp)
        self.lengths = np.array([len(s) for sentences in documents for s in sentences],
                                 dtype=np.intp)
        sizes = [len(sentences) for sentences in documents]
        n = len(self.lengths)
        self.doc = np.repeat(np.arange(len(documents)), sizes)
        self.starts = np.cumsum([0] + sizes)  # each document's first row, then the end
        # each sentence's token columns and then column u, so the bigrams that
        # straddle two sentences (or two documents) land in column u
        flat = np.array([ids[d].get(t, u) for d, sentences in enumerate(documents)
                         for s in sentences for t in (*s, None)], dtype=np.intp)
        rows = np.repeat(np.arange(n), self.lengths + 1)
        cells = np.concatenate((rows * width + flat, rows[1:] * width
                                + self._pair[self.doc[rows[1:]], flat[:-1], flat[1:]]))
        # int32 halves the matrices a group holds; their row sums are int64
        self._counts = np.bincount(cells, minlength=n * width).astype(np.int32).reshape(n, width)
        self._scratch = np.empty((2, n, width), dtype=np.int32)
        ends = np.cumsum(self.lengths + 1)
        self._first, self._last = flat[ends - self.lengths - 1], flat[ends - 2]
        self._before, self._after = np.full((2, n), u)
        self._spans = [[] for _ in documents]  # selected rows of each document, in order

    def _junctions(self, i):
        """Bigram columns of the two junctions sentence(s) ``i`` would make on
        joining its document's selection, and of the one it would break."""
        pair, d, before, after = self._pair, self.doc[i], self._before[i], self._after[i]
        return (pair[d, before, self._first[i]], pair[d, self._last[i], after],
                pair[d, before, after])

    def joined(self, candidates):
        """ROUGE-1 and ROUGE-2 F1 arrays, the floats :func:`rouge_n` gives, if
        each of ``candidates`` (a row array, with tokens, not selected) joined
        its document's selection alone; one array pass, O(candidates * (U + B))."""
        u, k = self._u, len(candidates)
        d = self.doc[candidates]
        # a fresh candidates x columns array per step would be mapped and unmapped
        # anew; "clip" writes straight into the scratch rows, "raise" would buffer
        delta = np.take(self._counts, candidates, axis=0, mode="clip", out=self._scratch[0, :k])
        room = np.take(self.room, d, axis=0, mode="clip", out=self._scratch[1, :k])
        rows = np.arange(k)
        # one junction per statement, so no (row, column) repeats within one
        for column, change in zip(self._junctions(candidates), (1, 1, -1)):
            delta[rows, column] += change
        # with count changes c, sum(min(sys + c, ref)) = sum(sys) + sum(min(c, room))
        clipped = np.minimum(delta, room, out=delta)
        held1 = self.n_reference - self.room[:, :u].sum(1)
        held2 = self._n_bigrams - self.room[:, u + 1:].sum(1)
        overlap1 = held1[d] + clipped[:, :u].sum(1)
        overlap2 = held2[d] + clipped[:, u + 1:].sum(1)
        size = self.n_tokens[d] + self.lengths[candidates]
        return (_f1(overlap1, size, self.n_reference[d]),
                _f1(overlap2, size - 1, self._n_bigrams[d]))

    def add(self, i):
        """Add row ``i`` (with tokens, not selected) to its document's selection."""
        d = self.doc[i]
        self.room[d] -= self._counts[i]
        for column, change in zip(self._junctions(i), (1, 1, -1)):
            self.room[d, column] -= change
        self.n_tokens[d] += self.lengths[i]
        spans = self._spans[d]
        k = bisect(spans, i)
        self._after[spans[k - 1] + 1 if k else self.starts[d]:i] = self._first[i]
        self._before[i + 1:spans[k] if k < len(spans) else self.starts[d + 1]] = self._last[i]
        spans.insert(k, i)
