"""N-gram overlap (ROUGE-1/2) and longest-common-subsequence (ROUGE-L) scores.

All functions take token sequences (see :func:`sectsum.corpus.tokenize`) and
return precision/recall/F1. Counts are clipped per n-gram type, matching the
standard recall-oriented overlap definition. ROUGE-L uses the exact
bit-parallel LCS of Allison & Dix (1986) and Hyyrö (2004), one integer
bitmask over the reference updated once per system token: O(|sys| *
ceil(|ref| / 64)) word operations instead of a |sys| x |ref| table.
A :class:`Reference` counts a reference once for every score against it; a
:class:`RunningOverlap` keeps the ROUGE-1/2 counts of a growing selection.
"""

from __future__ import annotations

from bisect import bisect, insort
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

__all__ = ["RougeScore", "Reference", "RunningOverlap", "rouge_n", "rouge_l",
           "lcs_length"]


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

    def lcs(self, system_tokens):
        """LCS length of ``system_tokens`` and the reference (:func:`lcs_length`)."""
        masks, full = self.masks, (1 << len(self.tokens)) - 1
        v = full
        for x in system_tokens:
            u = v & masks.get(x, 0)
            v = ((v + u) | (v - u)) & full
        return len(self.tokens) - v.bit_count()


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


def lcs_length(a, b):
    """Length of the longest common subsequence of two token sequences.

    Bit-parallel and exact (Allison & Dix 1986; Hyyrö 2004): ``v`` is one row
    of the LCS table over ``b``, bit j clear where the row steps up at j, and
    each token ``x`` of ``a`` updates it with ``u = v & mask[x]``,
    ``v = (v + u) | (v - u)``. O(len(a) * ceil(len(b) / 64)) word operations.
    """
    return Reference(b).lcs(a)


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


def _gain(room, delta):
    """Change of the clipped overlap when ``delta`` (pairs of n-gram and
    count change) joins a selection; ``room[g]`` is the reference count of
    ``g`` minus the selection's. Sum of min(sys + d, ref) - min(sys, ref)."""
    gain = 0
    for g, d in delta:
        r = room[g]
        gain += min(d, r) - min(0, r)
    return gain


class RunningOverlap:
    """Clipped ROUGE-1/2 counts of a growing selection of a document's
    sentences (token sequences) against a :class:`Reference`. The selection
    reads in document order: a sentence landing between selected ``a < i <
    b`` adds its n-grams and the junction bigrams (last(a), first(i)) and
    (last(i), first(b)), and removes (last(a), first(b)). ``room1``/``room2``
    hold, per reference n-gram, the reference count minus the selection's, so
    a gain costs time linear in the sentence's tokens. Sentences without
    tokens never enter ``spans``."""

    def __init__(self, reference, sentences):
        self.sentences = sentences
        self.n_reference = len(reference.tokens)
        self.room1 = Counter(reference.ngrams(1))
        self.room2 = Counter(reference.ngrams(2))
        self._counts = [None] * len(sentences)
        self.spans = []  # selected sentences with tokens, in document order
        self.overlap1 = self.overlap2 = self.n_tokens = 0

    def _count(self, i):
        """Count sentence ``i``'s reference unigrams (pairs) and bigrams
        (dict) and keep them; read them as ``self._counts[i] or self._count(i)``."""
        tokens = self.sentences[i]
        self._counts[i] = ([(g, c) for g, c in _ngrams(tokens, 1).items() if g in self.room1],
                           {g: c for g, c in _ngrams(tokens, 2).items() if g in self.room2})
        return self._counts[i]

    def bigram_delta(self, i):
        """Bigram count changes from inserting sentence ``i`` (with tokens)."""
        spans, tokens = self.spans, self.sentences
        k = bisect(spans, i)
        # None stands for a missing neighbour; no reference bigram holds it
        last = tokens[spans[k - 1]][-1] if k else None
        first = tokens[spans[k]][0] if k < len(spans) else None
        delta = dict((self._counts[i] or self._count(i))[1])
        for g, d in (((last, tokens[i][0]), 1), ((tokens[i][-1], first), 1),
                     ((last, first), -1)):
            if g in self.room2:
                delta[g] = delta.get(g, 0) + d
        return delta.items()

    def scores(self, gain1=0, gain2=0, n_new=0):
        """ROUGE-1 and ROUGE-2 of the selection, plus ``gain1``/``gain2``
        overlap and ``n_new`` tokens: the floats :func:`rouge_n` gives."""
        size, n_ref = self.n_tokens + n_new, self.n_reference
        return (_score(self.overlap1 + gain1, size, n_ref),
                _score(self.overlap2 + gain2, max(size - 1, 0), max(n_ref - 1, 0)))

    def joined(self, i):
        """:meth:`scores` if sentence ``i`` (with tokens, not selected)
        joined the selection, which stays as it is."""
        return self.scores(_gain(self.room1, (self._counts[i] or self._count(i))[0]),
                           _gain(self.room2, self.bigram_delta(i)),
                           len(self.sentences[i]))

    def add(self, i):
        """Add sentence ``i`` (not selected) to the selection."""
        if not self.sentences[i]:
            return
        delta1 = (self._counts[i] or self._count(i))[0]
        delta2 = list(self.bigram_delta(i))
        self.overlap1 += _gain(self.room1, delta1)
        self.overlap2 += _gain(self.room2, delta2)
        for g, c in delta1:
            self.room1[g] -= c
        for g, d in delta2:
            self.room2[g] -= d
        self.n_tokens += len(self.sentences[i])
        insort(self.spans, i)
