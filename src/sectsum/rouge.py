"""N-gram overlap (ROUGE-1/2) and longest-common-subsequence (ROUGE-L) scores.

All functions take token sequences (see :func:`sectsum.corpus.tokenize`) and
return precision/recall/F1. Counts are clipped per n-gram type, matching the
standard recall-oriented overlap definition. ROUGE-L uses the exact
bit-parallel LCS of Allison & Dix (1986) and Hyyrö (2004), one integer
bitmask over the reference updated once per system token: O(|sys| *
ceil(|ref| / 64)) word operations instead of a |sys| x |ref| table.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

__all__ = ["RougeScore", "rouge_n", "rouge_l", "lcs_length"]


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
    return Counter(zip(*(tokens[i:] for i in range(n))))


def rouge_n(system_tokens, reference_tokens, n):
    """Clipped n-gram overlap score.

    Parameters
    ----------
    system_tokens, reference_tokens : sequence of str
    n : int
        N-gram order (1 for unigrams, 2 for bigrams, ...).

    Returns
    -------
    RougeScore
        Precision = clipped overlap / system n-grams, recall = clipped
        overlap / reference n-grams, F1 their harmonic mean. All zero when
        either side has no n-grams of order ``n``.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    sys_counts = _ngrams(system_tokens, n)
    ref_counts = _ngrams(reference_tokens, n)
    overlap = sum((sys_counts & ref_counts).values())
    return _score(overlap, sum(sys_counts.values()), sum(ref_counts.values()))


def lcs_length(a, b):
    """Length of the longest common subsequence of two token sequences.

    Bit-parallel and exact (Allison & Dix 1986; Hyyrö 2004): ``v`` is one row
    of the LCS table over ``b``, bit j clear where the row steps up at j, and
    each token ``x`` of ``a`` updates it with ``u = v & mask[x]``,
    ``v = (v + u) | (v - u)``. O(len(a) * ceil(len(b) / 64)) word operations.
    """
    masks = {}
    for j, y in enumerate(b):
        masks[y] = masks.get(y, 0) | (1 << j)
    full = (1 << len(b)) - 1
    v = full
    for x in a:
        u = v & masks.get(x, 0)
        v = ((v + u) | (v - u)) & full
    return len(b) - v.bit_count()


def rouge_l(system_tokens, reference_tokens):
    """Longest-common-subsequence score over the flat token sequences.

    Precision = LCS / system length, recall = LCS / reference length, F1 the
    harmonic mean. Zero when either side is empty.
    """
    lcs = lcs_length(system_tokens, reference_tokens)
    return _score(lcs, len(system_tokens), len(reference_tokens))
