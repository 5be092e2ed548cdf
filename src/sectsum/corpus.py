"""Document model, JSONL corpus IO, deterministic splits, and synthetic corpora.

A corpus is a JSON Lines file with one document per line:

    {"id": "...", "sentences": ["...", ...], "section_starts": [0, ...],
     "reference_summary": "..." | null,
     "labels": {"sum": [0|1, ...], "seg": [0|1, ...], "order": [int, ...]}
               | null}

``section_starts`` always contains 0 and is strictly increasing. Labels, when
present, have one entry per sentence; the optional ``order`` lists the
summary sentences in the order the labeler picked them.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import string
import sys
import uuid
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "CorpusError",
    "Sentence",
    "LabelSet",
    "Document",
    "SynthConfig",
    "tokenize",
    "parse_corpus",
    "write_corpus",
    "split_corpus",
    "generate_synthetic",
    "CUE_PHRASES",
]

# Cue phrases that tend to open a new section. The featurizer's default cue
# lexicon and the synthetic generator share this list.
CUE_PHRASES = (
    "so next we need",
    "turning now to",
    "let us now consider",
    "in this section",
    "moving on to",
)


class CorpusError(Exception):
    """Raised for malformed corpus files or schema-invalid documents."""


@contextlib.contextmanager
def _atomic_write(path, mode="w", **open_args):
    """``open(path, mode, **open_args)`` that changes ``path`` only once the
    block completes: the data goes to a new file beside it, which
    ``os.replace`` then moves onto ``path``. On any failure the new file is
    removed and ``path`` keeps what it held, or stays absent. A symlink is
    written through, as ``open`` does; a device or pipe such as /dev/null
    holds nothing to keep and is written directly."""
    path = os.path.realpath(path)
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, mode, **open_args) as fh:
            yield fh
        return
    directory, name = os.path.split(path)
    tmp = os.path.join(directory, f".{name}.{uuid.uuid4().hex}.tmp")
    fh = open(tmp, mode.replace("w", "x"), **open_args)
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def tokenize(text):
    """Lowercase, split on whitespace, strip surrounding punctuation.

    Tokens that are pure punctuation are dropped; the rest are interned.
    """
    tokens = []
    for raw in text.lower().split():
        tok = raw.strip(string.punctuation)
        if tok:
            tokens.append(sys.intern(tok))
    return tokens


@dataclass(frozen=True)
class Sentence:
    """One sentence: raw text and its tokens."""

    text: str
    tokens: tuple

    @classmethod
    def from_text(cls, text):
        return cls(text=text, tokens=tuple(tokenize(text)))


@dataclass(frozen=True)
class LabelSet:
    """Per-sentence supervision for one document.

    summary_labels
        0/1 per sentence; 1 marks sentences belonging to the extractive target.
    boundary_labels
        0/1 per sentence under a segment labeling convention (first or last
        sentence of each section).
    selection_order
        Order in which the labeler picked summary sentences, when known;
        the corpus format keeps it as ``labels.order``. ``None`` for a
        record without ``order``.
    """

    summary_labels: tuple
    boundary_labels: tuple
    selection_order: tuple | None = None


@dataclass(frozen=True)
class Document:
    """An immutable document: sentences, section structure, optional labels."""

    id: str
    sentences: tuple
    section_starts: tuple
    reference_summary: str | None = None
    labels: LabelSet | None = None

    def __len__(self):
        return len(self.sentences)

    def summary_tokens(self, selected):
        """``tokenize`` of the selected sentences' text in document order."""
        return [tok for i in sorted(selected) for tok in self.sentences[i].tokens]

    @classmethod
    def build(cls, doc_id, sentence_texts, section_starts=(0,),
              reference_summary=None, labels=None):
        """Construct from raw sentence strings and validate."""
        doc = cls(
            id=doc_id,
            sentences=tuple(Sentence.from_text(text) for text in sentence_texts),
            section_starts=tuple(int(b) for b in section_starts),
            reference_summary=reference_summary,
            labels=labels,
        )
        doc.validate()
        return doc

    def validate(self):
        """Raise :class:`CorpusError` if any schema invariant is violated."""
        n = len(self.sentences)
        if not self.id or not isinstance(self.id, str):
            raise CorpusError("document id must be a non-empty string")
        if n < 1:
            raise CorpusError(f"document {self.id!r}: needs at least one sentence")
        starts = self.section_starts
        if not starts or starts[0] != 0:
            raise CorpusError(f"document {self.id!r}: section_starts must begin with 0")
        if list(starts) != sorted(set(starts)):
            raise CorpusError(
                f"document {self.id!r}: section_starts must be strictly increasing"
            )
        if starts[-1] >= n:
            raise CorpusError(
                f"document {self.id!r}: boundary out of range ({starts[-1]} >= {n})"
            )
        if self.reference_summary is not None and not isinstance(self.reference_summary, str):
            raise CorpusError(f"document {self.id!r}: reference_summary must be a string")
        if self.labels is not None:
            self._validate_labels(n)

    def _validate_labels(self, n):
        lab = self.labels
        for name, values in (("sum", lab.summary_labels), ("seg", lab.boundary_labels)):
            if len(values) != n:
                raise CorpusError(
                    f"document {self.id!r}: {name} labels length {len(values)} != {n}"
                )
            if any(v not in (0, 1) for v in values):
                raise CorpusError(f"document {self.id!r}: {name} labels must be 0/1")
        if lab.selection_order is not None:
            picked = {i for i, v in enumerate(lab.summary_labels) if v == 1}
            if sorted(lab.selection_order) != sorted(picked) or \
                    len(set(lab.selection_order)) != len(lab.selection_order):
                raise CorpusError(
                    f"document {self.id!r}: selection_order inconsistent with summary labels"
                )


def _doc_to_record(doc):
    record = {
        "id": doc.id,
        "sentences": [s.text for s in doc.sentences],
        "section_starts": list(doc.section_starts),
        "reference_summary": doc.reference_summary,
    }
    if doc.labels is not None:
        record["labels"] = {
            "sum": list(doc.labels.summary_labels),
            "seg": list(doc.labels.boundary_labels),
        }
        if doc.labels.selection_order is not None:
            record["labels"]["order"] = list(doc.labels.selection_order)
    else:
        record["labels"] = None
    return record


def _int_list(value, name):
    """``value`` as a tuple; it must be a JSON list of integers (not booleans)."""
    if not isinstance(value, list) or not all(type(v) is int for v in value):
        raise CorpusError(f"{name} must be a list of integers")
    return tuple(value)


def _record_to_doc(record):
    for key in ("id", "sentences", "section_starts"):
        if key not in record:
            raise CorpusError(f"record missing required key {key!r}")
    sentences = record["sentences"]
    if not isinstance(sentences, list) or not all(isinstance(s, str) for s in sentences):
        raise CorpusError("sentences must be a list of strings")
    starts = _int_list(record["section_starts"], "section_starts")
    labels = None
    raw_labels = record.get("labels")
    if raw_labels is not None:
        if not isinstance(raw_labels, dict) or "sum" not in raw_labels or "seg" not in raw_labels:
            raise CorpusError("labels must be an object with 'sum' and 'seg'")
        order = raw_labels.get("order")
        labels = LabelSet(
            summary_labels=_int_list(raw_labels["sum"], "labels.sum"),
            boundary_labels=_int_list(raw_labels["seg"], "labels.seg"),
            selection_order=None if order is None else _int_list(order, "labels.order"),
        )
    doc = Document.build(
        record["id"],
        sentences,
        section_starts=starts,
        reference_summary=record.get("reference_summary"),
        labels=labels,
    )
    # A JSON escape such as "\ud800" decodes to a lone surrogate, which no
    # writer can encode: encoding raises UnicodeEncodeError, a ValueError.
    for text in (doc.id, doc.reference_summary or "", *(s.text for s in doc.sentences)):
        text.encode("utf-8")
    return doc


def _read_jsonl(path, build, key):
    """``build(record)`` for each non-blank line of the JSON Lines file
    ``path``, in file order. A line that is not a UTF-8 JSON object, that
    ``build`` rejects, or whose ``key(item)`` an earlier line already gave,
    raises :class:`CorpusError` naming its line number."""
    items = []
    first_line = {}  # key -> line number
    with open(path, "rb") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line.decode("utf-8"))
                if not isinstance(record, dict):
                    raise CorpusError("record must be a JSON object")
                item = build(record)
            except (CorpusError, KeyError, TypeError, ValueError, RecursionError) as exc:
                detail = f"missing key {exc}" if isinstance(exc, KeyError) else exc
                raise CorpusError(f"line {line_no}: {detail}") from exc
            item_key = key(item)
            if item_key in first_line:
                raise CorpusError(f"line {line_no}: document id {item_key!r} repeats "
                                  f"line {first_line[item_key]}")
            first_line[item_key] = line_no
            items.append(item)
    return items


def parse_corpus(path):
    """Documents of a JSONL corpus, one per non-blank line. A malformed line,
    or one that repeats an earlier line's document id, raises
    :class:`CorpusError` naming the line. Returns ``(documents, 0)``: the 0
    was a lenient mode's skipped-line count, and goes once
    ``perfbench/tracing.py`` stops reading it (ROADMAP item 1)."""
    return _read_jsonl(path, _record_to_doc, lambda doc: doc.id), 0


def write_corpus(documents, path):
    """Write documents (labels included when present) as JSONL."""
    with _atomic_write(path, encoding="utf-8") as fh:
        for doc in documents:
            fh.write(json.dumps(_doc_to_record(doc), ensure_ascii=False))
            fh.write("\n")


def split_corpus(documents, fractions=(0.8, 0.1, 0.1), rng_seed=0):
    """Deterministically shuffle and partition into (train, val, test).

    Validation and test sizes are floored; the remainder goes to train, so
    every document lands in exactly one split.
    """
    if len(documents) < 3:
        raise CorpusError("need at least 3 documents to split")
    if len(fractions) != 3 or any(f < 0 for f in fractions):
        raise ValueError("fractions must be three non-negative numbers")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError(f"fractions must sum to 1, got {sum(fractions)}")
    n = len(documents)
    n_val = math.floor(fractions[1] * n)
    n_test = math.floor(fractions[2] * n)
    n_train = n - n_val - n_test
    order = np.random.default_rng(rng_seed).permutation(n)
    shuffled = [documents[i] for i in order]
    train = shuffled[:n_train]
    val = shuffled[n_train:n_train + n_val]
    test = shuffled[n_train + n_val:]
    return train, val, test


# ---------------------------------------------------------------------------
# Synthetic corpus generation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SynthConfig:
    """Knobs for the planted-salience synthetic corpus.

    ``salience_boundary_bias`` is the probability that a planted salient
    sentence is pinned to the first or last slot of its section; otherwise its
    slot is uniform over the section.
    """

    n_documents: int = 100
    sentences_per_section: tuple = (3, 6)
    sections_per_document: tuple = (3, 5)
    vocabulary_size: int = 120
    salience_boundary_bias: float = 0.5
    weak_salient_rate: float = 0.35
    duplicate_rate: float = 0.45
    impostor_rate: float = 0.0
    rng_seed: int = 0

    def __post_init__(self):
        if self.n_documents < 1:
            raise ValueError("n_documents must be positive")
        for name in ("sentences_per_section", "sections_per_document"):
            lo, hi = getattr(self, name)
            if lo < 1 or hi < lo:
                raise ValueError(f"{name} must be a (lo, hi) range with 1 <= lo <= hi")
        for name in ("salience_boundary_bias", "weak_salient_rate",
                     "duplicate_rate", "impostor_rate"):
            if not (0.0 <= getattr(self, name) <= 1.0):
                raise ValueError(f"{name} must be in [0, 1]")
        if self.vocabulary_size < 30:
            raise ValueError("vocabulary_size must be at least 30")
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed must be non-negative, got {self.rng_seed}")


# Internal generator constants. Salient sentences mix globally shared marker
# words (learnable across documents) with per-document topic words (so each
# reference summary is document specific). A fraction of salient sentences are
# "weak" (single marker), and near-duplicate distractors that are *not* part
# of the reference summary are inserted later in the document.
_TOPIC_WORDS_PER_DOC = 6
_STRONG_MARKERS = 3
_WEAK_MARKERS = 1
_IMPOSTOR_MARKERS = 2


# Each cue phrase as the interned tokens ``tokenize`` gives its text.
_CUE_TOKENS = tuple([sys.intern(word) for word in phrase.split()] for phrase in CUE_PHRASES)

# 64-bit outputs fetched from the bit generator at a time. A small fetch keeps
# a one-document corpus (``gradcheck``'s probe) cheap.
_RAW_CHUNK = 256


def _raw_outputs(bit_generator):
    """The bit generator's 64-bit outputs, one at a time, fetched in chunks."""
    while True:
        yield from bit_generator.random_raw(_RAW_CHUNK).tolist()


class _Draws:
    """The ``Generator`` calls that :func:`generate_synthetic` makes, in plain
    Python over the raw outputs of ``np.random.default_rng(seed)``'s PCG64.

    Each call returns the value, and consumes the outputs, that the same call
    on ``np.random.default_rng(seed)`` does (numpy 2's algorithms: O'Neill,
    *PCG*, 2014; Lemire, *Fast Random Integer Generation in an Interval*,
    2019). A call that numpy serves by another algorithm raises ValueError.
    """

    def __init__(self, seed):
        self._next64 = _raw_outputs(np.random.default_rng(seed).bit_generator).__next__
        self._half = None  # the high half of the last 64-bit output split in two

    def _next32(self):
        """PCG64's 32-bit draw: the low half of a 64-bit output, whose high
        half is kept for the next 32-bit draw."""
        half = self._half
        if half is None:
            word = self._next64()
            low, self._half = word & 0xFFFFFFFF, word >> 32
            return low
        self._half = None
        return half

    def _bounded(self, top):
        """A uniform integer in [0, top] by Lemire's method on 32-bit draws;
        ``top`` 0 takes no draw."""
        if not 0 <= top < 0xFFFFFFFF:
            raise ValueError(f"no exact draw over {top + 1} values; 1 to 2**32 - 1 are drawn")
        if top == 0:
            return 0
        span = top + 1
        product = self._next32() * span
        if product & 0xFFFFFFFF < span:
            threshold = (0xFFFFFFFF - top) % span  # 2**32 mod span
            while product & 0xFFFFFFFF < threshold:
                product = self._next32() * span
        return product >> 32

    def random(self):
        """``Generator.random()``: the top 53 bits of a 64-bit output, times 2**-53."""
        return (self._next64() >> 11) * 2.0 ** -53

    def integers(self, low, high=None):
        """``Generator.integers(low, high)``: uniform over [low, high), or
        over [0, low) without ``high``."""
        if high is None:
            low, high = 0, low
        return low + self._bounded(high - low - 1)

    def shuffle(self, items):
        """``Generator.shuffle`` of a list, in place: Fisher-Yates from the
        back, each index a 32-bit draw masked to its bound's bit length and
        drawn again while above the bound."""
        for i in range(len(items) - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            j = self._next32() & mask
            while j > i:
                j = self._next32() & mask
            items[i], items[j] = items[j], items[i]

    def choice(self, seq, size):
        """``Generator.choice(seq, size, replace=False)`` as a list: Floyd's
        algorithm picks the indices, then a Fisher-Yates pass orders them,
        both drawing by Lemire's method."""
        n = len(seq)
        if not 0 <= size <= n:
            raise ValueError(f"cannot take {size} distinct items of {n}")
        if n > 10000 and size > n // 50:
            raise ValueError(f"numpy takes {size} of {n} by a tail shuffle; no exact draw")
        picked, seen = [], set()
        for j in range(n - size, n):
            val = self._bounded(j)
            if val in seen:  # j is new: every earlier draw is below it
                val = j
            seen.add(val)
            picked.append(val)
        for i in range(size - 1, 0, -1):
            j = self._bounded(i)
            picked[i], picked[j] = picked[j], picked[i]
        return [seq[i] for i in picked]


def generate_synthetic(config):
    """Generate a labeled corpus with planted salient sentences.

    Every section contains exactly one planted salient sentence; the
    reference summary is the concatenation of planted sentences in document
    order. Section-first sentences are prefixed with a cue phrase. Placement
    of each salient sentence follows ``salience_boundary_bias``. Byte-identical
    output for identical configs.

    The draws go through :class:`_Draws`, which gives the values numpy's
    ``Generator(PCG64)`` gives bit for bit, so the output rests on PCG64's raw
    outputs and its seeding only, not on numpy's sampling code. Each sentence
    is built from the interned tokens its text joins, as ``tokenize`` of that
    text gives them.

    Returns a list of :class:`Document` with planted labels attached
    (boundary labels use the section-first convention).
    """
    draws = _Draws(config.rng_seed)
    words = [sys.intern(f"w{j:03d}") for j in range(config.vocabulary_size)]
    n_markers = max(6, config.vocabulary_size // 20)
    markers = words[:n_markers]
    filler = words[n_markers:]
    n_filler = len(filler)
    sec_lo, sec_hi = config.sections_per_document
    sent_lo, sent_hi = config.sentences_per_section

    documents = []
    for doc_i in range(config.n_documents):
        topic = draws.choice(filler, _TOPIC_WORDS_PER_DOC)
        n_sections = draws.integers(sec_lo, sec_hi + 1)
        sections = []  # each a list of (kind, tokens) sentences
        for _ in range(n_sections):
            n_sents = draws.integers(sent_lo, sent_hi + 1)
            weak = draws.random() < config.weak_salient_rate
            tokens = draws.choice(markers, _WEAK_MARKERS if weak else _STRONG_MARKERS)
            tokens += draws.choice(topic, 3)
            tokens += [filler[draws.integers(n_filler)] for _ in range(2 if weak else 1)]
            draws.shuffle(tokens)
            body = [("filler", [topic[draws.integers(len(topic))]
                                if draws.random() < 0.25 else filler[draws.integers(n_filler)]
                                for _ in range(draws.integers(4, 9))])
                    for _ in range(n_sents - 1)]
            if draws.random() < config.salience_boundary_bias:
                slot = 0 if draws.random() < 0.5 else n_sents - 1
            else:
                slot = draws.integers(0, n_sents)
            body.insert(slot, ("salient", tokens))
            sections.append(body)

        # Near-duplicate distractors: copy a sentence into a strictly later
        # section with one token swapped. Insertion slots are interior (never
        # index 0, never appended past the end) so boundary-placed salient
        # sentences keep their first/last status. The copies are read at the
        # salient sentences' positions as they were before any insertion, so
        # after an insertion into the same section some copies are of a filler
        # sentence or of another duplicate. Copying the planted sentence instead
        # changes every synthetic corpus, and acceptance 6 then loses its
        # margin, so the positional copy stays until that is settled.
        salient_positions = [
            (si, pi) for si, sec in enumerate(sections)
            for pi, (kind, _) in enumerate(sec) if kind == "salient"
        ]
        for si, pi in salient_positions:
            if draws.random() >= config.duplicate_rate:
                continue
            candidates = [
                t for t in range(si + 1, n_sections) if len(sections[t]) >= 2
            ]
            if not candidates:
                continue
            target = sections[candidates[draws.integers(len(candidates))]]
            tokens = list(sections[si][pi][1])
            swap_at = draws.integers(len(tokens))  # drawn before the filler word
            tokens[swap_at] = filler[draws.integers(n_filler)]
            target.insert(draws.integers(1, len(target)), ("dup", tokens))

        # Lexical impostors: strictly interior filler sentences that pick up
        # marker words. They look salient to a content-only ranker but sit
        # where salient sentences rarely do when the boundary bias is high.
        if config.impostor_rate > 0.0:
            for sec in sections:
                for pi in range(1, len(sec) - 1):
                    kind, tokens = sec[pi]
                    if kind == "filler" and draws.random() < config.impostor_rate:
                        sec[pi] = ("impostor", draws.choice(markers, _IMPOSTOR_MARKERS)
                                   + tokens[_IMPOSTOR_MARKERS:])

        for sec in sections:
            kind, tokens = sec[0]
            sec[0] = (kind, _CUE_TOKENS[draws.integers(len(_CUE_TOKENS))] + tokens)

        flat = [(pi == 0, kind, tokens)
                for sec in sections for pi, (kind, tokens) in enumerate(sec)]
        sentences = tuple(Sentence(" ".join(tokens), tuple(tokens)) for _, _, tokens in flat)
        summary = tuple(int(kind == "salient") for _, kind, _ in flat)
        boundary = tuple(int(first) for first, _, _ in flat)
        selection_order = tuple(i for i, flag in enumerate(summary) if flag)
        doc = Document(
            id=f"synth-{config.rng_seed}-{doc_i:04d}",
            sentences=sentences,
            section_starts=tuple(i for i, flag in enumerate(boundary) if flag),
            reference_summary=" ".join(sentences[i].text for i in selection_order),
            labels=LabelSet(summary_labels=summary, boundary_labels=boundary,
                            selection_order=selection_order),
        )
        doc.validate()
        documents.append(doc)
    return documents


def relabel_boundaries(doc, boundary_labels):
    """Return a copy of ``doc`` with boundary labels replaced."""
    if doc.labels is None:
        raise CorpusError(f"document {doc.id!r} carries no labels to update")
    labels = replace(doc.labels, boundary_labels=tuple(boundary_labels))
    return replace(doc, labels=labels)
