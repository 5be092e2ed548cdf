import json
import sys
import tracemalloc

import numpy as np
import pytest

from sectsum import (
    CUE_PHRASES,
    CorpusError,
    Document,
    LabelSet,
    Sentence,
    SynthConfig,
    boundary_proximity_histogram,
    generate_synthetic,
    parse_corpus,
    read_predictions,
    relabel_boundaries,
    split_corpus,
    tokenize,
    write_corpus,
)

from sectsum.corpus import _atomic_write

from conftest import make_doc
from test_determinism_pin import SYNTH_CONFIGS


def test_tokenize_lowercases_and_strips_punctuation():
    assert tokenize("The cat, sat!") == ["the", "cat", "sat"]
    assert tokenize("...") == []
    assert tokenize("") == []
    assert tokenize("A  b\tc\nd") == ["a", "b", "c", "d"]


def test_sentence_from_text():
    s = Sentence.from_text("Hello, World")
    assert s.text == "Hello, World"
    assert s.tokens == ("hello", "world")


def test_tokens_are_one_string_per_word_type(tmp_path):
    """A word read twice, by two ``tokenize`` calls or in two documents of a
    parsed corpus, is one string object."""
    assert tokenize("Tidal, flows")[0] is tokenize("the TIDAL pool")[1]
    records = [{"id": doc_id, "sentences": [text], "section_starts": [0]}
               for doc_id, text in (("a", "tidal flows"), ("b", "slack tidal water"))]
    path = tmp_path / "shared.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    (first, second), _ = parse_corpus(path)
    assert first.sentences[0].tokens[0] is second.sentences[0].tokens[1]


def test_parsed_corpus_holds_each_word_type_once(tmp_path):
    """Bytes a parsed 100-document synthetic corpus retains per sentence
    (tracemalloc): about 590 with a string per token, about 230 interned."""
    path = tmp_path / "synth.jsonl"
    write_corpus(generate_synthetic(SynthConfig(n_documents=100, rng_seed=3)), path)
    tracemalloc.start()
    try:
        docs, _ = parse_corpus(path)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    per_sentence = retained / sum(len(d) for d in docs)
    assert per_sentence <= 450, per_sentence


def test_document_build_and_len():
    doc = make_doc()
    assert len(doc) == 3
    assert doc.sentences[2].tokens == ("alpha", "beta", "gamma")
    assert doc.section_starts == (0, 2)


def test_document_validate_rejects_bad_starts():
    with pytest.raises(CorpusError, match="boundary out of range"):
        make_doc(section_starts=(0, 7)).validate()
    with pytest.raises(CorpusError):
        make_doc(section_starts=(1, 2)).validate()  # must start at 0
    with pytest.raises(CorpusError):
        make_doc(section_starts=(0, 2, 2)).validate()  # duplicates
    with pytest.raises(CorpusError):
        make_doc(section_starts=(0, 2, 1)).validate()  # unsorted


def test_document_validate_rejects_bad_labels():
    doc = make_doc()
    bad = Document(
        id=doc.id, sentences=doc.sentences, section_starts=doc.section_starts,
        reference_summary=doc.reference_summary,
        labels=LabelSet(summary_labels=(1, 0), boundary_labels=(1, 0, 0)),
    )
    with pytest.raises(CorpusError, match="label"):
        bad.validate()
    bad = Document(
        id=doc.id, sentences=doc.sentences, section_starts=doc.section_starts,
        reference_summary=doc.reference_summary,
        labels=LabelSet(summary_labels=(1, 0, 2), boundary_labels=(1, 0, 0)),
    )
    with pytest.raises(CorpusError):
        bad.validate()


def test_corpus_round_trip(tmp_path, tiny_corpus):
    path = tmp_path / "corpus.jsonl"
    write_corpus(tiny_corpus, path)
    parsed, skipped = parse_corpus(path)
    assert skipped == 0
    assert parsed == list(tiny_corpus)


def test_parse_corpus_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.jsonl"
    good = json.dumps({
        "id": "a", "sentences": ["x y", "z w"], "section_starts": [0],
    })
    # then a line that is not UTF-8 and one nested past the recursion limit
    path.write_bytes(good.encode() + b"\nnot json\n\xff\n"
                     + b"[" * 100_000 + b"]" * 100_000 + b"\n")
    with pytest.raises(CorpusError, match="line 2"):
        parse_corpus(path)


def test_parse_corpus_rejects_repeated_ids(tmp_path):
    records = [{"id": doc_id, "sentences": [text], "section_starts": [0]}
               for doc_id, text in (("a", "x y"), ("b", "z"), ("a", "w v"))]
    path = tmp_path / "twins.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    with pytest.raises(CorpusError, match="line 3: document id 'a' repeats line 1"):
        parse_corpus(path)


@pytest.mark.parametrize("field", ["id", "sentences", "reference_summary"])
def test_parse_corpus_rejects_lone_surrogates(tmp_path, field):
    good = {"id": "ok", "sentences": ["x y", "z w"], "section_starts": [0],
            "reference_summary": "x"}
    bad = {**good, "id": "a",
           field: ["abc \ud800 def"] if field == "sentences" else "abc \ud800"}
    path = tmp_path / "surrogate.jsonl"
    path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
    with pytest.raises(CorpusError, match="line 2: .*surrogates not allowed"):
        parse_corpus(path)


# One record of each JSON Lines format; both go through corpus._read_jsonl.
_READERS = pytest.mark.parametrize("read, record", [
    (lambda path: parse_corpus(path)[0],
     {"id": "a", "sentences": ["x y", "z w"], "section_starts": [0]}),
    (read_predictions,
     {"id": "a", "selected": [0], "boundaries": [0], "scores_sum": [0.5, 0.25],
      "scores_seg": [0.5, 0.25]}),
], ids=["corpus", "predictions"])


@_READERS
def test_blank_lines_between_records_change_nothing(tmp_path, read, record):
    lines = [json.dumps({**record, "id": doc_id}) for doc_id in ("a", "b", "c")]
    plain = tmp_path / "plain.jsonl"
    plain.write_text("".join(line + "\n" for line in lines))
    spaced = tmp_path / "spaced.jsonl"
    spaced.write_text("\n" + "\n \t\n\n".join(lines) + "\n  \n")
    items = read(plain)
    assert len(items) == 3
    assert read(spaced) == items


@_READERS
def test_errors_after_blank_lines_name_the_physical_line(tmp_path, read, record):
    good = json.dumps(record) + "\n\n \t\n"
    path = tmp_path / "bad.jsonl"
    for bad, message in (("nonsense", "line 4: "),
                         (json.dumps({**record, "id": 5}), "line 4: .*id"),
                         ("[1, 2]", "line 4: record must be a JSON object"),
                         (json.dumps(record), "line 4: document id 'a' repeats line 1$")):
        path.write_text(good + bad + "\n")
        with pytest.raises(CorpusError, match=message):
            read(path)


def test_atomic_write_changes_the_target_only_on_success(tmp_path):
    target = tmp_path / "out.txt"
    target.write_text("old")
    with pytest.raises(RuntimeError, match="halfway"):
        with _atomic_write(target, encoding="utf-8") as fh:
            fh.write("new, half")
            raise RuntimeError("halfway")
    assert target.read_text() == "old"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
    with _atomic_write(target, "wb") as fh:
        fh.write(b"new")
    assert target.read_bytes() == b"new"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
    # a symlinked target is written through and stays a symlink
    link = tmp_path / "link.txt"
    link.symlink_to(target)
    with _atomic_write(link, encoding="utf-8") as fh:
        fh.write("through")
    assert link.is_symlink() and target.read_text() == "through"


def test_parse_corpus_rejects_missing_fields(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps({"id": "a"}) + "\n")
    with pytest.raises(CorpusError, match="line 1"):
        parse_corpus(path)


@pytest.mark.parametrize("field, value", [
    ("section_starts", [0, True]),
    ("section_starts", [False, 1]),
    ("sum", [True, 0]),
    ("seg", [1, False]),
    ("order", [False]),
])
def test_parse_corpus_rejects_booleans(tmp_path, field, value):
    # JSON true/false compare equal to 1/0 in Python; the schema wants integers
    record = {"id": "a", "sentences": ["x y", "z w"], "section_starts": [0, 1],
              "labels": {"sum": [1, 0], "seg": [1, 1], "order": [0]}}
    path = tmp_path / "good.jsonl"
    path.write_text(json.dumps(record) + "\n")
    assert len(parse_corpus(path)[0]) == 1
    if field == "section_starts":
        record[field] = value
    else:
        record["labels"][field] = value
    path = tmp_path / "bool.jsonl"
    path.write_text(json.dumps({"id": "ok", "sentences": ["x"], "section_starts": [0]})
                    + "\n" + json.dumps(record) + "\n")
    with pytest.raises(CorpusError, match=f"line 2: .*{field}"):
        parse_corpus(path)


def test_split_corpus_sizes_and_disjointness(tiny_corpus):
    docs = list(tiny_corpus) * 3  # 24 documents, ids not relevant here
    train, val, test = split_corpus(docs, (0.8, 0.1, 0.1), rng_seed=4)
    assert len(val) == 2 and len(test) == 2 and len(train) == 20
    again = split_corpus(docs, (0.8, 0.1, 0.1), rng_seed=4)
    assert (train, val, test) == again
    merged = sorted(id(d) for d in train + val + test)
    assert merged == sorted(id(d) for d in docs)


def test_split_corpus_rejects_tiny_input(tiny_corpus):
    with pytest.raises(CorpusError):
        split_corpus(list(tiny_corpus)[:2])


def test_synth_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(vocabulary_size=20)
    with pytest.raises(ValueError):
        SynthConfig(salience_boundary_bias=1.5)
    with pytest.raises(ValueError):
        SynthConfig(n_documents=0)


def test_synth_config_accepts_a_vocabulary_of_exactly_30_words():
    assert SynthConfig(vocabulary_size=30).vocabulary_size == 30
    with pytest.raises(ValueError, match="vocabulary_size"):
        SynthConfig(vocabulary_size=29)


def test_generate_synthetic_structure():
    config = SynthConfig(n_documents=20, rng_seed=3)
    docs = generate_synthetic(config)
    assert len(docs) == 20
    for doc in docs:
        doc.validate()
        assert doc.labels is not None
        n_sections = len(doc.section_starts)
        # one planted salient sentence per section
        assert sum(doc.labels.summary_labels) == n_sections
        # reference is the sentences with positive labels, in document order
        picked = [doc.sentences[i].text
                  for i, v in enumerate(doc.labels.summary_labels) if v]
        assert doc.reference_summary == " ".join(picked)
        # boundary labels follow the section-first convention
        starts = set(doc.section_starts)
        for i, v in enumerate(doc.labels.boundary_labels):
            assert v == (1 if i in starts else 0)


def test_generate_synthetic_cue_phrases():
    docs = generate_synthetic(SynthConfig(n_documents=10, rng_seed=9))
    for doc in docs:
        starts = set(doc.section_starts)
        for i, sent in enumerate(doc.sentences):
            has_cue = any(sent.text.startswith(c) for c in CUE_PHRASES)
            assert has_cue == (i in starts)


def test_generate_synthetic_bias_one_puts_salients_on_boundaries():
    # a boundary slot is the first or the last sentence of its section
    # (offset +1 is a section's first sentence, -1 its last)
    config = SynthConfig(n_documents=30, salience_boundary_bias=1.0, rng_seed=7)
    for doc in generate_synthetic(config):
        salient = [i for i, v in enumerate(doc.labels.summary_labels) if v]
        hist = boundary_proximity_histogram(salient, doc.section_starts, len(doc))
        assert set(hist) <= {-1, 1}
        assert sum(hist.values()) == len(salient)


def test_generate_synthetic_bias_zero_rarely_hits_section_starts():
    config = SynthConfig(n_documents=60, salience_boundary_bias=0.0, rng_seed=7)
    on_start = total = 0
    for doc in generate_synthetic(config):
        starts = set(doc.section_starts)
        for i, v in enumerate(doc.labels.summary_labels):
            if v:
                total += 1
                on_start += i in starts
    # uniform placement over sections of length >= 3 puts well under half
    # of the salient sentences on the opening slot
    assert on_start / total < 0.45


def test_generate_synthetic_deterministic():
    config = SynthConfig(n_documents=6, rng_seed=42)
    assert generate_synthetic(config) == generate_synthetic(config)
    other = SynthConfig(n_documents=6, rng_seed=43)
    assert generate_synthetic(config) != generate_synthetic(other)


@pytest.mark.parametrize("case", [*SYNTH_CONFIGS, 30, 2000])
def test_synth_sentences_hold_the_interned_tokens_of_their_text(case):
    """``generate_synthetic`` builds each sentence from the tokens it joins
    into the text, without ``tokenize``: they must be the tokens ``tokenize``
    gives that text, each the interned string of its word. The cases are the
    pinned synth configs and vocabularies of 30 and 2,000 words."""
    config = SYNTH_CONFIGS.get(case) or SynthConfig(
        n_documents=6, vocabulary_size=case, impostor_rate=0.5, rng_seed=case)
    for doc in generate_synthetic(config):
        for sentence in doc.sentences:
            assert sentence.tokens == tuple(tokenize(sentence.text))
            assert all(tok is sys.intern(tok) for tok in sentence.tokens)


def test_relabel_boundaries_replaces_only_seg_labels(tiny_corpus):
    doc = tiny_corpus[0]
    flipped = tuple(1 - v for v in doc.labels.boundary_labels)
    redone = relabel_boundaries(doc, flipped)
    assert redone.labels.boundary_labels == flipped
    assert redone.labels.summary_labels == doc.labels.summary_labels
    assert doc.labels.boundary_labels != flipped  # original untouched


def test_write_corpus_is_deterministic(tmp_path, tiny_corpus):
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_corpus(tiny_corpus, p1)
    write_corpus(tiny_corpus, p2)
    assert p1.read_bytes() == p2.read_bytes()
