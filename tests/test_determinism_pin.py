"""Pinned output digests of a fixed-seed run.

A refactor that should not change the numbers must keep these sha256 values.
A change that alters the math on purpose updates them in the same commit and
says why. The training run uses a large learning rate so that validation
loss bottoms out early and the best checkpoint differs from the final one,
and gradient accumulation so that a partial accumulation window is flushed.
"""

import dataclasses
import hashlib

from sectsum import SynthConfig, generate_synthetic, write_corpus
from sectsum.cli import run

TRAIN_DIGESTS = {
    "checkpoint.ckpt":
        "7c731467afd81e7018ea1cee299a515268e37d0813ff9f7a45a1230d1a0d9faf",
    "best_checkpoint.ckpt":
        "6c069a73c52ea1d85dba0fd902ce4486d86187ee66f36bc42796d84e13442f1d",
    "metrics.jsonl":
        "335d199bacb4841267d0b196ce19f19a5b595f2ffcd4f1783e5628ce5b0007b9",
}
LABEL_DIGESTS = {
    ():
        "1c8bebccecfac116a9aa4f4eba83a5aa4f230f74d2cee961c056e8959daa2343",
    ("--max-sentences", "3", "--seg-label", "last"):
        "038ee2ce25f3757ceaa47f59075e33625045957abe033c76839377ca2603962c",
}
GRADCHECK_STDOUT_DIGEST = (
    "e6e6a01dae13b5d1673b03bbbff5a8e44174b6d812af597d46e64623d25c5546"
)


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def test_train_outputs_are_pinned(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    assert run(["synth", "--out", str(corpus), "--docs", "12", "--seed", "3",
                "--sections", "2", "3", "--sentences", "3", "4"]) == 0
    out = tmp_path / "model"
    assert run(["train", "--corpus", str(corpus), "--out", str(out),
                "--val-fraction", "0.25", "--variant", "full", "--beta", "0.1",
                "--epochs", "4", "--batch-size", "4", "--grad-accumulation", "2",
                "--lr", "0.2", "--dim", "8", "--hash-buckets", "16",
                "--layers", "1", "--heads", "2", "--seed", "1"]) == 0
    digests = {name: _sha256((out / name).read_bytes()) for name in TRAIN_DIGESTS}
    assert digests == TRAIN_DIGESTS


def test_gradcheck_stdout_is_pinned(capsys):
    assert run(["gradcheck"]) == 0
    assert _sha256(capsys.readouterr().out.encode("utf-8")) == GRADCHECK_STDOUT_DIGEST


def test_label_outputs_are_pinned(tmp_path):
    """Six synth-default documents and one each of 20 and 40 sections of 10
    sentences (212 and 416 with their near-duplicates), written without
    labels, labeled uncapped and with a cap."""
    documents = []
    for seed, sections, sentences, count in ((5, (3, 5), (3, 6), 6),
                                             (6, (20, 20), (10, 10), 1),
                                             (7, (40, 40), (10, 10), 1)):
        config = SynthConfig(n_documents=count, sections_per_document=sections,
                             sentences_per_section=sentences, rng_seed=seed)
        documents.extend(dataclasses.replace(d, labels=None)
                         for d in generate_synthetic(config))
    assert sorted(len(d.sentences) for d in documents)[-2:] == [212, 416]
    corpus = tmp_path / "raw.jsonl"
    write_corpus(documents, corpus)
    digests = {}
    for flags in LABEL_DIGESTS:
        out = tmp_path / "labeled.jsonl"
        assert run(["label", "--corpus", str(corpus), "--out", str(out), *flags]) == 0
        digests[flags] = _sha256(out.read_bytes())
    assert digests == LABEL_DIGESTS
