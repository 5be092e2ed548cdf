"""Pinned output digests of a fixed-seed run.

A refactor that should not change the numbers must keep these sha256 values.
A change that alters the math on purpose updates them in the same commit and
says why. The training run uses a large learning rate so that validation
loss bottoms out early and the best checkpoint differs from the final one,
and gradient accumulation so that a partial accumulation window is flushed.
"""

import dataclasses
import hashlib

import pytest

from sectsum import SynthConfig, generate_synthetic, parse_corpus, write_corpus
from sectsum.cli import run

TRAIN_DIGESTS = {
    "checkpoint.ckpt":
        "240f61940a001330b7ffcd53df8bedb4b3735436c87cb73a4bf3b19107292334",
    "best_checkpoint.ckpt":
        "4ccd7f757e52bc568ba5b1aad5b419df9dc5ce54e40c0e298f8b4f71d612d5f0",
    "metrics.jsonl":
        "6983f48cfb1b2339bc725a1384f87c90ca43e7742750bbbe5fd39aa1b4472189",
}
PREDICT_EVAL_DIGESTS = {
    "predictions.jsonl":
        "9c1b18af1f57633a77490c385773bba52e8d05aa4c40fb19e034e70bfbb09aa5",
    "report.json":
        "7f449e10ebdbe31b914f17493d51779a173cc13ab2497ea293505c69871df60e",
    "score_vs_k.csv":
        "f4d2ebc1c4cd21515f6f55a1301a366c63c976405c2c9ca0ca9307866b4bd994",
    "boundary_histogram.csv":
        "210addef5e19f3436acb71dfba1e3931e2c33aa4a0f93c95de69391b85445625",
}
LABEL_DIGESTS = {
    ():
        "1c8bebccecfac116a9aa4f4eba83a5aa4f230f74d2cee961c056e8959daa2343",
    ("--max-sentences", "3", "--seg-label", "last"):
        "038ee2ce25f3757ceaa47f59075e33625045957abe033c76839377ca2603962c",
}
# the written corpus of generate_synthetic, per config: acceptance 6's mix of
# near-duplicates, impostors and weak salient sentences; every salient
# sentence duplicated at boundary bias 0 and 1; one-sentence sections, which
# leave no interior slot; and one 40-section document of 10 sentences each
SYNTH_CONFIGS = {
    "acceptance-6-mix": SynthConfig(
        n_documents=8, salience_boundary_bias=0.9, sections_per_document=(4, 6),
        weak_salient_rate=0.5, duplicate_rate=0.9, impostor_rate=0.6, rng_seed=11),
    "all-duplicated-bias-0": SynthConfig(
        n_documents=8, salience_boundary_bias=0.0, duplicate_rate=1.0, rng_seed=12),
    "all-duplicated-bias-1": SynthConfig(
        n_documents=8, salience_boundary_bias=1.0, duplicate_rate=1.0, rng_seed=13),
    "one-sentence-sections": SynthConfig(
        n_documents=8, sentences_per_section=(1, 1), impostor_rate=0.6, rng_seed=14),
    "40x10": SynthConfig(
        n_documents=1, sections_per_document=(40, 40), sentences_per_section=(10, 10),
        impostor_rate=0.6, rng_seed=15),
}
SYNTH_DIGESTS = {
    "acceptance-6-mix":
        "67b6c4d4f8bf95eb4f07b1d425db16266a7866676612c1f96ae492e88960cec7",
    "all-duplicated-bias-0":
        "d875b36e0ba9b004f096f8bb9fe2809bf77e509e963e073103cd8cb8a04441b2",
    "all-duplicated-bias-1":
        "24c3691c21bc348ac4d438b024932a9e192ecf4d44b9931a9ccdfb70e724d3ec",
    "one-sentence-sections":
        "e8fb1c7f8c28afeb3cf6985b854f605f46d87d09f5c0a1dd96498ba5427f5f11",
    "40x10":
        "d51421b60dec179a3a3d1d8026fdf98791035d282b96e1997fcaaab3c2143884",
}
GRADCHECK_STDOUT_DIGEST = (
    "5ce4096b1b55b474d8ead8e4b8ad57741f9e3d7e9887ec51f8d31a53d551db0c"
)


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def train_run(tmp_path_factory):
    """The pinned training run: its 12-document corpus and output directory."""
    tmp_path = tmp_path_factory.mktemp("train")
    corpus = tmp_path / "corpus.jsonl"
    assert run(["synth", "--out", str(corpus), "--docs", "12", "--seed", "3",
                "--sections", "2", "3", "--sentences", "3", "4"]) == 0
    out = tmp_path / "model"
    assert run(["train", "--corpus", str(corpus), "--out", str(out),
                "--val-fraction", "0.25", "--variant", "full", "--beta", "0.1",
                "--epochs", "4", "--batch-size", "4", "--grad-accumulation", "2",
                "--lr", "0.2", "--dim", "8", "--hash-buckets", "16",
                "--layers", "1", "--heads", "2", "--seed", "1"]) == 0
    return corpus, out


def test_train_outputs_are_pinned(train_run):
    _, out = train_run
    digests = {name: _sha256((out / name).read_bytes()) for name in TRAIN_DIGESTS}
    assert digests == TRAIN_DIGESTS


def test_predict_and_eval_outputs_are_pinned(train_run, tmp_path):
    """``predict`` with the best checkpoint over the training corpus, whose
    documents have several sentence counts and so form several stacks, then
    ``eval --plot-data`` on those predictions."""
    corpus, model = train_run
    assert len({len(doc.sentences) for doc in parse_corpus(corpus)[0]}) > 1
    assert run(["predict", "--corpus", str(corpus), "--out", str(tmp_path),
                "--checkpoint", str(model / "best_checkpoint.ckpt")]) == 0
    assert run(["eval", "--corpus", str(corpus), "--out", str(tmp_path), "--plot-data",
                "--predictions", str(tmp_path / "predictions.jsonl")]) == 0
    digests = {name: _sha256((tmp_path / name).read_bytes())
               for name in PREDICT_EVAL_DIGESTS}
    assert digests == PREDICT_EVAL_DIGESTS


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


def test_synth_outputs_are_pinned(tmp_path):
    digests = {}
    for name, config in SYNTH_CONFIGS.items():
        write_corpus(generate_synthetic(config), tmp_path / f"{name}.jsonl")
        digests[name] = _sha256((tmp_path / f"{name}.jsonl").read_bytes())
    assert digests == SYNTH_DIGESTS
